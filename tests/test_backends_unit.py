"""Direct unit tests of the communication-engine backends (no full runtime).

These drive MpiBackend / LciBackend through the Listing-1 API with a
hand-rolled progress loop, checking the §4.2 / §5.3 mechanisms in isolation:
persistent-receive re-arming, the 30-transfer cap with FIFO promotion,
eager-put handshakes, FIFO fairness batching, and retry delegation.
"""

import itertools

import pytest

from repro.config import LciCosts, MpiCosts, RuntimeCosts
from repro.errors import RuntimeBackendError
from repro.lci.device import LciWorld
from repro.mpi.world import MpiWorld
from repro.network import Fabric
from repro.runtime.comm_engine import TAG_PUT_COMPLETE
from repro.runtime.lci_backend import LciBackend
from repro.runtime.mpi_backend import MpiBackend
from repro.sim.core import PARK, Simulator
from repro.units import KiB, MiB

TAG_TEST = 7


def make_mpi_pair(rt_costs=None, mpi_costs=None):
    sim = Simulator()
    fabric = Fabric(sim, 2)
    world = MpiWorld(sim, fabric, mpi_costs, allow_overtaking=True)
    tags = itertools.count(1000)
    engines = [
        MpiBackend(sim, world.ranks[i], tags, rt_costs or RuntimeCosts()) for i in range(2)
    ]
    return sim, engines


def make_lci_pair(rt_costs=None, lci_costs=None):
    sim = Simulator()
    fabric = Fabric(sim, 2)
    world = LciWorld(sim, fabric, lci_costs)
    tags = itertools.count(1000)
    engines = [
        LciBackend(sim, world.devices[i], tags, rt_costs or RuntimeCosts()) for i in range(2)
    ]
    return sim, engines


def register_recorder(engine, tag=TAG_TEST):
    """Register an AM callback that records (msg, size, src)."""
    got = []

    def cb(eng, t, msg, size, src, cb_data):
        got.append((msg, size, src))
        return
        yield  # generator shape

    engine.tag_reg(tag, cb, max_len=8 * KiB)
    return got


def register_put_recorder(engine):
    got = []

    def cb(eng, t, msg, size, src, cb_data):
        got.append((msg["r_cb_data"], msg["data"], size, src))
        return
        yield

    engine.tag_reg(TAG_PUT_COMPLETE, cb, max_len=4 * KiB)
    return got


def drive(sim, engines, body, lci_progress=True, until=5.0):
    """Run `body` as a process while progress loops service both engines.

    The loops idle the way the runtime's comm and progress threads do:
    each parks on its engine (or LCI device) and is woken by it, or by
    the stop event at the end."""
    stop = sim.event()

    def poll_loop(target, me):
        while not stop.triggered:
            n = yield from target.progress()
            if n == 0 and target.park(me[0]):
                yield PARK

    def spawn(target):
        me = []
        me.append(sim.process(poll_loop(target, me)))
        stop.add_callback(lambda _evt, p=me[0]: p.wake())

    def main():
        yield from engines[0].start()
        yield from engines[1].start()
        for e in engines:
            spawn(e)
            if lci_progress and hasattr(e, "device"):
                spawn(e.device)
        result = yield from body()
        # Allow in-flight traffic to land.
        yield sim.timeout(1e-3)
        stop.succeed()
        return result

    result = sim.run_process(main(), until=until)
    sim.run(until=until + 1.0)
    return result


class TestMpiBackendUnit:
    def test_send_am_invokes_remote_callback(self):
        sim, engines = make_mpi_pair()
        got = register_recorder(engines[1])
        register_recorder(engines[0])

        def body():
            yield from engines[0].send_am(TAG_TEST, 1, {"hello": 1}, 256)

        drive(sim, engines, body, lci_progress=False)
        assert got == [({"hello": 1}, 256, 0)]

    def test_persistent_receives_rearm(self):
        """More AMs than persistent receives (5/tag) must all be delivered."""
        sim, engines = make_mpi_pair()
        got = register_recorder(engines[1])
        register_recorder(engines[0])
        n = 23

        def body():
            for i in range(n):
                yield from engines[0].send_am(TAG_TEST, 1, i, 128)

        drive(sim, engines, body, lci_progress=False)
        # All messages delivered exactly once.  Callback order follows the
        # Testsome array index, not arrival order, once the 5 persistent
        # receives wrap — exactly the real backend's behaviour (PaRSEC's AM
        # callbacks are order-independent by design, §2.1).
        assert sorted(m for m, _s, _src in got) == list(range(n))

    def test_put_delivers_data_and_callback(self):
        sim, engines = make_mpi_pair()
        register_recorder(engines[0])
        register_recorder(engines[1])
        puts = register_put_recorder(engines[1])
        register_put_recorder(engines[0])
        local = []

        def l_cb(eng, data):
            local.append(data)
            return
            yield

        def body():
            yield from engines[0].put(
                data="payload", size=1 * MiB, remote=1, l_cb=l_cb,
                r_cb_data={"flow": 9}, l_cb_data="done",
            )

        drive(sim, engines, body, lci_progress=False)
        assert puts == [({"flow": 9}, "payload", 1 * MiB, 0)]
        assert local == ["done"]

    def test_transfer_cap_defers_and_promotes_fifo(self):
        rt = RuntimeCosts(mpi_max_transfers=2)
        sim, engines = make_mpi_pair(rt_costs=rt)
        register_recorder(engines[0])
        register_recorder(engines[1])
        puts = register_put_recorder(engines[1])
        register_put_recorder(engines[0])

        def body():
            for i in range(6):
                yield from engines[0].put(
                    data=i, size=256 * KiB, remote=1, l_cb=None, r_cb_data=i
                )
            # More puts than slots: some must be deferred at this instant.
            assert len(engines[0]._deferred) > 0

        drive(sim, engines, body, lci_progress=False)
        assert [p[0] for p in puts] == list(range(6))  # FIFO completion
        assert engines[0]._deferred == type(engines[0]._deferred)()

    def test_duplicate_tag_registration_rejected(self):
        _sim, engines = make_mpi_pair()
        register_recorder(engines[0])
        with pytest.raises(RuntimeBackendError, match="registered twice"):
            register_recorder(engines[0])

    def test_unregistered_tag_send_rejected(self):
        sim, engines = make_mpi_pair()

        def body():
            yield from engines[0].send_am(977, 1, None, 16)

        with pytest.raises(RuntimeBackendError, match="unregistered"):
            drive(sim, engines, body, lci_progress=False)

    def test_stats_counters(self):
        sim, engines = make_mpi_pair()
        register_recorder(engines[0])
        register_recorder(engines[1])
        register_put_recorder(engines[0])
        register_put_recorder(engines[1])

        def body():
            yield from engines[0].send_am(TAG_TEST, 1, None, 64)
            yield from engines[0].put(data=1, size=64 * KiB, remote=1,
                                      l_cb=None, r_cb_data=None)

        drive(sim, engines, body, lci_progress=False)
        assert engines[0].stats["am_sent"] >= 2  # user AM + handshake
        assert engines[0].stats["puts_started"] == 1
        assert engines[1].stats["puts_completed"] == 1
        assert engines[0].stats["bytes_put"] == 64 * KiB


class TestLciBackendUnit:
    def test_send_am_small_uses_immediate(self):
        sim, engines = make_lci_pair()
        got = register_recorder(engines[1])
        register_recorder(engines[0])

        def body():
            yield from engines[0].send_am(TAG_TEST, 1, "tiny", 32)

        drive(sim, engines, body)
        assert got == [("tiny", 32, 0)]

    def test_send_am_medium_uses_buffered(self):
        sim, engines = make_lci_pair()
        got = register_recorder(engines[1])
        register_recorder(engines[0])

        def body():
            yield from engines[0].send_am(TAG_TEST, 1, "medium", 4 * KiB)

        drive(sim, engines, body)
        assert got == [("medium", 4 * KiB, 0)]

    def test_am_larger_than_eager_limit_rejected_at_registration(self):
        _sim, engines = make_lci_pair()
        with pytest.raises(RuntimeBackendError, match="eager limit"):
            engines[0].tag_reg(TAG_TEST, lambda *a: None, max_len=1 * MiB)

    def test_eager_put_skips_direct_transfer(self):
        """Small puts ride inside the handshake: no RDMA slots consumed."""
        sim, engines = make_lci_pair()
        register_recorder(engines[0])
        register_recorder(engines[1])
        puts = register_put_recorder(engines[1])
        register_put_recorder(engines[0])
        local = []

        def l_cb(eng, data):
            local.append(data)
            return
            yield

        slots_before = engines[0].device.send_slots_free

        def body():
            yield from engines[0].put(
                data="small", size=2 * KiB, remote=1, l_cb=l_cb,
                r_cb_data="ctx", l_cb_data="lc",
            )
            # Local completion is immediate for eager puts (§5.3.3).
            assert local == ["lc"]
            assert engines[0].device.send_slots_free == slots_before

        drive(sim, engines, body)
        assert puts == [("ctx", "small", 2 * KiB, 0)]

    def test_large_put_uses_direct_transfer(self):
        sim, engines = make_lci_pair()
        register_recorder(engines[0])
        register_recorder(engines[1])
        puts = register_put_recorder(engines[1])
        register_put_recorder(engines[0])

        def body():
            yield from engines[0].put(
                data="bulk", size=4 * MiB, remote=1, l_cb=None, r_cb_data="big"
            )

        drive(sim, engines, body)
        assert puts == [("big", "bulk", 4 * MiB, 0)]
        # Slots recycled after completion.
        assert engines[0].device.send_slots_free == engines[0].device.costs.direct_slots
        assert engines[1].device.recv_slots_free == engines[1].device.costs.direct_slots

    def test_am_fairness_batch_limit(self):
        """progress() must alternate: ≤5 AMs per round before data handles
        (§5.3.4)."""
        rt = RuntimeCosts(lci_am_batch=5)
        sim, engines = make_lci_pair(rt_costs=rt)
        order = []

        def am_cb(eng, t, msg, size, src, cb_data):
            order.append(("am", msg))
            return
            yield

        engines[1].tag_reg(TAG_TEST, am_cb, max_len=8 * KiB)
        register_recorder(engines[0])
        puts_cb = []

        def put_cb(eng, t, msg, size, src, cb_data):
            puts_cb.append(("data", msg["r_cb_data"]))
            order.append(("data", msg["r_cb_data"]))
            return
            yield

        engines[1].tag_reg(TAG_PUT_COMPLETE, put_cb, max_len=4 * KiB)
        register_put_recorder(engines[0])

        # Pre-load the FIFOs directly: 12 AM handles, 2 data handles.
        for i in range(12):
            engines[1].am_fifo.push((TAG_TEST, i, 16, 0, i))
        engines[1].data_fifo.push(("r_data", "d0", None, 8, 0))
        engines[1].data_fifo.push(("r_data", "d1", None, 8, 0))

        def body():
            # No background progress loops here: this test drives the one
            # progress() call itself so the batching is observable.
            n = yield from engines[1].progress()
            return n

        n = sim.run_process(body())
        assert n == 14
        kinds = [k for k, _v in order]
        # First round: 5 AMs then the data handles, then remaining AMs.
        assert kinds[:7] == ["am"] * 5 + ["data"] * 2
        assert kinds[7:] == ["am"] * 7

    def test_retry_delegation_path(self):
        """When the progress thread cannot post the Direct receive
        (LCI_ERR_RETRY), the handle is delegated to the comm thread."""
        lci = LciCosts(direct_slots=1)
        sim, engines = make_lci_pair(lci_costs=lci)
        register_recorder(engines[0])
        register_recorder(engines[1])
        puts = register_put_recorder(engines[1])
        register_put_recorder(engines[0])

        def body():
            # Two big puts: the second recvd at node 1 must hit RETRY first.
            yield from engines[0].put(data="a", size=1 * MiB, remote=1,
                                      l_cb=None, r_cb_data="a")
            yield from engines[0].put(data="b", size=1 * MiB, remote=1,
                                      l_cb=None, r_cb_data="b")
            yield sim.timeout(5e-3)

        drive(sim, engines, body, until=10.0)
        assert sorted(p[0] for p in puts) == ["a", "b"]

    def test_stats_counters(self):
        sim, engines = make_lci_pair()
        register_recorder(engines[0])
        register_recorder(engines[1])
        register_put_recorder(engines[0])
        register_put_recorder(engines[1])

        def body():
            yield from engines[0].send_am(TAG_TEST, 1, None, 64)
            yield from engines[0].put(data=1, size=2 * KiB, remote=1,
                                      l_cb=None, r_cb_data=None)

        drive(sim, engines, body)
        assert engines[0].stats["am_sent"] == 1
        assert engines[0].stats["puts_started"] == 1
        assert engines[1].stats["puts_completed"] == 1
