"""Tests for the simulated LCI library."""

import pytest

from repro.config import LciCosts
from repro.errors import LciError
from repro.lci import (
    LCI_ERR_RETRY,
    LCI_OK,
    CompletionQueue,
    CompletionRecord,
    LciWorld,
    Synchronizer,
)
from repro.network import Fabric
from repro.sim.core import PARK, Simulator
from repro.units import KiB, MiB


def make_world(n=2, costs=None):
    sim = Simulator()
    fabric = Fabric(sim, n)
    world = LciWorld(sim, fabric, costs)
    return sim, world


def progress_loop(sim, dev, stop):
    """Background progress thread: drains the device until the `stop`
    event fires, parking when idle as the runtime's progress thread does."""

    def loop(me):
        while not stop.triggered:
            worked = yield from dev.progress()
            if not worked and dev.park(me[0]):
                yield PARK
        return None

    me = []
    me.append(sim.process(loop(me)))
    stop.add_callback(lambda _evt: me[0].wake())
    return me[0]


def run_main(sim, main):
    """Run ``main(me)`` to completion and return its value; ``me[0]`` is
    the main process itself, so it can park on a device."""
    me = []
    me.append(sim.process(main(me)))
    sim.run()
    if not me[0].ok:
        raise me[0].value
    return me[0].value


class TestImmediate:
    def test_sendi_delivers_to_handler(self):
        sim, world = make_world()
        d0, d1 = world.devices
        got = []

        def handler(rec):
            got.append((rec.peer, rec.tag, rec.payload))
            d1.free_rx_packet()

        d1.am_handler = handler

        def main(me):
            status = yield from d0.sendi(dst=1, tag=3, size=32, data="ping")
            assert status == LCI_OK
            # Drive receiver progress until the AM lands.
            while not got:
                yield from d1.progress()
                if not got and d1.park(me[0]):
                    yield PARK
            return got[0]

        assert run_main(sim, main) == (0, 3, "ping")

    def test_sendi_over_limit_raises(self):
        sim, world = make_world()

        def main():
            yield from world.devices[0].sendi(dst=1, tag=0, size=128)

        with pytest.raises(LciError, match="immediate limit"):
            sim.run_process(main())

    def test_am_without_handler_raises(self):
        sim, world = make_world()
        d0, d1 = world.devices

        def main():
            yield from d0.sendi(dst=1, tag=0, size=8)
            yield sim.timeout(1e-3)
            yield from d1.progress()

        with pytest.raises(LciError, match="no handler"):
            sim.run_process(main())


class TestBuffered:
    def test_sendb_roundtrip_with_completion(self):
        sim, world = make_world()
        d0, d1 = world.devices
        got = []
        d1.am_handler = lambda rec: (got.append(rec.payload), d1.free_rx_packet())
        sync = Synchronizer(sim)

        def main(me):
            status = yield from d0.sendb(dst=1, tag=5, size=4 * KiB, data="bulk", comp=sync)
            assert status == LCI_OK
            rec = yield from sync.wait()
            assert rec.op == "sendb"
            while not got:
                yield from d1.progress()
                if not got and d1.park(me[0]):
                    yield PARK
            return got[0]

        assert run_main(sim, main) == "bulk"

    def test_sendb_over_limit_raises(self):
        sim, world = make_world()

        def main():
            yield from world.devices[0].sendb(dst=1, tag=0, size=16 * KiB)

        with pytest.raises(LciError, match="buffered limit"):
            sim.run_process(main())

    def test_sendb_backpressure_retry(self):
        # Make CPU injection much faster than the wire so the pool drains.
        costs = LciCosts(packet_pool_size=2, buffered_send=1e-9, copy_per_byte=0.0)
        sim, world = make_world(costs=costs)
        d0 = world.devices[0]
        world.devices[1].am_handler = lambda rec: None

        def main():
            s1 = yield from d0.sendb(dst=1, tag=0, size=8 * KiB)
            s2 = yield from d0.sendb(dst=1, tag=0, size=8 * KiB)
            s3 = yield from d0.sendb(dst=1, tag=0, size=8 * KiB)
            return (s1, s2, s3)

        assert sim.run_process(main()) == (LCI_OK, LCI_OK, LCI_ERR_RETRY)

    def test_tx_packets_recycled(self):
        costs = LciCosts(packet_pool_size=1)
        sim, world = make_world(costs=costs)
        d0, d1 = world.devices
        d1.am_handler = lambda rec: d1.free_rx_packet()

        def main():
            ok = 0
            for _ in range(5):
                status = LCI_ERR_RETRY
                while status == LCI_ERR_RETRY:
                    status = yield from d0.sendb(dst=1, tag=0, size=8 * KiB)
                    if status == LCI_ERR_RETRY:
                        yield sim.timeout(1e-4)
                ok += 1
            return ok

        assert sim.run_process(main()) == 5

    def test_rx_pool_exhaustion_stalls_am_delivery(self):
        costs = LciCosts(packet_pool_size=1)
        sim, world = make_world(costs=costs)
        d0, d1 = world.devices
        got = []
        d1.am_handler = lambda rec: got.append(rec.payload)  # never frees

        def main():
            yield from d0.sendb(dst=1, tag=0, size=1 * KiB, data="a")
            # sender pool recycles after wire drain; send another
            yield sim.timeout(1e-3)
            yield from d0.sendb(dst=1, tag=0, size=1 * KiB, data="b")
            yield sim.timeout(1e-3)
            yield from d1.progress()
            yield from d1.progress()
            assert got == ["a"]  # second stalled: no RX packet
            d1.free_rx_packet()
            yield from d1.progress()
            return got

        assert sim.run_process(main()) == ["a", "b"]


class TestDirect:
    def run_transfer(self, size, n_pre_post=True):
        sim, world = make_world()
        d0, d1 = world.devices
        send_cq = CompletionQueue(sim)
        recv_cq = CompletionQueue(sim)
        stop = sim.event()
        p0 = progress_loop(sim, d0, stop)
        p1 = progress_loop(sim, d1, stop)

        def main():
            status = yield from d1.recvd(src=0, tag=9, size=size, comp=recv_cq)
            assert status == LCI_OK
            status = yield from d0.sendd(dst=1, tag=9, size=size, data="payload", comp=send_cq)
            assert status == LCI_OK
            rrec = yield from recv_cq.pop()
            srec = yield from send_cq.pop()
            stop.succeed()
            return (sim.now, srec, rrec)

        t, srec, rrec = sim.run_process(main())
        sim.run()
        assert p0.triggered and p1.triggered
        return sim, world, t, srec, rrec

    def test_rendezvous_transfer_completes_both_sides(self):
        _sim, world, t, srec, rrec = self.run_transfer(2 * MiB)
        assert srec.op == "sendd" and rrec.op == "recvd"
        assert rrec.payload == "payload"
        assert rrec.size == 2 * MiB
        # Time at least the line-rate transfer time.
        assert t > 2 * MiB / world.fabric.cfg.bandwidth

    def test_direct_slots_freed_after_completion(self):
        sim, world, *_ = self.run_transfer(1 * MiB)
        assert world.devices[0].send_slots_free == world.costs.direct_slots
        assert world.devices[1].recv_slots_free == world.costs.direct_slots

    def test_sendd_retry_when_slots_exhausted(self):
        costs = LciCosts(direct_slots=1)
        sim, world = make_world(costs=costs)
        d0 = world.devices[0]

        def main():
            s1 = yield from d0.sendd(dst=1, tag=0, size=1 * MiB)
            s2 = yield from d0.sendd(dst=1, tag=0, size=1 * MiB)
            return (s1, s2)

        assert sim.run_process(main()) == (LCI_OK, LCI_ERR_RETRY)

    def test_recvd_retry_when_slots_exhausted(self):
        costs = LciCosts(direct_slots=1)
        sim, world = make_world(costs=costs)
        d1 = world.devices[1]

        def main():
            s1 = yield from d1.recvd(src=0, tag=0, size=1 * MiB)
            s2 = yield from d1.recvd(src=0, tag=1, size=1 * MiB)
            return (s1, s2)

        assert sim.run_process(main()) == (LCI_OK, LCI_ERR_RETRY)

    def test_rts_before_recvd_is_matched_later(self):
        """Handshake racing ahead of the posted receive must still work."""
        sim, world = make_world()
        d0, d1 = world.devices
        sync = Synchronizer(sim)
        stop = sim.event()
        progress_loop(sim, d0, stop)
        progress_loop(sim, d1, stop)

        def main():
            yield from d0.sendd(dst=1, tag=4, size=64 * KiB, data="late-post")
            yield sim.timeout(1e-3)  # RTS arrives; no receive posted yet
            yield from d1.recvd(src=0, tag=4, size=64 * KiB, comp=sync)
            rec = yield from sync.wait()
            stop.succeed()
            return rec.payload

        assert sim.run_process(main()) == "late-post"
        sim.run()
        # The late post matched the stored RTS: no receive key is filed.
        assert not d1._posted_recvd
        assert not d1._unexpected_rts

    def test_posted_recvd_matched_fifo_and_key_retired_when_drained(self):
        sim, world = make_world()
        d0, d1 = world.devices
        got = []

        def main():
            yield from d1.recvd(src=0, tag=7, size=1 * MiB, comp=got.append, user_ctx="first")
            yield from d1.recvd(src=0, tag=7, size=1 * MiB, comp=got.append, user_ctx="second")
            assert len(d1._posted_recvd[(0, 7)]) == 2
            yield from d0.sendd(dst=1, tag=7, size=1 * MiB, data="a")
            yield sim.timeout(1e-3)
            yield from d1.progress()  # first RTS matches the first post
            assert [op.user_ctx for op in d1._posted_recvd[(0, 7)]] == ["second"]
            yield from d0.sendd(dst=1, tag=7, size=1 * MiB, data="b")
            yield sim.timeout(1e-3)
            yield from d1.progress()  # second RTS drains the queue
            assert (0, 7) not in d1._posted_recvd
            yield sim.timeout(1e-3)
            yield from d0.progress()  # both RTRs: RDMA writes go out
            yield sim.timeout(1e-3)
            yield from d1.progress()  # both data arrivals complete

        sim.run_process(main())
        assert [(r.user_ctx, r.payload) for r in got] == [("first", "a"), ("second", "b")]
        assert not d1._posted_recvd and not d1._unexpected_rts

    def test_recv_too_small_raises(self):
        sim, world = make_world()
        d0, d1 = world.devices

        def main():
            yield from d1.recvd(src=0, tag=4, size=1 * KiB)
            yield from d0.sendd(dst=1, tag=4, size=1 * MiB)
            yield sim.timeout(1e-3)
            yield from d1.progress()

        with pytest.raises(LciError, match="too small"):
            sim.run_process(main())


class TestCompletionMechanisms:
    def test_handler_completion(self):
        sim, world = make_world()
        d0, d1 = world.devices
        d1.am_handler = lambda rec: d1.free_rx_packet()
        calls = []

        def main():
            yield from d0.sendb(dst=1, tag=0, size=1 * KiB, comp=calls.append)
            yield sim.timeout(1e-3)
            return calls

        out = sim.run_process(main())
        assert len(out) == 1 and out[0].op == "sendb"

    def test_synchronizer_records_value(self):
        sim = Simulator()
        sync = Synchronizer(sim)
        rec = CompletionRecord("am", 1, 2, 3)
        sync.signal(rec)

        def main():
            got = yield from sync.wait()
            return got

        assert sim.run_process(main()) is rec
        assert sync.triggered

    def test_cq_try_pop(self):
        sim = Simulator()
        cq = CompletionQueue(sim)
        assert cq.try_pop() is None
        rec = CompletionRecord("am", 0, 0, 0)
        cq.push(rec)
        assert cq.try_pop() is rec

    def test_invalid_completion_target_raises(self):
        sim, world = make_world()
        d0 = world.devices[0]
        world.devices[1].am_handler = lambda rec: None

        def main():
            yield from d0.sendb(dst=1, tag=0, size=64, comp=42)
            yield sim.timeout(1e-3)

        with pytest.raises(LciError, match="unsupported completion"):
            sim.run_process(main())

    def test_free_without_alloc_raises(self):
        sim, world = make_world()
        with pytest.raises(LciError):
            world.devices[0].free_rx_packet()


class TestRxPacketDepletion:
    """§5.2 hardware receive-queue depletion: delivered AMs stall when the
    RX packet pool is empty and drain once a consumer frees a packet."""

    def test_am_queue_stalls_then_drains_after_free(self):
        from repro.obs import ObsBus
        from repro.sim.core import Simulator

        sim = Simulator()
        fabric = Fabric(sim, 2)
        bus = ObsBus()
        bus.bind_clock(sim)
        world = LciWorld(sim, fabric, LciCosts(packet_pool_size=2), obs=bus)
        d0, d1 = world.devices
        got = []
        # Handler hoards its buffer: nothing calls free_rx_packet yet.
        d1.am_handler = lambda rec: got.append(rec.payload)
        stalls = bus.counter("lci.rx_am_stalls", 1)

        def main():
            for i in range(4):
                status = yield from d0.sendi(dst=1, tag=0, size=16, data=i)
                assert status == LCI_OK
            yield sim.timeout(1e-3)  # let all four AMs arrive
            n = yield from d1.progress()
            # Pool of 2: two AMs consumed, two stalled in the RX queue.
            assert n == 2
            assert got == [0, 1]
            assert d1.rx_packets_free == 0
            assert len(d1._rx_am) == 2
            assert stalls.value == 1
            # Progressing again without freeing must not consume more.
            n = yield from d1.progress()
            assert n == 0
            assert stalls.value == 2
            # A consumer frees one packet: exactly one more AM drains.
            d1.free_rx_packet()
            n = yield from d1.progress()
            assert n == 1
            assert got == [0, 1, 2]
            assert stalls.value == 3
            # Free the rest: the queue empties and the stall counter stops.
            d1.free_rx_packet()
            d1.free_rx_packet()
            n = yield from d1.progress()
            assert n == 1
            assert got == [0, 1, 2, 3]
            assert not d1._rx_am
            assert stalls.value == 3

        sim.run_process(main())
