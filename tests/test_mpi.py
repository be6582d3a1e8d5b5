"""Tests for the simulated MPI library: matching, protocols, requests."""

import pytest

from repro.config import MpiCosts
from repro.errors import MpiError
from repro.mpi import ANY_SOURCE, MpiWorld
from repro.mpi.matching import Envelope, MatchEngine
from repro.mpi.requests import RecvRequest, Request, RequestArray
from repro.network import Fabric
from repro.sim.core import Simulator
from repro.units import KiB, MiB


def make_world(n=2, costs=None):
    sim = Simulator()
    fabric = Fabric(sim, n)
    world = MpiWorld(sim, fabric, costs)
    return sim, world


class TestMatchEngine:
    def _recv(self, src=None, tag=None, size=1 << 20):
        return RecvRequest(Simulator(), 0, src, tag, size)

    def test_post_then_arrive(self):
        m = MatchEngine()
        r = self._recv(src=0, tag=5)
        assert m.post_recv(r) is None
        got = m.arrive(Envelope(src=0, tag=5, size=10, kind="eager"))
        assert got is r

    def test_arrive_then_post(self):
        m = MatchEngine()
        env = Envelope(src=1, tag=2, size=10, kind="eager")
        assert m.arrive(env) is None
        r = self._recv(src=1, tag=2)
        assert m.post_recv(r) is env

    def test_any_source_matches(self):
        m = MatchEngine()
        r = self._recv(src=None, tag=9)
        m.post_recv(r)
        assert m.arrive(Envelope(src=7, tag=9, size=1, kind="eager")) is r

    def test_tag_mismatch_queues(self):
        m = MatchEngine()
        m.post_recv(self._recv(src=0, tag=1))
        assert m.arrive(Envelope(src=0, tag=2, size=1, kind="eager")) is None
        assert m.unexpected_count == 1
        assert m.posted_count == 1

    def test_fifo_matching_order(self):
        m = MatchEngine()
        e1 = Envelope(src=0, tag=1, size=1, kind="eager", payload="first")
        e2 = Envelope(src=0, tag=1, size=1, kind="eager", payload="second")
        m.arrive(e1)
        m.arrive(e2)
        assert m.post_recv(self._recv(src=0, tag=1)) is e1
        assert m.post_recv(self._recv(src=0, tag=1)) is e2

    def test_posted_fifo_order(self):
        m = MatchEngine()
        r1 = self._recv(src=None, tag=None)
        r2 = self._recv(src=None, tag=None)
        m.post_recv(r1)
        m.post_recv(r2)
        assert m.arrive(Envelope(src=0, tag=0, size=1, kind="eager")) is r1

    def test_cancel(self):
        m = MatchEngine()
        r = self._recv()
        m.post_recv(r)
        assert m.cancel(r) is True
        assert m.cancel(r) is False

    def test_walked_counter(self):
        m = MatchEngine()
        m.post_recv(self._recv(src=0, tag=1))
        m.post_recv(self._recv(src=0, tag=2))
        m.arrive(Envelope(src=0, tag=2, size=1, kind="eager"))
        assert m.take_walked() == 2
        assert m.take_walked() == 0


class TestEagerPath:
    def test_send_recv_roundtrip(self):
        sim, world = make_world()
        r0, r1 = world.ranks

        def sender():
            yield from r0.send(dst=1, tag=42, size=1 * KiB, payload="hello")

        def receiver():
            rreq = yield from r1.recv(src=0, tag=42, max_size=4 * KiB)
            return (rreq.payload, rreq.source, rreq.recv_tag, rreq.recv_size)

        sim.process(sender())
        out = sim.run_process(receiver())
        assert out == ("hello", 0, 42, 1 * KiB)

    def test_eager_send_completes_locally_fast(self):
        sim, world = make_world()
        r0 = world.ranks[0]
        # Even with no receiver posted, an eager send completes.
        world.ranks[1]  # receiver side exists but never calls MPI

        def sender():
            sreq = yield from r0.isend(dst=1, tag=1, size=512, payload=b"x")
            return (sreq.done, sreq.protocol)

        assert sim.run_process(sender()) == (True, "eager")

    def test_unexpected_then_post(self):
        sim, world = make_world()
        r0, r1 = world.ranks

        def sender():
            yield from r0.send(dst=1, tag=3, size=256, payload="early")

        def receiver():
            yield sim.timeout(1e-3)  # let the message become unexpected
            rreq = yield from r1.recv(src=0, tag=3, max_size=1 * KiB)
            return rreq.payload

        sim.process(sender())
        assert sim.run_process(receiver()) == "early"

    def test_any_source_recv(self):
        sim, world = make_world(n=3)

        def sender(rank, payload):
            yield from world.ranks[rank].send(dst=0, tag=9, size=128, payload=payload)

        def receiver():
            a = yield from world.ranks[0].recv(ANY_SOURCE, 9, 1 * KiB)
            b = yield from world.ranks[0].recv(ANY_SOURCE, 9, 1 * KiB)
            return {a.payload, b.payload}

        sim.process(sender(1, "from1"))
        sim.process(sender(2, "from2"))
        assert sim.run_process(receiver()) == {"from1", "from2"}

    def test_truncation_raises(self):
        sim, world = make_world()
        r0, r1 = world.ranks

        def sender():
            yield from r0.send(dst=1, tag=1, size=2 * KiB, payload="big")

        def receiver():
            yield from r1.recv(src=0, tag=1, max_size=1 * KiB)

        sim.process(sender())
        with pytest.raises(MpiError, match="truncation"):
            sim.run_process(receiver())


class TestRendezvousPath:
    def test_large_send_uses_rendezvous(self):
        sim, world = make_world()
        r0, r1 = world.ranks
        size = 1 * MiB

        def sender():
            sreq = yield from r0.isend(dst=1, tag=5, size=size, payload="bulk")
            assert sreq.protocol == "rndv"
            assert not sreq.done  # no CTS yet
            yield from r0.wait(sreq)
            return sim.now

        def receiver():
            rreq = yield from r1.recv(src=0, tag=5, max_size=size)
            return (sim.now, rreq.payload)

        ps = sim.process(sender())
        out = sim.run_process(receiver())
        sim.run()
        assert out[1] == "bulk"
        assert ps.ok
        # Transfer time must be at least size/bandwidth (~84 µs at 100 Gb/s).
        assert out[0] > size / world.fabric.cfg.bandwidth

    def test_rendezvous_data_not_sent_before_recv_posted(self):
        sim, world = make_world()
        r0, r1 = world.ranks
        size = 1 * MiB
        post_delay = 5e-3

        def sender():
            sreq = yield from r0.isend(dst=1, tag=5, size=size, payload="bulk")
            yield from r0.wait(sreq)
            return sim.now

        def receiver():
            yield sim.timeout(post_delay)
            rreq = yield from r1.recv(src=0, tag=5, max_size=size)
            return rreq.payload

        ps = sim.process(sender())
        sim.run_process(receiver())
        sim.run()
        assert ps.value > post_delay  # sender completed only after CTS+data

    def test_threshold_boundary(self):
        costs = MpiCosts()
        sim, world = make_world(costs=costs)
        r0 = world.ranks[0]

        def sender():
            at = yield from r0.isend(dst=1, tag=1, size=costs.rendezvous_threshold)
            above = yield from r0.isend(dst=1, tag=2, size=costs.rendezvous_threshold + 1)
            return (at.protocol, above.protocol)

        assert sim.run_process(sender()) == ("eager", "rndv")


class TestPersistentRequests:
    def test_recv_init_start_cycle(self):
        sim, world = make_world()
        r0, r1 = world.ranks
        preq = r1.recv_init(ANY_SOURCE, 7, 4 * KiB)
        assert not preq.active

        def receiver():
            got = []
            yield from r1.start(preq)
            for i in range(3):
                while not preq.done:
                    yield from r1.progress()
                    if not preq.done:
                        yield r1.activity_event()
                got.append(preq.payload)
                if i < 2:
                    yield from r1.start(preq)
            return got

        def sender():
            for i in range(3):
                yield from r0.send(dst=1, tag=7, size=64, payload=f"m{i}")
                yield sim.timeout(1e-4)

        sim.process(sender())
        assert sim.run_process(receiver()) == ["m0", "m1", "m2"]

    def test_start_while_active_raises(self):
        sim, world = make_world()
        r1 = world.ranks[1]
        preq = r1.recv_init(ANY_SOURCE, 7, 1 * KiB)

        def proc():
            yield from r1.start(preq)
            yield from r1.start(preq)

        with pytest.raises(MpiError, match="already-active"):
            sim.run_process(proc())

    def test_inactive_persistent_ignored_by_testsome(self):
        sim, world = make_world()
        r0, r1 = world.ranks
        preq = r1.recv_init(ANY_SOURCE, 7, 1 * KiB)

        def sender():
            yield from r0.send(dst=1, tag=7, size=32, payload="x")

        def receiver():
            # Not started: the message stays unexpected, testsome sees nothing.
            yield sim.timeout(1e-3)
            done = yield from r1.testsome([preq])
            assert done == []
            yield from r1.start(preq)
            done = yield from r1.testsome([preq])
            return done

        sim.process(sender())
        assert sim.run_process(receiver()) == [0]


class TestTestsome:
    def test_reports_and_deactivates(self):
        sim, world = make_world()
        r0, r1 = world.ranks

        def sender():
            yield from r0.send(dst=1, tag=1, size=128, payload="a")

        def receiver():
            rreq = yield from r1.irecv(src=0, tag=1, max_size=1 * KiB)
            reqs = [rreq]
            done = []
            while not done:
                done = yield from r1.testsome(reqs)
                if not done:
                    yield r1.activity_event()
            again = yield from r1.testsome(reqs)
            return (done, again)

        sim.process(sender())
        done, again = sim.run_process(receiver())
        assert done == [0]
        assert again == []  # deactivated after first report

    def test_handles_none_entries(self):
        sim, world = make_world()
        r1 = world.ranks[1]

        def proc():
            return (yield from r1.testsome([None, None]))

        assert sim.run_process(proc()) == []

    def test_request_array_reports_in_position_order(self):
        sim, world = make_world()
        r0, r1 = world.ranks
        arr = RequestArray()

        def sender():
            for tag in (3, 2, 1):
                yield from r0.send(dst=1, tag=tag, size=64, payload=tag)

        def receiver():
            reqs = []
            for tag in (1, 2, 3):
                reqs.append((yield from r1.irecv(src=0, tag=tag, max_size=64)))
                arr._append(reqs[-1])
            done = []
            while len(done) < 3:
                done += yield from r1.testsome(arr)
                if len(done) < 3:
                    yield r1.activity_event()
            return done, [r.payload for r in reqs]

        sim.process(sender())
        done, payloads = sim.run_process(receiver())
        assert sorted(done) == [0, 1, 2]
        assert payloads == [1, 2, 3]
        assert arr._active == 0

    def test_persistent_slot_matched_in_first_start_is_reported(self):
        """A persistent receive that matches an unexpected message inside
        its first ``start()`` is already complete when it joins the array,
        and must still be reported — exactly once."""
        sim, world = make_world()
        r0, r1 = world.ranks
        preq = r1.recv_init(ANY_SOURCE, 7, 1 * KiB)
        arr = RequestArray()

        def sender():
            yield from r0.send(dst=1, tag=7, size=32, payload="early")

        def receiver():
            yield sim.timeout(1e-3)
            yield from r1.progress()  # the message is now unexpected
            yield from r1.start(preq)
            assert preq.done and preq.active
            arr._add_fixed(preq)
            first = yield from r1.testsome(arr)
            second = yield from r1.testsome(arr)
            return first, second, preq.payload

        sim.process(sender())
        assert sim.run_process(receiver()) == ([0], [], "early")

    def test_wait_retired_request_is_not_reported(self):
        sim, world = make_world()
        r0 = world.ranks[0]
        arr = RequestArray()

        def proc():
            sreq = yield from r0.isend(dst=1, tag=1, size=64)
            arr._append(sreq)
            yield from r0.wait(sreq)
            return (yield from r0.testsome(arr)), arr._active

        assert sim.run_process(proc()) == ([], 0)

    def test_request_enrolled_during_testsome_waits_for_next_call(self):
        """A call tests the array as it stood when the call began: entries
        enrolled while it runs are neither charged nor reported by it."""
        sim, world = make_world()
        r0 = world.ranks[0]
        costs = world.costs
        arr = RequestArray()
        early, late, late_fixed = (Request(sim, next(world.req_ids)) for _ in range(3))
        for req in (early, late, late_fixed):
            req._complete()
        arr._append(early)

        def sender():
            # Lands in rank 0's inbox: the first Testsome progresses it.
            yield from world.ranks[1].send(dst=0, tag=9, size=64)

        def poller():
            yield 1e-3
            t0 = sim.now
            first = yield from r0.testsome(arr)
            t1 = sim.now
            second = yield from r0.testsome(arr)
            return first, t1 - t0, second, sim.now - t1

        def enroller():
            yield 1e-3 + costs.match / 2  # inside the poller's first call
            arr._append(late)
            arr._add_fixed(late_fixed)

        proc = sim.process(poller())
        sim.process(sender())
        sim.process(enroller())
        sim.run()
        first, dt1, second, dt2 = proc.value
        per = costs.testsome_per_request
        unexpected_eager = costs.match + 64 * costs.eager_copy_per_byte
        # Positions are in the array as it is when the call returns.
        assert first == [1]
        assert dt1 == pytest.approx(unexpected_eager + costs.testsome_base + per)
        assert second == [0, 2]
        assert dt2 == pytest.approx(costs.testsome_base + 2 * per)

    def test_request_in_two_arrays_rejected(self):
        sim, _world = make_world()
        req = RecvRequest(sim, 0, 0, 1, 64)
        RequestArray([req])
        with pytest.raises(MpiError, match="already in a request array"):
            RequestArray([req])


class TestConcurrency:
    def test_lock_serializes_threads(self):
        """Two simulated threads calling concurrently must serialize, so the
        elapsed time is at least the sum of the individual call costs."""
        costs = MpiCosts()
        sim, world = make_world(costs=costs)
        r0 = world.ranks[0]
        n_each = 20

        def thread():
            for i in range(n_each):
                yield from r0.isend(dst=1, tag=1, size=64)

        t1 = sim.process(thread())
        t2 = sim.process(thread())
        sim.run()
        assert t1.ok and t2.ok
        min_serial = 2 * n_each * costs.eager_send
        assert sim.now >= min_serial * 0.99

    def test_invalid_rank_rejected(self):
        sim, world = make_world()

        def proc():
            yield from world.ranks[0].isend(dst=5, tag=0, size=1)

        with pytest.raises(MpiError, match="invalid destination"):
            sim.run_process(proc())

    def test_negative_size_rejected(self):
        sim, world = make_world()

        def proc():
            yield from world.ranks[0].isend(dst=1, tag=0, size=-1)

        with pytest.raises(MpiError, match="negative"):
            sim.run_process(proc())

    @pytest.mark.parametrize("src", [2, 7, -1])
    def test_irecv_invalid_source_rejected(self, src):
        sim, world = make_world()

        def proc():
            yield from world.ranks[0].irecv(src=src, tag=0, max_size=64)

        with pytest.raises(MpiError, match="invalid source"):
            sim.run_process(proc())

    def test_irecv_negative_size_rejected(self):
        sim, world = make_world()

        def proc():
            yield from world.ranks[0].irecv(src=1, tag=0, max_size=-1)

        with pytest.raises(MpiError, match="negative"):
            sim.run_process(proc())

    def test_recv_init_validates_like_irecv(self):
        _sim, world = make_world()
        r0 = world.ranks[0]
        with pytest.raises(MpiError, match="invalid source"):
            r0.recv_init(7, 0, 64)
        with pytest.raises(MpiError, match="negative"):
            r0.recv_init(ANY_SOURCE, 0, -1)

    def test_valid_receives_accepted(self):
        sim, world = make_world()
        r0 = world.ranks[0]

        def proc():
            a = yield from r0.irecv(src=ANY_SOURCE, tag=0, max_size=0)
            b = yield from r0.irecv(src=1, tag=0, max_size=64)
            return (a.done, b.done)

        assert sim.run_process(proc()) == (False, False)
        assert r0.recv_init(0, 0, 0).src == 0


class TestOrdering:
    def test_non_overtaking_same_tag(self):
        """Messages with identical (src, tag) must match posted receives in
        send order."""
        sim, world = make_world()
        r0, r1 = world.ranks

        def sender():
            for i in range(5):
                yield from r0.send(dst=1, tag=1, size=64, payload=i)

        def receiver():
            out = []
            for _ in range(5):
                rreq = yield from r1.recv(src=0, tag=1, max_size=1 * KiB)
                out.append(rreq.payload)
            return out

        sim.process(sender())
        assert sim.run_process(receiver()) == [0, 1, 2, 3, 4]

    def test_allow_overtaking_flag_recorded(self):
        sim = Simulator()
        fabric = Fabric(sim, 2)
        world = MpiWorld(sim, fabric, allow_overtaking=True)
        assert world.allow_overtaking is True
