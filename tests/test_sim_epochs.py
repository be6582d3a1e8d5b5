"""Tests for the epoch-batched kernel semantics (repro.sim.core).

Covers the contracts the epoch rewrite must preserve: same-timestamp
entries drain as one epoch in seq order, callbacks scheduled during an
epoch fire inside it, a :class:`SchedulePolicy` sees the complete
runnable set, Interrupt/AnyOf/AllOf behave at epoch boundaries, and the
``yield PARK`` / :meth:`Process.wake` typed path.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.core import PARK, Simulator
from repro.sim.core import K_CALL, K_RESUME, SchedulePolicy

def _both_loops() -> list:
    """A simulator per run loop: the fast FIFO loop, and the separately
    written policy loop (a plain ``SchedulePolicy`` replays FIFO order)."""
    return [Simulator(), Simulator(policy=SchedulePolicy())]


def _reentry_after_callback_exception(sim) -> list:
    """Two entries at t=1; the first appends a same-time entry and raises.
    Returns the firing order across the failed and the resumed run()."""
    trail = []

    def boom():
        trail.append("boom")
        sim.call_soon(trail.append, "soon")
        raise RuntimeError("boom")

    sim.call_later(1, boom)
    sim.call_later(1, trail.append, "late-seq")
    with pytest.raises(RuntimeError):
        sim.run()
    sim.run()
    return trail


def _reentry_after_tick_abort(sim) -> list:
    """As above, but a tick raises right after the first t=1 entry."""
    trail = []

    def first():
        trail.append("first")
        sim.call_soon(trail.append, "soon")

    def tick(_count):
        if trail == ["first"]:
            raise RuntimeError("budget")

    sim.call_later(1, first)
    sim.call_later(1, trail.append, "late-seq")
    sim.set_tick(tick, every=1)
    with pytest.raises(RuntimeError):
        sim.run()
    sim.set_tick(None)
    sim.run()
    return trail


# ----------------------------------------------------------------------
# epoch draining
# ----------------------------------------------------------------------

class TestEpochDraining:
    def test_same_timestamp_entries_fire_as_one_epoch(self):
        """All entries at one time drain before time advances."""
        sim = Simulator()
        trail = []

        def waiter(tag, delay):
            yield delay
            trail.append((tag, sim.now))

        for tag in "abc":
            sim.process(waiter(tag, 1.0))
        sim.process(waiter("d", 2.0))
        sim.run()
        assert trail == [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 2.0)]

    def test_callback_scheduled_during_epoch_fires_in_same_epoch(self):
        """call_soon from inside an epoch appends to the running epoch."""
        sim = Simulator()
        trail = []

        def first():
            trail.append(("first", sim.now))
            sim.call_soon(lambda: trail.append(("nested", sim.now)))

        sim.call_later(1.0, first)
        sim.call_later(2.0, lambda: trail.append(("later", sim.now)))
        sim.run()
        assert trail == [("first", 1.0), ("nested", 1.0), ("later", 2.0)]

    def test_zero_delay_from_heap_epoch_joins_batch(self):
        """A zero-delay sleep scheduled while a heap epoch drains runs at
        the same time, after the epoch's pre-existing entries."""
        sim = Simulator()
        trail = []

        def sleeper():
            yield 1.0
            trail.append("sleep-wake")
            yield 0.0
            trail.append("zero-wake")

        def other():
            yield 1.0
            trail.append("other")

        sim.process(sleeper())
        sim.process(other())
        sim.run()
        assert trail == ["sleep-wake", "other", "zero-wake"]
        assert sim.now == 1.0

    def test_exception_mid_epoch_does_not_refire_entries(self):
        """Entries fired before a raising callback stay consumed."""
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("mid-epoch")

        sim.call_soon(lambda: fired.append("a"))
        sim.call_soon(boom)
        sim.call_soon(lambda: fired.append("b"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["a"]
        sim.run()
        assert fired == ["a", "b"]

    def test_rerun_after_callback_exception_keeps_seq_order(self):
        """A callback raising out of a future epoch leaves the rest of that
        epoch — pre-existing entries and the ones it appended — to fire in
        seq order on the next run(), on both run loops."""
        for sim in _both_loops():
            trail = _reentry_after_callback_exception(sim)
            assert trail == ["boom", "late-seq", "soon"], sim.policy

    def test_rerun_after_tick_abort_keeps_seq_order(self):
        """Same contract when a raising tick (a RunGuards budget abort)
        stops the run between two entries of one epoch."""
        for sim in _both_loops():
            trail = _reentry_after_tick_abort(sim)
            assert trail == ["first", "late-seq", "soon"], sim.policy

    def test_float_underflow_delay_stays_in_current_epoch(self):
        """A positive delay that underflows (now + d == now) must not create
        a current-time heap entry mid-epoch."""
        sim = Simulator()
        trail = []

        def proc():
            yield 1e9  # big now: 1e9 + 1e-9 == 1e9 in float64
            yield 1e-9
            trail.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trail == [1e9]


# ----------------------------------------------------------------------
# schedule-policy contract
# ----------------------------------------------------------------------

class _Recording(SchedulePolicy):
    def __init__(self):
        self.sets = []

    def choose(self, sim, ready):
        self.sets.append(
            (sim.now, [(seq, kind) for seq, kind, _a, _b, _c in ready])
        )
        return 0


class _LIFO(SchedulePolicy):
    def choose(self, sim, ready):
        return len(ready) - 1


class TestPolicyContract:
    def test_policy_sees_full_runnable_set(self):
        """choose() receives every entry due now, as 5-tuples, FIFO order."""
        policy = _Recording()
        sim = Simulator(policy=policy)

        def waiter(tag):
            yield 1.0

        for tag in "abcd":
            sim.process(waiter(tag))
        sim.run()
        # At t=1.0 all four typed sleeps are due together at least once.
        at_one = max((s for t, s in policy.sets if t == 1.0), key=len)
        assert len(at_one) == 4
        assert all(kind == K_RESUME for _seq, kind in at_one)
        seqs = [seq for seq, _kind in at_one]
        assert seqs == sorted(seqs)
        # The t=0 epoch is the four process starts (plain callbacks).
        at_zero = max((s for t, s in policy.sets if t == 0.0), key=len)
        assert len(at_zero) == 4
        assert all(kind == K_CALL for _seq, kind in at_zero)

    def test_fifo_policy_matches_default_order(self):
        def run(policy):
            sim = Simulator(policy=policy)
            trail = []

            def waiter(tag):
                yield 1.0
                trail.append(tag)
                yield 1.5
                trail.append(tag.upper())

            for tag in "abc":
                sim.process(waiter(tag))
            sim.run()
            return trail

        assert run(None) == run(SchedulePolicy())

    def test_lifo_policy_is_a_legal_reordering(self):
        """A policy can only permute within a timestamp, never across."""
        sim = Simulator(policy=_LIFO())
        trail = []

        def waiter(tag, delay):
            yield delay
            trail.append((tag, sim.now))

        for tag in "ab":
            sim.process(waiter(tag, 1.0))
        sim.process(waiter("c", 2.0))
        sim.run()
        times = [t for _tag, t in trail]
        assert times == sorted(times)
        assert {tag for tag, t in trail if t == 1.0} == {"a", "b"}


# ----------------------------------------------------------------------
# waitables at epoch boundaries
# ----------------------------------------------------------------------

class TestEpochBoundaries:
    def test_interrupt_lands_in_current_epoch(self):
        sim = Simulator()
        trail = []

        def sleeper():
            try:
                yield 10.0
            except Exception as exc:
                trail.append((type(exc).__name__, sim.now))

        proc = sim.process(sleeper())
        sim.call_later(3.0, proc.interrupt, "enough")
        sim.run()
        assert trail == [("Interrupt", 3.0)]

    def test_interrupt_cancels_pending_typed_sleep(self):
        """The stale resume from the aborted sleep must not re-enter."""
        sim = Simulator()
        trail = []

        def sleeper():
            try:
                yield 1.0
            except Exception:
                trail.append(("interrupted", sim.now))
                yield 5.0
                trail.append(("slept", sim.now))

        proc = sim.process(sleeper())
        sim.call_later(0.5, proc.interrupt)  # before the sleep matures
        sim.run()
        # The t=1.0 entry from the aborted sleep fires as a stale no-op.
        assert trail == [("interrupted", 0.5), ("slept", 5.5)]

    def test_any_of_with_simultaneous_children(self):
        """AnyOf resolves to the first-triggered child of the epoch."""
        sim = Simulator()

        def proc():
            idx, value = yield sim.any_of(
                [sim.timeout(1.0, "t1"), sim.timeout(1.0, "t2")]
            )
            return idx, value

        assert sim.run_process(proc()) == (0, "t1")

    def test_all_of_across_epochs(self):
        sim = Simulator()

        def proc():
            values = yield sim.all_of(
                [sim.timeout(2.0, "late"), sim.timeout(1.0, "early")]
            )
            return (sim.now, values)

        assert sim.run_process(proc()) == (2.0, ["late", "early"])


# ----------------------------------------------------------------------
# PARK / wake
# ----------------------------------------------------------------------

class TestParkWake:
    def test_wake_resumes_with_value(self):
        sim = Simulator()

        def parker():
            got = yield PARK
            return (got, sim.now)

        proc = sim.process(parker())
        sim.call_later(2.0, proc.wake, "payload")
        sim.run()
        assert proc.triggered and proc.ok
        assert proc.value == ("payload", 2.0)

    def test_wake_is_idempotent_until_process_runs(self):
        sim = Simulator()
        wakes = []

        def parker():
            while True:
                got = yield PARK
                wakes.append((got, sim.now))
                if got == "stop":
                    return

        proc = sim.process(parker())

        def double_wake():
            proc.wake("first")
            proc.wake("second")  # no-op: already woken, not yet re-parked

        sim.call_later(1.0, double_wake)
        sim.call_later(2.0, proc.wake, "stop")
        sim.run()
        assert wakes == [("first", 1.0), ("stop", 2.0)]

    def test_wake_on_unparked_process_is_noop(self):
        sim = Simulator()
        trail = []

        def sleeper():
            yield 5.0
            trail.append(sim.now)

        proc = sim.process(sleeper())
        sim.call_later(1.0, proc.wake)  # not parked: spurious, ignored
        sim.run()
        assert trail == [5.0]

    def test_interrupt_while_parked(self):
        sim = Simulator()

        def parker():
            try:
                yield PARK
            except Exception as exc:
                return ("interrupted", exc.cause, sim.now)

        proc = sim.process(parker())
        sim.call_later(4.0, proc.interrupt, "shutdown")
        sim.run()
        assert proc.value == ("interrupted", "shutdown", 4.0)

    def test_stale_wake_after_interrupt_and_repark(self):
        """A wake scheduled before an interrupt throws must not fire the
        re-parked process: its captured wake token is stale."""
        sim = Simulator()
        trail = []

        def parker():
            try:
                yield PARK
            except Exception:
                trail.append(("interrupted", sim.now))
            got = yield PARK
            trail.append((got, sim.now))

        proc = sim.process(parker())

        def race():
            proc.interrupt()     # throw is queued first...
            proc.wake("stale")   # ...so this resume goes stale when it runs

        sim.call_later(1.0, race)
        sim.call_later(3.0, proc.wake, "fresh")
        sim.run()
        assert trail == [("interrupted", 1.0), ("fresh", 3.0)]

    def test_wake_from_event_callback(self):
        """The comm-thread idiom: a queue push wakes the parked poller."""
        sim = Simulator()
        served = []
        queue = []

        def poller():
            while True:
                while queue:
                    item = queue.pop(0)
                    if item is None:
                        return
                    served.append((item, sim.now))
                    yield 0.5  # per-item processing cost
                yield PARK

        proc = sim.process(poller())

        def push(item):
            queue.append(item)
            proc.wake()

        sim.call_later(1.0, push, "x")
        sim.call_later(1.0, push, "y")  # second wake same epoch: no-op
        sim.call_later(5.0, push, None)
        sim.run()
        assert served == [("x", 1.0), ("y", 1.5)]

    def test_parked_forever_process_stays_pending(self):
        sim = Simulator()

        def parker():
            yield PARK

        proc = sim.process(parker())
        sim.run(until=10.0)
        assert proc.is_alive
        assert not proc.triggered


# ----------------------------------------------------------------------
# typed sleeps
# ----------------------------------------------------------------------

class TestTypedSleep:
    def test_numeric_sleep_matches_timeout_schedule(self):
        """yield d and yield sim.timeout(d) interleave identically."""

        def run(use_timeout):
            sim = Simulator()
            trail = []

            def proc(tag, delay):
                for _ in range(3):
                    if use_timeout:
                        yield sim.timeout(delay)
                    else:
                        yield delay
                    trail.append((tag, sim.now))

            sim.process(proc("a", 1.0))
            sim.process(proc("b", 1.5))
            sim.process(proc("c", 1.0))
            sim.run()
            return trail

        assert run(False) == run(True)

    def test_bool_is_not_a_sleep(self):
        sim = Simulator()

        def proc():
            yield True

        with pytest.raises(SimulationError, match="non-event"):
            sim.run_process(proc())

    def test_int_sleep(self):
        sim = Simulator()

        def proc():
            got = yield 2
            return (got, sim.now)

        assert sim.run_process(proc()) == (2, 2.0)
