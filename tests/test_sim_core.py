"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator, Interrupt


def test_timeout_advances_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(1.5)
    assert sim.now == pytest.approx(1.5)


def test_zero_timeout_runs_at_same_time():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(0.0)
        seen.append(sim.now)

    sim.run_process(proc())
    assert seen == [0.0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(10):
        sim.process(waiter(tag))
    sim.run()
    assert order == list(range(10))


def test_event_value_passes_through_yield():
    sim = Simulator()
    evt = sim.event()

    def trigger():
        yield sim.timeout(1.0)
        evt.succeed("payload")

    def waiter():
        value = yield evt
        return value

    sim.process(trigger())
    assert sim.run_process(waiter()) == "payload"


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    evt = sim.event()

    def trigger():
        yield sim.timeout(0.5)
        evt.fail(ValueError("boom"))

    def waiter():
        yield evt

    sim.process(trigger())
    with pytest.raises(ValueError, match="boom"):
        sim.run_process(waiter())


def test_event_double_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)
    with pytest.raises(SimulationError):
        evt.fail(RuntimeError("x"))


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_callback_added_after_trigger_still_runs():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(42)
    sim.run()
    seen = []
    evt.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == [42]


def test_process_is_waitable_event():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "done"

    def parent():
        result = yield sim.process(child())
        return (sim.now, result)

    assert sim.run_process(parent()) == (pytest.approx(2.0), "done")


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise KeyError("inner")

    def parent():
        yield sim.process(child())

    with pytest.raises(KeyError):
        sim.run_process(parent())


def test_yielding_non_event_raises():
    # Numbers are the sleep shorthand; anything else non-Event is an error.
    sim = Simulator()

    def bad():
        yield "not an event"

    proc = sim.process(bad())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_yielding_number_sleeps():
    sim = Simulator()

    def proc():
        sent = yield 1.5
        assert sent == 1.5
        sent = yield 2  # ints work too (bools do not)
        assert sent == 2
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(3.5)


def test_yielding_negative_number_raises():
    sim = Simulator()

    def bad():
        yield -0.5

    proc = sim.process(bad())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_interrupt_wakes_waiting_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as exc:
            log.append(("interrupted", sim.now, exc.cause))

    def interrupter(proc):
        yield sim.timeout(1.0)
        proc.interrupt("wakeup")

    p = sim.process(sleeper())
    sim.process(interrupter(p))
    sim.run()
    assert log == [("interrupted", 1.0, "wakeup")]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.1)

    p = sim.process(quick())
    sim.run()
    p.interrupt("late")  # must not raise
    sim.run()
    assert p.ok


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)

    sim.process(proc())
    sim.run(until=4.0)
    assert sim.now == pytest.approx(4.0)
    sim.run()
    assert sim.now == pytest.approx(10.0)


def test_call_soon_and_call_later_ordering():
    sim = Simulator()
    order = []
    sim.call_later(1.0, order.append, "later")
    sim.call_soon(order.append, "soon1")
    sim.call_soon(order.append, "soon2")
    sim.run()
    assert order == ["soon1", "soon2", "later"]


def test_call_later_negative_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-0.1, lambda: None)


def test_run_process_unfinished_raises():
    sim = Simulator()
    evt = sim.event()

    def forever():
        yield evt

    with pytest.raises(SimulationError, match="did not finish"):
        sim.run_process(forever())


def test_nested_process_chains():
    sim = Simulator()

    def leaf(n):
        yield sim.timeout(0.1 * n)
        return n

    def mid(n):
        a = yield sim.process(leaf(n))
        b = yield sim.process(leaf(n + 1))
        return a + b

    def root():
        total = 0
        for i in range(3):
            total += yield sim.process(mid(i))
        return total

    # (0+1) + (1+2) + (2+3) = 9
    assert sim.run_process(root()) == 9


def test_events_processed_counter_increases():
    sim = Simulator()

    def proc():
        for _ in range(5):
            yield sim.timeout(0.1)

    sim.run_process(proc())
    assert sim.events_processed >= 5
