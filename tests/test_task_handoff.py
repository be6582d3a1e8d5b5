"""The Event-free ready-task handoff is the Event-based one, entry for entry.

:class:`CentralScheduler` hands tasks to workers with ``yield 0`` (work
queued) or ``PARK``/``wake`` (idle worker), plus one inert ``noop`` per
push.  A reference scheduler built on :class:`PriorityStore` ``get`` and
``put`` — a getter event per pop, an acceptance event per push — must
produce the same firing order, the same clock and the same number of
processed kernel entries on random push/pop programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeBackendError
from repro.runtime.scheduler import CentralScheduler
from repro.sim.core import Simulator
from repro.sim.primitives import PriorityStore


class _StoreScheduler:
    """Reference: the Event-based handoff through a priority store."""

    def __init__(self, sim):
        self.store = PriorityStore(sim)

    def push(self, key, task):
        self.store.put((key, task))

    def pop(self, me=None):
        return (yield self.store.get())

    def __len__(self):
        return len(self.store)


_PUSHES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),   # push time
        st.integers(-3, 3),                       # priority key
        st.sampled_from([0, 0.25, 1.0]),          # task duration
        st.booleans(),                            # spawns a follow-up task
    ),
    max_size=20,
)


def _trace(make_scheduler, pushes, num_workers):
    sim = Simulator()
    sched = make_scheduler(sim)
    trace = []

    def worker(wid, me):
        while True:
            task = yield from sched.pop(me)
            name, duration, follow = task
            trace.append((sim.now, wid, name))
            yield duration
            if follow:
                sched.push(0, (name + "+", 0, False))

    for wid in range(num_workers):
        holder = []
        holder.append(sim.process(worker(wid, holder), name=f"n0w{wid}"))
    for i, (when, key, duration, follow) in enumerate(pushes):
        sim.call_later(when, sched.push, key, (f"t{i}", duration, follow))
    sim.run()
    return trace, sim.events_processed, sim.now, len(sched)


@settings(max_examples=120, deadline=None)
@given(_PUSHES, st.integers(1, 3))
def test_central_handoff_matches_event_handoff(pushes, num_workers):
    assert _trace(CentralScheduler, pushes, num_workers) == _trace(
        _StoreScheduler, pushes, num_workers
    )


def test_idle_worker_receives_task_by_wake():
    sim = Simulator()
    sched = CentralScheduler(sim)
    got = []

    def worker(me):
        got.append((yield from sched.pop(me)))

    holder = []
    holder.append(sim.process(worker(holder)))
    sim.call_later(2.0, sched.push, 0.0, "late")
    sim.run()
    assert got == ["late"] and sim.now == 2.0
    assert len(sched) == 0


def test_idle_pop_without_holder_is_rejected():
    sim = Simulator()
    sched = CentralScheduler(sim)
    with pytest.raises(RuntimeBackendError, match="holder"):
        sim.run_process(sched.pop())


def test_try_put_takes_the_entries_of_put():
    """try_put schedules a noop where put fires its acceptance event."""
    counts = []
    for method in ("put", "try_put"):
        sim = Simulator()
        store = PriorityStore(sim)
        got = []

        def getter():
            got.append((yield store.get()))

        sim.process(getter())
        sim.run()
        getattr(store, method)((1, "a"))
        getattr(store, method)((0, "b"))
        sim.run()
        counts.append((got, store.items, sim.events_processed))
    assert counts[0] == counts[1] == (["a"], ("b",), 5)
