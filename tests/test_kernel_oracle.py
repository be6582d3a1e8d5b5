"""Differential oracle for the fast event loop.

``Simulator(policy=SchedulePolicy())`` runs every program through
:meth:`Simulator._run_policy`, a separately written loop that collects the
runnable set and always fires its first entry — plain FIFO by ``(time,
seq)``.  Random programs must fire the same trace, process the same number
of events and end at the same simulated time under both loops.  The
programs pile many entries onto few timestamps (the case the timestamp
buckets exist for) and mix zero delays, exact-time ``call_at``, Timeouts,
Events, ``PARK``/``wake``, interrupts, end-of-epoch callbacks and
``until``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import PARK, Interrupt, SchedulePolicy, Simulator

#: Few distinct delays, so entries collide on timestamps.
_DELAYS = st.sampled_from([0, 0.0, 0.5, 1, 1.0, 1.5, 2.0])

_OPS = st.one_of(
    st.tuples(st.just("sleep"), _DELAYS),
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("park")),
    st.tuples(st.just("wake"), st.integers(0, 5)),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
    st.tuples(st.just("call_soon")),
    st.tuples(st.just("call_later"), _DELAYS),
    st.tuples(st.just("call_at"), _DELAYS),
    st.tuples(st.just("fire"), st.integers(0, 2)),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("epoch_end")),
)

_PROGRAMS = st.tuples(
    st.lists(st.lists(_OPS, max_size=12), min_size=1, max_size=6),
    st.sampled_from([None, 0.5, 1.0, 1.25, 2.0]),
)


def _execute(program, until, policy):
    """Run ``program`` (one op list per process) and return the trace,
    the processed-event count and the final clock."""
    sim = Simulator(policy=policy)
    trace = []
    procs = []
    events = [sim.event() for _ in range(3)]

    def log(*item):
        trace.append((sim.now,) + item)

    def actor(me, ops):
        for step, op in enumerate(ops):
            name = op[0]
            try:
                if name == "sleep":
                    got = yield op[1]
                elif name == "timeout":
                    got = yield sim.timeout(op[1])
                elif name == "park":
                    got = yield PARK
                elif name == "wait":
                    got = yield events[op[1]]
                else:
                    got = None
                    if name == "wake":
                        procs[op[1] % len(procs)].wake((me, step))
                    elif name == "interrupt":
                        procs[op[1] % len(procs)].interrupt((me, step))
                    elif name == "call_soon":
                        sim.call_soon(log, "soon", me, step)
                    elif name == "call_later":
                        sim.call_later(op[1], log, "later", me, step)
                    elif name == "call_at":
                        sim.call_at(sim.now + op[1], log, "at", me, step)
                    elif name == "fire":
                        if not events[op[1]].triggered:
                            events[op[1]].succeed((me, step))
                    else:
                        sim.at_epoch_end(lambda me=me, step=step: log("epoch", me, step))
            except Interrupt as exc:
                got = ("interrupted", exc.cause)
            log(me, step, name, got)

    for i, ops in enumerate(program):
        procs.append(sim.process(actor(i, ops), name=f"p{i}"))
    sim.run(until=until)
    if until is not None:
        sim.run()
    return trace, sim.events_processed, sim.now


@settings(max_examples=150, deadline=None)
@given(_PROGRAMS)
def test_fast_loop_matches_fifo_policy_loop(case):
    program, until = case
    fast = _execute(program, until, None)
    oracle = _execute(program, until, SchedulePolicy())
    assert fast == oracle


def test_oracle_sees_shared_timestamps():
    """Sanity: the generated shape does put many entries on one time."""
    program = [[("sleep", 1.0), ("call_soon",), ("sleep", 1.0)]] * 4
    trace, count, now = _execute(program, None, None)
    assert now == 2.0
    assert [t for t, *_ in trace].count(1.0) == 12
    assert (trace, count, now) == _execute(program, None, SchedulePolicy())
