"""Deterministic schedule-space exploration (protocol race detection).

The simulator normally resolves same-timestamp ties in one fixed FIFO
order, so each seed validates exactly one interleaving.  This package
turns the simulator into a correctness tool: it re-executes a scenario
under alternative legal interleavings (every candidate was runnable at
that instant) and checks protocol invariants — quiescence, deadlock, MPI
matching soundness, result invariance — on every schedule.  Failures
shrink to a minimal decision prefix and round-trip through a replayable
``schedule.json``.

Entry points: :func:`~repro.explore.explorer.run_explore`,
:func:`~repro.explore.explorer.replay_schedule`, and the CLI verb
``python -m repro explore``.
"""

from repro.explore.explorer import (
    ExploreConfig,
    ExploreOutcome,
    Finding,
    replay_schedule,
    run_explore,
)
from repro.explore.invariants import MatchAuditor, Violation, check_quiescence
from repro.explore.policy import MAX_BRANCH, RandomWalkPolicy, ReplayPolicy, scope_of
from repro.explore.scenarios import Scenario, default_scenario, run_scenario
from repro.explore.schedule import encode_schedule, load_schedule, write_schedule

__all__ = [
    "MAX_BRANCH",
    "ExploreConfig",
    "ExploreOutcome",
    "Finding",
    "MatchAuditor",
    "RandomWalkPolicy",
    "ReplayPolicy",
    "Scenario",
    "Violation",
    "check_quiescence",
    "default_scenario",
    "encode_schedule",
    "load_schedule",
    "replay_schedule",
    "run_explore",
    "run_scenario",
    "scope_of",
    "write_schedule",
]
