"""Explorable scenarios: small, fast workload descriptions.

A :class:`Scenario` names a workload (any name registered with
:mod:`repro.workloads` — the paper benchmarks plus the whole scenario
catalog), a backend, a node count, a seed, an optional named fault plan,
and workload-config overrides.  It serializes through the repo's
canonical codec (:class:`~repro.codec.DictCodec`), which is what makes
``schedule.json`` replayable: the scenario document plus a decision list
fully determines a run.

:func:`run_scenario` executes one schedule of a scenario under an optional
:class:`~repro.sim.core.SchedulePolicy` and applies every invariant from
:mod:`repro.explore.invariants`, returning the violations and the
schedule-invariant result digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.codec import DictCodec
from repro.errors import ExploreError, ReproError, RuntimeBackendError
from repro.explore.invariants import (
    MatchAuditor,
    Violation,
    check_quiescence,
    result_digest,
)
from repro.faults.plans import fault_plan

__all__ = ["Scenario", "default_scenario", "run_scenario"]


def _spec_of(workload: str):
    """Resolve a workload, re-raising unknown names as ExploreError."""
    from repro.errors import ConfigError
    from repro.workloads import get_workload, workload_names

    try:
        return get_workload(workload)
    except ConfigError:
        raise ExploreError(
            f"unknown scenario workload {workload!r} "
            f"(known: {', '.join(workload_names())})"
        ) from None


@dataclass(frozen=True)
class Scenario(DictCodec):
    """One explorable experiment: workload + backend + knobs.

    ``params`` are workload-config overrides (e.g. ``fragment_size``);
    node count and seed are injected on top.  ``fault_plan`` names a plan
    from :data:`~repro.faults.plans.FAULT_PLANS` (kept as a name, not an
    expanded config, so scenario documents stay small and readable).
    """

    workload: str = "pingpong"
    backend: str = "lci"
    nodes: int = 2
    seed: int = 0
    fault_plan: Optional[str] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _spec_of(self.workload)
        if self.backend not in ("mpi", "lci"):
            raise ExploreError(f"unknown backend {self.backend!r}")
        if self.nodes < 2:
            raise ExploreError("exploration needs at least 2 nodes")

    def label(self) -> str:
        """Short human-readable identifier for progress output."""
        extra = f" faults={self.fault_plan}" if self.fault_plan else ""
        return (
            f"{self.workload}/{self.backend} nodes={self.nodes} "
            f"seed={self.seed}{extra}"
        )


def default_scenario(workload: str, backend: str = "lci", nodes: int = 2,
                     seed: int = 0, fault_plan: Optional[str] = None) -> Scenario:
    """A scenario with the workload's small fast default parameters.

    The parameter overrides come from the workload spec's
    ``explore_params`` — each registered workload declares a
    small-but-non-trivial configuration so hundreds of schedules stay
    interactive.
    """
    spec = _spec_of(workload)
    params = dict(spec.explore_params)
    # The Scenario's own nodes field wins over any explore_params hint.
    params.pop("num_nodes", None)
    return Scenario(
        workload=workload, backend=backend, nodes=nodes, seed=seed,
        fault_plan=fault_plan, params=params,
    )


def run_scenario(scenario: Scenario, policy=None) -> dict:
    """Execute one schedule of ``scenario`` and check every invariant.

    Returns a JSON-plain record::

        {"violations": [[kind, detail], ...],  # empty = all invariants hold
         "digest": {...} | None,               # result_digest, None on error
         "makespan": float | None}

    plus, when ``policy`` is a tracing policy, its recorded ``sites``,
    ``taken`` decisions, and ``total_sites`` (consumed by the explorer).
    """
    faults = fault_plan(scenario.fault_plan) if scenario.fault_plan else None
    auditor = MatchAuditor()
    captured = {}

    def observer(ctx):
        captured["ctx"] = ctx
        auditor.install(ctx)

    violations: list = []
    result = None
    try:
        result = _dispatch(scenario, faults, policy, observer)
    except RuntimeBackendError as exc:
        kind = "deadlock" if "did not complete" in str(exc) else "protocol"
        violations.append(Violation(kind, str(exc)))
    except ReproError as exc:
        violations.append(Violation("protocol", f"{type(exc).__name__}: {exc}"))
    ctx = captured.get("ctx")
    if result is not None and ctx is not None:
        # Quiescence only means something after a clean completion — an
        # aborted run legitimately strands queue contents.
        violations.extend(check_quiescence(ctx))
    violations.extend(auditor.violations)
    record = {
        "violations": [v.to_list() for v in violations],
        "digest": result_digest(result) if result is not None else None,
        "makespan": result.makespan if result is not None else None,
    }
    if policy is not None and hasattr(policy, "sites"):
        record["sites"] = policy.sites
        record["taken"] = policy.taken
        record["total_sites"] = policy.total_sites
    return record


def _dispatch(scenario: Scenario, faults, policy, observer):
    """Build the workload config and run it.

    Resolves through the :mod:`repro.workloads` registry, so any
    registered workload — including in-process plugins — is explorable.
    """
    spec = _spec_of(scenario.workload)
    params = dict(scenario.params)
    params["num_nodes"] = scenario.nodes
    params["seed"] = scenario.seed
    return spec.run(
        scenario.backend, spec.build_config(**params),
        faults=faults, schedule_policy=policy, ctx_observer=observer,
    )
