"""The one run path every registered workload takes.

A workload is a config, a task-graph builder and a result function (see
:class:`~repro.workloads.registry.WorkloadSpec`).  :func:`run_workload`
does everything else, identically for all of them: pick the platform,
build, freeze and validate the graph, construct the
:class:`~repro.runtime.context.ParsecContext`, hand it to
``ctx_observer``, run it, and let the workload's result function turn
the :class:`~repro.runtime.context.RunStats` into its frozen
:mod:`repro.api` result.

Every workload therefore honours the full hook contract —
``faults``/``schedule_policy``/``ctx_observer`` plus run-progress
heartbeats and :class:`~repro.supervise.guards.RunGuards` budgets — and
works under chaos plans, the schedule explorer and supervised sweeps
with no per-workload glue.
"""

from __future__ import annotations

import time
from typing import Any, Optional

__all__ = ["run_workload", "graph_result"]

#: Simulated-time horizon of every run; all bundled workloads finish far
#: inside it.
UNTIL = 36_000.0


def run_workload(
    spec: Any,
    backend: str,
    cfg: Any,
    platform: Optional[Any] = None,
    *,
    faults: Any = None,
    schedule_policy: Any = None,
    ctx_observer: Any = None,
    progress: Any = None,
    guards: Any = None,
    observability: bool = False,
):
    """Run ``cfg`` of workload ``spec`` and return its frozen result.

    ``platform`` overrides the spec's default platform.  ``faults`` (a
    :class:`~repro.config.FaultConfig`), ``schedule_policy`` (a
    :class:`~repro.sim.core.SchedulePolicy`) and ``observability`` pass
    straight to the context; ``ctx_observer(ctx)`` runs after context construction and
    before the run, so callers such as the schedule explorer can install
    audits and inspect the context afterwards.  ``progress`` (``True`` or
    a :class:`~repro.obs.progress.ProgressReporter`) turns on heartbeats;
    ``guards`` enforces run budgets, and on violation the structured abort
    carries a diagnostic snapshot and partial stats (see
    :meth:`~repro.runtime.context.ParsecContext.run`).
    """
    from repro.runtime.context import ParsecContext

    options = spec.context_options(cfg)
    if platform is not None:
        options["platform"] = platform
    t_build = time.perf_counter()
    # Derive the adjacency now, so set-up ends with a graph ready to load.
    graph = spec.build_graph(cfg, options["platform"]).freeze()
    # Fail eagerly on misplacement: a task on a node outside the platform
    # would otherwise only surface deep inside ctx.run().
    graph.validate(num_nodes=cfg.num_nodes)
    stream = getattr(progress, "stream", None)
    if stream is not None:
        print(
            f"[progress] graph built: {graph.num_tasks:,} tasks, "
            f"{graph.num_flows:,} flows in {time.perf_counter() - t_build:.1f}s",
            file=stream,
            flush=True,
        )
    ctx = ParsecContext(
        backend=backend,
        seed=cfg.seed,
        faults=faults,
        schedule_policy=schedule_policy,
        observability=observability,
        **options,
    )
    if ctx_observer is not None:
        ctx_observer(ctx)
    finish = spec.result_fn()(spec.name, cfg, ctx)
    stats = ctx.run(graph, until=UNTIL, progress=progress, guards=guards)
    return finish(stats)


def graph_result(workload: str, cfg: Any, ctx: Any):
    """The default result function: a :class:`~repro.api.GraphResult`.

    It holds the runtime's common measurements."""
    from repro.analysis.stats import summarize
    from repro.api import GraphResult

    def finish(stats):
        return GraphResult(
            workload=workload,
            backend=ctx.backend,
            makespan=stats.makespan,
            tasks=stats.tasks_executed,
            flow_latency=summarize(stats.flow_latencies),
            activates_sent=stats.activates_sent,
            wire_bytes=stats.wire_bytes,
            worker_utilization=stats.worker_utilization,
            events_processed=stats.events_processed,
        )

    return finish
