"""Generic execution of task-graph workloads on the simulated runtime.

Registered scenario workloads (stencil, taskbench, ring, ...) all share
one driver shape: build a :class:`~repro.runtime.taskpool.TaskGraph` from
the config, validate placement, run it on a :class:`~repro.runtime.
context.ParsecContext`, and report the runtime's common measurements.
:func:`run_graph_benchmark` is that driver; per-workload wrappers in
:mod:`repro.workloads.catalog` bind it to a graph builder.

The driver honours the full hook contract of the paper benchmarks
(``faults``/``schedule_policy``/``ctx_observer``) plus run-progress
heartbeats and :class:`~repro.supervise.guards.RunGuards` budgets, so
every registered workload works under chaos plans, the schedule explorer,
and supervised sweeps without per-workload glue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["GraphBenchResult", "run_graph_benchmark", "freeze_graph_result"]


@dataclass
class GraphBenchResult:
    """Raw measurements of one task-graph workload execution.

    The common :class:`~repro.runtime.context.RunStats` surface, flattened
    the same way the paper benchmarks flatten theirs, so sweep records and
    result digests treat every workload uniformly.
    """

    config: Any
    backend: str
    workload: str
    makespan: float = 0.0
    tasks: int = 0
    flow_latency: dict = field(default_factory=dict)
    msg_latency: dict = field(default_factory=dict)
    activates_sent: int = 0
    wire_bytes: int = 0
    worker_utilization: float = 0.0
    events_processed: int = 0

    def summary(self) -> str:
        """One-line report."""
        return (
            f"{self.workload}[{self.backend}]: "
            f"makespan={self.makespan * 1e3:.3f} ms, {self.tasks} tasks, "
            f"{self.wire_bytes / 1e6:.1f} MB wire, "
            f"utilization {self.worker_utilization:.1%}"
        )


def run_graph_benchmark(
    workload: str,
    builder: Callable,
    backend: str,
    cfg: Any,
    platform: Optional[Any] = None,
    *,
    faults: Any = None,
    schedule_policy: Any = None,
    ctx_observer: Any = None,
    progress: Any = None,
    guards: Any = None,
) -> GraphBenchResult:
    """Build ``builder(cfg, platform)`` and execute it on the runtime.

    ``faults``/``schedule_policy``/``ctx_observer`` follow the contract of
    :func:`repro.bench.pingpong.run_pingpong_benchmark`; ``progress`` and
    ``guards`` follow :func:`repro.bench.hicma_bench.run_hicma_benchmark`.
    The default platform is the CI-scale cluster sized to the config's
    ``num_nodes``.
    """
    from repro.analysis.stats import summarize
    from repro.config import scaled_platform
    from repro.runtime.context import ParsecContext

    platform = platform or scaled_platform(num_nodes=cfg.num_nodes)
    graph = builder(cfg, platform)
    graph.validate(num_nodes=cfg.num_nodes)
    ctx = ParsecContext(
        platform,
        backend=backend,
        seed=cfg.seed,
        faults=faults,
        schedule_policy=schedule_policy,
    )
    if ctx_observer is not None:
        ctx_observer(ctx)
    stats = ctx.run(graph, until=36_000.0, progress=progress, guards=guards)
    return GraphBenchResult(
        config=cfg,
        backend=backend,
        workload=workload,
        makespan=stats.makespan,
        tasks=stats.tasks_executed,
        flow_latency=summarize(stats.flow_latencies),
        msg_latency=summarize(stats.msg_latencies),
        activates_sent=stats.activates_sent,
        wire_bytes=stats.wire_bytes,
        worker_utilization=stats.worker_utilization,
        events_processed=stats.events_processed,
    )


def freeze_graph_result(raw: GraphBenchResult, backend: str):
    """Reduce a :class:`GraphBenchResult` to the frozen public
    :class:`~repro.api.GraphResult` (the shared reducer of every
    registered scenario workload)."""
    from repro.api import GraphResult

    return GraphResult(
        workload=raw.workload,
        backend=backend,
        makespan=raw.makespan,
        tasks=raw.tasks,
        flow_latency=dict(raw.flow_latency),
        activates_sent=raw.activates_sent,
        wire_bytes=raw.wire_bytes,
        worker_utilization=raw.worker_utilization,
        events_processed=raw.events_processed,
    )
