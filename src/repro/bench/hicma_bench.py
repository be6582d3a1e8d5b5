"""HiCMA TLR Cholesky benchmarks (paper §6.4: Fig. 4, Fig. 5, Table 2).

The paper's configuration: st-2d-sqexp, N = 360,000, maxrank 150, accuracy
1e-8, band 1, two-flow algorithm; 16 nodes for the tile-size scan (Fig. 4),
1–32 nodes for strong scaling (Fig. 5).

Default scale here: N = 36,000 on nodes with 8 "fat" workers (node-level
compute held at Expanse levels — see ``scaled_platform``), which keeps the
same regime boundaries: too-large tiles starve parallelism, too-small tiles
bottleneck on communication.  ``REPRO_PAPER_SCALE=1`` selects the full
paper dimensions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stats import summarize
from repro.codec import DictCodec
from repro.config import (
    PlatformConfig,
    paper_scale_enabled,
    scaled_platform,
)
from repro.errors import BenchmarkError
from repro.hicma.dag import build_tlr_cholesky_graph
from repro.hicma.ranks import RankModel
from repro.hicma.timing import KernelTimeModel
from repro.runtime.context import ParsecContext

__all__ = [
    "HicmaConfig",
    "HicmaResult",
    "run_hicma_benchmark",
    "default_matrix_size",
    "default_tile_sizes",
    "best_tile_scan",
]


def default_matrix_size() -> int:
    """Matrix dimension for the Fig. 4 harness at the current scale."""
    return 360_000 if paper_scale_enabled() else 36_000


def default_tile_sizes() -> list[int]:
    """The Fig. 4 tile-size sweep (divisors of the matrix size)."""
    if paper_scale_enabled():
        return [1200, 1500, 1800, 2400, 3000, 3600, 4500, 4800, 6000]
    return [1200, 1500, 1800, 2400, 3000, 3600, 4500, 6000]


@dataclass(frozen=True)
class HicmaConfig(DictCodec):
    """One TLR Cholesky execution."""

    matrix_size: int
    tile_size: int
    num_nodes: int = 16
    maxrank: int = 150
    two_flow: bool = True
    multithreaded_activate: bool = False
    clock_sync: bool = False
    seed: int = 0

    @property
    def nt(self) -> int:
        """Tiles per dimension."""
        if self.matrix_size % self.tile_size != 0:
            raise BenchmarkError(
                f"matrix {self.matrix_size} not divisible by tile {self.tile_size}"
            )
        return self.matrix_size // self.tile_size


@dataclass
class HicmaResult:
    """Measurements of one TLR Cholesky execution."""

    config: HicmaConfig
    backend: str
    time_to_solution: float = 0.0
    tasks: int = 0
    #: End-to-end latency stats (ACTIVATE send → data arrival, full
    #: multicast tree) — what Fig. 4b/5b plot.
    flow_latency: dict = field(default_factory=dict)
    msg_latency: dict = field(default_factory=dict)
    activates_sent: int = 0
    wire_bytes: int = 0
    worker_utilization: float = 0.0
    #: Kernel events fired during the run (events/s = this / wall time).
    events_processed: int = 0

    @property
    def mean_flow_latency(self) -> float:
        """Mean end-to-end latency (seconds)."""
        return self.flow_latency.get("mean", 0.0)

    def summary(self) -> str:
        """One-line report."""
        return (
            f"hicma[{self.backend}] N={self.config.matrix_size} "
            f"tile={self.config.tile_size} nodes={self.config.num_nodes}"
            f"{' MT' if self.config.multithreaded_activate else ''}: "
            f"TTS={self.time_to_solution:.3f}s "
            f"e2e={self.mean_flow_latency * 1e3:.2f}ms"
        )


def run_hicma_benchmark(
    backend: str,
    cfg: HicmaConfig,
    platform: Optional[PlatformConfig] = None,
    *,
    faults=None,
    schedule_policy=None,
    ctx_observer=None,
    progress=None,
    guards=None,
) -> HicmaResult:
    """Execute one TLR Cholesky on the simulated runtime.

    ``faults``/``schedule_policy``/``ctx_observer`` follow the same
    contract as :func:`repro.bench.pingpong.run_pingpong_benchmark`;
    ``progress`` (``True`` or a :class:`~repro.obs.progress.
    ProgressReporter`) turns on run-progress heartbeats — essential at
    ``REPRO_PAPER_SCALE=1``, where a single point is ~575k tasks.
    ``guards`` (:class:`~repro.supervise.guards.RunGuards`) enforces hard
    run budgets; on violation the structured abort carries a diagnostic
    snapshot and partial stats (see :meth:`~repro.runtime.context.
    ParsecContext.run`).
    """
    if platform is None:
        if paper_scale_enabled():
            from repro.config import expanse_platform

            platform = expanse_platform(num_nodes=cfg.num_nodes)
        else:
            platform = scaled_platform(num_nodes=cfg.num_nodes, cores_per_node=8)
    ranks = RankModel(cfg.nt, cfg.tile_size, cfg.maxrank)
    times = KernelTimeModel(platform.compute)
    t_build = time.perf_counter()
    graph = build_tlr_cholesky_graph(
        cfg.nt,
        cfg.tile_size,
        num_nodes=cfg.num_nodes,
        rank_model=ranks,
        time_model=times,
        maxrank=cfg.maxrank,
        two_flow=cfg.two_flow,
    )
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
        platform,
        backend=backend,
        multithreaded_activate=cfg.multithreaded_activate,
        clock_sync=cfg.clock_sync,
        seed=cfg.seed,
        faults=faults,
        schedule_policy=schedule_policy,
    )
    if ctx_observer is not None:
        ctx_observer(ctx)
    stats = ctx.run(graph, until=36_000.0, progress=progress, guards=guards)
    return HicmaResult(
        config=cfg,
        backend=backend,
        time_to_solution=stats.makespan,
        tasks=stats.tasks_executed,
        flow_latency=summarize(stats.flow_latencies),
        msg_latency=summarize(stats.msg_latencies),
        activates_sent=stats.activates_sent,
        wire_bytes=stats.wire_bytes,
        worker_utilization=stats.worker_utilization,
        events_processed=stats.events_processed,
    )


def best_tile_scan(
    backend: str,
    num_nodes: int,
    tile_sizes: Optional[list[int]] = None,
    matrix_size: Optional[int] = None,
    sweep_config=None,
    **kwargs,
) -> tuple[int, dict]:
    """Run every tile size; return (best tile, all results) — Table 2.

    Point execution goes through :func:`repro.sweep.run_sweep`, so pass a
    :class:`~repro.config.SweepConfig` to parallelise the scan or reuse a
    result cache; results are attribute views over the sweep records
    (``.time_to_solution`` etc.) and are bit-identical either way.
    """
    from repro.config import SweepConfig
    from repro.sweep.engine import run_sweep
    from repro.sweep.spec import SweepPoint, SweepSpec

    matrix_size = matrix_size or default_matrix_size()
    tile_sizes = tile_sizes or default_tile_sizes()
    cfg_fields = {"multithreaded_activate": False, "seed": 0, **kwargs}
    points = tuple(
        SweepPoint(
            kind="hicma",
            backend=backend,
            params={
                "matrix_size": matrix_size,
                "tile_size": tile,
                "num_nodes": num_nodes,
                **cfg_fields,
            },
        )
        for tile in tile_sizes
    )
    spec = SweepSpec(name=f"tile-scan-{backend}-{num_nodes}n", points=points)
    outcome = run_sweep(spec, sweep_config or SweepConfig(cache_enabled=False))
    results = dict(zip(tile_sizes, outcome.views()))
    best = min(results, key=lambda t: results[t].time_to_solution)
    return best, results
