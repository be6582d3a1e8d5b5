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

from dataclasses import dataclass

from repro.analysis.stats import summarize
from repro.api import HicmaResult
from repro.codec import DictCodec
from repro.config import expanse_platform, paper_scale_enabled, scaled_platform
from repro.errors import BenchmarkError
from repro.hicma.dag import build_tlr_cholesky_graph
from repro.hicma.ranks import RankModel
from repro.hicma.timing import KernelTimeModel
from repro.runtime.taskpool import TaskGraph

__all__ = [
    "HicmaConfig",
    "hicma_context",
    "hicma_graph",
    "hicma_result",
    "default_matrix_size",
    "default_tile_sizes",
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


def hicma_context(cfg: HicmaConfig) -> dict:
    """The workload's platform and ``ParsecContext`` options.

    The platform is the full Expanse model at paper scale and the
    8-fat-core scaled platform otherwise."""
    if paper_scale_enabled():
        platform = expanse_platform(num_nodes=cfg.num_nodes)
    else:
        platform = scaled_platform(num_nodes=cfg.num_nodes, cores_per_node=8)
    return {
        "platform": platform,
        "multithreaded_activate": cfg.multithreaded_activate,
        "clock_sync": cfg.clock_sync,
    }


def hicma_graph(cfg: HicmaConfig, platform) -> TaskGraph:
    """The workload's graph: the TLR Cholesky DAG.

    Tile ranks come from the config's rank model, kernel times from the
    platform's compute model."""
    return build_tlr_cholesky_graph(
        cfg.nt,
        cfg.tile_size,
        num_nodes=cfg.num_nodes,
        rank_model=RankModel(cfg.nt, cfg.tile_size, cfg.maxrank),
        time_model=KernelTimeModel(platform.compute),
        maxrank=cfg.maxrank,
        two_flow=cfg.two_flow,
    )


def hicma_result(workload: str, cfg: HicmaConfig, ctx):
    """The workload's result: time to solution and latency statistics.

    End-to-end latency runs from ACTIVATE send to data arrival over the
    full multicast tree — what Fig. 4b/5b plot."""

    def finish(stats) -> HicmaResult:
        return HicmaResult(
            workload=workload,
            backend=ctx.backend,
            makespan=stats.makespan,
            tasks=stats.tasks_executed,
            flow_latency=summarize(stats.flow_latencies),
            time_to_solution=stats.makespan,
            msg_latency=summarize(stats.msg_latencies),
            activates_sent=stats.activates_sent,
            wire_bytes=stats.wire_bytes,
            worker_utilization=stats.worker_utilization,
        )

    return finish
