"""Computation/communication overlap benchmark (paper §6.3, Fig. 3).

A ping-pong variant where each task executes √(M/8) FMA operations per
8-byte element of its M-byte fragment — GEMM-like intensity.  Total FLOPs
are held constant across granularities by scaling the iteration count, so
the data moved grows as fragments shrink (the strong-scaling trade-off).

Reference curves:

- **Roofline**: communication fully overlapped —
  ``perf = FLOPs / max(T_compute, T_comm)``;
- **No Overlap**: strictly alternating —
  ``perf = FLOPs / (T_compute + T_comm)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analysis.stats import summarize
from repro.api import OverlapResult
from repro.codec import DictCodec
from repro.config import PlatformConfig, paper_scale_enabled
from repro.errors import BenchmarkError
from repro.bench.pingpong import PingPongConfig, build_pingpong_graph
from repro.runtime.taskpool import TaskGraph
from repro.units import MiB
from repro.workloads.registry import param

__all__ = [
    "OverlapConfig",
    "overlap_graph",
    "overlap_result",
    "roofline_flops",
    "no_overlap_flops",
]


@dataclass(frozen=True)
class OverlapConfig(DictCodec):
    """Parameters of one overlap-benchmark execution."""

    fragment_size: int = param(
        doc="Bytes per fragment (the Figure sweep axis).", minimum=1)
    total_bytes: Optional[int] = param(
        None, "Total data per iteration (None = scale default).", minimum=1)
    #: Scaled up as fragments shrink to hold total FLOPs constant.
    base_iterations: int = param(
        2, "Iterations at the largest fragment size.", minimum=1)
    reference_fragment: Optional[int] = param(
        None, "Fragment anchoring constant-FLOPs scaling (None = total/4).",
        minimum=1)
    num_nodes: int = param(
        2, "Cluster size (the exchange uses two).", minimum=2)
    seed: int = param(0, "Deterministic simulation seed.")

    def resolved_total(self) -> int:
        """Total data per iteration (paper vs CI scale)."""
        if self.total_bytes is not None:
            return self.total_bytes
        return 256 * MiB if paper_scale_enabled() else 32 * MiB

    def resolved_reference(self) -> int:
        """Fragment size anchoring the constant-FLOPs iteration scaling."""
        return self.reference_fragment or self.resolved_total() // 4

    def iterations(self) -> int:
        """Iteration count keeping total FLOPs constant: FLOPs/iter ∝ √M."""
        ref = self.resolved_reference()
        scale = math.sqrt(ref / self.fragment_size)
        return max(2, round(self.base_iterations * scale))

    def intensity(self) -> float:
        """FMAs per 8-byte element: √(M/8) (GEMM-like)."""
        return math.sqrt(self.fragment_size / 8.0)


def _total_flops(cfg: OverlapConfig) -> float:
    per_task = (cfg.fragment_size / 8.0) * cfg.intensity() * 2.0
    window = cfg.resolved_total() // cfg.fragment_size
    return per_task * window * cfg.iterations()


def _bound_terms(cfg: OverlapConfig, platform: PlatformConfig) -> tuple[float, float, float]:
    """(total FLOPs, compute time, comm time) for the analytic bounds.

    Parallelism is capped by the window (one task per in-flight fragment);
    consecutive iterations travel in opposite directions, so the pipelined
    benchmark can use both duplex directions of the NIC.
    """
    workers = platform.workers_for("lci", multinode=True) * platform.num_nodes
    window = cfg.resolved_total() // cfg.fragment_size
    concurrency = min(window, workers)
    compute_rate = concurrency * platform.compute.flops_per_core
    flops = _total_flops(cfg)
    t_compute = flops / compute_rate
    bytes_moved = cfg.resolved_total() * cfg.iterations()
    t_comm = bytes_moved / (2.0 * platform.network.bandwidth)
    return flops, t_compute, t_comm


def roofline_flops(cfg: OverlapConfig, platform: PlatformConfig) -> float:
    """Perfect-overlap performance bound."""
    flops, t_compute, t_comm = _bound_terms(cfg, platform)
    return flops / max(t_compute, t_comm)


def no_overlap_flops(cfg: OverlapConfig, platform: PlatformConfig) -> float:
    """Zero-overlap performance bound (compute and comm strictly serial)."""
    flops, t_compute, t_comm = _bound_terms(cfg, platform)
    return flops / (t_compute + t_comm)


def overlap_graph(cfg: OverlapConfig, platform) -> TaskGraph:
    """The workload's graph: the unsynchronised ping-pong graph.

    Iteration count and intensity follow the config's constant-FLOPs
    scaling."""
    pp_cfg = PingPongConfig(
        fragment_size=cfg.fragment_size,
        streams=1,
        total_bytes=cfg.resolved_total(),
        iterations=cfg.iterations(),
        sync=False,  # §6.3: the SYNC task is removed to enable overlap
        intensity=cfg.intensity(),
        num_nodes=cfg.num_nodes,
        seed=cfg.seed,
    )
    return build_pingpong_graph(pp_cfg, platform.compute.flops_per_core)


def overlap_result(workload: str, cfg: OverlapConfig, ctx):
    """The workload's result: achieved FLOP/s and its analytic bounds.

    The roofline and no-overlap bounds are taken on the run's platform."""

    def finish(stats) -> OverlapResult:
        flops = _total_flops(cfg)
        if stats.makespan <= 0:
            raise BenchmarkError("degenerate overlap timing")
        return OverlapResult(
            workload=workload,
            backend=ctx.backend,
            makespan=stats.makespan,
            tasks=stats.tasks_executed,
            flow_latency=summarize(stats.flow_latencies),
            flops_per_s=flops / stats.makespan,
            total_flops=flops,
            roofline=roofline_flops(cfg, ctx.platform),
            no_overlap=no_overlap_flops(cfg, ctx.platform),
        )

    return finish
