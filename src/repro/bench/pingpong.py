"""The task-based windowed ping-pong bandwidth benchmark (paper §6.2).

``PINGPONG(t, f, c)`` tasks operate on fragment ``f`` of a fixed total per
iteration ``t``, for stream ``c``; tasks execute round-robin between nodes
so the data travels back and forth on the network.  With ``sync=True`` a
``SYNC(t)`` task forces serialization between iterations (the paper's
default); removing it lets iterations pipeline, which recovers the "lost"
bidirectional bandwidth at large fragments (Fig. 2b) at the cost of more
(less aggregated) ACTIVATE messages.

Default scale: 32 MiB per iteration (the paper uses 256 MiB); set
``REPRO_PAPER_SCALE=1`` for the full figure sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.stats import summarize
from repro.api import PingPongResult
from repro.codec import DictCodec
from repro.config import paper_scale_enabled
from repro.errors import BenchmarkError
from repro.runtime.taskpool import TaskGraph
from repro.units import KiB, MiB

__all__ = [
    "PingPongConfig",
    "build_pingpong_graph",
    "pingpong_graph",
    "pingpong_result",
    "default_granularities",
]

#: Size of the tiny serialization flows (ACTIVATE-sized control data).
_SYNC_BYTES = 64


def default_granularities() -> list[int]:
    """The fragment-size sweep of Fig. 2 (paper: 8 KiB – 8 MiB)."""
    if paper_scale_enabled():
        return [8 * KiB * (2**i) for i in range(11)]  # 8 KiB .. 8 MiB
    return [16 * KiB * (4**i) for i in range(5)]  # 16 KiB .. 4 MiB


@dataclass(frozen=True)
class PingPongConfig(DictCodec):
    """Parameters of one ping-pong execution."""

    fragment_size: int
    streams: int = 1
    #: Total data per iteration per stream (window = total / fragment).
    total_bytes: Optional[int] = None
    iterations: int = 6
    sync: bool = True
    #: FMA operations per 8-byte element (0 = pure bandwidth test).
    intensity: float = 0.0
    num_nodes: int = 2
    seed: int = 0

    def resolved_total(self) -> int:
        """Total data per iteration (paper vs CI scale)."""
        if self.total_bytes is not None:
            return self.total_bytes
        return 256 * MiB if paper_scale_enabled() else 32 * MiB

    @property
    def window(self) -> int:
        """Fragments in flight per iteration (total / fragment size)."""
        w = self.resolved_total() // self.fragment_size
        if w < 1:
            raise BenchmarkError(
                f"fragment {self.fragment_size} larger than total "
                f"{self.resolved_total()}"
            )
        return w


def build_pingpong_graph(
    cfg: PingPongConfig, flops_per_core: float
) -> TaskGraph:
    """Build the PINGPONG/SYNC task graph.

    With ``sync=True``, iteration t's output fragments pass through
    zero-cost RELAY tasks on the producing node that additionally depend on
    ``SYNC(t, c)``; the remote transfer to iteration t+1 therefore cannot
    start before every task of iteration t has completed — the paper's
    "force serialization".  Without sync, fragments flow directly and
    consecutive iterations (opposite directions on the wire) pipeline.
    """
    g = TaskGraph()
    frag = cfg.fragment_size
    window = cfg.window
    n_nodes = cfg.num_nodes
    # GEMM-like compute per task: intensity FMAs (2 flops) per 8-byte word.
    duration = (
        (frag / 8.0) * cfg.intensity * 2.0 / flops_per_core
        if cfg.intensity > 0
        else 0.0
    )

    def node_of(t: int, c: int) -> int:
        return (c + t) % n_nodes

    # (f, c) -> flow id carrying the fragment into iteration t.
    prev_data: dict[tuple[int, int], int] = {}
    for t in range(cfg.iterations):
        iter_tasks: dict[int, list[int]] = {}
        for c in range(cfg.streams):
            node = node_of(t, c)
            for f in range(window):
                inputs = []
                if (f, c) in prev_data:
                    inputs.append(prev_data[(f, c)])
                tid = g.add_task(
                    node=node,
                    duration=duration,
                    priority=float(cfg.iterations - t),
                    inputs=inputs,
                    kind=f"pp{t}",
                )
                iter_tasks.setdefault(c, []).append(tid)
        if t == cfg.iterations - 1:
            break
        for c in range(cfg.streams):
            if cfg.sync:
                # SYNC(t, c) gathers a tiny flow from each task of the
                # stream's iteration, then gates the RELAYs.
                sync_inputs = [
                    g.add_flow(tid, _SYNC_BYTES) for tid in iter_tasks[c]
                ]
                sync_t = g.add_task(
                    node=node_of(t, c),
                    duration=0.0,
                    priority=1e6,
                    inputs=sync_inputs,
                    kind=f"sync{t}",
                )
                sync_flow = g.add_flow(sync_t, _SYNC_BYTES)
                for f, tid in enumerate(iter_tasks[c]):
                    local_flow = g.add_flow(tid, frag)
                    relay = g.add_task(
                        node=node_of(t, c),
                        duration=0.0,
                        priority=float(cfg.iterations - t),
                        inputs=[local_flow, sync_flow],
                        kind=f"relay{t}",
                    )
                    prev_data[(f, c)] = g.add_flow(relay, frag)
            else:
                for f, tid in enumerate(iter_tasks[c]):
                    prev_data[(f, c)] = g.add_flow(tid, frag)
    return g


def pingpong_graph(cfg: PingPongConfig, platform) -> TaskGraph:
    """The workload's graph, at the platform's per-core FLOP rate."""
    return build_pingpong_graph(cfg, platform.compute.flops_per_core)


def pingpong_result(workload: str, cfg: PingPongConfig, ctx):
    """The workload's result: steady-state bandwidth.

    Records each iteration's completion time through the task-done hook.
    """
    iter_done: dict[int, float] = {}
    inner = ctx.on_task_done

    def hook(task):
        if task.kind.startswith("pp"):
            t = int(task.kind[2:])
            iter_done[t] = ctx.sim.now
        inner(task)

    ctx.on_task_done = hook

    def finish(stats) -> PingPongResult:
        times = [iter_done[t] for t in sorted(iter_done)]
        # Steady state: exclude the first iteration (cold pipeline).
        if len(times) >= 3:
            span = times[-1] - times[0]
            iters = len(times) - 1
        else:
            span = stats.makespan
            iters = len(times)
        if span <= 0:
            raise BenchmarkError("degenerate ping-pong timing")
        moved = iters * cfg.streams * cfg.window * cfg.fragment_size
        return PingPongResult(
            workload=workload,
            backend=ctx.backend,
            makespan=stats.makespan,
            tasks=stats.tasks_executed,
            flow_latency=summarize(stats.flow_latencies),
            bandwidth=moved / span,
            iteration_times=tuple(times),
            activates_sent=stats.activates_sent,
        )

    return finish
