"""The paper's three benchmarks as registered workloads.

These specs wrap the existing :mod:`repro.bench` drivers unchanged —
same configs, same drivers, same reduction into the typed public results
:class:`~repro.api.PingPongResult`/:class:`~repro.api.OverlapResult`/
:class:`~repro.api.HicmaResult` — so ``Experiment(workload=...)`` through
the registry stays bit-identical to the pre-registry dispatch.  Only the
lookup moved; nothing about execution did.
"""

from __future__ import annotations

from repro.workloads.registry import WorkloadSpec, register

__all__ = ["PINGPONG", "OVERLAP", "HICMA"]


def _freeze_pingpong(raw, backend):
    """Reduce the raw bench result to :class:`~repro.api.PingPongResult`."""
    from repro.api import PingPongResult

    return PingPongResult(
        workload="pingpong",
        backend=backend,
        makespan=raw.makespan,
        tasks=raw.tasks,
        flow_latency=dict(raw.flow_latency),
        bandwidth=raw.bandwidth,
        iteration_times=tuple(raw.iteration_times),
        activates_sent=raw.activates_sent,
    )


def _freeze_overlap(raw, backend):
    """Reduce the raw bench result to :class:`~repro.api.OverlapResult`."""
    from repro.api import OverlapResult

    return OverlapResult(
        workload="overlap",
        backend=backend,
        makespan=raw.makespan,
        tasks=raw.tasks,
        flow_latency=dict(raw.flow_latency),
        flops_per_s=raw.flops_per_s,
        total_flops=raw.total_flops,
    )


def _freeze_hicma(raw, backend):
    """Reduce the raw bench result to :class:`~repro.api.HicmaResult`."""
    from repro.api import HicmaResult

    return HicmaResult(
        workload="hicma",
        backend=backend,
        makespan=raw.time_to_solution,
        tasks=raw.tasks,
        flow_latency=dict(raw.flow_latency),
        time_to_solution=raw.time_to_solution,
        msg_latency=dict(raw.msg_latency),
        activates_sent=raw.activates_sent,
        wire_bytes=raw.wire_bytes,
        worker_utilization=raw.worker_utilization,
    )


def _pingpong_graph(cfg, platform):
    """The PINGPONG/SYNC DAG, as the driver would build it."""
    from repro.bench.pingpong import build_pingpong_graph

    return build_pingpong_graph(cfg, platform.compute.flops_per_core)


def _overlap_graph(cfg, platform):
    """The overlap DAG: the unsynchronised ping-pong graph the driver runs."""
    from repro.bench.overlap import PingPongConfig, build_pingpong_graph

    pp_cfg = PingPongConfig(
        fragment_size=cfg.fragment_size,
        streams=1,
        total_bytes=cfg.resolved_total(),
        iterations=cfg.iterations(),
        sync=False,
        intensity=cfg.intensity(),
        num_nodes=cfg.num_nodes,
        seed=cfg.seed,
    )
    return build_pingpong_graph(pp_cfg, platform.compute.flops_per_core)


def _hicma_graph(cfg, platform):
    """The TLR Cholesky DAG, as the driver would build it."""
    from repro.hicma.dag import build_tlr_cholesky_graph
    from repro.hicma.ranks import RankModel
    from repro.hicma.timing import KernelTimeModel

    return build_tlr_cholesky_graph(
        cfg.nt,
        cfg.tile_size,
        num_nodes=cfg.num_nodes,
        rank_model=RankModel(cfg.nt, cfg.tile_size, cfg.maxrank),
        time_model=KernelTimeModel(platform.compute),
        maxrank=cfg.maxrank,
        two_flow=cfg.two_flow,
    )


PINGPONG = register(WorkloadSpec(
    name="pingpong",
    description="Windowed ping-pong bandwidth benchmark (paper §6.2).",
    details=(
        "Two nodes bounce `window = total_bytes / fragment_size` fragments "
        "back and forth for `iterations` rounds; with `sync=True` a SYNC "
        "task serializes iterations (the paper's forced-serialization "
        "variant), without it consecutive iterations pipeline in opposite "
        "wire directions. Reports achieved bandwidth — the Figure 2/3 axis."
    ),
    dag="""\
iter t          iter t+1
[pp(0)] --frag--> [pp(0)]
[pp(1)] --frag--> [pp(1)]     (sync=True inserts SYNC -> RELAY
  ...               ...        gates between iterations)
[pp(W)] --frag--> [pp(W)]""",
    example="python -m repro run pingpong --backend lci --fragment-size 256K",
    config="repro.bench.pingpong:PingPongConfig",
    driver="repro.bench.pingpong:run_pingpong_benchmark",
    reducer="repro.workloads.builtin:_freeze_pingpong",
    graph="repro.workloads.builtin:_pingpong_graph",
    param_docs=(
        ("fragment_size", "Bytes per fragment (the Figure 2 sweep axis)."),
        ("streams", "Concurrent ping-pong streams."),
        ("total_bytes",
         "Total data per iteration per stream (None = scale default)."),
        ("iterations", "Ping-pong rounds (first is warmup)."),
        ("sync", "Force serialization between iterations (paper §6.2)."),
        ("intensity", "FMA operations per 8-byte element (0 = pure BW)."),
        ("num_nodes", "Cluster size (ping-pong itself uses two)."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(
        ("fragment_size", 256 * 1024),
        ("total_bytes", 1024 * 1024),
        ("iterations", 3),
    ),
    tags=("paper", "builtin"),
))

OVERLAP = register(WorkloadSpec(
    name="overlap",
    description="Computation/communication overlap benchmark (paper §6.3).",
    details=(
        "The unsynchronised ping-pong graph with GEMM-like compute attached "
        "to every fragment (`intensity = sqrt(M/8)` FMAs per element) and "
        "iteration counts scaled to hold total FLOPs constant across "
        "fragment sizes. Reports sustained FLOP/s against the roofline and "
        "no-overlap analytic bounds."
    ),
    dag="""\
[compute+send] --frag--> [compute+send] --frag--> ...
   (no SYNC gates: compute on iteration t overlaps the
    wire transfer of iteration t-1's fragments)""",
    example="python -m repro run overlap --backend mpi --fragment-size 1M",
    config="repro.bench.overlap:OverlapConfig",
    driver="repro.bench.overlap:run_overlap_benchmark",
    reducer="repro.workloads.builtin:_freeze_overlap",
    graph="repro.workloads.builtin:_overlap_graph",
    param_docs=(
        ("fragment_size", "Bytes per fragment (the Figure sweep axis)."),
        ("total_bytes", "Total data per iteration (None = scale default)."),
        ("base_iterations", "Iterations at the largest fragment size."),
        ("reference_fragment",
         "Fragment anchoring constant-FLOPs scaling (None = total/4)."),
        ("num_nodes", "Cluster size (the exchange uses two)."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(
        ("fragment_size", 1024 * 1024),
        ("total_bytes", 4 * 1024 * 1024),
    ),
    tags=("paper", "builtin"),
))

HICMA = register(WorkloadSpec(
    name="hicma",
    description="Simulated HiCMA TLR Cholesky factorization (paper §6.4).",
    details=(
        "The tile low-rank Cholesky DAG (POTRF/TRSM/SYRK/GEMM over an "
        "NT×NT tile grid, 2D block-cyclic placement) with rank-dependent "
        "kernel times and multicast ACTIVATE trees — the paper's headline "
        "application. Long-running: supports `--progress` heartbeats and "
        "run guards. Reports time-to-solution plus end-to-end latency "
        "percentiles (Figures 4/5)."
    ),
    dag="""\
[POTRF(k)] -> [TRSM(k,i)] -> [SYRK/GEMM(k,i,j)] -> [POTRF(k+1)] ...
    (panel factorization cascades down the tile grid;
     each TRSM output multicasts to a row of updates)""",
    example="python -m repro run hicma --nodes 16 --backend lci",
    config="repro.bench.hicma_bench:HicmaConfig",
    driver="repro.bench.hicma_bench:run_hicma_benchmark",
    reducer="repro.workloads.builtin:_freeze_hicma",
    graph="repro.workloads.builtin:_hicma_graph",
    param_docs=(
        ("matrix_size", "Matrix dimension N (must divide by tile_size)."),
        ("tile_size", "Tile dimension (the Figure 4 sweep axis)."),
        ("num_nodes", "Cluster size (2D block-cyclic tile placement)."),
        ("maxrank", "Maximum off-diagonal tile rank of the TLR model."),
        ("two_flow", "Emit separate U/V flows per low-rank tile."),
        ("multithreaded_activate",
         "Spray ACTIVATE sends across worker threads (paper's MT variant)."),
        ("clock_sync", "Model per-node clock skew in latency reporting."),
        ("seed", "Deterministic simulation seed."),
    ),
    explore_params=(
        ("matrix_size", 3600),
        ("tile_size", 1200),
    ),
    accepts_progress=True,
    tags=("paper", "builtin"),
))
