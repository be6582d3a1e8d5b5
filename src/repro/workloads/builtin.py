"""The paper's three benchmarks as registered workloads.

Each spec names its config, graph builder and result function in
:mod:`repro.bench`; they run through the same run path as every catalog
workload (:func:`~repro.workloads.runner.run_workload`) and return the
typed public results :class:`~repro.api.PingPongResult`/
:class:`~repro.api.OverlapResult`/:class:`~repro.api.HicmaResult`.
HiCMA also declares its own platform and runtime options (``context``).
"""

from __future__ import annotations

from repro.workloads.registry import WorkloadSpec, register

__all__ = ["PINGPONG", "OVERLAP", "HICMA"]


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
    graph="repro.bench.pingpong:pingpong_graph",
    result="repro.bench.pingpong:pingpong_result",
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
    graph="repro.bench.overlap:overlap_graph",
    result="repro.bench.overlap:overlap_result",
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
    graph="repro.bench.hicma_bench:hicma_graph",
    result="repro.bench.hicma_bench:hicma_result",
    context="repro.bench.hicma_bench:hicma_context",
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
    tags=("paper", "builtin"),
))
