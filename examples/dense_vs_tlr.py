#!/usr/bin/env python
"""Dense (DPLASMA) vs. tile-low-rank (HiCMA) Cholesky on the simulator.

HiCMA's premise (§6.4.1): compressing off-band tiles slashes flops and
bytes — but the resulting low-rank kernels are far less compute-dense, so
the runtime must move many small messages fast; that is what makes the
communication backend matter.  This example factorizes the same matrix
both ways on the simulated runtime and compares compute, traffic, and
time-to-solution.

Run:  python examples/dense_vs_tlr.py           (~1 minute)
"""

from repro.analysis.ascii_plot import ascii_table
from repro.config import scaled_platform
from repro.hicma import KernelTimeModel, RankModel, build_tlr_cholesky_graph
from repro.runtime import ParsecContext


def main() -> None:
    matrix, tile, nodes = 36_000, 1800, 4
    nt = matrix // tile
    platform = scaled_platform(num_nodes=nodes, cores_per_node=8)
    times = KernelTimeModel(platform.compute)
    ranks = RankModel(nt, tile, maxrank=150)

    graphs = {
        # A dense band as wide as the matrix: every tile dense.
        "dense (DPLASMA)": build_tlr_cholesky_graph(
            nt, tile, nodes, time_model=times, band=nt
        ),
        "TLR (HiCMA)": build_tlr_cholesky_graph(
            nt, tile, nodes, rank_model=ranks, time_model=times
        ),
    }
    rows = []
    for name, graph in graphs.items():
        ctx = ParsecContext(platform, backend="lci")
        stats = ctx.run(graph, until=3600.0)
        rows.append(
            (
                name,
                f"{stats.makespan * 1e3:.1f}",
                f"{graph.total_remote_bytes() / 1e6:.0f}",
                f"{stats.mean_flow_latency * 1e3:.3f}",
                f"{stats.worker_utilization:.0%}",
            )
        )

    print(
        ascii_table(
            ["algorithm", "TTS (ms)", "remote data (MB)", "e2e latency (ms)", "util"],
            rows,
            title=f"Cholesky N={matrix}, tile={tile}, {nodes} nodes, LCI backend",
        )
    )
    print(f"\nmean off-band rank (TLR model): {ranks.mean_rank():.1f} "
          f"of {tile} — ~{ranks.mean_rank() / tile:.1%} of dense")
    print("TLR wins on both compute and traffic, but its tasks are far less "
          "compute-dense — which is why HiCMA stresses the communication "
          "engine (paper §6.4.1).")


if __name__ == "__main__":
    main()
