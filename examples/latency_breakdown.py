#!/usr/bin/env python
"""Protocol-phase latency breakdown (Fig. 1 anatomy).

Traces every remote dataflow through the three phases of the PaRSEC
communication protocol — ACTIVATE delivery, GET DATA request (including
priority deferral), and the put data transfer — and shows where each
backend spends its latency.

Run:  python examples/latency_breakdown.py
"""

from repro.analysis.ascii_plot import ascii_table
from repro.analysis.latency import breakdown, phase_summary
from repro.config import scaled_platform
from repro.runtime import ParsecContext, TaskGraph
from repro.units import KiB


def workload(n_flows=60, size=128 * KiB) -> TaskGraph:
    g = TaskGraph()
    for i in range(n_flows):
        t = g.add_task(node=i % 2, duration=2e-6)
        f = g.add_flow(t, size)
        g.add_task(node=(i + 1) % 2, duration=2e-6, inputs=[f])
    return g


def main() -> None:
    rows = []
    for backend in ("mpi", "lci"):
        ctx = ParsecContext(
            scaled_platform(num_nodes=2, cores_per_node=6),
            backend=backend,
            observability=True,
        )
        ctx.run(workload(), until=10.0)
        summary = phase_summary(breakdown(ctx.obs))
        for phase in ("activate", "getdata", "transfer", "total"):
            s = summary[phase]
            rows.append(
                (
                    backend,
                    phase,
                    f"{s['mean'] * 1e6:.2f}",
                    f"{s['p95'] * 1e6:.2f}",
                    f"{s['share']:.0%}",
                )
            )

    print(
        ascii_table(
            ["backend", "phase", "mean (us)", "p95 (us)", "share"],
            rows,
            title="Per-flow latency breakdown: ACTIVATE -> GET DATA -> put "
            "(128 KiB flows, 2 nodes)",
        )
    )
    print("\nThe MPI backend's extra latency concentrates in the phases "
          "executed on its single comm thread, which also runs every "
          "callback (paper §4.3); LCI offloads matching and completions to "
          "the progress thread (§5.3).")


if __name__ == "__main__":
    main()
