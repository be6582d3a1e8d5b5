#!/usr/bin/env python
"""End-to-end latency anatomy: backends, multithreading, thread binding.

Reproduces, at example scale, the three latency findings of the paper:

1. the LCI backend lowers mean end-to-end latency (ACTIVATE handoff →
   data arrival across the multicast tree) versus the MPI backend;
2. letting compute threads send ACTIVATEs directly (communication
   multithreading, §6.4.3) helps LCI but not MPI;
3. free-floating comm/progress threads cost up to ~25 % extra latency
   versus dedicated cores near the NIC (§6.1.2).

Run:  python examples/latency_study.py           (~1-2 minutes)
"""

import dataclasses

from repro import Experiment
from repro.analysis.ascii_plot import ascii_table
from repro.config import scaled_platform


def main() -> None:
    matrix, tile, nodes = 36_000, 600, 8
    rows = []
    for backend in ("mpi", "lci"):
        for mt in (False, True):
            r = Experiment(
                workload="hicma", backend=backend, nodes=nodes,
                matrix_size=matrix, tile_size=tile, multithreaded_activate=mt,
            ).run()
            rows.append(
                (
                    backend,
                    "worker-sent" if mt else "comm thread",
                    "pinned",
                    f"{r.time_to_solution * 1e3:.1f}",
                    f"{r.flow_latency['mean'] * 1e3:.3f}",
                )
            )
        floating = dataclasses.replace(
            scaled_platform(num_nodes=nodes, cores_per_node=8),
            dedicated_comm_cores=False,
        )
        r = Experiment(
            workload="hicma", backend=backend, nodes=nodes,
            matrix_size=matrix, tile_size=tile,
        ).run(platform=floating)
        rows.append(
            (
                backend,
                "comm thread",
                "floating",
                f"{r.time_to_solution * 1e3:.1f}",
                f"{r.flow_latency['mean'] * 1e3:.3f}",
            )
        )

    print(
        ascii_table(
            ["backend", "ACTIVATE path", "threads", "TTS (ms)", "e2e latency (ms)"],
            rows,
            title=f"Latency anatomy: TLR Cholesky N={matrix}, "
            f"tile={tile}, {nodes} nodes",
        )
    )
    print("\nExpected pattern (as in the paper): LCI < MPI; multithreaded "
          "ACTIVATE helps LCI, not MPI; floating threads add latency.")


if __name__ == "__main__":
    main()
