#!/usr/bin/env python
"""Strong scaling of a simulated HiCMA TLR Cholesky (miniature Fig. 5a).

Keeps the matrix fixed and sweeps node counts for both backends, picking
each backend's best tile size per node count — reproducing the structure
of the paper's Table 2 ("LCI scales to smaller tiles") and Fig. 5a.

Run:  python examples/strong_scaling.py           (~2-3 minutes)
"""

from repro import Experiment
from repro.analysis.ascii_plot import ascii_table


def main() -> None:
    matrix = 36_000
    sweeps = {1: [900, 1200, 1800], 4: [600, 900, 1200], 8: [450, 600, 900]}
    print(f"TLR Cholesky strong scaling, N={matrix} (scaled problem)\n")

    rows = []
    for nodes, tiles in sweeps.items():
        entry = {"nodes": nodes}
        for backend in ("mpi", "lci"):
            best_tile, best = None, None
            for tile in tiles:
                r = Experiment(workload="hicma", backend=backend, nodes=nodes,
                               matrix_size=matrix, tile_size=tile).run()
                if best is None or r.time_to_solution < best.time_to_solution:
                    best, best_tile = r, tile
            entry[backend] = (best_tile, best.time_to_solution)
            print(f"  nodes={nodes} {backend}: best tile {best_tile} "
                  f"-> {best.time_to_solution * 1e3:.1f} ms")
        rows.append(
            (
                nodes,
                f"{entry['mpi'][1] * 1e3:.1f}",
                entry["mpi"][0],
                f"{entry['lci'][1] * 1e3:.1f}",
                entry["lci"][0],
            )
        )

    print()
    print(
        ascii_table(
            ["nodes", "MPI TTS (ms)", "MPI tile", "LCI TTS (ms)", "LCI tile"],
            rows,
            title="Strong scaling with per-backend best tile size",
        )
    )
    print("\nAs in the paper's Table 2, the optimal tile size shrinks with "
          "node count, and LCI's optimum is at or below MPI's.")


if __name__ == "__main__":
    main()
