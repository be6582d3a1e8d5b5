#!/usr/bin/env python3
"""Kernel and full-stack throughput, plus the stack fingerprints of this tree.

Two workloads, run in this interpreter:

- **micro** — a pure-kernel typed-sleep loop; reports events/second
  (min-of-N walls, i.e. best-of-reps).
- **stack** — a full runtime run (layered DAG over the MPI and LCI
  backends) with observability on; prints the observable fingerprint
  (makespan, task/event counts, wire bytes, and a SHA-256 over every
  emitted obs event) and the full-stack events/second.

To A/B two revisions, run this script in a ``git worktree`` of each and
compare the output: the fingerprints must match and the rates show the
speed difference (see ``docs/performance.md``).

Run as::

    python tools/bench_ab.py [--smoke] [--reps 3] [--backend mpi|lci|both]

``--smoke`` shrinks both workloads to seconds of wall time (used by the
test suite); the default sizes give stable rates for the performance
docs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import scaled_platform  # noqa: E402
from repro.obs import trace_sha256  # noqa: E402
from repro.runtime.context import ParsecContext  # noqa: E402
from repro.sim.core import Simulator  # noqa: E402
from repro.workloads.generators import random_layered_dag  # noqa: E402


def _run_micro(total_events: int) -> dict:
    """Pure-kernel throughput: five processes doing typed sleeps."""
    sim = Simulator()
    per_proc = total_events // 10  # 2 events per sleep (schedule + fire)

    def proc():
        for _ in range(per_proc):
            yield 1e-6

    for _ in range(5):
        sim.process(proc())
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {"events": sim.events_processed, "wall": wall}


def _run_stack(backend: str, layers: list) -> dict:
    """Full-stack run with a complete observable fingerprint."""
    graph = random_layered_dag(layers, num_nodes=4, seed=7)
    ctx = ParsecContext(
        scaled_platform(num_nodes=4, cores_per_node=4),
        backend=backend,
        seed=5,
        observability=True,
    )
    t0 = time.perf_counter()
    stats = ctx.run(graph, until=120.0)
    wall = time.perf_counter() - t0
    return {
        "trace_sha256": trace_sha256(ctx.obs.memory.events),
        "makespan": stats.makespan,
        "tasks": stats.tasks_executed,
        "events": stats.events_processed,
        "wire_bytes": stats.wire_bytes,
        "counters": dict(sorted(stats.obs_counters.items())),
        "wall": wall,
    }


def _best_events_per_sec(total_events: int, reps: int) -> float:
    """Min-of-N walls: the least-noisy throughput estimate."""
    best_wall, events = min(
        ((r["wall"], r["events"]) for r in (_run_micro(total_events) for _ in range(reps))),
        key=lambda t: t[0],
    )
    return events / best_wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one rep (seconds of wall time)")
    ap.add_argument("--reps", type=int, default=3,
                    help="micro-benchmark repetitions (min-of-N)")
    ap.add_argument("--backend", choices=["mpi", "lci", "both"], default="both")
    args = ap.parse_args(argv)

    if args.smoke:
        micro_events, layers, reps = 100_000, [3, 4, 4, 3], 1
    else:
        micro_events, layers, reps = 2_000_000, [8, 12, 12, 12, 8], args.reps
    backends = ["mpi", "lci"] if args.backend == "both" else [args.backend]

    rate = _best_events_per_sec(micro_events, reps)
    print(f"micro  ({micro_events:,} events, best of {reps}): {rate:,.0f} ev/s")
    for backend in backends:
        r = _run_stack(backend, layers)
        print(
            f"stack  [{backend}] {r['events']:,} events, {r['tasks']} tasks, "
            f"makespan {r['makespan']!r} s, {r['wire_bytes']:,} wire bytes, "
            f"{r['events'] / r['wall']:,.0f} ev/s\n"
            f"       trace {r['trace_sha256']}"
        )
    print("bench_ab OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
