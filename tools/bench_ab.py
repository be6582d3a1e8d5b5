#!/usr/bin/env python3
"""A/B-test the epoch-batched kernel against the frozen legacy kernel.

Spawns subprocesses with ``REPRO_SIM_CORE=legacy`` / ``batched`` (the
selection happens at import time, so each side needs its own interpreter)
and compares the two cores on identical workloads:

- **micro** — a pure-kernel typed-sleep loop; reports events/second for
  each core (min-of-N walls, i.e. best-of-reps) and the speedup ratio.
- **stack** — a full runtime run (layered DAG over the MPI and LCI
  backends) with observability on; asserts the complete observable
  fingerprint (makespan, task/event counts, wire bytes, and a SHA-256
  over every emitted obs event) is **bit-identical** across cores, and
  reports the full-stack events/second delta.

Any fingerprint divergence exits 1 — the batched kernel's contract is
"same execution, faster", and this harness is the enforcement.

Run as::

    python tools/bench_ab.py [--smoke] [--reps 3] [--backend mpi|lci|both]

``--smoke`` shrinks both workloads to seconds of wall time (used by the
test suite); the default sizes give stable ratios for the performance
docs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORES = ("legacy", "batched")


# ----------------------------------------------------------------------
# child side: one workload in one interpreter, JSON on stdout
# ----------------------------------------------------------------------

def _run_micro(total_events: int) -> dict:
    """Pure-kernel throughput: five processes doing typed sleeps."""
    from repro.sim.core import Simulator

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
    from repro.bench.workloads import random_layered_dag
    from repro.config import scaled_platform
    from repro.runtime.context import ParsecContext

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
    digest = hashlib.sha256()
    for ev in ctx.obs.memory.events:
        digest.update(
            repr((ev.time, ev.kind, ev.node, ev.key, ev.info)).encode()
        )
    return {
        "trace_sha256": digest.hexdigest(),
        "makespan": stats.makespan,
        "tasks": stats.tasks_executed,
        "events": stats.events_processed,
        "wire_bytes": stats.wire_bytes,
        "counters": dict(sorted(stats.obs_counters.items())),
        "wall": wall,
    }


def _child_main(spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if spec["workload"] == "micro":
        out = _run_micro(spec["events"])
    else:
        out = _run_stack(spec["backend"], spec["layers"])
    json.dump(out, sys.stdout)
    return 0


# ----------------------------------------------------------------------
# parent side: spawn per-core children, compare
# ----------------------------------------------------------------------

def _spawn(core: str, spec: dict) -> dict:
    env = dict(os.environ, REPRO_SIM_CORE=core)
    proc = subprocess.run(
        [sys.executable, __file__, "--child", json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child ({core}, {spec['workload']}) failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def _best_events_per_sec(core: str, spec: dict, reps: int) -> float:
    """Min-of-N walls: the least-noisy throughput estimate."""
    best_wall, events = min(
        ((r["wall"], r["events"]) for r in (_spawn(core, spec) for _ in range(reps))),
        key=lambda t: t[0],
    )
    return events / best_wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one rep (seconds of wall time)")
    ap.add_argument("--reps", type=int, default=3,
                    help="micro-benchmark repetitions per core (min-of-N)")
    ap.add_argument("--backend", choices=["mpi", "lci", "both"], default="both")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        return _child_main(json.loads(args.child))

    if args.smoke:
        micro_events, layers, reps = 100_000, [3, 4, 4, 3], 1
    else:
        micro_events, layers, reps = 2_000_000, [8, 12, 12, 12, 8], args.reps
    backends = ["mpi", "lci"] if args.backend == "both" else [args.backend]
    failed = False

    micro_spec = {"workload": "micro", "events": micro_events}
    rates = {c: _best_events_per_sec(c, micro_spec, reps) for c in CORES}
    print(
        f"micro  ({micro_events:,} events, best of {reps}): "
        f"legacy {rates['legacy']:,.0f} ev/s, "
        f"batched {rates['batched']:,.0f} ev/s "
        f"-> {rates['batched'] / rates['legacy']:.2f}x"
    )

    for backend in backends:
        spec = {"workload": "stack", "backend": backend, "layers": layers}
        results = {c: _spawn(c, spec) for c in CORES}
        walls = {c: r.pop("wall") for c, r in results.items()}
        if results["legacy"] != results["batched"]:
            failed = True
            print(f"FAIL [{backend}]: cores diverge:")
            for key in results["legacy"]:
                if results["legacy"][key] != results["batched"][key]:
                    print(
                        f"  {key}: legacy={results['legacy'][key]!r} "
                        f"batched={results['batched'][key]!r}"
                    )
            continue
        events = results["batched"]["events"]
        print(
            f"stack  [{backend}] ({events:,} events, trace "
            f"{results['batched']['trace_sha256'][:12]}...): bit-identical; "
            f"legacy {events / walls['legacy']:,.0f} ev/s, "
            f"batched {events / walls['batched']:,.0f} ev/s "
            f"-> {walls['legacy'] / walls['batched']:.2f}x"
        )

    if failed:
        return 1
    print("bench_ab OK: cores bit-identical on every workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
