#!/usr/bin/env python3
"""Check: fault-injection runs are deterministic (same seed + same plan ⇒
bit-identical results).

Runs the same small workload twice under the same seeded fault plan and
diffs the final run statistics (makespan, task/event counts, wire bytes,
flow-latency sums) plus every obs counter, including the ``fault.*`` and
``rel.*`` instruments.  Any divergence means an injector or recovery path
consumed randomness outside the named RNG streams — exit 1.

Also asserts the NULL-engine invariant: a run with ``faults=None`` and a run
with a disabled plan produce identical fingerprints.

Replays the bundled explore schedule
(``tests/data/schedule_pingpong.json``) twice through the schedule
explorer's :class:`ReplayPolicy`: the recorded decision sequence must
drive the epoch-batched kernel to a violation-free run with a stable
digest — the cross-subsystem proof that ``SchedulePolicy`` still sees
the same runnable sets the schedule was recorded against.

Run as::

    python tools/check_fault_determinism.py [--backend mpi|lci|both]
        [--plan NAME] [--schedule PATH]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import scaled_platform  # noqa: E402
from repro.faults.plans import fault_plan  # noqa: E402
from repro.runtime.context import ParsecContext  # noqa: E402
from repro.workloads.generators import random_layered_dag  # noqa: E402


def fingerprint(backend: str, plan, seed: int = 3) -> dict:
    """Run the workload once; return every observable final statistic."""
    graph = random_layered_dag([4, 6, 6, 4], num_nodes=3, seed=11)
    ctx = ParsecContext(
        scaled_platform(num_nodes=3, cores_per_node=3),
        backend=backend,
        seed=seed,
        observability=True,
        faults=plan,
    )
    stats = ctx.run(graph, until=30.0)
    return {
        "makespan": stats.makespan,
        "tasks": stats.tasks_executed,
        "events": stats.events_processed,
        "wire_bytes": stats.wire_bytes,
        "flow_latency_sum": sum(stats.flow_latencies),
        "n_flow_latencies": len(stats.flow_latencies),
        "counters": dict(sorted(stats.obs_counters.items())),
    }


def diff(a: dict, b: dict) -> list[str]:
    problems = []
    for key in a:
        if a[key] != b[key]:
            problems.append(f"  {key}: {a[key]!r} != {b[key]!r}")
    return problems


def check_schedule_replay(path: Path) -> list[str]:
    """Replay a recorded explore schedule twice; return problems (if any)."""
    from repro.explore.explorer import replay_schedule

    problems = []
    _, first = replay_schedule(path)
    _, second = replay_schedule(path)
    if first.get("violations"):
        problems.append(f"  replay violated invariants: {first['violations']!r}")
    if first.get("digest") is None:
        problems.append("  replay produced no digest")
    if first != second:
        for key in first:
            if first[key] != second.get(key):
                problems.append(
                    f"  {key}: {first[key]!r} != {second.get(key)!r}"
                )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backend", choices=["mpi", "lci", "both"], default="both")
    ap.add_argument("--plan", default="chaos")
    ap.add_argument("--schedule", default=str(
        Path(__file__).resolve().parent.parent
        / "tests" / "data" / "schedule_pingpong.json"))
    args = ap.parse_args(argv)
    backends = ["mpi", "lci"] if args.backend == "both" else [args.backend]
    failed = False
    for backend in backends:
        plan = fault_plan(args.plan)
        first = fingerprint(backend, plan)
        second = fingerprint(backend, plan)
        problems = diff(first, second)
        if problems:
            failed = True
            print(f"FAIL [{backend}] plan={args.plan!r}: replay diverged:")
            print("\n".join(problems))
        else:
            inj = sum(
                v for k, v in first["counters"].items()
                if k.startswith("fault.injected.")
            )
            print(
                f"ok [{backend}] plan={args.plan!r}: two runs bit-identical "
                f"({inj} faults injected, makespan {first['makespan']:.6g}s)"
            )
        bare = fingerprint(backend, None)
        import dataclasses

        disabled = fingerprint(backend, dataclasses.replace(plan, enabled=False))
        problems = diff(bare, disabled)
        if problems:
            failed = True
            print(f"FAIL [{backend}]: disabled plan != no plan:")
            print("\n".join(problems))
        else:
            print(f"ok [{backend}]: disabled plan is bit-identical to no plan")

    problems = check_schedule_replay(Path(args.schedule))
    if problems:
        failed = True
        print(f"FAIL schedule replay ({args.schedule}):")
        print("\n".join(problems))
    else:
        print(
            f"ok schedule replay: {Path(args.schedule).name} drives a "
            "violation-free, digest-stable run"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
