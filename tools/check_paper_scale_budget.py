#!/usr/bin/env python3
"""Check: the paper-scale configuration (N = 360,000) stays tractable.

Builds the full NT=150 two-flow TLR Cholesky task graph (~575k tasks,
~585k flows — the ``REPRO_PAPER_SCALE=1`` Fig. 4 point at tile 2400) and
asserts the budgets the array-backed :class:`TaskGraph` was introduced to
meet:

- graph build + freeze + validate completes in under ``--build-budget``
  seconds (default 60);
- at NT=150 on 16 nodes the graph is the pinned one: the SHA-256 over
  its build columns (:func:`column_digest`) equals
  :data:`PINNED_DIGESTS`, so a faster builder cannot pass with a
  different graph;
- peak RSS stays under ``--rss-budget`` GiB (default 4);
- the run-guard deadline machinery (``--deadline`` on the ``hicma`` verb,
  :class:`repro.supervise.guards.RunGuards`) aborts a guarded run with a
  structured :class:`~repro.errors.RunBudgetExceeded` carrying a
  diagnostic snapshot and salvaged partial stats — the smoke test for
  supervising a real paper-scale run (skip with ``--no-deadline-smoke``).

Each invocation appends one entry to the ``"history"`` list of
``BENCH_scale.json`` next to the repo root: host facts (``rev``,
``host_cpus``, ``python``), the point (``nodes``, ``tile``, ``nt``),
build, freeze and validate seconds, peak RSS, tasks/flows and — with
``--full`` — the end-to-end simulated run's wall time, kernel
events/second and makespan
(``run_wall_seconds``/``events_per_second`` are ``null`` for a
build-only entry).  Every other key already in the output file is left
as it is, so earlier records stay readable.  The default mode checks
construction only, so it is cheap enough for the test suite; the
``--full`` run is the acceptance gate behind the EXPERIMENTS.md
paper-scale runbook.

Run as::

    python tools/check_paper_scale_budget.py [--full] [--nodes 16]
        [--tile 2400] [--build-budget 60] [--rss-budget 4.0]
        [--wall-budget 1800] [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.hicma.dag import build_tlr_cholesky_graph, expected_task_count  # noqa: E402
from repro.obs.progress import peak_rss_bytes  # noqa: E402

PAPER_N = 360_000
#: (nt, nodes) -> column digest of the default-model TLR Cholesky graph.
PINNED_DIGESTS = {
    (150, 16): "3bf23c76f780f2e3b5be0902b8de6f06af07e39fa9ca2c5f335281c6db96ec2d",
}


def column_digest(graph) -> str:
    """SHA-256 over a :class:`TaskGraph`'s build columns and kind names:
    every task's placement, duration, priority, kind and inputs, and every
    flow's size and producer."""
    h = hashlib.sha256()
    for col in (graph._t_node, graph._t_dur, graph._t_prio, graph._t_kind,
                graph._in_ptr, graph._in_flat, graph._f_size, graph._f_prod):
        h.update(col.tobytes())
    h.update(repr(graph._kind_names).encode())
    return h.hexdigest()


def build_check(nodes: int, tile: int) -> dict:
    """Build + freeze + validate the paper-scale graph; return metrics."""
    nt = PAPER_N // tile
    t0 = time.perf_counter()
    graph = build_tlr_cholesky_graph(nt, tile, num_nodes=nodes)
    t_build = time.perf_counter() - t0
    t1 = time.perf_counter()
    graph.freeze()
    t_freeze = time.perf_counter() - t1
    t2 = time.perf_counter()
    graph.validate(num_nodes=nodes)
    t_validate = time.perf_counter() - t2
    assert graph.num_tasks == expected_task_count(nt)
    return {
        "matrix_size": PAPER_N,
        "tile_size": tile,
        "nt": nt,
        "num_nodes": nodes,
        "tasks": graph.num_tasks,
        "flows": graph.num_flows,
        "build_seconds": round(t_build, 3),
        "freeze_seconds": round(t_freeze, 3),
        "validate_seconds": round(t_validate, 3),
        "total_build_seconds": round(t_build + t_freeze + t_validate, 3),
        "peak_rss_gib": round(peak_rss_bytes() / 2**30, 3),
        "column_digest": column_digest(graph),
    }


def deadline_smoke() -> "tuple[dict, list]":
    """Prove the run guards abort structurally (small run, tight budgets).

    Uses a deliberately small Cholesky so the smoke stays in the test
    suite's budget; what it exercises — tick-hook guards, structured
    abort, snapshot, partial-stats salvage — is scale-independent.
    """
    from repro import Experiment
    from repro.errors import RunBudgetExceeded
    from repro.supervise import RunGuards

    experiment = Experiment(workload="hicma", backend="lci", nodes=4,
                            matrix_size=2048, tile_size=256)
    problems = []
    doc = {}
    try:
        experiment.run(
            guards=RunGuards(deadline=3600.0, max_events=1000, check_every=256),
        )
        problems.append("guarded run finished: max_events guard never fired")
    except RunBudgetExceeded as exc:
        snap = exc.snapshot
        if not snap or "reason" not in snap or "tasks_done" not in snap:
            problems.append(f"abort snapshot incomplete: {sorted(snap)!r}")
        if exc.partial is None or exc.partial.tasks_executed <= 0:
            problems.append("abort carried no salvaged partial stats")
        else:
            doc = {
                "reason": snap.get("reason"),
                "partial_tasks": exc.partial.tasks_executed,
                "events_processed": snap.get("events_processed"),
            }
    return doc, problems


def full_run(nodes: int, tile: int) -> dict:
    """Simulate the paper-scale point end to end; return run metrics."""
    from repro import Experiment
    from repro.config import expanse_platform
    from repro.obs.progress import ProgressReporter

    experiment = Experiment(workload="hicma", backend="lci", nodes=nodes,
                            matrix_size=PAPER_N, tile_size=tile)
    reporter = ProgressReporter(interval=10.0, stream=sys.stderr)
    seen = []
    t0 = time.perf_counter()
    result = experiment.run(
        platform=expanse_platform(num_nodes=nodes), progress=reporter,
        ctx_observer=seen.append,
    )
    wall = time.perf_counter() - t0
    events = seen[0].sim.events_processed
    return {
        "run_wall_seconds": round(wall, 1),
        "makespan_seconds": result.time_to_solution,
        "tasks_executed": result.tasks,
        "mean_flow_latency": result.flow_latency.get("mean", 0.0),
        "activates_sent": result.activates_sent,
        "wire_bytes": result.wire_bytes,
        "events_total": events,
        "events_per_second": round(events / wall, 1),
        "peak_rss_gib": round(peak_rss_bytes() / 2**30, 3),
        "progress_beats": reporter.beats,
    }


def _git_rev() -> str:
    """Short git revision of this checkout (``unknown`` outside git), with
    ``-dirty`` appended when ``src/`` differs from it: the record then
    measured uncommitted simulator code."""
    def git(*args) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip()

    try:
        rev = git("rev-parse", "--short", "HEAD")
        if rev and git("status", "--porcelain", "--", "src"):
            rev += "-dirty"
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return rev or "unknown"


def history_entry(doc: dict) -> dict:
    """One ``history`` record: host facts, the point, build and run."""
    run = doc.get("full_run", {})
    entry = {
        "rev": _git_rev(),
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "nodes": doc["num_nodes"],
        "tile": doc["tile_size"],
        "nt": doc["nt"],
        "tasks": doc["tasks"],
        "flows": doc["flows"],
        "build_seconds": doc["build_seconds"],
        "freeze_seconds": doc["freeze_seconds"],
        "validate_seconds": doc["validate_seconds"],
        "total_build_seconds": doc["total_build_seconds"],
        "build_peak_rss_gib": doc["peak_rss_gib"],
        "run_wall_seconds": run.get("run_wall_seconds"),
        "events_per_second": run.get("events_per_second"),
    }
    for key in ("events_total", "makespan_seconds", "peak_rss_gib",
                "progress_beats"):
        if key in run:
            entry[key] = run[key]
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="also simulate the run end to end (minutes)")
    ap.add_argument("--nodes", type=int, default=16)
    ap.add_argument("--tile", type=int, default=2400)
    ap.add_argument("--build-budget", type=float, default=60.0,
                    help="max seconds for build+freeze+validate")
    ap.add_argument("--rss-budget", type=float, default=4.0,
                    help="max peak RSS in GiB")
    ap.add_argument("--events-floor", type=float, default=50_000.0,
                    help="min kernel events/second for the --full run")
    ap.add_argument("--wall-budget", type=float, default=1800.0,
                    help="max wall-clock seconds for a --full run")
    ap.add_argument("--no-deadline-smoke", action="store_true",
                    help="skip the run-guard structured-abort smoke test")
    ap.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    args = ap.parse_args(argv)

    doc = build_check(args.nodes, args.tile)
    problems = []
    if doc["total_build_seconds"] > args.build_budget:
        problems.append(
            f"graph build took {doc['total_build_seconds']:.1f}s "
            f"(> {args.build_budget:.0f}s budget)"
        )
    if doc["peak_rss_gib"] > args.rss_budget:
        problems.append(
            f"peak RSS {doc['peak_rss_gib']:.2f} GiB "
            f"(> {args.rss_budget:.1f} GiB budget)"
        )
    pinned = PINNED_DIGESTS.get((doc["nt"], doc["num_nodes"]))
    if pinned is not None and doc["column_digest"] != pinned:
        problems.append(
            f"graph column digest {doc['column_digest']} != pinned {pinned}"
        )
    print(
        f"paper-scale build: NT={doc['nt']} -> {doc['tasks']:,} tasks, "
        f"{doc['flows']:,} flows in {doc['total_build_seconds']:.1f}s "
        f"(build {doc['build_seconds']:.1f} + freeze {doc['freeze_seconds']:.1f} "
        f"+ validate {doc['validate_seconds']:.1f}), "
        f"peak RSS {doc['peak_rss_gib']:.2f} GiB"
    )

    if not args.no_deadline_smoke:
        smoke, smoke_problems = deadline_smoke()
        problems.extend(smoke_problems)
        if smoke:
            print(
                f"deadline smoke: guarded run aborted structurally "
                f"({smoke['reason']}; {smoke['partial_tasks']} tasks salvaged)"
            )

    if args.full:
        run = full_run(args.nodes, args.tile)
        doc["full_run"] = run
        if run["peak_rss_gib"] > args.rss_budget:
            problems.append(
                f"full-run peak RSS {run['peak_rss_gib']:.2f} GiB "
                f"(> {args.rss_budget:.1f} GiB budget)"
            )
        if run["events_per_second"] < args.events_floor:
            problems.append(
                f"kernel throughput {run['events_per_second']:,.0f} events/s "
                f"(< {args.events_floor:,.0f} floor)"
            )
        if run["run_wall_seconds"] > args.wall_budget:
            problems.append(
                f"full-run wall {run['run_wall_seconds']:.0f}s "
                f"(> {args.wall_budget:.0f}s budget)"
            )
        print(
            f"paper-scale run: {run['tasks_executed']:,} tasks, "
            f"makespan {run['makespan_seconds']:.1f}s simulated in "
            f"{run['run_wall_seconds']:.0f}s wall "
            f"({run['events_total']:,} events, "
            f"{run['events_per_second']:,.0f} ev/s), peak RSS "
            f"{run['peak_rss_gib']:.2f} GiB, {run['progress_beats']} progress beats"
        )

    # Append, never overwrite: the file keeps every earlier record.
    out = {}
    try:
        with open(args.out) as fp:
            out = json.load(fp)
    except FileNotFoundError:
        pass
    out.setdefault("history", []).append(history_entry(doc))
    with open(args.out, "w") as fp:
        json.dump(out, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"appended history entry {len(out['history'])} to {args.out}")

    if problems:
        for p in problems:
            print(f"BUDGET EXCEEDED: {p}")
        return 1
    print("paper-scale budgets OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
