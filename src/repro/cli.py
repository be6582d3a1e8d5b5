"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run``          run any registered workload once (see ``docs/workloads.md``),
                 with optional progress, run guards, JSON and trace output
``workloads``    list the registered workloads and their parameters
``sweep``        run a named experiment grid (fig4 / fig5 / pingpong /
                 taskbench) in parallel through the cached sweep engine
``netpipe``      raw fabric ping-pong baseline for a list of sizes
``validate``     simulator self-checks against closed-form models
``explore``      schedule-space exploration: re-run a scenario under
                 alternative legal interleavings, check protocol invariants
``chaos``        run TLR Cholesky under a named fault plan, report recovery
``info``         print the calibrated platform constants

Every verb spells the shared knobs identically — ``--backend``,
``--seed``, ``--nodes``, ``--jobs`` — via a common parent parser
(:func:`_common_flags`); old spellings (``--num-nodes``) remain as hidden
aliases.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from repro._version import __version__

__all__ = ["main", "build_parser"]


def _size(text: str) -> int:
    """Parse '64K', '8M', '1024' into bytes."""
    text = text.strip().upper()
    mult = 1
    if text.endswith(("K", "KB", "KIB")):
        mult, text = 1024, text.rstrip("BIK")
    elif text.endswith(("M", "MB", "MIB")):
        mult, text = 1024 * 1024, text.rstrip("BIM")
    try:
        return int(float(text) * mult)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size: {text!r}") from exc


def _common_flags(
    *,
    backend: Optional[str] = None,
    seed: Optional[int] = None,
    nodes: Optional[int] = None,
    jobs: Optional[int] = None,
    backend_choices: Sequence[str] = ("mpi", "lci"),
) -> argparse.ArgumentParser:
    """Parent parser for the flags every verb spells identically.

    Pass a default to include a flag on the verb; leave it ``None`` to
    omit it.  ``--num-nodes`` is kept as a hidden alias for ``--nodes``.
    """
    p = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    if backend is not None:
        p.add_argument("--backend", choices=list(backend_choices),
                       default=backend)
    if seed is not None:
        p.add_argument("--seed", type=int, default=seed,
                       help="simulation RNG seed")
    if nodes is not None:
        p.add_argument("--nodes", type=int, default=nodes,
                       help="simulated node count")
        p.add_argument("--num-nodes", dest="nodes", type=int,
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    if jobs is not None:
        p.add_argument("--jobs", type=int, default=jobs,
                       help="worker processes (1 = run in-process)")
    return p


def _param_value(text: str):
    """Parse a workload-parameter value: int, float, bool, size, or str.

    ``16`` → int, ``5e-6`` → float, ``true``/``false`` → bool, ``64K`` →
    bytes, anything else (``stencil``, ``allreduce``) stays a string.
    """
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    try:
        return _size(t)
    except argparse.ArgumentTypeError:
        pass
    return t


def _workload_param_flags() -> dict:
    """Union of every registered workload's parameters, for the ``run``
    verb: ``{field_name: one_line_doc}`` (excluding the common flags).

    ``run`` exposes one ``--flag`` per name; which of them a given
    workload accepts is validated by the workload's own parameter schema,
    so a wrong flag produces the registry's "does not accept" error
    listing the valid set.
    """
    from repro.workloads import workload_specs

    flags: dict = {}
    for spec in workload_specs():
        for param in spec.params():
            if param.name not in ("num_nodes", "seed"):
                flags.setdefault(param.name, param.doc)
    return flags


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        allow_abbrev=False,
        description="Reproduction harness for 'Improving the Scaling of an "
        "Asynchronous Many-Task Runtime with a Lightweight Communication "
        "Engine' (ICPP 2023).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # No verb accepts a prefix of a flag: ``--matrix`` is not ``--matrix-size``.
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser,
                                       allow_abbrev=False))

    from repro.faults.plans import FAULT_PLANS
    from repro.workloads import workload_names

    rn = sub.add_parser(
        "run",
        help="run any registered workload once and print its result "
        "(see docs/workloads.md for the scenario catalog)",
        parents=[_common_flags(backend="lci", seed=0)],
    )
    rn.add_argument("workload", choices=list(workload_names()),
                    help="which registered workload to run")
    rn.add_argument("--nodes", type=int, default=None,
                    help="simulated node count (default: the workload's)")
    rn.add_argument("--num-nodes", dest="nodes", type=int,
                    default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    rn.add_argument("--faults", metavar="PLAN", default=None,
                    choices=sorted(FAULT_PLANS),
                    help="run under a named fault plan")
    rn.add_argument("--progress", action="store_true",
                    help="print heartbeats (tasks, events/s, RSS, ETA) to stderr")
    rn.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="run guard: abort after this much wall-clock time")
    rn.add_argument("--max-events", type=int, default=None, metavar="N",
                    help="run guard: abort after N kernel events")
    rn.add_argument("--json", metavar="PATH", default=None,
                    help="also dump the result as JSON")
    rn.add_argument("--trace", metavar="PATH", default=None,
                    help="run with observability on and write the event "
                    "trace: CSV if PATH ends in .csv, else Chrome JSON")
    for name, doc in sorted(_workload_param_flags().items()):
        rn.add_argument(f"--{name.replace('_', '-')}", dest=name,
                        type=_param_value, default=argparse.SUPPRESS,
                        metavar="V", help=doc)

    wl = sub.add_parser(
        "workloads",
        help="list the registered workloads (name, description, parameters)",
    )
    wl.add_argument("--params", action="store_true",
                    help="also list each workload's parameters and defaults")

    np_ = sub.add_parser("netpipe", help="raw fabric ping-pong baseline")
    np_.add_argument("sizes", nargs="*", type=_size,
                     default=[_size(s) for s in ("4K", "64K", "1M", "8M")])

    sw = sub.add_parser(
        "sweep",
        help="run a named experiment grid through the parallel, cached "
        "sweep engine and print its figure table",
        parents=[_common_flags(jobs=1)],
    )
    sw.add_argument("grid", choices=["fig4", "fig5", "pingpong", "taskbench"],
                    help="which experiment grid to run")
    sw.add_argument("--no-cache", action="store_true",
                    help="simulate every point, ignore the result cache")
    sw.add_argument("--cache-dir", metavar="PATH", default=None,
                    help="result cache root (default: .repro-cache/sweep "
                    "or $REPRO_SWEEP_CACHE_DIR)")
    sw.add_argument("--cache-stats", action="store_true",
                    help="print cache statistics and exit")
    sw.add_argument("--cache-clear", action="store_true",
                    help="delete every cached entry and exit")
    sw.add_argument("--retries", type=int, default=1,
                    help="retry budget per failing point")
    sw.add_argument("--fragments", nargs="*", type=_size, default=None,
                    help="pingpong grid: fragment sizes (e.g. 32K 512K 2M)")
    sw.add_argument("--total", type=_size, default=None,
                    help="pingpong grid: bytes per iteration")
    sw.add_argument("--streams", type=int, default=1,
                    help="pingpong grid: concurrent streams")
    sw.add_argument("--progress", action="store_true",
                    help="print one line per sweep point to stderr as "
                    "points execute")
    sw.add_argument("--journal", metavar="PATH", default=None,
                    help="write-ahead journal for crash-safe resumption; "
                    "SIGINT/SIGTERM flush it and print a resume hint")
    sw.add_argument("--resume", action="store_true",
                    help="replay the --journal (and cache) first, skipping "
                    "points already completed by an interrupted run")
    sw.add_argument("--out", metavar="PATH", default=None,
                    help="atomically write the sweep outcome (records, keys, "
                    "counts) as canonical JSON")
    sw.add_argument("--heartbeat-timeout", type=float, default=30.0,
                    metavar="SECONDS",
                    help="terminate and retry a worker silent for this long "
                    "on one point (parallel sweeps)")

    va = sub.add_parser("validate", help="simulator self-checks vs closed forms")
    va.add_argument("--size", type=_size, default=_size("1M"))

    ex = sub.add_parser(
        "explore",
        help="explore alternative schedules of a scenario and check "
        "protocol invariants (quiescence, matching, deadlock, invariance)",
        parents=[_common_flags(backend="lci", seed=0, nodes=2, jobs=1)],
    )
    ex.add_argument("scenario", nargs="?", choices=list(workload_names()),
                    default="pingpong",
                    help="which workload scenario to explore")
    ex.add_argument("--max-schedules", type=int, default=50,
                    help="total schedule budget (baseline + alternatives)")
    ex.add_argument("--budget", type=int, default=24,
                    help="choice points each run may perturb")
    mode = ex.add_mutually_exclusive_group()
    mode.add_argument("--dfs", action="store_true",
                      help="bounded DFS over decision prefixes (default)")
    mode.add_argument("--walk", action="store_true",
                      help="seeded random walks instead of DFS")
    ex.add_argument("--walk-seed", type=int, default=0,
                    help="base seed for --walk runs")
    ex.add_argument("--faults", metavar="PLAN", default=None,
                    choices=sorted(FAULT_PLANS),
                    help="explore under a named fault plan")
    ex.add_argument("--replay", metavar="FILE", default=None,
                    help="replay a schedule.json instead of exploring")
    ex.add_argument("--out", metavar="PATH", default="schedule.json",
                    help="where to write the failing schedule, if any")
    ex.add_argument("--progress", action="store_true",
                    help="print one line per explored schedule to stderr")

    ch = sub.add_parser(
        "chaos",
        help="run a workload under a named fault plan and report "
        "per-fault-kind injection/recovery counts (default: a small "
        "TLR Cholesky job)",
        parents=[_common_flags(backend="both", seed=0, nodes=2,
                               backend_choices=("mpi", "lci", "both"))],
    )
    ch.add_argument("--plan", choices=sorted(FAULT_PLANS), default="chaos")
    ch.add_argument("--workload", choices=list(workload_names()),
                    default="hicma",
                    help="which registered workload to run under the plan")
    ch.add_argument("--matrix-size", type=int, default=7200,
                    help="hicma workload only: matrix dimension")
    ch.add_argument("--tile-size", type=int, default=1200,
                    help="hicma workload only: tile size")

    sub.add_parser("info", help="print calibrated platform constants")
    return parser


def _progress_bus(args, kinds):
    """A bus printing the given progress kinds to stderr, or the null bus.

    Backs the ``--progress`` flag of the sweep/explore verbs: both engines
    emit wall-clock progress events unconditionally; the flag merely
    attaches a :class:`~repro.obs.sinks.StreamSink` so they become visible.
    """
    from repro.obs import NULL_BUS, ObsBus, StreamSink

    if not getattr(args, "progress", False):
        return NULL_BUS
    bus = ObsBus(memory=False)
    bus.attach(StreamSink(stream=sys.stderr, kinds=kinds))
    return bus


def cmd_run(args) -> int:
    """Run one registered workload through :class:`~repro.api.Experiment`.

    Bad input exits 2 with ``error: …``; a run-guard abort exits 3."""
    from repro.api import Experiment
    from repro.errors import (BenchmarkError, ConfigError,
                              RuntimeBackendError, SupervisionError)

    params = {
        name: getattr(args, name)
        for name in _workload_param_flags()
        if hasattr(args, name)
    }
    progress = guards = None
    if args.progress:
        from repro.obs.progress import ProgressReporter

        progress = ProgressReporter(stream=sys.stderr)
    if args.deadline is not None or args.max_events is not None:
        from repro.supervise import RunGuards

        guards = RunGuards(deadline=args.deadline, max_events=args.max_events)
    contexts = []
    try:
        result = Experiment(
            workload=args.workload,
            backend=args.backend,
            nodes=args.nodes,
            seed=args.seed,
            faults=args.faults,
            **params,
        ).run(progress=progress, guards=guards,
              observability=args.trace is not None,
              ctx_observer=contexts.append)
    except SupervisionError as exc:
        return _report_abort(exc)
    except (ConfigError, BenchmarkError, RuntimeBackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    if result.flow_latency.get("mean"):
        print(f"  mean e2e latency: {result.flow_latency['mean'] * 1e6:.2f} us")
    if args.json:
        from repro.analysis.export import dump_results

        dump_results(result, args.json, title=args.workload)
        print(f"  wrote {args.json}")
    if args.trace:
        from repro.obs import ChromeTraceSink, CsvSink

        sink = CsvSink() if args.trace.endswith(".csv") else ChromeTraceSink()
        contexts[0].obs.export(sink)
        sink.write(args.trace)
        print(f"  wrote {args.trace}")
    return 0


def cmd_workloads(args) -> int:
    """List every registered workload, optionally with its parameters."""
    from repro.workloads import workload_specs

    for spec in workload_specs():
        print(f"{spec.name:<12} {spec.description}")
        if args.params:
            for param in spec.params():
                default = "required" if param.required else repr(param.default)
                bounds = f" ({param.bounds()})" if param.bounds() else ""
                print(f"    --{param.name.replace('_', '-'):<22} "
                      f"[{default}] {param.doc}{bounds}")
    return 0


def _report_abort(exc) -> int:
    """Print a structured guard-abort report; ``run``'s exit-3 path.

    The run died on a budget (:class:`~repro.errors.RunBudgetExceeded`) or
    live-lock (:class:`~repro.errors.NoProgressError`); report *where* it
    stood — salvaged partial stats plus the diagnostic snapshot — instead
    of a bare traceback.
    """
    print(f"run aborted: {exc}", file=sys.stderr)
    snap = exc.snapshot
    if snap:
        done = snap.get("tasks_done")
        total = snap.get("tasks_total")
        print(f"  progress : {done}/{total} tasks, "
              f"sim t={snap.get('sim_now', 0.0):.6f}s, "
              f"{snap.get('events_processed', 0):,} events",
              file=sys.stderr)
        if snap.get("quiescence"):
            print(f"  pending  : {snap['quiescence']}", file=sys.stderr)
    if exc.partial is not None:
        print("  partial stats:", file=sys.stderr)
        for line in exc.partial.summary().splitlines():
            print(f"    {line}", file=sys.stderr)
    return 3


def cmd_netpipe(args) -> int:
    """Print the raw fabric ping-pong bandwidth for each size."""
    from repro.network.netpipe import netpipe_bandwidth_curve
    from repro.units import fmt_size, gbit_per_s

    for size, bw in netpipe_bandwidth_curve(args.sizes):
        print(f"  {fmt_size(size):>10}: {gbit_per_s(bw):7.2f} Gbit/s")
    return 0


def cmd_explore(args) -> int:
    """Explore alternative schedules of a scenario, or replay one."""
    from repro.explore import (
        ExploreConfig,
        default_scenario,
        replay_schedule,
        run_explore,
        write_schedule,
    )

    if args.replay:
        scenario, record = replay_schedule(args.replay)
        violations = record["violations"]
        status = "violated" if violations else "clean"
        print(f"replay[{scenario.label()}]: {status}, "
              f"digest={record['digest']}")
        for kind, detail in violations:
            print(f"  [{kind}] {detail}")
        return 1 if violations else 0

    scenario = default_scenario(
        args.scenario, backend=args.backend, nodes=args.nodes,
        seed=args.seed, fault_plan=args.faults,
    )
    config = ExploreConfig(
        max_schedules=args.max_schedules,
        budget=args.budget,
        mode="walk" if args.walk else "dfs",
        walk_seed=args.walk_seed,
        jobs=args.jobs,
    )
    obs = _progress_bus(
        args, ("explore_start", "explore_schedule", "explore_violation")
    )
    outcome = run_explore(scenario, config, obs=obs)
    print(outcome.summary())
    if outcome.ok:
        return 0
    decisions = (outcome.shrunk if outcome.shrunk is not None
                 else list(outcome.findings[0].decisions))
    doc = write_schedule(args.out, scenario, decisions, config.budget,
                         violations=outcome.findings[0].violations)
    print(f"  wrote {args.out} (key {doc['key'][:12]}…), replay with: "
          f"python -m repro explore --replay {args.out}")
    return 1


def cmd_chaos(args) -> int:
    """Run TLR Cholesky under a fault plan; print the resilience report."""
    from repro.bench.chaos import ChaosConfig, run_chaos
    from repro.faults.plans import fault_plan

    params = {}
    if args.workload == "hicma":
        params = {"matrix_size": args.matrix_size, "tile_size": args.tile_size}
    cfg = ChaosConfig(
        plan_name=args.plan,
        plan=fault_plan(args.plan),
        num_nodes=args.nodes,
        seed=args.seed,
        workload=args.workload,
        params=params,
    )
    backends = ["mpi", "lci"] if args.backend == "both" else [args.backend]
    ok = True
    for backend in backends:
        result = run_chaos(backend, cfg)
        print(result.summary())
        ok = ok and result.numerics_ok
    return 0 if ok else 1


def cmd_info(args) -> int:
    """Dump every calibrated platform constant."""
    import dataclasses

    from repro.config import expanse_platform

    platform = expanse_platform()
    for section in ("network", "mpi", "lci", "runtime", "compute"):
        print(f"[{section}]")
        for f in dataclasses.fields(getattr(platform, section)):
            print(f"  {f.name} = {getattr(getattr(platform, section), f.name)!r}")
    return 0


def cmd_sweep(args) -> int:
    """Run a named experiment grid through the sweep engine."""
    from repro.analysis.sweep_tables import render_outcome
    from repro.config import SweepConfig
    from repro.errors import SweepInterrupted
    from repro.sweep import ResultCache, named_grid, run_sweep

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.cache_stats:
        print(ResultCache(args.cache_dir).stats().summary())
        return 0
    if args.cache_clear:
        removed = ResultCache(args.cache_dir).clear()
        print(f"cleared {removed} cached entries")
        return 0

    kwargs = {}
    if args.grid == "pingpong":
        kwargs = {
            "fragments": args.fragments,
            "total_bytes": args.total,
            "streams": args.streams,
        }
    spec = named_grid(args.grid, **kwargs)
    config = SweepConfig(
        jobs=args.jobs,
        cache_enabled=not args.no_cache,
        retries=args.retries,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    obs = _progress_bus(args, ("sweep_start", "sweep_point", "sweep_end"))
    try:
        outcome = run_sweep(spec, config, cache=cache, obs=obs,
                            journal=args.journal, resume=args.resume)
    except SweepInterrupted as exc:
        # run_sweep already flushed the journal and printed the resume hint.
        print(f"sweep interrupted: {exc}", file=sys.stderr)
        return 130
    if args.out:
        outcome.save(args.out)
        print(f"wrote {args.out}")
    print(render_outcome(outcome))
    print(outcome.summary())
    return 0 if outcome.failed == 0 else 1


def cmd_validate(args) -> int:
    """Run the simulator's closed-form self-checks."""
    from repro.analysis.validation import (
        validate_compute_bound_makespan,
        validate_netpipe_bandwidth,
        validate_netpipe_latency,
    )

    results = [
        validate_netpipe_latency(args.size),
        validate_netpipe_bandwidth(args.size),
        validate_compute_bound_makespan(),
    ]
    for r in results:
        print(r.summary())
    return 0 if all(r.ok for r in results) else 1


_COMMANDS = {
    "run": cmd_run,
    "workloads": cmd_workloads,
    "netpipe": cmd_netpipe,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
    "explore": cmd_explore,
    "chaos": cmd_chaos,
    "info": cmd_info,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
