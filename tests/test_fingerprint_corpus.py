"""The fingerprint corpus: simulated outputs that no kernel edit may move.

``tests/data/fingerprints.json`` holds one entry per case:

- every registered workload on both backends at its spec's
  ``explore_params`` size;
- the ``chaos`` fault plan on ``hicma`` and ``randomdag``, both backends;
- the abort point of a guarded ``hicma`` run, both backends.

Each entry records the run's inputs, the SHA-256 that ``perf/run.py``'s
``fingerprint()`` computes over its outputs, a few readable figures, and
the ``trace_sha256`` of the same case rerun with observability on.  The
fingerprint comes from the obs-off run: an obs-on partial ``RunStats``
carries ``obs_counters``, which would move the abort fingerprints.  A
run's trace depends only on its inputs, so every entry holds in any test
order.
The corpus has no bless switch.  A deliberate change of simulated output
is a reviewed edit of the JSON file: a mismatch prints the observed entry
to paste in.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from repro import Experiment
from repro.errors import RunBudgetExceeded
from repro.obs import trace_sha256
from repro.supervise import RunGuards
from repro.workloads import get_workload, workload_specs

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "fingerprints.json"

SEED = 1
BACKENDS = ("mpi", "lci")
#: Fault-plan cases: workload -> parameters.
CHAOS = {
    "hicma": {"matrix_size": 3600, "tile_size": 1200},
    "randomdag": dict(get_workload("randomdag").explore_params),
}
#: The guarded run whose abort point is pinned.
ABORT_PARAMS = {"matrix_size": 2048, "tile_size": 256, "num_nodes": 4}
ABORT_GUARDS = {"max_events": 1000, "check_every": 256}


def corpus_cases() -> dict:
    """Case id -> the run it describes (the ``run`` field of its entry)."""
    cases = {}
    for spec in workload_specs():
        for backend in BACKENDS:
            cases[f"{spec.name}/{backend}"] = {
                "workload": spec.name, "backend": backend,
                "params": dict(spec.explore_params),
            }
    for name, params in CHAOS.items():
        for backend in BACKENDS:
            cases[f"{name}/{backend}/chaos"] = {
                "workload": name, "backend": backend,
                "params": dict(params), "faults": "chaos",
            }
    for backend in BACKENDS:
        cases[f"hicma/{backend}/abort"] = {
            "workload": "hicma", "backend": backend,
            "params": dict(ABORT_PARAMS), "guards": dict(ABORT_GUARDS),
        }
    return cases


def execute(run: dict, observability: bool = False):
    """Run one case; return ``(outcome, context, aborted)``.  An aborted
    run's outcome is the guard's partial ``RunStats``."""
    seen = []
    experiment = Experiment(workload=run["workload"], backend=run["backend"],
                            seed=SEED, faults=run.get("faults"), **run["params"])
    guards = RunGuards(**run["guards"]) if "guards" in run else None
    try:
        outcome = experiment.run(ctx_observer=seen.append, guards=guards,
                                 observability=observability)
        aborted = False
    except RunBudgetExceeded as exc:
        if exc.partial is None:
            raise
        outcome = exc.partial
        aborted = True
    return outcome, seen[-1], aborted


def trace_of(run: dict) -> str:
    """The obs-trace SHA-256 of one case."""
    _outcome, ctx, _aborted = execute(run, observability=True)
    return trace_sha256(ctx.obs.memory.events)


def observe(run: dict, fingerprint) -> dict:
    """Execute one case and return its corpus entry."""
    outcome, ctx, aborted = execute(run)
    entry = {
        "run": run,
        "fingerprint": fingerprint(outcome, ctx),
        "makespan": outcome.makespan,
        "tasks": outcome.tasks_executed if aborted else outcome.tasks,
        "events_processed": ctx.sim.events_processed,
        "trace_sha256": trace_of(run),
    }
    if "guards" in run:
        entry["aborted"] = aborted
    return entry


@pytest.fixture(scope="module")
def fingerprint():
    # perf/run.py is imported read-only, for fingerprint() alone.
    perf = ROOT / "perf"
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(perf))  # run.py imports layer_trace
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perf/ as is
        spec = importlib.util.spec_from_file_location("perf_run", perf / "run.py")
        perf_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(perf_run)
    return perf_run.fingerprint


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_lists_every_case(corpus):
    cases = corpus_cases()
    assert sorted(corpus) == sorted(cases)
    for case_id, run in cases.items():
        assert corpus[case_id]["run"] == run, case_id


@pytest.mark.parametrize("case_id", sorted(corpus_cases()))
def test_case_matches_corpus(case_id, corpus, fingerprint):
    observed = observe(corpus_cases()[case_id], fingerprint)
    if observed != corpus.get(case_id):
        pytest.fail(
            f"{case_id} differs from {CORPUS.name}; observed entry:\n"
            + json.dumps({case_id: observed}, indent=2, sort_keys=True)
        )


@pytest.mark.parametrize("case_id", ["taskbench/mpi", "randomdag/lci/chaos"])
def test_repeat_run_in_one_process_gives_same_trace(case_id):
    # Put tags reach MPI event keys and message ids reach fault events:
    # both must restart with each run, not continue from the last one.
    run = corpus_cases()[case_id]
    assert trace_of(run) == trace_of(run)
