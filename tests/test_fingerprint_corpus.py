"""The fingerprint corpus: simulated outputs that no kernel edit may move.

``tests/data/fingerprints.json`` holds one entry per case:

- every registered workload on both backends at its spec's
  ``explore_params`` size;
- the ``chaos`` fault plan on ``hicma`` and ``randomdag``, both backends;
- the abort point of a guarded ``hicma`` run, both backends.

Each entry records the run's inputs, the SHA-256 that ``perf/run.py``'s
``fingerprint()`` computes over its outputs, and a few readable figures.
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


def observe(run: dict, fingerprint) -> dict:
    """Execute one case and return its corpus entry."""
    seen = []
    experiment = Experiment(workload=run["workload"], backend=run["backend"],
                            seed=SEED, faults=run.get("faults"), **run["params"])
    guards = RunGuards(**run["guards"]) if "guards" in run else None
    try:
        outcome = experiment.run(ctx_observer=seen.append, guards=guards)
        aborted = False
        tasks = outcome.tasks
    except RunBudgetExceeded as exc:
        if exc.partial is None:
            raise
        outcome = exc.partial
        aborted = True
        tasks = outcome.tasks_executed
    ctx = seen[-1]
    entry = {
        "run": run,
        "fingerprint": fingerprint(outcome, ctx),
        "makespan": outcome.makespan,
        "tasks": tasks,
        "events_processed": ctx.sim.events_processed,
    }
    if guards is not None:
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
