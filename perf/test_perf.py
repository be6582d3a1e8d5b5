"""Tests of the benchmark itself.  Run with ``python -m pytest perf -q``
from the repository root (they are outside the tier-1 ``testpaths``).

One ``--smoke`` invocation of ``perf/run.py`` (all workloads, untraced and
traced children, ~30 s) feeds most checks.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((PERF / "golden.json").read_text())


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = _run(["perf/run.py", "--smoke", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert json.loads(out.read_text()) == doc
    return out, doc


def test_smoke_names_every_declared_metric(smoke):
    _, doc = smoke
    assert set(doc["workloads"]) == {w["name"] for w in CONFIG["workloads"]}
    for name, wl in doc["workloads"].items():
        for metric in CONFIG["end_to_end"]:
            assert wl["e2e"][metric["name"]]["unit"] == metric["unit"], name
            assert wl["e2e"][metric["name"]]["value"] > 0, (name, metric["name"])
        for metric in CONFIG["per_layer"]:
            assert wl["layers"][metric["name"]]["unit"] == metric["unit"], name
        assert wl["e2e"]["runs_failed"]["value"] == 0, name
        assert wl["runs_attempted"] > 0
    for key in ("host_cpus", "python", "git_rev", "loadavg_start", "loadavg_end"):
        assert key in doc["host"]


def test_traced_fingerprints_equal_untraced(smoke):
    _, doc = smoke
    for name, wl in doc["workloads"].items():
        assert wl["fingerprints"] == [GOLDEN[name]["smoke"]], name
        assert wl["traced_fingerprints"] == wl["fingerprints"], name


def test_trace_covers_the_run(smoke):
    _, doc = smoke
    for name, wl in doc["workloads"].items():
        assert wl["layers"]["trace.coverage"]["value"] >= 0.95, name
        assert wl["layers"]["trace.overhead_ratio"]["value"] > 1.0, name
        assert wl["layers"]["sim.self_s"]["value"] > 0, name
    layers = {name: wl["layers"] for name, wl in doc["workloads"].items()}
    # Each backend layer is seen only on the workloads that run it.
    assert layers["hicma-mpi"]["mpi.calls"]["value"] > 0
    assert layers["hicma-mpi"]["lci.calls"]["value"] == 0
    assert layers["hicma-lci"]["lci.calls"]["value"] > 0
    assert layers["hicma-lci"]["mpi.calls"]["value"] == 0


def _compare(tmp_path, base, new):
    paths = []
    for tag, doc in (("base", base), ("new", new)):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return _run(["perf/compare.py", *paths], timeout=60)


def test_compare_passes_identical_records(smoke, tmp_path):
    _, doc = smoke
    proc = _compare(tmp_path, doc, doc)
    assert proc.returncode == 0, proc.stdout
    assert " worse" not in proc.stdout


def test_compare_flags_slower_run(smoke, tmp_path):
    _, doc = smoke
    base = copy.deepcopy(doc)
    run_s = base["workloads"]["taskbench-a2a"]["e2e"]["run_s"]["value"]
    # Steady samples, so the verdict cannot be "unresolved".
    base["workloads"]["taskbench-a2a"]["samples"]["run_s"] = [run_s] * 5
    slow = copy.deepcopy(base)
    wl = slow["workloads"]["taskbench-a2a"]
    wl["e2e"]["run_s"]["value"] = run_s * 1.2
    wl["samples"]["run_s"] = [run_s * 1.2] * 5
    proc = _compare(tmp_path, base, slow)
    assert proc.returncode == 1, proc.stdout
    assert any(
        line.startswith("taskbench-a2a") and "run_s" in line and line.endswith("worse")
        for line in proc.stdout.splitlines()
    ), proc.stdout


def test_compare_rejects_fingerprint_change(smoke, tmp_path):
    _, doc = smoke
    changed = copy.deepcopy(doc)
    changed["workloads"]["stencil-lci"]["fingerprints"] = ["0" * 64]
    proc = _compare(tmp_path, doc, changed)
    assert proc.returncode == 1
    assert "fingerprint differs" in proc.stdout


def test_out_never_overwrites(smoke):
    out, _ = smoke
    proc = _run(["perf/run.py", "--smoke", "--out", str(out)], timeout=60)
    assert proc.returncode != 0
    assert "never overwritten" in proc.stderr


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark's own files has nothing to
    measure: the command must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        ["perf/run.py", "--workload", "taskbench-a2a", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
