"""Tests for the docs generator and assorted uncovered branches."""

import importlib.util
import json
import subprocess
import sys
import pathlib

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.network.message import MessageClass
from repro.network.nic import NicState
from repro.units import KiB, MiB, US

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestApiDocsGenerator:
    def test_generates_and_covers_all_packages(self, tmp_path):
        out = tmp_path / "api.md"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"), str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        text = out.read_text()
        for mod in (
            "repro.sim.core",
            "repro.network.fabric",
            "repro.mpi.world",
            "repro.lci.device",
            "repro.runtime.context",
            "repro.hicma.cholesky",
            "repro.bench.pingpong",
            "repro.analysis.latency",
            "repro.faults.engine",
            "repro.faults.transport",
            "repro.sweep.spec",
            "repro.sweep.cache",
            "repro.sweep.engine",
            "repro.api",
            "repro.codec",
            "repro.explore.explorer",
            "repro.explore.invariants",
            "repro.explore.policy",
            "repro.explore.scenarios",
            "repro.explore.schedule",
        ):
            assert f"### `{mod}`" in text, f"missing {mod}"

    def test_checked_in_copy_exists(self):
        assert (ROOT / "docs" / "api.md").exists()

    def test_checked_in_copy_covers_new_packages(self):
        text = (ROOT / "docs" / "api.md").read_text()
        for mod in ("repro.faults", "repro.sweep", "repro.explore", "repro.api"):
            assert f"### `{mod}`" in text, f"docs/api.md stale: missing {mod}"

    @pytest.mark.parametrize("package", ["sweep", "explore"])
    def test_strict_docstrings_enforced(self, tmp_path, package):
        """An undocumented public symbol in a strict package must fail."""
        import shutil

        src = tmp_path / "src" / "repro"
        shutil.copytree(ROOT / "src" / "repro", src)
        (src / package / "bare.py").write_text("def naked(x):\n    return x\n")
        (tmp_path / "tools").mkdir()
        tool = tmp_path / "tools" / "gen_api_docs.py"
        shutil.copy(ROOT / "tools" / "gen_api_docs.py", tool)
        proc = subprocess.run(
            [sys.executable, str(tool), str(tmp_path / "api.md")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert f"repro.{package}.bare.naked" in proc.stderr


class TestRepoCheckers:
    """The standalone tools/ checkers must pass on the checked-in tree."""

    def test_no_adhoc_tracing(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_no_adhoc_tracing.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_docs_in_sync(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_docs.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_fault_determinism(self):
        # One backend keeps this under a few seconds; the checker still runs
        # the replay, the disabled-plan==no-plan invariant, and the bundled
        # explore-schedule replay.
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_fault_determinism.py"),
             "--backend", "lci"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "bit-identical" in proc.stdout
        assert "ok schedule replay" in proc.stdout

    def test_bench_ab_smoke(self):
        # The throughput report runs end to end at smoke size and prints a
        # stack fingerprint per backend.
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bench_ab.py"), "--smoke"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "bench_ab OK" in proc.stdout
        assert "micro" in proc.stdout
        assert proc.stdout.count("trace ") == 2

    @pytest.mark.parametrize("backend,sha", [
        ("mpi", "2006e32fbd234cf2dc79d8cf070140a00f36cb7be2cae0a615f0eb9a877f16ee"),
        ("lci", "86d7ba7b0e506c93d30762da6424ee20b8bbeff02f1de969fbb20598f2f0fe15"),
    ])
    def test_bench_ab_stack_obs_stream_pinned(self, backend, sha):
        # The perf fingerprints run with observability off; this pins the
        # obs-on path (every emitted event of bench_ab's default-size stack
        # workload) to the value recorded before the per-message host-path
        # rewrite, so payload and wire-emit changes cannot drift it.  The
        # run needs a fresh interpreter: put data tags come from a
        # process-wide counter and appear in the MPI event keys.
        spec = {"workload": "stack", "backend": backend,
                "layers": [8, 12, 12, 12, 8]}
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bench_ab.py"),
             "--child", json.dumps(spec)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["trace_sha256"] == sha

    def test_paper_scale_budget(self, tmp_path):
        # Build-only mode (~5 s): asserts the NT=150 graph build/memory
        # budgets; --out keeps the checked-in BENCH_scale.json untouched.
        # A second (smaller, NT=50) run into the same file must append a
        # history entry, not overwrite the first one or other keys.
        out = tmp_path / "BENCH_scale.json"
        out.write_text(json.dumps({"full_run": {"run_wall_seconds": 54.5}}))
        tool = str(ROOT / "tools" / "check_paper_scale_budget.py")
        for extra in ([], ["--tile", "7200", "--no-deadline-smoke"]):
            proc = subprocess.run(
                [sys.executable, tool, "--out", str(out), *extra],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert "paper-scale budgets OK" in proc.stdout
        doc = json.loads(out.read_text())
        assert doc["full_run"] == {"run_wall_seconds": 54.5}
        history = doc["history"]
        assert [(h["nodes"], h["tile"], h["nt"]) for h in history] == [
            (16, 2400, 150), (16, 7200, 50),
        ]
        for entry in history:
            assert entry["host_cpus"] >= 1 and entry["python"] and entry["rev"]
            assert entry["run_wall_seconds"] is None  # build-only
            assert entry["events_per_second"] is None
            split = (entry["build_seconds"], entry["freeze_seconds"],
                     entry["validate_seconds"])
            assert sum(split) == pytest.approx(entry["total_build_seconds"],
                                               abs=0.003)

    def test_explorer_finds_planted_bugs(self):
        # The mutation smoke test: the explorer must catch both known-bad
        # protocol variants and replay each from its shrunk schedule.
        proc = subprocess.run(
            [sys.executable,
             str(ROOT / "tools" / "check_explorer_finds_bugs.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "caught both" in proc.stdout


class TestPerfFingerprintContract:
    def test_smoke_workloads_match_golden(self, monkeypatch):
        # The benchmark's golden fingerprints, checked in tier 1: the four
        # perf/run.py workloads at smoke size (~1 s), in this process.
        # perf/run.py is only imported for WORKLOADS and fingerprint().
        perf = ROOT / "perf"
        monkeypatch.syspath_prepend(str(perf))  # run.py imports layer_trace
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perf/ as is
        spec = importlib.util.spec_from_file_location("perf_run", perf / "run.py")
        perf_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(perf_run)
        golden = json.loads((perf / "golden.json").read_text())
        from repro import Experiment

        assert set(perf_run.WORKLOADS) == set(golden)
        for name, sizes in perf_run.WORKLOADS.items():
            seen = []
            result = Experiment(seed=1, **sizes["smoke"]).run(ctx_observer=seen.append)
            assert perf_run.fingerprint(result, seen[0]) == golden[name]["smoke"], name


class TestNicEjectControl:
    def test_control_eject_bypasses_data_backlog(self):
        nic = NicState(NetworkConfig())
        # Large data arrival occupies the rx data channel.
        big_arrival = 1e-3
        nic.eject(0.0, big_arrival, 8 * MiB, MessageClass.DATA)
        # A control message arriving now must not wait for it.
        deliver = nic.eject(0.0, 2 * US, 128, MessageClass.CONTROL)
        assert deliver < 10 * US

    def test_control_eject_serializes_with_itself(self):
        nic = NicState(NetworkConfig())
        ser = nic.serialization(4 * KiB)
        d1 = nic.eject(0.0, ser, 4 * KiB, MessageClass.CONTROL)
        d2 = nic.eject(0.0, ser, 4 * KiB, MessageClass.CONTROL)
        assert d2 >= d1 + ser * 0.99


class TestClockSyncSingleNode:
    def test_single_node_clock_sync_context(self):
        """clock_sync=True must not break single-node runs (no peers)."""
        from repro.config import scaled_platform
        from repro.runtime import ParsecContext, TaskGraph

        g = TaskGraph()
        g.add_task(node=0, duration=1e-6)
        ctx = ParsecContext(
            scaled_platform(num_nodes=1, cores_per_node=2), clock_sync=True
        )
        stats = ctx.run(g, until=1.0)
        assert stats.tasks_executed == 1


class TestFinalRanksBounded:
    def test_factor_ranks_respect_maxrank(self):
        from repro.hicma import SqExpProblem, TLRMatrix, tlr_cholesky

        # A smooth kernel keeps true ranks below the cap, so capping does
        # not destroy positive definiteness.
        prob = SqExpProblem(512, beta=0.25, seed=33)
        cap = 30
        tlr = TLRMatrix.from_problem(prob, tile_size=64, tol=1e-9, maxrank=cap)
        stats = tlr_cholesky(tlr, tol=1e-9, maxrank=cap)
        assert stats.final_ranks
        assert max(stats.final_ranks) <= cap


class TestApiFacadeOverlap:
    def test_run_overlap_facade(self):
        import repro

        r = repro.Experiment(workload="overlap", backend=repro.BackendKind.LCI,
                             fragment_size=1 * MiB, total_bytes=4 * MiB).run()
        assert r.flops_per_s > 0

    def test_backend_kind_str(self):
        import repro

        assert str(repro.BackendKind.MPI) == "mpi"
        assert repro.BackendKind("lci") is repro.BackendKind.LCI
