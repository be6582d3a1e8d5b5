"""Supervised execution: run guards, worker supervision, crash-safe resume."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Experiment
from repro.config import SweepConfig
from repro.errors import (
    ConfigError,
    HicmaError,
    NoProgressError,
    RunBudgetExceeded,
    SupervisionError,
    SweepError,
)
from repro.obs.bus import ObsBus
from repro.supervise import (
    RunGuards,
    SweepJournal,
    classify_failure,
    is_deterministic_failure,
    read_journal,
)
from repro.sweep import SweepPoint, SweepSpec, pingpong_grid, run_sweep

ROOT = Path(__file__).resolve().parent.parent

SMALL = dict(matrix_size=2048, tile_size=256, num_nodes=4)


def run_small(**run_kw):
    """One run of the SMALL hicma job through the Experiment API."""
    return Experiment(workload="hicma", backend="lci", **SMALL).run(**run_kw)


def tiny_grid():
    """Four fast ping-pong points (two fragments x two backends)."""
    return pingpong_grid(fragments=[64 * 1024, 128 * 1024],
                         total_bytes=256 * 1024)


def no_cache(**kw) -> SweepConfig:
    return SweepConfig(cache_enabled=False, **kw)


def records_json(outcome) -> str:
    return json.dumps(outcome.records, sort_keys=True)


class TestRunGuards:
    def test_validation(self):
        for bad in (dict(deadline=0), dict(max_events=-1),
                    dict(max_rss_bytes=0), dict(no_progress_window=0.0),
                    dict(check_every=0)):
            with pytest.raises(ConfigError):
                RunGuards(**bad)

    def test_disabled_guards_are_noop(self):
        guards = RunGuards()
        assert not guards.enabled
        r1 = run_small()
        r2 = run_small(guards=guards)
        assert r1.time_to_solution == r2.time_to_solution

    def test_event_budget_aborts_with_snapshot_and_partial(self):
        with pytest.raises(RunBudgetExceeded) as exc_info:
            run_small(
                guards=RunGuards(max_events=1000, check_every=256),
            )
        exc = exc_info.value
        assert "event budget" in str(exc)
        snap = exc.snapshot
        assert snap["reason"] == str(exc)
        assert snap["tasks_done"] > 0
        assert snap["tasks_total"] == 120
        assert snap["events_processed"] >= 1000
        assert "counters" in snap and "quiescence" in snap
        # Salvaged partial stats are real measurements, not placeholders.
        assert exc.partial is not None
        assert 0 < exc.partial.tasks_executed < 120
        assert exc.partial.makespan > 0

    def test_pingpong_honours_guards(self):
        """Every workload takes run guards, the paper's ping-pong included."""
        experiment = Experiment(workload="pingpong", backend="lci",
                                fragment_size=256 * 1024,
                                total_bytes=1024 * 1024, iterations=3)
        with pytest.raises(RunBudgetExceeded) as exc_info:
            experiment.run(guards=RunGuards(max_events=200, check_every=64))
        partial = exc_info.value.partial
        assert partial is not None
        assert 0 < partial.tasks_executed < experiment.run().tasks

    def test_deadline_aborts(self):
        with pytest.raises(RunBudgetExceeded) as exc_info:
            run_small(
                guards=RunGuards(deadline=1e-9, check_every=64),
            )
        assert "deadline" in str(exc_info.value)

    def test_memory_ceiling_aborts(self):
        # 1 byte of RSS budget trips on the first check.
        with pytest.raises(RunBudgetExceeded) as exc_info:
            run_small(
                guards=RunGuards(max_rss_bytes=1, check_every=64),
            )
        assert "memory ceiling" in str(exc_info.value)

    def test_no_progress_aborts(self):
        # A window far below the inter-completion gap reads as live-lock.
        with pytest.raises(NoProgressError) as exc_info:
            run_small(
                guards=RunGuards(no_progress_window=1e-9, check_every=64),
            )
        assert "no progress" in str(exc_info.value)
        assert exc_info.value.snapshot["tasks_total"] == 120

    def test_generous_guards_bit_identical(self):
        r1 = run_small()
        r2 = run_small(
            guards=RunGuards(deadline=3600.0, max_events=10**9,
                             no_progress_window=3600.0),
        )
        assert r1.time_to_solution == r2.time_to_solution
        assert r1.tasks == r2.tasks
        assert r1.flow_latency == r2.flow_latency

    def test_guards_chain_progress_tick(self):
        from repro.obs.progress import ProgressReporter

        reporter = ProgressReporter(interval=0.0)
        r = run_small(
            progress=reporter,
            guards=RunGuards(deadline=3600.0),
        )
        base = run_small()
        assert r.time_to_solution == base.time_to_solution
        assert reporter.beats > 0  # the chained tick still fired

    def test_abort_emits_watchdog_event_and_snapshots_trail(self):
        from repro.workloads.generators import random_layered_dag
        from repro.config import scaled_platform
        from repro.runtime.context import ParsecContext

        graph = random_layered_dag([4, 6, 6, 4], num_nodes=3, seed=11)
        ctx = ParsecContext(scaled_platform(num_nodes=3, cores_per_node=3),
                            backend="lci", observability=True)
        with pytest.raises(RunBudgetExceeded) as exc_info:
            ctx.run(graph, until=30.0,
                    guards=RunGuards(max_events=200, check_every=64))
        assert "watchdog_abort" in [e.kind for e in ctx.obs.memory.events]
        # With an in-memory sink attached the snapshot carries the trail.
        trail = exc_info.value.snapshot["last_events"]
        assert 0 < len(trail) <= 25
        assert all("kind" in e and "time" in e for e in trail)

    def test_abort_snapshot_lists_only_ranks_holding_state(self):
        """The snapshot's quiescence list leaves drained ranks out and
        shows only the state each listed rank holds, on both backends."""
        listed = {}
        for backend in ("lci", "mpi"):
            with pytest.raises(RunBudgetExceeded) as exc_info:
                Experiment(workload="hicma", backend=backend, **SMALL).run(
                    guards=RunGuards(max_events=1000))
            listed[backend] = exc_info.value.snapshot["quiescence"]
        assert listed == {
            "lci": [{"rank": 2, "tx_packets_in_use": 1, "send_slots_in_use": 2},
                    {"rank": 3, "recv_slots_in_use": 1, "posted_recvd": 1}],
            "mpi": [{"rank": 0, "transfers": 2}, {"rank": 1, "transfers": 1}],
        }


class TestClassifyFailure:
    def test_deterministic_kinds(self):
        for exc in (ConfigError("x"), SweepError("x"), HicmaError("x"),
                    TypeError("x"), ValueError("x"), KeyError("x")):
            assert classify_failure(exc) == "deterministic"
            assert is_deterministic_failure(exc)

    def test_transient_kinds(self):
        for exc in (OSError("x"), MemoryError(), RuntimeError("x"),
                    Exception("x")):
            assert classify_failure(exc) == "transient"
            assert not is_deterministic_failure(exc)


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j"
        journal = SweepJournal(path).open()
        journal.begin("grid", ["k0", "k1"], {"jobs": 2})
        journal.attempt(0, 1)
        journal.outcome_ok(0, {"v": 1.5})
        journal.attempt(1, 1)
        journal.outcome_failed(1, "Boom('x')")
        journal.interrupted("SIGTERM")
        journal.end(1, 0, 1)
        journal.close()
        state = read_journal(path)
        assert state.begin["name"] == "grid"
        assert state.completed == {0: {"v": 1.5}}
        assert state.failed == {1: "Boom('x')"}
        assert state.attempts == {0: 1, 1: 1}
        assert state.interrupted and state.finished
        assert not state.corrupt_tail
        assert "1 points complete" in state.summary()

    def test_later_ok_supersedes_failed(self, tmp_path):
        path = tmp_path / "j"
        journal = SweepJournal(path).open()
        journal.outcome_failed(0, "flaky")
        journal.outcome_ok(0, {"v": 2})
        journal.close()
        state = read_journal(path)
        assert state.completed == {0: {"v": 2}}
        assert state.failed == {}

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j"
        journal = SweepJournal(path).open()
        journal.outcome_ok(0, {"v": 1})
        journal.outcome_ok(1, {"v": 2})
        journal.close()
        text = path.read_text()
        lines = text.splitlines()
        path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        state = read_journal(path)
        assert state.completed == {0: {"v": 1}}
        assert state.corrupt_tail

    def test_bit_rot_stops_replay(self, tmp_path):
        path = tmp_path / "j"
        journal = SweepJournal(path).open()
        journal.outcome_ok(0, {"v": 1})
        journal.outcome_ok(1, {"v": 2})
        journal.close()
        # Valid JSON, wrong checksum: flip a digit inside the record.
        lines = path.read_text().splitlines()
        assert '"v":1' in lines[0]  # canonical JSON is compact
        doctored = lines[0].replace('"v":1', '"v":7')
        path.write_text(doctored + "\n" + lines[1] + "\n")
        state = read_journal(path)
        assert state.completed == {}  # nothing after the damaged line
        assert state.corrupt_tail

    def test_missing_file_is_empty_state(self, tmp_path):
        state = read_journal(tmp_path / "absent")
        assert state.entries == 0 and not state.corrupt_tail

    def test_resume_rejects_different_sweep(self, tmp_path):
        path = tmp_path / "j"
        journal = SweepJournal(path).open()
        journal.begin("grid", ["k0", "k1"], {})
        journal.close()
        other = SweepJournal.begin_entry("grid", ["k0", "DIFFERENT"], {})
        with pytest.raises(SweepError, match="different sweep"):
            SweepJournal(path).load_for_resume(other)

    def test_truncate_discards_open(self, tmp_path):
        path = tmp_path / "j"
        journal = SweepJournal(path).open(truncate=True)
        journal.outcome_ok(0, {"v": 1})
        journal.close()
        SweepJournal(path).open(truncate=True).close()
        assert path.read_text() == ""


class TestSupervisedSweep:
    def test_parallel_matches_serial_bit_identical(self):
        spec = tiny_grid()
        serial = run_sweep(spec, no_cache(jobs=1))
        parallel = run_sweep(spec, no_cache(jobs=2))
        assert records_json(serial) == records_json(parallel)
        assert parallel.executed == len(spec.points)

    def test_worker_kill_respawns_and_retries(self, tmp_path, monkeypatch):
        spec = tiny_grid()
        baseline = run_sweep(spec, no_cache(jobs=1))
        monkeypatch.setenv("REPRO_HARNESS_CHAOS",
                           f"worker_kill@1:{tmp_path}/markers")
        bus = ObsBus()
        out = run_sweep(spec, no_cache(jobs=2), obs=bus)
        assert records_json(out) == records_json(baseline)
        assert out.retried >= 1
        totals = bus.counter_totals()
        assert totals.get("supervise.respawned", 0) >= 1
        deaths = [e for e in bus.memory.events
                  if e.kind == "watchdog_worker" and e.info == "died"]
        assert deaths

    def test_worker_hang_detected_and_retried(self, tmp_path, monkeypatch):
        spec = tiny_grid()
        baseline = run_sweep(spec, no_cache(jobs=1))
        monkeypatch.setenv("REPRO_HARNESS_CHAOS",
                           f"worker_hang@2:{tmp_path}/markers")
        bus = ObsBus()
        out = run_sweep(spec, no_cache(jobs=2, heartbeat_timeout=1.0),
                        obs=bus)
        assert records_json(out) == records_json(baseline)
        assert bus.counter_totals().get("supervise.hung", 0) >= 1

    def test_deterministic_failure_burns_no_retries(self, tmp_path):
        # An unknown parameter raises ConfigError in the worker — retrying
        # cannot help, so exactly one attempt must be journaled per point.
        bad = SweepPoint(kind="pingpong", backend="mpi",
                         params={"nonsense_parameter": 1})
        spec = SweepSpec(name="bad", points=(bad,) * 2)
        journal = tmp_path / "j"
        out = run_sweep(
            spec, no_cache(jobs=1, retries=3, fail_fast=False),
            journal=journal,
        )
        assert out.failed == 2 and out.retried == 0
        state = read_journal(journal)
        assert state.attempts == {0: 1, 1: 1}
        assert "ConfigError" in state.failed[0]
        assert "does not accept parameter" in state.failed[0]

    def test_deterministic_failure_fails_fast_parallel(self, tmp_path):
        good = tiny_grid().points
        bad = SweepPoint(kind="pingpong", backend="mpi",
                         params={"nonsense_parameter": 1})
        spec = SweepSpec(name="mixed", points=(*good, bad))
        journal = tmp_path / "j"
        out = run_sweep(
            spec, no_cache(jobs=2, retries=3, fail_fast=False),
            journal=journal,
        )
        assert out.failed == 1 and out.executed == len(good)
        assert read_journal(journal).attempts[len(good)] == 1

    def test_journal_resume_completes_bit_identical(self, tmp_path,
                                                    monkeypatch):
        spec = tiny_grid()
        baseline = run_sweep(spec, no_cache(jobs=1))
        journal = tmp_path / "j"
        monkeypatch.setenv("REPRO_HARNESS_CHAOS",
                           f"journal_truncate@2:{tmp_path}/markers")
        run_sweep(spec, no_cache(jobs=1), journal=journal)
        monkeypatch.delenv("REPRO_HARNESS_CHAOS")
        state = read_journal(journal)
        assert state.corrupt_tail and len(state.completed) == 2
        resumed = run_sweep(spec, no_cache(jobs=1), journal=journal,
                            resume=True)
        assert resumed.resumed == 2
        assert resumed.executed == len(spec.points) - 2
        assert records_json(resumed) == records_json(baseline)

    def test_resume_requires_journal(self):
        with pytest.raises(SweepError, match="requires a journal"):
            run_sweep(tiny_grid(), no_cache(jobs=1), resume=True)

    def test_resumed_points_skip_cache_and_emit(self, tmp_path):
        spec = tiny_grid()
        journal = tmp_path / "j"
        bus = ObsBus()
        run_sweep(spec, no_cache(jobs=1), journal=journal)
        resumed = run_sweep(spec, no_cache(jobs=1), journal=journal,
                            resume=True, obs=bus)
        assert resumed.resumed == len(spec.points)
        assert bus.counter_totals().get("sweep.resumed") == len(spec.points)

    def test_heartbeat_timeout_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(heartbeat_timeout=0.0)


class TestOutcomePersistence:
    def test_save_load_round_trip(self, tmp_path):
        out = run_sweep(tiny_grid(), no_cache(jobs=1))
        path = tmp_path / "nested" / "outcome.json"
        out.save(path)
        doc = out.load_doc(path)
        assert doc["records"] == out.records
        assert doc["keys"] == out.keys
        assert doc["spec"]["name"] == out.spec.name
        assert "wall_time" not in doc  # content, not circumstance
        # No temp file left behind (atomic rename completed).
        assert [p.name for p in path.parent.iterdir()] == ["outcome.json"]

    def test_save_is_canonical_json(self, tmp_path):
        out = run_sweep(tiny_grid(), no_cache(jobs=1))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        out.save(p1)
        out.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSupervisionErrors:
    def test_hierarchy(self):
        assert issubclass(RunBudgetExceeded, SupervisionError)
        assert issubclass(NoProgressError, SupervisionError)
        exc = RunBudgetExceeded("x", snapshot={"reason": "x"})
        assert exc.snapshot == {"reason": "x"}
        assert exc.partial is None


class TestInterruptResumeTool:
    def test_interrupt_resume_checker(self):
        # End to end through the CLI: baseline, worker_kill, SIGTERM +
        # --resume, worker_hang — all byte-identical (~15 s).
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_interrupt_resume.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ok interrupt+resume" in proc.stdout
        assert "ok worker_kill" in proc.stdout
        assert "ok worker_hang" in proc.stdout
