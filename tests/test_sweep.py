"""The sweep engine: cache correctness, determinism, failure handling."""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro import Experiment
from repro.config import SweepConfig
from repro.errors import SweepError
from repro.sweep import (
    PointView,
    ResultCache,
    SweepPoint,
    SweepSpec,
    default_cache_dir,
    execute_point,
    named_grid,
    pingpong_grid,
    point_key,
    run_sweep,
    stable_hash,
)
from repro.sweep.spec import resolve_platform, taskbench_grid


def tiny_grid():
    """Two fast ping-pong points (one per backend)."""
    return pingpong_grid(fragments=[256 * 1024], total_bytes=1024 * 1024)


class TestStableHash:
    def test_key_order_independent(self):
        assert stable_hash({"a": 1, "b": [2.5]}) == stable_hash({"b": [2.5], "a": 1})

    def test_value_sensitivity(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            stable_hash({"a": float("nan")})

    def test_stable_across_processes(self):
        """The content address must be machine/process independent."""
        point = tiny_grid().points[0]
        code = (
            "from repro.sweep import pingpong_grid, point_key;"
            "print(point_key(pingpong_grid(fragments=[256*1024],"
            " total_bytes=1024*1024).points[0]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == point_key(point)


class TestPointKey:
    def test_params_change_key(self):
        a, b = tiny_grid().points  # mpi vs lci
        assert point_key(a) != point_key(b)

    def test_platform_change_invalidates(self, monkeypatch):
        """Recalibration (here: paper scale flips the platform) must miss."""
        point = SweepPoint(
            kind="hicma", backend="lci",
            params={"matrix_size": 7200, "tile_size": 1200, "num_nodes": 2,
                    "seed": 0},
        )
        cold = point_key(point)
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert point_key(point) != cold

    @pytest.mark.parametrize("point", [
        SweepPoint("stencil", "lci", {"grid": 4, "steps": 2}),
        SweepPoint("hicma", "lci", {"matrix_size": 2400, "tile_size": 1200}),
    ], ids=["stencil", "hicma"])
    def test_key_platform_is_the_run_platform(self, point, monkeypatch):
        """A point without ``num_nodes`` keys and runs on the workload's
        default node count, not a 2-node guess."""
        import repro.runtime.context as context

        seen = []

        class Recording(context.ParsecContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self)

        monkeypatch.setattr(context, "ParsecContext", Recording)
        execute_point(point)
        assert seen[0].platform.to_dict() == resolve_platform(point).to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(SweepError):
            SweepPoint(kind="nope", backend="lci")
        with pytest.raises(SweepError):
            SweepPoint(kind="hicma", backend="tcp")


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("00" * 32) is None
        cache.put("00" * 32, {"spec": 1}, {"x": 1.5})
        assert cache.get("00" * 32) == {"x": 1.5}
        assert cache.stats().entries == 1

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        cache.put(key, {}, {"x": 1})
        cache.path_for(key).write_text("{ truncated garba")
        assert cache.get(key) is None          # evicted, reported as miss
        assert not cache.path_for(key).exists()
        cache.put(key, {}, {"x": 2})           # re-simulation repopulates
        assert cache.get(key) == {"x": 2}

    def test_key_mismatch_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {}, {"x": 1})
        doc = json.loads(cache.path_for(key).read_text())
        doc["key"] = "ef" * 32
        cache.path_for(key).write_text(json.dumps(doc))
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("11" * 32, {}, {})
        cache.put("22" * 32, {}, {})
        assert cache.clear() == 2
        assert cache.stats().entries == 0

    def test_default_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path / "c"))
        assert default_cache_dir() == tmp_path / "c"


class TestRunSweep:
    def test_serial_executes_then_caches(self, tmp_path):
        spec = tiny_grid()
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, SweepConfig(jobs=1), cache=cache)
        assert (first.executed, first.cached) == (len(spec), 0)
        warm = run_sweep(spec, SweepConfig(jobs=1), cache=cache)
        assert (warm.executed, warm.cached) == (0, len(spec))
        # Bit-identical replay, byte-for-byte (same canonical codec).
        assert json.dumps(warm.records) == json.dumps(first.records)

    def test_parallel_matches_serial_bit_identical(self, tmp_path):
        spec = pingpong_grid(
            fragments=[128 * 1024, 512 * 1024], total_bytes=1024 * 1024
        )
        serial = run_sweep(spec, SweepConfig(jobs=1, cache_enabled=False))
        parallel = run_sweep(spec, SweepConfig(jobs=2, cache_enabled=False))
        assert serial.records == parallel.records
        assert json.dumps(serial.records) == json.dumps(parallel.records)
        # And a parallel run warms the cache identically.
        cache = ResultCache(tmp_path)
        run_sweep(spec, SweepConfig(jobs=2), cache=cache)
        cached = run_sweep(spec, SweepConfig(jobs=1), cache=cache)
        assert cached.executed == 0
        assert json.dumps(cached.records) == json.dumps(serial.records)

    def test_records_match_direct_execution(self):
        spec = tiny_grid()
        outcome = run_sweep(spec, SweepConfig(cache_enabled=False))
        direct = json.loads(json.dumps(execute_point(spec.points[0]), sort_keys=True))
        assert json.dumps(outcome.records[0]) == json.dumps(direct)

    @pytest.mark.parametrize("grid", ["fig4", "pingpong", "taskbench"])
    def test_record_is_the_frozen_result(self, grid):
        """A sweep record holds exactly the fields ``Experiment.run()``
        returns for the same point."""
        if grid == "fig4":
            points = named_grid("fig4").points
            # The coarsest tile: the cheapest point of the scan.
            point = max(points, key=lambda p: p.params["tile_size"])
        elif grid == "pingpong":
            point = tiny_grid().points[0]
        else:
            point = taskbench_grid().points[0]
        record = execute_point(point)
        result = Experiment(workload=point.kind, backend=point.backend,
                            **point.params).run()
        assert record == dataclasses.asdict(result)
        assert record["workload"] == point.kind

    def test_obs_events_and_counters(self, tmp_path):
        from repro.obs import ObsBus

        bus = ObsBus()
        run_sweep(tiny_grid(), SweepConfig(jobs=1), cache=ResultCache(tmp_path),
                  obs=bus)
        kinds = [e.kind for e in bus.memory.events]
        assert kinds[0] == "sweep_start" and kinds[-1] == "sweep_end"
        assert kinds.count("sweep_point") == 2
        assert bus.counter_totals().get("sweep.executed") == 2

    def test_retry_then_fail_fast(self, monkeypatch):
        spec = SweepSpec(
            name="boom",
            points=(SweepPoint(kind="pingpong", backend="mpi",
                               params={"fragment_size": -1}),),
        )
        with pytest.raises(SweepError):
            run_sweep(spec, SweepConfig(cache_enabled=False, retries=1))

    def test_failure_recorded_without_fail_fast(self):
        spec = SweepSpec(
            name="boom",
            points=(SweepPoint(kind="pingpong", backend="mpi",
                               params={"fragment_size": -1}),),
        )
        outcome = run_sweep(
            spec, SweepConfig(cache_enabled=False, retries=0, fail_fast=False)
        )
        assert outcome.failed == 1
        assert outcome.records == [None]
        assert outcome.errors and outcome.errors[0][0] == spec.points[0].label


class TestGridsAndViews:
    def test_named_grid_unknown(self):
        with pytest.raises(SweepError):
            named_grid("fig99")

    def test_fig4_grid_shape(self):
        spec = named_grid("fig4")
        assert spec.name == "fig4"
        assert all(p.kind == "hicma" for p in spec.points)
        assert {p.backend for p in spec.points} == {"mpi", "lci"}
        assert all(p.params["num_nodes"] == 16 for p in spec.points)
        assert any(p.params["multithreaded_activate"] for p in spec.points)

    def test_point_view_surface(self):
        view = PointView({"time_to_solution": 1.25,
                          "flow_latency": {"mean": 2e-3}})
        assert view.time_to_solution == 1.25
        assert view.mean_flow_latency == 2e-3
        with pytest.raises(AttributeError):
            view.not_a_field

    def test_sweep_config_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SweepConfig(jobs=0)
        with pytest.raises(ConfigError):
            SweepConfig(retries=-1)
