"""Tests for the command-line interface."""

import pytest

from repro.cli import _size, build_parser, main
from repro.errors import BenchmarkError


class TestSizeParsing:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("1024", 1024),
            ("64K", 64 * 1024),
            ("64KiB", 64 * 1024),
            ("8M", 8 * 1024 * 1024),
            ("1.5M", int(1.5 * 1024 * 1024)),
        ],
    )
    def test_valid(self, text, expect):
        assert _size(text) == expect

    def test_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _size("lots")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pingpong_defaults(self):
        args = build_parser().parse_args(
            ["run", "pingpong", "--fragment-size", "128K"])
        assert args.backend == "lci"
        assert args.fragment_size == 128 * 1024
        assert not args.progress and args.json is None and args.trace is None

    def test_hicma_flags(self):
        args = build_parser().parse_args(
            ["run", "hicma", "--backend", "mpi", "--tile-size", "900",
             "--multithreaded-activate", "true"]
        )
        assert args.backend == "mpi"
        assert args.tile_size == 900
        assert args.multithreaded_activate is True

    def test_verbs(self):
        sub = next(a for a in build_parser()._actions
                   if a.dest == "command")
        assert sorted(sub.choices) == sorted([
            "run", "workloads", "netpipe", "sweep", "validate", "explore",
            "chaos", "info",
        ])


class TestCommands:
    def test_netpipe(self, capsys):
        assert main(["netpipe", "64K", "1M"]) == 0
        out = capsys.readouterr().out
        assert "Gbit/s" in out
        assert "64 KiB" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "[network]" in out and "bandwidth" in out

    def test_pingpong(self, capsys):
        assert main(
            ["run", "pingpong", "--fragment-size", "256K", "--total-bytes",
             "1M", "--iterations", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Gbit/s" in out

    def test_compare(self, capsys, tmp_path):
        """MPI and LCI side by side on ping-pong: the sweep's pingpong grid."""
        out_path = tmp_path / "outcome.json"
        assert main(["sweep", "pingpong", "--fragments", "256K", "--total",
                     "1M", "--no-cache", "--out", str(out_path)]) == 0
        assert "MPI Gbit/s" in capsys.readouterr().out
        import json

        records = json.loads(out_path.read_text())["records"]
        bandwidth = {r["backend"]: r["bandwidth"] for r in records}
        assert bandwidth["lci"] > bandwidth["mpi"]

    def test_hicma(self, capsys):
        assert main(
            ["run", "hicma", "--matrix-size", "7200", "--tile-size", "1200",
             "--nodes", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "time-to-solution" in out and "MB wire" in out

    def test_chaos_rejects_indivisible_matrix(self):
        """``--matrix-size`` must divide by ``--tile-size``, as for ``run
        hicma``; a silently rounded-down matrix is not the job asked for."""
        with pytest.raises(BenchmarkError, match="not divisible"):
            main(["chaos", "--matrix-size", "7000", "--tile-size", "1200"])

    HICMA_SMALL = ["run", "hicma", "--matrix-size", "7200",
                   "--tile-size", "1200", "--nodes", "2"]

    def test_hicma_native_put(self, capsys):
        assert main([*self.HICMA_SMALL, "--native-put", "true"]) == 0
        out = capsys.readouterr().out
        assert "hicma[lci]" in out and "MB wire" in out

    def test_hicma_native_put_writes_json(self, capsys, tmp_path):
        path = tmp_path / "hicma.json"
        assert main(
            [*self.HICMA_SMALL, "--native-put", "true", "--json", str(path)]
        ) == 0
        assert path.exists() and f"wrote {path}" in capsys.readouterr().out

    def test_hicma_native_put_needs_lci(self, capsys):
        assert main(
            [*self.HICMA_SMALL, "--backend", "mpi", "--native-put", "true"]
        ) == 2
        captured = capsys.readouterr()
        assert "error: native_put requires the LCI backend" in captured.err
        assert "hicma[" not in captured.out

    def test_run_indivisible_matrix_exits_2(self, capsys):
        assert main(["run", "hicma", "--matrix-size", "7000",
                     "--tile-size", "1200", "--nodes", "2"]) == 2
        assert "error: matrix 7000 not divisible" in capsys.readouterr().err

    def test_run_missing_required_param_exits_2(self, capsys):
        assert main(["run", "hicma", "--nodes", "2"]) == 2
        err = capsys.readouterr().err
        assert "requires parameter(s)" in err and "matrix_size" in err

    def test_run_non_bool_flag_exits_2(self, capsys):
        assert main(["run", "pingpong", "--fragment-size", "128K",
                     "--sync", "no"]) == 2
        assert "'sync' must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,field", [
        (["hicma", "--matrix-size", "7200", "--tile-size", "0"], "tile_size"),
        (["hicma", "--matrix-size", "0", "--tile-size", "1200"],
         "matrix_size"),
        (["hicma", "--matrix-size", "7200", "--tile-size", "1200",
          "--nodes", "0"], "num_nodes"),
        (["hicma", "--matrix-size", "7200", "--tile-size", "1200",
          "--maxrank", "-1"], "maxrank"),
        (["pingpong", "--fragment-size", "0"], "fragment_size"),
        (["overlap", "--fragment-size", "0"], "fragment_size"),
        (["pingpong", "--fragment-size", "1M", "--nodes", "1"], "num_nodes"),
        (["overlap", "--fragment-size", "1M", "--nodes", "1"], "num_nodes"),
        (["pingpong", "--fragment-size", "1M", "--iterations", "1"],
         "iterations"),
    ])
    def test_run_out_of_bounds_param_exits_2(self, capsys, argv, field):
        """A value below a declared bound is a one-line ``error:`` naming
        the field, not a traceback or a result from a broken config."""
        assert main(["run", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert f"parameter {field!r} must be >=" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["chaos", "--matrix", "7200"],
        ["run", "hicma", "--matrix", "7200", "--tile", "1200"],
    ])
    def test_flag_prefix_is_not_a_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --matrix 7200" in capsys.readouterr().err

    def test_run_guard_abort_exits_3(self, capsys):
        assert main(["run", "hicma", "--nodes", "4", "--matrix-size", "7200",
                     "--tile-size", "600", "--max-events", "5000"]) == 3
        captured = capsys.readouterr()
        assert "run aborted" in captured.err
        assert "partial stats" in captured.err
        assert "hicma[" not in captured.out

    def test_run_progress_heartbeats(self, capsys):
        assert main(["run", "pingpong", "--fragment-size", "256K",
                     "--total-bytes", "1M", "--iterations", "3",
                     "--progress"]) == 0
        assert "[progress]" in capsys.readouterr().err

    def test_overlap(self, capsys):
        assert main(["run", "overlap", "--fragment-size", "1M",
                     "--total-bytes", "4M"]) == 0
        out = capsys.readouterr().out
        assert "TFLOP/s" in out and "roofline" in out


class TestNewCommands:
    def test_sweep_pingpong_grid(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # keep the default cache out of the repo
        argv = ["sweep", "pingpong", "--fragments", "256K", "--total", "1M"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "MPI Gbit/s" in out and "LCI Gbit/s" in out
        assert "2 simulated, 0 cached" in out
        # Warm rerun: every point served from the on-disk cache.
        assert main(argv) == 0
        assert "0 simulated, 2 cached" in capsys.readouterr().out

    def test_sweep_cache_stats_and_clear(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["sweep", "pingpong", "--fragments", "64K",
                     "--total", "256K", *cache]) == 0
        capsys.readouterr()
        assert main(["sweep", "pingpong", "--cache-stats", *cache]) == 0
        assert "2 entries" in capsys.readouterr().out
        assert main(["sweep", "pingpong", "--cache-clear", *cache]) == 0
        assert "cleared 2" in capsys.readouterr().out

    def test_sweep_unknown_grid_rejected(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["sweep", "not-a-grid"])

    def test_validate(self, capsys):
        assert main(["validate", "--size", "256K"]) == 0
        out = capsys.readouterr().out
        assert out.count("[OK ]") == 3

    def test_chaos(self, capsys):
        assert main([
            "chaos", "--plan", "drop", "--backend", "lci",
            "--matrix-size", "4800", "--tile-size", "1200", "--nodes", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "numerics OK" in out
        assert "injected" in out and "recovered" in out

    def test_chaos_unknown_plan_rejected(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["chaos", "--plan", "definitely-not-a-plan"])

    @pytest.mark.parametrize("fmt,loader", [("chrome", "json"), ("csv", "csv")])
    def test_trace_export(self, capsys, tmp_path, fmt, loader):
        out_path = tmp_path / f"trace.{loader}"
        assert main([
            "run", "hicma", "--matrix-size", "4800", "--tile-size", "1200",
            "--nodes", "2", "--trace", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "hicma[lci]" in out and f"wrote {out_path}" in out
        if loader == "json":
            import json

            doc = json.loads(out_path.read_text())
            assert doc["traceEvents"]
            assert {"ph", "ts", "pid"} <= set(doc["traceEvents"][0])
        else:
            header = out_path.read_text().splitlines()[0]
            assert header == "time,kind,node,key,info,phase,local_time"


class TestRunVerb:
    def test_run_catalog_workload(self, capsys):
        assert main(["run", "chain", "--length", "6", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "chain[lci]" in out and "6 tasks" in out

    def test_run_taskbench_flags(self, capsys):
        assert main([
            "run", "taskbench", "--pattern", "fft", "--width", "4",
            "--depth", "3", "--nodes", "2", "--backend", "mpi",
        ]) == 0
        assert "taskbench[mpi]" in capsys.readouterr().out

    def test_run_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not_a_workload"])

    def test_run_wrong_param_exits_2(self, capsys):
        # --width exists (it is taskbench's) but chain does not accept it;
        # the registry's schema error must surface, not a silent drop.
        assert main(["run", "chain", "--width", "9"]) == 2
        err = capsys.readouterr().err
        assert "does not accept" in err and "width" in err

    def test_run_under_fault_plan(self, capsys):
        assert main(["run", "ring", "--steps", "4", "--nodes", "3",
                     "--faults", "drop"]) == 0
        assert "ring[lci]" in capsys.readouterr().out

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("pingpong", "hicma", "stencil", "taskbench"):
            assert name in out

    def test_workloads_params_listing(self, capsys):
        assert main(["workloads", "--params"]) == 0
        out = capsys.readouterr().out
        assert "--fragment-size" in out and "[required]" in out
        assert "--pattern" in out

    def test_sweep_taskbench_grid_exists(self):
        args = build_parser().parse_args(["sweep", "taskbench", "--jobs", "2"])
        assert args.grid == "taskbench" and args.jobs == 2


class TestVerifyRecipe:
    def test_skill_cli_block_runs(self, capsys, tmp_path, monkeypatch):
        """Every command line of the verify recipe's CLI block exits 0."""
        import pathlib
        import shlex

        skill = (pathlib.Path(__file__).resolve().parent.parent / ".claude"
                 / "skills" / "verify" / "SKILL.md").read_text()
        block = skill.split("## CLI surface", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines()
                 if line.startswith("python -m repro ")]
        assert len(lines) >= 8
        monkeypatch.chdir(tmp_path)  # the recipe writes out.json, trace.csv
        for line in lines:
            assert main(shlex.split(line)[3:]) == 0, line
        capsys.readouterr()
