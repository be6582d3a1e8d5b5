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
        args = build_parser().parse_args(["pingpong"])
        assert args.backend == "lci"
        assert args.fragment == 128 * 1024

    def test_hicma_flags(self):
        args = build_parser().parse_args(
            ["hicma", "--backend", "mpi", "--tile", "900", "--mt-activate"]
        )
        assert args.backend == "mpi"
        assert args.tile == 900
        assert args.mt_activate is True


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
            ["pingpong", "--fragment", "256K", "--total", "1M", "--iterations", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "Gbit/s" in out

    def test_compare(self, capsys):
        assert main(["compare", "--fragment", "256K", "--total", "1M"]) == 0
        out = capsys.readouterr().out
        assert "winner: lci" in out

    def test_hicma(self, capsys):
        assert main(
            ["hicma", "--matrix", "7200", "--tile", "1200", "--nodes", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "time-to-solution" in out

    def test_chaos_rejects_indivisible_matrix(self):
        """``--matrix`` must divide by ``--tile``, as for ``run hicma``;
        a silently rounded-down matrix is not the job asked for."""
        with pytest.raises(BenchmarkError, match="not divisible"):
            main(["chaos", "--matrix", "7000", "--tile", "1200"])

    def test_hicma_native_put(self, capsys):
        assert main(
            ["hicma", "--matrix", "7200", "--tile", "1200", "--nodes", "2",
             "--native-put"]
        ) == 0
        out = capsys.readouterr().out
        assert "native put" in out

    def test_overlap(self, capsys):
        assert main(["overlap", "--fragment", "1M", "--total", "4M"]) == 0
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
            "--matrix", "4800", "--tile", "1200", "--nodes", "2",
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
        out_path = tmp_path / f"trace.{fmt}"
        assert main([
            "trace-export", "--matrix", "4800", "--nodes", "2",
            "--format", fmt, "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "events" in out and str(out_path) in out
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
