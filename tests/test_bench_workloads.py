"""Tests for the benchmark workload generators and their runs."""

import pytest

from repro import Experiment
from repro.bench.overlap import OverlapConfig, no_overlap_flops, roofline_flops
from repro.bench.pingpong import PingPongConfig, build_pingpong_graph
from repro.bench.report import Comparison
from repro.config import scaled_platform
from repro.errors import BenchmarkError
from repro.units import KiB, MiB


class TestPingPongGraph:
    def test_task_count_no_sync(self):
        cfg = PingPongConfig(
            fragment_size=64 * KiB, total_bytes=512 * KiB, iterations=3, sync=False
        )
        g = build_pingpong_graph(cfg, 1e9)
        # window=8 fragments x 3 iterations, no sync/relay tasks.
        assert g.num_tasks == 8 * 3

    def test_task_count_with_sync(self):
        cfg = PingPongConfig(
            fragment_size=64 * KiB, total_bytes=512 * KiB, iterations=3, sync=True
        )
        g = build_pingpong_graph(cfg, 1e9)
        # 24 pingpongs + per boundary (2): 1 sync + 8 relays.
        assert g.num_tasks == 24 + 2 * (1 + 8)

    def test_round_robin_node_assignment(self):
        cfg = PingPongConfig(
            fragment_size=256 * KiB, total_bytes=512 * KiB, iterations=2, sync=False
        )
        g = build_pingpong_graph(cfg, 1e9)
        nodes = {t.kind: t.node for t in g.tasks.values()}
        assert nodes["pp0"] == 0 and nodes["pp1"] == 1

    def test_fragment_larger_than_total_rejected(self):
        cfg = PingPongConfig(fragment_size=2 * MiB, total_bytes=1 * MiB)
        with pytest.raises(BenchmarkError):
            _ = cfg.window

    def test_intensity_sets_duration(self):
        cfg = PingPongConfig(
            fragment_size=64 * KiB,
            total_bytes=128 * KiB,
            iterations=2,
            sync=False,
            intensity=10.0,
        )
        g = build_pingpong_graph(cfg, flops_per_core=1e9)
        d = next(iter(g.tasks.values())).duration
        # (64KiB/8 elements) * 10 FMA * 2 flops / 1e9 flops/s
        assert d == pytest.approx((64 * KiB / 8) * 10 * 2 / 1e9)

    def test_graph_validates(self):
        cfg = PingPongConfig(
            fragment_size=64 * KiB, total_bytes=256 * KiB, iterations=3, streams=2
        )
        g = build_pingpong_graph(cfg, 1e9)
        g.validate(num_nodes=2)


class TestPingPongDriver:
    def test_result_fields(self):
        r = Experiment(
            workload="pingpong", backend="lci",
            fragment_size=256 * KiB, total_bytes=1 * MiB, iterations=4,
        ).run()
        assert r.bandwidth > 0
        assert r.bandwidth_gbit == pytest.approx(r.bandwidth * 8 / 1e9)
        assert len(r.iteration_times) == 4
        assert r.tasks > 0
        assert "lci" in r.summary()

    def test_deterministic(self):
        exp = Experiment(workload="pingpong", backend="mpi",
                         fragment_size=256 * KiB, total_bytes=1 * MiB,
                         iterations=4)
        a = exp.run()
        b = exp.run()
        assert a.bandwidth == b.bandwidth


class TestOverlapConfig:
    def test_iterations_scale_with_sqrt(self):
        big = OverlapConfig(fragment_size=4 * MiB, total_bytes=32 * MiB, base_iterations=4)
        small = OverlapConfig(fragment_size=1 * MiB, total_bytes=32 * MiB, base_iterations=4)
        assert small.iterations() == pytest.approx(2 * big.iterations(), abs=1)

    def test_intensity_gemm_like(self):
        cfg = OverlapConfig(fragment_size=8 * 100**2)
        assert cfg.intensity() == pytest.approx(100.0)

    def test_bounds_ordering(self):
        plat = scaled_platform(num_nodes=2)
        cfg = OverlapConfig(fragment_size=512 * KiB, total_bytes=8 * MiB)
        assert roofline_flops(cfg, plat) >= no_overlap_flops(cfg, plat)

    def test_driver_runs(self):
        plat = scaled_platform(num_nodes=2)
        r = Experiment(workload="overlap", backend="lci",
                       fragment_size=1 * MiB, total_bytes=4 * MiB).run(platform=plat)
        assert r.flops_per_s > 0
        assert r.total_flops > 0
        assert "overlap" in r.summary()


class TestComparison:
    class _R:
        def __init__(self, v):
            self.metric = v

    def test_winner_higher_is_better(self):
        c = Comparison("t", {"a": self._R(1.0), "b": self._R(2.0)}, "metric")
        assert c.winner() == "b"

    def test_winner_lower_is_better(self):
        c = Comparison(
            "t", {"a": self._R(1.0), "b": self._R(2.0)}, "metric", higher_is_better=False
        )
        assert c.winner() == "a"

    def test_ratio(self):
        c = Comparison("t", {"a": self._R(1.0), "b": self._R(4.0)}, "metric")
        assert c.ratio("b", "a") == 4.0

    def test_summary_mentions_winner(self):
        c = Comparison("title", {"a": self._R(3.0), "b": self._R(1.0)}, "metric")
        assert "winner: a" in c.summary()

    def test_dict_results_supported(self):
        c = Comparison("t", {"a": {"metric": 5.0}}, "metric")
        assert c.value("a") == 5.0

    def test_missing_metric_raises(self):
        c = Comparison("t", {"a": object()}, "nope")
        with pytest.raises(AttributeError):
            c.value("a")


class TestApiFacade:
    def test_backend_comparison(self):
        import repro

        results = {
            backend: repro.Experiment(
                workload="pingpong", backend=backend, fragment_size=256 * KiB,
                total_bytes=1 * MiB, iterations=3,
            ).run()
            for backend in ("mpi", "lci")
        }
        comp = Comparison("ping-pong", results, "bandwidth_gbit",
                          higher_is_better=True)
        assert set(comp.results) == {"mpi", "lci"}
        assert comp.winner() == "lci"

    def test_run_pingpong_facade(self):
        import repro

        r = repro.Experiment(
            workload="pingpong", backend=repro.BackendKind.MPI,
            fragment_size=128 * KiB, total_bytes=512 * KiB, iterations=3,
        ).run()
        assert r.backend == "mpi"

    def test_run_hicma_facade(self):
        import repro

        r = repro.Experiment(workload="hicma", backend="lci", nodes=2,
                             matrix_size=7200, tile_size=1200).run()
        assert r.tasks > 0
