"""Tests for the Experiment API surface."""

import dataclasses

import pytest

import repro
from repro.errors import ConfigError

KiB = 1024
MiB = 1024 * 1024


class TestExperiment:
    def test_pingpong_run(self):
        result = repro.Experiment(
            workload="pingpong", backend="lci",
            fragment_size=256 * KiB, total_bytes=1 * MiB, iterations=3,
        ).run()
        assert isinstance(result, repro.PingPongResult)
        assert result.backend == "lci"
        assert result.bandwidth_gbit > 0
        assert "Gbit/s" in result.summary()

    def test_backend_enum_and_string_agree(self):
        kw = dict(workload="pingpong", fragment_size=256 * KiB,
                  total_bytes=1 * MiB, iterations=3)
        by_enum = repro.Experiment(backend=repro.BackendKind.MPI, **kw).run()
        by_str = repro.Experiment(backend="mpi", **kw).run()
        assert by_enum == by_str

    def test_results_are_frozen(self):
        result = repro.Experiment(
            workload="overlap", fragment_size=1 * MiB, total_bytes=4 * MiB,
        ).run()
        assert isinstance(result, repro.OverlapResult)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.flops_per_s = 0.0

    def test_hicma_nodes_and_seed(self):
        result = repro.Experiment(
            workload="hicma", nodes=2, seed=1,
            matrix_size=7200, tile_size=1200,
        ).run()
        assert isinstance(result, repro.HicmaResult)
        assert result.time_to_solution > 0
        assert result.tasks > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            repro.Experiment(workload="fft")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            repro.Experiment(workload="pingpong", backend="tcp")

    def test_unknown_param_rejected_eagerly(self):
        with pytest.raises(ConfigError, match="does not accept"):
            repro.Experiment(workload="pingpong", fragmnet_size=1024)

    def test_named_fault_plan_accepted(self):
        from repro.config import FaultConfig

        exp = repro.Experiment(workload="pingpong", faults="drop",
                               fragment_size=256 * KiB)
        assert isinstance(exp.faults, FaultConfig)


class TestCatalogRunGuards:
    """Catalog workloads take ``progress``/``guards`` like hicma does."""

    def _stencil(self):
        return repro.Experiment(workload="stencil", grid=4, steps=2, nodes=2)

    def test_event_budget_aborts_with_partial_stats(self):
        from repro.errors import RunBudgetExceeded
        from repro.supervise import RunGuards

        with pytest.raises(RunBudgetExceeded) as exc_info:
            self._stencil().run(guards=RunGuards(max_events=50, check_every=16))
        partial = exc_info.value.partial
        assert partial is not None
        assert 0 < partial.tasks_executed < 4 * 4 * 2
        assert partial.events_processed >= 50

    def test_generous_guards_and_progress_leave_result_unchanged(self):
        import io

        from repro.obs.progress import ProgressReporter
        from repro.supervise import RunGuards

        plain = self._stencil().run()
        guarded = self._stencil().run(
            guards=RunGuards(max_events=10**9, check_every=16),
            progress=ProgressReporter(interval=3600.0, stream=io.StringIO()),
        )
        assert guarded == plain
