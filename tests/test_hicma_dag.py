"""Tests for the HiCMA simulation models: ranks, timing, DAG, execution."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.config import scaled_platform
from repro.errors import HicmaError
from repro.hicma import (
    KernelTimeModel,
    RankModel,
    SqExpProblem,
    TLRMatrix,
    build_tlr_cholesky_graph,
    block_cyclic_node,
)
from repro.hicma.dag import expected_task_count, process_grid
from repro.runtime import ParsecContext


class TestRankModel:
    def test_paper_calibration_point(self):
        """N=360,000, tile 1200 (§6.4.2): mean rank ≈ 10.44, max 29."""
        model = RankModel(nt=300, tile_size=1200, maxrank=150)
        assert model.mean_rank() == pytest.approx(10.44, rel=0.15)
        assert model.max_rank() == pytest.approx(29, abs=2)

    def test_paper_tile_bytes(self):
        """Mean packed tile ≈ 196 KiB; largest ≈ 544 KiB (paper §6.4.2)."""
        model = RankModel(nt=300, tile_size=1200, maxrank=150)
        mean_bytes = 2 * 1200 * model.mean_rank() * 8
        assert mean_bytes == pytest.approx(196 * 1024, rel=0.15)
        assert model.tile_bytes(0, 1) == pytest.approx(544 * 1024, rel=0.15)

    def test_rank_decays_with_distance(self):
        model = RankModel(nt=64, tile_size=2400)
        ranks = [model.rank(0, d) for d in range(1, 64)]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))
        assert ranks[-1] >= 1

    def test_rank_grows_with_tile_size(self):
        small = RankModel(nt=32, tile_size=1200).rank(0, 1)
        big = RankModel(nt=32, tile_size=4800).rank(0, 1)
        assert big > small

    def test_maxrank_cap(self):
        model = RankModel(nt=16, tile_size=100000, maxrank=150)
        assert model.rank(0, 1) <= 150

    def test_diagonal_rejected(self):
        with pytest.raises(HicmaError):
            RankModel(nt=4, tile_size=100).rank(2, 2)

    def test_model_shape_matches_real_compression(self):
        """The model's decay shape must match actually-measured ranks."""
        prob = SqExpProblem(1024, beta=0.15, seed=20)
        tlr = TLRMatrix.from_problem(prob, tile_size=128, tol=1e-8, maxrank=100)
        real = tlr.ranks()
        nt = tlr.nt
        real_near = np.mean([real[i + 1, i] for i in range(nt - 1)])
        real_far = real[nt - 1, 0]
        assert real_near > real_far  # same qualitative decay as the model


class TestKernelTimeModel:
    def setup_method(self):
        self.tm = KernelTimeModel()

    def test_potrf_cubic_scaling(self):
        assert self.tm.potrf(2400) == pytest.approx(8 * self.tm.potrf(1200))

    def test_trsm_scales_with_rank(self):
        assert self.tm.trsm(1200, 20) == pytest.approx(2 * self.tm.trsm(1200, 10))

    def test_gemm_flops_dominated_by_recompression(self):
        """LR GEMM ≈ 6·b·(2r)²: far below a dense GEMM's 2·b³."""
        b, r = 1200, 10
        assert self.tm.gemm_flops(b, r) < 2 * b**3 / 100

    def test_durations_positive_and_ordered(self):
        b, r = 2400, 12
        assert 0 < self.tm.gemm(b, r) < self.tm.potrf(b)

    def test_diag_cores_speedup(self):
        serial = KernelTimeModel(diag_cores=1)
        parallel = KernelTimeModel(diag_cores=4)
        assert parallel.potrf(2400) == pytest.approx(serial.potrf(2400) / 4)

    def test_invalid_diag_cores(self):
        with pytest.raises(HicmaError):
            KernelTimeModel(diag_cores=0)

    def test_total_flops_grows_superlinearly_in_nt(self):
        t = self.tm
        # The GEMM term is cubic in NT but POTRF/TRSM terms are not, so the
        # doubling ratio sits between quadratic (4×) and cubic (8×).
        ratio = t.total_flops(64, 1200, 10) / t.total_flops(32, 1200, 10)
        assert 3.0 < ratio < 8.0


class TestProcessGrid:
    def test_square_counts(self):
        assert process_grid(16) == (4, 4)
        assert process_grid(4) == (2, 2)

    def test_non_square_counts(self):
        assert process_grid(8) == (2, 4)
        assert process_grid(2) == (1, 2)
        assert process_grid(1) == (1, 1)

    def test_block_cyclic_covers_all_nodes(self):
        p, q = process_grid(8)
        owners = {
            block_cyclic_node(i, j, p, q) for i in range(8) for j in range(8)
        }
        assert owners == set(range(8))


class TestDagConstruction:
    def test_task_count_formula(self):
        for nt in (2, 3, 5, 8):
            g = build_tlr_cholesky_graph(nt, 256, num_nodes=2)
            assert g.num_tasks == expected_task_count(nt)

    def test_kind_counts(self):
        nt = 6
        g = build_tlr_cholesky_graph(nt, 256, num_nodes=2)
        kinds = {}
        for t in g.tasks.values():
            kinds[t.kind] = kinds.get(t.kind, 0) + 1
        assert kinds["potrf"] == nt
        assert kinds["trsm"] == nt * (nt - 1) // 2
        assert kinds["syrk"] == nt * (nt - 1) // 2
        assert kinds["gemm"] == nt * (nt - 1) * (nt - 2) // 6

    def test_graph_is_valid_dag(self):
        g = build_tlr_cholesky_graph(8, 512, num_nodes=4)
        g.validate(num_nodes=4)

    def test_two_flow_doubles_trsm_flows(self):
        g1 = build_tlr_cholesky_graph(5, 256, num_nodes=2, two_flow=False)
        g2 = build_tlr_cholesky_graph(5, 256, num_nodes=2, two_flow=True)
        assert g2.num_flows > g1.num_flows

    def test_two_flow_halves_message_size_not_volume(self):
        g1 = build_tlr_cholesky_graph(6, 256, num_nodes=4, two_flow=False)
        g2 = build_tlr_cholesky_graph(6, 256, num_nodes=4, two_flow=True)
        assert g2.total_remote_bytes() == pytest.approx(
            g1.total_remote_bytes(), rel=0.05
        )

    def test_potrf_has_highest_priority(self):
        g = build_tlr_cholesky_graph(4, 256, num_nodes=1)
        by_kind = {}
        for t in g.tasks.values():
            by_kind.setdefault(t.kind, []).append(t.priority)
        assert min(by_kind["potrf"]) > max(by_kind["trsm"])
        assert min(by_kind["trsm"]) > max(by_kind["syrk"])
        assert min(by_kind["syrk"]) > max(by_kind["gemm"])

    def test_early_steps_prioritized(self):
        g = build_tlr_cholesky_graph(6, 256, num_nodes=1)
        potrfs = sorted(
            (t for t in g.tasks.values() if t.kind == "potrf"),
            key=lambda t: t.task_id,
        )
        prios = [t.priority for t in potrfs]
        assert prios == sorted(prios, reverse=True)

    def test_invalid_nt_rejected(self):
        with pytest.raises(HicmaError):
            build_tlr_cholesky_graph(0, 256, num_nodes=1)


class TestDagExecution:
    @pytest.mark.parametrize("backend", ["mpi", "lci"])
    def test_small_cholesky_runs_on_runtime(self, backend):
        g = build_tlr_cholesky_graph(8, 1200, num_nodes=4)
        ctx = ParsecContext(
            scaled_platform(num_nodes=4, cores_per_node=4), backend=backend
        )
        stats = ctx.run(g, until=60.0)
        assert stats.tasks_executed == expected_task_count(8)
        assert stats.flow_latencies  # remote dataflows happened

    def test_lci_latency_below_mpi_on_cholesky(self):
        results = {}
        for backend in ("mpi", "lci"):
            g = build_tlr_cholesky_graph(10, 1200, num_nodes=4)
            ctx = ParsecContext(
                scaled_platform(num_nodes=4, cores_per_node=4), backend=backend
            )
            results[backend] = ctx.run(g, until=120.0)
        assert (
            results["lci"].mean_flow_latency < results["mpi"].mean_flow_latency
        )

    def test_single_node_faster_per_task_than_multi(self):
        """Sanity: distributing a tiny graph adds communication time."""
        g1 = build_tlr_cholesky_graph(6, 1200, num_nodes=1)
        gn = build_tlr_cholesky_graph(6, 1200, num_nodes=4)
        t1 = ParsecContext(
            scaled_platform(num_nodes=1, cores_per_node=16), backend="lci"
        ).run(g1, until=60.0)
        tn = ParsecContext(
            scaled_platform(num_nodes=4, cores_per_node=4), backend="lci"
        ).run(gn, until=60.0)
        assert t1.wire_bytes == 0
        assert tn.wire_bytes > 0


def test_simulated_run_does_not_load_scipy():
    """The numerics (the only SciPy users) load lazily, on first use."""
    code = (
        "import sys\n"
        "from repro import Experiment\n"
        "Experiment(workload='hicma', backend='lci', nodes=4,\n"
        "           matrix_size=4800, tile_size=600).run()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "from repro.hicma import tlr_cholesky\n"
        "print('scipy' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]
