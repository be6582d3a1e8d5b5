"""Paper-scale tractability: build scaling, flow release, run progress.

Covers the three observable guarantees behind ``REPRO_PAPER_SCALE=1``:

- task-graph construction stays (near-)linear in the number of tasks, so
  NT=150 (~575k tasks) builds in seconds, not minutes;
- consumed flow payloads are reference-counted and released, so runtime
  protocol state is bounded by in-flight flows and drains to zero;
- the simulator tick + :class:`~repro.obs.progress.ProgressReporter` emit
  ``run_progress`` heartbeats without perturbing results.
"""

import io
import time

import pytest

from repro.config import scaled_platform
from repro.hicma.dag import build_tlr_cholesky_graph, expected_task_count
from repro.obs import ProgressReporter, memory_of, peak_rss_bytes
from repro.runtime.context import ParsecContext
from repro.sim.core import Simulator
from repro.errors import SimulationError


def _build_seconds(nt: int) -> tuple[float, int]:
    t0 = time.perf_counter()
    g = build_tlr_cholesky_graph(nt, 2400, num_nodes=16)
    g.freeze()
    return time.perf_counter() - t0, g.num_tasks


class TestConstructionScaling:
    def test_build_time_scales_with_task_count(self):
        """Doubling NT grows tasks ~8x; build time must not grow worse.

        The old tuple-reconcatenation builder was quadratic in the consumer
        count, which showed up as far-superlinear growth in exactly this
        comparison.  The factor-3 headroom absorbs allocator and timer
        noise, not algorithmic regressions (quadratic behaviour overshoots
        it by an order of magnitude at these sizes).
        """
        _build_seconds(8)  # warm caches/imports outside the timed pair
        t32, n32 = _build_seconds(32)
        t64, n64 = _build_seconds(64)
        growth = n64 / n32
        assert n32 == expected_task_count(32)
        assert n64 == expected_task_count(64)
        assert t64 < max(t32, 1e-3) * growth * 3, (
            f"build grew {t64 / max(t32, 1e-9):.1f}x for {growth:.1f}x tasks"
        )


class TestFlowRelease:
    @pytest.mark.parametrize("backend", ["lci", "mpi"])
    def test_protocol_state_drains_to_zero(self, backend):
        """After a drained run every ref-counted flow map must be empty.

        The run shape (node-local sink chains after the last remote serve)
        guarantees full drainage here; ``flows_retired`` doubles as proof
        that the release path actually ran.
        """
        platform = scaled_platform(num_nodes=4, cores_per_node=4)
        graph = build_tlr_cholesky_graph(12, 1200, num_nodes=4)
        ctx = ParsecContext(platform, backend=backend)
        stats = ctx.run(graph, until=36_000.0)
        assert stats.tasks_executed == graph.num_tasks
        retired = 0
        for node in ctx.nodes:
            report = node.quiescence_report()
            for key in ("flow_available", "flow_refs", "flow_states",
                        "serves_remaining", "getdata_q", "flow_plans"):
                assert report[key] == 0, (
                    f"{backend} node {node.rank}: {report[key]} {key} "
                    f"entries leaked"
                )
            retired += report["flows_retired"]
        # Every flow is retired on its producer node, and again on every
        # intermediate multicast-tree node that re-released it locally.
        assert retired >= graph.num_flows


class TestSimulatorTick:
    def test_tick_fires_and_clears(self):
        sim = Simulator()
        seen = []
        sim.set_tick(seen.append, every=10)
        for i in range(100):
            sim.call_later(i * 1e-6, lambda: None)
        sim.run()
        assert seen, "tick never fired"
        assert all(b >= 10 for b in seen)
        sim2 = Simulator()
        sim2.set_tick(seen.append, every=10)
        sim2.set_tick(None)
        sim2.call_soon(lambda: None)
        before = len(seen)
        sim2.run()
        assert len(seen) == before

    def test_bad_interval_rejected(self):
        with pytest.raises(SimulationError, match="tick interval"):
            Simulator().set_tick(lambda c: None, every=0)


def _run(backend="lci", progress=None, observability=False):
    platform = scaled_platform(num_nodes=2, cores_per_node=4)
    graph = build_tlr_cholesky_graph(6, 1200, num_nodes=2)
    ctx = ParsecContext(platform, backend=backend, observability=observability)
    stats = ctx.run(graph, until=36_000.0, progress=progress)
    return ctx, stats


class TestRunProgress:
    def test_heartbeats_on_bus(self):
        reporter = ProgressReporter(interval=0.0, every=64)
        ctx, stats = _run(progress=reporter, observability=True)
        beats = memory_of(ctx.obs).by_kind("run_progress")
        assert len(beats) == reporter.beats >= 2
        final = beats[-1].info
        assert final["tasks_done"] == final["tasks_total"] == stats.tasks_executed
        assert final["sim_now"] == pytest.approx(stats.makespan)
        assert final["events_processed"] > 0
        assert final["rss_bytes"] == peak_rss_bytes() > 0
        assert final["eta_seconds"] == 0.0
        # Keys are the beat ordinals, monotonically increasing.
        assert [e.key for e in beats] == list(range(1, len(beats) + 1))

    def test_fast_run_still_emits_final_beat(self):
        reporter = ProgressReporter(interval=3600.0)
        ctx, _ = _run(progress=reporter, observability=True)
        assert len(memory_of(ctx.obs).by_kind("run_progress")) == 1

    def test_stream_lines(self):
        buf = io.StringIO()
        reporter = ProgressReporter(interval=0.0, every=64, stream=buf)
        _run(progress=reporter)
        lines = buf.getvalue().splitlines()
        assert lines and all(ln.startswith("[progress]") for ln in lines)
        assert "100.0%" in lines[-1]

    def test_progress_true_uses_default_reporter(self):
        ctx, _ = _run(progress=True, observability=True)
        assert len(memory_of(ctx.obs).by_kind("run_progress")) >= 1

    def test_progress_series_accessor(self):
        from repro.analysis import progress_series

        ctx, stats = _run(progress=True, observability=True)
        series = progress_series(ctx.obs)
        assert series and series[-1]["tasks_done"] == stats.tasks_executed
        assert [s["beat"] for s in series] == list(range(1, len(series) + 1))

    def test_progress_does_not_perturb_results(self):
        _, base = _run(progress=None)
        _, watched = _run(progress=ProgressReporter(interval=0.0, every=32))
        assert watched.makespan == base.makespan
        assert watched.events_processed == base.events_processed
        assert watched.flow_latencies == base.flow_latencies
