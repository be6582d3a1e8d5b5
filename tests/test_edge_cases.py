"""Edge-case and failure-injection tests across subsystems."""

import pytest

from repro import errors
from repro.config import NetworkConfig, scaled_platform
from repro.network import Fabric, MessageClass, WireMessage
from repro.runtime import ParsecContext, TaskGraph
from repro.runtime.context import RunStats
from repro.sim.core import Simulator
from repro.units import KiB, MiB, US


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "SimulationError",
            "NetworkError",
            "MpiError",
            "LciError",
            "RuntimeBackendError",
            "HicmaError",
            "BenchmarkError",
        ):
            exc_type = getattr(errors, name)
            assert issubclass(exc_type, errors.ReproError)
            assert issubclass(exc_type, Exception)


class TestSimFailurePropagation:
    def test_exception_in_callback_surfaces(self):
        sim = Simulator()
        evt = sim.event()
        evt.add_callback(lambda e: (_ for _ in ()).throw(KeyError("cb")))
        evt.succeed()
        with pytest.raises(KeyError):
            sim.run()


class TestNicPriorityUnderLoad:
    def test_control_latency_flat_behind_bulk_data(self):
        """Control messages must not queue behind a large data backlog."""
        sim = Simulator()
        fabric = Fabric(sim, 2, NetworkConfig())
        ctrl_arrivals = []
        fabric.register_handler(
            1,
            "t",
            lambda m: ctrl_arrivals.append(sim.now)
            if m.msg_class == MessageClass.CONTROL
            else None,
        )
        # 16 MiB of bulk data queued first.
        for _ in range(4):
            fabric.send(
                WireMessage(src=0, dst=1, size=4 * MiB, msg_class=MessageClass.DATA, channel="t")
            )
        fabric.send(
            WireMessage(src=0, dst=1, size=128, msg_class=MessageClass.CONTROL, channel="t")
        )
        sim.run()
        assert len(ctrl_arrivals) == 1
        # Bulk alone would take ~1.3 ms; control must arrive in microseconds.
        assert ctrl_arrivals[0] < 20 * US


class TestRunStats:
    def test_summary_mentions_key_figures(self):
        stats = RunStats(
            backend="lci",
            num_nodes=4,
            workers_per_node=6,
            makespan=0.5,
            tasks_executed=100,
            flow_latencies=[1e-3, 2e-3],
            busy_time_total=6.0,
        )
        text = stats.summary()
        assert "lci" in text and "100 tasks" in text
        assert "end-to-end latency" in text

    def test_empty_latency_stats(self):
        stats = RunStats(backend="mpi", num_nodes=1, workers_per_node=2)
        assert stats.mean_flow_latency == 0.0
        assert stats.worker_utilization == 0.0

    def test_utilization_formula(self):
        stats = RunStats(
            backend="mpi",
            num_nodes=2,
            workers_per_node=2,
            makespan=1.0,
            busy_time_total=2.0,
        )
        assert stats.worker_utilization == pytest.approx(0.5)


class TestRuntimeEdges:
    def test_zero_size_flow_crosses_network(self):
        g = TaskGraph()
        t = g.add_task(node=0, duration=1e-6)
        f = g.add_flow(t, 0)
        g.add_task(node=1, duration=1e-6, inputs=[f])
        for backend in ("mpi", "lci"):
            ctx = ParsecContext(
                scaled_platform(num_nodes=2, cores_per_node=2), backend=backend
            )
            stats = ctx.run(g, until=5.0)
            assert stats.tasks_executed == 2

    def test_zero_duration_tasks(self):
        g = TaskGraph()
        prev = None
        for i in range(5):
            inputs = [prev] if prev is not None else []
            t = g.add_task(node=i % 2, duration=0.0, inputs=inputs)
            prev = g.add_flow(t, 4 * KiB)
        ctx = ParsecContext(scaled_platform(num_nodes=2, cores_per_node=2))
        stats = ctx.run(g, until=5.0)
        assert stats.tasks_executed == 5

    def test_flow_with_no_consumers(self):
        g = TaskGraph()
        t = g.add_task(node=0, duration=1e-6)
        g.add_flow(t, 1 * MiB)  # dead-end output
        g.add_task(node=0, duration=1e-6)
        ctx = ParsecContext(scaled_platform(num_nodes=1, cores_per_node=2))
        stats = ctx.run(g, until=5.0)
        assert stats.tasks_executed == 2
        assert stats.wire_bytes == 0

    def test_wide_multicast(self):
        """One flow consumed on 7 remote nodes exercises a deep tree."""
        g = TaskGraph()
        t = g.add_task(node=0, duration=1e-6)
        f = g.add_flow(t, 64 * KiB)
        for node in range(1, 8):
            g.add_task(node=node, duration=1e-6, inputs=[f])
        for backend in ("mpi", "lci"):
            ctx = ParsecContext(
                scaled_platform(num_nodes=8, cores_per_node=2), backend=backend
            )
            stats = ctx.run(g, until=5.0)
            assert stats.tasks_executed == 8
            assert len(stats.flow_latencies) == 7

    def test_self_loop_free_diamond(self):
        """Diamond dependency (two paths reconverging) on two nodes."""
        g = TaskGraph()
        a = g.add_task(node=0, duration=1e-6)
        f1 = g.add_flow(a, 8 * KiB)
        f2 = g.add_flow(a, 8 * KiB)
        b = g.add_task(node=1, duration=1e-6, inputs=[f1])
        c = g.add_task(node=1, duration=1e-6, inputs=[f2])
        fb = g.add_flow(b, 8 * KiB)
        fc = g.add_flow(c, 8 * KiB)
        g.add_task(node=0, duration=1e-6, inputs=[fb, fc])
        ctx = ParsecContext(scaled_platform(num_nodes=2, cores_per_node=2))
        stats = ctx.run(g, until=5.0)
        assert stats.tasks_executed == 4

    def test_run_reuse_rejected_semantics(self):
        """A context is one-shot: a second run on the same context must not
        silently misbehave (executed counter carries over)."""
        g = TaskGraph()
        g.add_task(node=0, duration=1e-6)
        ctx = ParsecContext(scaled_platform(num_nodes=1, cores_per_node=2))
        ctx.run(g, until=1.0)
        assert ctx.stopped is True


class TestNetpipeConfig:
    def test_custom_bandwidth_respected(self):
        from repro.network.netpipe import netpipe_bandwidth_curve
        from repro.units import gbit_per_s

        slow = NetworkConfig(bandwidth=12.5e8)  # 10 Gbit/s
        ((_, bw),) = netpipe_bandwidth_curve([8 * MiB], slow)
        assert gbit_per_s(bw) < 10.5
