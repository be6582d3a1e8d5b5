"""End-to-end tests of the PaRSEC-like runtime with both backends."""

import pytest

from repro.config import scaled_platform
from repro.errors import RuntimeBackendError
from repro.runtime import ParsecContext, TaskGraph
from repro.units import KiB, MiB

BACKENDS = ["mpi", "lci"]


def platform(nodes=2, cores=4):
    return scaled_platform(num_nodes=nodes, cores_per_node=cores)


def chain_graph(sizes=(64 * KiB, 64 * KiB)):
    """A → B(on node 1) → C(on node 0) dependency chain."""
    g = TaskGraph()
    a = g.add_task(node=0, duration=10e-6, kind="A")
    f1 = g.add_flow(a, sizes[0])
    b = g.add_task(node=1, duration=10e-6, inputs=[f1], kind="B")
    f2 = g.add_flow(b, sizes[1])
    g.add_task(node=0, duration=10e-6, inputs=[f2], kind="C")
    return g


def fan_out_graph(num_nodes, size=32 * KiB, consumers_per_node=2):
    """One producer, consumers on every node (multicast)."""
    g = TaskGraph()
    a = g.add_task(node=0, duration=5e-6, kind="root")
    f = g.add_flow(a, size)
    for node in range(num_nodes):
        for _ in range(consumers_per_node):
            g.add_task(node=node, duration=5e-6, inputs=[f])
    return g


@pytest.mark.parametrize("backend", BACKENDS)
class TestBasicExecution:
    def test_chain_completes(self, backend):
        ctx = ParsecContext(platform(), backend=backend)
        stats = ctx.run(chain_graph(), until=1.0)
        assert stats.tasks_executed == 3
        assert stats.makespan > 20e-6  # at least the three compute times

    def test_single_node_no_comm(self, backend):
        g = TaskGraph()
        a = g.add_task(node=0, duration=10e-6)
        f = g.add_flow(a, 1 * MiB)
        g.add_task(node=0, duration=10e-6, inputs=[f])
        ctx = ParsecContext(platform(nodes=1), backend=backend)
        stats = ctx.run(g, until=1.0)
        assert stats.tasks_executed == 2
        assert stats.wire_bytes == 0  # all dataflow stayed local

    def test_flow_latency_recorded_per_destination(self, backend):
        ctx = ParsecContext(platform(nodes=4), backend=backend)
        stats = ctx.run(fan_out_graph(4), until=1.0)
        # Flow reaches 3 remote nodes -> 3 end-to-end latency samples.
        assert len(stats.flow_latencies) == 3
        assert all(lat > 0 for lat in stats.flow_latencies)

    def test_multicast_satisfies_all_consumers(self, backend):
        ctx = ParsecContext(platform(nodes=4), backend=backend)
        stats = ctx.run(fan_out_graph(4, consumers_per_node=3), until=1.0)
        assert stats.tasks_executed == 1 + 4 * 3

    def test_parallel_independent_tasks_use_workers(self, backend):
        g = TaskGraph()
        for _ in range(8):
            g.add_task(node=0, duration=100e-6)
        ctx = ParsecContext(platform(nodes=1, cores=4), backend=backend)
        stats = ctx.run(g, until=1.0)
        # 8 tasks of 100 µs on 4 workers ≈ 2 waves, far less than serial.
        assert stats.makespan < 8 * 100e-6 * 0.5
        assert stats.makespan >= 2 * 100e-6

    def test_deterministic_reruns(self, backend):
        r1 = ParsecContext(platform(), backend=backend).run(chain_graph(), until=1.0)
        r2 = ParsecContext(platform(), backend=backend).run(chain_graph(), until=1.0)
        assert r1.makespan == r2.makespan
        assert r1.flow_latencies == r2.flow_latencies

    def test_timeout_raises(self, backend):
        ctx = ParsecContext(platform(), backend=backend)
        with pytest.raises(RuntimeBackendError, match="did not complete"):
            ctx.run(chain_graph(), until=1e-6)

    def test_large_flow_uses_data_path(self, backend):
        g = chain_graph(sizes=(4 * MiB, 4 * MiB))
        ctx = ParsecContext(platform(), backend=backend)
        stats = ctx.run(g, until=1.0)
        assert stats.tasks_executed == 3
        # Wire carried at least the two 4 MiB transfers.
        assert stats.wire_bytes >= 8 * MiB

    def test_priority_order_on_single_worker(self, backend):
        """Higher-priority ready tasks must run first."""
        g = TaskGraph()
        gate = g.add_task(node=0, duration=1e-6, kind="gate")
        f = g.add_flow(gate, 1 * KiB)
        order = []
        low = g.add_task(node=0, duration=1e-6, priority=1.0, inputs=[f], kind="low")
        high = g.add_task(node=0, duration=1e-6, priority=10.0, inputs=[f], kind="high")
        mid = g.add_task(node=0, duration=1e-6, priority=5.0, inputs=[f], kind="mid")
        ctx = ParsecContext(platform(nodes=1, cores=1), backend=backend)
        original = ctx.on_task_done

        def spy(tid):
            order.append(g.task_kind(tid))
            original(tid)

        ctx.on_task_done = spy
        ctx.run(g, until=1.0)
        assert order == ["gate", "high", "mid", "low"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestDataflowBookkeeping:
    def test_cleanup_counters(self, backend):
        ctx = ParsecContext(platform(nodes=2), backend=backend)
        ctx.run(fan_out_graph(2, consumers_per_node=1), until=1.0)
        node0 = ctx.nodes[0]
        # The producer served one remote child and cleaned up.
        assert node0.cleanups_done >= 0
        assert not node0.serves_remaining or all(
            v > 0 for v in node0.serves_remaining.values()
        )

    def test_task_counts_per_node(self, backend):
        ctx = ParsecContext(platform(nodes=2), backend=backend)
        ctx.run(fan_out_graph(2, consumers_per_node=2), until=1.0)
        assert ctx.nodes[0].tasks_executed == 3  # root + 2 consumers
        assert ctx.nodes[1].tasks_executed == 2

    def test_activates_aggregated_when_funneled(self, backend):
        """Many flows completing together toward one destination should be
        aggregated by the comm thread into fewer ACTIVATE messages."""
        g = TaskGraph()
        flows = []
        for _ in range(6):
            t = g.add_task(node=0, duration=1e-6)
            flows.append(g.add_flow(t, 8 * KiB))
        for f in flows:
            g.add_task(node=1, duration=1e-6, inputs=[f])
        ctx = ParsecContext(platform(nodes=2, cores=8), backend=backend)
        stats = ctx.run(g, until=1.0)
        assert stats.tasks_executed == 12
        assert stats.activations_aggregated > 0
        assert stats.activates_sent < 6

    def test_multithreaded_activate_disables_aggregation(self, backend):
        g = TaskGraph()
        flows = []
        for _ in range(6):
            t = g.add_task(node=0, duration=1e-6)
            flows.append(g.add_flow(t, 8 * KiB))
        for f in flows:
            g.add_task(node=1, duration=1e-6, inputs=[f])
        ctx = ParsecContext(
            platform(nodes=2, cores=8), backend=backend, multithreaded_activate=True
        )
        stats = ctx.run(g, until=1.0)
        assert stats.activations_aggregated == 0
        assert stats.activates_sent == 6


class TestBackendComparison:
    def test_lci_lower_latency_than_mpi(self):
        """The paper's headline microbenchmark direction: LCI's end-to-end
        latency is below MPI's for the same workload."""
        lat = {}
        for backend in BACKENDS:
            ctx = ParsecContext(platform(nodes=2), backend=backend)
            stats = ctx.run(chain_graph(), until=1.0)
            lat[backend] = stats.mean_flow_latency
        assert lat["lci"] < lat["mpi"]

    def test_lci_uses_one_fewer_worker(self):
        p = platform(nodes=2, cores=8)
        mpi = ParsecContext(p, backend="mpi").run(chain_graph(), until=1.0)
        lci = ParsecContext(p, backend="lci").run(chain_graph(), until=1.0)
        assert mpi.workers_per_node == 7  # 8 - comm thread
        assert lci.workers_per_node == 6  # 8 - comm - progress thread

    def test_floating_threads_increase_latency(self):
        """§6.1.2: free-floating comm/progress threads showed up to 25 %
        higher mean end-to-end latency than dedicated cores."""
        import dataclasses

        base = platform(nodes=2)
        floating = dataclasses.replace(base, dedicated_comm_cores=False)
        for backend in BACKENDS:
            pinned = ParsecContext(base, backend=backend).run(chain_graph(), until=1.0)
            free = ParsecContext(floating, backend=backend).run(chain_graph(), until=1.0)
            assert free.mean_flow_latency > pinned.mean_flow_latency


class TestClockSyncMeasurement:
    def test_clock_sync_latencies_close_to_truth(self):
        truth = ParsecContext(platform(nodes=2), backend="lci").run(
            chain_graph(), until=1.0
        )
        measured = ParsecContext(
            platform(nodes=2), backend="lci", clock_sync=True
        ).run(chain_graph(), until=1.0)
        assert measured.mean_flow_latency == pytest.approx(
            truth.mean_flow_latency, rel=0.25
        )
        # But not bit-identical: the measurement path has sync error.
        assert measured.flow_latencies != truth.flow_latencies


class TestStressPressure:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_many_concurrent_transfers_no_deadlock(self, backend):
        """Exceed the MPI 30-transfer cap / LCI slot pools in both
        directions simultaneously; everything must still complete."""
        g = TaskGraph()
        n_each = 40
        for src, dst in ((0, 1), (1, 0)):
            for _ in range(n_each):
                t = g.add_task(node=src, duration=1e-6)
                f = g.add_flow(t, 256 * KiB)
                g.add_task(node=dst, duration=1e-6, inputs=[f])
        ctx = ParsecContext(platform(nodes=2, cores=8), backend=backend)
        stats = ctx.run(g, until=5.0)
        assert stats.tasks_executed == 4 * n_each

    def test_unknown_backend_rejected(self):
        with pytest.raises(RuntimeBackendError, match="unknown backend"):
            ParsecContext(platform(), backend="gasnet")
