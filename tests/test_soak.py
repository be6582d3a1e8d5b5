"""Soak tests: larger randomized workloads through the full stack."""

import pytest

from repro import Experiment
from repro.config import scaled_platform
from repro.runtime import ParsecContext
from repro.units import KiB, MiB
from repro.workloads.generators import random_layered_dag


class TestSoakRandomDag:
    @pytest.mark.parametrize("backend", ["mpi", "lci"])
    def test_two_thousand_task_dag(self, backend):
        g = random_layered_dag(
            layers=[50] * 40, num_nodes=4, fan_in=2, flow_bytes=24 * KiB, seed=99
        )
        assert g.num_tasks == 2000
        ctx = ParsecContext(
            scaled_platform(num_nodes=4, cores_per_node=4), backend=backend
        )
        stats = ctx.run(g, until=120.0)
        assert stats.tasks_executed == 2000
        assert stats.flow_latencies  # cross-node flows occurred
        assert 0 < stats.worker_utilization <= 1.0

    def test_all_features_combined_soak(self):
        """Native put + work stealing + 2 comm threads + MT activate +
        tracing, all at once, on a random DAG."""
        g = random_layered_dag(
            layers=[30] * 20, num_nodes=3, fan_in=2, flow_bytes=64 * KiB, seed=41
        )
        ctx = ParsecContext(
            scaled_platform(num_nodes=3, cores_per_node=4),
            backend="lci",
            native_put=True,
            scheduler="ws",
            num_comm_threads=2,
            multithreaded_activate=True,
            observability=True,
        )
        stats = ctx.run(g, until=120.0)
        assert stats.tasks_executed == g.num_tasks
        from repro.analysis.gantt import worker_intervals

        assert worker_intervals(ctx.obs)  # tracing captured executions


class TestMultiNodeStreams:
    def test_ring_streams_use_every_node(self):
        """§6.2: with P streams on P nodes, every node sends and receives
        concurrently each iteration."""
        nodes = 4
        r = Experiment(
            workload="pingpong",
            backend="lci",
            nodes=nodes,
            fragment_size=256 * KiB,
            streams=nodes,
            total_bytes=2 * MiB,
            iterations=4,
            sync=False,
        ).run()
        assert r.tasks > 0
        # Aggregate bandwidth beyond a single link's unidirectional rate:
        # 4 rings drive all 4 NICs simultaneously.
        assert r.bandwidth_gbit > 150.0

    def test_multi_node_pingpong_deterministic(self):
        exp = Experiment(
            workload="pingpong", backend="mpi", nodes=3,
            fragment_size=128 * KiB, streams=3,
            total_bytes=1 * MiB, iterations=3,
        )
        a = exp.run()
        b = exp.run()
        assert a.bandwidth == b.bandwidth
