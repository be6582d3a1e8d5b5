"""Execution-invariance matrix: communication options never change *what*
executes — only when.

"Since the PaRSEC runtime core is unchanged, the task management overhead
must be identical, so differences in performance must be due to
communication management" (§6.2).  The same must hold in the reproduction:
across every backend / option combination, the same tasks run and the same
remote dataflows are delivered.
"""

import itertools

import pytest

from repro.config import scaled_platform
from repro.runtime import ParsecContext
from repro.workloads.generators import random_layered_dag


CONFIGS = [
    {"backend": "mpi"},
    {"backend": "mpi", "multithreaded_activate": True},
    {"backend": "mpi", "mpi_put_mode": "rma"},
    {"backend": "lci"},
    {"backend": "lci", "multithreaded_activate": True},
    {"backend": "lci", "native_put": True},
    {"backend": "lci", "num_comm_threads": 2, "num_progress_threads": 2},
]


@pytest.fixture(scope="module")
def runs():
    out = {}
    for i, kwargs in enumerate(CONFIGS):
        g = random_layered_dag([4, 6, 6, 4], num_nodes=3, seed=11)
        ctx = ParsecContext(
            scaled_platform(num_nodes=3, cores_per_node=3), **kwargs
        )
        out[i] = (kwargs, ctx.run(g, until=30.0), g)
    return out


def test_all_configurations_complete(runs):
    for _i, (kwargs, stats, g) in runs.items():
        assert stats.tasks_executed == g.num_tasks, kwargs


def test_same_flow_delivery_counts(runs):
    counts = {
        i: len(stats.flow_latencies) for i, (_k, stats, _g) in runs.items()
    }
    assert len(set(counts.values())) == 1, counts


def test_same_task_totals_across_configs(runs):
    totals = {i: stats.tasks_executed for i, (_k, stats, _g) in runs.items()}
    assert len(set(totals.values())) == 1


def test_timings_differ_between_backends(runs):
    """Sanity that the matrix isn't vacuous: timing DOES vary."""
    makespans = {i: stats.makespan for i, (_k, stats, _g) in runs.items()}
    assert len(set(round(m, 9) for m in makespans.values())) > 1
