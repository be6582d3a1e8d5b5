"""Meta-benchmark: discrete-event simulator throughput.

Not a paper figure — this times the simulation infrastructure itself so
regressions in the DES kernel or the protocol models show up in the
benchmark history.  Reported as events/second of wall time for a
representative HiCMA configuration.
"""

import time

import pytest

from repro import Experiment
from repro.config import scaled_platform
from repro.hicma.dag import build_compression_graph
from repro.runtime import ParsecContext
from repro.sim import Simulator


def test_event_heap_throughput(benchmark):
    """Raw kernel: one million typed-sleep resumes."""

    def run():
        sim = Simulator()

        def proc():
            for _ in range(200_000):
                yield 1e-6

        for _ in range(5):
            sim.process(proc())
        sim.run()
        return sim.events_processed

    events = benchmark.pedantic(run, rounds=1, iterations=1)
    assert events >= 1_000_000


def test_hicma_simulation_throughput(benchmark, capsys):
    """Full-stack: events/second for a NT=40 HiCMA run (LCI backend)."""

    seen = []

    def run():
        t0 = time.perf_counter()
        r = Experiment(
            workload="hicma", backend="lci", nodes=8,
            matrix_size=36_000, tile_size=900,
        ).run(ctx_observer=seen.append)
        return r, time.perf_counter() - t0

    (result, wall) = benchmark.pedantic(run, rounds=1, iterations=1)
    events = seen[-1].sim.events_processed
    with capsys.disabled():
        print(
            f"\nsimulator throughput: {result.tasks} tasks, "
            f"{events:,} events, wall {wall:.2f}s "
            f"({events / wall:,.0f} ev/s)"
        )
    # NT=40: 40 potrf + 780 trsm + 780 syrk + 9880 gemm.
    assert result.tasks == 11_480


def test_compression_phase_scales_with_nodes(benchmark):
    """The phase-1 graph is embarrassingly parallel: more nodes, less time."""
    times = {}
    for nodes in (2, 8):
        g = build_compression_graph(24, 1500, num_nodes=nodes)
        ctx = ParsecContext(
            scaled_platform(num_nodes=nodes, cores_per_node=8), backend="lci"
        )
        times[nodes] = ctx.run(g, until=600.0).makespan
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert times[8] < times[2] / 2.5
