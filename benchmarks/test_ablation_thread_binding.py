"""Ablation A3: dedicated vs. free-floating comm/progress threads (§6.1.2).

The paper pins the communication (and LCI progress) threads to cores in
the NIC's NUMA domain: "tests with free-floating communication and
progress threads showed up to a 25 % increase in mean end-to-end latency".
We toggle the binding and check the latency penalty appears for both
backends.
"""

import dataclasses

import pytest

from repro.analysis.ascii_plot import ascii_table
from repro import Experiment
from repro.config import scaled_platform


@pytest.fixture(scope="module")
def results():
    out = {}
    for backend in ("mpi", "lci"):
        for dedicated in (True, False):
            platform = dataclasses.replace(
                scaled_platform(num_nodes=8, cores_per_node=8),
                dedicated_comm_cores=dedicated,
            )
            out[(backend, dedicated)] = Experiment(
                workload="hicma", backend=backend, nodes=8,
                matrix_size=36_000, tile_size=900,
            ).run(platform=platform)
    return out


def check_floating_latency_penalty(results):
    for backend in ("mpi", "lci"):
        pinned = results[(backend, True)].flow_latency["mean"]
        floating = results[(backend, False)].flow_latency["mean"]
        assert floating > pinned, f"{backend}: no floating-thread penalty"
        # The paper reports "up to 25 %"; allow a broad plausible band.
        assert floating < pinned * 2.0


def check_floating_tts_penalty(results):
    for backend in ("mpi", "lci"):
        assert (
            results[(backend, False)].time_to_solution
            >= results[(backend, True)].time_to_solution * 0.99
        )


def test_ablation_thread_binding(results, benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with capsys.disabled():
        rows = []
        for (backend, dedicated), r in results.items():
            rows.append(
                (backend, "pinned" if dedicated else "floating",
                 f"{r.time_to_solution:.3f}", f"{r.flow_latency['mean'] * 1e3:.3f}")
            )
        print()
        print(
            ascii_table(
                ["backend", "threads", "TTS (s)", "e2e latency (ms)"],
                rows,
                title="Ablation A3: comm/progress thread binding",
            )
        )
    check_floating_latency_penalty(results)
    check_floating_tts_penalty(results)


def test_floating_threads_increase_latency(results):
    check_floating_latency_penalty(results)


def test_floating_threads_do_not_improve_tts(results):
    check_floating_tts_penalty(results)
