"""Ablation A6: the MPI eager→rendezvous threshold.

§4.2.1 relies on active messages falling "within the range where MPI
implementations will use an 'eager' communication protocol".  We sweep the
threshold to show that dropping AMs (and handshakes) out of the eager range
— forcing rendezvous round trips for control traffic — degrades latency,
while an absurdly large threshold buys little (bulk data dominates then).
"""

import dataclasses

import pytest

from repro.analysis.ascii_plot import ascii_table
from repro.config import scaled_platform
from repro.runtime.context import ParsecContext
from repro.units import KiB
from repro.workloads.generators import chain


#: Thresholds must keep active messages in the eager range (the backend's
#: contract, §4.2.1) — the smallest value still fits a one-activation AM
#: (320 B) and the put handshake, but forces the 8 KiB data flows through
#: the rendezvous protocol.
THRESHOLDS = [512, 16 * KiB, 1024 * KiB]


@pytest.fixture(scope="module")
def results():
    out = {}
    for thresh in THRESHOLDS:
        base = scaled_platform(num_nodes=2, cores_per_node=4)
        platform = dataclasses.replace(
            base, mpi=dataclasses.replace(base.mpi, rendezvous_threshold=thresh)
        )
        ctx = ParsecContext(platform, backend="mpi")
        g = chain(60, num_nodes=2, flow_bytes=8 * KiB, duration=2e-6)
        out[thresh] = ctx.run(g, until=30.0)
    return out


def check_tiny_threshold_hurts_latency(results):
    """Data flows forced through rendezvous add an RTS/CTS round trip."""
    assert (
        results[512].mean_flow_latency
        > results[16 * KiB].mean_flow_latency * 1.05
    )


def check_huge_threshold_no_miracle(results):
    """Raising the threshold beyond the flow size changes nothing more
    (8 KiB flows are already eager at 16 KiB)."""
    ratio = results[1024 * KiB].mean_flow_latency / results[16 * KiB].mean_flow_latency
    assert 0.9 <= ratio <= 1.1


def test_ablation_rndv_threshold(results, benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with capsys.disabled():
        rows = [
            (f"{t} B", f"{r.makespan * 1e3:.3f}", f"{r.mean_flow_latency * 1e6:.1f}")
            for t, r in results.items()
        ]
        print()
        print(
            ascii_table(
                ["rendezvous threshold", "makespan (ms)", "e2e latency (us)"],
                rows,
                title="Ablation A6: MPI eager/rendezvous threshold "
                "(latency chain, 32 KiB flows)",
            )
        )
    check_tiny_threshold_hurts_latency(results)
    check_huge_threshold_no_miracle(results)


def test_tiny_threshold_hurts(results):
    check_tiny_threshold_hurts_latency(results)


def test_huge_threshold_bounded_gain(results):
    check_huge_threshold_no_miracle(results)
