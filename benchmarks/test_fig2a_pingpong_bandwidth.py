"""Figure 2a: one-stream ping-pong bandwidth vs. task granularity (§6.2).

Regenerates the three curves — LCI backend, Open MPI backend, NetPIPE
baseline — and checks the paper's findings:

- both backends reach near-peak (~100 Gbit/s) bandwidth with coarse tasks;
- performance decays as fragments shrink, MPI first;
- LCI sustains a given efficiency at tasks ≈2.8× smaller than MPI
  (paper: 2.83×).
"""

import pytest

from repro.analysis.ascii_plot import ascii_chart, ascii_table
from repro import Experiment
from repro.bench import paper_data
from repro.bench.pingpong import default_granularities
from repro.config import NetworkConfig
from repro.network.netpipe import netpipe_bandwidth_curve
from repro.units import gbit_per_s


@pytest.fixture(scope="module")
def curves():
    sizes = default_granularities()
    out = {"mpi": [], "lci": []}
    for backend in ("mpi", "lci"):
        for size in sizes:
            r = Experiment(workload="pingpong", backend=backend, fragment_size=size).run()
            out[backend].append((size, r.bandwidth_gbit))
    out["netpipe"] = [
        (s, gbit_per_s(bw)) for s, bw in netpipe_bandwidth_curve(sizes, NetworkConfig())
    ]
    return out


def _iso_bandwidth_size(curve, target_gbit):
    """Interpolate the fragment size where a curve crosses target_gbit."""
    for (s0, b0), (s1, b1) in zip(curve, curve[1:]):
        if b0 <= target_gbit <= b1:
            frac = (target_gbit - b0) / (b1 - b0)
            return s0 + frac * (s1 - s0)
    return None


def render(curves) -> str:
    chart = ascii_chart(
        curves,
        title="Fig 2a: PaRSEC ping-pong bandwidth, one stream",
        logx=True,
        x_label="granularity (bytes)",
        y_label="Gbit/s",
    )
    rows = [
        (f"{s // 1024} KiB",)
        + tuple(f"{dict(curves[k]).get(s, float('nan')):.1f}" for k in ("mpi", "lci", "netpipe"))
        for s, _ in curves["mpi"]
    ]
    table = ascii_table(
        ["granularity", "Open MPI Gbit/s", "LCI Gbit/s", "NetPIPE Gbit/s"], rows
    )
    mpi_size = _iso_bandwidth_size(curves["mpi"], 60.0)
    lci_size = _iso_bandwidth_size(curves["lci"], 60.0)
    ratio = mpi_size / lci_size if mpi_size and lci_size else float("nan")
    note = (
        f"iso-bandwidth (60 Gbit/s) granularity ratio MPI/LCI: {ratio:.2f} "
        f"(paper: {paper_data.FIG2A_GRANULARITY_RATIO})"
    )
    return "\n".join([chart, table, note])


def check_near_peak(curves):
    for backend in ("mpi", "lci"):
        peak = max(bw for _s, bw in curves[backend])
        assert peak > 0.88 * paper_data.FIG2A_PEAK_GBIT


def check_lci_dominates(curves):
    for (s, mpi_bw), (_s2, lci_bw) in zip(curves["mpi"], curves["lci"]):
        assert lci_bw >= mpi_bw, f"MPI beat LCI at {s} B"


def check_monotone(curves):
    for backend in ("mpi", "lci"):
        bws = [bw for _s, bw in curves[backend]]
        assert all(b2 >= b1 * 0.95 for b1, b2 in zip(bws, bws[1:]))


def check_granularity_ratio(curves):
    mpi_size = _iso_bandwidth_size(curves["mpi"], 60.0)
    lci_size = _iso_bandwidth_size(curves["lci"], 60.0)
    assert mpi_size is not None and lci_size is not None
    ratio = mpi_size / lci_size
    assert 1.8 <= ratio <= 4.5, (
        f"granularity ratio {ratio:.2f} out of range vs paper "
        f"{paper_data.FIG2A_GRANULARITY_RATIO}"
    )


def check_netpipe_bound(curves):
    np_bw = dict(curves["netpipe"])
    for backend in ("mpi", "lci"):
        s, bw = curves[backend][-1]
        assert np_bw[s] >= bw * 0.95


def test_fig2a_regenerate(curves, benchmark, capsys):
    """Regenerates Fig. 2a and verifies every reported property.

    The benchmark fixture times one representative simulation (LCI at the
    paper's 128 KiB comparison point)."""
    from repro.units import KiB

    benchmark.pedantic(
        Experiment(workload="pingpong", backend="lci", fragment_size=128 * KiB).run,
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(render(curves))
    check_near_peak(curves)
    check_lci_dominates(curves)
    check_monotone(curves)
    check_granularity_ratio(curves)
    check_netpipe_bound(curves)


def test_both_backends_reach_near_peak(curves):
    check_near_peak(curves)


def test_lci_dominates_mpi_at_every_granularity(curves):
    check_lci_dominates(curves)


def test_bandwidth_monotone_in_granularity(curves):
    check_monotone(curves)


def test_granularity_ratio_matches_paper(curves):
    check_granularity_ratio(curves)


def test_netpipe_baseline_bounds_runtime_curves(curves):
    check_netpipe_bound(curves)
