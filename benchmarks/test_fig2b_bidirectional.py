"""Figure 2b: two-stream (bidirectional) ping-pong bandwidth (§6.2).

Curves: LCI and Open MPI with inter-iteration synchronization, and both
with the synchronization removed.  Checks the paper's findings:

- removing the Sync task recovers bandwidth lost to serialization,
  letting both backends approach peak bidirectional rate;
- LCI again sustains smaller fragments than MPI;
- aggregate bidirectional bandwidth exceeds the unidirectional peak.
"""

import pytest

from repro.analysis.ascii_plot import ascii_chart
from repro import Experiment
from repro.bench import paper_data
from repro.bench.pingpong import default_granularities
from repro.units import KiB


@pytest.fixture(scope="module")
def curves():
    sizes = default_granularities()
    out = {}
    for backend in ("mpi", "lci"):
        for sync in (True, False):
            key = f"{backend}{'' if sync else ' (no sync)'}"
            pts = []
            for size in sizes:
                r = Experiment(
                    workload="pingpong", backend=backend,
                    fragment_size=size, streams=2, sync=sync,
                ).run()
                pts.append((size, r.bandwidth_gbit))
            out[key] = pts
    return out


def check_no_sync_recovers(curves):
    for backend in ("mpi", "lci"):
        sync_last = curves[backend][-1][1]
        nosync_last = curves[f"{backend} (no sync)"][-1][1]
        assert nosync_last >= sync_last * 0.99


def check_bidirectional_peak(curves):
    peak = max(bw for key in curves for _s, bw in curves[key])
    assert peak > 1.5 * paper_data.FIG2A_PEAK_GBIT


def check_lci_dominates(curves):
    for (s, mpi_bw), (_s, lci_bw) in zip(curves["mpi"], curves["lci"]):
        assert lci_bw >= mpi_bw * 0.98, f"MPI beat LCI at {s} B"


def check_activate_aggregation(sync_r, nosync_r):
    """§6.2: less synchronization ⇒ fewer ACTIVATEs aggregated."""
    assert nosync_r.activates_sent > 0 and sync_r.activates_sent > 0
    per_iter_nosync = nosync_r.activates_sent / len(nosync_r.iteration_times)
    per_iter_sync = sync_r.activates_sent / len(sync_r.iteration_times)
    assert per_iter_nosync > 0.3 * per_iter_sync


def test_fig2b_regenerate(curves, benchmark, capsys):
    benchmark.pedantic(
        Experiment(
            workload="pingpong", backend="lci", fragment_size=256 * KiB, streams=2
        ).run,
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(
            ascii_chart(
                curves,
                title="Fig 2b: ping-pong bandwidth, two streams",
                logx=True,
                x_label="granularity (bytes)",
                y_label="Gbit/s",
            )
        )
    check_no_sync_recovers(curves)
    check_bidirectional_peak(curves)
    check_lci_dominates(curves)


def test_no_sync_recovers_lost_bandwidth(curves):
    check_no_sync_recovers(curves)


def test_bidirectional_exceeds_unidirectional_peak(curves):
    check_bidirectional_peak(curves)


def test_lci_dominates_mpi_bidirectional(curves):
    check_lci_dominates(curves)


def test_no_sync_changes_activate_aggregation(curves):
    size = default_granularities()[0]
    sync_r = Experiment(
        workload="pingpong", backend="lci", fragment_size=size, streams=2, sync=True
    ).run()
    nosync_r = Experiment(
        workload="pingpong", backend="lci", fragment_size=size, streams=2, sync=False
    ).run()
    check_activate_aggregation(sync_r, nosync_r)
