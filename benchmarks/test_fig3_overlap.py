"""Figure 3: computation/communication overlap with GEMM-like intensity
(§6.3).

Curves: LCI, Open MPI, plus the analytic "Roofline" (perfect overlap) and
"No Overlap" references.  Checks the paper's findings:

- at large fragments both backends track the bounds (parallelism-limited);
- as fragments shrink, MPI collapses first: LCI ≈2× MPI at 128 KiB and
  roughly an order of magnitude faster at 32 KiB;
- measured performance never exceeds the roofline.
"""

import pytest

from repro.analysis.ascii_plot import ascii_chart, ascii_table
from repro import Experiment
from repro.bench import paper_data
from repro.bench.overlap import OverlapConfig, no_overlap_flops, roofline_flops
from repro.config import paper_scale_enabled, scaled_platform
from repro.units import KiB, MiB


def overlap_sizes():
    if paper_scale_enabled():
        return [32 * KiB * (2**i) for i in range(9)]  # 32 KiB .. 8 MiB
    return [32 * KiB, 128 * KiB, 512 * KiB, 2 * MiB, 8 * MiB]


@pytest.fixture(scope="module")
def platform():
    return scaled_platform(num_nodes=2)


@pytest.fixture(scope="module")
def curves(platform):
    out = {"mpi": [], "lci": [], "roofline": [], "no overlap": []}
    for size in overlap_sizes():
        cfg = OverlapConfig(fragment_size=size)
        for backend in ("mpi", "lci"):
            r = Experiment(workload="overlap", backend=backend,
                           fragment_size=size).run(platform=platform)
            out[backend].append((size, r.flops_per_s / 1e12))
        out["roofline"].append((size, roofline_flops(cfg, platform) / 1e12))
        out["no overlap"].append((size, no_overlap_flops(cfg, platform) / 1e12))
    return out


def check_ratio_at(curves, size, min_ratio):
    mpi = dict(curves["mpi"]).get(size)
    lci = dict(curves["lci"]).get(size)
    assert mpi is not None and lci is not None
    assert lci / mpi >= min_ratio, f"LCI/MPI={lci / mpi:.2f} at {size} B"


def check_roofline_bounds(curves):
    roof = dict(curves["roofline"])
    for backend in ("mpi", "lci"):
        for size, tf in curves[backend]:
            assert tf <= roof[size] * 1.1, f"{backend} above roofline at {size}"


def check_convergence_at_large(curves):
    """With coarse tasks the backends perform alike (within 10 %)."""
    size = overlap_sizes()[-1]
    mpi = dict(curves["mpi"])[size]
    lci = dict(curves["lci"])[size]
    assert abs(lci - mpi) / max(lci, mpi) < 0.10


def test_fig3_regenerate(curves, platform, benchmark, capsys):
    benchmark.pedantic(
        lambda: Experiment(
            workload="overlap", backend="lci", fragment_size=512 * KiB
        ).run(platform=platform),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(
            ascii_chart(
                curves,
                title="Fig 3: overlap benchmark, GEMM-like intensity",
                logx=True,
                x_label="granularity (bytes)",
                y_label="TFLOP/s",
            )
        )
        mpi = dict(curves["mpi"])
        lci = dict(curves["lci"])
        rows = [
            (f"{s // 1024} KiB", f"{mpi[s]:.3f}", f"{lci[s]:.3f}", f"{lci[s] / mpi[s]:.1f}x")
            for s in sorted(mpi)
        ]
        print(ascii_table(["granularity", "MPI TFLOP/s", "LCI TFLOP/s", "LCI/MPI"], rows))
        print(
            f"paper: LCI/MPI >= {paper_data.FIG3_LCI_OVER_MPI[128 * KiB]}x at 128 KiB, "
            f"~{paper_data.FIG3_LCI_OVER_MPI[32 * KiB]:.0f}x at 32 KiB"
        )
    check_ratio_at(curves, 128 * KiB, 1.8)
    check_ratio_at(curves, 32 * KiB, 4.0)
    check_roofline_bounds(curves)
    check_convergence_at_large(curves)


def test_lci_twice_mpi_at_128kib(curves):
    check_ratio_at(curves, 128 * KiB, 1.8)


def test_lci_order_of_magnitude_at_32kib(curves):
    check_ratio_at(curves, 32 * KiB, 4.0)


def test_measured_below_roofline(curves):
    check_roofline_bounds(curves)


def test_backends_converge_at_coarse_granularity(curves):
    check_convergence_at_large(curves)


def test_roofline_above_no_overlap(curves):
    roof = dict(curves["roofline"])
    noov = dict(curves["no overlap"])
    for size in roof:
        assert roof[size] >= noov[size]
