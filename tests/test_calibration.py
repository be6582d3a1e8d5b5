"""Calibration regression tests.

The cost constants in ``repro/config.py`` were tuned once against the
paper's Fig. 2a anchor points and then frozen.  These tests pin the
calibration: if someone perturbs a constant, the measured curve drifts out
of the tolerance bands below and this file fails — keeping every benchmark
comparable to the paper.

Tolerances are deliberately wide (±30 % or so): the goal is regime
stability, not digit matching.
"""

import pytest

from repro import Experiment
from repro.units import KiB, MiB


def bandwidth(backend: str, fragment: int) -> float:
    r = Experiment(
        workload="pingpong", backend=backend,
        fragment_size=fragment, total_bytes=8 * MiB, iterations=5,
    ).run()
    return r.bandwidth_gbit


class TestFig2aAnchors:
    def test_mpi_at_128kib(self):
        """Paper: 62.5 Gbit/s at 128 KiB."""
        assert 50.0 <= bandwidth("mpi", 128 * KiB) <= 82.0

    def test_mpi_at_90kib(self):
        """Paper: 45.2 Gbit/s at 90.5 KiB."""
        assert 36.0 <= bandwidth("mpi", int(90.5 * KiB)) <= 62.0

    def test_lci_at_45kib(self):
        """Paper: 64.1 Gbit/s at 45.25 KiB."""
        assert 52.0 <= bandwidth("lci", int(45.25 * KiB)) <= 82.0

    def test_lci_at_32kib(self):
        """Paper: 43.5 Gbit/s at 32 KiB."""
        assert 36.0 <= bandwidth("lci", 32 * KiB) <= 62.0

    def test_peak_bandwidth_near_line_rate(self):
        for backend in ("mpi", "lci"):
            assert bandwidth(backend, 4 * MiB) >= 88.0

    def test_granularity_ratio(self):
        """Paper: LCI sustains tasks ≈2.83× smaller at similar efficiency.

        Measured as the ratio of fragment sizes where each backend first
        reaches 60 Gbit/s."""

        def crossing(backend):
            prev = None
            for frag in (16, 24, 32, 48, 64, 96, 128, 192, 256):
                bw = bandwidth(backend, frag * KiB)
                if bw >= 60.0:
                    return frag if prev is None else prev + (frag - prev) / 2
                prev = frag
            return None

        mpi_size = crossing("mpi")
        lci_size = crossing("lci")
        assert mpi_size is not None and lci_size is not None
        assert 1.8 <= mpi_size / lci_size <= 4.5


class TestLatencyRegime:
    def test_lci_per_fragment_cost_band(self):
        """Implied per-fragment serialized cost ≈ 6 µs for LCI (paper
        anchor: 45.25 KiB / 64.1 Gbit/s ≈ 5.8 µs)."""
        bw = bandwidth("lci", 32 * KiB)
        cost = 32 * KiB / (bw / 8 * 1e9)
        assert 4e-6 <= cost <= 9e-6

    def test_mpi_per_fragment_cost_band(self):
        """Implied per-fragment serialized cost ≈ 17 µs for MPI (paper
        anchor: 128 KiB / 62.5 Gbit/s ≈ 16.8 µs)."""
        bw = bandwidth("mpi", 64 * KiB)
        cost = 64 * KiB / (bw / 8 * 1e9)
        assert 10e-6 <= cost <= 25e-6
