"""Benchmark workloads and the per-figure reproduction harness.

One module per benchmark family, each holding the workload's config,
graph builder and result function (the paper's three registered
workloads run through :func:`repro.workloads.runner.run_workload`):

- :mod:`repro.bench.pingpong` — the task-based windowed ping-pong bandwidth
  benchmark of §6.2 (Fig. 2a/2b);
- :mod:`repro.bench.overlap` — the computation/communication overlap
  benchmark of §6.3 (Fig. 3), including the analytic Roofline / No-Overlap
  reference curves;
- :mod:`repro.bench.hicma_bench` — the HiCMA TLR Cholesky experiments of
  §6.4 (Fig. 4a/4b, Fig. 5a/5b, Table 2);
- :mod:`repro.bench.paper_data` — the paper's reported numbers (digitized
  anchor points) for paper-vs-measured comparison;
- :mod:`repro.bench.report` — comparison/rendering helpers.
"""

from repro.bench.pingpong import PingPongConfig
from repro.bench.overlap import OverlapConfig
from repro.bench.hicma_bench import HicmaConfig
from repro.bench.report import Comparison

__all__ = [
    "PingPongConfig",
    "OverlapConfig",
    "HicmaConfig",
    "Comparison",
]
