"""repro — reproduction of *Improving the Scaling of an Asynchronous Many-Task
Runtime with a Lightweight Communication Engine* (Mor, Bosilca, Snir; ICPP 2023).

The package provides:

- :mod:`repro.sim` — a deterministic discrete-event simulation kernel;
- :mod:`repro.network` — a LogGP-style InfiniBand fabric model;
- :mod:`repro.mpi` — a simulated MPI library (matching, eager/rendezvous,
  persistent requests, ``Testsome``);
- :mod:`repro.lci` — a simulated Lightweight Communication Interface
  (immediate/buffered/direct protocols, completion queues, explicit progress);
- :mod:`repro.runtime` — a PaRSEC-like asynchronous many-task runtime with
  both an MPI backend (paper §4.2) and an LCI backend (paper §5.3);
- :mod:`repro.hicma` — a tile low-rank (TLR) Cholesky factorization, both as
  real NumPy numerics and as a task-graph generator for simulated runs;
- :mod:`repro.bench` / :mod:`repro.analysis` — the experiment harness that
  regenerates every figure and table of the paper's evaluation;
- :mod:`repro.explore` — a schedule-space explorer that replays scenarios
  under alternative legal interleavings and checks protocol invariants;
- :mod:`repro.workloads` — the workload plugin registry and the bundled
  scenario suite (stencil, taskbench, ring, ... — see ``docs/workloads.md``).

Quickstart::

    from repro import Experiment
    result = Experiment(workload="pingpong", backend="lci",
                        fragment_size=128 * 1024).run()
    print(result.summary())
"""

from repro._version import __version__
from repro.api import (
    BackendKind,
    Experiment,
    GraphResult,
    HicmaResult,
    OverlapResult,
    PingPongResult,
    Result,
)

__all__ = [
    "__version__",
    "BackendKind",
    "Experiment",
    "Result",
    "PingPongResult",
    "OverlapResult",
    "HicmaResult",
    "GraphResult",
]
