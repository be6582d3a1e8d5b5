"""HiCMA: tile low-rank (TLR) Cholesky factorization.

Two complementary halves:

- **Real numerics** (:mod:`starsh`, :mod:`lowrank`, :mod:`kernels`,
  :mod:`tlr`, :mod:`cholesky`): a working TLR Cholesky on NumPy — squared-
  exponential (st-2d-sqexp) kernel matrices, SVD tile compression, low-rank
  TRSM/SYRK/GEMM with QR-based recompression — validated against dense
  Cholesky at laptop scale.  This is the substitute for HiCMA + STARS-H.
- **Simulation models** (:mod:`ranks`, :mod:`timing`, :mod:`dag`): a rank-
  distribution model calibrated to both the paper's reported statistics and
  our own measured ranks, kernel flop/time models, and a task-graph builder
  producing the two-flow TLR Cholesky DAG the paper runs at N = 360,000 —
  executable on the simulated PaRSEC runtime at any scale.

The numerics import SciPy; the simulation models need only NumPy.  So
the numerics names resolve on first use (PEP 562), and a simulated HiCMA
run never loads SciPy.
"""

import importlib

from repro.hicma.ranks import RankModel
from repro.hicma.timing import KernelTimeModel
from repro.hicma.dag import build_tlr_cholesky_graph, block_cyclic_node

#: Numerics name -> the submodule defining it, imported on first access.
_NUMERICS = {
    "SqExpProblem": "starsh",
    "LowRankTile": "lowrank",
    "compress_dense": "lowrank",
    "recompress": "lowrank",
    "TLRMatrix": "tlr",
    "tlr_cholesky": "cholesky",
    "dense_tiled_cholesky": "cholesky",
    "tlr_solve": "solve",
    "tlr_forward_solve": "solve",
    "tlr_backward_solve": "solve",
}

__all__ = [
    *_NUMERICS,
    "RankModel",
    "KernelTimeModel",
    "build_tlr_cholesky_graph",
    "block_cyclic_node",
]


def __getattr__(name: str):
    module = _NUMERICS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_NUMERICS})
