"""Task-graph builder for the two-flow TLR Cholesky (HiCMA on PaRSEC).

Builds the right-looking tile Cholesky DAG with band size 1 — the paper's
§6.4 configuration — as a :class:`~repro.runtime.taskpool.TaskGraph`
executable on the simulated runtime:

- tiles are distributed 2D block-cyclically over a P×Q process grid;
- ``POTRF(k)`` broadcasts L_kk down column k (the runtime builds the
  binomial multicast tree);
- ``TRSM(i,k)`` results feed ``SYRK(i,k)`` and every ``GEMM`` in row/column
  i — the widest multicasts in the graph;
- per-tile update chains (GEMM/SYRK accumulation) are node-local flows;
- the **two-flow** variant ships each low-rank tile as two dataflows (the U
  and V factors separately, each b·r·8 bytes) rather than one packed
  2·b·r·8 message — more, smaller messages, finer pipelining (HiCMA [7,8]);
- priorities follow the critical path: panel operations at small k first.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import HicmaError
from repro.hicma.ranks import RankModel
from repro.hicma.timing import KernelTimeModel
from repro.runtime.taskpool import TaskGraph

__all__ = ["build_tlr_cholesky_graph", "block_cyclic_node", "process_grid"]


def process_grid(num_nodes: int) -> tuple[int, int]:
    """Nearly square P×Q factorization of the node count (P ≤ Q)."""
    if num_nodes < 1:
        raise HicmaError("need at least one node")
    p = int(num_nodes**0.5)
    while num_nodes % p != 0:
        p -= 1
    return p, num_nodes // p


def block_cyclic_node(i: int, j: int, p: int, q: int) -> int:
    """Owner of tile (i, j) in a 2D block-cyclic distribution."""
    return (i % p) * q + (j % q)


def build_tlr_cholesky_graph(
    nt: int,
    tile_size: int,
    num_nodes: int,
    rank_model: Optional[RankModel] = None,
    time_model: Optional[KernelTimeModel] = None,
    maxrank: int = 150,
    two_flow: bool = True,
    band: int = 1,
) -> TaskGraph:
    """Build the TLR Cholesky DAG for an NT×NT tile matrix.

    ``band`` widens the dense diagonal band (the paper uses 1): tiles with
    ``|i − j| < band`` are dense, so their kernels run at dense rates and
    their dataflows carry full b²·8-byte tiles.  ``band=nt`` makes every
    tile dense: the dense tile Cholesky of DPLASMA, HiCMA's substrate,
    whose compute and traffic show what compression saves (§6.4.1).
    """
    if nt < 1:
        raise HicmaError("need at least one tile")
    if band < 1:
        raise HicmaError("band must be at least 1")
    ranks = rank_model or RankModel(nt, tile_size, maxrank)
    times = time_model or KernelTimeModel()
    p, q = process_grid(num_nodes)
    g = TaskGraph()
    b = tile_size
    dense_bytes = b * b * 8
    # Everything a task needs besides its flows depends only on the tile's
    # distance d = i − j from the diagonal (dense when d < band), so it is
    # tabulated per distance once, as arrays the per-step batches index.
    rank_at = [0 if d < band else ranks.rank(d, 0) for d in range(nt)]
    trsm_d = np.array([times.trsm_dense(b) if d < band else times.trsm(b, rank_at[d])
                       for d in range(nt)])
    syrk_d = np.array([times.syrk_dense(b) if d < band else times.syrk(b, rank_at[d])
                       for d in range(nt)])
    # A TRSM output ships as one dense tile, or, low rank, as the U and V
    # factors in two flows (two-flow variant) or one packed flow; -1 marks
    # no second flow.
    panel_size = np.array([
        (dense_bytes, -1) if d < band
        else (b * rank_at[d] * 8,) * 2 if two_flow
        else (2 * b * rank_at[d] * 8, -1)
        for d in range(nt)
    ])
    gemm_out = np.array([dense_bytes if d < band else 2 * b * rank_at[d] * 8
                         for d in range(nt)])
    # GEMM(i, j, k) durations by (A = tile (i, k) dense, B = tile (j, k)
    # dense), then by the distance of its C = tile (i, j).
    gemm_d = np.array([[
        [times.gemm_mixed(b, max(rank_at[d], 1), d < band, a_dense, b_dense)
         for d in range(nt)]
        for b_dense in (False, True)] for a_dense in (False, True)])
    potrf_d = times.potrf(b)
    # tile[i, j]: the flow holding the latest version of tile (i, j) (its
    # accumulation chain), or -1 before any update.
    tile = np.full((nt, nt), -1)
    # Each step emits its tasks in id order, one batch per kernel group,
    # each followed by its flows: every input of a batch exists before it.
    for k in range(nt):
        # Higher = sooner.  Panel ops of early steps dominate the critical
        # path; within a step POTRF > TRSM > SYRK > GEMM (DPLASMA-style).
        potrf_p, trsm_p, syrk_p, gemm_p = (
            base + (nt - k) * 1e3 for base in (3e9, 2e9, 1e9, 0.0)
        )
        col = k % q
        chain = int(tile[k, k])
        potrf_t = g.add_task((k % p) * q + col, potrf_d, potrf_p,
                             () if chain < 0 else (chain,), "potrf")
        if k == nt - 1:
            break
        # L_kk flows to every TRSM in column k (broadcast).
        lkk = g.add_flow(potrf_t, dense_bytes)
        m = nt - 1 - k
        rows = np.arange(k + 1, nt)
        ins = np.stack([np.full(m, lkk), tile[k + 1:, k]], axis=1)
        has = ins >= 0
        trsm0 = g.add_tasks((rows % p) * q + col, trsm_d[rows - k], trsm_p,
                            ins[has], has.sum(axis=1), "trsm")
        # panel[i]: the flows of TRSM(i, k)'s output, read by SYRK(i, k)
        # and by every GEMM in row and column i (-1: no second flow).
        sizes = panel_size[rows - k]
        ships = sizes >= 0
        fid = g.add_flows(np.repeat(np.arange(trsm0, trsm0 + m), ships.sum(axis=1)),
                          sizes[ships])
        panel = np.full((nt, 2), -1)
        panel[k + 1:][ships] = np.arange(fid, fid + ships.sum())
        # Row by row: SYRK(i, k), then GEMM(i, j, k) for j = k+1 .. i-1 —
        # each row of the lower triangle rotated so its diagonal is first.
        r, c = np.tril_indices(m)
        i = k + 1 + r
        j = k + 1 + (c + r) % (r + 1)
        syrk = i == j
        ins = np.concatenate([
            panel[i], np.where(syrk[:, None], -1, panel[j]), tile[i, j][:, None],
        ], axis=1)
        has = ins >= 0
        dense_a, dense_b = (i - k < band).astype(int), (j - k < band).astype(int)
        first = g.add_tasks(
            (i % p) * q + j % q,
            np.where(syrk, syrk_d[i - k], gemm_d[dense_a, dense_b, i - j]),
            np.where(syrk, syrk_p, gemm_p),
            ins[has], has.sum(axis=1),
            np.where(syrk, "syrk", "gemm"),
        )
        # SYRK's output is the updated (i,i) tile: a node-local chain flow
        # consumed by the next update or the POTRF of step i.
        fid = g.add_flows(np.arange(first, first + len(i)),
                          np.where(syrk, dense_bytes, gemm_out[i - j]))
        tile[i, j] = np.arange(fid, fid + len(i))
    return g


def build_compression_graph(
    nt: int,
    tile_size: int,
    num_nodes: int,
    time_model: Optional[KernelTimeModel] = None,
    maxrank: int = 150,
    band: int = 1,
) -> TaskGraph:
    """HiCMA phase 1: generate + compress every lower-triangle tile.

    Each tile is produced locally on its owner (the kernel function is
    evaluated in place, so no data crosses the network) and off-band tiles
    are RSVD-compressed — an embarrassingly parallel phase whose cost the
    HiCMA papers report separately from the factorization.
    """
    if nt < 1:
        raise HicmaError("need at least one tile")
    times = time_model or KernelTimeModel()
    p, q = process_grid(num_nodes)
    g = TaskGraph()
    for i in range(nt):
        for j in range(i + 1):
            duration = times.generate(tile_size)
            if abs(i - j) >= band:
                duration += times.compress(tile_size, maxrank)
            g.add_task(
                node=block_cyclic_node(i, j, p, q),
                duration=duration,
                kind="compress" if abs(i - j) >= band else "generate",
            )
    return g


def expected_task_count(nt: int) -> int:
    """POTRF + TRSM + SYRK + GEMM counts for an NT-tile Cholesky."""
    return nt + nt * (nt - 1) // 2 + nt * (nt - 1) // 2 + nt * (nt - 1) * (nt - 2) // 6
