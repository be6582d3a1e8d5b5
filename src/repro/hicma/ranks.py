"""Rank-distribution model for st-2d-sqexp TLR matrices.

For paper-scale DAGs (N = 360,000) we cannot SVD every tile, so tile ranks
come from a model calibrated against two sources:

- the paper's reported statistics at N = 360,000, tile 1200 (§6.4.2):
  average off-band rank 10.44 (≈196 KiB per packed U×V tile) and maximum
  low-rank tile rank 29 (544 KiB);
- ranks measured from our real compression (:mod:`repro.hicma.tlr`) at
  laptop scale, which show the same shape: rank decays roughly
  exponentially with tile distance from the diagonal (spatial distance for
  Morton-ordered sqexp points) and grows sublinearly with tile size.

Model:  ``rank(i, j) = 1 + (r_near(b) − 1) · exp(−λ · |i−j| / NT)`` with
``r_near(b) = 29 · (b / 1200)^0.5`` capped at ``maxrank``, λ = 4.7.
The λ value makes the N = 360,000, b = 1200 average land on 10.44.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HicmaError

__all__ = ["RankModel"]


class RankModel:
    """Deterministic tile-rank model for a given matrix/tile configuration."""

    #: Decay rate of rank with normalized diagonal distance.
    LAMBDA = 4.7
    #: Near-diagonal rank at the reference tile size (paper: max rank 29).
    R_NEAR_REF = 29.0
    #: Reference tile size for the calibration point.
    B_REF = 1200
    #: Growth exponent of rank with tile size.
    SIZE_EXPONENT = 0.5

    def __init__(self, nt: int, tile_size: int, maxrank: int = 150):
        if nt < 1:
            raise HicmaError("need at least one tile")
        if maxrank < 1:
            raise HicmaError("maxrank must be positive")
        self.nt = nt
        self.tile_size = tile_size
        self.maxrank = maxrank
        self.r_near = min(
            float(maxrank),
            self.R_NEAR_REF * (tile_size / self.B_REF) ** self.SIZE_EXPONENT,
        )
        #: Rank by diagonal distance, filled on first use.
        self._by_distance: dict[int, int] = {}

    def rank(self, i: int, j: int) -> int:
        """Rank of off-diagonal tile (i, j); diagonal tiles are dense.

        The rank depends only on ``|i − j|``, so each distance is
        evaluated once (a scalar ``np.exp``, as a vectorised one may round
        differently) and memoised."""
        d = abs(i - j)
        r = self._by_distance.get(d)
        if r is None:
            if d == 0:
                raise HicmaError("diagonal tiles are dense (band)")
            x = 1.0 + (self.r_near - 1.0) * np.exp(-self.LAMBDA * d / self.nt)
            r = self._by_distance[d] = int(max(1, min(self.maxrank, round(x))))
        return r

    def mean_rank(self) -> float:
        """Average off-band rank (weighted by tiles per diagonal distance)."""
        total = 0.0
        count = 0
        for d in range(1, self.nt):
            n_tiles = self.nt - d
            total += n_tiles * self.rank(0, d)
            count += n_tiles
        return total / count if count else 0.0

    def max_rank(self) -> int:
        """Rank of the nearest off-diagonal tile (the largest)."""
        return self.rank(0, 1) if self.nt > 1 else 0

    def tile_bytes(self, i: int, j: int) -> int:
        """Packed U×V bytes of tile (i, j) — what travels on the wire."""
        return 2 * self.tile_size * self.rank(i, j) * 8
