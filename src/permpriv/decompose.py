"""Splitting an anonymized table into permutation plus rank-neutral noise.

Y decomposes as Y = Z + E' where Z is the reverse-mapped permutation of the
original X and E' = Y - Z never alters a within-attribute rank.  E = Y - X is
the direct cell-wise difference an additive view would report.  The residual
E' is typically much smaller than E; that comparison is reported, never
asserted, since it depends on the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ShapeMismatchError
from .privacy import Release
from .reverse_map import reverse_map_table
from .table import DEFAULT_TIE_SEED, MicrodataTable, _as_column, compute_ranks, derive_column_seed


@dataclass(frozen=True)
class ResidualDecomposition:
    """Permutation component plus both noise views of one anonymized table."""

    z: MicrodataTable
    residual_noise: np.ndarray  # Y - Z, rank-neutral per attribute
    direct_noise: np.ndarray  # Y - X


def decompose(original: MicrodataTable, anonymized: Release) -> ResidualDecomposition:
    """Decompose the anonymized release = reverse-mapped(original) + residual noise."""
    z = reverse_map_table(original, anonymized)
    residual = anonymized.table.values - z.values
    direct = anonymized.table.values - original.values
    residual.setflags(write=False)
    direct.setflags(write=False)
    return ResidualDecomposition(z=z, residual_noise=residual, direct_noise=direct)


def spearman_rho(a, b, tie_seed: int = DEFAULT_TIE_SEED) -> float:
    """Rank correlation via the squared rank-difference formula.

    Both inputs are ranked with seeded tie-breaking (independent per input),
    so the result is computed on exact permutations of 1..n rather than on
    midranks.  Requires at least two records.
    """
    x = _as_column(a)
    y = _as_column(b)
    if x.size != y.size:
        raise ShapeMismatchError(f"column lengths differ: {x.size} vs {y.size}")
    n = x.size
    if n < 2:
        raise InsufficientDataError("need at least 2 records for a correlation")
    rx = compute_ranks(x, derive_column_seed(tie_seed, 0))
    ry = compute_ranks(y, derive_column_seed(tie_seed, 1))
    d = rx - ry
    return float(1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1)))
