"""Reverse mapping: express any anonymized table as a permutation of the original.

Given an original column X and an anonymized column Y of equal length, the
reverse-mapped column Z places, at each record i, the X value whose rank
equals the rank of y_i within Y.  Z therefore keeps the exact multiset of X
while ordering records the way Y does; whatever the anonymization method did,
its output is reproduced by permuting X and then adding rank-neutral noise.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValueError, ShapeMismatchError
from .table import (
    DEFAULT_TIE_SEED,
    MicrodataTable,
    Role,
    _as_column,
    check_same_layout,
    compute_ranks,
    derive_column_seed,
)


def reverse_map_column(original, anonymized, tie_seed: int = DEFAULT_TIE_SEED) -> np.ndarray:
    """Reverse-map one attribute.

    Returns z with z_i equal to the j-th smallest original value, where j is
    the rank of anonymized_i within the anonymized column.  Ties in the
    anonymized column are broken under tie_seed.
    """
    x = _as_column(original)
    y = _as_column(anonymized)
    if x.size != y.size:
        raise ShapeMismatchError(f"column lengths differ: {x.size} vs {y.size}")
    y_ranks = compute_ranks(y, tie_seed)
    x_sorted = np.sort(x, kind="stable")
    z = x_sorted[y_ranks - 1]
    # postconditions, cheap enough to keep on every run: z is a rearrangement
    # of x, and the ranks order both y and z
    if not np.array_equal(np.sort(z), x_sorted):
        raise InvalidValueError("reverse mapping did not preserve the original multiset")
    by_rank = np.argsort(y_ranks)
    if np.any(np.diff(y[by_rank]) < 0) or np.any(np.diff(z[by_rank]) < 0):
        raise InvalidValueError("reverse mapping did not preserve the anonymized rank order")
    return z


def reverse_map_table(
    original: MicrodataTable,
    anonymized: MicrodataTable,
    tie_seed: int = DEFAULT_TIE_SEED,
) -> MicrodataTable:
    """Reverse-map every attribute of a table; per-column seeds are derived.

    The result carries role ``reverse_mapped`` and provenance recording the
    method, the tie seed, and the roles of both source tables.
    """
    check_same_layout(original, anonymized)
    cols = [
        reverse_map_column(
            original.column(j), anonymized.column(j), derive_column_seed(tie_seed, j)
        )
        for j in range(original.m)
    ]
    return MicrodataTable.from_columns(
        cols,
        original.attribute_names,
        role=Role.REVERSE_MAPPED,
        provenance={
            "method": "reverse_mapping",
            "tie_seed": int(tie_seed),
            "original_role": original.role.value,
            "anonymized_role": anonymized.role.value,
        },
    )
