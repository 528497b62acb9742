"""Reverse mapping: express any anonymized table as a permutation of the original.

Given an original column X and an anonymized column Y of equal length, the
reverse-mapped column Z places, at each record i, the X value whose rank
equals the rank of y_i within Y.  Z therefore keeps the exact multiset of X
while ordering records the way Y does; whatever the anonymization method did,
its output is reproduced by permuting X and then adding rank-neutral noise.
"""

from __future__ import annotations

import numpy as np

from .privacy import Release, _values_by_rank
from .table import MicrodataTable, Role, check_same_layout


def reverse_map_table(original: MicrodataTable, anonymized: Release) -> MicrodataTable:
    """Reverse-map every attribute: z_ij is the original value of rank r_ij.

    r is the anonymized release's rank profile, which `RankProfile` checks
    to be a permutation.  As each column is mapped, its ranks are checked to
    order the anonymized column (`_values_by_rank`, whose result is dropped);
    so z keeps each original multiset and is ordered like it.  The
    result carries role ``reverse_mapped`` and the original's attribute names.
    """
    check_same_layout(original, anonymized.table)
    z = np.empty((original.n, original.m), order="F")
    for j in range(original.m):
        _values_by_rank(anonymized.table.column(j), anonymized.profile.vector(j))
        x = original.column(j)
        x_sorted = np.sort(x)
        # -0.0 and 0.0 are the only equal values that differ, so writing the
        # zeros back in input order gives the stable sort's bits
        zeros = x[x == 0]
        start = np.searchsorted(x_sorted, 0.0)
        x_sorted[start : start + zeros.size] = zeros
        z[:, j] = x_sorted[anonymized.profile.vector(j) - 1]
    return MicrodataTable(z, original.attribute_names, role=Role.REVERSE_MAPPED)
