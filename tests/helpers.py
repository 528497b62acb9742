"""Shared builders and independent oracles for the test suite.

The oracle functions below are deliberate reimplementations in plain Python
loops, apart from `brute_search`, the full numpy scan the package replaced
with its projection search, and `oracle_window_variances`, the per-window
`ndarray.var` loop the package replaced with a batched kernel.  They share
no code with the package, so agreement between the two routes is meaningful
evidence rather than a tautology.
"""

import dataclasses
import json
import typing

import numpy as np

from permpriv.io_report import to_payload
from permpriv.table import MicrodataTable, Role


# ---------------------------------------------------------------------------
# random input builders


def random_table(rng, n, m, role=Role.ORIGINAL, scale=100.0):
    values = rng.normal(0.0, scale, size=(n, m))
    names = tuple(f"a{j + 1}" for j in range(m))
    return MicrodataTable(values, names, role=role)


def random_pair(rng, n, m, sigma=1.0):
    """An original table plus a noisy anonymized sibling."""
    x = random_table(rng, n, m)
    y = MicrodataTable(
        x.values + rng.normal(0.0, sigma, size=(n, m)),
        x.attribute_names,
        role=Role.ANONYMIZED,
    )
    return x, y


def random_integer_table(rng, n, m, role=Role.ORIGINAL, low=0, high=10_000):
    # distinct integer values per column: exact float arithmetic, no ties
    cols = [
        rng.choice(np.arange(low, high), size=n, replace=False).astype(float)
        for _ in range(m)
    ]
    names = tuple(f"a{j + 1}" for j in range(m))
    return MicrodataTable(np.column_stack(cols), names, role=role)


def random_tied_table(rng, n, m, role=Role.ORIGINAL, levels=4):
    """Integer cells drawn from `levels` values, so most cells repeat in their column."""
    values = rng.integers(0, levels, size=(n, m)).astype(float)
    names = tuple(f"a{j + 1}" for j in range(m))
    return MicrodataTable(values, names, role=role)


def shuffle_rows(rng, table, role=Role.ANONYMIZED):
    """Row permutation of a table; returns (shuffled table, truth mapping).

    truth[i] is the 1-based row of the shuffled table holding original
    record i+1.
    """
    perm = rng.permutation(table.n)
    values = table.values[perm]
    truth = np.empty(table.n, dtype=int)
    truth[perm] = np.arange(1, table.n + 1)
    return MicrodataTable(values, table.attribute_names, role=role), tuple(
        int(t) for t in truth
    )


# ---------------------------------------------------------------------------
# oracles (pure python, loop-based)


def oracle_ranks(column):
    """1-based ranks for a tie-free column; rank 1 is the smallest value."""
    column = list(column)
    assert len(set(column)) == len(column), "oracle requires tie-free data"
    order = sorted(range(len(column)), key=lambda i: column[i])
    ranks = [0] * len(column)
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    return ranks


def oracle_closest(column, ranks, value):
    """(closest value, its rank); distance ties go to the smaller value.

    Among records tied at that value, the rank next to the position where
    `value` would be inserted is taken; on tie-free data this is the only
    rank of the closest value.
    """
    insert_at = 1 + sum(1 for y in column if y < value)
    best = None
    for y, r in zip(column, ranks):
        key = (abs(y - value), y, abs(r - insert_at))
        if best is None or key < best[0]:
            best = (key, y, r)
    return best[1], best[2]


def oracle_distance(record, table_values, rank_matrix):
    """(distance, matched 1-based rows, per-attribute closest ranks)."""
    n = len(table_values)
    m = len(record)
    centers = []
    for j in range(m):
        col = [row[j] for row in table_values]
        rks = [row[j] for row in rank_matrix]
        _, r = oracle_closest(col, rks, record[j])
        centers.append(r)
    best_d = None
    matches = []
    for p in range(n):
        dev = max(abs(rank_matrix[p][j] - centers[j]) for j in range(m))
        if best_d is None or dev < best_d:
            best_d, matches = dev, [p + 1]
        elif dev == best_d:
            matches.append(p + 1)
    return best_d, tuple(matches), tuple(centers)


def brute_search(values, rank_matrix, queries, block=64):
    """Full min-max scan of every query against every record, vectorised.

    Returns (distances, closest ranks, match sets) under the same rules as
    `oracle_distance`, in blocks of `block` queries; fast enough for a few
    thousand records and queries.
    """
    values = np.asarray(values, dtype=float)
    ranks = np.asarray(rank_matrix, dtype=np.int64)
    queries = np.asarray(queries, dtype=float)
    distances, centers, matches = [], [], []
    for lo in range(0, len(queries), block):
        x = queries[lo : lo + block]
        c = np.empty(x.shape, dtype=np.int64)
        for j in range(values.shape[1]):
            y, r = values[None, :, j], ranks[None, :, j]
            gap = np.abs(y - x[:, j, None])
            near = gap == gap.min(axis=1, keepdims=True)
            near &= y == np.where(near, y, np.inf).min(axis=1, keepdims=True)
            insert_at = 1 + (y < x[:, j, None]).sum(axis=1, keepdims=True)
            pick = np.where(near, np.abs(r - insert_at), ranks.shape[0] + 1).argmin(axis=1)
            c[:, j] = ranks[pick, j]
        dev = np.abs(ranks[None, :, :] - c[:, None, :]).max(axis=2)
        d = dev.min(axis=1)
        distances.append(d)
        centers.append(c)
        matches.extend(tuple((np.flatnonzero(row == k) + 1).tolist()) for row, k in zip(dev, d))
    return np.concatenate(distances), np.concatenate(centers), matches


def oracle_window_variance(column, ranks, center, d):
    """Population variance of the values whose rank is within d of center."""
    vals = [v for v, r in zip(column, ranks) if abs(r - center) <= d]
    mean = sum(vals) / len(vals)
    return sum((v - mean) ** 2 for v in vals) / len(vals)


def oracle_window_variances(values_by_rank, centers, d):
    """(q, m) window variances, one `ndarray.var` call per record and attribute.

    The per-window loop `Release.window_variances` batches.  Its bits are the
    reference: the batched kernel must reproduce them exactly, not within a
    tolerance, because report bytes depend on them.  `d` is one radius or one
    per row; windows are clipped to [1, n].
    """
    n = len(values_by_rank[0])
    centers = np.asarray(centers, dtype=np.int64)
    radii = np.broadcast_to(np.asarray(d, dtype=np.int64), centers.shape[:1])
    out = np.empty(centers.shape)
    for i, (row, r) in enumerate(zip(centers.tolist(), radii.tolist())):
        for j, c in enumerate(row):
            lo, hi = max(c - r, 1), min(c + r, n)
            out[i, j] = values_by_rank[j][lo - 1 : hi].var()
    return out


def oracle_tied_ranks(column, tie_seed):
    """Seeded ranks by a per-value walk over the sorted column.

    Each run of equal values is shuffled in turn with one generator, the
    definition `compute_ranks` vectorises.
    """
    col = np.asarray(column, dtype=float)
    order = np.argsort(col, kind="stable")
    values = col[order]
    rng = np.random.default_rng(tie_seed)
    start = 0
    for stop in range(1, col.size + 1):
        if stop == col.size or values[stop] != values[start]:
            if stop - start > 1:
                rng.shuffle(order[start:stop])
            start = stop
    ranks = np.empty(col.size, dtype=np.int64)
    ranks[order] = np.arange(1, col.size + 1)
    return ranks


def oracle_spearman(a, b):
    """Pearson correlation of tie-free ranks; no difference formula."""
    ra = np.array(oracle_ranks(a), dtype=float)
    rb = np.array(oracle_ranks(b), dtype=float)
    return float(np.corrcoef(ra, rb)[0, 1])


def oracle_total_variation(freq_a, freq_b):
    support = set(freq_a) | set(freq_b)
    return 0.5 * sum(abs(freq_a.get(d, 0.0) - freq_b.get(d, 0.0)) for d in support)


# ---------------------------------------------------------------------------
# report payloads read back


def from_payload(cls, data):
    """Rebuild an analysis dataclass from its report payload as JSON gives it back.

    The inverse of `io_report.to_payload` after a trip through `json`: arrays
    become tuples again and nested payloads their dataclasses, guided by the
    field annotations.  Fields computed in `__post_init__` are skipped.
    """
    hints = typing.get_type_hints(cls)
    return cls(
        **{f.name: _decode(hints[f.name], data[f.name]) for f in dataclasses.fields(cls) if f.init}
    )


def _decode(hint, value):
    if dataclasses.is_dataclass(hint):
        return from_payload(hint, value)
    if typing.get_origin(hint) is tuple:
        return tuple(_decode(typing.get_args(hint)[0], v) for v in value)
    return value


def json_round_trip(obj):
    """`obj` serialized as a report payload, through JSON text, and rebuilt."""
    return from_payload(type(obj), json.loads(json.dumps(to_payload(obj))))
