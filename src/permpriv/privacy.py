"""Permutation distance and rank-window privacy verification.

The permutation distance of a record x against an anonymized table Y is the
smallest d such that some anonymized record sits within d rank positions of
x's nearest anonymized value simultaneously on every attribute.  Privacy of a
record is then verified with two dials: the distance must reach a floor d,
and the values whose ranks fall inside the width-d window around each nearest
value must vary enough (population variance strictly above a per-attribute
floor), so that a small distance cannot be explained away by near-constant
neighborhoods.

Anyone holding a single record x and the anonymized table can recompute this
evidence; no access to the rest of the original data is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidValueError, RankOutOfRangeError, ShapeMismatchError
from .table import (
    DEFAULT_TIE_SEED,
    MicrodataTable,
    RankProfile,
    _as_column,
    check_integer,
    check_same_attributes,
    check_same_layout,
)

# Bytes of rank deviations one search block may hold, counted as queries x
# candidate rows x attributes x 8; bounds the search's peak memory whatever n
# and the number of queries.
_BLOCK_BYTES = 1 << 19


def _values_by_rank(column: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Ascending array v where v[r-1] is the value holding rank r.

    Raises InvalidValueError when the ranks do not order the column.
    """
    out = np.empty(column.size, dtype=float)
    out[np.asarray(ranks) - 1] = column
    if np.any(out[1:] < out[:-1]):
        raise InvalidValueError("rank profile does not order the table")
    return out


def _closest_ranks(values_by_rank: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """1-based rank of the value nearest to each query; ties take the smaller rank."""
    n = values_by_rank.size
    pos = np.searchsorted(values_by_rank, xs, side="left")
    left = np.clip(pos - 1, 0, n - 1)
    right = np.clip(pos, 0, n - 1)
    take_right = np.abs(values_by_rank[right] - xs) < np.abs(xs - values_by_rank[left])
    return np.where(take_right, right, left) + 1


def _rank_array(values, what: str) -> np.ndarray:
    """`values` as an int64 array; floats raise RankOutOfRangeError, never truncated."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise RankOutOfRangeError(f"{what} must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def check_targets(d_target, v_target, m: int) -> tuple[int, tuple[float, ...]]:
    """(d, v) targets as checked values: one finite variance floor per attribute, d >= 0."""
    v = tuple(float(t) for t in np.asarray(v_target, dtype=float).ravel())
    if len(v) != m:
        raise ShapeMismatchError(f"{len(v)} variance targets for {m} attributes")
    if not np.all(np.isfinite(v)):
        raise InvalidValueError(f"variance targets must be finite, got {v}")
    d = check_integer(d_target, RankOutOfRangeError, "d_target")
    if d < 0:
        raise RankOutOfRangeError("d_target must be nonnegative")
    return d, v


def _query_matrix(queries, release: Release) -> np.ndarray:
    """(q, m) query records; a table must name the release's attributes in order."""
    if isinstance(queries, MicrodataTable):
        check_same_attributes(queries, release.table)
        return queries.values
    m = release.m
    q = np.asarray(queries, dtype=float)
    if q.ndim == 1:
        q = q.reshape(1, -1)
    if q.ndim != 2 or q.shape[1] != m:
        raise ShapeMismatchError(f"queries have shape {q.shape}, expected (*, {m})")
    if not np.all(np.isfinite(q)):
        raise InvalidValueError("query records contain NaN or infinite values")
    return q


class Release:
    """One released table, ranked once and indexed for permutation distances.

    Holds the table and its rank profile, always ranked from the table under
    `tie_seed`, so anyone holding the table and the disclosed seed rebuilds
    the same ranks.  Each attribute's values in rank order, which check that
    the profile orders the table, and the search index, every attribute's
    ranks in the order of the attribute-0 ranks, are built on first use, so a
    release that is only ranked keeps neither.  Index row r holds attribute-0
    rank r + 1, so it deviates from a center c by exactly |r + 1 - c[0]| on
    attribute 0.  A search scans outward from row c[0] - 1 and stops once
    that gap alone reaches the best deviation found (Friedman, Baskett &
    Shustek 1975).  Its cost is O(q * d * m) for q queries at distance about
    d, against O(q * n * m) for a full scan.  Every distance entry point
    takes one, and this is the only place a table is ranked and indexed for a
    search.
    """

    def __init__(self, table: MicrodataTable, *, tie_seed: int = DEFAULT_TIE_SEED):
        self.table = table
        self.profile = RankProfile.of(table, tie_seed)

    @cached_property
    def values_by_rank(self) -> list[np.ndarray]:
        """Each attribute's values in rank order, checked to be ascending."""
        return list(map(_values_by_rank, self.table.values.T, self.profile.ranks.T))

    def check_order(self) -> None:
        """Raise InvalidValueError unless the rank profile orders the table.

        Unless `values_by_rank` is built, each column is built, checked and
        dropped in turn, so a release that is only ranked keeps none.
        """
        if "values_by_rank" not in self.__dict__:
            for column, ranks in zip(self.table.values.T, self.profile.ranks.T):
                _values_by_rank(column, ranks)

    @cached_property
    def _order(self) -> np.ndarray:
        """The record (0-based) holding each attribute-0 rank."""
        order = np.empty(self.n, dtype=np.intp)
        order[self.profile.vector(0) - 1] = np.arange(self.n)
        return order

    @cached_property
    def _index(self) -> list[np.ndarray]:
        """The other attributes' ranks in the order of `_order`."""
        return [self.profile.vector(j)[self._order] for j in range(1, self.m)]

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def m(self) -> int:
        return self.table.m

    @property
    def tie_seed(self) -> int:
        return self.profile.tie_seed

    def centers(self, queries: np.ndarray) -> np.ndarray:
        """(q, m) nearest-value ranks for a block of query records."""
        return np.column_stack(
            [_closest_ranks(self.values_by_rank[j], queries[:, j]) for j in range(self.m)]
        )

    def _max_deviation(self, rows: np.ndarray, centers: Sequence[np.ndarray]) -> np.ndarray:
        """Largest rank deviation of index rows from per-attribute centers.

        `centers[j]` broadcasts against `rows`.
        """
        dev = rows - (centers[0] - 1)
        np.abs(dev, out=dev)
        for ranks, c in zip(self._index, centers[1:]):
            gap = ranks[rows]
            gap -= c
            np.maximum(dev, np.abs(gap, out=gap), out=dev)
        return dev

    def distances(self, centers: np.ndarray) -> np.ndarray:
        """(q,) min-max rank deviation for each row of (q, m) 1-based centers.

        Scans index offsets 0, +-1, +-2, ... in rings that double in width,
        each over blocks of at most _BLOCK_BYTES.  A query leaves the scan
        once the next ring's offset reaches its best deviation, or no row is
        left.  Rows past either end are clipped to the end row: a duplicate
        of a real record never lowers the minimum below the true one.
        """
        n, m = self.n, self.m
        best = np.full(centers.shape[0], n, dtype=np.int64)
        start = centers[:, 0] - 1
        active = np.arange(centers.shape[0])
        lo, hi = 0, 1
        while active.size:
            k = np.arange(lo, min(hi, n))
            offsets = k if lo == 0 else np.concatenate([-k, k])
            step = max(1, _BLOCK_BYTES // (offsets.size * m * 8))
            for b in range(0, active.size, step):
                idx = active[b : b + step]
                rows = start[idx, None] + offsets
                np.clip(rows, 0, n - 1, out=rows)
                dev = self._max_deviation(rows, [centers[idx, j, None] for j in range(m)])
                best[idx] = np.minimum(best[idx], dev.min(axis=1))
            # every row still unscanned lies at offset hi or beyond
            s = start[active]
            active = active[(best[active] > hi) & ((s >= hi) | (s + hi < n))]
            lo, hi = hi, 2 * hi
        return best

    def _match_sets(self, centers: np.ndarray, distances: np.ndarray):
        """Match sets in CSR form: offsets (q + 1,) and ascending 1-based records.

        A record at distance d lies within d of the center on attribute 0, so
        index rows [c[0] - 1 - d, c[0] - 1 + d] hold every match.  Windows are
        scanned in blocks of at most _BLOCK_BYTES (or one window).
        """
        n, m, q = self.n, self.m, distances.size
        first = np.maximum(centers[:, 0] - 1 - distances, 0)
        size = np.minimum(centers[:, 0] - 1 + distances, n - 1) - first + 1
        ends = np.cumsum(size)
        cap = max(1, _BLOCK_BYTES // (m * 8))
        parts = [np.empty(0, dtype=np.int64)]
        offsets = np.zeros(q + 1, dtype=np.int64)
        a = 0
        while a < q:
            base = ends[a] - size[a]
            b = max(a + 1, int(np.searchsorted(ends, base + cap, side="right")))
            sz = size[a:b]
            query = np.repeat(np.arange(a, b), sz)
            rows = np.arange(base, ends[b - 1]) + np.repeat(first[a:b] - (ends[a:b] - sz), sz)
            dev = self._max_deviation(rows, [centers[query, j] for j in range(m)])
            hit = dev == distances[query]
            records, query = self._order[rows[hit]] + 1, query[hit]
            parts.append(records[np.lexsort((records, query))])
            offsets[a + 1 : b + 1] = np.bincount(query - a, minlength=b - a)
            a = b
        return np.cumsum(offsets, out=offsets), np.concatenate(parts)

    def search(self, queries) -> Evidence:
        """Full distance evidence for every query record, row i numbered i + 1."""
        centers = self.centers(_query_matrix(queries, self))
        distances = self.distances(centers)
        offsets, matches = self._match_sets(centers, distances)
        values = [v[c - 1] for v, c in zip(self.values_by_rank, centers.T)]
        return Evidence(
            closest_values=np.column_stack(values),
            closest_ranks=centers,
            distances=distances,
            offsets=offsets,
            matches=matches,
            matched_deviations=np.abs(self.profile.ranks[matches[offsets[:-1]] - 1] - centers),
        )

    def window_variances(self, centers, d) -> np.ndarray:
        """(q, m) variance of the values ranked within d of each center.

        `centers` is a (q, m) matrix of 1-based ranks and `d` one radius or
        one per row.  Each window is clipped to [1, n].  Per attribute, the
        windows are grouped by length and gathered into C-contiguous blocks of
        at most _BLOCK_BYTES (or one window), and each block takes one
        `var(axis=1)`.  numpy reduces each row of a contiguous block exactly
        as it reduces the same window as a 1-D slice of `values_by_rank[j]`,
        so every variance has the bits a per-window `var` call gives.
        """
        n = self.n
        centers = _rank_array(centers, "center ranks")
        if centers.ndim != 2 or centers.shape[1] != self.m:
            raise ShapeMismatchError(f"centers have shape {centers.shape}, expected (*, {self.m})")
        radius = np.broadcast_to(_rank_array(d, "window radius"), centers.shape[:1])
        if np.any(radius < 0):
            raise RankOutOfRangeError("window radius must be nonnegative")
        if centers.size and (centers.min() < 1 or centers.max() > n):
            raise RankOutOfRangeError(f"center ranks outside 1..{n}")
        out = np.empty(centers.shape, dtype=float)
        for j, values in enumerate(self.values_by_rank):
            first = np.maximum(centers[:, j] - radius, 1) - 1
            width = np.minimum(centers[:, j] + radius, n) - first
            order = np.argsort(width, kind="stable")
            for rows in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
                w = int(width[rows[0]])
                step = max(1, _BLOCK_BYTES // (w * 8))
                for b in range(0, rows.size, step):
                    block = rows[b : b + step]
                    out[block, j] = values[first[block, None] + np.arange(w)].var(axis=1)
        return out

    def verdicts(
        self, centers, distances, d_target: int, v_target: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pass mask and (q, m) window variances of many records at the targets.

        A record passes when its distance is at least d_target and every
        window variance at radius d_target is strictly above v_target[j].
        """
        d_target, v_target = check_targets(d_target, v_target, self.m)
        variances = self.window_variances(centers, d_target)
        passed = (np.asarray(distances) >= d_target) & np.all(
            variances > np.asarray(v_target), axis=1
        )
        return passed, variances

    def verify(
        self, result: RecordDistanceResult, d_target: int, v_target: Sequence[float]
    ) -> RecordVerification:
        """Check a record's evidence against (d_target, v_target)."""
        d_target, v_target = check_targets(d_target, v_target, self.m)
        passed, variances = self.verdicts(
            [result.closest_ranks], [result.distance], d_target, v_target
        )
        return RecordVerification(
            passed=bool(passed[0]),
            result=result,
            window_variances=tuple(variances[0].tolist()),
            d_target=d_target,
            v_target=v_target,
        )


@dataclass(frozen=True)
class RecordDistanceResult:
    """Full distance evidence for one record against an anonymized table.

    Record numbers (`record_index`, `matched_indices`) are 1-based, matching
    the rank convention.  `matched_indices` lists every anonymized record at
    the minimum deviation; `matched_deviations` are the per-attribute rank
    deviations of the first of them.  It is the one-record view of `Evidence`.
    """

    record_index: int | None
    closest_values: tuple[float, ...]
    closest_ranks: tuple[int, ...]
    matched_indices: tuple[int, ...]
    matched_deviations: tuple[int, ...]
    distance: int

    report_kind = "record_distance"


@dataclass(frozen=True, eq=False)
class Evidence:
    """Distance evidence for q query records, one read-only array per column.

    Row i holds query i's columns of `RecordDistanceResult`, and `evidence[i]`
    is that result, numbered i + 1.  Its match set, 1-based, ascending and
    never empty, is `matches[offsets[i]:offsets[i + 1]]` (CSR form).
    """

    closest_values: np.ndarray
    closest_ranks: np.ndarray
    distances: np.ndarray
    offsets: np.ndarray
    matches: np.ndarray
    matched_deviations: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def __len__(self) -> int:
        return self.distances.size

    def __getitem__(self, i: int) -> RecordDistanceResult:
        i = range(len(self))[i]
        return RecordDistanceResult(
            record_index=i + 1,
            closest_values=tuple(self.closest_values[i].tolist()),
            closest_ranks=tuple(self.closest_ranks[i].tolist()),
            matched_indices=tuple(self.matches[self.offsets[i] : self.offsets[i + 1]].tolist()),
            matched_deviations=tuple(self.matched_deviations[i].tolist()),
            distance=int(self.distances[i]),
        )


def permutation_distance(
    x, release: Release, *, record_index: int | None = None
) -> RecordDistanceResult:
    """Distance evidence for a single record against a release."""
    q = _query_matrix(x, release)
    if q.shape[0] != 1:
        raise ShapeMismatchError("expected a single record; use batch_permutation_distances")
    return replace(release.search(q)[0], record_index=record_index)


def batch_permutation_distances(queries, release: Release) -> np.ndarray:
    """Distances only, vectorized over many query records."""
    return release.distances(release.centers(_query_matrix(queries, release)))


def window_variance(anonymized_column, ranks, center_rank: int, d: int) -> float:
    """Population variance of the values whose rank is within d of center_rank.

    One window of `Release.window_variances`, clipped to [1, n]; `ranks` must
    be a permutation of 1..n that orders the column.  The values in rank
    order do not depend on how ties are broken, so the column's own release
    reads the same window.
    """
    column = _as_column(anonymized_column)
    profile = RankProfile(np.column_stack([ranks]), DEFAULT_TIE_SEED)
    if profile.ranks.shape != (column.size, 1):
        raise ShapeMismatchError(f"ranks of shape {profile.ranks.shape} for {column.size} values")
    _values_by_rank(column, profile.vector(0))
    release = Release(MicrodataTable(column, ("x",)))
    return float(release.window_variances([[center_rank]], d)[0, 0])


@dataclass(frozen=True)
class RecordVerification:
    """Outcome of checking one record against distance/variance targets.

    The full evidence is carried regardless of the verdict, so a data subject
    holding only their own record and the published table can audit it.
    """

    passed: bool
    result: RecordDistanceResult
    window_variances: tuple[float, ...]
    d_target: int
    v_target: tuple[float, ...]

    report_kind = "record_verification"


def verify_record(x, release: Release, d_target: int, v_target) -> RecordVerification:
    """Check distance >= d_target and every window variance > v_target[j].

    The variance clause is strict and evaluated at radius d_target.  Passing
    at (d_target, v_target) implies the distance clause passes at any smaller
    d', but the variance clause must be re-evaluated there.  `x` is one
    record; several records raise ShapeMismatchError, as in
    `permutation_distance`.
    """
    return release.verify(permutation_distance(x, release), d_target, v_target)


@dataclass(frozen=True, eq=False)
class PrivacyCertificate:
    """Dataset-level privacy evidence: the protector's published guarantee.

    `per_record` holds every original record's evidence, beside its window
    variances at the dataset distance and at its own distance.
    `dataset_distance` is the minimum record distance; `dataset_variances`
    take, per attribute, the minimum window variance at that radius over all
    records.  The certificate discloses method parameters via `disclosure`
    but never any masking seed.  Like its `Evidence`, a certificate compares
    by identity; two certificates are the same when their reports' bytes are.
    """

    per_record: Evidence
    variances_at_dataset_distance: np.ndarray
    variances_at_record_distance: np.ndarray
    dataset_distance: int
    dataset_variances: tuple[float, ...]
    disclosure: str | None
    tie_seed: int

    report_kind = "privacy_certificate"


def certify_dataset(
    original: MicrodataTable, release: Release, *, disclosure: str | None = None
) -> PrivacyCertificate:
    """Distance and variance evidence for every original record at once.

    The release's tie seed is the one recorded.
    """
    check_same_layout(original, release.table)
    evidence = release.search(original.values)
    dataset_distance = int(evidence.distances.min())
    at_d = release.window_variances(evidence.closest_ranks, dataset_distance)
    at_di = release.window_variances(evidence.closest_ranks, evidence.distances)
    at_d.setflags(write=False)
    at_di.setflags(write=False)
    return PrivacyCertificate(
        per_record=evidence,
        variances_at_dataset_distance=at_d,
        variances_at_record_distance=at_di,
        dataset_distance=dataset_distance,
        dataset_variances=tuple(at_d.min(axis=0).tolist()),
        disclosure=disclosure,
        tie_seed=release.tie_seed,
    )
