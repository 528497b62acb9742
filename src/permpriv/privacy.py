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

This module holds those definitions; the search behind every distance is
`grid.Grid`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import grid
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

_INT64_MAX = np.iinfo(np.int64).max


def _values_by_rank(column: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Ascending array v where v[r-1] is the value holding rank r.

    Raises InvalidValueError when the ranks do not order the column.
    """
    # one slot ahead, so the 1-based ranks index it without a shifted copy
    out = np.empty(column.size + 1)
    out[np.asarray(ranks)] = column
    out = out[1:]
    if np.any(out[1:] < out[:-1]):
        raise InvalidValueError("rank profile does not order the table")
    return out


def _closest_ranks(values_by_rank: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """1-based rank of the value nearest to each query; ties take the smaller rank.

    The queries are looked up in ascending order, where numpy's binary
    search starts from the previous key's bounds, and the positions are
    scattered back.  A position depends only on its key, so the ranks are
    those of a lookup in query order.  Nearness is exact: rounding is
    monotonic, so the rounded distances to a query's two neighbours decide
    unless they are equal.  Then Knuth's TwoSum writes each distance as s + e
    exactly; the s are equal, so the errors e decide.
    """
    n = values_by_rank.size
    order = np.argsort(xs)
    pos = np.empty(xs.size, dtype=np.intp)
    pos[order] = np.searchsorted(values_by_rank, xs[order], side="left")
    # 0 <= pos <= n; np.clip takes a slow path for integer arrays
    left = np.maximum(pos - 1, 0)
    right = np.minimum(pos, n - 1)
    below, above = values_by_rank[left], values_by_rank[right]
    with np.errstate(over="ignore"):  # a distance over 1.8e308 is inf, and compares as one
        up, down = above - xs, xs - below
        take_right = up < down
        tied = np.flatnonzero(up == down)
        tied = tied[left[tied] < right[tied]]  # a query on the lowest value has one neighbour
        if tied.size:
            lo, hi, x = below[tied], above[tied], xs[tied]
            take_right[tied] = _two_sum(hi, -x) < _two_sum(-lo, x)
    return np.where(take_right, right, left) + 1


def _two_sum(a, b):
    """The error e of s = fl(a + b), with s + e = a + b exactly (Knuth's TwoSum).

    An intermediate overflows only where s does or |b| is the largest float;
    the query, b in both of the lookup's calls, is never that in a tie.
    """
    s = a + b
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def _window_variances(flat: np.ndarray, first: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Population variance of each window flat[first[i] : first[i] + width[i]].

    The windows are ordered by width.  Each run of windows of one width w
    reads a strided view of `flat`'s buffer (no window passes its end) in
    chunks of at most `grid._BLOCK_BYTES` of values, or one window.  A chunk
    of k windows is one C-contiguous (k, w) gather, which takes numpy
    `var`'s six steps: the per-row `add.reduce` of `ndarray.var(axis=1)`, a
    division by w, the subtraction of each row's mean, a square, a second
    sum and a second division.  So each variance has the bits of
    `flat[first[i] : first[i] + width[i]].var()`.
    """
    out = np.empty(width.size)
    starts = np.flatnonzero(np.diff(width, prepend=0))
    ends = [*starts[1:].tolist(), width.size]
    for lo, end, w in zip(starts.tolist(), ends, width[starts].tolist()):
        # row i is flat[i : i + w]; numpy refuses rows past the buffer's end
        view = np.ndarray((flat.size - w + 1, w), flat.dtype, flat, 0, flat.strides * 2)
        step = max(1, grid._BLOCK_BYTES // (8 * w))
        for a in range(lo, end, step):
            b = min(a + step, end)
            values = view[first[a:b]]
            mean = np.add.reduce(values, axis=1) / w
            values -= mean[:, None]
            np.square(values, out=values)
            out[a:b] = np.add.reduce(values, axis=1) / w
    return out


def _rank_array(values, what: str) -> np.ndarray:
    """`values` as an int64 array; RankOutOfRangeError for floats and integers beyond int64.

    Nothing is truncated or wrapped: numpy holds 2**63 .. 2**64 - 1 as uint64
    and larger integers as objects, and both are refused.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise RankOutOfRangeError(f"{what} must be integers within int64, got {arr.dtype}")
    if arr.size and arr.dtype.kind == "u" and arr.max() > _INT64_MAX:
        raise RankOutOfRangeError(f"{what} must be integers within int64, got {arr.max()}")
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
    if d > _INT64_MAX:
        raise RankOutOfRangeError(f"d_target must be within int64, got {d}")
    return d, v


class Release:
    """One released table, ranked once and indexed for permutation distances.

    Holds the table and its rank profile, always ranked from the table under
    `tie_seed`, so anyone holding the table and the disclosed seed rebuilds
    the same ranks.  Each attribute's values in rank order, which check that
    the profile orders the table, and the search grid (`grid.Grid`) are
    built on first use, so a release that is only ranked keeps neither.  A
    search that fits one block reads every pair at once (`grid.scan`), and a
    thin one reads the release in record blocks; the grid walks any other
    search once for its distances and match sets, and is built by the first.
    Every distance entry point takes a Release, and this is the only place a
    table is ranked and indexed for a search.
    """

    def __init__(self, table: MicrodataTable, *, tie_seed: int = DEFAULT_TIE_SEED):
        self.table = table
        self.profile = RankProfile.of(table, tie_seed)

    @cached_property
    def values_by_rank(self) -> np.ndarray:
        """(m, n) read-only array: row j is attribute j's values in rank order.

        Each row is checked to be ascending.  The array is C-contiguous, so
        its `ravel()` lays the m rows end to end without a copy.
        """
        out = np.empty((self.m, self.n))
        for row, column, ranks in zip(out, self.table.values.T, self.profile.ranks.T):
            row[:] = _values_by_rank(column, ranks)
        out.setflags(write=False)
        return out

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def m(self) -> int:
        return self.table.m

    @property
    def tie_seed(self) -> int:
        return self.profile.tie_seed

    def centers(self, queries) -> np.ndarray:
        """(q, m) nearest-value ranks for query records, checked here for every search.

        `queries` is a table naming the release's attributes in order (else
        ShapeMismatchError), or a (q, m) or (m,) array: ShapeMismatchError
        for another width, InvalidValueError for NaN or infinite values.
        """
        if isinstance(queries, MicrodataTable):
            check_same_attributes(queries, self.table)
            x = queries.values
        else:
            x = np.asarray(queries, dtype=float)
            x = x.reshape(1, -1) if x.ndim == 1 else x
            if x.ndim != 2 or x.shape[1] != self.m:
                raise ShapeMismatchError(f"queries have shape {x.shape}, expected (*, {self.m})")
            if not np.all(np.isfinite(x)):
                raise InvalidValueError("query records contain NaN or infinite values")
        return np.column_stack([_closest_ranks(v, c) for v, c in zip(self.values_by_rank, x.T)])

    @cached_property
    def _grid(self) -> grid.Grid:
        return grid.Grid.of(self.profile.ranks)

    def _check_centers(self, centers) -> np.ndarray:
        """`centers` as a (q, m) int64 matrix of 1-based ranks.

        ShapeMismatchError for another shape, RankOutOfRangeError for floats,
        integers beyond int64 and ranks outside 1..n.
        """
        centers = _rank_array(centers, "center ranks")
        if centers.ndim != 2 or centers.shape[1] != self.m:
            raise ShapeMismatchError(f"centers have shape {centers.shape}, expected (*, {self.m})")
        if centers.size and (centers.min() < 1 or centers.max() > self.n):
            raise RankOutOfRangeError(f"center ranks outside 1..{self.n}")
        return centers

    def _search(self, centers: np.ndarray, match_sets: bool = True) -> tuple:
        """(distances, offsets, matches), or from the grid (distances,) if not `match_sets`.

        The one place a search picks its read: `grid.scan` when its q * n
        candidate rows fit one block, q * n * 8m <= `grid._BLOCK_BYTES`, or
        when it is thin, q <= `grid._THIN_QUERIES`, which it reads in record
        blocks; else the grid, which the first such search builds.
        """
        q = len(centers)
        if q <= grid._THIN_QUERIES or q * self.n * 8 * self.m <= grid._BLOCK_BYTES:
            return grid.scan(self.profile.ranks, centers)
        return self._grid.search(centers, match_sets)

    def distances(self, centers) -> np.ndarray:
        """(q,) min-max rank deviation for each row of (q, m) 1-based centers.

        The centers are checked as `window_variances` checks them; `search`
        hands its own centers on unchecked.
        """
        return self._search(self._check_centers(centers), match_sets=False)[0]

    def search(self, queries) -> Evidence:
        """Full distance evidence for every query record, row i numbered i + 1."""
        centers = self.centers(queries)
        distances, offsets, matches = self._search(centers)
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
        one per row.  Each window is clipped to [1, n], after the radius is
        clipped to n, so no radius overflows.  All q * m windows are taken
        in one pass over `values_by_rank.ravel()`, where the window of
        (record i, attribute j) is a first position and a width inside row
        j, and each distinct window is reduced once (`_window_variances`).
        """
        n, m = self.n, self.m
        centers = self._check_centers(centers)
        radius = _rank_array(d, "window radius")
        if radius.ndim > 1 or radius.size not in (1, len(centers)):
            raise ShapeMismatchError(f"radius of shape {radius.shape} for {len(centers)} centers")
        radius = np.broadcast_to(radius, centers.shape[:1])
        if np.any(radius < 0):
            raise RankOutOfRangeError("window radius must be nonnegative")
        radius = np.minimum(radius, n)[:, None]
        first = np.maximum(centers - radius, 1) - 1
        width = np.minimum(centers + radius, n) - first
        first += np.arange(m) * n
        # distinct windows, ordered by width and then by first position
        key, inverse = np.unique((width * (m * n) + first).ravel(), return_inverse=True)
        width, first = np.divmod(key, m * n)
        variances = _window_variances(self.values_by_rank.ravel(), first, width)
        return variances[inverse].reshape(centers.shape)

    def verdicts(
        self, centers, distances, d_target: int, v_target: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pass mask and (q, m) window variances of q records at the targets.

        A record passes when its distance, a nonnegative integer, is at least
        d_target and every window variance at radius d_target is strictly
        above v_target[j].  This is the one place that rule is applied.
        """
        d_target, v_target = check_targets(d_target, v_target, self.m)
        variances = self.window_variances(centers, d_target)
        distances = _rank_array(distances, "distances")
        if distances.shape != variances.shape[:1]:
            raise ShapeMismatchError(
                f"distances of shape {distances.shape} for {len(variances)} records"
            )
        if np.any(distances < 0):
            raise RankOutOfRangeError("distances must be nonnegative")
        passed = (distances >= d_target) & np.all(variances > np.asarray(v_target), axis=1)
        return passed, variances


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
    evidence = release.search(x)
    if len(evidence) != 1:
        raise ShapeMismatchError(f"expected one record, got {len(evidence)}; use Release.search")
    return replace(evidence[0], record_index=record_index)


def batch_permutation_distances(queries, release: Release) -> np.ndarray:
    """Distances only, vectorized over many query records."""
    return release.distances(release.centers(queries))


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

    @classmethod
    def of(cls, release: Release, result: RecordDistanceResult, d_target: int, v_target):
        """`result` judged by `Release.verdicts`: the one place a verification is built."""
        d, v = check_targets(d_target, v_target, release.m)
        passed, variances = release.verdicts([result.closest_ranks], [result.distance], d, v)
        return cls(bool(passed[0]), result, tuple(variances[0].tolist()), d, v)


def verify_record(x, release: Release, d_target: int, v_target) -> RecordVerification:
    """Check distance >= d_target and every window variance > v_target[j].

    The variance clause is strict and evaluated at radius d_target.  Passing
    at (d_target, v_target) implies the distance clause passes at any smaller
    d', but the variance clause must be re-evaluated there.  `x` is one
    record; several records raise ShapeMismatchError, as in
    `permutation_distance`.
    """
    return RecordVerification.of(release, permutation_distance(x, release), d_target, v_target)


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
