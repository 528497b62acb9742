"""Random-record baselines: how plausible is a match distance by pure chance?

A baseline record draws each attribute independently from the corresponding
column of a source table, so baseline records carry no cross-attribute
structure at all.  Comparing the distance distribution of real records with
that of baseline records tells the protector whether intruder match distances
mean anything; a match is only worrying when random records almost never get
that close.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapExceededError, InvalidSpecError
from .privacy import RecordDistanceResult, RecordVerification, Release, batch_permutation_distances
from .reverse_map import reverse_map_table
from .table import (
    MicrodataTable,
    Role,
    check_integer,
    check_same_layout,
    check_seed,
    derive_column_seed,
)

DEFAULT_BASELINE_SEED = 303
DEFAULT_SAMPLE_SIZE = 10_000
DEFAULT_EXHAUSTIVE_CAP = 1_000_000

_SOURCE_TAGS = ("original", "baseline")


@dataclass(frozen=True)
class BaselineSpec:
    """How to build a chance baseline.

    Exhaustive mode covers the full cartesian product of column values (n**m
    records, counted, never built) and refuses to run past `exhaustive_cap`;
    sampled mode draws `sample_size` records with replacement under `seed`.
    """

    mode: str = "exhaustive"
    sample_size: int = DEFAULT_SAMPLE_SIZE
    seed: int = DEFAULT_BASELINE_SEED
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise InvalidSpecError(f"unknown baseline mode {self.mode!r}")
        for name in ("sample_size", "exhaustive_cap"):
            value = check_integer(getattr(self, name), InvalidSpecError, name)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", check_seed(self.seed, "seed"))
        if not 0 < self.sample_size <= np.iinfo(np.intp).max:  # numpy's largest length
            raise InvalidSpecError(f"sample_size must be a positive length, got {self.sample_size}")
        if self.exhaustive_cap < 1:
            raise InvalidSpecError("exhaustive_cap must be positive")


def generate_baseline(source: MicrodataTable, spec: BaselineSpec) -> MicrodataTable:
    """Draw a sampled baseline table of independent per-attribute picks from source.

    Exhaustive mode builds no table; `baseline_distribution` computes its
    distribution directly.
    """
    if spec.mode != "sampled":
        raise InvalidSpecError(
            "generate_baseline draws sampled baselines only; "
            "use baseline_distribution for an exhaustive one"
        )
    n, m = source.n, source.m
    rngs = [np.random.default_rng(derive_column_seed(spec.seed, j)) for j in range(m)]
    # drawn as each column is gathered, so one index array is alive at a time
    picks = (rng.integers(0, n, size=spec.sample_size) for rng in rngs)
    values = np.column_stack([source.column(j)[p] for j, p in enumerate(picks)])
    return MicrodataTable(values, source.attribute_names, role=Role.BASELINE)


@dataclass(frozen=True)
class DistanceDistribution:
    """Relative frequencies of permutation distances for one record source."""

    frequencies: Mapping[int, float]
    sample_size: int
    source_tag: str

    def __post_init__(self):
        freq = {int(d): float(f) for d, f in dict(self.frequencies).items()}
        if not freq:
            raise InvalidSpecError("distance distribution has no bins")
        if any(d < 0 for d in freq):
            raise InvalidSpecError("distances must be nonnegative")
        if any(f < 0 for f in freq.values()):
            raise InvalidSpecError("frequencies must be nonnegative")
        total = sum(freq.values())
        if abs(total - 1.0) > 1e-9:
            raise InvalidSpecError(f"frequencies sum to {total!r}, expected 1")
        if self.source_tag not in _SOURCE_TAGS:
            raise InvalidSpecError(f"source_tag must be one of {_SOURCE_TAGS}")
        size = check_integer(self.sample_size, InvalidSpecError, "sample_size")
        if size < 1:
            raise InvalidSpecError(f"sample_size must be positive, got {size}")
        object.__setattr__(self, "frequencies", dict(sorted(freq.items())))
        object.__setattr__(self, "sample_size", size)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.frequencies)

    def frequency(self, distance: int) -> float:
        return self.frequencies.get(int(distance), 0.0)

    def cumulative(self, distance: float) -> float:
        """P(D <= distance); accepts non-integer thresholds.

        Exactly 1.0 from the largest distance in the support on, where a sum
        of the rounded frequencies can land an ulp off.
        """
        if distance >= self.support[-1]:
            return 1.0
        return float(sum(f for d, f in self.frequencies.items() if d <= distance))


def _tabulate(counts: np.ndarray, total: int, source_tag: str) -> DistanceDistribution:
    """counts[d] records of `total` at distance d, as frequencies of the nonzero bins."""
    return DistanceDistribution(
        frequencies={d: c / total for d, c in enumerate(counts.tolist()) if c},
        sample_size=total,
        source_tag=source_tag,
    )


def distance_distribution(records: MicrodataTable, release: Release) -> DistanceDistribution:
    """Distance of every record against the release, tabulated as frequencies.

    Baseline records are tagged "baseline", any other role "original".
    """
    tag = "baseline" if records.role is Role.BASELINE else "original"
    distances = batch_permutation_distances(records, release)
    return _tabulate(np.bincount(distances), distances.size, tag)


def _chessboard_transform(ranks: np.ndarray) -> np.ndarray:
    """Chessboard (L-infinity) distance from each cell of the n**m grid to the nearest point.

    `ranks` holds n points whose every column is a permutation of 0..n-1, so
    exactly one point p(k) has first coordinate k.  Over axes 1..m-1 the
    transform is then closed-form, near[k, c'] = max_j |c'_j - p(k)_j|, and
    the distance of cell (c0, c') is min_k max(|c0 - k|, near[k, c']).  That
    minimum is taken one shift s = |c0 - k| at a time, on contiguous slabs
    along axis 0.  After shift s every cell within s of a point holds its
    final distance, and so does a cell holding s + 1, since a smaller
    distance would be final already; the pass stops once no cell holds more.
    """
    n, m = ranks.shape
    points = np.empty_like(ranks)
    points[ranks[:, 0]] = ranks  # row k is p(k)
    dtype = np.min_scalar_type(n)
    # offsets[n - 1 - p, c] == |c - p|, read without an int64 (n, n) temporary
    offsets = sliding_window_view(np.abs(np.arange(1 - n, n)).astype(dtype), n)
    near = np.zeros((n,) * m, dtype=dtype)
    for j in range(1, m):
        shape = [n] + [1] * (m - 1)
        shape[j] = n
        np.maximum(near, offsets[n - 1 - points[:, j]].reshape(shape), out=near)
    dist = near.copy()
    scratch = np.empty_like(near)
    for s in range(1, n):
        if s >= dist.max():
            break
        for dst, src in ((slice(s, n), slice(0, n - s)), (slice(0, n - s), slice(s, n))):
            level = scratch[: n - s]
            # a filled slab: np.maximum against the int s runs about ten times slower
            level.fill(s)
            np.maximum(near[src], level, out=level)
            np.minimum(dist[dst], level, out=dist[dst])
    return dist


def baseline_distribution(
    source: MicrodataTable, release: Release, spec: BaselineSpec
) -> DistanceDistribution:
    """Distances of the baseline records drawn from source against the release.

    Sampled mode draws a table with `generate_baseline` and searches it.
    Exhaustive mode builds no table.  Every record of the n**m cartesian
    product has closest ranks that form a cell of the release's rank grid,
    and its distance is the chessboard (L-infinity) distance transform of the
    release's rank points at that cell (Rosenfeld & Pfaltz 1966), computed by
    `_chessboard_transform` into one grid of n**m small unsigned integers.  A
    cell stands for prod_j w_j[c_j] records, where w_j counts the source
    values of attribute j whose closest rank is c_j.  The histogram is built
    one first-axis slab at a time, a `np.bincount` of the slab's distances
    weighted by the outer product of w_1..w_{m-1}, scaled by w_0[c_0]; slabs
    of weight 0 are skipped.  Every partial sum is an integer no larger than
    n**m, far below 2**53 for any grid that fits in memory, so the counts are
    exact and the frequencies have the bits a search over the enumerated
    table gives.
    """
    check_same_layout(source, release.table)
    if spec.mode == "sampled":
        return distance_distribution(generate_baseline(source, spec), release)
    n, m = source.n, source.m
    total = n**m
    if total > spec.exhaustive_cap:
        raise CapExceededError(
            f"exhaustive baseline needs {total} records, cap is "
            f"{spec.exhaustive_cap}; use sampled mode"
        )
    centers = release.centers(source) - 1
    first, *rest = [np.bincount(c, minlength=n) for c in centers.T]
    dist = _chessboard_transform(release.profile.ranks - 1)
    rest_weight = reduce(np.multiply.outer, rest, np.ones(())).ravel()
    counts = np.zeros(int(dist.max()) + 1)
    for c0 in np.flatnonzero(first):
        slab = np.bincount(dist[c0].ravel(), weights=rest_weight, minlength=counts.size)
        counts += first[c0] * slab
    return _tabulate(counts, total, "baseline")


def _check_threshold(threshold) -> float:
    """A plausibility threshold as a float; anything outside [0, 1], NaN too, is refused."""
    t = float(threshold)
    if not 0.0 <= t <= 1.0:
        raise InvalidSpecError(f"threshold must be a probability in [0, 1], got {threshold!r}")
    return t


def plausibility(distance: float, baseline: DistanceDistribution) -> float:
    """Probability that a random baseline record matches at most this close."""
    return baseline.cumulative(distance)


@dataclass(frozen=True)
class DivergenceSummary:
    total_variation: float
    hellinger: float


def divergence(a: DistanceDistribution, b: DistanceDistribution) -> DivergenceSummary:
    """Total-variation and Hellinger distances over the union of supports."""
    support = sorted(set(a.frequencies) | set(b.frequencies))
    p = np.array([a.frequency(d) for d in support])
    q = np.array([b.frequency(d) for d in support])
    tv = 0.5 * float(np.abs(p - q).sum())
    hel = float(np.sqrt(((np.sqrt(p) - np.sqrt(q)) ** 2).sum()) / np.sqrt(2.0))
    return DivergenceSummary(total_variation=tv, hellinger=hel)


@dataclass(frozen=True)
class SubjectSafety:
    """A data subject's own plausibility check against the permuted table."""

    distance: int
    plausibility: float
    safe: bool
    threshold: float


def subject_safety_check(
    evidence: RecordDistanceResult, release: Release, spec: BaselineSpec, *,
    threshold: float = 0.05,
) -> SubjectSafety:
    """Is the subject's match distance plausible as a pure-chance match?

    `evidence` is the subject's own search result against the release.  The
    baseline is drawn from the permuted table itself, which shares every
    column's multiset with the original, so the subject needs nothing beyond
    their own record and the published permuted data.  Safe means a random
    record would match at least this close with probability >= threshold.
    """
    threshold = _check_threshold(threshold)
    base = baseline_distribution(release.table, release, spec)
    d = evidence.distance
    p = plausibility(d, base)
    return SubjectSafety(distance=d, plausibility=p, safe=bool(p >= threshold), threshold=threshold)


@dataclass(frozen=True)
class SubjectReport:
    """What `subject.json` holds: a subject's own evidence, the window variances
    at its distance, and the `verification` (--d/--v) and `safety`
    (--baseline) checks, each None when not asked for."""

    evidence: RecordDistanceResult
    variances_at_distance: tuple[float, ...]
    verification: RecordVerification | None
    safety: SubjectSafety | None

    report_kind = "subject"


@dataclass(frozen=True)
class AssessmentReport:
    """Side-by-side view of real and baseline match behaviour for a release.

    `withstands` answers the protector's question: at the median distance of
    the real records, would a random record match at least that close with
    probability >= threshold?  If yes, intruder matches at typical distances
    prove nothing.
    """

    original: DistanceDistribution
    baseline: DistanceDistribution
    divergence: DivergenceSummary
    median_distance: float
    plausibility_at_median: float
    threshold: float
    withstands: bool

    report_kind = "assessment"


def assess_tables(
    original: MicrodataTable, anonymized: Release, spec: BaselineSpec, *,
    threshold: float = 0.05,
) -> AssessmentReport:
    """Full release assessment: reverse-map, then compare against the baseline.

    Distances are always measured against the reverse-mapped table, which is
    what a maximum-knowledge intruder would attack, ranked under the
    anonymized release's tie seed; baseline records draw from the original
    columns.  `reverse_map_table` rejects a pair that differs in shape or in
    attribute names or order.
    """
    threshold = _check_threshold(threshold)
    z = reverse_map_table(original, anonymized)
    release = Release(z, tie_seed=anonymized.tie_seed)
    dists = batch_permutation_distances(original, release)
    dist_x = _tabulate(np.bincount(dists), dists.size, "original")
    dist_a = baseline_distribution(original, release, spec)
    div = divergence(dist_x, dist_a)
    median_d = float(np.median(dists))
    plaus = plausibility(median_d, dist_a)
    return AssessmentReport(
        original=dist_x,
        baseline=dist_a,
        divergence=div,
        median_distance=median_d,
        plausibility_at_median=plaus,
        threshold=threshold,
        withstands=bool(plaus >= threshold),
    )
