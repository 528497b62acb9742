"""Random-record baselines: how plausible is a match distance by pure chance?

A baseline table draws each attribute independently from the corresponding
column of a source table, so its records carry no cross-attribute structure
at all.  Comparing the distance distribution of real records with that of
baseline records tells the protector whether intruder match distances mean
anything; a match is only worrying when random records almost never get that
close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CapExceededError, InvalidSpecError
from .privacy import Release, batch_permutation_distances, permutation_distance
from .reverse_map import reverse_map_table
from .table import DEFAULT_TIE_SEED, MicrodataTable, Role, derive_column_seed

DEFAULT_BASELINE_SEED = 303
DEFAULT_SAMPLE_SIZE = 10_000
DEFAULT_EXHAUSTIVE_CAP = 1_000_000

_SOURCE_TAGS = ("original", "baseline")


@dataclass(frozen=True)
class BaselineSpec:
    """How to build a baseline table.

    Exhaustive mode enumerates the full cartesian product of column values
    (n**m records, first attribute slowest) and refuses to run past
    `exhaustive_cap`; sampled mode draws `sample_size` records with
    replacement under `seed`.
    """

    mode: str = "exhaustive"
    sample_size: int = DEFAULT_SAMPLE_SIZE
    seed: int = DEFAULT_BASELINE_SEED
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise InvalidSpecError(f"unknown baseline mode {self.mode!r}")
        if int(self.sample_size) < 1:
            raise InvalidSpecError("sample_size must be positive")
        if int(self.exhaustive_cap) < 1:
            raise InvalidSpecError("exhaustive_cap must be positive")
        object.__setattr__(self, "sample_size", int(self.sample_size))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "exhaustive_cap", int(self.exhaustive_cap))


def generate_baseline(source: MicrodataTable, spec: BaselineSpec) -> MicrodataTable:
    """Build a baseline table of independent per-attribute draws from source."""
    n, m = source.n, source.m
    if spec.mode == "exhaustive":
        total = n**m
        if total > spec.exhaustive_cap:
            raise CapExceededError(
                f"exhaustive baseline needs {total} records, cap is "
                f"{spec.exhaustive_cap}; use sampled mode"
            )
        grids = np.indices((n,) * m).reshape(m, -1)
        values = np.column_stack([source.column(j)[grids[j]] for j in range(m)])
        provenance = {"method": "baseline_exhaustive", "source_role": source.role.value}
    else:
        cols = []
        for j in range(m):
            rng = np.random.default_rng(derive_column_seed(spec.seed, j))
            cols.append(source.column(j)[rng.integers(0, n, size=spec.sample_size)])
        values = np.column_stack(cols)
        provenance = {
            "method": "baseline_sampled",
            "source_role": source.role.value,
            "seed": spec.seed,
        }
    return MicrodataTable(
        values, source.attribute_names, role=Role.BASELINE, provenance=provenance
    )


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
        object.__setattr__(self, "frequencies", dict(sorted(freq.items())))
        object.__setattr__(self, "sample_size", int(self.sample_size))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.frequencies)

    @property
    def max_distance(self) -> int:
        return max(self.frequencies)

    def frequency(self, distance: int) -> float:
        return self.frequencies.get(int(distance), 0.0)

    def cumulative(self, distance: float) -> float:
        """P(D <= distance); accepts non-integer thresholds."""
        return float(sum(f for d, f in self.frequencies.items() if d <= distance))


def _tabulate(distances: np.ndarray, source_tag: str) -> DistanceDistribution:
    values, counts = np.unique(distances, return_counts=True)
    total = distances.size
    return DistanceDistribution(
        frequencies={d: c / total for d, c in zip(values.tolist(), counts.tolist())},
        sample_size=total,
        source_tag=source_tag,
    )


def distance_distribution(records: MicrodataTable, release: Release) -> DistanceDistribution:
    """Distance of every record against the release, tabulated as frequencies.

    Baseline records are tagged "baseline", any other role "original".
    """
    tag = "baseline" if records.role is Role.BASELINE else "original"
    return _tabulate(batch_permutation_distances(records, release), tag)


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

    report_kind = "subject_safety"


def subject_safety_check(
    x, release: Release, spec: BaselineSpec, *, threshold: float = 0.05
) -> SubjectSafety:
    """Is the subject's match distance plausible as a pure-chance match?

    The baseline is drawn from the permuted table itself, which shares every
    column's multiset with the original, so the subject needs nothing beyond
    their own record and the published permuted data.  Safe means a random
    record would match at least this close with probability >= threshold.
    """
    dist = permutation_distance(x, release).distance
    base_table = generate_baseline(release.table, spec)
    base = distance_distribution(base_table, release)
    p = plausibility(dist, base)
    return SubjectSafety(
        distance=dist, plausibility=p, safe=bool(p >= threshold), threshold=float(threshold)
    )


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
    original: MicrodataTable,
    anonymized: MicrodataTable,
    spec: BaselineSpec,
    *,
    threshold: float = 0.05,
    tie_seed: int = DEFAULT_TIE_SEED,
) -> AssessmentReport:
    """Full release assessment: reverse-map, then compare against the baseline.

    Distances are always measured against the reverse-mapped table, which is
    what a maximum-knowledge intruder would attack; baseline records draw
    from the original columns.  `reverse_map_table` rejects a pair that
    differs in shape or in attribute names or order.
    """
    z = reverse_map_table(original, anonymized, tie_seed)
    release = Release(z, tie_seed=tie_seed)
    dists = batch_permutation_distances(original, release)
    dist_x = _tabulate(dists, "original")
    base_table = generate_baseline(original, spec)
    dist_a = distance_distribution(base_table, release)
    div = divergence(dist_x, dist_a)
    median_d = float(np.median(dists))
    plaus = plausibility(median_d, dist_a)
    return AssessmentReport(
        original=dist_x,
        baseline=dist_a,
        divergence=div,
        median_distance=median_d,
        plausibility_at_median=plaus,
        threshold=float(threshold),
        withstands=bool(plaus >= threshold),
    )
