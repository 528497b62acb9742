"""Worst-case intruder simulation: link original records to permuted records.

The strongest realistic intruder already holds the original table and the
anonymized release, reverse-maps the release into the permuted table Z, and
then pairs each original record with the Z records at minimum permutation
distance.  Reported matches are sets: when several Z records tie at the
minimum, all of them are listed, because the intruder cannot tell them apart.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidTruthMappingError
from .privacy import RecordDistanceResult, Release
from .table import MicrodataTable, check_same_layout


@dataclass(frozen=True)
class LinkageResult:
    """Per-record match sets plus aggregate coverage of the permuted table."""

    per_record: tuple[RecordDistanceResult, ...]
    unmatched_targets: tuple[int, ...]  # permuted records in no match set
    multiply_matched_targets: tuple[int, ...]  # permuted records in >1 match set
    tie_seed: int

    report_kind = "linkage"

    @property
    def distances(self) -> tuple[int, ...]:
        return tuple(r.distance for r in self.per_record)

    @property
    def match_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(r.matched_indices for r in self.per_record)


def link_records(original: MicrodataTable, release: Release) -> LinkageResult:
    """Match every original record to its minimum-distance permuted records.

    `release` holds the permuted table; its tie seed is the one recorded.
    """
    check_same_layout(original, release.table)
    for j in range(original.m):
        if not np.array_equal(np.sort(original.column(j)), release.values_by_rank[j]):
            warnings.warn(
                f"attribute {original.attribute_names[j]!r} of the permuted table "
                "is not a permutation of the original; distances remain valid but "
                "the permuted table looks like raw anonymized output",
                stacklevel=2,
            )
            break
    per_record = tuple(release.results(original.values, range(1, original.n + 1)))
    hits = np.bincount(
        np.concatenate([r.matched_indices for r in per_record]), minlength=release.n + 1
    )
    return LinkageResult(
        per_record=per_record,
        unmatched_targets=tuple((np.flatnonzero(hits[1:] == 0) + 1).tolist()),
        multiply_matched_targets=tuple(np.flatnonzero(hits > 1).tolist()),
        tie_seed=release.tie_seed,
    )


@dataclass(frozen=True)
class LinkageScore:
    """Re-identification tally under a known true assignment.

    Only the data protector can compute this: the truth mapping from original
    records to permuted records is never available to an intruder.
    """

    correct: int
    multiple: int
    misidentified: int
    correct_fraction: float = field(init=False)
    classes: tuple[str, ...]  # per record: correct | multiple | misidentified

    def __post_init__(self):
        object.__setattr__(self, "correct_fraction", self.correct / len(self.classes))


def score_linkage(result: LinkageResult, truth: Sequence[int]) -> LinkageScore:
    """Score a linkage against the protector's true record assignment.

    `truth[i]` is the 1-based permuted record that original record i+1 became;
    it must be a bijection onto 1..n.  A record counts as correct only when
    its match set is a singleton holding the true target; any tie counts as
    multiple, and a wrong singleton counts as misidentified.
    """
    n = len(result.per_record)
    mapping = [int(t) for t in truth]
    if len(mapping) != n or sorted(mapping) != list(range(1, n + 1)):
        raise InvalidTruthMappingError(
            f"truth must be a bijection of 1..{n}, got {len(mapping)} entries"
        )
    classes = []
    for r, true_target in zip(result.per_record, mapping):
        if len(r.matched_indices) > 1:
            classes.append("multiple")
        elif r.matched_indices[0] == true_target:
            classes.append("correct")
        else:
            classes.append("misidentified")
    tally = Counter(classes)
    return LinkageScore(
        correct=tally.get("correct", 0),
        multiple=tally.get("multiple", 0),
        misidentified=tally.get("misidentified", 0),
        classes=tuple(classes),
    )
