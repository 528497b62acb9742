"""Worst-case intruder simulation: link original records to permuted records.

The strongest realistic intruder already holds the original table and the
anonymized release, reverse-maps the release into the permuted table Z, and
then pairs each original record with the Z records at minimum permutation
distance.  Reported matches are sets: when several Z records tie at the
minimum, all of them are listed, because the intruder cannot tell them apart.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidTruthMappingError
from .privacy import Evidence, Release
from .table import MicrodataTable, check_integer, check_same_layout


@dataclass(frozen=True, eq=False)
class LinkageResult:
    """Per-record match sets plus aggregate coverage of the permuted table.

    Like its `Evidence`, a result compares by identity; two results are the
    same when their reports' bytes are.
    """

    per_record: Evidence
    unmatched_targets: tuple[int, ...]  # permuted records in no match set
    multiply_matched_targets: tuple[int, ...]  # permuted records in >1 match set
    tie_seed: int

    report_kind = "linkage"


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
    evidence = release.search(original.values)
    hits = np.bincount(evidence.matches, minlength=release.n + 1)
    return LinkageResult(
        per_record=evidence,
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
    evidence = result.per_record
    n = len(evidence)
    mapping = [check_integer(t, InvalidTruthMappingError, "truth entry") for t in truth]
    if len(mapping) != n or sorted(mapping) != list(range(1, n + 1)):
        raise InvalidTruthMappingError(
            f"truth must be a bijection of 1..{n}, got {len(mapping)} entries"
        )
    multiple = np.diff(evidence.offsets) > 1
    correct = ~multiple & (evidence.matches[evidence.offsets[:-1]] == mapping)
    classes = np.where(multiple, "multiple", np.where(correct, "correct", "misidentified"))
    return LinkageScore(
        correct=int(correct.sum()),
        multiple=int(multiple.sum()),
        misidentified=int(n - correct.sum() - multiple.sum()),
        classes=tuple(classes.tolist()),
    )
