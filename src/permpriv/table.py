"""Microdata tables and seeded rank computation.

Every analysis in this package runs on a rectangular table of n records by
m numeric attributes.  Ranks are 1-based (rank 1 is the smallest value) and
each rank vector is an exact permutation of 1..n: ties are resolved by a
seeded uniform shuffle of the tied positions, so results stay reproducible
while no two records ever share a rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    InvalidSpecError,
    InvalidValueError,
    ShapeMismatchError,
)

# Documented fixed defaults; never time-based.
DEFAULT_TIE_SEED = 101


class Role(str, Enum):
    """What a table holds within an anonymization workflow."""

    ORIGINAL = "original"
    ANONYMIZED = "anonymized"
    REVERSE_MAPPED = "reverse_mapped"
    BASELINE = "baseline"


def derive_column_seed(seed: int, index: int) -> int:
    """Derive an independent per-column 64-bit seed from a table-level seed.

    Columns are seeded independently so per-attribute work can run in any
    order (or in parallel) and still reproduce the sequential result.
    """
    state = np.random.SeedSequence([int(seed), int(index)]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def _as_column(values) -> np.ndarray:
    col = np.asarray(values, dtype=float)
    if col.ndim != 1:
        raise ShapeMismatchError(f"expected a 1-d column, got shape {col.shape}")
    if col.size == 0:
        raise EmptyInputError("column is empty")
    if not np.all(np.isfinite(col)):
        raise InvalidValueError("column contains NaN or infinite values")
    return col


def compute_ranks(column, tie_seed: int = DEFAULT_TIE_SEED) -> np.ndarray:
    """Rank the values of a column; 1 = smallest, ties shuffled under the seed.

    Returns an int64 array that is an exact permutation of 1..n.  Tied values
    receive consecutive ranks in an order drawn from a uniform shuffle of the
    tied positions only; the draw depends on nothing but (column, tie_seed),
    so regenerating with the same inputs yields identical ranks.
    """
    col = _as_column(column)
    n = col.size
    order = np.argsort(col, kind="stable")
    svals = col[order]
    rng = np.random.default_rng(int(tie_seed))
    starts = np.flatnonzero(np.r_[True, svals[1:] != svals[:-1]])
    stops = np.r_[starts[1:], n]
    tied = stops - starts > 1
    for start, stop in zip(starts[tied].tolist(), stops[tied].tolist()):
        rng.shuffle(order[start:stop])
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return ranks


def check_same_layout(first: MicrodataTable, second: MicrodataTable) -> None:
    """Reject two tables unless they agree on shape and on attribute names and order."""
    if first.n != second.n or first.m != second.m:
        raise ShapeMismatchError(
            f"table shapes differ: {first.n}x{first.m} vs {second.n}x{second.m}"
        )
    check_same_attributes(first, second)


def check_same_attributes(first: MicrodataTable, second: MicrodataTable) -> None:
    """Reject two tables unless they name the same attributes in the same order."""
    if first.attribute_names != second.attribute_names:
        raise ShapeMismatchError(
            f"attribute names or order differ between tables: "
            f"{first.attribute_names} vs {second.attribute_names}"
        )


@dataclass(frozen=True, eq=False)
class MicrodataTable:
    """n records by m numeric attributes plus a role tag.

    One container serves original, anonymized, reverse-mapped, and baseline
    data; the role tag says which.  `values` is an immutable float array of
    shape (n, m); `provenance` optionally records how the table was produced.
    """

    values: np.ndarray
    attribute_names: tuple[str, ...]
    role: Role = Role.ORIGINAL
    provenance: Mapping[str, object] | None = None

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-d table, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise EmptyInputError("table has no records or no attributes")
        if not np.all(np.isfinite(arr)):
            raise InvalidValueError("table contains NaN or infinite cells")
        names = tuple(str(a) for a in self.attribute_names)
        if len(names) != arr.shape[1]:
            raise ShapeMismatchError(
                f"{len(names)} attribute names for {arr.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise InvalidSpecError("attribute names must be distinct")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "attribute_names", names)
        object.__setattr__(self, "role", Role(self.role))

    @classmethod
    def from_columns(
        cls,
        columns: Sequence,
        attribute_names: Sequence[str],
        role: Role = Role.ORIGINAL,
        provenance: Mapping[str, object] | None = None,
    ) -> "MicrodataTable":
        cols = [_as_column(c) for c in columns]
        if len(cols) == 0:
            raise EmptyInputError("no columns given")
        lengths = {c.size for c in cols}
        if len(lengths) != 1:
            raise ShapeMismatchError(f"column lengths differ: {sorted(lengths)}")
        return cls(np.column_stack(cols), tuple(attribute_names), role, provenance)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MicrodataTable):
            return NotImplemented
        return (
            self.attribute_names == other.attribute_names
            and self.role == other.role
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True, eq=False)
class RankProfile:
    """Per-attribute 1-based rank vectors for one table, plus the tie seed.

    `ranks[i, j]` is the rank of record i within attribute j.  Each column is
    validated to be an exact permutation of 1..n.
    """

    ranks: np.ndarray
    tie_seed: int

    def __post_init__(self):
        arr = np.array(self.ranks, dtype=np.int64)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"expected 2-d rank matrix, got {arr.shape}")
        n = arr.shape[0]
        expected = np.arange(1, n + 1)
        for j in range(arr.shape[1]):
            if not np.array_equal(np.sort(arr[:, j]), expected):
                raise InvalidValueError(
                    f"rank vector for attribute {j} is not a permutation of 1..{n}"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "ranks", arr)
        object.__setattr__(self, "tie_seed", int(self.tie_seed))

    @classmethod
    def of(cls, table: MicrodataTable, tie_seed: int = DEFAULT_TIE_SEED) -> "RankProfile":
        """Rank every attribute of a table under per-column derived seeds."""
        cols = [
            compute_ranks(table.column(j), derive_column_seed(tie_seed, j))
            for j in range(table.m)
        ]
        return cls(np.column_stack(cols), tie_seed)

    @property
    def n(self) -> int:
        return self.ranks.shape[0]

    @property
    def m(self) -> int:
        return self.ranks.shape[1]

    def vector(self, j: int) -> np.ndarray:
        return self.ranks[:, j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankProfile):
            return NotImplemented
        return self.tie_seed == other.tie_seed and np.array_equal(self.ranks, other.ranks)
