"""Microdata tables and seeded rank computation.

Every analysis in this package runs on a rectangular table of n records by
m numeric attributes.  Ranks are 1-based (rank 1 is the smallest value) and
each rank vector is an exact permutation of 1..n: ties are resolved by a
seeded uniform shuffle of the tied positions, so results stay reproducible
while no two records ever share a rank.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    EmptyInputError,
    InvalidSpecError,
    InvalidValueError,
    PermprivError,
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
    seed = check_seed(seed, "tie_seed")
    state = np.random.SeedSequence([seed, int(index)]).generate_state(2)
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


def check_integer(value, error: type[PermprivError], what: str) -> int:
    """`value` as an int; a float or any other non-integer raises `error`, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def check_seed(value, what: str) -> int:
    """`value` as a seed: a non-negative integer, else InvalidSpecError.

    numpy's generators take any such integer, the 64-bit derived column
    seeds included, and refuse a negative one.
    """
    seed = check_integer(value, InvalidSpecError, what)
    if seed < 0:
        raise InvalidSpecError(f"{what} must be a non-negative integer, got {seed}")
    return seed


def compute_ranks(column, tie_seed: int = DEFAULT_TIE_SEED) -> np.ndarray:
    """Rank the values of a column; 1 = smallest, ties shuffled under the seed.

    Returns an int64 array that is an exact permutation of 1..n.  Tied values
    receive consecutive ranks in an order drawn from a uniform shuffle of the
    tied positions only; the draw depends on nothing but (column, tie_seed),
    so regenerating with the same inputs yields identical ranks.
    """
    col = _as_column(column)
    rng = np.random.default_rng(check_seed(tie_seed, "tie_seed"))
    order = np.argsort(col)
    _order_ties(col, order, rng)
    ranks = np.empty(col.size, dtype=np.int64)
    ranks[order] = np.arange(1, col.size + 1)
    return ranks


def _order_ties(col: np.ndarray, order: np.ndarray, rng: np.random.Generator) -> None:
    """Shuffle each run of equal values in `order`, an argsort of `col`, in place.

    Each run, -0.0 and 0.0 together, is first put in position order, as a
    stable sort leaves it, so the shuffle's draws depend on nothing but the
    column and the generator.  Each temporary is dropped once used, and all
    are gone on return, before the caller scatters ranks.
    """
    n = col.size
    svals = col[order]
    # runs of equal values; np.concatenate, as np.r_'s parsing costs more on a small column
    starts = np.flatnonzero(np.concatenate(([True], svals[1:] != svals[:-1])))
    if starts.size == n:
        return  # no two values are equal
    del svals
    sizes = np.diff(starts, append=n)
    # position order within runs: sort run * n + position, take the run back off
    offset = np.repeat(np.arange(starts.size) * n, sizes)
    order += offset
    order.sort()
    order -= offset
    del offset
    tied = sizes > 1
    for start, size in zip(starts[tied].tolist(), sizes[tied].tolist()):
        rng.shuffle(order[start : start + size])


def _is_permutation(ranks: np.ndarray) -> bool:
    """Whether an int64 vector of length n holds each of 1..n once, in O(n)."""
    n = ranks.size
    if n and (ranks.min() < 1 or ranks.max() > n):
        return False  # checked first: the scatter wraps a negative rank to the end
    seen = np.zeros(n + 1, dtype=bool)
    seen[ranks] = True
    return bool(seen[1:].all())


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
    shape (n, m), column-major, so each attribute's column is contiguous and
    every per-attribute pass reads it in place.  Every table, whatever
    produced it, is built and checked by this constructor.
    """

    values: np.ndarray
    attribute_names: tuple[str, ...]
    role: Role = Role.ORIGINAL

    def __post_init__(self):
        try:
            arr = np.array(self.values, dtype=float, order="F")
        except ValueError as exc:
            # numpy names rows of unequal length an "inhomogeneous shape"
            if "inhomogeneous" in str(exc):
                raise ShapeMismatchError("table rows differ in length") from exc
            raise InvalidValueError(f"table cells must be numbers: {exc}") from exc
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
        try:
            for name in names:
                name.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, as from an argument not in UTF-8
            raise InvalidSpecError(f"attribute name {name!r} is not UTF-8 text") from None
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "attribute_names", names)
        object.__setattr__(self, "role", Role(self.role))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]


@dataclass(frozen=True, eq=False)
class RankProfile:
    """Per-attribute 1-based rank vectors for one table, plus the tie seed.

    `ranks[i, j]` is the rank of record i within attribute j.  Each column is
    validated to be an exact permutation of 1..n.  `ranks` is a read-only
    column-major int64 array, so each attribute's ranks are contiguous.
    """

    ranks: np.ndarray
    tie_seed: int

    def __post_init__(self):
        # a matrix from outside is copied, so no caller holds a writable view of it
        arr = np.asarray(self.ranks)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"expected 2-d rank matrix, got {arr.shape}")
        if arr.size and arr.dtype.kind not in "iu":
            raise InvalidValueError(f"ranks must be integers, got dtype {arr.dtype}")
        self._adopt(arr.astype(np.int64, order="F"), self.tie_seed)

    def _adopt(self, ranks: np.ndarray, tie_seed: int) -> None:
        """Check each column of an (n, m) int64 matrix, then hold it read-only."""
        n = ranks.shape[0]
        for j in range(ranks.shape[1]):
            if not _is_permutation(ranks[:, j]):
                raise InvalidValueError(
                    f"rank vector for attribute {j} is not a permutation of 1..{n}"
                )
        ranks.setflags(write=False)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "tie_seed", check_seed(tie_seed, "tie_seed"))

    @classmethod
    def of(cls, table: MicrodataTable, tie_seed: int = DEFAULT_TIE_SEED) -> "RankProfile":
        """Rank every attribute of a table under per-column derived seeds.

        Each column is ranked into its contiguous column of one column-major
        buffer, which the profile holds without a second copy.
        """
        ranks = np.empty((table.n, table.m), dtype=np.int64, order="F")
        for j in range(table.m):
            ranks[:, j] = compute_ranks(table.column(j), derive_column_seed(tie_seed, j))
        profile = cls.__new__(cls)
        profile._adopt(ranks, tie_seed)
        return profile

    def vector(self, j: int) -> np.ndarray:
        return self.ranks[:, j]
