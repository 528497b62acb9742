"""Tables, seeded ranking, and rank profiles."""

import json

import numpy as np
import pytest

from helpers import oracle_ranks, oracle_tied_ranks, random_table, random_tied_table
from permpriv import fixtures
from permpriv.errors import (
    EmptyInputError,
    InvalidSpecError,
    InvalidValueError,
    ShapeMismatchError,
)
from permpriv.privacy import Release
from permpriv.table import (
    DEFAULT_TIE_SEED,
    MicrodataTable,
    RankProfile,
    Role,
    compute_ranks,
    derive_column_seed,
)


def test_rank_golden_first_attribute(original):
    col = original.column(0)
    ranks = compute_ranks(col)
    assert ranks[list(col).index(103.69)] == 10
    assert ranks[list(col).index(87.62)] == 1


def test_rank_matrices_match_reference(original, masked):
    assert RankProfile.of(original).ranks.tolist() == [
        list(r) for r in fixtures.ORIGINAL_RANKS
    ]
    assert RankProfile.of(masked).ranks.tolist() == [
        list(r) for r in fixtures.MASKED_RANKS
    ]


def test_rank_matrices_match_oracle(original, masked):
    for table in (original, masked):
        profile = RankProfile.of(table)
        for j in range(table.m):
            assert profile.vector(j).tolist() == oracle_ranks(table.column(j))


def test_sorted_distinct_column_is_identity():
    assert compute_ranks([1.5, 2.5, 7.0, 9.25]).tolist() == [1, 2, 3, 4]


def test_ranks_are_always_a_permutation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        col = rng.normal(size=n)
        if rng.random() < 0.5 and n > 2:
            col[1] = col[0]  # inject a tie
        ranks = compute_ranks(col, int(rng.integers(0, 10_000)))
        assert sorted(ranks.tolist()) == list(range(1, n + 1))


def test_tied_values_get_valid_shuffled_ranks():
    valid = {(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)}
    seen = set()
    for seed in range(40):
        ranks = tuple(compute_ranks([5.0, 5.0, 5.0], seed).tolist())
        assert ranks in valid
        seen.add(ranks)
    assert len(seen) > 1  # the shuffle actually depends on the seed


def test_ties_shuffled_only_within_their_group():
    col = [1.0, 2.0, 2.0, 3.0]
    for seed in range(25):
        ranks = compute_ranks(col, seed).tolist()
        assert ranks[0] == 1
        assert ranks[3] == 4
        assert sorted(ranks[1:3]) == [2, 3]


def test_tied_ranks_equal_the_per_value_walk():
    for case in range(50):
        rng = np.random.default_rng(9000 + case)
        n = int(rng.integers(1, 400))
        column = random_tied_table(rng, n, 1, levels=int(rng.integers(1, 60))).column(0)
        if case % 5 == 0:
            column = np.where(column == 0, -0.0, column)  # -0.0 ties with 0.0
        seed = int(rng.integers(0, 10_000))
        assert np.array_equal(compute_ranks(column, seed), oracle_tied_ranks(column, seed))


def test_rank_determinism():
    col = [3.0, 1.0, 3.0, 2.0, 3.0]
    assert compute_ranks(col, 11).tolist() == compute_ranks(col, 11).tolist()


def test_rank_input_validation():
    with pytest.raises(EmptyInputError):
        compute_ranks([])
    with pytest.raises(InvalidValueError):
        compute_ranks([1.0, float("nan")])
    with pytest.raises(InvalidValueError):
        compute_ranks([1.0, float("inf")])
    with pytest.raises(ShapeMismatchError):
        compute_ranks([[1.0, 2.0]])


def test_value_at_rank_golden(original):
    assert Release(original).values_by_rank[0][14 - 1] == pytest.approx(108.21, abs=0.005)


def test_value_at_rank_matches_sort_oracle():
    rng = np.random.default_rng(21)
    col = rng.normal(size=17)
    by_sort = sorted(col.tolist())
    values = Release(MicrodataTable(col, ("a",))).values_by_rank[0]
    for r in range(1, 18):
        assert values[r - 1] == by_sort[r - 1]


def test_table_validation():
    with pytest.raises(EmptyInputError):
        MicrodataTable(np.empty((0, 2)), ("a", "b"))
    with pytest.raises(InvalidValueError):
        MicrodataTable([[1.0], [float("nan")]], ("a",))
    with pytest.raises(ShapeMismatchError):
        MicrodataTable([[1.0, 2.0]], ("a",))
    with pytest.raises(InvalidSpecError):
        MicrodataTable([[1.0, 2.0]], ("a", "a"))
    with pytest.raises(ShapeMismatchError):
        MicrodataTable.from_columns([[1.0, 2.0], [3.0]], ("a", "b"))
    with pytest.raises(EmptyInputError):
        MicrodataTable.from_columns([], ())


def test_table_values_are_immutable(original):
    with pytest.raises((ValueError, RuntimeError)):
        original.values[0, 0] = 0.0


def test_one_dimensional_input_becomes_single_column():
    t = MicrodataTable([1.0, 2.0, 3.0], ("a",))
    assert (t.n, t.m) == (3, 1)


def test_role_round_trip():
    assert Role("original") is Role.ORIGINAL
    assert Role.REVERSE_MAPPED.value == "reverse_mapped"
    t = MicrodataTable([[1.0]], ("a",), role="baseline")
    assert t.role is Role.BASELINE


def test_rank_profile_round_trip(masked_ranks):
    # the plain nested lists a JSON reader holds rebuild the same int64 profile
    again = RankProfile(json.loads(json.dumps(masked_ranks.ranks.tolist())), masked_ranks.tie_seed)
    assert again == masked_ranks
    assert again.ranks.dtype == np.int64


def test_rank_profile_rejects_non_permutations():
    with pytest.raises(InvalidValueError):
        RankProfile(np.array([[1], [1]]), tie_seed=0)
    with pytest.raises(ShapeMismatchError):
        RankProfile(np.array([1, 2, 3]), tie_seed=0)


def test_rank_profile_deterministic(masked):
    a = RankProfile.of(masked, tie_seed=DEFAULT_TIE_SEED)
    b = RankProfile.of(masked, tie_seed=DEFAULT_TIE_SEED)
    assert a == b


def test_column_seeds_distinct_and_in_range():
    seeds = [derive_column_seed(101, j) for j in range(64)]
    assert len(set(seeds)) == 64
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_column_seed(101, 3) == derive_column_seed(101, 3)
    assert derive_column_seed(101, 3) != derive_column_seed(102, 3)


def test_adding_an_attribute_keeps_earlier_rank_columns():
    rng = np.random.default_rng(5)
    wide = random_table(rng, 12, 4)
    narrow = MicrodataTable(wide.values[:, :2], wide.attribute_names[:2])
    assert np.array_equal(
        RankProfile.of(wide).ranks[:, :2], RankProfile.of(narrow).ranks
    )
