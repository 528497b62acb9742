"""Tables, seeded ranking, and rank profiles."""

import json

import numpy as np
import pytest

from helpers import oracle_ranks, oracle_tied_ranks, random_table, random_tied_table
from permpriv import fixtures
from permpriv.baseline import BaselineSpec
from permpriv.errors import (
    EmptyInputError,
    InvalidSpecError,
    InvalidValueError,
    ShapeMismatchError,
)
from permpriv.masking import NoiseSpec, SynthSpec, synth_original
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
    # one large tie-heavy column on -3..3, its zeros in both signs
    rng = np.random.default_rng(9050)
    column = random_tied_table(rng, 20_000, 1, levels=7).column(0) - 3.0
    column = np.where(rng.random(column.size) < 0.5, -column, column)
    assert np.signbit(column[column == 0]).any() and not np.signbit(column[column == 0]).all()
    seed = derive_column_seed(DEFAULT_TIE_SEED, 0)
    assert np.array_equal(compute_ranks(column, seed), oracle_tied_ranks(column, seed))


def test_seeds_are_checked_not_truncated():
    col = [1.0, 1.0, 2.0, 2.0, 2.0, 3.0]
    with pytest.raises(InvalidSpecError, match="tie_seed must be an integer, got 7.9"):
        compute_ranks(col, 7.9)
    with pytest.raises(InvalidSpecError, match="tie_seed must be an integer, got 7.9"):
        derive_column_seed(7.9, 0)
    # numpy integers and the 64-bit derived seeds are integers
    assert np.array_equal(compute_ranks(col, np.int64(7)), compute_ranks(col, 7))
    assert derive_column_seed(np.int64(101), 2) == derive_column_seed(101, 2)
    seed = derive_column_seed(101, 0)
    assert seed >= 2**63  # a derived seed may use all 64 bits
    assert np.array_equal(compute_ranks(col, np.uint64(seed)), compute_ranks(col, seed))


def test_negative_seeds_are_refused_everywhere(original):
    col = [1.0, 1.0, 2.0]
    calls = [
        lambda: compute_ranks(col, -1),
        lambda: derive_column_seed(-1, 0),
        lambda: RankProfile.of(original, -1),
        lambda: Release(original, tie_seed=-(2**70)),
        lambda: BaselineSpec(mode="sampled", seed=-1),
        lambda: SynthSpec(n=3, means=[0.0], stds=[1.0], seed=-1),
        lambda: NoiseSpec(sigmas=[1.0], seed=-1),
    ]
    for call in calls:
        with pytest.raises(InvalidSpecError, match="must be a non-negative integer"):
            call()
    # zero and the largest 64-bit seed are seeds
    assert compute_ranks(col, 0).tolist() in ([1, 2, 3], [2, 1, 3])
    assert sorted(compute_ranks(col, 2**64 - 1).tolist()) == [1, 2, 3]
    assert SynthSpec(n=3, means=[0.0], stds=[1.0], seed=2**64 - 1).seed == 2**64 - 1


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


def test_three_dimensional_values_are_a_shape_mismatch():
    with pytest.raises(ShapeMismatchError, match="expected a 2-d table"):
        MicrodataTable(np.zeros((2, 3, 1)), ("a", "b", "c"))


def test_attribute_names_must_be_utf8_text():
    # a lone surrogate is how Python decodes an argument that is not UTF-8;
    # it could not be written to a CSV header
    with pytest.raises(InvalidSpecError, match="not UTF-8 text"):
        MicrodataTable([[1.0, 2.0]], ("a", "b\udcff"))
    with pytest.raises(InvalidSpecError, match="not UTF-8 text"):
        synth_original(SynthSpec(n=3, means=(0.0, 1.0), stds=(1.0, 1.0), names=("\ud800", "b")))
    names = ("", 'a "b"\\c', "d\ne", "\u00e9\U0001f600")
    assert MicrodataTable(np.zeros((1, 4)), names).attribute_names == names


def test_ragged_rows_are_a_shape_mismatch():
    with pytest.raises(ShapeMismatchError, match="rows differ in length"):
        MicrodataTable([[1.0, 2.0], [3.0]], ("a", "b"))
    with pytest.raises(ShapeMismatchError, match="rows differ in length"):
        MicrodataTable([[1.0], [2.0, 3.0], [4.0]], ("a",))
    with pytest.raises(InvalidValueError, match="must be numbers"):
        MicrodataTable([[1.0, "x"]], ("a", "b"))


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
    assert np.array_equal(again.ranks, masked_ranks.ranks)
    assert again.tie_seed == masked_ranks.tie_seed
    assert again.ranks.dtype == np.int64


def test_tables_and_rank_profiles_compare_by_identity(masked, masked_ranks):
    # as every class holding arrays does; equal values are compared explicitly
    table = MicrodataTable(masked.values, masked.attribute_names, role=masked.role)
    profile = RankProfile(masked_ranks.ranks, masked_ranks.tie_seed)
    assert masked == masked and masked != table
    assert masked_ranks == masked_ranks and masked_ranks != profile
    assert len({masked, table, masked_ranks, profile}) == 4


def test_rank_profile_rejects_non_permutations():
    with pytest.raises(InvalidValueError):
        RankProfile(np.array([[1], [1]]), tie_seed=0)
    # out of range in the last slot, where rank 0 or -1 would land if scattered
    for bad in (0, 5, -1, 2**62):
        with pytest.raises(InvalidValueError, match="attribute 0 is not a permutation of 1..4"):
            RankProfile(np.array([[1], [2], [3], [bad]]), tie_seed=0)
    with pytest.raises(InvalidValueError, match="attribute 2 is not a permutation of 1..4"):
        RankProfile(np.array([[1, 4, 2], [2, 3, 1], [3, 2, 3], [4, 1, 1]]), tie_seed=0)
    with pytest.raises(ShapeMismatchError):
        RankProfile(np.array([1, 2, 3]), tie_seed=0)
    # refused by dtype, never truncated: [[1.9], [2.2]] would become [[1], [2]]
    for bad, dtype in (([[1.9], [2.2]], "float64"), ([[1.0], [2.0]], "float64"),
                       (np.array([[1], [2]], dtype=np.float32), "float32"),
                       ([[True], [False]], "bool"), ([[2**64], [1]], "object")):
        with pytest.raises(InvalidValueError, match=f"ranks must be integers, got dtype {dtype}"):
            RankProfile(bad, tie_seed=0)


def test_rank_profile_refuses_a_fractional_tie_seed(masked):
    with pytest.raises(InvalidSpecError, match="tie_seed must be an integer, got 7.9"):
        RankProfile.of(masked, tie_seed=7.9)
    with pytest.raises(InvalidSpecError, match="tie_seed must be an integer"):
        Release(masked, tie_seed=7.9)
    assert Release(masked, tie_seed=np.int64(7)).tie_seed == 7


def test_rank_profile_deterministic(masked):
    a = RankProfile.of(masked, tie_seed=DEFAULT_TIE_SEED)
    b = RankProfile.of(masked, tie_seed=DEFAULT_TIE_SEED)
    assert np.array_equal(a.ranks, b.ranks) and a.tie_seed == b.tie_seed


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
