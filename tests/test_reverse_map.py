"""Reverse mapping: rebuild original values in anonymized rank order."""

import numpy as np
import pytest

from helpers import random_pair, random_table
from permpriv import fixtures
from permpriv.errors import ShapeMismatchError
from permpriv.reverse_map import reverse_map_column, reverse_map_table
from permpriv.table import MicrodataTable, RankProfile, Role


def test_permuted_table_matches_reference(permuted):
    expected = np.array(fixtures.REVERSE_MAPPED)
    assert np.allclose(permuted.values, expected, atol=0.005)


def test_first_record_first_attribute(original, masked):
    # masked value 108.18 holds rank 14, so the permuted cell is the
    # original value of rank 14
    z = reverse_map_column(original.column(0), masked.column(0))
    assert masked.values[0, 0] == pytest.approx(108.18, abs=0.005)
    assert z[0] == pytest.approx(108.21, abs=0.005)


def test_identity_when_nothing_was_masked(original):
    z = reverse_map_table(original, original)
    assert np.array_equal(z.values, original.values)


def test_reverse_mapping_is_idempotent(original, permuted):
    again = reverse_map_table(original, permuted)
    assert np.array_equal(again.values, permuted.values)


def test_column_multiset_is_preserved(original, permuted):
    for j in range(original.m):
        assert np.array_equal(
            np.sort(permuted.column(j)), np.sort(original.column(j))
        )


def test_rank_order_follows_the_anonymized_table(masked, permuted):
    assert RankProfile.of(permuted) == RankProfile.of(masked)


def test_marginal_statistics_survive(original, permuted):
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert np.allclose(
            np.quantile(permuted.values, q, axis=0),
            np.quantile(original.values, q, axis=0),
        )


def test_exhaustive_position_check_small_case():
    x = [10.0, 20.0, 30.0, 40.0]
    y = [5.0, 1.0, 9.0, 2.0]  # ranks 3, 1, 4, 2
    z = reverse_map_column(x, y)
    assert z.tolist() == [30.0, 10.0, 40.0, 20.0]


def test_random_tables_keep_multiset_and_ranks():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        m = int(rng.integers(1, 4))
        x, y = random_pair(rng, n, m, sigma=float(rng.uniform(0.1, 50)))
        z = reverse_map_table(x, y)
        for j in range(m):
            assert np.array_equal(np.sort(z.column(j)), np.sort(x.column(j)))
            assert np.array_equal(
                RankProfile.of(z).vector(j), RankProfile.of(y).vector(j)
            )


def test_replay_is_bit_identical(original, masked):
    a = reverse_map_table(original, masked, tie_seed=77)
    b = reverse_map_table(original, masked, tie_seed=77)
    assert np.array_equal(a.values, b.values)


def test_role_and_provenance(permuted):
    assert permuted.role is Role.REVERSE_MAPPED
    # how the table was made, tie seed included, is not carried with it
    assert not hasattr(permuted, "provenance")


def test_shape_and_name_mismatches_rejected(original):
    rng = np.random.default_rng(1)
    short = random_table(rng, original.n - 1, original.m, role=Role.ANONYMIZED)
    with pytest.raises(ShapeMismatchError):
        reverse_map_table(original, short)
    narrow = random_table(rng, original.n, original.m - 1, role=Role.ANONYMIZED)
    with pytest.raises(ShapeMismatchError):
        reverse_map_table(original, narrow)
    renamed = MicrodataTable(
        original.values, ("p", "q", "r"), role=Role.ANONYMIZED
    )
    with pytest.raises(ShapeMismatchError):
        reverse_map_table(original, renamed)
    with pytest.raises(ShapeMismatchError):
        reverse_map_column([1.0, 2.0], [1.0, 2.0, 3.0])
