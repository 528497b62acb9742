"""Reverse mapping: rebuild original values in anonymized rank order."""

import numpy as np
import pytest

from helpers import oracle_reverse_map, random_pair, random_table, random_tied_table
from permpriv import fixtures, grid
from permpriv.decompose import decompose
from permpriv.demo import regenerate
from permpriv.errors import ShapeMismatchError
from permpriv.privacy import Release, permutation_distance
from permpriv.reverse_map import reverse_map_table
from permpriv.table import MicrodataTable, RankProfile, Role, derive_column_seed


def test_permuted_table_matches_reference(permuted):
    expected = np.array(fixtures.REVERSE_MAPPED)
    assert np.allclose(permuted.values, expected, atol=0.005)


def test_first_record_first_attribute(original, masked):
    # masked value 108.18 holds rank 14, so the permuted cell is the
    # original value of rank 14
    name = original.attribute_names[:1]
    y = MicrodataTable(masked.column(0), name, role=Role.ANONYMIZED)
    z = reverse_map_table(MicrodataTable(original.column(0), name), Release(y)).column(0)
    assert masked.values[0, 0] == pytest.approx(108.18, abs=0.005)
    assert z[0] == pytest.approx(108.21, abs=0.005)


def test_identity_when_nothing_was_masked(original):
    z = reverse_map_table(original, Release(original))
    assert np.array_equal(z.values, original.values)


def test_reverse_mapping_is_idempotent(original, permuted):
    again = reverse_map_table(original, Release(permuted))
    assert np.array_equal(again.values, permuted.values)


def test_column_multiset_is_preserved(original, permuted):
    for j in range(original.m):
        assert np.array_equal(
            np.sort(permuted.column(j)), np.sort(original.column(j))
        )


def test_rank_order_follows_the_anonymized_table(masked, permuted):
    assert np.array_equal(RankProfile.of(permuted).ranks, RankProfile.of(masked).ranks)


def test_marginal_statistics_survive(original, permuted):
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert np.allclose(
            np.quantile(permuted.values, q, axis=0),
            np.quantile(original.values, q, axis=0),
        )


def test_exhaustive_position_check_small_case():
    x = MicrodataTable([10.0, 20.0, 30.0, 40.0], ("a",))
    y = MicrodataTable([5.0, 1.0, 9.0, 2.0], ("a",), role=Role.ANONYMIZED)  # ranks 3, 1, 4, 2
    z = reverse_map_table(x, Release(y))
    assert z.column(0).tolist() == [30.0, 10.0, 40.0, 20.0]


@pytest.mark.parametrize("tie_seed", [101, 7])
def test_matches_the_per_column_oracle_bit_for_bit(tie_seed):
    rng = np.random.default_rng(59)
    shapes = [(1, 1), (1, 3), (12, 1)] + [
        (int(rng.integers(1, 60)), int(rng.integers(1, 5))) for _ in range(40)
    ] + [(5_000, 3)]
    for n, m in shapes:
        x = random_tied_table(rng, n, m)
        # negate about half the cells so zeros come in both signs
        signs = np.where(rng.random((n, m)) < 0.5, -1.0, 1.0)
        x = MicrodataTable(signs * x.values, x.attribute_names)
        y = random_tied_table(rng, n, m, role=Role.ANONYMIZED)
        expected = np.column_stack([
            oracle_reverse_map(x.column(j), y.column(j), derive_column_seed(tie_seed, j))
            for j in range(m)
        ])
        z = reverse_map_table(x, Release(y, tie_seed=tie_seed))
        assert z.values.tobytes() == expected.tobytes()


def test_random_tables_keep_multiset_and_ranks():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        m = int(rng.integers(1, 4))
        x, y = random_pair(rng, n, m, sigma=float(rng.uniform(0.1, 50)))
        z = reverse_map_table(x, Release(y))
        for j in range(m):
            assert np.array_equal(np.sort(z.column(j)), np.sort(x.column(j)))
            assert np.array_equal(
                RankProfile.of(z).vector(j), RankProfile.of(y).vector(j)
            )


def test_replay_is_bit_identical(original, masked):
    a = reverse_map_table(original, Release(masked, tie_seed=77))
    b = reverse_map_table(original, Release(masked, tie_seed=77))
    assert np.array_equal(a.values, b.values)


def test_a_searched_release_maps_as_a_fresh_one(original, masked):
    # the first search builds the values in rank order; the reverse map
    # checks each column's order all the same, and gives the same bytes
    rng = np.random.default_rng(23)
    tied = random_tied_table(rng, 300, 3), random_tied_table(rng, 300, 3, role=Role.ANONYMIZED)
    for x, y in ((original, masked), tied):
        searched = Release(y)
        searched.search(x)
        assert "values_by_rank" in searched.__dict__
        z = reverse_map_table(x, searched)
        assert z.values.tobytes() == reverse_map_table(x, Release(y)).values.tobytes()


def test_role_and_provenance(permuted):
    assert permuted.role is Role.REVERSE_MAPPED
    # how the table was made, tie seed included, is not carried with it
    assert not hasattr(permuted, "provenance")


def test_shape_and_name_mismatches_rejected(original):
    rng = np.random.default_rng(1)
    short = random_table(rng, original.n - 1, original.m, role=Role.ANONYMIZED)
    with pytest.raises(ShapeMismatchError):
        reverse_map_table(original, Release(short))
    narrow = random_table(rng, original.n, original.m - 1, role=Role.ANONYMIZED)
    with pytest.raises(ShapeMismatchError):
        reverse_map_table(original, Release(narrow))
    renamed = MicrodataTable(
        original.values, ("p", "q", "r"), role=Role.ANONYMIZED
    )
    with pytest.raises(ShapeMismatchError):
        reverse_map_table(original, Release(renamed))


def test_reverse_mapping_builds_no_search_index(monkeypatch, original, masked):
    built = []
    of = grid.Grid.of.__func__

    def recorded(cls, ranks):
        built.append(ranks.shape)
        return of(cls, ranks)

    monkeypatch.setattr(grid.Grid, "of", classmethod(recorded))
    release = Release(masked)
    reverse_map_table(original, release)
    decompose(original, release)
    # the rank order is checked one column at a time, and no column is kept
    assert not {"values_by_rank", "_grid"} & release.__dict__.keys()
    # a one-record search fits one block: it builds the columns, not the grid
    permutation_distance(original.values[0], release)
    assert {"values_by_rank", "_grid"} & release.__dict__.keys() == {"values_by_rank"}
    # the first search too large for one block builds the grid, once
    count = grid._BLOCK_BYTES // (release.n * 8 * release.m) + 1
    queries = np.resize(original.values, (count, release.m))
    release.search(queries)
    release.search(queries)
    assert built == [(release.n, release.m)]
    assert "_grid" in release.__dict__


def test_the_demo_ranks_each_table_once(monkeypatch):
    ranked = []
    rank = RankProfile.of.__func__

    def recorded(cls, table, *args):
        ranked.append(table.role)
        return rank(cls, table, *args)

    monkeypatch.setattr(RankProfile, "of", classmethod(recorded))
    regenerate()
    assert ranked == [Role.ANONYMIZED, Role.REVERSE_MAPPED]


def test_the_demo_searches_twice(monkeypatch):
    # once for the certificate, whose row 3 is record 3's evidence, and once
    # for the linkage
    searched = []
    search = Release.search

    def recorded(self, queries):
        searched.append(self.table.role)
        return search(self, queries)

    monkeypatch.setattr(Release, "search", recorded)
    regenerate()
    assert searched == [Role.ANONYMIZED, Role.REVERSE_MAPPED]
