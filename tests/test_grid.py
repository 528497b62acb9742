"""The grid's row layout, its block cutter and the closest-rank lookup, against oracles.

The randomized cases draw through `helpers.seeded`, so
PERMPRIV_TEST_SEED_OFFSET draws fresh ones.
"""

import numpy as np
import pytest

from helpers import (
    check_search_against_brute,
    oracle_closest_ranks,
    random_table,
    random_tied_table,
    seeded,
)
from permpriv import grid, privacy
from permpriv.grid import Grid, cuts
from permpriv.privacy import Release, _closest_ranks
from permpriv.table import MicrodataTable


def brute_cuts(sizes: list[int], cap: int) -> list[tuple[int, int]]:
    """Blocks grown one item at a time; an item opens a new block when the
    open block's total would pass `cap` with it."""
    blocks, total = [], 0
    for i, size in enumerate(sizes):
        if blocks and total + size <= cap:
            blocks[-1] = (blocks[-1][0], i + 1)
            total += size
        else:
            blocks.append((i, i + 1))
            total = size
    return blocks


def check(sizes, cap: int) -> list[tuple[int, int]]:
    sizes = np.asarray(sizes, dtype=np.int64)
    got = list(cuts(np.cumsum(sizes), cap))
    assert got == brute_cuts(sizes.tolist(), cap)
    # in order, and every item in exactly one block
    assert [i for a, b in got for i in range(a, b)] == list(range(sizes.size))
    for a, b in got:
        total = int(sizes[a:b].sum())
        assert total <= cap or b - a == 1
        if b < sizes.size:  # maximal: the next item would pass cap
            assert total + sizes[b] > cap
    return got


def test_no_items_give_no_blocks():
    assert check([], 5) == []


def test_a_cap_of_one_cuts_every_item_alone():
    assert check([1, 1, 1], 1) == [(0, 1), (1, 2), (2, 3)]
    assert check([3, 1, 1, 5], 1) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_an_item_larger_than_the_cap_is_a_block_of_its_own():
    assert check([2, 10, 2, 2], 4) == [(0, 1), (1, 2), (2, 4)]
    assert check([10], 4) == [(0, 1)]
    assert check([2, 2, 10], 4) == [(0, 2), (2, 3)]


def test_a_block_fills_exactly_to_the_cap():
    assert check([1, 2, 3, 2, 1], 3) == [(0, 2), (2, 3), (3, 5)]


@pytest.mark.parametrize("cap", [0, 1, 5, 17, 100])
def test_random_sizes(cap):
    rng = seeded(cap)
    for n in range(60):
        check(rng.integers(1, 20, size=n), cap)
        check(rng.integers(0, 4, size=n), cap)  # zero-size items join a block


def test_rows_are_int32_while_every_rank_fits():
    # decided from n alone, so n = 2**31 is tested without a table of that size
    assert Grid.layout(2**31 - 1, 3) == (np.dtype(np.int32), 4)
    assert Grid.layout(2**31, 3) == (np.dtype(np.int64), 4)
    assert Grid.layout(1, 1) == (np.dtype(np.int32), 1)


def _queries(rng, table, count):
    """Table rows, draws near the data, tie levels and far outliers."""
    m = table.m
    return np.vstack([
        table.values[rng.integers(0, table.n, size=count)],
        rng.normal(table.values.mean(axis=0), table.values.std(axis=0) + 1.0, size=(count, m)),
        rng.integers(-1, 4, size=(count, m)).astype(float),
        rng.choice([-1e12, 1e12], size=(count, m)),
    ])


def _check_rows_and_search(table, rng):
    """The grid's padded rows hold the ranks, and the search agrees with the
    brute scan through all three reads."""
    release = Release(table, tie_seed=int(rng.integers(0, 1000)))
    cells = release._grid
    dtype, width = Grid.layout(table.n, table.m)
    assert cells.ranks.dtype == dtype and cells.ranks.shape == (table.n, width)
    assert np.array_equal(cells.ranks[:, : table.m], release.profile.ranks[cells.records])
    assert not cells.ranks[:, table.m :].any()
    check_search_against_brute(release, _queries(rng, table, 15))


@pytest.mark.parametrize("m,width", zip(range(1, 10), [1, 2, 4, 4, 8, 8, 8, 8, 16]))
def test_padded_rows_match_the_brute_scan_at_every_width(m, width):
    rng = seeded(120 + m)
    assert Grid.layout(300, m)[1] == width
    for table in (
        random_tied_table(rng, 300, m, levels=3),
        random_tied_table(rng, 300, m, levels=1),  # one value per column
        random_table(rng, 300, m),
        random_table(rng, 1, m),
        random_tied_table(rng, 1, m, levels=1),
    ):
        _check_rows_and_search(table, rng)


@pytest.mark.parametrize("m", [1, 3, 4, 5])
def test_int64_rows_match_the_brute_scan(monkeypatch, m):
    # the rows of a release of 2**31 or more records, on a small one
    width = Grid.layout(1, m)[1]
    monkeypatch.setattr(Grid, "layout", staticmethod(lambda n, m: (np.dtype(np.int64), width)))
    rng = seeded(130 + m)
    for table in (random_tied_table(rng, 200, m, levels=4), random_table(rng, 200, m)):
        _check_rows_and_search(table, rng)


def _check_closest(values, xs):
    got = _closest_ranks(np.asarray(values, dtype=float), np.asarray(xs, dtype=float))
    assert got.dtype == np.int64
    assert got.tolist() == oracle_closest_ranks(values, xs)


def test_a_query_equidistant_from_two_values_takes_the_smaller_rank():
    _check_closest([1.0, 3.0], [2.0])
    assert _closest_ranks(np.array([1.0, 3.0]), np.array([2.0])).tolist() == [1]
    # between two runs: the last rank of the lower run
    assert _closest_ranks(np.array([1.0, 1.0, 3.0, 3.0]), np.array([2.0])).tolist() == [2]
    _check_closest([1.0, 1.0, 3.0, 3.0], [2.0, 1.0, 3.0, 0.0, 4.0])


def test_a_tie_of_rounded_distances_takes_the_exactly_nearer_neighbour():
    # the float64 distances to both neighbours round to 12.587624472377332,
    # though the upper one is nearer by 2**-50
    below, above, x = -22.1449398058493, 3.030309138905362, -9.55731533347197
    assert abs(x - below) == abs(above - x)
    assert oracle_closest_ranks([below, above], [x]) == [2]
    assert _closest_ranks(np.array([below, above]), np.array([x])).tolist() == [2]
    # mirrored, the lower one is nearer
    _check_closest([-above, -below], [-x])
    assert _closest_ranks(np.array([-above, -below]), np.array([-x])).tolist() == [1]


def test_closest_ranks_near_the_float_range_ends():
    big, ulp = np.finfo(float).max, 2.0**971  # the spacing of the top binade
    # both rounded distances tie, and a TwoSum of x - below that took the
    # largest float second would overflow inside; the lookup takes x second
    values, x = [-big, big - 2 * ulp], -1.5 * ulp
    assert values[1] - x == x - values[0]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(privacy._two_sum(np.array([x]), np.array([big]))).all()
    assert privacy._two_sum(np.array([big]), np.array([x])).tolist() == [-ulp / 2]
    _check_closest(values, [x, -x, 0.0])
    # a ±1e308 pair, whose differences overflow for queries near either end
    _check_closest([-1e308, 1e308], [0.0, -1e308, 1e308, 1.7e308, -1.7e308, 5e-324, -big, big])
    _check_closest([-big, big], [0.0, 5e-324, -5e-324, big, -big, 1e308])
    _check_closest([-(big - 2 * ulp), big], [1.5 * ulp, -1.5 * ulp, 0.0])


def test_closest_ranks_at_generated_midpoints_across_zero():
    rng = seeded(9500)
    for _ in range(300):
        scale = 10.0 ** float(rng.integers(-300, 308))
        below, above = np.sort(rng.normal(0.0, scale, 2))
        if below == above:
            continue
        middle = below / 2 + above / 2
        xs = [middle, np.nextafter(middle, np.inf), np.nextafter(middle, -np.inf), (below + above) / 2]
        _check_closest([below, above], xs)


def test_closest_ranks_on_signed_zeros_and_far_queries():
    values = [-1.0, -0.0, 0.0, 0.0, 2.0]
    xs = [0.0, -0.0, 1.0, -0.5, 1e300, -1e300, 1e15, -1e15, 5e-324, -5e-324]
    _check_closest(values, xs)
    assert _closest_ranks(np.array(values), np.array([0.0, -0.0])).tolist() == [2, 2]
    _check_closest([7.0], xs)


def test_closest_ranks_match_the_oracle_on_random_columns():
    for case in range(100):
        rng = seeded(9000 + case)
        n = int(rng.integers(1, 40))
        if case % 2:
            values = np.sort(rng.normal(0.0, 100.0, n))
            middle = []
        else:  # repeated values, zeros of both signs among them
            values = np.sort(rng.integers(-3, 4, n) * rng.choice([-1.0, 1.0], n))
            middle = (values[:-1] + values[1:]) / 2  # exactly midway between neighbours
        xs = np.concatenate([
            rng.normal(0.0, 100.0, 15),  # unsorted
            rng.choice(values, 10),  # on the values, repeated
            middle,
            [0.0, -0.0, 1e300, -1e300, 1e15, -1e15],
        ])
        rng.shuffle(xs)
        _check_closest(values, xs)
        # a strided column, as a query matrix's attribute is read
        matrix = np.column_stack([xs, -xs])
        assert _closest_ranks(values, matrix[:, 0]).tolist() == oracle_closest_ranks(values, xs)


@pytest.mark.parametrize("m", [1, 3])
def test_block_budgets_count_eight_bytes_a_rank(monkeypatch, m):
    # a block of pairs holds _BLOCK_BYTES // (8 * m) entries, whatever the row width
    monkeypatch.setattr(grid, "_BLOCK_BYTES", 5 * 8 * m)
    rng = seeded(140 + m)
    release = Release(random_table(rng, 64, m))
    cells = release._grid
    centers = release.centers(_queries(rng, release.table, 10))
    queries, first, size = np.arange(12), np.zeros(12, dtype=np.int64), np.full(12, 1)
    centers = cells.pad(centers)
    blocks = [owner.size for owner, _, _ in cells.read(queries, first, size, centers)]
    assert blocks == [5, 5, 2]


def _check_read(cells, centers, query, first, size, chunks):
    """`cells.read` of the slices yields `chunks`, each (a, b) the slices in
    one chunk, with every slice's rows, its query and the rows' deviations,
    in the rows' dtype, and empty arrays for a chunk of empty slices."""
    got = list(cells.read(query, first, size, centers))
    assert len(got) == len(chunks)
    for (owner, rows, dev), (a, b) in zip(got, chunks):
        expected = np.concatenate([np.arange(f, f + s) for f, s in zip(first[a:b], size[a:b])])
        assert rows.tolist() == expected.tolist()
        assert owner.tolist() == np.repeat(query[a:b], size[a:b]).tolist()
        assert dev.dtype == cells.ranks.dtype and dev.shape == rows.shape
        gaps = cells.ranks[rows, : cells.m].astype(np.int64) - centers[owner, : cells.m]
        assert dev.tolist() == np.abs(gaps).max(axis=1, initial=0).tolist()


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("m", [1, 3])
def test_empty_slices_are_read_as_no_rows(monkeypatch, m, wide):
    if wide:  # the rows of a release of 2**31 or more records
        width = Grid.layout(1, m)[1]
        monkeypatch.setattr(Grid, "layout", staticmethod(lambda n, m: (np.dtype(np.int64), width)))
    rng = seeded(150 + m)
    release = Release(random_table(rng, 64, m))
    cells = release._grid
    centers = cells.pad(release.centers(_queries(rng, release.table, 1)))
    query, first = np.arange(4), np.array([3, 10, 0, 20])
    # every slice empty: one chunk, and nothing in it
    _check_read(cells, centers, query, first, np.zeros(4, dtype=np.intp), [(0, 4)])
    # a chunk holds 5 rows, so the empty slices make a chunk of their own
    # before the slice larger than the cap
    monkeypatch.setattr(grid, "_BLOCK_BYTES", 5 * 8 * m)
    _check_read(cells, centers, query, first, np.array([0, 0, 0, 8]), [(0, 3), (3, 4)])


def _first_box_rows(release, queries) -> np.ndarray:
    """The grid rows in each query's first box, the cells within n // (2k) of its center."""
    cells = release._grid
    centers = cells.pad(release.centers(queries))
    radius = np.full(len(centers), release.n // (2 * cells.k))
    total = np.zeros(len(centers), dtype=np.int64)
    for _, (query, _, size), _ in cells.boxes(centers, radius):
        np.add.at(total, query, size)
    return total


@pytest.mark.parametrize("m", [2, 3])
def test_a_query_whose_first_box_holds_no_record_matches_the_brute_scan(m):
    # records on the diagonal of rank space leave the cells off it empty,
    # so a query near a corner off the diagonal reads only empty slices first
    n = 64
    release = Release(MicrodataTable(np.repeat(np.arange(1.0, n + 1)[:, None], m, axis=1),
                                     tuple(f"a{j + 1}" for j in range(m))))
    queries = np.array([
        [1.0] * (m - 1) + [n],
        [n] + [1.0] * (m - 1),
        [10.0] * (m - 1) + [50.0],
        [30.0] * (m - 1) + [31.0],
    ])
    assert _first_box_rows(release, queries)[:2].tolist() == [0, 0]
    check_search_against_brute(release, queries)
