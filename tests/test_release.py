"""The Release search, through each of its three reads, against the brute-force oracles."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    brute_search,
    check_search_against_brute,
    oracle_distance,
    random_pair,
    random_table,
    random_tied_table,
    search_paths,
    seeded,
)
from permpriv import grid, privacy
from permpriv.baseline import (
    BaselineSpec,
    baseline_distribution,
    distance_distribution,
    subject_safety_check,
)
from permpriv.errors import InvalidValueError, RankOutOfRangeError, ShapeMismatchError
from permpriv.linkage import link_records
from permpriv.privacy import (
    Release,
    batch_permutation_distances,
    certify_dataset,
    permutation_distance,
    verify_record,
)
from permpriv.table import MicrodataTable, RankProfile, Role

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _queries(rng, table, count):
    """Table rows, fresh draws near the data, tie-heavy levels and far outliers."""
    m = table.m
    picks = [
        table.values[rng.integers(0, table.n, size=count)],
        rng.normal(table.values.mean(axis=0), table.values.std(axis=0) + 1.0, size=(count, m)),
        rng.integers(-1, 5, size=(count, m)).astype(float),
        rng.choice([-1e12, 1e12], size=(count, m)),
    ]
    return np.vstack(picks)


def _check_csr(evidence, match_sets):
    """The match sets' CSR invariants, and each set equal to the expected one."""
    offsets, matches = evidence.offsets, evidence.matches
    assert offsets.shape == (len(match_sets) + 1,)
    assert offsets[0] == 0 and offsets[-1] == matches.size
    assert np.all(np.diff(offsets) > 0)  # nondecreasing, and no set is empty
    for i, expected in enumerate(match_sets):
        row = matches[offsets[i] : offsets[i + 1]]
        assert np.all(np.diff(row) > 0)
        assert tuple(row.tolist()) == expected


def _check_against_oracle(table, queries, tie_seed=101):
    release = Release(table, tie_seed=tie_seed)
    values = table.values.tolist()
    ranks = release.profile.ranks.tolist()
    evidence = release.search(queries)
    assert len(evidence) == len(queries)
    assert not any(column.flags.writeable for column in vars(evidence).values())
    assert release.distances(release.centers(queries)).tolist() == evidence.distances.tolist()
    oracle = [oracle_distance(x.tolist(), values, ranks) for x in queries]
    _check_csr(evidence, [matches for _, matches, _ in oracle])
    for i, (x, (d, matches, centers)) in enumerate(zip(queries, oracle)):
        got = evidence[i]
        assert got == permutation_distance(x, release, record_index=i + 1)
        assert got.distance == d
        assert got.closest_ranks == centers
        assert got.matched_indices == matches
        first = ranks[matches[0] - 1]
        assert got.matched_deviations == tuple(abs(r - c) for r, c in zip(first, centers))
        assert got.closest_values == tuple(
            sorted(col)[c - 1] for col, c in zip(zip(*values), centers)
        )


def test_search_matches_the_oracle_on_random_and_tied_tables():
    for case in range(100):
        rng = np.random.default_rng(8000 + case)
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 5))
        if case % 2:
            table = random_tied_table(rng, n, m, levels=int(rng.integers(1, 6)))
        else:
            table = random_table(rng, n, m)
        _check_against_oracle(table, _queries(rng, table, 3), int(rng.integers(0, 1000)))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (2, 1), (2, 2), (5, 1)])
def test_search_matches_the_oracle_on_degenerate_shapes(n, m):
    rng = np.random.default_rng(n * 10 + m)
    for table in (random_table(rng, n, m), random_tied_table(rng, n, m, levels=2)):
        _check_against_oracle(table, _queries(rng, table, 4))


def test_queries_far_outside_every_column():
    rng = np.random.default_rng(11)
    table = random_table(rng, 40, 3)
    far = np.array([[-1e15] * 3, [1e15] * 3, [-1e15, 1e15, -1e15], [1e15, -1e15, 0.0]])
    _check_against_oracle(table, far)


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_search_matches_the_brute_scan_at_two_thousand_records(tied):
    rng = np.random.default_rng(12 + tied)
    if tied:
        table = random_tied_table(rng, 2000, 3, levels=40)
    else:
        table, _ = random_pair(rng, 2000, 3)
    queries = np.vstack(
        [table.values[rng.permutation(2000)[:1000]], _queries(rng, table, 250)]
    )
    release = Release(table)
    distances, centers, matches = brute_search(table.values, release.profile.ranks, queries)
    evidence = release.search(queries)
    assert evidence.distances.tolist() == distances.tolist()
    assert evidence.closest_ranks.tolist() == centers.tolist()
    _check_csr(evidence, matches)


def test_search_reaches_the_first_grid_row_across_a_cell_edge():
    # The grid cuts ranks 1..16 into runs 1..8 and 9..16 on all four axes.
    # The query's own cell (9..16, 1..8, 9..16, 1..8) holds no record, and
    # no record has its first three ranks in 1..8, so record 1, in cell
    # (1..8, 1..8, 9..16, 1..8), is grid row 0.  The first box, within 4
    # ranks of the center, reaches across the edge at attribute-0 rank 8
    # into that cell.  Record 1 deviates by 4, on attribute 0 alone; every
    # other record deviates by 5 or more on some attribute.
    ranks = np.array(
        [
            [5, 1, 16, 1],
            [15, 4, 3, 12],
            [6, 12, 7, 3],
            [12, 8, 11, 9],
            [1, 10, 6, 6],
            [4, 15, 1, 5],
            [14, 14, 2, 15],
            [8, 2, 10, 4],
            [3, 3, 15, 8],
            [10, 13, 14, 10],
            [16, 5, 12, 13],
            [2, 7, 13, 14],
            [11, 16, 4, 11],
            [13, 11, 9, 16],
            [9, 6, 8, 7],
            [7, 9, 5, 2],
        ]
    )
    table = MicrodataTable(ranks.astype(float), ("a1", "a2", "a3", "a4"))
    release = Release(table)
    for _, evidence in check_search_against_brute(release, [[9.0, 1.0, 16.0, 1.0]]):
        result = evidence[0]
        assert result.closest_ranks == (9, 1, 16, 1)
        assert (result.distance, result.matched_indices) == (4, (1,))
    cells = release._grid
    assert (cells.p, cells.k, cells.records[0]) == (4, 2, 0)


def _first_block(table):
    """Queries whose box bounds the grid takes at once (cap // p), at 8 * m bytes an entry."""
    p, _ = grid.Grid.shape(table.n, table.m)
    return grid._BLOCK_BYTES // (table.m * 8) // p


def _box_blocks(monkeypatch, release, queries):
    """The (first, stop) queries of each block of `Grid.boxes` in a distance search."""
    blocks = []
    boxes = grid.Grid.boxes

    def recording(self, centers, radius):
        for block, slices, gap in boxes(self, centers, radius):
            blocks.append((block.start, block.stop))
            yield block, slices, gap

    monkeypatch.setattr(grid.Grid, "boxes", recording)
    release.distances(release.centers(queries))
    return blocks


def test_queries_just_over_one_block(monkeypatch):
    rng = np.random.default_rng(13)
    table = random_tied_table(rng, 30, 2, levels=8)
    count = _first_block(table) + 1
    queries = rng.integers(-2, 10, size=(count, 2)).astype(float)
    release = Release(table)
    distances, centers, matches = brute_search(table.values, release.profile.ranks, queries)
    assert release.distances(release.centers(queries)).tolist() == distances.tolist()
    _check_csr(release.search(queries), matches)
    # the last query's box bounds are taken on their own
    assert (count - 1, count) in _box_blocks(monkeypatch, release, queries)


def test_one_query_per_block(monkeypatch):
    monkeypatch.setattr(grid, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(14)
    for table in (random_table(rng, 50, 3), random_tied_table(rng, 50, 3, levels=5)):
        _check_against_oracle(table, _queries(rng, table, 5))


def _check_against_brute(table, queries, tie_seed=101):
    """The search through all three reads, against the brute scan."""
    release = Release(table, tie_seed=tie_seed)
    check_search_against_brute(release, queries)
    return release


def _box_rounds(monkeypatch, release, queries, match_sets=False):
    """The radii of each round of boxes that a grid search of `queries` reads, in order."""
    rounds = []
    boxes = grid.Grid.boxes

    def recording(self, centers, radius):
        rounds.append(np.array(radius))
        return boxes(self, centers, radius)

    with monkeypatch.context() as patch:
        patch.setattr(grid.Grid, "boxes", recording)
        release._grid.search(release.centers(queries), match_sets)
    return rounds


@pytest.mark.parametrize("m", range(1, 9))
def test_grid_matches_the_brute_scan_from_one_to_eight_attributes(m):
    # only the first four axes are gridded; the rest count in every deviation
    rng = np.random.default_rng(40 + m)
    for table in (random_table(rng, 300, m), random_tied_table(rng, 300, m, levels=3)):
        release = _check_against_brute(table, _queries(rng, table, 40))
        assert release._grid.p == min(m, 4)


@pytest.mark.parametrize("m", [4, 5])
def test_grid_matches_the_brute_scan_with_four_gridded_axes_of_several_runs(m):
    # at 2 000 records each of the four gridded axes is cut into 6 runs, so
    # boxes span several cells on every axis and stop at inner cell edges
    rng = np.random.default_rng(100 + m)
    for table in (random_table(rng, 2000, m), random_tied_table(rng, 2000, m, levels=7)):
        release = _check_against_brute(table, _queries(rng, table, 100))
        assert (release._grid.p, release._grid.k) == (4, 6)


def test_the_grid_never_has_more_cells_than_records():
    for m in range(1, 13):
        for n in range(1, 10_001):
            p, k = grid.Grid.shape(n, m)
            assert p == min(m, 4)
            assert 1 <= k**p <= n < (k + 1) ** p


@pytest.mark.parametrize("m,k,bound", [(3, 46, 3_179_072), (4, 17, 3_068_320)], ids=["m3", "m4"])
def test_the_grid_of_a_large_release_holds_int32_rows(m, k, bound):
    # at n = 100 000: fence, cell starts, records and row-ordered ranks, the
    # ranks as 16-byte int32 rows; with int64 rows of m ranks the grid held
    # 3 979 072 bytes at m = 3 and 4 779 072 over three axes at m = 4
    rng = np.random.default_rng(110)
    ranks = np.column_stack([rng.permutation(100_000) + 1 for _ in range(m)])
    cells = grid.Grid.of(ranks)
    held = sum(a.nbytes for a in (cells.fence, cells.starts, cells.records, cells.ranks))
    assert (cells.p, cells.k) == (min(m, 4), k)
    assert cells.ranks.dtype == np.int32 and cells.ranks.shape == (100_000, 4)
    assert held <= bound


@pytest.mark.parametrize("levels", [1, 2, 4])
def test_grid_matches_the_brute_scan_on_heavy_ties(levels):
    rng = np.random.default_rng(50 + levels)
    table = random_tied_table(rng, 1500, 3, levels=levels)
    _check_against_brute(table, _queries(rng, table, 100), tie_seed=int(rng.integers(0, 1000)))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 8), (2, 2), (2, 3), (3, 8)])
def test_a_one_cell_grid_reads_every_record(n, m):
    rng = np.random.default_rng(60 + n * m)
    for table in (random_table(rng, n, m), random_tied_table(rng, n, m, levels=2)):
        release = _check_against_brute(table, _queries(rng, table, 4))
        assert release._grid.k == 1


@pytest.mark.parametrize("n,m", [(1, 1), (1, 8), (40, 1), (40, 8), (300, 3)])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_both_search_paths_match_the_brute_scan(n, m, count):
    # no queries, one record, one attribute, eight, and heavy ties
    rng = seeded(150 + 10 * n + m + count)
    for table in (
        random_table(rng, n, m),
        random_tied_table(rng, n, m, levels=1),
        random_tied_table(rng, n, m, levels=3),
    ):
        queries = _queries(rng, table, count)
        _check_against_brute(table, queries, tie_seed=int(rng.integers(0, 1000)))


def _factors(pairs):
    """(q, n) with q * n == pairs: q the largest divisor up to its square root."""
    q = max(d for d in range(1, math.isqrt(pairs) + 1) if pairs % d == 0)
    return q, pairs // q


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["under", "at", "over"])
def test_a_search_walks_the_grid_only_past_one_block(m, extra):
    # q * n candidate rows of 8m bytes each, one pair under, at and over the
    # budget.  Within the budget a search is read in one block; past it, a
    # thin one (q <= _THIN_QUERIES) in record blocks and any other on the
    # grid, which only a search that takes it builds.  Over the budget,
    # 65 537 pairs are prime (q = 1, thin) at m = 1, and 16 385 = 113 * 145
    # at m = 4.
    q, n = _factors(grid._BLOCK_BYTES // (8 * m) + extra)
    rng = seeded(160 + m + extra)
    table = random_tied_table(rng, n, m, levels=max(2, n // 4))
    queries = rng.normal(table.values.mean(axis=0), table.values.std(axis=0) + 1.0, (q, m))
    release = Release(table)
    [(taken, _, _)] = search_paths(release, queries, [{}])
    path = "block" if extra <= 0 else "records" if q <= grid._THIN_QUERIES else "grid"
    assert taken == path
    assert ("_grid" in release.__dict__) == (path == "grid")
    check_search_against_brute(release, queries)


def test_a_match_exactly_at_gap_outside_the_last_box_takes_one_more_round(monkeypatch):
    # 16 ranks on two axes, each cut into k = 4 runs of 4.  The query at
    # ranks (6, 6) first reads runs 0 and 1 (ranks 1..8) on both axes, so
    # gap = 3: rank 9 starts the next run.  A = (3, 6) in that box gives
    # best = 3 = gap, so the distance is found, but B = (9, 7) is a match at
    # deviation 3 just outside the box.  Every other record lies 4 or more
    # from the center on some axis: each rank within 3 of 6 on one axis is
    # paired with one at least 4 away on the other.
    rng = seeded(165)
    near, far = [4, 5, 6, 7, 8], [1, 2, 10, 11, 12]
    rows = [(3, 6), (9, 7)]
    rows += zip(near, rng.permutation(far))
    rows += zip(rng.permutation(far), [3, 4, 5, 8, 9])
    rows += zip(rng.permutation(range(13, 17)), range(13, 17))
    order = rng.permutation(16)
    release = Release(MicrodataTable(np.array(rows, dtype=float)[order], ("a", "b")))
    assert release.profile.ranks[np.argsort(order)].tolist() == [list(r) for r in rows]
    for _, evidence in check_search_against_brute(release, [[6.0, 6.0]]):
        assert evidence.distances.tolist() == [3]
        assert evidence.matches.tolist() == sorted(np.flatnonzero(order < 2) + 1)
    assert (release._grid.p, release._grid.k) == (2, 4)
    for match_sets, radii in [(False, [[2]]), (True, [[2], [3]])]:
        rounds = _box_rounds(monkeypatch, release, [[6.0, 6.0]], match_sets)
        assert [r.tolist() for r in rounds] == radii


@pytest.mark.parametrize("m", [2, 3])
def test_heavy_ties_hold_hundreds_of_matched_rows_on_every_read(monkeypatch, m):
    # every attribute holds the same three levels, and 700 queries, 100 of
    # them one record repeated, share few centers: their match sets hold
    # hundreds of rows.  One set holds at most 2m, as each rank column is a
    # permutation: a deviation d is reached on an axis only at ranks c +- d.
    # Blocks of 4 entries make the grid's held rows pass a block and be
    # pruned, and the records be read one at a time.
    monkeypatch.setattr(grid, "_BLOCK_BYTES", 8 * m * 4)
    rng = seeded(166 + m)
    levels = rng.integers(0, 3, 1500).astype(float)
    table = MicrodataTable(np.column_stack([levels] * m), tuple(f"a{j}" for j in range(m)))
    queries = np.vstack([
        rng.integers(-1, 4, (300, m)).astype(float),
        rng.normal(1.0, 3.0, (300, m)),
        np.repeat(rng.normal(1.0, 1.0, (1, m)), 100, axis=0),
    ])
    pruned = []
    prune = grid._pruned

    def recording(kept, best, n, cap=-1):
        held = sum(dev.size for _, dev in kept[1:])
        if cap >= 0 and held > cap:
            pruned.append(held)
        return prune(kept, best, n, cap)

    monkeypatch.setattr(grid, "_pruned", recording)
    for _, evidence in check_search_against_brute(Release(table), queries):
        assert evidence.matches.size >= 700
        assert np.diff(evidence.offsets).max() <= 2 * m
    assert pruned


def _two_matches(rng, n, m):
    """(values, query): a table of ranks on which the query at rank c = n // 2
    on every axis matches A = (c + 1, c, .., c) and B = (c - 1, c + 1, ..,
    c + 1) at deviation 1, with A among the first n // 3 records and B among
    the last, and every other record 2 or more from c on some axis.  C and D
    take the remaining ranks within 1 of c, each with a far rank beside it."""
    c = n // 2
    a, b = [c + 1] + [c] * (m - 1), [c - 1] + [c + 1] * (m - 1)
    fixed = np.array([a, b, [c] + [1] * (m - 1), [n] + [c - 1] * (m - 1)])
    rest = [rng.permutation(np.setdiff1d(np.arange(1, n + 1), fixed[:, j])) for j in range(m)]
    others = np.vstack([fixed[2:], np.column_stack(rest)])[rng.permutation(n - 2)]
    at = [rng.integers(0, n // 3), n - 2 - rng.integers(0, n // 3)]
    values = np.insert(others, at, [a, b], axis=0)
    return values.astype(float), [float(c)] * m


@pytest.mark.parametrize("m", [1, 4, 8])
def test_a_thin_search_holds_matches_across_record_blocks(m):
    # the record-block read runs in blocks of n // 3 records.  At m = 1 each
    # distance is 0 with one match, so there the thin search's one-row sets
    # lie in different blocks; from m = 2 one query's set of two does.
    n = 60
    rng = seeded(170 + m)
    if m == 1:
        values = rng.permutation(n).astype(float)[:, None]
        queries = values[[rng.integers(0, 20), rng.integers(20, 40), rng.integers(40, 60)]]
    else:
        values, query = _two_matches(rng, n, m)
        queries = [query] + rng.normal(n / 2, n / 4, (grid._THIN_QUERIES - 1, m)).tolist()
    release = Release(MicrodataTable(values, tuple(f"a{j}" for j in range(m))))
    paths = check_search_against_brute(release, queries)
    assert [path for path, _ in paths] == ["grid", "records", "block"]
    evidence = paths[1][1]
    spans = np.diff(evidence.offsets)
    blocks = (evidence.matches[: spans[0] if m > 1 else 3] - 1) // (n // 3)
    assert evidence.distances[0] == (m > 1) and len(set(blocks.tolist())) >= 2


def _clustered_table(rng, n):
    """Every attribute follows one latent order: the records sit near the
    diagonal of rank space, and most grid cells are empty."""
    latent = np.sort(rng.normal(size=n))
    values = latent[:, None] * [1.0, 10.0, 100.0] + rng.normal(0.0, 0.05, (n, 3))
    return MicrodataTable(values, ("a", "b", "c"))


def _far_queries(rng, table, count):
    """Records at rank 1 or n on each attribute, then `_queries`."""
    low, high = table.values.min(axis=0), table.values.max(axis=0)
    corners = np.where(np.indices((2,) * table.m).reshape(table.m, -1).T, high, low)
    return np.vstack([corners, _queries(rng, table, count)])


def test_grid_on_a_clustered_release_with_mostly_empty_cells(monkeypatch):
    # queries at ranks 1 and n on crossed attributes, and far outliers, lie
    # far from the diagonal and need boxes past the first two
    rng = np.random.default_rng(70)
    table = _clustered_table(rng, 2000)
    queries = _far_queries(rng, table, 50)
    release = _check_against_brute(table, queries)
    cells = release._grid
    assert np.count_nonzero(np.diff(cells.starts)) < 0.1 * cells.k**cells.p
    assert len(_box_rounds(monkeypatch, release, queries)) >= 3


def test_the_boxes_grow_geometrically_on_far_queries(monkeypatch):
    # each box reaches at least twice as far as the last, so no query needs
    # more than about log2(n) rounds, even from the corners of rank space
    rng = np.random.default_rng(70)
    table = _clustered_table(rng, 2000)
    release = Release(table)
    rounds = _box_rounds(monkeypatch, release, _far_queries(rng, table, 50))
    assert len(rounds) <= int(np.ceil(np.log2(table.n))) + 2
    for before, after in zip(rounds, rounds[1:]):
        assert after.size <= before.size


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_one_query_per_block_on_far_queries(monkeypatch, tied):
    # blocks of one (query, slice) pair and one slice of rows in every box
    monkeypatch.setattr(grid, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(80 + tied)
    table = _clustered_table(rng, 400)
    if tied:
        table = MicrodataTable(np.round(table.values), table.attribute_names)
    queries = _far_queries(rng, table, 20)
    release = _check_against_brute(table, queries)
    assert len(_box_rounds(monkeypatch, release, queries)) >= 3


@pytest.mark.parametrize("pairs", [6, 20, 64])
def test_blocks_that_split_a_step_of_box_bounds(monkeypatch, pairs):
    # blocks of a few (query, slice) pairs, so a block of pairs often starts
    # inside the cap // p queries whose box bounds are taken together
    monkeypatch.setattr(grid, "_BLOCK_BYTES", pairs * 3 * 8)
    rng = np.random.default_rng(90 + pairs)
    table = _clustered_table(rng, 400)
    queries = _far_queries(rng, table, 20)
    release = _check_against_brute(table, queries)
    step = pairs // 3
    assert _first_block(table) == step
    assert any(first % step for first, _ in _box_blocks(monkeypatch, release, queries))


def test_entry_points_take_a_release(original, masked, permuted):
    # a bare table is never ranked behind the caller's back: it fails loudly
    x = original.values[4]
    spec = BaselineSpec(mode="sampled", sample_size=5)
    evidence = permutation_distance(x, Release(permuted))
    calls = [
        lambda: permutation_distance(x, permuted),
        lambda: batch_permutation_distances(original, permuted),
        lambda: verify_record(x, masked, 0, (0.0, 0.0, 0.0)),
        lambda: certify_dataset(original, masked),
        lambda: link_records(original, permuted),
        lambda: distance_distribution(original, permuted),
        lambda: baseline_distribution(original, permuted, spec),
        lambda: subject_safety_check(evidence, permuted, spec),
    ]
    for call in calls:
        with pytest.raises(AttributeError):
            call()


def test_a_release_is_ranked_from_its_table_and_tie_seed_only(masked):
    # a subject holding the table and the disclosed seed rebuilds the same ranks
    release = Release(masked, tie_seed=7)
    assert release.tie_seed == 7
    again = RankProfile.of(masked, 7)
    assert np.array_equal(release.profile.ranks, again.ranks)
    assert release.profile.tie_seed == again.tie_seed
    with pytest.raises(TypeError):
        Release(masked, RankProfile.of(masked, 5))


def test_release_records_its_own_tie_seed(original, masked, permuted):
    assert certify_dataset(original, Release(masked, tie_seed=7)).tie_seed == 7
    assert link_records(original, Release(permuted, tie_seed=7)).tie_seed == 7


def test_a_searched_release_puts_each_column_in_rank_order_once(monkeypatch):
    # the columns that check the rank order are the ones the search reads
    calls = []
    scatter = privacy._values_by_rank

    def counting(column, ranks):
        calls.append(column.size)
        return scatter(column, ranks)

    monkeypatch.setattr(privacy, "_values_by_rank", counting)
    rng = np.random.default_rng(12)
    release = Release(random_table(rng, 50, 3, role=Role.ANONYMIZED))
    release.search(random_table(rng, 7, 3).values)
    release.search(random_table(rng, 2, 3).values)
    assert calls == [50, 50, 50]


def test_search_memory_is_bounded_in_bytes():
    # 64 000 exhaustive baseline records against a 40-row release; a search
    # without blocks grows the peak RSS by tens of MiB here
    script = textwrap.dedent(
        """
        from helpers import enumerate_baseline, peak_rss_mib
        from permpriv.masking import SynthSpec, synth_original
        from permpriv.privacy import Release, batch_permutation_distances

        table = synth_original(SynthSpec(n=40, means=[100.0, 1000.0, 5000.0],
                                         stds=[10.0, 50.0, 200.0], seed=5))
        queries = enumerate_baseline(table)
        release = Release(table)
        before = peak_rss_mib()
        distances = batch_permutation_distances(queries, release)
        after = peak_rss_mib()
        assert distances.shape == (64000,)
        print(after - before)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)]), "OMP_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 8.0


def test_full_size_search_memory_is_bounded_in_bytes():
    # 10 000 queries at rank 1 or n on every attribute against 100 000
    # records: far rings and wide match boxes; the grid without blocks grows
    # the peak RSS by about 25 MiB here
    script = textwrap.dedent(
        """
        import numpy as np
        from helpers import peak_rss_mib
        from permpriv import grid
        from permpriv.masking import SynthSpec, synth_original
        from permpriv.privacy import Release

        table = synth_original(SynthSpec(n=100_000, means=[100.0, 1000.0, 5000.0, 20000.0],
                                         stds=[10.0, 50.0, 200.0, 800.0], seed=5))
        release = Release(table)
        # too many queries to be thin, so the grid is built before `before`
        release.search(table.values[: grid._THIN_QUERIES + 1])
        assert "_grid" in vars(release)
        queries = np.random.default_rng(6).choice([-1e12, 1e12], size=(10_000, 4))
        before = peak_rss_mib()
        evidence = release.search(queries)
        after = peak_rss_mib()
        assert evidence.distances.shape == (10_000,)
        print(after - before)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)]), "OMP_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 8.0


def _peak_growth(build):
    """`build()`, and the peak traced bytes while it ran above those traced before."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = build()
    return result, tracemalloc.get_traced_memory()[1] - before


@pytest.mark.parametrize("m", [1, 4, 6])
def test_building_a_release_grows_peak_memory_by_bytes_per_record(m):
    # Per record at n = 100 000, on tie-free columns, where ranking holds the
    # most.  Ranking keeps 8m bytes of ranks and holds at most 32 more while
    # a column is ranked, a bound that stacking the m rank vectors and
    # copying the stack (24m) exceeds.  Values by rank keep 8m and hold one
    # column more.  The grid keeps its rank rows, record order and cell
    # starts, and holds a second copy of the rows while it gathers them.
    n = 100_000
    table = random_table(np.random.default_rng(29), n, m)
    dtype, width = grid.Grid.layout(n, m)
    tracemalloc.start()
    try:
        release, ranking = _peak_growth(lambda: Release(table))
        _, by_rank = _peak_growth(lambda: release.values_by_rank)
        _, cells = _peak_growth(lambda: release._grid)
    finally:
        tracemalloc.stop()
    assert ranking <= (8 * m + 32) * n
    assert by_rank <= (8 * m + 12) * n
    assert cells <= (2 * dtype.itemsize * width + 32) * n


@pytest.mark.parametrize("m", [1, 4])
def test_a_search_of_one_block_grows_peak_memory_by_one_block(m):
    # q * n * 8m bytes exactly at the budget.  The deviations hold one
    # _BLOCK_BYTES at m = 1 (half of it from m = 2), and the match mask one
    # byte a pair; numpy's ufunc iterator holds a buffer of np.getbufsize()
    # items, 8 bytes each, for each of at most two broadcast operands.
    # Deviations taken out of place would hold a second block at m = 1.
    pairs = grid._BLOCK_BYTES // (8 * m)
    q, n = _factors(pairs)
    rng = seeded(170 + m)
    table = random_table(rng, n, m)
    queries = rng.normal(0.0, 100.0, (q, m))
    release = Release(table)
    release.values_by_rank  # built before, as a release's first search builds it
    tracemalloc.start()
    try:
        evidence, growth = _peak_growth(lambda: release.search(queries))
    finally:
        tracemalloc.stop()
    assert "_grid" not in release.__dict__
    outputs = sum(column.nbytes for column in vars(evidence).values())
    buffers = 2 * 8 * np.getbufsize()
    assert q * n == pairs and growth <= grid._BLOCK_BYTES + q * n + buffers + outputs


@pytest.mark.parametrize("n", [20_000, 200_000])
@pytest.mark.parametrize("m", [1, 4])
def test_a_record_block_scan_grows_peak_memory_by_one_block_whatever_n(m, n):
    # A thin search reads blocks of _BLOCK_BYTES // (8 * m * q) records.
    # Each block's deviations hold one _BLOCK_BYTES at m = 1 (half of it
    # from m = 2) and its mask one byte a pair, and are freed before the
    # next block.  Held pairs, 16 bytes each, are pruned after every block
    # to those at the running best, at most 2m a query, and a block adds at
    # most as many.  Buffers as in the one-block search.
    q = grid._THIN_QUERIES
    rows = grid._BLOCK_BYTES // (8 * m * q)
    rng = seeded(180 + m)
    table = random_table(rng, n, m)
    queries = rng.normal(0.0, 100.0, (q, m))
    release = Release(table)
    release.values_by_rank
    tracemalloc.start()
    try:
        evidence, growth = _peak_growth(lambda: release.search(queries))
    finally:
        tracemalloc.stop()
    assert "_grid" not in release.__dict__
    outputs = sum(column.nbytes for column in vars(evidence).values())
    buffers = 2 * 8 * np.getbufsize()
    held = 16 * 4 * m * q
    assert n > rows and growth <= grid._BLOCK_BYTES + q * rows + buffers + outputs + held


@pytest.mark.parametrize("m", [3, 4])
def test_a_grid_search_keeping_match_rows_grows_peak_memory_by_blocks(m):
    # 10 000 queries against 100 000 records, half of them records of the
    # table.  Every array the walk holds has at most a block's
    # _BLOCK_BYTES // 8m entries of 8 bytes or of one padded row (16 bytes
    # at m = 3 and 4): box bounds, (query, slice) pairs and `read`'s copy of
    # them, a chunk's rows, owners, gathered ranks and deviations, and the
    # held rows, pruned once they pass a block.  Two dozen such arrays are
    # 8 blocks at m = 3.  Per query, the padded centers, the running and
    # final bests and each round's survivors take under 128 bytes.
    n, q = 100_000, 10_000
    rng = seeded(185 + m)
    table = random_table(rng, n, m)
    queries = np.vstack([
        table.values[rng.integers(0, n, q // 2)],
        rng.normal(table.values.mean(axis=0), table.values.std(axis=0), (q // 2, m)),
    ])
    release = Release(table)
    release.values_by_rank
    release._grid
    tracemalloc.start()
    try:
        evidence, growth = _peak_growth(lambda: release.search(queries))
    finally:
        tracemalloc.stop()
    outputs = sum(column.nbytes for column in vars(evidence).values())
    assert growth <= 8 * grid._BLOCK_BYTES + 128 * q + outputs


def test_distances_checks_its_centers_as_window_variances_does():
    # unchecked, a center of 0 or n + 1 read as a rank past the grid, a huge
    # or fractional one failed inside numpy, and one of 2**31 or more would
    # wrap in the int32 rows
    release = Release(random_table(np.random.default_rng(15), 50, 3))
    good = [[1, 25, 50], [50, 1, 2]]
    assert release.distances(good).tolist() == release.distances(np.array(good)).tolist()
    out_of_range = (0, 51, -1, 2**31, 2**32 + 1, 2**40, 2**63 - 1)
    for value in out_of_range:
        for call in (release.distances, lambda c: release.window_variances(c, 1)):
            with pytest.raises(RankOutOfRangeError, match="outside 1..50"):
                call([[1, 2, 3], [1, value, 3]])
    for bad in ([[1.5, 2, 3]], np.array([[2**63, 1, 1]], dtype=np.uint64), [[2**64, 1, 1]]):
        with pytest.raises(RankOutOfRangeError, match="center ranks"):
            release.distances(bad)
    for shape in ([[1, 2]], [1, 2, 3], [[[1, 2, 3]]], np.ones((2, 4), dtype=np.int64)):
        with pytest.raises(ShapeMismatchError):
            release.distances(shape)
    empty = release.distances(np.zeros((0, 3), dtype=np.int64))
    assert empty.shape == (0,) and empty.dtype == np.int64


@pytest.mark.parametrize("method", ["centers", "search"])
def test_centers_checks_its_queries_as_search_does(method):
    # a NaN or infinite query would otherwise take rank n, and a wider query
    # would lose its extra columns
    table = random_table(np.random.default_rng(16), 40, 3)
    query = getattr(Release(table), method)
    for bad in ([[1.0, np.nan, 2.0]], [[np.inf, 1.0, 2.0]], [0.0, 0.0, -np.inf]):
        with pytest.raises(InvalidValueError, match="NaN or infinite"):
            query(bad)
    for bad in (np.ones((1, 5)), np.ones((2, 2)), [1.0, 2.0], np.ones(4), np.ones((1, 1, 3))):
        with pytest.raises(ShapeMismatchError, match="queries have shape"):
            query(bad)
    other = MicrodataTable(table.values, ("b1", "b2", "b3"))
    with pytest.raises(ShapeMismatchError, match="attribute names or order differ"):
        query(other)
    # a table of the release's attributes, a (q, m) and an (m,) array
    assert [len(query(x)) for x in (table, table.values[:5], table.values[0])] == [40, 5, 1]
