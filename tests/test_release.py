"""The Release index and its projection search against the brute-force oracles."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    brute_search,
    oracle_distance,
    random_pair,
    random_table,
    random_tied_table,
)
from permpriv import privacy
from permpriv.baseline import (
    BaselineSpec,
    baseline_distribution,
    distance_distribution,
    subject_safety_check,
)
from permpriv.errors import InvalidValueError, ShapeMismatchError
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


def _check_against_oracle(table, queries, tie_seed=101):
    release = Release(table, tie_seed=tie_seed)
    values = table.values.tolist()
    ranks = release.profile.ranks.tolist()
    results = release.results(queries, range(len(queries)))
    assert release.distances(release.centers(queries)).tolist() == [r.distance for r in results]
    for x, got in zip(queries, results):
        d, matches, centers = oracle_distance(x.tolist(), values, ranks)
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
    results = release.results(queries, range(len(queries)))
    assert [r.distance for r in results] == distances.tolist()
    assert [r.closest_ranks for r in results] == [tuple(c) for c in centers.tolist()]
    assert [r.matched_indices for r in results] == matches


def test_search_reaches_the_last_row_at_a_ring_edge():
    # The query's own attribute-0 rank is 5 of 8, so after the rings at
    # offsets 0..3 only record 1 (attribute-0 rank 1, offset 4) is left.
    # Records 2..8 each deviate by 5 or more on a later attribute; record 1
    # deviates by 4, on attribute 0 alone.
    ranks = np.array(
        [
            [1, 1, 8, 1],
            [2, 6, 4, 2],
            [3, 7, 5, 3],
            [4, 8, 6, 4],
            [5, 2, 1, 5],
            [6, 3, 2, 6],
            [7, 4, 3, 7],
            [8, 5, 7, 8],
        ]
    )
    table = MicrodataTable(ranks.astype(float), ("a1", "a2", "a3", "a4"))
    result = permutation_distance([5.0, 1.0, 8.0, 1.0], Release(table))
    assert result.closest_ranks == (5, 1, 8, 1)
    assert (result.distance, result.matched_indices) == (4, (1,))


def _first_block(m):
    """Queries in one block of the search's first ring (one candidate row each)."""
    return privacy._BLOCK_BYTES // (m * 8)


def test_queries_just_over_one_block():
    rng = np.random.default_rng(13)
    table = random_tied_table(rng, 30, 2, levels=8)
    count = _first_block(table.m) + 1
    queries = rng.integers(-2, 10, size=(count, 2)).astype(float)
    release = Release(table)
    distances, centers, matches = brute_search(table.values, release.profile.ranks, queries)
    assert release.distances(release.centers(queries)).tolist() == distances.tolist()
    results = release.results(queries, range(count))
    assert [r.matched_indices for r in results] == matches


def test_one_query_per_block(monkeypatch):
    monkeypatch.setattr(privacy, "_BLOCK_BYTES", 1)
    rng = np.random.default_rng(14)
    for table in (random_table(rng, 50, 3), random_tied_table(rng, 50, 3, levels=5)):
        _check_against_oracle(table, _queries(rng, table, 5))


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


def test_release_records_its_own_tie_seed(original, masked, permuted):
    assert certify_dataset(original, Release(masked, tie_seed=7)).tie_seed == 7
    assert link_records(original, Release(permuted, tie_seed=7)).tie_seed == 7


def test_release_rejects_a_profile_of_another_shape(masked):
    short = MicrodataTable(masked.values[:5], masked.attribute_names, role=Role.ANONYMIZED)
    with pytest.raises(ShapeMismatchError):
        Release(masked, RankProfile.of(short))


def test_release_rejects_a_profile_that_does_not_order_the_table():
    table = MicrodataTable([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]], ("a", "b"))
    reversed_ranks = RankProfile([[3, 3], [2, 2], [1, 1]], 101)
    with pytest.raises(InvalidValueError, match="does not order the table"):
        Release(table, reversed_ranks)
    # any tie-break of equal values still orders the table
    tied = MicrodataTable([[5.0], [5.0], [1.0]], ("a",))
    for ranks in ([[2], [3], [1]], [[3], [2], [1]]):
        release = Release(tied, RankProfile(ranks, 101))
        assert release.values_by_rank[0].tolist() == [1.0, 5.0, 5.0]


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
