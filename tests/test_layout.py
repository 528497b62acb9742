"""Tables built from any memory layout give the same ranks, evidence and bytes.

Tables and rank profiles are column-major whatever array they are built
from.  A C-order array, an F-order array and a strided view of a larger one
must give bit-identical results, each equal to the oracles'.
"""

import numpy as np
import pytest

from helpers import brute_search, oracle_tied_ranks, oracle_write_csv, seeded
from permpriv.io_report import write_csv
from permpriv.privacy import Release
from permpriv.table import MicrodataTable, RankProfile, derive_column_seed

TIE_SEED = 23

CASES = {
    "tie-heavy": lambda rng: rng.integers(0, 3, size=(40, 3)).astype(float),
    "distinct": lambda rng: rng.normal(0.0, 100.0, size=(30, 4)),
    "one record": lambda rng: rng.normal(size=(1, 3)),
    "one attribute": lambda rng: rng.integers(0, 5, size=(25, 1)).astype(float),
    "signed zeros": lambda rng: rng.choice([-0.0, 0.0, -1.5, 1.5], size=(30, 2)),
}


def _layouts(values):
    """The values as a C-order array, an F-order array and a strided view."""
    big = np.full((2 * len(values), values.shape[1]), np.nan)
    big[::2] = values  # the rows between are NaN, which no table accepts
    return {
        "C": np.ascontiguousarray(values),
        "F": np.asfortranarray(values),
        "strided": big[::2],
    }


def _bits(array):
    return array.shape, array.dtype, np.ascontiguousarray(array).tobytes()


def _results(array, tmp_path, name):
    names = tuple(f"a{j + 1}" for j in range(array.shape[1]))
    table = MicrodataTable(array, names)
    assert all(table.column(j).flags.c_contiguous for j in range(table.m))
    release = Release(table, tie_seed=TIE_SEED)
    assert all(release.profile.vector(j).flags.c_contiguous for j in range(table.m))
    evidence = release.search(table)
    path = tmp_path / f"{name}.csv"
    write_csv(table, path)
    return table, release, evidence, path.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_memory_layout_gives_the_same_results(case, tmp_path):
    values = CASES[case](seeded(90 + sorted(CASES).index(case)))
    results = {name: _results(a, tmp_path, name) for name, a in _layouts(values).items()}
    table, release, evidence, written = results["C"]
    for other_table, other, other_evidence, other_written in results.values():
        assert _bits(other_table.values) == _bits(table.values)
        assert _bits(other.profile.ranks) == _bits(release.profile.ranks)
        assert _bits(RankProfile.of(other_table, TIE_SEED).ranks) == _bits(release.profile.ranks)
        assert _bits(other.values_by_rank) == _bits(release.values_by_rank)
        for name, column in vars(evidence).items():
            assert _bits(getattr(other_evidence, name)) == _bits(column), name
        assert other_written == written

    # each of them against the oracles
    n, m = values.shape
    ranks = np.column_stack([
        oracle_tied_ranks(values[:, j], derive_column_seed(TIE_SEED, j)) for j in range(m)
    ])
    assert release.profile.ranks.tolist() == ranks.tolist()
    by_rank = np.empty((m, n))
    for j in range(m):
        by_rank[j, ranks[:, j] - 1] = values[:, j]
    assert _bits(release.values_by_rank) == _bits(by_rank)
    distances, centers, matches = brute_search(values, ranks, values)
    assert evidence.distances.tolist() == distances.tolist()
    assert evidence.closest_ranks.tolist() == centers.tolist()
    assert [r.matched_indices for r in evidence] == matches
    assert _bits(evidence.closest_values) == _bits(by_rank[np.arange(m), centers - 1])
    oracle_write_csv(table, tmp_path / "oracle.csv")
    assert (tmp_path / "oracle.csv").read_bytes() == written
