"""The exhaustive chance baseline as a distance transform, against enumeration and dilation."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    dilation_baseline_counts,
    enumerate_baseline,
    oracle_baseline_frequencies,
    random_pair,
    random_tied_table,
)
from permpriv.baseline import (
    BaselineSpec,
    baseline_distribution,
    distance_distribution,
    generate_baseline,
)
from permpriv.errors import InvalidSpecError, ShapeMismatchError
from permpriv.privacy import Release
from permpriv.reverse_map import reverse_map_table
from permpriv.table import MicrodataTable, Role

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
EXHAUSTIVE = BaselineSpec(mode="exhaustive")


def _bits(frequencies):
    return {d: float(f).hex() for d, f in frequencies.items()}


def _check_against_oracle(source, release, *, search=True):
    got = baseline_distribution(source, release, EXHAUSTIVE)
    total = source.n**source.m
    dilated = dilation_baseline_counts(source, release)
    assert _bits(got.frequencies) == _bits({d: c / total for d, c in dilated.items()})
    if search:  # the enumerated table too
        want = oracle_baseline_frequencies(source, release.table.values, release.profile.ranks)
        assert _bits(got.frequencies) == _bits(want)
    assert got.sample_size == total
    assert got.source_tag == "baseline"
    return got


def _rounded(table, grid, role):
    values = np.round(table.values / grid) * grid
    return MicrodataTable(values, table.attribute_names, role=role)


def _cases():
    """(source, release) pairs: random, tie-heavy, degenerate and wide."""
    rng = np.random.default_rng(808)
    for case in range(60):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 4))
        x, y = random_pair(rng, n, m, sigma=float(rng.uniform(0.1, 80)))
        if case % 3 == 1:  # ties on both sides: every cell on a grid of 5
            x = _rounded(x, 5.0, Role.ORIGINAL)
            y = _rounded(y, 5.0, Role.ANONYMIZED)
        elif case % 3 == 2:
            x = random_tied_table(rng, n, m, levels=int(rng.integers(1, 4)))
            y = random_tied_table(rng, n, m, role=Role.ANONYMIZED, levels=3)
        z = reverse_map_table(x, Release(y, tie_seed=int(rng.integers(0, 1000))))
        yield x, Release(z, tie_seed=int(rng.integers(0, 1000)))
    for n, m in ((1, 1), (1, 3), (2, 1), (17, 1), (5, 4), (6, 4)):
        x, y = random_pair(rng, n, m, sigma=30.0)
        yield x, Release(reverse_map_table(x, Release(y)))
    x = random_tied_table(rng, 6, 4, levels=2)
    yield x, Release(x, tie_seed=9)


@pytest.mark.parametrize("source_is_release", [False, True], ids=["original", "release"])
def test_exhaustive_baseline_matches_enumeration(source_is_release):
    for x, release in _cases():
        _check_against_oracle(release.table if source_is_release else x, release)


def test_diagonal_release_reaches_half_the_grid():
    # every attribute ranks the records alike, so cell (1, n) sits (n - 1) / 2 out
    n = 100
    column = np.arange(n, dtype=float)
    table = MicrodataTable(np.column_stack([column, 3.0 * column]), ("a", "b"))
    got = _check_against_oracle(table, Release(table))
    assert max(got.frequencies) == 50


@pytest.mark.parametrize("n", [255, 256, 257])
def test_distance_grid_dtype_boundary(n):
    # the distance grid is uint8 up to n = 255 and uint16 from 256 on;
    # searching the ~65 000 enumerated records takes seconds, so the dilation
    # is the oracle here
    rng = np.random.default_rng(n)
    x, y = random_pair(rng, n, 2, sigma=40.0)
    _check_against_oracle(x, Release(reverse_map_table(x, Release(y))), search=False)
    # rank k on the first attribute sits at rank k + n // 2 (mod n) on the
    # second, so cell (1, 1) lies about n / 2 from every point
    ranks = np.arange(n)
    shifted = MicrodataTable(np.column_stack([ranks, (ranks + n // 2) % n]).astype(float),
                             ("a1", "a2"))
    got = _check_against_oracle(x, Release(shifted), search=False)
    assert max(got.frequencies) >= n // 2 - 1


@pytest.mark.parametrize("n, m", [(9, 4), (6, 5)])
def test_long_tie_runs_in_four_and_five_attributes(n, m):
    rng = np.random.default_rng(10 * n + m)
    for levels in (1, 2, 3):
        x = random_tied_table(rng, n, m, levels=levels)
        y = random_tied_table(rng, n, m, role=Role.ANONYMIZED, levels=2)
        release = Release(reverse_map_table(x, Release(y, tie_seed=levels)), tie_seed=7)
        for source in (x, release.table):
            _check_against_oracle(source, release)


def test_source_with_mostly_zero_first_axis_weights():
    rng = np.random.default_rng(31)
    n = 30
    x, y = random_pair(rng, n, 3, sigma=20.0)
    values = x.values.copy()
    values[:, 0] = np.where(rng.random(n) < 0.8, 50.0, values[:, 0])
    source = MicrodataTable(values, x.attribute_names)
    release = Release(reverse_map_table(x, Release(y)))
    first = np.bincount(release.centers(source.values)[:, 0] - 1, minlength=n)
    assert np.count_nonzero(first) <= n // 2
    _check_against_oracle(source, release)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (40, 1)])
def test_a_single_record_or_attribute_is_always_at_distance_0(n, m):
    rng = np.random.default_rng(n + m)
    x, y = random_pair(rng, n, m, sigma=5.0)
    got = _check_against_oracle(x, Release(y))
    assert got.frequencies == {0: 1.0}


def test_exhaustive_baseline_matches_the_searched_table(original, permuted):
    # the enumerated table searched by the package itself gives the same bits
    release = Release(permuted)
    for source in (original, permuted):
        searched = distance_distribution(enumerate_baseline(source), release)
        got = baseline_distribution(source, release, EXHAUSTIVE)
        assert _bits(got.frequencies) == _bits(searched.frequencies)
        assert (got.sample_size, got.source_tag) == (searched.sample_size, "baseline")


def test_sampled_mode_searches_the_drawn_table(original, permuted):
    release = Release(permuted)
    spec = BaselineSpec(mode="sampled", sample_size=300, seed=4)
    got = baseline_distribution(original, release, spec)
    assert got == distance_distribution(generate_baseline(original, spec), release)


def test_generate_baseline_refuses_exhaustive_specs(original):
    with pytest.raises(InvalidSpecError, match="baseline_distribution"):
        generate_baseline(original, EXHAUSTIVE)


def test_source_must_share_the_release_layout(original, permuted):
    short = MicrodataTable(original.values[:5], original.attribute_names)
    renamed = MicrodataTable(original.values, ("b", "a", "c"))
    for source in (short, renamed):
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(ShapeMismatchError):
                baseline_distribution(source, Release(permuted), BaselineSpec(mode=mode))


def _exhaustive_growth_mib(n, m):
    """Peak-RSS growth of one exhaustive baseline on an n-record, m-attribute release."""
    script = textwrap.dedent(
        f"""
        from helpers import peak_rss_mib
        from permpriv.baseline import BaselineSpec, baseline_distribution
        from permpriv.masking import SynthSpec, synth_original
        from permpriv.privacy import Release

        table = synth_original(SynthSpec(n={n}, means=[100.0, 1000.0, 5000.0][:{m}],
                                         stds=[10.0, 50.0, 200.0][:{m}], seed=5))
        release = Release(table)
        before = peak_rss_mib()
        dist = baseline_distribution(table, release, BaselineSpec(mode="exhaustive"))
        after = peak_rss_mib()
        assert dist.sample_size == {n**m}
        print(after - before)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)]), "OMP_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


def test_exhaustive_memory_growth_at_a_million_records():
    # 100**3 baseline records; enumerating and searching them grows the peak
    # RSS by about 94 MiB
    assert _exhaustive_growth_mib(100, 3) < 32.0


@pytest.mark.parametrize("n, m", [(100, 3), (1000, 2)])
def test_exhaustive_baseline_grows_peak_memory_by_a_few_bytes_per_cell(n, m):
    # three grids of n**m distances: 1 byte a cell at n = 100, 2 at n = 1000
    assert _exhaustive_growth_mib(n, m) < 8.0
