"""The exhaustive chance baseline as a distance transform, against enumeration."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from helpers import (
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


def _check_against_oracle(source, release):
    got = baseline_distribution(source, release, EXHAUSTIVE)
    want = oracle_baseline_frequencies(source, release.table.values, release.profile.ranks)
    assert _bits(got.frequencies) == _bits(want)
    assert got.sample_size == source.n**source.m
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


def test_exhaustive_memory_growth_at_a_million_records():
    # 100**3 baseline records; enumerating and searching them grows the peak
    # RSS by about 94 MiB
    script = textwrap.dedent(
        """
        from helpers import peak_rss_mib
        from permpriv.baseline import BaselineSpec, baseline_distribution
        from permpriv.masking import SynthSpec, synth_original
        from permpriv.privacy import Release

        table = synth_original(SynthSpec(n=100, means=[100.0, 1000.0, 5000.0],
                                         stds=[10.0, 50.0, 200.0], seed=5))
        release = Release(table)
        before = peak_rss_mib()
        dist = baseline_distribution(table, release, BaselineSpec(mode="exhaustive"))
        after = peak_rss_mib()
        assert dist.sample_size == 10**6
        print(after - before)
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)]), "OMP_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 32.0
