"""The batched window-variance kernel against the per-window `ndarray.var` loop.

Reports carry these variances as floats, so the kernel must give exactly the
bits of the loop it replaced, compared through an int64 view, not `approx`.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import oracle_window_variances, random_table, random_tied_table
from permpriv import privacy
from permpriv.errors import RankOutOfRangeError, ShapeMismatchError
from permpriv.privacy import Release, certify_dataset
from permpriv.table import MicrodataTable, Role

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _check(release, centers, d):
    got = release.window_variances(centers, d)
    assert _same_bits(got, oracle_window_variances(release.values_by_rank, centers, d))


def _random_case(rng, tied):
    n = int(rng.integers(1, 60))
    m = int(rng.integers(1, 5))
    if tied:
        table = random_tied_table(rng, n, m, levels=int(rng.integers(1, 6)))
    else:
        table = random_table(rng, n, m)
    centers = rng.integers(1, n + 1, size=(int(rng.integers(1, 40)), m))
    return Release(table), centers


def test_kernel_matches_the_loop_on_random_and_tied_tables():
    for case in range(100):
        rng = np.random.default_rng(9000 + case)
        release, centers = _random_case(rng, tied=bool(case % 2))
        n = release.n
        for d in (0, 1, int(rng.integers(0, n + 1)), n - 1, n, 3 * n):
            _check(release, centers, d)
        _check(release, centers, rng.integers(0, 2 * n + 1, size=len(centers)))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (2, 1), (3, 2)])
def test_kernel_on_degenerate_shapes(n, m):
    rng = np.random.default_rng(n * 10 + m)
    release = Release(random_table(rng, n, m))
    centers = np.array([[c] * m for c in range(1, n + 1)])
    for d in (0, 1, n, 100):
        _check(release, centers, d)
    assert np.all(release.window_variances(centers, 0) == 0.0)


def test_whole_column_when_the_radius_reaches_n():
    rng = np.random.default_rng(21)
    release = Release(random_table(rng, 25, 3))
    centers = rng.integers(1, 26, size=(10, 3))
    whole = np.array([v.var() for v in release.values_by_rank])
    for d in (24, 25, 1000):
        got = release.window_variances(centers, d)
        assert _same_bits(got, np.broadcast_to(whole, got.shape).copy())


def test_window_lengths_around_the_pairwise_summation_blocks():
    # numpy sums in unrolled blocks of 8 and pairwise halves above 128 values
    # (and buffers of 8 192 on some paths); windows starting at rank 1 or
    # ending at rank n get every length, odd and even
    rng = np.random.default_rng(22)
    n = 20_000
    release = Release(random_table(rng, n, 2, scale=1e3))
    lengths = np.array([1, 2, 7, 8, 9, 127, 128, 129, 1000, 8191, 8192, 8193, n])
    centers = np.column_stack(
        [np.ones(lengths.size, dtype=np.int64), np.full(lengths.size, n)]
    )
    _check(release, centers, lengths - 1)
    middle = np.full((lengths.size, 2), n // 2)
    _check(release, middle, lengths // 2)


def test_blocks_of_one_window(monkeypatch):
    monkeypatch.setattr(privacy, "_BLOCK_BYTES", 1)
    for case in range(10):
        rng = np.random.default_rng(9500 + case)
        release, centers = _random_case(rng, tied=bool(case % 2))
        _check(release, centers, rng.integers(0, release.n + 1, size=len(centers)))


def test_certificate_variances_match_the_loop():
    rng = np.random.default_rng(23)
    for table in (random_table(rng, 300, 3), random_tied_table(rng, 300, 3, levels=7)):
        noisy = table.values + rng.normal(0.0, 2.0, size=table.values.shape)
        original = MicrodataTable(noisy, table.attribute_names)
        release = Release(table)
        certificate = certify_dataset(original, release)
        vbr = release.values_by_rank
        centers = [entry.result.closest_ranks for entry in certificate.per_record]
        at_d = oracle_window_variances(vbr, centers, certificate.dataset_distance)
        at_di = oracle_window_variances(vbr, centers, certificate.record_distances)
        got_d = np.array([e.variances_at_dataset_distance for e in certificate.per_record])
        got_di = np.array([e.variances_at_record_distance for e in certificate.per_record])
        assert _same_bits(got_d, at_d)
        assert _same_bits(got_di, at_di)
        assert certificate.dataset_variances == tuple(at_d.min(axis=0).tolist())


def test_verdicts_apply_both_clauses():
    rng = np.random.default_rng(24)
    release = Release(random_table(rng, 50, 2))
    centers = rng.integers(1, 51, size=(30, 2))
    distances = rng.integers(0, 6, size=30)
    passed, variances = release.verdicts(centers, distances, 3, [100.0, 120.0])
    want_variances = oracle_window_variances(release.values_by_rank, centers, 3)
    want = [
        int(dist) >= 3 and all(v > t for v, t in zip(row, (100.0, 120.0)))
        for dist, row in zip(distances, want_variances)
    ]
    assert passed.tolist() == want
    # each clause alone fails some records here
    by_distance = np.sum(distances >= 3)
    by_variance = np.sum(np.all(want_variances > (100.0, 120.0), axis=1))
    assert 0 < sum(want) < min(by_distance, by_variance)
    assert _same_bits(variances, want_variances)


def test_kernel_rejects_bad_radii_centers_and_shapes():
    release = Release(random_table(np.random.default_rng(25), 10, 2))
    with pytest.raises(RankOutOfRangeError):
        release.window_variances([[1, 1]], -1)
    with pytest.raises(RankOutOfRangeError):
        release.window_variances([[1, 1], [2, 2]], [1, -1])
    with pytest.raises(RankOutOfRangeError):
        release.window_variances([[0, 1]], 1)
    with pytest.raises(RankOutOfRangeError):
        release.window_variances([[1, 11]], 1)
    with pytest.raises(ShapeMismatchError):
        release.window_variances([[1, 1, 1]], 1)
    with pytest.raises(ShapeMismatchError):
        release.window_variances([1, 1], 1)


def test_precision_near_1e15():
    # Values 1e15 + k for integer offsets k in 0..63 are stored exactly.  The
    # error is the mean's rounding, squared: every window, at every center and
    # radius, stays within 1e-2 of the exact variance (3.8e-3 measured, on
    # windows of 14 values).
    offsets = np.random.default_rng(26).permutation(64)
    table = MicrodataTable((1e15 + offsets.astype(float))[:, None], ("a1",), role=Role.ANONYMIZED)
    release = Release(table)
    c, d = (g.ravel() for g in np.meshgrid(np.arange(1, 65), np.arange(1, 64), indexing="ij"))
    got = release.window_variances(c[:, None], d)[:, 0]
    worst = 0.0
    for var, center, radius in zip(got.tolist(), c.tolist(), d.tolist()):
        ks = range(max(center - radius, 1) - 1, min(center + radius, 64))
        mean = Fraction(sum(ks), len(ks))
        exact = sum((k - mean) ** 2 for k in ks) / len(ks)
        worst = max(worst, abs(Fraction(var) - exact) / exact)
    assert worst <= Fraction(1, 100)


def test_kernel_memory_is_bounded_in_bytes():
    # 2 000 windows of up to 10 001 values on a 20 000-record release: gathered
    # in one block per attribute, they would take about 160 MB
    script = textwrap.dedent(
        """
        from helpers import peak_rss_mib
        import numpy as np
        from permpriv.privacy import Release
        from permpriv.table import MicrodataTable, Role

        rng = np.random.default_rng(27)
        table = MicrodataTable(rng.normal(size=(20000, 2)), ("a1", "a2"), role=Role.ANONYMIZED)
        release = Release(table)
        centers = rng.integers(1, 20001, size=(2000, 2))
        before = peak_rss_mib()
        variances = release.window_variances(centers, 5000)
        after = peak_rss_mib()
        assert variances.shape == (2000, 2)
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
