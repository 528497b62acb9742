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
from permpriv import grid, privacy
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
    monkeypatch.setattr(grid, "_BLOCK_BYTES", 1)
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
        centers = [result.closest_ranks for result in certificate.per_record]
        at_d = oracle_window_variances(vbr, centers, certificate.dataset_distance)
        distances = [result.distance for result in certificate.per_record]
        at_di = oracle_window_variances(vbr, centers, distances)
        assert _same_bits(certificate.variances_at_dataset_distance, at_d)
        assert _same_bits(certificate.variances_at_record_distance, at_di)
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


def test_verdicts_take_one_integer_distance_per_record():
    # a lone distance would otherwise judge every record, and 5.5 would be
    # compared as it stands
    release = Release(random_table(np.random.default_rng(34), 10, 2))
    centers = [[1, 1], [5, 5]]
    assert release.verdicts(centers, [3, 0], 1, [-1.0, -1.0])[0].tolist() == [True, False]
    for distances in ([3], [3, 0, 1], [], [[3, 0]], 3):
        with pytest.raises(ShapeMismatchError, match="distances of shape"):
            release.verdicts(centers, distances, 1, [-1.0, -1.0])
    for distances in ([5.5, 3.0], [3, 2**64], np.array([1, 2**63], dtype=np.uint64)):
        with pytest.raises(RankOutOfRangeError, match="distances must be integers"):
            release.verdicts(centers, distances, 1, [-1.0, -1.0])


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
    # one radius, or one per row
    centers = [[1, 1], [5, 5], [9, 9]]
    for radius in ([1, 2], [1, 2, 3, 4], [[1, 2, 3]], np.zeros(0, dtype=np.int64)):
        with pytest.raises(ShapeMismatchError, match="radius of shape"):
            release.window_variances(centers, radius)
    one = release.window_variances(centers, 2)
    assert _same_bits(release.window_variances(centers, [2]), one)
    assert _same_bits(release.window_variances(centers, [2, 2, 2]), one)


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


def test_shared_windows_are_reduced_once_with_the_loop_s_bits(monkeypatch):
    # many records share one (center, radius) on a tie-heavy release, with
    # mixed per-row radii; each distinct (first rank, width) is reduced once
    reduced = []
    kernel = privacy._window_variances

    def counting(flat, first, width):
        reduced.append(first.size)
        return kernel(flat, first, width)

    monkeypatch.setattr(privacy, "_window_variances", counting)
    rng = np.random.default_rng(28)
    n, m = 400, 3
    release = Release(random_tied_table(rng, n, m, levels=3))
    pool = rng.integers(1, n + 1, size=(6, m))
    pick = rng.integers(0, pool.shape[0], size=500)
    centers = pool[pick]
    radii = np.array([0, 2, 2, 9, 150, n, 3 * n])[rng.integers(0, 7, size=500)]
    _check(release, centers, radii)
    radius = np.minimum(radii, n)[:, None]
    first = np.maximum(centers - radius, 1)
    last = np.minimum(centers + radius, n)
    windows = {(j, f, l) for row_f, row_l in zip(first.tolist(), last.tolist())
               for j, (f, l) in enumerate(zip(row_f, row_l))}
    assert reduced == [len(windows)]
    assert len(windows) < centers.size // 10


def test_width_runs_that_straddle_a_block_edge(monkeypatch):
    # 20 windows of width 3, then 20 of width 5, each run gathered in chunks
    # of budget // w windows, or one window: at 21 values the width-3 run
    # takes chunks of 7, 7 and 6 windows and the width-5 run five of 4; at 4
    # values every width-5 window alone exceeds the budget
    rng = np.random.default_rng(29)
    release = Release(random_table(rng, 50, 1))
    middle = np.arange(11, 31)[:, None]
    centers = np.concatenate([middle, middle])
    radii = np.repeat([1, 2], 20)
    for values in (1, 2, 3, 8, 13, 64, 1000, 35, 21, 4):
        monkeypatch.setattr(grid, "_BLOCK_BYTES", 8 * values)
        _check(release, centers, radii)


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("values", [1, 3, None])
def test_a_run_whose_last_window_ends_at_the_last_value(monkeypatch, m, values):
    # the strided view of each width holds flat.size - w + 1 rows, so a window
    # that ends at the last value of the last attribute is its last row
    if values is not None:
        monkeypatch.setattr(grid, "_BLOCK_BYTES", 8 * values)
    rng = np.random.default_rng(40 + m)
    n = 20
    release = Release(random_table(rng, n, m))
    vbr = release.values_by_rank
    before = vbr.copy()
    for d in (0, 1, n - 1, n, 5 * n):
        centers = rng.integers(1, n + 1, size=(6, m))
        centers[-3:, -1] = n
        got = release.window_variances(centers, d)
        want = vbr[-1, max(n - d, 1) - 1 :].var()
        assert _same_bits(got[-3:, -1], np.full(3, want))
        assert _same_bits(got, oracle_window_variances(vbr, centers, d))
        assert _same_bits(release.values_by_rank, before)


@pytest.mark.parametrize("m", range(1, 9))
def test_windows_at_both_ends_stay_inside_their_attribute(m):
    # each attribute on its own scale, so a window reading into the next
    # attribute's row would change the variance by orders of magnitude
    rng = np.random.default_rng(30 + m)
    n = 30
    for table in (random_table(rng, n, m), random_tied_table(rng, n, m, levels=3)):
        scaled = table.values * 10.0 ** np.arange(m)
        release = Release(MicrodataTable(scaled, table.attribute_names))
        ends = np.array([[1] * m, [n] * m, [1 if j % 2 else n for j in range(m)],
                         [n if j % 2 else 1 for j in range(m)]])
        for d in (0, 1, 5, n - 1, n):
            _check(release, ends, d)
        _check(release, np.repeat(ends, 5, axis=0), np.tile([0, 1, 5, n - 1, n], ends.shape[0]))


def test_a_huge_radius_gives_the_bits_of_radius_n():
    rng = np.random.default_rng(31)
    for table in (random_table(rng, 40, 3), random_tied_table(rng, 40, 3)):
        release = Release(table)
        centers = rng.integers(1, 41, size=(25, 3))
        want = release.window_variances(centers, 40)
        for d in (2**63 - 1, np.int64(2**63 - 1), np.full(25, 2**63 - 1)):
            assert _same_bits(release.window_variances(centers, d), want)


def test_integers_beyond_int64_are_refused():
    release = Release(random_table(np.random.default_rng(32), 10, 2))
    for radius in (2**63, 2**64 - 1, 2**64, np.uint64(2**63), [1, 2**64]):
        with pytest.raises(RankOutOfRangeError, match="window radius"):
            release.window_variances([[1, 1]], radius)
    with pytest.raises(RankOutOfRangeError, match="center ranks"):
        release.window_variances(np.array([[1, 2**63]], dtype=np.uint64), 1)
    for d in (2**63, 2**70):
        with pytest.raises(RankOutOfRangeError, match="d_target"):
            privacy.check_targets(d, [0.0, 0.0], 2)
    assert privacy.check_targets(2**63 - 1, [0.0, 0.0], 2)[0] == 2**63 - 1


def test_zero_rows():
    release = Release(random_table(np.random.default_rng(33), 10, 3))
    none = np.zeros((0, 3), dtype=np.int64)
    for d in (0, 4, np.zeros(0, dtype=np.int64)):
        variances = release.window_variances(none, d)
        assert variances.shape == (0, 3) and variances.dtype == float
    passed, variances = release.verdicts(none, np.zeros(0, dtype=np.int64), 1, [0.0] * 3)
    assert passed.shape == (0,) and passed.dtype == bool
    assert variances.shape == (0, 3)
