"""Seed-randomized property suites; each runs at least 100 generated cases.

Cases draw through `helpers.seeded`, so PERMPRIV_TEST_SEED_OFFSET draws fresh ones.
"""

import numpy as np

from helpers import (
    oracle_distance,
    random_integer_table,
    random_pair,
    random_table,
    seeded,
    shuffle_rows,
)
from permpriv.baseline import (
    BaselineSpec,
    baseline_distribution,
    distance_distribution,
    generate_baseline,
    plausibility,
)
from permpriv.linkage import link_records
from permpriv.privacy import Release, batch_permutation_distances, permutation_distance
from permpriv.reverse_map import reverse_map_table
from permpriv.table import MicrodataTable, RankProfile, Role

CASES = 100


def test_reverse_mapping_preserves_column_multisets():
    for case in range(CASES):
        rng = seeded(1000 + case)
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 5))
        x, y = random_pair(rng, n, m, sigma=float(rng.uniform(0.05, 80)))
        if n > 3 and rng.random() < 0.3:
            values = y.values.copy()
            values[1] = values[0]  # tied anonymized rows
            y = MicrodataTable(values, y.attribute_names, role=Role.ANONYMIZED)
        z = reverse_map_table(x, Release(y, tie_seed=int(rng.integers(0, 10_000))))
        for j in range(m):
            assert sorted(z.column(j).tolist()) == sorted(x.column(j).tolist())


def test_residual_noise_never_changes_ranks():
    for case in range(CASES):
        rng = seeded(2000 + case)
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 4))
        seed = int(rng.integers(0, 10_000))
        x, y = random_pair(rng, n, m, sigma=float(rng.uniform(0.05, 20)))
        z = reverse_map_table(x, Release(y, tie_seed=seed))
        assert np.array_equal(RankProfile.of(z, seed).ranks, RankProfile.of(y, seed).ranks)
        # adding the residual back reproduces the anonymized table to the ulp
        residual = y.values - z.values
        rebuilt = z.values + residual
        tol = np.spacing(np.maximum(np.abs(y.values), np.abs(residual)))
        assert np.all(np.abs(rebuilt - y.values) <= tol)


def test_distances_stay_within_the_rank_range():
    for case in range(CASES):
        rng = seeded(3000 + case)
        n = int(rng.integers(2, 25))
        m = int(rng.integers(1, 4))
        table = random_table(rng, n, m, role=Role.ANONYMIZED)
        # mix of nearby queries and far outliers
        scale = 1.0 if rng.random() < 0.5 else 1e6
        x = rng.normal(0.0, 100.0 * scale, size=m)
        result = permutation_distance(x, Release(table))
        assert 0 <= result.distance <= n - 1
        assert all(1 <= r <= n for r in result.closest_ranks)
        assert result.matched_indices


def test_plausibility_is_a_distribution_function():
    for case in range(CASES):
        rng = seeded(4000 + case)
        n = int(rng.integers(3, 15))
        m = int(rng.integers(1, 3))
        x, y = random_pair(rng, n, m, sigma=float(rng.uniform(0.1, 10)))
        z = reverse_map_table(x, Release(y))
        base_table = generate_baseline(
            x,
            BaselineSpec(
                mode="sampled",
                sample_size=200,
                seed=int(rng.integers(0, 10_000)),
            ),
        )
        base = distance_distribution(base_table, Release(z))
        values = [plausibility(d, base) for d in range(n)]
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[n - 1] == 1.0


def test_distance_is_invariant_under_monotone_transforms():
    transforms = (
        lambda t: 3.0 * t + 17.0,
        lambda t: t**3,
        lambda t: t**3 + 7.0 * t,
    )
    for case in range(CASES):
        rng = seeded(5000 + case)
        n = int(rng.integers(3, 15))
        m = int(rng.integers(1, 4))
        # integer grids keep the transformed order exact in float64
        x = random_integer_table(rng, n, m, low=-5000, high=5000)
        z, _ = shuffle_rows(rng, x, role=Role.REVERSE_MAPPED)
        i = int(rng.integers(0, n))
        query = x.values[i]
        before = permutation_distance(query, Release(z))
        picks = [transforms[int(rng.integers(0, 3))] for _ in range(m)]
        z2 = MicrodataTable(
            np.column_stack([picks[j](z.column(j)) for j in range(m)]),
            z.attribute_names,
            role=Role.REVERSE_MAPPED,
        )
        query2 = np.array([picks[j](query[j]) for j in range(m)])
        after = permutation_distance(query2, Release(z2))
        assert after.distance == before.distance
        assert after.matched_indices == before.matched_indices
        assert after.closest_ranks == before.closest_ranks


def test_exhaustive_baselines_ignore_the_seed():
    for case in range(CASES):
        rng = seeded(6000 + case)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, (512 ** (1 / m)) + 1))
        x = random_table(rng, n, m)
        release = Release(x)
        s1, s2 = (int(s) for s in rng.integers(0, 10_000, size=2))
        a = baseline_distribution(x, release, BaselineSpec(mode="exhaustive", seed=s1))
        b = baseline_distribution(x, release, BaselineSpec(mode="exhaustive", seed=s2))
        assert a == b
        assert a.sample_size == n**m


def test_every_distance_route_agrees():
    for case in range(CASES):
        rng = seeded(7000 + case)
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, 4))
        x, y = random_pair(rng, n, m, sigma=float(rng.uniform(0.1, 30)))
        z = reverse_map_table(x, Release(y))
        release = Release(z)
        linked = link_records(x, release)
        batch = batch_permutation_distances(x, release)
        values = z.values.tolist()
        ranks = release.profile.ranks.tolist()
        for i in range(n):
            single = permutation_distance(x.values[i], release)
            d, matches, _ = oracle_distance(x.values[i], values, ranks)
            assert (
                linked.per_record[i].distance
                == int(batch[i])
                == single.distance
                == d
            )
            assert linked.per_record[i].matched_indices == single.matched_indices
            assert single.matched_indices == matches
