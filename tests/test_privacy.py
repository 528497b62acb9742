"""Permutation distance, rank windows, and privacy verification."""

import numpy as np
import pytest

from helpers import (
    json_round_trip,
    oracle_distance,
    oracle_window_variance,
    random_pair,
    random_table,
)
from permpriv import fixtures
from permpriv.errors import RankOutOfRangeError, ShapeMismatchError
from permpriv.privacy import (
    Release,
    batch_permutation_distances,
    certify_dataset,
    permutation_distance,
    verify_record,
    window_variance,
)
from permpriv.reverse_map import reverse_map_table
from permpriv.table import MicrodataTable, RankProfile, Role


def test_record3_distance_evidence(original, masked):
    ref = fixtures.RECORD3
    result = permutation_distance(ref["record"], Release(masked))
    assert result.distance == ref["distance"]
    assert result.matched_indices == (ref["matched_index"],)
    assert result.closest_ranks == ref["closest_ranks"]
    assert result.matched_deviations == ref["matched_deviations"]
    assert np.allclose(result.closest_values, ref["closest_values"], atol=0.005)
    assert original.values[2].tolist() == pytest.approx(list(ref["record"]))


def test_record3_deviation_table(masked, masked_ranks):
    # per-record max rank deviations, recomputed from the closest ranks
    centers = fixtures.RECORD3["closest_ranks"]
    for i, row in enumerate(fixtures.RECORD3_DEVIATIONS):
        devs = tuple(
            abs(int(masked_ranks.ranks[i, j]) - centers[j]) for j in range(3)
        )
        assert devs == row[:3]
        assert max(devs) == row[3]


def test_record3_against_brute_force_oracle(masked, masked_ranks):
    d, matches, centers = oracle_distance(
        fixtures.RECORD3["record"],
        masked.values.tolist(),
        masked_ranks.ranks.tolist(),
    )
    assert d == fixtures.RECORD3["distance"]
    assert matches == (fixtures.RECORD3["matched_index"],)
    assert centers == fixtures.RECORD3["closest_ranks"]


def test_record3_window_variances(masked, masked_ranks):
    ref = fixtures.RECORD3
    for j, expected in enumerate(ref["window_variances"]):
        got = window_variance(
            masked.column(j),
            masked_ranks.vector(j),
            ref["closest_ranks"][j],
            ref["distance"],
        )
        assert got == pytest.approx(expected, abs=0.005)


def test_record3_view_depends_on_the_target_table(masked, permuted):
    # the subject checks the released table as-is; an intruder who rebuilt
    # the permuted table sees slightly different evidence for the same record
    vs_masked = permutation_distance(fixtures.RECORD3["record"], Release(masked))
    vs_permuted = permutation_distance(fixtures.RECORD3["record"], Release(permuted))
    assert vs_masked.distance == 4
    assert vs_permuted.distance == 3
    assert vs_masked.matched_indices == vs_permuted.matched_indices == (10,)


def test_window_variance_matches_hand_computation():
    rng = np.random.default_rng(43)
    col = rng.normal(size=15)
    ranks = RankProfile.of(MicrodataTable(col, ("a",))).vector(0)
    for center in (1, 4, 8, 15):
        for d in (0, 1, 3, 14, 30):
            assert window_variance(col, ranks, center, d) == pytest.approx(
                oracle_window_variance(col, ranks, center, d)
            )


def test_window_of_radius_zero_has_no_spread():
    col = [5.0, 1.0, 9.0]
    ranks = [2, 1, 3]
    assert window_variance(col, ranks, 2, 0) == 0.0


def test_window_clipping_at_the_edges():
    col = [1.0, 2.0, 3.0, 4.0]
    ranks = [1, 2, 3, 4]
    # center 1, radius 2: only ranks 1..3 exist
    assert window_variance(col, ranks, 1, 2) == pytest.approx(
        np.var([1.0, 2.0, 3.0])
    )
    # a huge radius covers everything
    assert window_variance(col, ranks, 2, 99) == pytest.approx(np.var(col))


def test_window_variance_errors():
    col = [1.0, 2.0, 3.0]
    ranks = [1, 2, 3]
    with pytest.raises(RankOutOfRangeError):
        window_variance(col, ranks, 0, 1)
    with pytest.raises(RankOutOfRangeError):
        window_variance(col, ranks, 4, 1)
    with pytest.raises(RankOutOfRangeError):
        window_variance(col, ranks, 2, -1)
    with pytest.raises(ShapeMismatchError):
        window_variance(col, [1, 2], 1, 1)


def test_distance_zero_for_a_present_record(permuted):
    result = permutation_distance(permuted.values[4], Release(permuted))
    assert result.distance == 0
    assert 5 in result.matched_indices


def test_synthetic_probe_record(permuted):
    ref = fixtures.SYNTHETIC_PROBE
    result = permutation_distance(ref["record"], Release(permuted))
    assert result.distance == ref["distance"]
    assert result.matched_indices == (ref["matched_index"],)
    matched_row = permuted.values[ref["matched_index"] - 1]
    assert np.allclose(matched_row, ref["matched_values"], atol=0.005)


def test_distance_ties_go_to_the_smaller_rank():
    # query exactly midway between two values: the smaller rank wins
    table = MicrodataTable([[1.0], [3.0], [10.0]], ("a",), role=Role.ANONYMIZED)
    result = permutation_distance([2.0], Release(table))
    assert result.closest_ranks == (1,)
    assert result.closest_values == (1.0,)


def test_batch_agrees_with_single_calls(original, permuted):
    release = Release(permuted)
    batch = batch_permutation_distances(original, release)
    singles = [
        permutation_distance(original.values[i], release).distance
        for i in range(original.n)
    ]
    assert batch.tolist() == singles


def test_single_record_rejects_matrices(permuted):
    with pytest.raises(ShapeMismatchError):
        permutation_distance([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], Release(permuted))
    with pytest.raises(ShapeMismatchError):
        permutation_distance([1.0, 2.0], Release(permuted))
    with pytest.raises(ShapeMismatchError):
        verify_record(permuted.values[:5], Release(permuted), 0, (-1.0, -1.0, -1.0))


def test_distance_result_round_trip(permuted):
    result = permutation_distance(fixtures.RECORD3["record"], Release(permuted))
    assert json_round_trip(result) == result


def test_verify_record3_passes_its_published_targets(masked):
    verdict = verify_record(
        fixtures.RECORD3["record"], Release(masked), 4, (24.0, 890.0, 20000.0)
    )
    assert verdict.passed
    assert verdict.result.distance == 4
    assert verdict.window_variances == pytest.approx(
        fixtures.RECORD3["window_variances"], abs=0.005
    )


def test_verify_fails_on_an_unreachable_distance(masked, masked_ranks):
    verdict = verify_record(
        fixtures.RECORD3["record"], Release(masked), 5, (0.0, 0.0, 0.0)
    )
    assert not verdict.passed
    # evidence still present, and the brute-force scan confirms no row
    # stays within deviation 4 everywhere
    assert verdict.result.distance == 4
    d, _, _ = oracle_distance(
        fixtures.RECORD3["record"],
        masked.values.tolist(),
        masked_ranks.ranks.tolist(),
    )
    assert d < 5


def test_verify_trivial_targets_always_pass(masked):
    verdict = verify_record(
        fixtures.RECORD3["record"], Release(masked), 0, (-1.0, -1.0, -1.0)
    )
    assert verdict.passed


def test_verify_variance_bound_is_strict(masked):
    ref = fixtures.RECORD3
    exact = tuple(
        window_variance(
            masked.column(j),
            RankProfile.of(masked).vector(j),
            ref["closest_ranks"][j],
            ref["distance"],
        )
        for j in range(3)
    )
    at_exact = verify_record(ref["record"], Release(masked), ref["distance"], exact)
    assert not at_exact.passed  # equality does not clear a strict bound
    eps = tuple(v - 1e-9 for v in exact)
    assert verify_record(ref["record"], Release(masked), ref["distance"], eps).passed


def test_verify_rejects_wrong_target_length(masked):
    release = Release(masked)
    record = fixtures.RECORD3["record"]
    evidence = permutation_distance(record, release)
    with pytest.raises(ShapeMismatchError, match="2 variance targets for 3 attributes"):
        verify_record(record, release, 1, (0.0, 0.0))
    with pytest.raises(ShapeMismatchError, match="1 variance targets for 3 attributes"):
        release.verify(evidence, 1, [0.0])
    with pytest.raises(ShapeMismatchError, match="2 variance targets for 3 attributes"):
        release.verdicts([evidence.closest_ranks], [evidence.distance], 1, [0.0, 0.0])


def test_verification_round_trip(masked):
    verdict = verify_record(
        fixtures.RECORD3["record"], Release(masked), 4, (24.0, 890.0, 20000.0)
    )
    assert json_round_trip(verdict) == verdict


def test_certificate_golden_summary(certificate):
    ref = fixtures.CERTIFICATE
    assert certificate.dataset_distance == ref["dataset_distance"]
    assert certificate.dataset_variances == pytest.approx(
        ref["dataset_variances"], abs=0.005
    )
    assert certificate.record_distances == ref["distances"]
    for entry, matched in zip(certificate.per_record, ref["matched"]):
        assert entry.result.matched_indices[0] == matched


def test_certificate_golden_variance_tables(certificate):
    ref = fixtures.CERTIFICATE
    for entry, at_d, at_di in zip(
        certificate.per_record, ref["variances_at_d"], ref["variances_at_di"]
    ):
        assert entry.variances_at_dataset_distance == pytest.approx(at_d, abs=0.005)
        assert entry.variances_at_record_distance == pytest.approx(at_di, abs=0.005)


def test_certificate_is_internally_consistent(certificate):
    distances = certificate.record_distances
    assert certificate.dataset_distance == min(distances)
    for j in range(3):
        column = [
            e.variances_at_dataset_distance[j] for e in certificate.per_record
        ]
        assert certificate.dataset_variances[j] == pytest.approx(min(column))
    # where a record's own distance equals the dataset floor, both variance
    # views coincide
    for e in certificate.per_record:
        if e.result.distance == certificate.dataset_distance:
            assert e.variances_at_record_distance == pytest.approx(
                e.variances_at_dataset_distance
            )


def test_certificate_against_oracles(certificate, masked, masked_ranks, original):
    values = masked.values.tolist()
    ranks = masked_ranks.ranks.tolist()
    for i, entry in enumerate(certificate.per_record):
        d, matches, centers = oracle_distance(original.values[i], values, ranks)
        assert entry.result.distance == d
        assert entry.result.matched_indices == matches
        for j in range(3):
            assert entry.variances_at_record_distance[j] == pytest.approx(
                oracle_window_variance(
                    masked.column(j), masked_ranks.vector(j), centers[j], d
                )
            )


def test_certifying_an_unchanged_table_gives_floor_zero(original):
    cert = certify_dataset(original, Release(original))
    assert cert.dataset_distance == 0
    assert all(d == 0 for d in cert.record_distances)
    assert cert.dataset_variances == pytest.approx((0.0, 0.0, 0.0))


def test_certificate_verification_interplay(original, masked, certificate):
    # verifying every record at the certified pair fails somewhere because
    # the variance bound is strict; backing off by epsilon passes everywhere
    d = certificate.dataset_distance
    v = certificate.dataset_variances
    release = Release(masked)
    at_certified = [
        verify_record(original.values[i], release, d, v) for i in range(original.n)
    ]
    assert not all(r.passed for r in at_certified)
    eased = tuple(x - 1e-9 for x in v)
    at_eased = [
        verify_record(original.values[i], release, d, eased)
        for i in range(original.n)
    ]
    assert all(r.passed for r in at_eased)


def test_certificate_round_trip(certificate):
    assert json_round_trip(certificate) == certificate


def test_matched_indices_are_exactly_the_minimizers():
    rng = np.random.default_rng(47)
    for _ in range(15):
        n = int(rng.integers(3, 18))
        m = int(rng.integers(1, 4))
        table = random_table(rng, n, m, role=Role.ANONYMIZED)
        profile = RankProfile.of(table)
        x = rng.normal(0.0, 120.0, size=m)
        result = permutation_distance(x, Release(table, profile))
        devs = np.abs(
            profile.ranks - np.array(result.closest_ranks)[None, :]
        ).max(axis=1)
        assert set(result.matched_indices) == {
            int(i) + 1 for i in np.nonzero(devs == result.distance)[0]
        }
        assert 0 <= result.distance <= n - 1


def test_distances_bounded_by_table_size():
    rng = np.random.default_rng(53)
    x, y = random_pair(rng, 12, 2, sigma=500.0)
    z = reverse_map_table(x, y)
    dists = batch_permutation_distances(x, Release(z))
    assert dists.min() >= 0
    assert dists.max() <= 11
