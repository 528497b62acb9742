"""Random-record baselines, plausibility, and release assessment."""

import numpy as np
import pytest

from helpers import (
    enumerate_baseline,
    json_round_trip,
    oracle_total_variation,
    random_table,
    random_tied_table,
)
from permpriv import fixtures
from permpriv.baseline import (
    AssessmentReport,
    BaselineSpec,
    DistanceDistribution,
    assess_tables,
    baseline_distribution,
    distance_distribution,
    divergence,
    generate_baseline,
    plausibility,
    subject_safety_check,
)
from permpriv.errors import CapExceededError, EmptyReportError, InvalidSpecError
from permpriv.io_report import write_report
from permpriv.privacy import Release, batch_permutation_distances, permutation_distance
from permpriv.reverse_map import reverse_map_table
from permpriv.table import MicrodataTable, Role


@pytest.fixture(scope="module")
def exhaustive_baseline(original):
    return enumerate_baseline(original)


@pytest.fixture(scope="module")
def baseline_dist(original, permuted):
    return baseline_distribution(original, Release(permuted), BaselineSpec(mode="exhaustive"))


@pytest.fixture(scope="module")
def original_dist(original, permuted):
    return distance_distribution(original, Release(permuted))


def test_exhaustive_baseline_is_the_full_product(original, exhaustive_baseline):
    assert exhaustive_baseline.n == 20**3
    # every combination appears exactly once
    rows = {tuple(r) for r in exhaustive_baseline.values}
    assert len(rows) == 8000
    for j in range(3):
        assert set(exhaustive_baseline.column(j)) == set(original.column(j))


def test_exhaustive_baseline_contains_real_records(
    original, permuted, exhaustive_baseline
):
    rows = {tuple(r) for r in exhaustive_baseline.values}
    for i in range(20):
        assert tuple(original.values[i]) in rows
        assert tuple(permuted.values[i]) in rows


def test_exhaustive_two_by_one():
    t = MicrodataTable([[4.0], [9.0]], ("a",))
    base = enumerate_baseline(t)
    assert sorted(base.column(0).tolist()) == [4.0, 9.0]
    dist = baseline_distribution(t, Release(t), BaselineSpec(mode="exhaustive"))
    assert (dist.frequencies, dist.sample_size) == ({0: 1.0}, 2)


def test_exhaustive_cap_refusal(original, permuted):
    # 20 records, 3 attributes: the full product is exactly 20**3 records
    at_cap = BaselineSpec(mode="exhaustive", exhaustive_cap=8000)
    assert baseline_distribution(original, Release(permuted), at_cap).sample_size == 8000
    with pytest.raises(CapExceededError, match="needs 8000 records, cap is 7999"):
        baseline_distribution(
            original, Release(permuted), BaselineSpec(mode="exhaustive", exhaustive_cap=7999)
        )


def test_sampled_baseline_replay(original):
    spec = BaselineSpec(mode="sampled", sample_size=500, seed=99)
    a = generate_baseline(original, spec)
    b = generate_baseline(original, spec)
    assert np.array_equal(a.values, b.values)
    assert a.n == 500
    c = generate_baseline(original, BaselineSpec(mode="sampled", sample_size=500, seed=100))
    assert not np.array_equal(a.values, c.values)


def test_sampled_draws_only_source_values(original):
    base = generate_baseline(
        original, BaselineSpec(mode="sampled", sample_size=200)
    )
    for j in range(3):
        assert set(base.column(j)) <= set(original.column(j))


def test_baseline_spec_validation():
    with pytest.raises(InvalidSpecError):
        BaselineSpec(mode="everything")
    with pytest.raises(InvalidSpecError):
        BaselineSpec(sample_size=0)
    with pytest.raises(InvalidSpecError):
        BaselineSpec(exhaustive_cap=0)


def test_baseline_spec_refuses_fractional_counts():
    for field in ("sample_size", "seed", "exhaustive_cap"):
        with pytest.raises(InvalidSpecError, match=f"{field} must be an integer, got 1.5"):
            BaselineSpec(**{field: 1.5})
    spec = BaselineSpec(sample_size=np.int64(7), seed=np.uint8(3), exhaustive_cap=np.int32(9))
    assert (spec.sample_size, spec.seed, spec.exhaustive_cap) == (7, 3, 9)
    assert type(spec.sample_size) is int


def test_original_distribution_matches_reference(original_dist):
    for d in range(11):
        assert original_dist.frequency(d) == pytest.approx(
            fixtures.DISTANCE_FREQ_ORIGINAL[d], abs=0.00005
        )
    assert original_dist.sample_size == 20
    assert original_dist.source_tag == "original"


def test_baseline_distribution_matches_reference(baseline_dist):
    for d in range(11):
        assert baseline_dist.frequency(d) == pytest.approx(
            fixtures.DISTANCE_FREQ_BASELINE[d], abs=0.00005
        )
    assert baseline_dist.sample_size == 8000
    assert baseline_dist.source_tag == "baseline"


def test_distribution_frequencies_sum_to_one(original_dist, baseline_dist):
    for dist in (original_dist, baseline_dist):
        assert sum(dist.frequencies.values()) == pytest.approx(1.0, abs=1e-12)
        assert min(dist.support) >= 0
        assert max(dist.support) <= 19


def test_distribution_against_direct_counting(original, permuted, original_dist):
    dists = batch_permutation_distances(original, Release(permuted))
    for d in set(dists.tolist()):
        expected = (dists == d).sum() / 20
        assert original_dist.frequency(d) == pytest.approx(expected)


def test_target_against_itself_sits_at_zero(permuted):
    dist = distance_distribution(permuted, Release(permuted))
    assert dist.frequencies == {0: 1.0}


def test_plausibility_golden(baseline_dist):
    assert plausibility(1, baseline_dist) == pytest.approx(0.0611, abs=0.00005)
    assert plausibility(1, baseline_dist) == pytest.approx(489 / 8000, abs=1e-12)


def test_plausibility_against_exhaustive_summation(
    original, permuted, exhaustive_baseline, baseline_dist
):
    # count qualifying baseline rows directly
    dists = batch_permutation_distances(exhaustive_baseline, Release(permuted))
    for threshold in (0, 1, 3, 7):
        expected = (dists <= threshold).sum() / 8000
        assert plausibility(threshold, baseline_dist) == pytest.approx(expected)


def test_plausibility_is_monotone_and_reaches_one(baseline_dist):
    values = [plausibility(d, baseline_dist) for d in range(20)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0)
    assert plausibility(19, baseline_dist) == pytest.approx(1.0)


def test_plausibility_is_exactly_one_where_the_frequencies_sum_short():
    # 1/6 + 4/6 + 1/6 sums to 0.9999999999999999 in floats
    dist = DistanceDistribution({0: 1 / 6, 1: 4 / 6, 2: 1 / 6}, 6, "baseline")
    assert sum(dist.frequencies.values()) < 1.0
    assert [dist.cumulative(d) for d in (2, 2.5, 7)] == [1.0, 1.0, 1.0]
    # below the top, the running sum of the frequencies as before
    assert dist.cumulative(1) == 1 / 6 + 4 / 6
    assert dist.cumulative(-0.5) == 0.0


def test_small_noise_reference_plausibility():
    dist = DistanceDistribution(fixtures.SMALL_NOISE_FREQ_BASELINE, 8000, "baseline")
    assert dist.cumulative(5) == pytest.approx(0.0011, abs=0.00005)


def test_divergence_trivial_cases():
    a = DistanceDistribution({0: 0.5, 1: 0.5}, 10, "original")
    assert divergence(a, a).total_variation == pytest.approx(0.0)
    assert divergence(a, a).hellinger == pytest.approx(0.0)
    b = DistanceDistribution({2: 1.0}, 10, "baseline")
    assert divergence(a, b).total_variation == pytest.approx(1.0)
    assert divergence(a, b).hellinger == pytest.approx(1.0)


def test_divergence_on_the_example(original_dist, baseline_dist):
    div = divergence(original_dist, baseline_dist)
    assert div.total_variation == pytest.approx(
        oracle_total_variation(
            original_dist.frequencies, baseline_dist.frequencies
        )
    )
    assert div.total_variation == pytest.approx(0.18, abs=0.005)
    assert 0.0 <= div.hellinger <= 1.0


def test_divergence_is_symmetric(original_dist, baseline_dist):
    ab = divergence(original_dist, baseline_dist)
    ba = divergence(baseline_dist, original_dist)
    assert ab.total_variation == pytest.approx(ba.total_variation)
    assert ab.hellinger == pytest.approx(ba.hellinger)


def test_distribution_validation():
    with pytest.raises(InvalidSpecError):
        DistanceDistribution({0: 0.4, 1: 0.4}, 10, "original")
    with pytest.raises(InvalidSpecError):
        DistanceDistribution({-1: 1.0}, 10, "original")
    with pytest.raises(InvalidSpecError):
        DistanceDistribution({0: 1.0}, 10, "elsewhere")
    with pytest.raises(InvalidSpecError):
        DistanceDistribution({}, 10, "original")
    # a sample size is a count of records: never truncated, never below 1
    with pytest.raises(InvalidSpecError, match="sample_size must be an integer"):
        DistanceDistribution({0: 0.5, 1: 0.5}, 2.7, "baseline")
    with pytest.raises(InvalidSpecError, match="sample_size must be positive"):
        DistanceDistribution({0: 0.5, 1: 0.5}, -3, "baseline")


def test_distribution_round_trip(original, masked, tmp_path):
    # a distribution is written as part of an assessment, not alone
    report = assess_tables(original, Release(masked), BaselineSpec(mode="exhaustive"))
    with pytest.raises(EmptyReportError):
        write_report(report.baseline, tmp_path / "baseline.json")
    assert not (tmp_path / "baseline.json").exists()
    rebuilt = json_round_trip(report)
    assert (rebuilt.original, rebuilt.baseline) == (report.original, report.baseline)


def test_subject_safety_for_the_synthetic_probe(permuted, baseline_dist):
    ref = fixtures.SYNTHETIC_PROBE
    release = Release(permuted)
    safety = subject_safety_check(
        permutation_distance(ref["record"], release), release, BaselineSpec(mode="exhaustive")
    )
    assert safety.distance == ref["distance"]
    assert safety.plausibility == pytest.approx(
        plausibility(ref["distance"], baseline_dist)
    )
    assert safety.plausibility == pytest.approx(0.251, abs=0.0005)
    assert safety.safe
    assert safety.threshold == 0.05


def test_subject_safety_for_a_present_record_is_unsafe(permuted):
    release = Release(permuted)
    safety = subject_safety_check(
        permutation_distance(permuted.values[0], release), release,
        BaselineSpec(mode="exhaustive"),
    )
    assert safety.distance == 0
    assert not safety.safe  # an exact match is never plausible by chance here
    assert safety.plausibility < 0.05


def test_subject_safety_sampled_close_to_exhaustive(permuted):
    ref = fixtures.SYNTHETIC_PROBE
    release = Release(permuted)
    evidence = permutation_distance(ref["record"], release)
    exhaustive = subject_safety_check(evidence, release, BaselineSpec(mode="exhaustive"))
    sampled = subject_safety_check(
        evidence, release, BaselineSpec(mode="sampled", sample_size=10_000)
    )
    p = exhaustive.plausibility
    se = (p * (1 - p) / 10_000) ** 0.5
    assert abs(sampled.plausibility - p) <= 3 * se


def test_assessment_on_the_example(original, masked, original_dist, baseline_dist):
    report = assess_tables(original, Release(masked), BaselineSpec(mode="exhaustive"))
    assert report.median_distance == pytest.approx(3.0)
    assert report.plausibility_at_median == pytest.approx(0.5524, abs=0.00005)
    assert report.withstands
    assert report.original.frequencies == pytest.approx(original_dist.frequencies)
    assert report.baseline.frequencies == pytest.approx(baseline_dist.frequencies)
    direct = divergence(report.original, report.baseline)
    assert report.divergence.total_variation == pytest.approx(direct.total_variation)
    assert report.divergence.hellinger == pytest.approx(direct.hellinger)


def test_assessment_threshold_controls_the_verdict(original, masked):
    strict = assess_tables(
        original, Release(masked), BaselineSpec(mode="exhaustive"), threshold=0.9
    )
    assert not strict.withstands
    assert strict.plausibility_at_median < 0.9


def test_assessment_ranks_under_the_release_tie_seed():
    rng = np.random.default_rng(23)
    x = random_tied_table(rng, 40, 2)
    y = random_tied_table(rng, 40, 2, role=Role.ANONYMIZED)
    spec = BaselineSpec(mode="sampled", sample_size=200)
    reports = []
    for seed in (7, 101):
        anonymized = Release(y, tie_seed=seed)
        report = assess_tables(x, anonymized, spec)
        z = Release(reverse_map_table(x, anonymized), tie_seed=seed)
        assert report.original == distance_distribution(x, z)
        assert report.baseline == baseline_distribution(x, z, spec)
        reports.append(report)
    assert reports[0].original != reports[1].original


def test_assessment_round_trip(original, masked):
    report = assess_tables(original, Release(masked), BaselineSpec(mode="exhaustive"))
    assert report.withstands is True
    assert json_round_trip(report) == report
    assert AssessmentReport.report_kind == "assessment"


def test_sampled_distribution_approaches_exhaustive(original, permuted, baseline_dist):
    sampled_table = generate_baseline(
        original, BaselineSpec(mode="sampled", sample_size=100_000)
    )
    sampled = distance_distribution(sampled_table, Release(permuted))
    for d in baseline_dist.support:
        assert sampled.frequency(d) == pytest.approx(
            baseline_dist.frequency(d), abs=0.01
        )


def test_baseline_columns_are_independent_draws():
    rng = np.random.default_rng(61)
    t = random_table(rng, 6, 2)
    base = enumerate_baseline(t)
    # each column value pairs with every value of the other column
    pairs = {tuple(r) for r in base.values}
    assert len(pairs) == 36
    dist = baseline_distribution(t, Release(t), BaselineSpec(mode="exhaustive"))
    assert dist.sample_size == 36
