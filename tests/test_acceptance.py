"""End-to-end acceptance checks over the bundled worked example.

Each test covers one acceptance criterion and records a single PASS or FAIL
line; conftest prints the scoreboard in the terminal summary, so a plain
``pytest -v`` run shows it even with capture on.
"""

import contextlib

import numpy as np
import pytest

import conftest
import test_properties as property_suites
from permpriv import fixtures
from permpriv.baseline import (
    BaselineSpec,
    distance_distribution,
    divergence,
    generate_baseline,
)
from permpriv.cli import main
from permpriv.decompose import decompose, spearman_rho
from permpriv.linkage import link_records, score_linkage
from permpriv.masking import NoiseSpec, SynthSpec, gaussian_mask, synth_original
from permpriv.privacy import Release, certify_dataset, permutation_distance
from permpriv.reverse_map import reverse_map_table


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"FAIL  {label}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"PASS  {label}")


def test_criterion_01_reverse_mapping_reproduces_the_worked_table(
    original, masked, permuted
):
    with criterion("01 reverse mapping reproduces the worked example table"):
        for i, row in enumerate(fixtures.REVERSE_MAPPED):
            for j, cell in enumerate(row):
                assert f"{permuted.values[i, j]:.2f}" == f"{cell:.2f}"
        again = reverse_map_table(original, masked)
        assert np.array_equal(again.values, permuted.values)


def test_criterion_02_rank_correlations(original, permuted):
    with criterion("02 rank correlations match to within 0.0005"):
        for j, expected in enumerate(fixtures.RANK_CORRELATIONS):
            rho = spearman_rho(original.column(j), permuted.column(j))
            assert rho == pytest.approx(expected, abs=0.0005)


def test_criterion_03_noise_decomposition(original, masked):
    with criterion("03 noise split: residual and direct tables, exact rebuild"):
        dec = decompose(original, masked)
        assert dec.residual_noise == pytest.approx(
            np.array(fixtures.RESIDUAL_NOISE), abs=0.005
        )
        assert dec.direct_noise == pytest.approx(
            np.array(fixtures.DIRECT_NOISE), abs=0.005
        )
        assert np.array_equal(dec.z.values + dec.residual_noise, masked.values)
        from permpriv.table import RankProfile

        assert RankProfile.of(dec.z) == RankProfile.of(masked)


def test_criterion_04_single_record_evidence(masked):
    with criterion("04 record 3 distance evidence and window variances"):
        ref = fixtures.RECORD3
        result = permutation_distance(ref["record"], Release(masked))
        assert result.distance == ref["distance"]
        assert result.matched_indices == (ref["matched_index"],)
        assert result.closest_ranks == ref["closest_ranks"]
        assert result.closest_values == pytest.approx(
            ref["closest_values"], abs=0.005
        )
        from permpriv.privacy import verify_record

        verdict = verify_record(
            ref["record"], Release(masked), ref["distance"], (24.0, 890.0, 20000.0)
        )
        assert verdict.passed
        assert verdict.window_variances == pytest.approx(
            ref["window_variances"], abs=0.01
        )


def test_criterion_05_dataset_certificate(certificate):
    with criterion("05 dataset certificate: floor, variances, per-record tables"):
        ref = fixtures.CERTIFICATE
        assert certificate.dataset_distance == ref["dataset_distance"]
        assert certificate.dataset_variances == pytest.approx(
            ref["dataset_variances"], abs=0.01
        )
        assert certificate.record_distances == ref["distances"]
        for entry, matched, at_d, at_di in zip(
            certificate.per_record,
            ref["matched"],
            ref["variances_at_d"],
            ref["variances_at_di"],
        ):
            assert entry.result.matched_indices[0] == matched
            assert entry.variances_at_dataset_distance == pytest.approx(
                at_d, abs=0.01
            )
            assert entry.variances_at_record_distance == pytest.approx(
                at_di, abs=0.01
            )


def test_criterion_06_linkage_simulation(original, permuted):
    with criterion("06 intruder linkage: match sets, coverage, identity score"):
        linkage = link_records(original, Release(permuted))
        assert linkage.match_sets == fixtures.LINKAGE_MATCHES
        assert linkage.distances == fixtures.LINKAGE_DISTANCES
        assert linkage.unmatched_targets == fixtures.LINKAGE_UNMATCHED
        assert (
            linkage.multiply_matched_targets == fixtures.LINKAGE_MULTIPLY_MATCHED
        )
        ties = {
            1: (1, 7),
            9: (7, 9),
            11: (2, 6),
            19: (13, 19),
        }
        for record, expected in ties.items():
            assert linkage.match_sets[record - 1] == expected
        score = score_linkage(linkage, range(1, 21))
        assert (score.correct, score.multiple, score.misidentified) == (6, 4, 10)


def test_criterion_07_baseline_distributions(original, permuted, permuted_ranks):
    with criterion("07 chance baseline: both distance distributions to 4 places"):
        base = generate_baseline(original, BaselineSpec(mode="exhaustive"))
        dist_x = distance_distribution(original, Release(permuted, permuted_ranks))
        dist_a = distance_distribution(base, Release(permuted, permuted_ranks))
        for d in range(11):
            assert dist_x.frequency(d) == pytest.approx(
                fixtures.DISTANCE_FREQ_ORIGINAL[d], abs=0.00005
            )
            assert dist_a.frequency(d) == pytest.approx(
                fixtures.DISTANCE_FREQ_BASELINE[d], abs=0.00005
            )
        assert dist_a.cumulative(1) == pytest.approx(0.0611, abs=0.00005)


def test_criterion_08_thousand_record_experiment():
    label = "08 n=1000 experiment: tiny noise is traceable, large noise blends"
    with criterion(label):
        means = (100.0, 1000.0, 5000.0)
        stds = (10.0, 50.0, 200.0)
        for k, (synth_seed, mask_seed) in enumerate(
            ((404, 202), (405, 203), (406, 204))
        ):
            x = synth_original(
                SynthSpec(n=1000, means=means, stds=stds, seed=synth_seed)
            )
            baseline_spec = BaselineSpec(
                mode="sampled", sample_size=10_000, seed=303 + k
            )
            base = generate_baseline(x, baseline_spec)

            # near-zero noise: real records sit far closer than chance
            tiny = gaussian_mask(x, NoiseSpec(sigmas=(0.05, 0.25, 1.0), seed=mask_seed))
            z = reverse_map_table(x, tiny)
            dist_x = distance_distribution(x, Release(z))
            dist_a = distance_distribution(base, Release(z))
            assert dist_x.cumulative(5) >= 0.85
            assert dist_a.cumulative(5) <= 0.005

            # heavy noise: the real distance profile approaches chance
            heavy = gaussian_mask(x, NoiseSpec(sigmas=(5.0, 25.0, 100.0), seed=mask_seed))
            z = reverse_map_table(x, heavy)
            dist_x = distance_distribution(x, Release(z))
            dist_a = distance_distribution(base, Release(z))
            assert divergence(dist_x, dist_a).total_variation <= 0.15


def test_criterion_09_property_suites():
    with criterion("09 randomized property suites, 100 cases each"):
        property_suites.test_reverse_mapping_preserves_column_multisets()
        property_suites.test_residual_noise_never_changes_ranks()
        property_suites.test_distances_stay_within_the_rank_range()
        property_suites.test_plausibility_is_a_distribution_function()
        property_suites.test_distance_is_invariant_under_monotone_transforms()
        property_suites.test_exhaustive_baselines_ignore_the_seed()
        property_suites.test_every_distance_route_agrees()


def test_criterion_10_demo_self_check(tmp_path, capsys, monkeypatch):
    with criterion("10 demo regenerates and diffs the bundled references"):
        assert main(["demo", "--out", str(tmp_path / "ok")]) == 0
        out = capsys.readouterr().out
        assert "demo ok" in out

        rows = [list(r) for r in fixtures.REVERSE_MAPPED]
        rows[4][1] += 0.02
        monkeypatch.setattr(
            fixtures, "REVERSE_MAPPED", tuple(tuple(r) for r in rows)
        )
        assert main(["demo", "--out", str(tmp_path / "bad")]) == 4
        out = capsys.readouterr().out
        assert "mismatch" in out
        assert "reverse_mapped" in out
