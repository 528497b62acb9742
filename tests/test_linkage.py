"""Maximum-knowledge intruder linkage and protector-side scoring."""

import collections

import numpy as np
import pytest

from helpers import (
    json_round_trip,
    match_sets,
    oracle_distance,
    random_table,
    report_bytes,
    shuffle_rows,
)
from permpriv import fixtures
from permpriv.errors import InvalidTruthMappingError, ShapeMismatchError
from permpriv.linkage import ScoredLinkage, link_records, score_linkage
from permpriv.privacy import Release, batch_permutation_distances
from permpriv.table import RankProfile, Role


@pytest.fixture(scope="module")
def linkage(original, permuted):
    return link_records(original, Release(permuted))


def test_match_sets_match_reference(linkage):
    assert match_sets(linkage.per_record) == fixtures.LINKAGE_MATCHES


def test_distances_match_reference(linkage):
    assert linkage.per_record.distances.tolist() == list(fixtures.LINKAGE_DISTANCES)


def test_unmatched_targets(linkage):
    assert linkage.unmatched_targets == fixtures.LINKAGE_UNMATCHED


def test_multiply_matched_targets(linkage):
    assert linkage.multiply_matched_targets == fixtures.LINKAGE_MULTIPLY_MATCHED


def test_record5_links_to_itself_alone(linkage):
    r = linkage.per_record[4]
    assert r.matched_indices == (5,)
    assert r.distance == 2


def test_coverage_tallies_against_a_row_scan(linkage):
    hits = collections.Counter()
    for matches in match_sets(linkage.per_record):
        hits.update(matches)
    assert linkage.unmatched_targets == tuple(
        t for t in range(1, 21) if t not in hits
    )
    assert linkage.multiply_matched_targets == tuple(
        sorted(t for t, c in hits.items() if c > 1)
    )


def test_linkage_distances_equal_direct_distances(linkage, original, permuted):
    assert linkage.per_record.distances.tolist() == batch_permutation_distances(
        original, Release(permuted)
    ).tolist()


def test_identity_truth_score(linkage):
    score = score_linkage(linkage, range(1, 21))
    assert (score.correct, score.multiple, score.misidentified) == (6, 4, 10)
    assert score.correct + score.multiple + score.misidentified == 20
    assert score.correct_fraction == pytest.approx(0.3)
    assert len(score.classes) == 20


def test_identity_truth_score_against_a_hand_tally(linkage):
    correct = multiple = wrong = 0
    for i, matches in enumerate(match_sets(linkage.per_record), start=1):
        if len(matches) > 1:
            multiple += 1
        elif matches[0] == i:
            correct += 1
        else:
            wrong += 1
    score = score_linkage(linkage, range(1, 21))
    assert (score.correct, score.multiple, score.misidentified) == (
        correct,
        multiple,
        wrong,
    )


def test_multiple_class_positions(linkage):
    score = score_linkage(linkage, range(1, 21))
    flagged = {i + 1 for i, c in enumerate(score.classes) if c == "multiple"}
    assert flagged == {1, 9, 11, 19}


def test_shuffled_truth_rescoring(linkage):
    # feeding a wrong bijection flips correct singletons to misidentified
    rotated = list(range(2, 21)) + [1]
    score = score_linkage(linkage, rotated)
    assert score.multiple == 4  # tie structure ignores the truth mapping
    assert score.correct + score.misidentified == 16


def test_truth_validation(linkage):
    with pytest.raises(InvalidTruthMappingError):
        score_linkage(linkage, range(1, 20))
    with pytest.raises(InvalidTruthMappingError):
        score_linkage(linkage, [1] * 20)
    with pytest.raises(InvalidTruthMappingError):
        score_linkage(linkage, list(range(0, 20)))


def test_truth_entries_must_be_integers(linkage):
    with pytest.raises(InvalidTruthMappingError, match="truth entry must be an integer, got 1.9"):
        score_linkage(linkage, [1.9] + list(range(2, 21)))
    identity = score_linkage(linkage, range(1, 21))
    assert score_linkage(linkage, np.arange(1, 21)).classes == identity.classes


def test_self_linkage_is_perfect(original):
    result = link_records(original, Release(original))
    assert all(r.distance == 0 for r in result.per_record)
    assert match_sets(result.per_record) == tuple((i,) for i in range(1, 21))
    score = score_linkage(result, range(1, 21))
    assert score.correct == 20


def test_linking_against_raw_masked_output_warns(original, masked):
    with pytest.warns(UserWarning, match="not a permutation"):
        link_records(original, Release(masked))


def test_shape_mismatch_rejected(original):
    rng = np.random.default_rng(3)
    other = random_table(rng, 10, 3, role=Role.ANONYMIZED)
    with pytest.raises(ShapeMismatchError):
        link_records(original, Release(other))


def test_row_shuffle_only_relabels_matches(original, permuted):
    # shuffling the permuted rows permutes match labels but nothing else
    rng = np.random.default_rng(23)
    shuffled, relabel = shuffle_rows(rng, permuted, role=Role.REVERSE_MAPPED)
    base = link_records(original, Release(permuted))
    moved = link_records(original, Release(shuffled))
    assert moved.per_record.distances.tolist() == base.per_record.distances.tolist()
    for b, m in zip(match_sets(base.per_record), match_sets(moved.per_record)):
        assert tuple(sorted(relabel[t - 1] for t in b)) == m
    score = score_linkage(moved, relabel)
    assert (score.correct, score.multiple, score.misidentified) == (6, 4, 10)


def test_linkage_against_brute_force_oracle():
    rng = np.random.default_rng(29)
    x = random_table(rng, 12, 2)
    z, truth = shuffle_rows(rng, x, role=Role.REVERSE_MAPPED)
    result = link_records(x, Release(z))
    profile = RankProfile.of(z)
    for i in range(12):
        d, matches, _ = oracle_distance(
            x.values[i], z.values.tolist(), profile.ranks.tolist()
        )
        assert result.per_record[i].distance == d == 0
        assert result.per_record[i].matched_indices == matches == (truth[i],)


def test_linkage_round_trip(linkage):
    assert report_bytes(json_round_trip(linkage)) == report_bytes(linkage)
    score = score_linkage(linkage, range(1, len(linkage.per_record) + 1))
    scored = ScoredLinkage(**vars(linkage), score=score)
    rebuilt = json_round_trip(scored)
    assert rebuilt.score == score
    assert report_bytes(rebuilt) == report_bytes(scored)


def test_linkage_distances_aggregate_to_the_reference_histogram(linkage):
    counts = collections.Counter(linkage.per_record.distances.tolist())
    freq = {d: c / 20 for d, c in counts.items()}
    ref = {
        d: f for d, f in fixtures.DISTANCE_FREQ_ORIGINAL.items() if f > 0
    }
    assert freq == pytest.approx(ref, abs=0.00005)
