"""Noise decomposition and rank correlation."""

import numpy as np
import pytest

from helpers import oracle_spearman, random_pair
from permpriv import fixtures
from permpriv.decompose import decompose, spearman_rho
from permpriv.errors import InsufficientDataError, InvalidSpecError, ShapeMismatchError
from permpriv.privacy import Release


@pytest.fixture(scope="module")
def decomposition(original, masked):
    return decompose(original, Release(masked))


def test_residual_noise_matches_reference(decomposition):
    assert np.allclose(
        decomposition.residual_noise, np.array(fixtures.RESIDUAL_NOISE), atol=0.005
    )


def test_direct_noise_matches_reference(decomposition):
    assert np.allclose(
        decomposition.direct_noise, np.array(fixtures.DIRECT_NOISE), atol=0.005
    )


def test_first_record_noise_cells(decomposition):
    assert decomposition.residual_noise[0, 0] == pytest.approx(-0.03, abs=0.005)
    assert decomposition.direct_noise[0, 0] == pytest.approx(4.49, abs=0.005)


def test_largest_first_attribute_residual(decomposition):
    col = np.abs(decomposition.residual_noise[:, 0])
    assert col.max() == pytest.approx(6.62, abs=0.005)
    assert int(col.argmax()) + 1 == 8


def test_reconstruction_is_exact_on_the_example(decomposition, masked):
    rebuilt = decomposition.z.values + decomposition.residual_noise
    assert np.array_equal(rebuilt, masked.values)


def test_direct_noise_is_the_plain_difference(decomposition, original, masked):
    assert np.array_equal(
        decomposition.direct_noise, masked.values - original.values
    )


def test_decomposing_a_table_against_itself_gives_zero_noise(original):
    dec = decompose(original, Release(original))
    assert not dec.residual_noise.any()
    assert not dec.direct_noise.any()


def test_rank_correlation_golden_values(original, permuted):
    for j, expected in enumerate(fixtures.RANK_CORRELATIONS):
        rho = spearman_rho(original.column(j), permuted.column(j))
        assert rho == pytest.approx(expected, abs=0.0005)


def test_rank_correlation_identical_routes(original, masked, permuted):
    # the permuted table holds the masked ranks, so both comparisons agree
    for j in range(original.m):
        against_masked = spearman_rho(original.column(j), masked.column(j))
        against_permuted = spearman_rho(original.column(j), permuted.column(j))
        assert against_permuted == pytest.approx(against_masked, abs=1e-12)


def test_rank_correlation_matches_pearson_on_ranks():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        a = rng.normal(size=n)
        b = a + rng.normal(scale=rng.uniform(0.01, 5.0), size=n)
        assert spearman_rho(a, b) == pytest.approx(oracle_spearman(a, b), abs=1e-9)


def test_rank_correlation_extremes():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman_rho(a, a) == pytest.approx(1.0)
    assert spearman_rho(a, a[::-1]) == pytest.approx(-1.0)


def test_rank_correlation_needs_two_records():
    with pytest.raises(InsufficientDataError):
        spearman_rho([1.0], [2.0])
    with pytest.raises(ShapeMismatchError):
        spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])


def test_rank_correlation_refuses_a_fractional_tie_seed():
    a = [1.0, 1.0, 2.0, 2.0, 2.0, 3.0]
    b = [2.0, 1.0, 1.0, 3.0, 2.0, 2.0]
    with pytest.raises(InvalidSpecError, match="tie_seed must be an integer, got 7.9"):
        spearman_rho(a, b, tie_seed=7.9)
    assert spearman_rho(a, b, tie_seed=np.int64(7)) == spearman_rho(a, b, tie_seed=7)


def test_residual_noise_is_rank_neutral():
    # adding the residual back cannot change any rank: it only moves each
    # permuted value to the anonymized value of the same rank
    from permpriv.table import RankProfile

    rng = np.random.default_rng(19)
    for _ in range(10):
        x, y = random_pair(rng, 15, 2, sigma=3.0)
        dec = decompose(x, Release(y))
        assert np.array_equal(RankProfile.of(dec.z).ranks, RankProfile.of(y).ranks)
