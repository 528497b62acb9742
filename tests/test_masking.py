"""Synthetic data generation and seeded gaussian masking."""

import numpy as np
import pytest

from permpriv.decompose import decompose
from permpriv.errors import InvalidSpecError, ShapeMismatchError
from permpriv.masking import (
    DEFAULT_MASK_SEED,
    DEFAULT_SYNTH_SEED,
    NoiseSpec,
    SynthSpec,
    gaussian_mask,
    synth_original,
)
from permpriv.privacy import Release, certify_dataset
from permpriv.table import MicrodataTable, Role


MEANS = (100.0, 1000.0, 5000.0)
STDS = (10.0, 50.0, 200.0)


def test_synth_replay_is_identical():
    spec = SynthSpec(n=50, means=MEANS, stds=STDS, seed=11)
    a = synth_original(spec)
    b = synth_original(spec)
    assert np.array_equal(a.values, b.values)
    assert a.n == 50 and a.m == 3
    assert a.role is Role.ORIGINAL


def test_synth_seed_changes_the_draw():
    a = synth_original(SynthSpec(n=50, means=MEANS, stds=STDS, seed=11))
    b = synth_original(SynthSpec(n=50, means=MEANS, stds=STDS, seed=12))
    assert not np.array_equal(a.values, b.values)


def test_synth_default_seed_is_stable():
    spec = SynthSpec(n=5, means=(0.0,), stds=(1.0,))
    assert spec.seed == DEFAULT_SYNTH_SEED
    assert np.array_equal(
        synth_original(spec).values,
        synth_original(SynthSpec(n=5, means=(0.0,), stds=(1.0,), seed=404)).values,
    )


def test_synth_sample_statistics():
    n = 4000
    table = synth_original(SynthSpec(n=n, means=MEANS, stds=STDS, seed=8))
    for j in range(3):
        col = table.column(j)
        assert abs(col.mean() - MEANS[j]) <= 3 * STDS[j] / n**0.5
        assert abs(col.std(ddof=1) - STDS[j]) <= 0.1 * STDS[j]


def test_synth_attribute_naming_and_override():
    auto = synth_original(SynthSpec(n=3, means=(0.0, 1.0), stds=(1.0, 1.0)))
    assert auto.attribute_names == ("a1", "a2")
    named = synth_original(
        SynthSpec(n=3, means=(0.0,), stds=(1.0,), names=("income",))
    )
    assert named.attribute_names == ("income",)


def test_synth_provenance_has_parameters_but_no_seed():
    table = synth_original(SynthSpec(n=4, means=MEANS, stds=STDS))
    assert table.provenance["method"] == "gaussian_synthesis"
    assert tuple(table.provenance["means"]) == MEANS
    assert "seed" not in table.provenance


def test_synth_spec_validation():
    with pytest.raises(InvalidSpecError):
        SynthSpec(n=0, means=(0.0,), stds=(1.0,))
    with pytest.raises(InvalidSpecError):
        SynthSpec(n=3, means=(0.0,), stds=(0.0,))
    with pytest.raises(InvalidSpecError):
        SynthSpec(n=3, means=(0.0,), stds=(-1.0,))
    with pytest.raises(InvalidSpecError):
        SynthSpec(n=3, means=(0.0, 1.0), stds=(1.0,))
    with pytest.raises(InvalidSpecError):
        SynthSpec(n=3, means=(0.0,), stds=(1.0,), names=("a", "b"))


def test_mask_replay_is_identical():
    table = synth_original(SynthSpec(n=30, means=MEANS, stds=STDS))
    spec = NoiseSpec(sigmas=(5.0, 25.0, 100.0), seed=7)
    a = gaussian_mask(table, spec)
    b = gaussian_mask(table, spec)
    assert np.array_equal(a.values, b.values)
    assert a.role is Role.ANONYMIZED
    assert a.attribute_names == table.attribute_names


def test_mask_default_seed_is_stable():
    table = synth_original(SynthSpec(n=10, means=MEANS, stds=STDS))
    assert NoiseSpec(sigmas=(1.0, 1.0, 1.0)).seed == DEFAULT_MASK_SEED


def test_mask_noise_statistics():
    n = 4000
    table = synth_original(SynthSpec(n=n, means=MEANS, stds=STDS, seed=3))
    sigmas = (5.0, 25.0, 100.0)
    masked = gaussian_mask(table, NoiseSpec(sigmas=sigmas, seed=5))
    noise = masked.values - table.values
    for j in range(3):
        col = noise[:, j]
        assert abs(col.std(ddof=1) - sigmas[j]) <= 0.1 * sigmas[j]
        assert abs(col.mean()) <= 4 * sigmas[j] / n**0.5


def test_tiny_noise_barely_moves_values():
    table = synth_original(SynthSpec(n=100, means=MEANS, stds=STDS))
    masked = gaussian_mask(table, NoiseSpec(sigmas=(1e-9, 1e-9, 1e-9)))
    assert np.abs(masked.values - table.values).max() < 1e-6


def test_mask_provenance_has_sigmas_but_no_seed():
    table = synth_original(SynthSpec(n=4, means=MEANS, stds=STDS))
    masked = gaussian_mask(table, NoiseSpec(sigmas=(5.0, 25.0, 100.0)))
    assert masked.provenance["method"] == "additive_gaussian"
    assert tuple(masked.provenance["sigmas"]) == (5.0, 25.0, 100.0)
    assert "seed" not in masked.provenance


def test_noise_spec_validation():
    table = synth_original(SynthSpec(n=4, means=MEANS, stds=STDS))
    with pytest.raises(ShapeMismatchError):
        gaussian_mask(table, NoiseSpec(sigmas=(5.0, 25.0)))
    with pytest.raises(InvalidSpecError):
        NoiseSpec(sigmas=(0.0,))
    with pytest.raises(InvalidSpecError):
        NoiseSpec(sigmas=(-2.0,))


def test_noise_streams_are_independent_per_attribute():
    # masking extra attributes must not perturb the earlier columns
    table = synth_original(SynthSpec(n=25, means=MEANS, stds=STDS, seed=2))
    narrow = MicrodataTable(table.values[:, :2], table.attribute_names[:2])
    wide = gaussian_mask(table, NoiseSpec(sigmas=(5.0, 25.0, 100.0), seed=9))
    thin = gaussian_mask(narrow, NoiseSpec(sigmas=(5.0, 25.0), seed=9))
    assert np.array_equal(wide.values[:, :2], thin.values)


@pytest.mark.parametrize("n", [2, 20, 1000])
def test_pipeline_runs_end_to_end(n):
    original = synth_original(SynthSpec(n=n, means=MEANS, stds=STDS))
    masked = gaussian_mask(original, NoiseSpec(sigmas=(5.0, 25.0, 100.0)))
    dec = decompose(original, masked)
    cert = certify_dataset(original, Release(masked))
    assert dec.z.n == n
    assert 0 <= cert.dataset_distance <= n - 1
    assert len(cert.per_record) == n
