"""Seeded Gaussian data synthesis and additive noise masking.

These generators exist so the rest of the toolkit has reproducible inputs to
chew on: a synthetic original table with independent normal attributes, and a
masked variant obtained by adding independent zero-mean Gaussian noise per
attribute.  Each attribute draws from its own derived stream, so attribute
order never changes the values another attribute receives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, ShapeMismatchError
from .table import MicrodataTable, Role, check_integer, check_seed, derive_column_seed

DEFAULT_SYNTH_SEED = 404
DEFAULT_MASK_SEED = 202


def _check_positive_finite(values, label: str) -> tuple[float, ...]:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise InvalidSpecError(f"{label} must not be empty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise InvalidSpecError(f"{label} must be positive finite numbers")
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class SynthSpec:
    """Spec for a synthetic original table of independent normal attributes."""

    n: int
    means: tuple[float, ...]
    stds: tuple[float, ...]
    seed: int = DEFAULT_SYNTH_SEED
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", check_integer(self.n, InvalidSpecError, "n"))
        if not 0 < self.n <= np.iinfo(np.intp).max:  # numpy's largest length
            raise InvalidSpecError(f"n must be a positive array length, got {self.n}")
        means = np.asarray(self.means, dtype=float).ravel()
        if means.size == 0 or not np.all(np.isfinite(means)):
            raise InvalidSpecError("means must be finite and non-empty")
        stds = _check_positive_finite(self.stds, "stds")
        if means.size != len(stds):
            raise InvalidSpecError(
                f"{means.size} means for {len(stds)} standard deviations"
            )
        names = self.names
        if names is None:
            names = tuple(f"a{j + 1}" for j in range(means.size))
        names = tuple(str(v) for v in names)
        if len(names) != means.size:
            raise InvalidSpecError(f"{len(names)} names for {means.size} attributes")
        object.__setattr__(self, "means", tuple(float(v) for v in means))
        object.__setattr__(self, "stds", stds)
        object.__setattr__(self, "seed", check_seed(self.seed, "seed"))
        object.__setattr__(self, "names", names)


def synth_original(spec: SynthSpec) -> MicrodataTable:
    """Draw a synthetic original table of independent normal columns."""
    values = np.empty((spec.n, len(spec.stds)), order="F")
    for j, (mu, sd) in enumerate(zip(spec.means, spec.stds)):
        rng = np.random.default_rng(derive_column_seed(spec.seed, j))
        values[:, j] = rng.normal(mu, sd, size=spec.n)
    return MicrodataTable(values, spec.names, role=Role.ORIGINAL)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-attribute standard deviations for additive Gaussian masking."""

    sigmas: tuple[float, ...]
    seed: int = DEFAULT_MASK_SEED

    def __post_init__(self):
        object.__setattr__(self, "sigmas", _check_positive_finite(self.sigmas, "sigmas"))
        object.__setattr__(self, "seed", check_seed(self.seed, "seed"))


def gaussian_mask(table: MicrodataTable, spec: NoiseSpec) -> MicrodataTable:
    """Add independent zero-mean Gaussian noise to every attribute.

    The masking seed is the anonymization secret: it is recorded nowhere in
    the output table and must never appear in published artifacts.
    """
    if len(spec.sigmas) != table.m:
        raise ShapeMismatchError(
            f"{len(spec.sigmas)} sigmas for {table.m} attributes"
        )
    values = np.empty((table.n, table.m), order="F")
    for j, sigma in enumerate(spec.sigmas):
        rng = np.random.default_rng(derive_column_seed(spec.seed, j))
        np.add(table.column(j), rng.normal(0.0, sigma, size=table.n), out=values[:, j])
    return MicrodataTable(values, table.attribute_names, role=Role.ANONYMIZED)
