"""Independent brute-force recomputation of permpriv's outputs.

Nothing here imports permpriv.  Ranks, closest ranks, permutation distances,
match sets, window variances, reverse mapping and baselines are recomputed
from the raw input values with plain numpy scans, and the reports the CLI
wrote are compared against them.  Every scan works in blocks of at most
`_BLOCK_BYTES`, so the oracle never sets the benchmark's peak memory.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

TIE_SEED = 101  # the CLI's default tie seed, which every benchmark command uses
BASELINE_SEED = 303  # the CLI's default baseline seed
SAMPLE_SIZE = 10_000  # the CLI's default sampled-baseline size
THRESHOLD = 0.05  # the CLI's default plausibility threshold
_BLOCK_BYTES = 2 << 20
_TOL = 1e-9


def column_seed(seed: int, j: int) -> int:
    """Per-column seed: two 32-bit words of SeedSequence([seed, j])."""
    state = np.random.SeedSequence([int(seed), int(j)]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def rank_matrix(values: np.ndarray, tie_seed: int = TIE_SEED) -> np.ndarray:
    """1-based ranks per column; each run of tied values is shuffled in turn."""
    n, m = values.shape
    out = np.empty((n, m), dtype=np.int64)
    for j in range(m):
        order = np.argsort(values[:, j], kind="stable")
        svals = values[order, j]
        starts = np.flatnonzero(np.r_[True, svals[1:] != svals[:-1]])
        stops = np.r_[starts[1:], n]
        rng = np.random.default_rng(column_seed(tie_seed, j))
        for a, b in zip(starts, stops):
            if b - a > 1:
                rng.shuffle(order[a:b])
        out[order, j] = np.arange(1, n + 1)
    return out


def tied_cells(values: np.ndarray) -> int:
    """Cells whose value occurs more than once in their column."""
    total = 0
    for j in range(values.shape[1]):
        _, counts = np.unique(values[:, j], return_counts=True)
        total += int(counts[counts > 1].sum())
    return total


def reverse_map(original: np.ndarray, anonymized: np.ndarray) -> np.ndarray:
    """Z[i, j] = the original value holding the rank of anonymized[i, j]."""
    ranks = rank_matrix(anonymized)
    z = np.empty_like(original)
    for j in range(original.shape[1]):
        z[:, j] = np.sort(original[:, j])[ranks[:, j] - 1]
    return z


class Release:
    """A released table as seen by a brute-force searcher."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.n, self.m = values.shape
        self.by_rank = np.sort(values, axis=0)
        self.ranks = rank_matrix(values)

    def centers(self, queries: np.ndarray) -> np.ndarray:
        """Closest ranks: the neighbour below or at/above x, the lower on a draw."""
        out = np.empty(queries.shape, dtype=np.int64)
        for j in range(self.m):
            v, x = self.by_rank[:, j], queries[:, j]
            below = np.searchsorted(v, x, side="left")  # values strictly below x
            lo = np.clip(below - 1, 0, self.n - 1)
            hi = np.clip(below, 0, self.n - 1)
            out[:, j] = np.where(np.abs(v[hi] - x) < np.abs(x - v[lo]), hi, lo) + 1
        return out

    def match(self, x: np.ndarray):
        """(distance, 1-based matched records, closest ranks) for one record."""
        c = self.centers(x.reshape(1, -1))[0]
        dev = np.abs(self.ranks - c).max(axis=1)
        d = int(dev.min())
        return d, np.flatnonzero(dev == d) + 1, c

    def distances(self, queries: np.ndarray) -> np.ndarray:
        centers = self.centers(queries)
        step = max(1, _BLOCK_BYTES // (8 * self.n * self.m))
        out = np.empty(len(queries), dtype=np.int64)
        for lo in range(0, len(queries), step):
            block = centers[lo : lo + step]
            dev = np.abs(self.ranks[None, :, :] - block[:, None, :]).max(axis=2)
            out[lo : lo + step] = dev.min(axis=1)
        return out

    def window_variance(self, j: int, center: int, d: int) -> float:
        lo, hi = max(center - d, 1), min(center + d, self.n)
        return float(self.by_rank[lo - 1 : hi, j].var())


def exhaustive_baseline(source: np.ndarray) -> np.ndarray:
    n, m = source.shape
    grids = np.indices((n,) * m).reshape(m, -1)
    return np.column_stack([source[grids[j], j] for j in range(m)])


def sampled_baseline(source: np.ndarray, size: int = SAMPLE_SIZE) -> np.ndarray:
    n, m = source.shape
    cols = []
    for j in range(m):
        rng = np.random.default_rng(column_seed(BASELINE_SEED, j))
        cols.append(source[rng.integers(0, n, size=size), j])
    return np.column_stack(cols)


def frequencies(dists: np.ndarray) -> dict[str, float]:
    counts = Counter(int(d) for d in dists)
    return {str(d): c / len(dists) for d, c in sorted(counts.items())}


def cumulative(freq: dict[str, float], distance: float) -> float:
    return float(sum(f for d, f in freq.items() if int(d) <= distance))


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)


def read_payload(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["payload"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


def check_evidence(rel: Release, x: np.ndarray, ev: dict, label: str) -> list[str]:
    """Distance, closest ranks and values, match set and deviations of one record."""
    d, matched, c = rel.match(x)
    problems = []
    if ev["distance"] != d:
        problems.append(f"{label}: distance {ev['distance']} != oracle {d}")
    if ev["closest_ranks"] != c.tolist():
        problems.append(f"{label}: closest ranks {ev['closest_ranks']} != oracle {c.tolist()}")
    if ev["matched_indices"] != matched.tolist():
        problems.append(f"{label}: matched set differs from oracle ({len(matched)} records)")
    values = [float(rel.by_rank[c[j] - 1, j]) for j in range(rel.m)]
    if ev["closest_values"] != values:
        problems.append(f"{label}: closest values {ev['closest_values']} != oracle {values}")
    devs = np.abs(rel.ranks[matched[0] - 1] - c).tolist()
    if ev["matched_deviations"] != devs:
        problems.append(f"{label}: matched deviations {ev['matched_deviations']} != {devs}")
    return problems


def check_variances(rel: Release, centers, d: int, got, label: str) -> list[str]:
    want = [rel.window_variance(j, int(c), d) for j, c in enumerate(centers)]
    if len(got) != len(want) or not all(_close(a, b) for a, b in zip(got, want)):
        return [f"{label}: window variances at d={d} {got} != oracle {want}"]
    return []


def verdict(rel: Release, x: np.ndarray, d_target: int, v_target) -> bool:
    """Does one record meet (d_target, v_target)?  The variance clause is strict."""
    d, _, c = rel.match(x)
    return d >= d_target and all(
        rel.window_variance(j, int(c[j]), d_target) > v_target[j] for j in range(rel.m)
    )
