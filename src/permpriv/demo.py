"""Regenerate every bundled reference artifact and diff it against the frozen
copies shipped with the package.

The demo is the package's self-check: it runs the whole pipeline (reverse
mapping, decomposition, record evidence, dataset certificate, linkage,
baseline distributions) on the embedded table pair and compares each result
with the stored reference values. A clean build produces zero mismatches.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from . import fixtures
from .baseline import BaselineSpec, baseline_distribution, distance_distribution
from .decompose import decompose, spearman_rho
from .io_report import emit_histogram, write_csv, write_report
from .linkage import link_records, score_linkage
from .privacy import Release, certify_dataset, permutation_distance
from .table import DEFAULT_TIE_SEED, MicrodataTable, Role

__all__ = ["regenerate", "diff_against_reference", "export_artifacts", "run_demo"]


def regenerate(tie_seed: int = DEFAULT_TIE_SEED) -> dict:
    """Run the full pipeline on the embedded tables and collect the results."""
    original, masked = fixtures.running_example()
    masked_release = Release(masked, tie_seed=tie_seed)
    decomposition = decompose(original, masked_release)
    permuted = decomposition.z
    permuted_release = Release(permuted, tie_seed=tie_seed)

    correlations = tuple(
        spearman_rho(original.column(j), permuted.column(j), tie_seed=tie_seed)
        for j in range(original.m)
    )

    record3 = np.asarray(fixtures.RECORD3["record"], dtype=np.float64)
    evidence = permutation_distance(record3, masked_release, record_index=3)
    evidence_variances = masked_release.window_variances(
        [evidence.closest_ranks], evidence.distance
    )[0].tolist()

    certificate = certify_dataset(original, masked_release, disclosure=fixtures.DISCLOSURE)
    linkage = link_records(original, permuted_release)
    score = score_linkage(linkage, list(range(1, original.n + 1)))

    dist_original = distance_distribution(original, permuted_release)
    dist_baseline = baseline_distribution(
        original, permuted_release, BaselineSpec(mode="exhaustive")
    )

    return {
        "original": original,
        "masked": masked,
        "permuted": permuted,
        "masked_ranks": masked_release.profile,
        "decomposition": decomposition,
        "correlations": correlations,
        "evidence": evidence,
        "evidence_variances": evidence_variances,
        "certificate": certificate,
        "linkage": linkage,
        "score": score,
        "dist_original": dist_original,
        "dist_baseline": dist_baseline,
        "tie_seed": tie_seed,
    }


def _mismatches(name: str, computed, reference, check) -> list[str]:
    """Messages where a computed result disagrees with its reference.

    `check` is None for exact equality, an absolute tolerance, or a format
    spec such as ".2f" under which both must print alike.  Numeric checks go
    cell by cell; a message names the table, and the 1-based cell of an array.
    """
    if check is None:
        return [] if computed == reference else [
            f"{name} computed {computed} expected {reference}"
        ]
    computed = np.asarray(computed, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    problems = []
    for idx in np.ndindex(reference.shape):
        got, want = computed[idx], reference[idx]
        if isinstance(check, str):
            got, want = f"{got:{check}}", f"{want:{check}}"
            bad = got != want
        else:
            bad = not abs(got - want) <= check
            got, want = f"{got:.4f}", f"{want:.4f}"
        if bad:
            spot = f": position ({', '.join(str(k + 1) for k in idx)})" if idx else ""
            problems.append(f"{name}{spot} computed {got} expected {want}")
    return problems


def diff_against_reference(artifacts: dict) -> list[str]:
    """Compare regenerated results with the stored references.

    Returns one message per disagreement, each prefixed with the name of the
    offending table so a failure pinpoints what drifted.
    """
    fx, r3, c = fixtures, fixtures.RECORD3, fixtures.CERTIFICATE
    dec, ev = artifacts["decomposition"], artifacts["evidence"]
    cert, link = artifacts["certificate"], artifacts["linkage"]
    deviations = np.abs(artifacts["masked_ranks"].ranks - np.asarray(r3["closest_ranks"]))
    rows = [
        # (table name, computed, reference, check)
        ("reverse_mapped", artifacts["permuted"].values, fx.REVERSE_MAPPED, ".2f"),
        ("residual_noise", dec.residual_noise, fx.RESIDUAL_NOISE, 0.01),
        ("direct_noise", dec.direct_noise, fx.DIRECT_NOISE, 0.01),
        ("rank_correlations", artifacts["correlations"], fx.RANK_CORRELATIONS, 0.0005),
        ("record_evidence: distance", ev.distance, r3["distance"], None),
        ("record_evidence: closest ranks", ev.closest_ranks, r3["closest_ranks"], None),
        ("record_evidence: matched record", ev.matched_indices[0], r3["matched_index"], None),
        ("record_evidence: matched deviations", ev.matched_deviations,
         r3["matched_deviations"], None),
        ("record_evidence_values", ev.closest_values, r3["closest_values"], 0.005),
        ("record_evidence_variances", artifacts["evidence_variances"],
         r3["window_variances"], 0.01),
        ("record_deviation_table", np.column_stack([deviations, deviations.max(axis=1)]),
         fx.RECORD3_DEVIATIONS, 0.0),
        ("certificate: dataset distance", cert.dataset_distance, c["dataset_distance"], None),
        ("certificate_variances", cert.dataset_variances, c["dataset_variances"], 0.01),
        ("certificate: record distances", cert.per_record.distances, c["distances"], 0.0),
        ("certificate: matched records",
         cert.per_record.matches[cert.per_record.offsets[:-1]], c["matched"], 0.0),
        ("certificate_record_variances_at_dataset_distance",
         cert.variances_at_dataset_distance, c["variances_at_d"], 0.01),
        ("certificate_record_variances_at_record_distance",
         cert.variances_at_record_distance, c["variances_at_di"], 0.01),
        ("linkage: match sets", tuple(r.matched_indices for r in link.per_record),
         fx.LINKAGE_MATCHES, None),
        ("linkage: distances", link.per_record.distances, fx.LINKAGE_DISTANCES, 0.0),
        ("linkage: unmatched targets", link.unmatched_targets, fx.LINKAGE_UNMATCHED, None),
        ("linkage: multiply matched targets", link.multiply_matched_targets,
         fx.LINKAGE_MULTIPLY_MATCHED, None),
    ]
    for name, dist, reference in (
        ("distance_distribution_original", artifacts["dist_original"], fx.DISTANCE_FREQ_ORIGINAL),
        ("distance_distribution_baseline", artifacts["dist_baseline"], fx.DISTANCE_FREQ_BASELINE),
    ):
        rows += [
            (f"{name}: distance {d} frequency", dist.frequency(d), want, ".4f")
            for d, want in reference.items()
        ]
        stray = [d for d in dist.support if d not in reference and dist.frequency(d) >= 0.00005]
        rows.append((f"{name}: distances with unexpected mass", stray, [], None))
    return [msg for row in rows for msg in _mismatches(*row)]


def export_artifacts(artifacts: dict, out_dir) -> list[Path]:
    """Write every artifact to out_dir, creating it if needed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = {"tie_seed": artifacts["tie_seed"]}
    written = []

    def csv(table: MicrodataTable, name: str) -> None:
        path = out / name
        write_csv(table, path)
        written.append(path)

    csv(artifacts["original"], "original.csv")
    csv(artifacts["masked"], "masked.csv")
    csv(artifacts["permuted"], "reverse_mapped.csv")

    dec = artifacts["decomposition"]
    names = artifacts["original"].attribute_names
    csv(MicrodataTable(dec.residual_noise, names, role=Role.ANONYMIZED), "residual_noise.csv")
    csv(MicrodataTable(dec.direct_noise, names, role=Role.ANONYMIZED), "direct_noise.csv")

    for obj, name in (
        (artifacts["evidence"], "record_evidence.json"),
        (artifacts["certificate"], "certificate.json"),
        (artifacts["linkage"], "linkage.json"),
    ):
        path = out / name
        write_report(obj, path, seeds=seeds, disclosure=fixtures.DISCLOSURE)
        written.append(path)

    histogram = out / "distance_histogram.csv"
    emit_histogram(artifacts["dist_original"], artifacts["dist_baseline"], histogram)
    written.append(histogram)
    return written


def run_demo(out_dir=None, tie_seed: int = DEFAULT_TIE_SEED) -> tuple[list[str], list[Path]]:
    """Regenerate, diff, optionally export. Returns (problems, files written)."""
    artifacts = regenerate(tie_seed=tie_seed)
    problems = diff_against_reference(artifacts)
    files = export_artifacts(artifacts, out_dir) if out_dir is not None else []
    return problems, files
