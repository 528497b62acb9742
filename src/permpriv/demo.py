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
from .baseline import BaselineSpec, distance_distribution, generate_baseline
from .decompose import decompose, spearman_rho
from .io_report import emit_histogram, write_csv, write_report
from .linkage import link_records, score_linkage
from .privacy import Release, certify_dataset, permutation_distance
from .reverse_map import reverse_map_table
from .table import DEFAULT_TIE_SEED, MicrodataTable, RankProfile, Role

__all__ = ["regenerate", "diff_against_reference", "export_artifacts", "run_demo"]


def regenerate(tie_seed: int = DEFAULT_TIE_SEED) -> dict:
    """Run the full pipeline on the embedded tables and collect the results."""
    original, masked = fixtures.running_example()
    permuted = reverse_map_table(original, masked, tie_seed=tie_seed)
    masked_ranks = RankProfile.of(masked, tie_seed=tie_seed)
    masked_release = Release(masked, masked_ranks)
    permuted_release = Release(permuted, tie_seed=tie_seed)

    decomposition = decompose(original, masked, tie_seed=tie_seed)
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
    baseline = generate_baseline(original, BaselineSpec(mode="exhaustive"))
    dist_baseline = distance_distribution(baseline, permuted_release)

    return {
        "original": original,
        "masked": masked,
        "permuted": permuted,
        "masked_ranks": masked_ranks,
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


def _cells_2dp(name: str, computed, reference, problems: list[str]) -> None:
    computed = np.asarray(computed, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    for i in range(reference.shape[0]):
        for j in range(reference.shape[1]):
            got = f"{computed[i, j]:.2f}"
            want = f"{reference[i, j]:.2f}"
            if got != want:
                problems.append(
                    f"{name}: record {i + 1} attribute {j + 1} computed {got} expected {want}"
                )


def _close(name: str, computed, reference, tol: float, problems: list[str]) -> None:
    computed = np.asarray(computed, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    bad = np.argwhere(~(np.abs(computed - reference) <= tol))
    for idx in bad:
        spot = ", ".join(str(int(k) + 1) for k in idx)
        problems.append(
            f"{name}: position ({spot}) computed "
            f"{computed[tuple(idx)]:.4f} expected {reference[tuple(idx)]:.4f}"
        )


def diff_against_reference(artifacts: dict) -> list[str]:
    """Compare regenerated results with the stored references.

    Returns one message per disagreement, each prefixed with the name of the
    offending table so a failure pinpoints what drifted.
    """
    problems: list[str] = []
    fx = fixtures

    _cells_2dp("reverse_mapped", artifacts["permuted"].values, fx.REVERSE_MAPPED, problems)

    dec = artifacts["decomposition"]
    _close("residual_noise", dec.residual_noise, fx.RESIDUAL_NOISE, 0.01, problems)
    _close("direct_noise", dec.direct_noise, fx.DIRECT_NOISE, 0.01, problems)

    for j, (got, want) in enumerate(zip(artifacts["correlations"], fx.RANK_CORRELATIONS)):
        if abs(got - want) > 0.0005:
            problems.append(
                f"rank_correlations: attribute {j + 1} computed {got:.5f} expected {want}"
            )

    ev = artifacts["evidence"]
    if ev.distance != fx.RECORD3["distance"]:
        problems.append(
            f"record_evidence: distance computed {ev.distance} expected {fx.RECORD3['distance']}"
        )
    if ev.closest_ranks != fx.RECORD3["closest_ranks"]:
        problems.append(
            f"record_evidence: closest ranks computed {ev.closest_ranks} "
            f"expected {fx.RECORD3['closest_ranks']}"
        )
    if ev.matched_indices[0] != fx.RECORD3["matched_index"]:
        problems.append(
            f"record_evidence: matched record computed {ev.matched_indices[0]} "
            f"expected {fx.RECORD3['matched_index']}"
        )
    if ev.matched_deviations != fx.RECORD3["matched_deviations"]:
        problems.append(
            f"record_evidence: matched deviations computed {ev.matched_deviations} "
            f"expected {fx.RECORD3['matched_deviations']}"
        )
    _close("record_evidence_values", ev.closest_values, fx.RECORD3["closest_values"], 0.005, problems)
    _close("record_evidence_variances", artifacts["evidence_variances"],
           fx.RECORD3["window_variances"], 0.01, problems)
    deviations = np.abs(
        artifacts["masked_ranks"].ranks - np.asarray(fx.RECORD3["closest_ranks"])
    )
    table3 = np.column_stack([deviations, deviations.max(axis=1)])
    _close("record_deviation_table", table3, fx.RECORD3_DEVIATIONS, 0, problems)

    cert = artifacts["certificate"]
    if cert.dataset_distance != fx.CERTIFICATE["dataset_distance"]:
        problems.append(
            f"certificate: dataset distance computed {cert.dataset_distance} "
            f"expected {fx.CERTIFICATE['dataset_distance']}"
        )
    _close("certificate_variances", cert.dataset_variances,
           fx.CERTIFICATE["dataset_variances"], 0.01, problems)
    if cert.record_distances != fx.CERTIFICATE["distances"]:
        problems.append(
            f"certificate: record distances computed {cert.record_distances} "
            f"expected {fx.CERTIFICATE['distances']}"
        )
    first_matches = tuple(entry.result.matched_indices[0] for entry in cert.per_record)
    if first_matches != fx.CERTIFICATE["matched"]:
        problems.append(
            f"certificate: matched records computed {first_matches} "
            f"expected {fx.CERTIFICATE['matched']}"
        )
    _close("certificate_record_variances_at_dataset_distance",
           [e.variances_at_dataset_distance for e in cert.per_record],
           fx.CERTIFICATE["variances_at_d"], 0.01, problems)
    _close("certificate_record_variances_at_record_distance",
           [e.variances_at_record_distance for e in cert.per_record],
           fx.CERTIFICATE["variances_at_di"], 0.01, problems)

    link = artifacts["linkage"]
    for i, (rec, want_set, want_d) in enumerate(
        zip(link.per_record, fx.LINKAGE_MATCHES, fx.LINKAGE_DISTANCES)
    ):
        if rec.matched_indices != want_set:
            problems.append(
                f"linkage: record {i + 1} match set computed {rec.matched_indices} "
                f"expected {want_set}"
            )
        if rec.distance != want_d:
            problems.append(
                f"linkage: record {i + 1} distance computed {rec.distance} expected {want_d}"
            )
    if link.unmatched_targets != fx.LINKAGE_UNMATCHED:
        problems.append(
            f"linkage: unmatched targets computed {link.unmatched_targets} "
            f"expected {fx.LINKAGE_UNMATCHED}"
        )
    if link.multiply_matched_targets != fx.LINKAGE_MULTIPLY_MATCHED:
        problems.append(
            f"linkage: multiply matched targets computed {link.multiply_matched_targets} "
            f"expected {fx.LINKAGE_MULTIPLY_MATCHED}"
        )

    for name, dist, reference in (
        ("distance_distribution_original", artifacts["dist_original"], fx.DISTANCE_FREQ_ORIGINAL),
        ("distance_distribution_baseline", artifacts["dist_baseline"], fx.DISTANCE_FREQ_BASELINE),
    ):
        for d, want in reference.items():
            got = dist.frequency(d)
            if f"{got:.4f}" != f"{want:.4f}":
                problems.append(
                    f"{name}: distance {d} frequency computed {got:.4f} expected {want:.4f}"
                )
        stray = [d for d in dist.support if d not in reference and dist.frequency(d) >= 0.00005]
        if stray:
            problems.append(f"{name}: unexpected mass at distances {stray}")

    return problems


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
