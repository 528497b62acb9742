"""Command line interface.

Eight subcommands wire the library into file-based workflows: reverse-map,
certify, subject, link, assess, mask, synth, and demo.  Every command reads
CSV tables, writes its artifacts into --out, and prints a short summary.
Flags may be preloaded from a JSON config file; explicit flags win.

Exit codes: 0 success; 2 usage or validation problem; 3 unreadable or
malformed input file; 4 an analysis verdict came out negative (verification
failed, subject unsafe, release does not withstand the attack, demo drifted).
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .baseline import (
    DEFAULT_BASELINE_SEED,
    DEFAULT_EXHAUSTIVE_CAP,
    DEFAULT_SAMPLE_SIZE,
    BaselineSpec,
    assess_tables,
    subject_safety_check,
)
from .demo import run_demo
from .errors import (
    EmptyInputError,
    InvalidTruthMappingError,
    ParseError,
    PermprivError,
    RaggedRowError,
    ShapeMismatchError,
)
from .io_report import (
    RunConfig,
    emit_histogram,
    load_csv,
    resolve,
    to_payload,
    write_csv,
    write_report,
)
from .linkage import link_records, score_linkage
from .masking import (
    DEFAULT_MASK_SEED,
    DEFAULT_SYNTH_SEED,
    NoiseSpec,
    SynthSpec,
    gaussian_mask,
    synth_original,
)
from .privacy import Release, certify_dataset, check_targets, permutation_distance
from .reverse_map import reverse_map_table
from .table import DEFAULT_TIE_SEED, MicrodataTable, Role, check_same_attributes

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERDICT = 4

# Generation defaults mirror the bundled running example: three independent
# normal attributes and the noise that masked them.
DEFAULT_SYNTH_N = 20
DEFAULT_SYNTH_MEANS = [100.0, 1000.0, 5000.0]
DEFAULT_SYNTH_STDS = [10.0, 50.0, 200.0]
DEFAULT_MASK_SIGMAS = [5.0, 25.0, 100.0]


def _out_dir(args, config) -> Path:
    out = Path(resolve(args.out, config, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _tie_seed(args, config) -> int:
    return int(resolve(args.tie_seed, config, "tie_seed", DEFAULT_TIE_SEED))


def _withhold(args, config) -> bool:
    flag = True if getattr(args, "withhold_seeds", False) else None
    return bool(resolve(flag, config, "withhold_seeds", False))


def _disclosure(args, config) -> str | None:
    return resolve(getattr(args, "disclosure", None), config, "disclosure", None)


def _write_report(obj, path, args, config, seeds: dict, kind: str | None = None) -> None:
    """Write a report under the command's --disclosure and --withhold-seeds."""
    write_report(
        obj, path, kind=kind, seeds=seeds,
        disclosure=_disclosure(args, config), withhold_seeds=_withhold(args, config),
    )


def _baseline_spec(args, config, mode: str) -> BaselineSpec:
    return BaselineSpec(
        mode=mode,
        sample_size=int(
            resolve(args.baseline_size, config, "baseline_size", DEFAULT_SAMPLE_SIZE)
        ),
        seed=int(
            resolve(args.baseline_seed, config, "baseline_seed", DEFAULT_BASELINE_SEED)
        ),
        exhaustive_cap=int(
            resolve(args.exhaustive_cap, config, "exhaustive_cap", DEFAULT_EXHAUSTIVE_CAP)
        ),
    )


def _targets(args, config, m: int) -> tuple[int, tuple[float, ...]] | None:
    """The --d/--v targets, None when both are unset; a missing half is vacuous."""
    d_target = resolve(args.d, config, "d", None)
    v_target = resolve(args.v, config, "v", None)
    if d_target is None and v_target is None:
        return None
    return check_targets(
        0 if d_target is None else d_target, [-1.0] * m if v_target is None else v_target, m
    )


def _fmt_vector(values) -> str:
    return "(" + ", ".join(f"{float(v):.2f}" for v in values) + ")"


def _load_single_record(path) -> MicrodataTable:
    table = load_csv(path, role=Role.ORIGINAL)
    if table.n != 1:
        raise ShapeMismatchError(
            f"{path}: subject record file must contain exactly one data row, got {table.n}"
        )
    return table


def _read_truth(value: str, n: int) -> list[int]:
    """Truth mapping: the literal word 'identity' or a file of n integers."""
    if value == "identity":
        return list(range(1, n + 1))
    tokens = re.split(r"[\s,]+", Path(value).read_text(encoding="utf-8").strip())
    try:
        return [int(t) for t in tokens if t]
    except ValueError as exc:
        raise InvalidTruthMappingError(f"{value}: truth file must contain integers") from exc


def cmd_reverse_map(args, config) -> int:
    original = load_csv(args.original, role=Role.ORIGINAL)
    anonymized = load_csv(args.anonymized, role=Role.ANONYMIZED)
    permuted = reverse_map_table(original, anonymized, tie_seed=_tie_seed(args, config))
    path = _out_dir(args, config) / "reverse_mapped.csv"
    write_csv(permuted, path)
    print(f"wrote {path} ({permuted.n} records, {permuted.m} attributes)")
    return EXIT_OK


def cmd_certify(args, config) -> int:
    original = load_csv(args.original, role=Role.ORIGINAL)
    anonymized = load_csv(args.anonymized, role=Role.ANONYMIZED)
    tie_seed = _tie_seed(args, config)
    targets = _targets(args, config, original.m)
    release = Release(anonymized, tie_seed=tie_seed)
    certificate = certify_dataset(original, release, disclosure=_disclosure(args, config))
    path = _out_dir(args, config) / "certificate.json"
    _write_report(certificate, path, args, config, {"tie_seed": tie_seed})
    print(
        f"certificate: d={certificate.dataset_distance}, "
        f"v={_fmt_vector(certificate.dataset_variances)}; wrote {path}"
    )

    if targets is None:
        return EXIT_OK
    # Joint per-record check at the requested targets, on the certificate's
    # own evidence.
    d_t, v_t = targets
    centers = [entry.result.closest_ranks for entry in certificate.per_record]
    passed, _ = release.verdicts(centers, certificate.record_distances, d_t, v_t)
    failures = (np.flatnonzero(~passed) + 1).tolist()
    if failures:
        shown = ", ".join(str(i) for i in failures[:10])
        more = "" if len(failures) <= 10 else f" and {len(failures) - 10} more"
        print(f"targets (d={d_t}, v={_fmt_vector(v_t)}) NOT met: records {shown}{more}")
        return EXIT_VERDICT
    print(f"targets (d={d_t}, v={_fmt_vector(v_t)}) met by all {original.n} records")
    return EXIT_OK


def cmd_subject(args, config) -> int:
    subject = _load_single_record(args.record)
    anonymized = load_csv(args.anonymized, role=Role.ANONYMIZED)
    check_same_attributes(subject, anonymized)
    record = subject.values[0]
    tie_seed = _tie_seed(args, config)
    targets = _targets(args, config, anonymized.m)
    release = Release(anonymized, tie_seed=tie_seed)
    evidence = permutation_distance(record, release)
    variances = release.window_variances([evidence.closest_ranks], evidence.distance)[0].tolist()
    print(
        f"distance {evidence.distance}; matched records {evidence.matched_indices}; "
        f"window variances {_fmt_vector(variances)}"
    )
    payload: dict = {
        "evidence": to_payload(evidence),
        "variances_at_distance": variances,
        "verification": None,
        "safety": None,
    }
    seeds: dict[str, int] = {"tie_seed": tie_seed}
    failed = False

    if targets is not None:
        d_t, v_t = targets
        outcome = release.verify(evidence, d_t, v_t)
        payload["verification"] = to_payload(outcome)
        verdict = "met" if outcome.passed else "NOT met"
        print(
            f"targets (d={d_t}, v={_fmt_vector(v_t)}) {verdict}: distance "
            f"{outcome.result.distance}, variances {_fmt_vector(outcome.window_variances)}"
        )
        failed = failed or not outcome.passed

    if args.baseline is not None:
        spec = _baseline_spec(args, config, args.baseline)
        threshold = float(resolve(args.threshold, config, "threshold", 0.05))
        safety = subject_safety_check(record, release, spec, threshold=threshold)
        payload["safety"] = to_payload(safety)
        seeds["baseline_seed"] = spec.seed
        print(
            f"plausibility P(D <= {safety.distance}) = {safety.plausibility:.4f} "
            f"({'safe' if safety.safe else 'UNSAFE'} at threshold {safety.threshold})"
        )
        failed = failed or not safety.safe

    path = _out_dir(args, config) / "subject.json"
    _write_report(payload, path, args, config, seeds, kind="subject")
    print(f"wrote {path}")
    return EXIT_VERDICT if failed else EXIT_OK


def cmd_link(args, config) -> int:
    original = load_csv(args.original, role=Role.ORIGINAL)
    permuted = load_csv(args.permuted, role=Role.REVERSE_MAPPED)
    tie_seed = _tie_seed(args, config)
    result = link_records(original, Release(permuted, tie_seed=tie_seed))
    payload = to_payload(result)
    summary = (
        f"{original.n} records linked; "
        f"{sum(1 for r in result.per_record if len(r.matched_indices) > 1)} with multiple matches; "
        f"unmatched targets {result.unmatched_targets}"
    )
    if args.truth is not None:
        truth = _read_truth(args.truth, original.n)
        score = score_linkage(result, truth)
        payload["score"] = to_payload(score)
        summary += (
            f"; score {score.correct} correct / {score.multiple} multiple / "
            f"{score.misidentified} misidentified"
        )
    path = _out_dir(args, config) / "linkage.json"
    _write_report(payload, path, args, config, {"tie_seed": tie_seed}, kind="linkage")
    print(summary)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_assess(args, config) -> int:
    original = load_csv(args.original, role=Role.ORIGINAL)
    anonymized = load_csv(args.anonymized, role=Role.ANONYMIZED)
    tie_seed = _tie_seed(args, config)
    mode = resolve(args.baseline_mode, config, "baseline_mode", "exhaustive")
    spec = _baseline_spec(args, config, mode)
    threshold = float(resolve(args.threshold, config, "threshold", 0.05))
    report = assess_tables(
        original, anonymized, spec, threshold=threshold, tie_seed=tie_seed
    )
    out = _out_dir(args, config)
    report_path = out / "assessment.json"
    seeds = {"tie_seed": tie_seed, "baseline_seed": spec.seed}
    _write_report(report, report_path, args, config, seeds)
    histogram_path = out / "distance_histogram.csv"
    emit_histogram(report.original, report.baseline, histogram_path)
    print(
        f"median original distance {report.median_distance:g}; "
        f"plausibility {report.plausibility_at_median:.4f}; "
        f"divergence TV={report.divergence.total_variation:.4f} "
        f"H={report.divergence.hellinger:.4f}"
    )
    print(f"wrote {report_path} and {histogram_path}")
    verdict = "yes" if report.withstands else "no"
    print(f"withstands known-plaintext attack: {verdict}")
    return EXIT_OK if report.withstands else EXIT_VERDICT


def cmd_mask(args, config) -> int:
    original = load_csv(args.original, role=Role.ORIGINAL)
    sigmas = resolve(args.sigmas, config, "sigmas", DEFAULT_MASK_SIGMAS)
    seed = int(resolve(args.mask_seed, config, "mask_seed", DEFAULT_MASK_SEED))
    masked = gaussian_mask(original, NoiseSpec(sigmas=sigmas, seed=seed))
    path = _out_dir(args, config) / "masked.csv"
    write_csv(masked, path)
    # The summary names the noise levels but never the masking seed; the seed
    # is the one anonymization parameter that stays secret.
    print(f"wrote {path} (noise sigmas {_fmt_vector(masked.provenance['sigmas'])})")
    return EXIT_OK


def cmd_synth(args, config) -> int:
    spec = SynthSpec(
        n=int(resolve(args.n, config, "synth_n", DEFAULT_SYNTH_N)),
        means=resolve(args.means, config, "means", DEFAULT_SYNTH_MEANS),
        stds=resolve(args.stds, config, "stds", DEFAULT_SYNTH_STDS),
        seed=int(resolve(args.synth_seed, config, "synth_seed", DEFAULT_SYNTH_SEED)),
        names=resolve(args.names, config, "names", None),
    )
    table = synth_original(spec)
    path = _out_dir(args, config) / "original.csv"
    write_csv(table, path)
    print(f"wrote {path} ({table.n} records, {table.m} attributes)")
    return EXIT_OK


def cmd_demo(args, config) -> int:
    out = resolve(args.out, config, "out", None)
    problems, files = run_demo(out_dir=out, tie_seed=_tie_seed(args, config))
    for line in problems:
        print(f"mismatch -- {line}")
    for path in files:
        print(f"wrote {path}")
    if problems:
        print(f"demo FAILED: {len(problems)} mismatches against bundled references")
        return EXIT_VERDICT
    print("demo ok: all regenerated artifacts match the bundled references")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpriv",
        description=(
            "Permutation-based anonymization analysis: reverse mapping, "
            "privacy certification, intruder linkage, and chance-match baselines."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="JSON file with flag defaults")
    common.add_argument("--out", metavar="DIR", help="output directory (default: .)")

    tie = argparse.ArgumentParser(add_help=False)
    tie.add_argument(
        "--tie-seed", type=int, dest="tie_seed", metavar="N",
        help=f"seed for rank tie-breaking (default {DEFAULT_TIE_SEED})",
    )

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument(
        "--withhold-seeds", action="store_true",
        help="null out seed values in the written report",
    )
    report.add_argument(
        "--disclosure", metavar="TEXT",
        help="free-text description of the anonymization, embedded in reports",
    )

    baseline = argparse.ArgumentParser(add_help=False)
    baseline.add_argument(
        "--baseline-size", type=int, metavar="N",
        help=f"records drawn in sampled mode (default {DEFAULT_SAMPLE_SIZE})",
    )
    baseline.add_argument(
        "--baseline-seed", "--seed", type=int, dest="baseline_seed", metavar="N",
        help=f"seed for baseline draws (default {DEFAULT_BASELINE_SEED})",
    )
    baseline.add_argument(
        "--exhaustive-cap", type=int, metavar="N",
        help=f"refuse exhaustive mode beyond this many records (default {DEFAULT_EXHAUSTIVE_CAP})",
    )

    p = sub.add_parser(
        "reverse-map", parents=[common, tie],
        help="replace each anonymized value by the original value of equal rank",
    )
    p.add_argument("original", help="original table CSV")
    p.add_argument("anonymized", help="anonymized table CSV")
    p.set_defaults(func=cmd_reverse_map)

    p = sub.add_parser(
        "certify", parents=[common, tie, report],
        help="per-record distances and variance windows, with dataset floor",
    )
    p.add_argument("original", help="original table CSV")
    p.add_argument("anonymized", help="anonymized table CSV")
    p.add_argument("--d", type=int, metavar="D", help="distance target to check")
    p.add_argument(
        "--v", type=float, nargs="+", metavar="V",
        help="per-attribute variance targets to check (strict)",
    )
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "subject", parents=[common, tie, report, baseline],
        help="one subject's own check against the released table",
    )
    p.add_argument("record", help="CSV with exactly one data row: the subject's record")
    p.add_argument("anonymized", help="released table CSV")
    p.add_argument("--d", type=int, metavar="D", help="distance target to check")
    p.add_argument(
        "--v", type=float, nargs="+", metavar="V",
        help="per-attribute variance targets to check (strict)",
    )
    p.add_argument(
        "--baseline", choices=("exhaustive", "sampled"),
        help="also measure how plausible the match is for a random record",
    )
    p.add_argument(
        "--threshold", type=float, metavar="P",
        help="plausibility below this is unsafe (default 0.05)",
    )
    p.set_defaults(func=cmd_subject)

    p = sub.add_parser(
        "link", parents=[common, tie, report],
        help="link original records to their closest permuted records",
    )
    p.add_argument("original", help="original table CSV")
    p.add_argument("permuted", help="permuted (reverse-mapped) table CSV")
    p.add_argument(
        "--truth", metavar="FILE|identity",
        help="true mapping (one 1-based target per record) to score the linkage",
    )
    p.set_defaults(func=cmd_link)

    p = sub.add_parser(
        "assess", parents=[common, tie, report, baseline],
        help="compare real match distances against the chance baseline",
    )
    p.add_argument("original", help="original table CSV")
    p.add_argument("anonymized", help="anonymized table CSV")
    p.add_argument(
        "--baseline-mode", choices=("exhaustive", "sampled"),
        help="how to build the baseline (default exhaustive)",
    )
    p.add_argument(
        "--threshold", type=float, metavar="P",
        help="plausibility below this fails the release (default 0.05)",
    )
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser(
        "mask", parents=[common],
        help="add independent zero-mean Gaussian noise to each attribute",
    )
    p.add_argument("original", help="original table CSV")
    p.add_argument(
        "--sigmas", type=float, nargs="+", metavar="S",
        help="per-attribute noise standard deviations",
    )
    p.add_argument(
        "--mask-seed", type=int, dest="mask_seed", metavar="N",
        help="masking seed (kept out of all outputs)",
    )
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser(
        "synth", parents=[common],
        help="generate a synthetic original table of normal attributes",
    )
    p.add_argument("--n", type=int, metavar="N", help="number of records (default 20)")
    p.add_argument("--means", type=float, nargs="+", metavar="M", help="attribute means")
    p.add_argument(
        "--stds", type=float, nargs="+", metavar="S", help="attribute standard deviations"
    )
    p.add_argument("--names", nargs="+", metavar="NAME", help="attribute names")
    p.add_argument(
        "--synth-seed", type=int, dest="synth_seed", metavar="N", help="generation seed"
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "demo", parents=[common, tie],
        help="regenerate the bundled example and diff it against stored references",
    )
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_file(args.config) if args.config else None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PermprivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, config)
    except (ParseError, RaggedRowError, EmptyInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PermprivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
