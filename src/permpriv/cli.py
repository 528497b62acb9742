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


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(obj, path, args, seeds: dict, kind: str | None = None) -> None:
    """Write a report under the command's --disclosure and --withhold-seeds."""
    write_report(
        obj, path, kind=kind, seeds=seeds,
        disclosure=args.disclosure, withhold_seeds=args.withhold_seeds,
    )


def _baseline_spec(args, mode: str) -> BaselineSpec:
    return BaselineSpec(
        mode=mode,
        sample_size=args.baseline_size,
        seed=args.baseline_seed,
        exhaustive_cap=args.exhaustive_cap,
    )


def _targets(args, m: int) -> tuple[int, tuple[float, ...]] | None:
    """The --d/--v targets, None when both are unset; a missing half is vacuous."""
    if args.d is None and args.v is None:
        return None
    return check_targets(
        0 if args.d is None else args.d, [-1.0] * m if args.v is None else args.v, m
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


def cmd_reverse_map(args) -> int:
    original = load_csv(args.original, role=Role.ORIGINAL)
    anonymized = load_csv(args.anonymized, role=Role.ANONYMIZED)
    permuted = reverse_map_table(original, anonymized, tie_seed=args.tie_seed)
    path = _out_dir(args) / "reverse_mapped.csv"
    write_csv(permuted, path)
    print(f"wrote {path} ({permuted.n} records, {permuted.m} attributes)")
    return EXIT_OK


def cmd_certify(args) -> int:
    original = load_csv(args.original, role=Role.ORIGINAL)
    anonymized = load_csv(args.anonymized, role=Role.ANONYMIZED)
    targets = _targets(args, original.m)
    release = Release(anonymized, tie_seed=args.tie_seed)
    certificate = certify_dataset(original, release, disclosure=args.disclosure)
    path = _out_dir(args) / "certificate.json"
    _write_report(certificate, path, args, {"tie_seed": args.tie_seed})
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


def cmd_subject(args) -> int:
    subject = _load_single_record(args.record)
    anonymized = load_csv(args.anonymized, role=Role.ANONYMIZED)
    check_same_attributes(subject, anonymized)
    record = subject.values[0]
    targets = _targets(args, anonymized.m)
    release = Release(anonymized, tie_seed=args.tie_seed)
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
    seeds: dict[str, int] = {"tie_seed": args.tie_seed}
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
        spec = _baseline_spec(args, args.baseline)
        safety = subject_safety_check(record, release, spec, threshold=args.threshold)
        payload["safety"] = to_payload(safety)
        seeds["baseline_seed"] = spec.seed
        print(
            f"plausibility P(D <= {safety.distance}) = {safety.plausibility:.4f} "
            f"({'safe' if safety.safe else 'UNSAFE'} at threshold {safety.threshold})"
        )
        failed = failed or not safety.safe

    path = _out_dir(args) / "subject.json"
    _write_report(payload, path, args, seeds, kind="subject")
    print(f"wrote {path}")
    return EXIT_VERDICT if failed else EXIT_OK


def cmd_link(args) -> int:
    original = load_csv(args.original, role=Role.ORIGINAL)
    permuted = load_csv(args.permuted, role=Role.REVERSE_MAPPED)
    result = link_records(original, Release(permuted, tie_seed=args.tie_seed))
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
    path = _out_dir(args) / "linkage.json"
    _write_report(payload, path, args, {"tie_seed": args.tie_seed}, kind="linkage")
    print(summary)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_assess(args) -> int:
    original = load_csv(args.original, role=Role.ORIGINAL)
    anonymized = load_csv(args.anonymized, role=Role.ANONYMIZED)
    spec = _baseline_spec(args, args.baseline_mode)
    report = assess_tables(
        original, anonymized, spec, threshold=args.threshold, tie_seed=args.tie_seed
    )
    out = _out_dir(args)
    report_path = out / "assessment.json"
    seeds = {"tie_seed": args.tie_seed, "baseline_seed": spec.seed}
    _write_report(report, report_path, args, seeds)
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


def cmd_mask(args) -> int:
    original = load_csv(args.original, role=Role.ORIGINAL)
    masked = gaussian_mask(original, NoiseSpec(sigmas=args.sigmas, seed=args.mask_seed))
    path = _out_dir(args) / "masked.csv"
    write_csv(masked, path)
    # The summary names the noise levels but never the masking seed; the seed
    # is the one anonymization parameter that stays secret.
    print(f"wrote {path} (noise sigmas {_fmt_vector(masked.provenance['sigmas'])})")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n=args.synth_n,
        means=args.means,
        stds=args.stds,
        seed=args.synth_seed,
        names=args.names,
    )
    table = synth_original(spec)
    path = _out_dir(args) / "original.csv"
    write_csv(table, path)
    print(f"wrote {path} ({table.n} records, {table.m} attributes)")
    return EXIT_OK


def cmd_demo(args) -> int:
    problems, files = run_demo(out_dir=args.out, tie_seed=args.tie_seed)
    for line in problems:
        print(f"mismatch -- {line}")
    for path in files:
        print(f"wrote {path}")
    if problems:
        print(f"demo FAILED: {len(problems)} mismatches against bundled references")
        return EXIT_VERDICT
    print("demo ok: all regenerated artifacts match the bundled references")
    return EXIT_OK


def build_parser(config: RunConfig | None = None) -> argparse.ArgumentParser:
    """The CLI parser; a config file's non-null values replace the flag defaults."""
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

    config_file = argparse.ArgumentParser(add_help=False)
    config_file.add_argument("--config", metavar="FILE", help="JSON file with flag defaults")

    common = argparse.ArgumentParser(add_help=False, parents=[config_file])
    common.add_argument(
        "--out", metavar="DIR", default=".", help="output directory (default %(default)s)"
    )

    tie = argparse.ArgumentParser(add_help=False)
    tie.add_argument(
        "--tie-seed", type=int, dest="tie_seed", metavar="N", default=DEFAULT_TIE_SEED,
        help="seed for rank tie-breaking (default %(default)s)",
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

    targets = argparse.ArgumentParser(add_help=False)
    targets.add_argument("--d", type=int, metavar="D", help="distance target to check")
    targets.add_argument(
        "--v", type=float, nargs="+", metavar="V",
        help="per-attribute variance targets to check (strict)",
    )

    baseline = argparse.ArgumentParser(add_help=False)
    baseline.add_argument(
        "--baseline-size", type=int, metavar="N", default=DEFAULT_SAMPLE_SIZE,
        help="records drawn in sampled mode (default %(default)s)",
    )
    baseline.add_argument(
        "--baseline-seed", "--seed", type=int, dest="baseline_seed", metavar="N",
        default=DEFAULT_BASELINE_SEED, help="seed for baseline draws (default %(default)s)",
    )
    baseline.add_argument(
        "--exhaustive-cap", type=int, metavar="N", default=DEFAULT_EXHAUSTIVE_CAP,
        help="refuse exhaustive mode beyond this many records (default %(default)s)",
    )
    baseline.add_argument(
        "--threshold", type=float, metavar="P", default=0.05,
        help="plausibility below this fails the check (default %(default)s)",
    )

    p = sub.add_parser(
        "reverse-map", parents=[common, tie],
        help="replace each anonymized value by the original value of equal rank",
    )
    p.add_argument("original", help="original table CSV")
    p.add_argument("anonymized", help="anonymized table CSV")
    p.set_defaults(func=cmd_reverse_map)

    p = sub.add_parser(
        "certify", parents=[common, tie, report, targets],
        help="per-record distances and variance windows, with dataset floor",
    )
    p.add_argument("original", help="original table CSV")
    p.add_argument("anonymized", help="anonymized table CSV")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "subject", parents=[common, tie, report, targets, baseline],
        help="one subject's own check against the released table",
    )
    p.add_argument("record", help="CSV with exactly one data row: the subject's record")
    p.add_argument("anonymized", help="released table CSV")
    p.add_argument(
        "--baseline", choices=("exhaustive", "sampled"),
        help="also measure how plausible the match is for a random record",
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
        "--baseline-mode", choices=("exhaustive", "sampled"), default="exhaustive",
        help="how to build the baseline (default %(default)s)",
    )
    p.set_defaults(func=cmd_assess)

    # Generation defaults mirror the bundled running example: three independent
    # normal attributes and the noise that masked them.
    p = sub.add_parser(
        "mask", parents=[common],
        help="add independent zero-mean Gaussian noise to each attribute",
    )
    p.add_argument("original", help="original table CSV")
    p.add_argument(
        "--sigmas", type=float, nargs="+", metavar="S", default=[5.0, 25.0, 100.0],
        help="per-attribute noise standard deviations (default %(default)s)",
    )
    p.add_argument(
        "--mask-seed", type=int, dest="mask_seed", metavar="N", default=DEFAULT_MASK_SEED,
        help="masking seed (kept out of all outputs)",
    )
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser(
        "synth", parents=[common],
        help="generate a synthetic original table of normal attributes",
    )
    p.add_argument(
        "--n", type=int, dest="synth_n", metavar="N", default=20,
        help="number of records (default %(default)s)",
    )
    p.add_argument(
        "--means", type=float, nargs="+", metavar="M", default=[100.0, 1000.0, 5000.0],
        help="attribute means (default %(default)s)",
    )
    p.add_argument(
        "--stds", type=float, nargs="+", metavar="S", default=[10.0, 50.0, 200.0],
        help="attribute standard deviations (default %(default)s)",
    )
    p.add_argument("--names", nargs="+", metavar="NAME", help="attribute names")
    p.add_argument(
        "--synth-seed", type=int, dest="synth_seed", metavar="N", default=DEFAULT_SYNTH_SEED,
        help="generation seed (default %(default)s)",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "demo", parents=[config_file, tie],
        help="regenerate the bundled example and diff it against stored references",
    )
    p.add_argument("--out", metavar="DIR", help="also write the regenerated artifacts here")
    p.set_defaults(func=cmd_demo)

    if config is not None:
        values = {k: v for k, v in vars(config).items() if v is not None}
        for p in sub.choices.values():
            p.set_defaults(**values)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.config:
        try:
            config = RunConfig.from_file(args.config)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except json.JSONDecodeError as exc:
            print(f"error: {args.config}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except PermprivError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        args = build_parser(config).parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, RaggedRowError, EmptyInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PermprivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
