"""Command-line interface: exit codes, artifacts, and config handling."""

import json

import numpy as np
import pytest

from permpriv import fixtures
from permpriv.cli import build_parser, main
from permpriv.io_report import load_csv, read_report, write_csv
from permpriv.privacy import Release
from permpriv.reverse_map import reverse_map_table
from permpriv.table import Role


@pytest.fixture()
def workspace(tmp_path, original, masked, permuted):
    write_csv(original, tmp_path / "original.csv")
    write_csv(masked, tmp_path / "masked.csv")
    write_csv(permuted, tmp_path / "permuted.csv")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reverse_map_command(workspace, capsys, permuted):
    code, out, _ = run(
        capsys,
        "reverse-map",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--out",
        workspace / "results",
    )
    assert code == 0
    written = load_csv(workspace / "results" / "reverse_mapped.csv")
    assert np.array_equal(written.values, permuted.values)
    assert "reverse_mapped.csv" in out


def test_reverse_map_replay_is_stable(workspace, capsys):
    for name in ("a", "b"):
        code, _, _ = run(
            capsys,
            "reverse-map",
            workspace / "original.csv",
            workspace / "masked.csv",
            "--out",
            workspace / name,
        )
        assert code == 0
    assert (workspace / "a" / "reverse_mapped.csv").read_bytes() == (
        workspace / "b" / "reverse_mapped.csv"
    ).read_bytes()


def test_certify_reports_the_floor(workspace, capsys):
    code, out, _ = run(
        capsys,
        "certify",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--out",
        workspace,
    )
    assert code == 0
    assert "d=1" in out
    report = read_report(workspace / "certificate.json")
    assert report["kind"] == "privacy_certificate"
    assert report["payload"]["dataset_distance"] == 1
    assert report["seeds"] == {"tie_seed": 101}


def test_certify_verdict_success(workspace, capsys):
    code, out, _ = run(
        capsys,
        "certify",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--d", "1", "--v", "0.005", "11.0", "30.0",
        "--out", workspace,
    )
    assert code == 0
    assert "met" in out


def test_certify_verdict_failure_names_records(workspace, capsys):
    code, out, _ = run(
        capsys,
        "certify",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--d", "2", "--v", "0.0", "0.0", "0.0",
        "--out", workspace,
    )
    assert code == 4
    assert "NOT met" in out
    for record in (7, 9, 11, 17):  # the distance-1 records
        assert str(record) in out


def test_certify_rejects_wrong_variance_count(workspace, capsys):
    code, _, err = run(
        capsys,
        "certify",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--d", "1", "--v", "1.0", "2.0",
        "--out", workspace / "untouched",
    )
    assert code == 2
    assert not (workspace / "untouched" / "certificate.json").exists()


@pytest.mark.parametrize("command", ["certify", "subject"])
def test_negative_distance_target_exits_2(workspace, capsys, original, command):
    write_csv(
        original.__class__(original.values[2:3], original.attribute_names),
        workspace / "record3.csv",
    )
    first = "original.csv" if command == "certify" else "record3.csv"
    code, _, err = run(
        capsys, command, workspace / first, workspace / "masked.csv",
        "--d", "-1", "--out", workspace / "untouched",
    )
    assert code == 2
    assert "d_target must be nonnegative" in err
    assert not (workspace / "untouched").exists()


def test_subject_evidence_only(workspace, capsys, original):
    write_csv(
        original.__class__(original.values[2:3], original.attribute_names),
        workspace / "record3.csv",
    )
    code, out, _ = run(
        capsys, "subject", workspace / "record3.csv", workspace / "masked.csv",
        "--out", workspace,
    )
    assert code == 0
    assert "distance 4" in out
    report = read_report(workspace / "subject.json")
    assert report["kind"] == "subject"
    assert report["payload"]["evidence"]["distance"] == 4


def test_subject_verification_verdict(workspace, capsys, original):
    write_csv(
        original.__class__(original.values[2:3], original.attribute_names),
        workspace / "record3.csv",
    )
    ok, out_ok, _ = run(
        capsys, "subject", workspace / "record3.csv", workspace / "masked.csv",
        "--d", "4", "--v", "24", "890", "20000", "--out", workspace,
    )
    assert ok == 0
    bad, out_bad, _ = run(
        capsys, "subject", workspace / "record3.csv", workspace / "masked.csv",
        "--d", "5", "--v", "24", "890", "20000", "--out", workspace,
    )
    assert bad == 4


def test_subject_safety_verdicts(workspace, capsys):
    probe = fixtures.SYNTHETIC_PROBE["record"]
    lines = ["a1,a2,a3", ",".join(repr(v) for v in probe)]
    (workspace / "probe.csv").write_text("\n".join(lines) + "\n")
    safe, out, _ = run(
        capsys, "subject", workspace / "probe.csv", workspace / "permuted.csv",
        "--baseline", "exhaustive", "--out", workspace,
    )
    assert safe == 0
    assert "plausib" in out
    report = read_report(workspace / "subject.json")
    assert report["payload"]["safety"]["safe"] is True
    # a record present verbatim is an implausibly close match
    row0 = load_csv(workspace / "permuted.csv").values[0]
    (workspace / "present.csv").write_text(
        "a1,a2,a3\n" + ",".join(repr(float(v)) for v in row0) + "\n"
    )
    unsafe, _, _ = run(
        capsys, "subject", workspace / "present.csv", workspace / "permuted.csv",
        "--baseline", "exhaustive", "--out", workspace,
    )
    assert unsafe == 4


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_subject_searches_the_record_once(workspace, capsys, original, monkeypatch, mode):
    write_csv(
        original.__class__(original.values[2:3], original.attribute_names),
        workspace / "record3.csv",
    )
    calls = []
    results = Release.results

    def counted(self, *args, **kwargs):
        calls.append(1)
        return results(self, *args, **kwargs)

    monkeypatch.setattr(Release, "results", counted)
    code, out, _ = run(
        capsys, "subject", workspace / "record3.csv", workspace / "masked.csv",
        "--d", "1", "--v", "1", "1", "1", "--baseline", mode, "--out", workspace,
    )
    assert code in (0, 4)
    assert "plausibility" in out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ("--baseline", "sampled", "--threshold", "nan"),
        ("--baseline", "exhaustive", "--exhaustive-cap", "10"),
    ],
    ids=["threshold-nan", "cap-10"],
)
def test_subject_usage_error_prints_nothing(workspace, capsys, original, flags):
    write_csv(
        original.__class__(original.values[2:3], original.attribute_names),
        workspace / "record3.csv",
    )
    code, out, err = run(
        capsys, "subject", workspace / "record3.csv", workspace / "masked.csv",
        *flags, "--out", workspace / "untouched",
    )
    assert code == 2
    assert out == ""
    assert "error" in err
    assert not (workspace / "untouched").exists()


def test_subject_rejects_multi_row_input(workspace, capsys):
    code, _, err = run(
        capsys, "subject", workspace / "original.csv", workspace / "masked.csv",
        "--out", workspace,
    )
    assert code == 2


def test_link_with_identity_truth(workspace, capsys):
    code, out, _ = run(
        capsys,
        "link",
        workspace / "original.csv",
        workspace / "permuted.csv",
        "--truth", "identity",
        "--out", workspace,
    )
    assert code == 0
    assert "20 records linked" in out
    report = read_report(workspace / "linkage.json")
    assert report["kind"] == "linkage"
    score = report["payload"]["score"]
    assert (score["correct"], score["multiple"], score["misidentified"]) == (6, 4, 10)
    sets = [tuple(r["matched_indices"]) for r in report["payload"]["per_record"]]
    assert tuple(sets) == fixtures.LINKAGE_MATCHES


def test_link_with_truth_file(workspace, capsys):
    (workspace / "truth.txt").write_text(
        "\n".join(str(t) for t in range(1, 21)) + "\n"
    )
    code, out, _ = run(
        capsys,
        "link",
        workspace / "original.csv",
        workspace / "permuted.csv",
        "--truth", workspace / "truth.txt",
        "--out", workspace,
    )
    assert code == 0
    assert read_report(workspace / "linkage.json")["payload"]["score"]["correct"] == 6


def test_link_without_truth_skips_scoring(workspace, capsys):
    code, _, _ = run(
        capsys, "link", workspace / "original.csv", workspace / "permuted.csv",
        "--out", workspace,
    )
    assert code == 0
    assert "score" not in read_report(workspace / "linkage.json")["payload"]


def test_link_rejects_bad_truth(workspace, capsys):
    (workspace / "truth.txt").write_text("1\n1\n")
    code, _, err = run(
        capsys, "link", workspace / "original.csv", workspace / "permuted.csv",
        "--truth", workspace / "truth.txt", "--out", workspace,
    )
    assert code == 2


def test_assess_withstands_the_example(workspace, capsys):
    code, out, _ = run(
        capsys,
        "assess",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--out", workspace,
    )
    assert code == 0
    assert "withstands known-plaintext attack: yes" in out
    report = read_report(workspace / "assessment.json")
    assert report["payload"]["withstands"] is True
    hist = (workspace / "distance_histogram.csv").read_text().splitlines()
    assert hist[0] == "distance,frequency_original,frequency_baseline"
    assert len(hist) == 1 + 9  # nonzero bins reach distance 8 here
    assert hist[1].startswith("0,")
    assert hist[-1].startswith("8,")


def test_assess_strict_threshold_fails(workspace, capsys):
    code, out, _ = run(
        capsys,
        "assess",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--threshold", "0.9",
        "--out", workspace,
    )
    assert code == 4
    assert "withstands known-plaintext attack: no" in out


def test_assess_sampled_mode(workspace, capsys):
    code, out, _ = run(
        capsys,
        "assess",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--baseline-mode", "sampled",
        "--baseline-size", "2000",
        "--seed", "17",
        "--out", workspace,
    )
    assert code == 0
    report = read_report(workspace / "assessment.json")
    assert report["payload"]["baseline"]["sample_size"] == 2000
    assert report["seeds"]["baseline_seed"] == 17


def test_mask_and_synth_round(workspace, capsys):
    code, out, _ = run(
        capsys, "synth", "--n", "12", "--out", workspace / "gen",
    )
    assert code == 0
    table = load_csv(workspace / "gen" / "original.csv")
    assert (table.n, table.m) == (12, 3)
    code, out, _ = run(
        capsys, "mask", workspace / "gen" / "original.csv",
        "--sigmas", "5", "25", "100",
        "--mask-seed", "555",
        "--out", workspace / "gen",
    )
    assert code == 0
    masked = load_csv(workspace / "gen" / "masked.csv")
    assert masked.n == 12
    assert "noise sigmas (5.00, 25.00, 100.00)" in out
    assert "555" not in out  # the masking seed never leaks
    assert "555" not in (workspace / "gen" / "masked.csv").read_text()


def test_mask_sigma_count_must_match(workspace, capsys):
    code, _, err = run(
        capsys, "mask", workspace / "original.csv", "--sigmas", "5",
        "--out", workspace,
    )
    assert code == 2


def test_withheld_seeds_in_reports(workspace, capsys):
    code, _, _ = run(
        capsys,
        "certify",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--withhold-seeds",
        "--out", workspace,
    )
    assert code == 0
    report = read_report(workspace / "certificate.json")
    assert report["seeds"] == {"tie_seed": None}
    assert report["payload"]["tie_seed"] is None
    code, _, _ = run(
        capsys, "link", workspace / "original.csv", workspace / "permuted.csv",
        "--withhold-seeds", "--tie-seed", "9", "--out", workspace,
    )
    assert code == 0
    report = read_report(workspace / "linkage.json")
    assert report["seeds"] == {"tie_seed": None}
    assert report["payload"]["tie_seed"] is None


def test_config_file_supplies_defaults(workspace, capsys):
    (workspace / "config.json").write_text(
        json.dumps({"out": str(workspace / "from_config"), "tie_seed": 101})
    )
    code, _, _ = run(
        capsys,
        "reverse-map",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--config", workspace / "config.json",
    )
    assert code == 0
    assert (workspace / "from_config" / "reverse_mapped.csv").exists()


def test_flags_override_the_config(workspace, capsys):
    (workspace / "config.json").write_text(
        json.dumps({"out": str(workspace / "from_config2"), "threshold": 0.9})
    )
    code, out, _ = run(
        capsys,
        "assess",
        workspace / "original.csv",
        workspace / "masked.csv",
        "--config", workspace / "config.json",
        "--threshold", "0.05",
    )
    assert code == 0  # flag wins over the failing config threshold
    assert (workspace / "from_config2" / "assessment.json").exists()


def test_flag_beats_config_beats_default(workspace, capsys):
    (workspace / "seed7.json").write_text(json.dumps({"tie_seed": 7}))
    (workspace / "unset.json").write_text(json.dumps({"tie_seed": None}))
    cases = [
        (["--tie-seed", "5", "--config", workspace / "seed7.json"], 5),
        (["--config", workspace / "seed7.json"], 7),
        (["--tie-seed", "0", "--config", workspace / "seed7.json"], 0),  # zero is a real value
        (["--config", workspace / "unset.json"], 101),  # null leaves the default
        ([], 101),
    ]
    for extra, seed in cases:
        code, _, _ = run(
            capsys, "certify", workspace / "original.csv", workspace / "masked.csv",
            "--out", workspace, *extra,
        )
        assert code == 0
        assert read_report(workspace / "certificate.json")["seeds"] == {"tie_seed": seed}


def test_config_reaches_demo_and_report_flags(workspace, capsys, monkeypatch):
    monkeypatch.chdir(workspace)
    code, out, _ = run(capsys, "demo")
    assert code == 0 and "wrote" not in out  # no --out: the demo exports nothing
    (workspace / "demo.json").write_text(json.dumps({"out": str(workspace / "demo_out")}))
    code, out, _ = run(capsys, "demo", "--config", workspace / "demo.json")
    assert code == 0
    assert (workspace / "demo_out" / "certificate.json").exists()
    (workspace / "withhold.json").write_text(json.dumps({"withhold_seeds": True}))
    code, _, _ = run(
        capsys, "certify", workspace / "original.csv", workspace / "masked.csv",
        "--config", workspace / "withhold.json", "--out", workspace,
    )
    assert code == 0
    assert read_report(workspace / "certificate.json")["seeds"] == {"tie_seed": None}


def test_config_errors(workspace, capsys, original):
    (workspace / "bad.json").write_text('{"no_such_key": 1}')
    code, _, err = run(
        capsys, "reverse-map", workspace / "original.csv", workspace / "masked.csv",
        "--config", workspace / "bad.json",
    )
    assert code == 2
    (workspace / "broken.json").write_text("{not json")
    code, _, _ = run(
        capsys, "reverse-map", workspace / "original.csv", workspace / "masked.csv",
        "--config", workspace / "broken.json",
    )
    assert code == 2
    code, _, _ = run(
        capsys, "reverse-map", workspace / "original.csv", workspace / "masked.csv",
        "--config", workspace / "missing.json",
    )
    assert code == 3
    (workspace / "latin1.json").write_bytes(b'{"disclosure": "caf\xe9"}')  # not UTF-8
    code, _, err = run(
        capsys, "reverse-map", workspace / "original.csv", workspace / "masked.csv",
        "--config", workspace / "latin1.json",
    )
    assert code == 2
    assert "utf-8" in err
    (workspace / "mode.json").write_text('{"baseline_mode": "bogus"}')
    code, _, err = run(
        capsys, "assess", workspace / "original.csv", workspace / "masked.csv",
        "--config", workspace / "mode.json", "--out", workspace,
    )
    assert code == 2
    assert "unknown baseline mode" in err
    # non-finite targets and thresholds outside [0, 1], from flags and from a
    # config file (json reads the literal NaN)
    record = workspace / "record1.csv"
    write_csv(original.__class__(original.values[:1], original.attribute_names), record)
    x, y = workspace / "original.csv", workspace / "masked.csv"
    (workspace / "nan.json").write_text('{"threshold": NaN}')
    cases = [
        (["assess", x, y, "--threshold", "nan"], "threshold"),
        (["assess", x, y, "--threshold", "1.5"], "threshold"),
        (["certify", x, y, "--v", "nan", "nan", "inf"], "finite"),
        (["subject", record, y, "--baseline", "sampled", "--config", workspace / "nan.json"],
         "threshold"),
    ]
    for argv, message in cases:
        code, _, err = run(capsys, *argv, "--out", workspace)
        assert code == 2, argv
        assert message in err


def test_config_values_of_the_wrong_type_exit_2(workspace, capsys):
    cases = [
        ("reverse-map", {"tie_seed": "abc"}),
        ("certify", {"tie_seed": "7"}),  # checked here, never parsed as a flag string
        ("assess", {"threshold": "x"}),
        ("certify", {"v": 3}),
    ]
    for command, config in cases:
        (workspace / "typed.json").write_text(json.dumps(config))
        code, _, err = run(
            capsys, command, workspace / "original.csv", workspace / "masked.csv",
            "--config", workspace / "typed.json", "--out", workspace,
        )
        assert code == 2
        assert f"config key {next(iter(config))!r}" in err


def test_run_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tie_seed": 7, "out": "results", "v": [1.0, 2.0], "d": None}))
    args = build_parser(str(path)).parse_args(["subject", "record.csv", "y.csv"])
    assert args.tie_seed == 7
    assert args.out == "results"
    assert args.v == [1.0, 2.0]
    assert args.d is None
    assert args.threshold == 0.05  # a key the file leaves out keeps the flag default


def test_run_config_rejects_unknown_keys(workspace, capsys):
    # keys are option dests: a positional argument is not one
    cases = [('{"tie_sed": 7}', "tie_sed"), ('{"anonymized": "y.csv"}', "anonymized"),
             ("[1, 2]", "JSON object")]
    for text, message in cases:
        (workspace / "config.json").write_text(text)
        code, _, err = run(
            capsys, "certify", workspace / "original.csv", workspace / "masked.csv",
            "--config", workspace / "config.json", "--out", workspace,
        )
        assert code == 2
        assert message in err


def test_config_sets_the_subject_baseline_and_the_link_truth(workspace, capsys):
    probe = fixtures.SYNTHETIC_PROBE["record"]
    (workspace / "probe.csv").write_text("a1,a2,a3\n" + ",".join(repr(v) for v in probe) + "\n")
    (workspace / "baseline.json").write_text(json.dumps({"baseline": "exhaustive"}))
    code, out, _ = run(
        capsys, "subject", workspace / "probe.csv", workspace / "permuted.csv",
        "--config", workspace / "baseline.json", "--out", workspace,
    )
    assert code == 0
    assert "plausib" in out
    assert read_report(workspace / "subject.json")["payload"]["safety"]["safe"] is True
    (workspace / "truth.json").write_text(json.dumps({"truth": "identity"}))
    code, _, _ = run(
        capsys, "link", workspace / "original.csv", workspace / "permuted.csv",
        "--config", workspace / "truth.json", "--out", workspace,
    )
    assert code == 0
    score = read_report(workspace / "linkage.json")["payload"]["score"]
    assert (score["correct"], score["multiple"], score["misidentified"]) == (6, 4, 10)


def test_io_errors_exit_3(workspace, capsys):
    code, _, err = run(
        capsys, "certify", workspace / "nowhere.csv", workspace / "masked.csv",
        "--out", workspace,
    )
    assert code == 3
    (workspace / "ragged.csv").write_text("a,b\n1,2\n3\n")
    code, _, err = run(
        capsys, "certify", workspace / "ragged.csv", workspace / "masked.csv",
        "--out", workspace,
    )
    assert code == 3
    (workspace / "text.csv").write_text("a\n1\npotato\n")
    code, _, err = run(
        capsys, "reverse-map", workspace / "text.csv", workspace / "text.csv",
        "--out", workspace,
    )
    assert code == 3


def test_csv_that_is_not_utf8_exits_3(workspace, capsys):
    path = workspace / "latin1.csv"
    path.write_bytes(b"a\n\xff1\n")
    code, out, err = run(capsys, "reverse-map", path, path, "--out", workspace)
    assert code == 3
    assert out == ""
    assert err == f"error: {path}: file is not UTF-8 (invalid start byte at byte 2)\n"


def test_shape_mismatch_exits_2(workspace, capsys):
    (workspace / "short.csv").write_text("a1,a2,a3\n1,2,3\n")
    code, _, err = run(
        capsys, "reverse-map", workspace / "original.csv", workspace / "short.csv",
        "--out", workspace,
    )
    assert code == 2


def test_demo_matches_bundled_references(tmp_path, capsys):
    code, out, _ = run(capsys, "demo", "--out", tmp_path)
    assert code == 0
    assert "demo ok" in out
    for name in (
        "original.csv",
        "masked.csv",
        "reverse_mapped.csv",
        "residual_noise.csv",
        "direct_noise.csv",
        "record_evidence.json",
        "certificate.json",
        "linkage.json",
        "distance_histogram.csv",
    ):
        assert (tmp_path / name).exists()


def test_demo_detects_a_corrupted_reference(tmp_path, capsys, monkeypatch):
    rows = [list(r) for r in fixtures.REVERSE_MAPPED]
    rows[0][0] += 0.05
    monkeypatch.setattr(
        fixtures, "REVERSE_MAPPED", tuple(tuple(r) for r in rows)
    )
    code, out, _ = run(capsys, "demo", "--out", tmp_path)
    assert code == 4
    assert "mismatch" in out
    assert "reverse_mapped" in out


def test_version_and_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "permpriv" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(["no-such-command"])
    assert exit_info.value.code == 2
