"""Command-line interface: exit codes, artifacts, and config handling."""

import json
import warnings

import numpy as np
import pytest

from helpers import load_report, random_table, random_tied_table
from permpriv import fixtures
from permpriv.cli import build_parser, main
from permpriv.io_report import load_csv, write_csv
from permpriv.privacy import Release
from permpriv.reverse_map import reverse_map_table
from permpriv.table import MicrodataTable, Role


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
    report = load_report(workspace / "certificate.json")
    assert report["kind"] == "privacy_certificate"
    assert report["payload"]["dataset_distance"] == 1
    assert report["seeds"] == {"tie_seed": 101}
    assert not (workspace / "verdicts.csv").exists()  # written only under --d/--v


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


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def test_distance_targets_up_to_int64_max(workspace, capsys, original, masked):
    # a radius of 2**63 - 1 reaches the whole column on every attribute,
    # with no overflow, NaN or "Degrees of freedom" warning
    write_csv(
        original.__class__(original.values[2:3], original.attribute_names),
        workspace / "record3.csv",
    )
    whole = [row.var() for row in Release(masked).values_by_rank]
    top = str(2**63 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        subject = run(capsys, "subject", workspace / "record3.csv", workspace / "masked.csv",
                      "--d", top, "--out", workspace / "subject")
        certify = run(capsys, "certify", workspace / "original.csv", workspace / "masked.csv",
                      "--d", top, "--v", "0", "0", "0", "--out", workspace / "certify")
    # no record lies 2**63 - 1 ranks from its match, so both verdicts fail
    assert (subject[0], certify[0]) == (4, 4)
    payload = _strict_json(workspace / "subject" / "subject.json")["payload"]
    assert payload["verification"]["window_variances"] == whole
    certificate = _strict_json(workspace / "certify" / "certificate.json")["payload"]
    assert certificate["dataset_distance"] == 1


@pytest.mark.parametrize("d", [2**63, 2**64, 2**70])
@pytest.mark.parametrize("command", ["certify", "subject"])
def test_distance_targets_beyond_int64_exit_2_before_writing(
    workspace, capsys, original, command, d
):
    write_csv(
        original.__class__(original.values[2:3], original.attribute_names),
        workspace / "record3.csv",
    )
    first = "original.csv" if command == "certify" else "record3.csv"
    code, out, err = run(
        capsys, command, workspace / first, workspace / "masked.csv",
        "--d", str(d), "--out", workspace / "untouched",
    )
    assert code == 2
    assert out == ""
    assert f"d_target must be within int64, got {d}" in err
    assert "Traceback" not in err
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
    report = load_report(workspace / "subject.json")
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


@pytest.mark.parametrize("case", ["running example", "ties", "more than 10 failing"])
def test_subject_and_certify_agree_on_every_record(tmp_path, capsys, original, masked, case):
    # each subject's check of their own record and the protector's check of
    # the whole data set apply one rule to the same evidence
    if case == "ties":
        rng = np.random.default_rng(41)
        original = random_tied_table(rng, 10, 3, levels=3)
        masked = random_tied_table(rng, 10, 3, role=Role.ANONYMIZED, levels=3)
    write_csv(original, tmp_path / "original.csv")
    write_csv(masked, tmp_path / "masked.csv")
    release = Release(masked)
    evidence = release.search(original)
    # targets that some records meet, and that others miss on each clause
    d = 2
    percentile = 30 if case == "more than 10 failing" else 10
    v = np.percentile(release.window_variances(evidence.closest_ranks, d), percentile, axis=0)
    targets = ["--d", d, "--v", *map(repr, v.tolist())]
    passed, at_d = release.verdicts(evidence.closest_ranks, evidence.distances, d, v)
    failing = np.count_nonzero(~passed)
    assert 0 < np.count_nonzero(evidence.distances < d) < failing < original.n
    assert (failing > 10) == (case == "more than 10 failing")

    code, _, _ = run(capsys, "certify", tmp_path / "original.csv", tmp_path / "masked.csv",
                     *targets, "--out", tmp_path)
    assert code == 4
    rows = (tmp_path / "verdicts.csv").read_bytes().decode("utf-8").split("\r\n")
    assert rows[0] == "record,passed" and rows[-1] == ""
    cells = [row.split(",") for row in rows[1:-1]]
    assert [record for record, _ in cells] == [str(i) for i in range(1, original.n + 1)]
    verdicts = [{"1": True, "0": False}[cell] for _, cell in cells]
    assert verdicts == passed.tolist()
    for i in range(original.n):
        write_csv(MicrodataTable(original.values[i : i + 1], original.attribute_names),
                  tmp_path / "rec.csv")
        code, _, _ = run(capsys, "subject", tmp_path / "rec.csv", tmp_path / "masked.csv",
                         *targets, "--out", tmp_path / "subject")
        assert code == (0 if verdicts[i] else 4)
        verification = load_report(tmp_path / "subject" / "subject.json")["payload"]["verification"]
        assert verification["passed"] == verdicts[i]
        assert verification["window_variances"] == at_d[i].tolist()


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
    report = load_report(workspace / "subject.json")
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
    search = Release.search

    def counted(self, *args, **kwargs):
        calls.append(1)
        return search(self, *args, **kwargs)

    monkeypatch.setattr(Release, "search", counted)
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


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "original.csv", "masked.csv", "--tie-seed", "-1"),
        ("subject", "record3.csv", "masked.csv", "--baseline", "sampled", "--baseline-seed", "-1"),
        ("mask", "original.csv", "--sigmas", "5", "25", "100", "--mask-seed", "-1"),
        ("synth", "--synth-seed", "-1"),
    ],
    ids=["certify", "subject", "mask", "synth"],
)
def test_negative_seeds_exit_2(workspace, capsys, original, argv):
    write_csv(
        original.__class__(original.values[2:3], original.attribute_names),
        workspace / "record3.csv",
    )
    argv = [workspace / a if a.endswith(".csv") else a for a in argv]
    code, out, err = run(capsys, *argv, "--out", workspace / "untouched")
    assert code == 2
    assert out == ""
    assert "must be a non-negative integer" in err
    assert "Traceback" not in err
    assert not (workspace / "untouched").exists()


def test_synth_refuses_a_name_that_is_not_utf8_before_writing(workspace, capsys):
    # `--names $'a\xff' b c`: Python decodes the byte 0xff as a lone surrogate
    code, out, err = run(
        capsys, "synth", "--n", "5", "--names", "a\udcff", "b", "c", "--out", workspace / "d"
    )
    assert code == 2
    assert out == ""
    assert "not UTF-8 text" in err
    assert "Traceback" not in err
    assert not (workspace / "d").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("assess", "original.csv", "masked.csv", "--baseline-mode", "sampled"),
        ("subject", "record3.csv", "masked.csv", "--baseline", "sampled"),
    ],
    ids=["assess", "subject"],
)
def test_a_baseline_beyond_memory_exits_2(workspace, capsys, original, argv):
    # numpy refuses the 8 PB draw at malloc, before it touches a page
    write_csv(
        original.__class__(original.values[2:3], original.attribute_names),
        workspace / "record3.csv",
    )
    argv = [workspace / a if a.endswith(".csv") else a for a in argv]
    code, out, err = run(
        capsys, *argv, "--baseline-size", 10**15, "--out", workspace / "untouched"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: Unable to allocate")
    assert err.count("\n") == 1
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
    unmatched = fixtures.LINKAGE_UNMATCHED  # 10 or fewer: each one is listed
    assert f"; {len(unmatched)} unmatched targets ({', '.join(map(str, unmatched))});" in out
    report = load_report(workspace / "linkage.json")
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
    assert load_report(workspace / "linkage.json")["payload"]["score"]["correct"] == 6


def test_link_without_truth_skips_scoring(workspace, capsys):
    code, _, _ = run(
        capsys, "link", workspace / "original.csv", workspace / "permuted.csv",
        "--out", workspace,
    )
    assert code == 0
    assert "score" not in load_report(workspace / "linkage.json")["payload"]


def test_link_summary_lists_at_most_10_unmatched_targets(tmp_path, capsys):
    # shuffling each column on its own leaves about a third of the permuted
    # records in no match set
    rng = np.random.default_rng(5)
    original = random_table(rng, 600, 2)
    shuffled = np.column_stack([rng.permutation(c) for c in original.values.T])
    write_csv(original, tmp_path / "original.csv")
    write_csv(MicrodataTable(shuffled, original.attribute_names), tmp_path / "permuted.csv")
    code, out, _ = run(
        capsys, "link", tmp_path / "original.csv", tmp_path / "permuted.csv",
        "--out", tmp_path,
    )
    assert code == 0
    unmatched = load_report(tmp_path / "linkage.json")["payload"]["unmatched_targets"]
    assert len(unmatched) > 100
    summary = out.splitlines()[0]
    shown = ", ".join(map(str, unmatched[:10]))
    assert summary.endswith(
        f"; {len(unmatched)} unmatched targets ({shown} and {len(unmatched) - 10} more)"
    )
    assert len(summary) < 160


def test_link_rejects_bad_truth(workspace, capsys):
    (workspace / "truth.txt").write_text("1\n1\n")
    code, _, err = run(
        capsys, "link", workspace / "original.csv", workspace / "permuted.csv",
        "--truth", workspace / "truth.txt", "--out", workspace,
    )
    assert code == 2


@pytest.mark.parametrize("via", ["flag", "config"])
def test_a_truth_file_that_is_not_utf8_exits_3(workspace, capsys, via):
    truth = workspace / "truth.txt"
    truth.write_bytes(b"\xff\xfe")
    (workspace / "truth.json").write_text(json.dumps({"truth": str(truth)}))
    source = ["--truth", truth] if via == "flag" else ["--config", workspace / "truth.json"]
    code, out, err = run(
        capsys, "link", workspace / "original.csv", workspace / "permuted.csv", *source,
        "--out", workspace / "untouched",
    )
    assert code == 3
    assert out == ""
    assert err == f"error: {truth}: file is not UTF-8 (invalid start byte at byte 0)\n"
    assert not (workspace / "untouched").exists()


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
    report = load_report(workspace / "assessment.json")
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
    report = load_report(workspace / "assessment.json")
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
    report = load_report(workspace / "certificate.json")
    assert report["seeds"] == {"tie_seed": None}
    assert report["payload"]["tie_seed"] is None
    code, _, _ = run(
        capsys, "link", workspace / "original.csv", workspace / "permuted.csv",
        "--withhold-seeds", "--tie-seed", "9", "--out", workspace,
    )
    assert code == 0
    report = load_report(workspace / "linkage.json")
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
        assert load_report(workspace / "certificate.json")["seeds"] == {"tie_seed": seed}


def test_a_config_run_leaves_the_next_run_at_the_flag_defaults(workspace, capsys):
    # the config-free parser is built once per process, and a config never reaches it
    config = {"synth_n": 5, "means": [1.0, 2.0], "stds": [1.0, 1.0], "synth_seed": 3}
    (workspace / "synth.json").write_text(json.dumps(config))
    for name, extra in [("a", []), ("b", ["--config", workspace / "synth.json"]), ("c", [])]:
        code, _, _ = run(capsys, "synth", "--out", workspace / name, *extra)
        assert code == 0
    assert load_csv(workspace / "b" / "original.csv").values.shape == (5, 2)
    assert load_csv(workspace / "c" / "original.csv").values.shape == (20, 3)
    assert (workspace / "c" / "original.csv").read_bytes() == (
        workspace / "a" / "original.csv"
    ).read_bytes()
    # list defaults are tuples, so no run can change them for the next
    synth = build_parser().parse_args(["synth"])
    assert isinstance(synth.means, tuple) and isinstance(synth.stds, tuple)
    assert isinstance(build_parser().parse_args(["mask", "x.csv"]).sigmas, tuple)


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
    assert load_report(workspace / "certificate.json")["seeds"] == {"tie_seed": None}


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
    assert load_report(workspace / "subject.json")["payload"]["safety"]["safe"] is True
    (workspace / "truth.json").write_text(json.dumps({"truth": "identity"}))
    code, _, _ = run(
        capsys, "link", workspace / "original.csv", workspace / "permuted.csv",
        "--config", workspace / "truth.json", "--out", workspace,
    )
    assert code == 0
    score = load_report(workspace / "linkage.json")["payload"]["score"]
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


@pytest.mark.parametrize("cell", ['"' + "1" * 200_000 + '"', "0." + "0" * 200_000 + "1"])
def test_cells_over_the_field_limit_exit_3(workspace, capsys, cell):
    # quoted, the row parser's csv module refuses the cell; unquoted, numpy's
    # reader would take it, and is not asked to, so both forms fail alike
    path = workspace / "long.csv"
    path.write_text(f"a\n{cell}\n")
    code, out, err = run(capsys, "reverse-map", path, path, "--out", workspace)
    assert code == 3
    assert out == ""
    assert err == f"error: {path}: row 1: field larger than field limit (131072)\n"


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
