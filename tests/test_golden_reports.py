"""Golden report and table bytes: the CLI on the bundled running example.

Reports are read off the analysis dataclasses by `io_report.to_payload`, so
a renamed, reordered or dropped field changes a report's bytes.  Tables, the
histogram and the verdicts are written by `io_report.write_columns`, so a
change to its formatting, quoting or line ends changes a table's bytes.  Each
artifact's SHA-256 is pinned here; a report digest changes legitimately only
when a report gains or loses a field on purpose, or the package version
changes, and a table digest never does.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from helpers import random_tied_table
from permpriv import fixtures, io_report
from permpriv.cli import main
from permpriv.io_report import write_csv
from permpriv.table import MicrodataTable, Role

GOLDEN = {
    "certify/certificate.json": "717054b9bdb3f356ff79c3c4d7531f45c693c7a1700ae80e7c26fbdcc50f68b9",
    "certify/verdicts.csv": "b6d545b48c4bbe051a2167c10d6701bf4b3bc25c323383ee741423238994ccf7",
    "subject/subject.json": "5eb818e3856c8b8900b7cac28e6438ae6d4955888d32c271efae8037f57f5953",
    "link/linkage.json": "3dd3a612fae0154c232c466b4a055e380e6590a0741fa58a174cfd20f67d9b43",
    "link-truth/linkage.json": "b140217a270e7dc537a3d8ce32c472690bed4e9f8c5afc1b3ee5be8c52333233",
    "assess/assessment.json": "813271619523bb41958e7cbd0f0034dcb0810d473214cdc2593c4a1585df3ab0",
    "assess/distance_histogram.csv": "19ec092a45784e51359c16e3e0afe0dd08dbc94f429fb753007bcbce44925349",
    "demo/record_evidence.json": "f2fdc0c640ce4c481caceebc38870c3e334d62ac982b418a8ebe806ffc52adfd",
    "reverse-map/reverse_mapped.csv": "5cad47b01ea76a577c2dc09acebbb54d83203cde892ac56ec08772880cf6bb4c",
    "mask/masked.csv": "c35c8a06d16c67886b8361adba76fc04daaf8b17db640015438a0f538e992dc4",
    "synth/original.csv": "c3e062b50bf70db7fb116f41ff21721fb654cfd14c77e0fbebf65144c94f9f9b",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, original, masked, permuted):
    root = tmp_path_factory.mktemp("golden")
    write_csv(original, root / "original.csv")
    write_csv(masked, root / "masked.csv")
    write_csv(permuted, root / "permuted.csv")
    record = MicrodataTable([fixtures.RECORD3["record"]], original.attribute_names)
    write_csv(record, root / "record3.csv")
    runs = [
        ("certify", "original.csv", "masked.csv", "--d", "1", "--v", "0", "0", "0",
         "--disclosure", fixtures.DISCLOSURE),
        ("subject", "record3.csv", "masked.csv", "--d", "4", "--v", "24", "890", "20000",
         "--baseline", "exhaustive"),
        ("link", "original.csv", "permuted.csv"),
        ("link-truth", "original.csv", "permuted.csv", "--truth", "identity"),
        ("assess", "original.csv", "masked.csv"),
        ("reverse-map", "original.csv", "masked.csv"),
        ("mask", "original.csv"),
        ("synth",),
    ]
    for out, *argv in runs:
        command = "link" if out == "link-truth" else out
        files = [str(root / a) if a.endswith(".csv") else a for a in argv]
        assert main([command, *files, "--out", str(root / out)]) == 0, out
    assert main(["demo", "--out", str(root / "demo")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_the_recorded_digests(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


# certify --d 2 --v 1 1 1 on `synth --n 1000` masked with the CLI defaults.
# Its record distances reach 100, so the variance windows hold up to 201
# values: long enough for numpy's pairwise summation (blocks of 8 and 128)
# to shape the low bits that the running example's short windows never reach.
LONG_WINDOW_CERTIFICATE = "053c84a92a4282de77831c5d79c2c04085750863b5e640dd70614ca10bddff43"


def test_certificate_bytes_with_long_windows(tmp_path):
    assert main(["synth", "--n", "1000", "--out", str(tmp_path)]) == 0
    assert main(["mask", str(tmp_path / "original.csv"), "--out", str(tmp_path)]) == 0
    code = main(
        ["certify", str(tmp_path / "original.csv"), str(tmp_path / "masked.csv"),
         "--d", "2", "--v", "1", "1", "1", "--out", str(tmp_path / "certify")]
    )
    assert code == 4
    path = tmp_path / "certify" / "certificate.json"
    per_record = json.loads(path.read_text())["payload"]["per_record"]
    assert max(entry["result"]["distance"] for entry in per_record) >= 64
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LONG_WINDOW_CERTIFICATE


# synth --n 1000, masked and reverse-mapped with the CLI defaults: 3 000
# distinct values per table, written here in blocks of 100 rows.
LARGE_TABLES = {
    "original.csv": "fffeaf7d71e35400b90a5c2a8a5db6661e1a01937f746b3b3b961d24f02a66fc",
    "masked.csv": "4647718c8c523a3b3f4c95d00bce00d3904fa183b5f0f5c05b1159454f32b507",
    "reverse_mapped.csv": "3e234d10192081448098c83df5ee37bb64b6fe3b5f86e4fb16fbea92d72c1135",
}


def test_table_bytes_at_1000_records(tmp_path, monkeypatch):
    monkeypatch.setattr(io_report, "_WRITE_BLOCK_BYTES", 8 * 3 * 100)
    out = str(tmp_path)
    assert main(["synth", "--n", "1000", "--out", out]) == 0
    assert main(["mask", str(tmp_path / "original.csv"), "--out", out]) == 0
    assert main(
        ["reverse-map", str(tmp_path / "original.csv"), str(tmp_path / "masked.csv"), "--out", out]
    ) == 0
    for name, digest in LARGE_TABLES.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# A tie-heavy pair: 300 records, m = 4, every original cell one of three
# levels and every released cell that level moved by -1, 0 or +1.  Many
# records tie at their distance with several released records, so these
# reports pin multi-record match sets.  A command's printed summary, with
# the output directory spelled ROOT, is pinned where it reads the evidence:
# the failing records of certify's targets and link's multi-match and
# unmatched-target counts, with at most 10 record numbers listed.
TIED = {
    "certify/certificate.json": "79707a1aa7a44b508c4584157f4c615996da72f7eeb633ba8ecb907786f0cbd2",
    "certify-targets/certificate.json": "79707a1aa7a44b508c4584157f4c615996da72f7eeb633ba8ecb907786f0cbd2",
    "certify-targets/stdout.txt": "71d54d8be652ce7eed8ad3f68e6f47315b5841b23ec68d8bbb359ead7550e231",
    "link/linkage.json": "d0c141b6f2a6690fe4bac8dc0303150da4608cf386b3cddb26d0d4b0af01dbab",
    "link/stdout.txt": "b7a1725df3d4b8c8cd8fffad060812e96002143ec6997a4c55c7c71054da22bc",
    "subject/subject.json": "5129c6f17118cd625ae5538d7fc22141cc894eb330b4d5f70780f666e56a1899",
}
# a record whose match set in the release holds more than one record
TIED_SUBJECT = 4


@pytest.fixture(scope="module")
def tied_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("tied")
    rng = np.random.default_rng(5)
    x = random_tied_table(rng, 300, 4, levels=3)
    noise = rng.integers(-1, 2, size=x.values.shape)
    y = MicrodataTable(x.values + noise, x.attribute_names, role=Role.ANONYMIZED)
    write_csv(x, root / "original.csv")
    write_csv(y, root / "masked.csv")
    row = x.values[TIED_SUBJECT : TIED_SUBJECT + 1]
    write_csv(MicrodataTable(row, x.attribute_names), root / "record.csv")
    targets = ["--d", "20", "--v", "0.1", "0.1", "0.1", "0.1"]  # 11 records fail
    runs = [
        ("certify", ["certify", "original.csv", "masked.csv"], 0),
        ("certify-targets", ["certify", "original.csv", "masked.csv", *targets], 4),
        ("reverse-map", ["reverse-map", "original.csv", "masked.csv"], 0),
        ("link", ["link", "original.csv", "reverse-map/reverse_mapped.csv",
                  "--truth", "identity"], 0),
        ("subject", ["subject", "record.csv", "masked.csv", *targets,
                     "--baseline", "sampled", "--baseline-size", "500"], 0),
    ]
    for out, argv, code in runs:
        argv = [str(root / a) if a.endswith(".csv") else a for a in argv]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main([*argv, "--out", str(root / out)]) == code, out
        (root / out / "stdout.txt").write_text(printed.getvalue().replace(str(root), "ROOT"))
    return root


@pytest.mark.parametrize("name", sorted(TIED))
def test_tie_heavy_report_bytes_match_the_recorded_digests(tied_artifacts, name):
    digest = hashlib.sha256((tied_artifacts / name).read_bytes()).hexdigest()
    assert digest == TIED[name]


def test_tie_heavy_reports_hold_multi_record_match_sets(tied_artifacts):
    linkage = json.loads((tied_artifacts / "link/linkage.json").read_text())["payload"]
    sizes = [len(r["matched_indices"]) for r in linkage["per_record"]]
    assert sum(s > 1 for s in sizes) >= 20
    subject = json.loads((tied_artifacts / "subject/subject.json").read_text())["payload"]
    assert len(subject["evidence"]["matched_indices"]) > 1
