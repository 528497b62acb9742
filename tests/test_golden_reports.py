"""Golden report bytes: the CLI on the bundled running example.

Reports are read off the analysis dataclasses by `io_report.to_payload`, so
a renamed, reordered or dropped field changes a report's bytes.  Each
artifact's SHA-256 is pinned here; a digest changes legitimately only when a
report gains or loses a field on purpose, or the package version changes.
"""

import hashlib
import json

import pytest

from permpriv import fixtures
from permpriv.cli import main
from permpriv.io_report import write_csv
from permpriv.table import MicrodataTable

GOLDEN = {
    "certify/certificate.json": "717054b9bdb3f356ff79c3c4d7531f45c693c7a1700ae80e7c26fbdcc50f68b9",
    "subject/subject.json": "5eb818e3856c8b8900b7cac28e6438ae6d4955888d32c271efae8037f57f5953",
    "link/linkage.json": "3dd3a612fae0154c232c466b4a055e380e6590a0741fa58a174cfd20f67d9b43",
    "link-truth/linkage.json": "b140217a270e7dc537a3d8ce32c472690bed4e9f8c5afc1b3ee5be8c52333233",
    "assess/assessment.json": "813271619523bb41958e7cbd0f0034dcb0810d473214cdc2593c4a1585df3ab0",
    "assess/distance_histogram.csv": "19ec092a45784e51359c16e3e0afe0dd08dbc94f429fb753007bcbce44925349",
    "demo/record_evidence.json": "f2fdc0c640ce4c481caceebc38870c3e334d62ac982b418a8ebe806ffc52adfd",
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
    ]
    for out, *argv in runs:
        command = out.split("-")[0]
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
