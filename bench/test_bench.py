"""Smoke test of the benchmark: every workload at tiny sizes, in seconds.

    python3 -m pytest -q bench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402


def tiny(w: run.Workload) -> run.Workload:
    """n <= 30, a 20-record ties table; a slice stays a slice."""
    n = 20 if w.ties else min(w.n, 30)
    k = n // 2 if w.protector_n < w.n else n
    return dataclasses.replace(w, n=n, protector_n=k, reps=run.repeat(), subjects=2)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [w["name"] for w in run.MANIFEST["workloads"]])
def test_every_metric_is_emitted(name, trace, tmp_path):
    report = run.measure(tiny(run.WORKLOADS[name]), seed=3, seconds=0.1, trace=trace, work=tmp_path)
    result = report["result"]
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert sorted(result["metrics"]) == sorted(run.PER_LAYER if trace else run.END_TO_END)
    if trace:
        assert report["meta"]["count_mismatches"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("git_sha", "src_lines", "python", "numpy", "scipy", "nproc", "seed"):
        assert key in report["meta"]
    assert "certify/certificate.json" in report["artifacts"]


def test_inputs_follow_the_seed(tmp_path):
    w = tiny(run.WORKLOADS["protector-3k"])
    digests = []
    for seed, d in ((5, "a"), (5, "b"), (6, "c")):
        run.Inputs(w, seed, tmp_path / d)
        digests.append((tmp_path / d / "release" / "masked.csv").read_bytes())
    assert digests[0] == digests[1] != digests[2]


@pytest.mark.parametrize("kind", ["certify", "certify_targets"])
def test_oracle_rejects_a_wrong_certificate(kind, tmp_path):
    w = tiny(run.WORKLOADS["protector-3k"])
    r = run.Run(w, 4, tmp_path)
    r.set_up(1)
    cmd = next(c for c in run.pass_plan(w, r.inputs, tmp_path, 0) if c.kind == kind)
    rc, _, output = run.invoke(cmd.argv)
    path = cmd.out / "certificate.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    entry = report["payload"]["per_record"][r.checker.sample[0]]["result"]
    entry["matched_indices"] = entry["matched_indices"][1:] or [w.n + 1 - entry["matched_indices"][0]]
    path.write_text(json.dumps(report), encoding="utf-8")
    assert any("matched set" in p for p in r.checker.check(cmd, rc, output))
