"""permpriv benchmark: seeded workloads run through the CLI, end to end and per layer.

    python3 bench/run.py --workload protector-3k --seed 1 --seconds 30 --trace 0

The workloads, metrics, units and bounds are those of BENCHMARK.json at the
repository root.  One process runs one workload.  Set-up generates the inputs
from --seed, writes them as CSV, runs the `demo` gate and warms every command
up on a tiny table; it runs SETUP_REPS times and `setup_s` is the median
set-up.  A check pass then runs each kind of command once at full size.
Then one client drives `permpriv.cli.main` in-process in a closed loop (the
next command starts when the previous one returns) for --seconds, with stdout
captured.  Every command's artifacts are checked: the first time against a
brute-force oracle (bench/oracle.py), afterwards by SHA-256 against that
checked copy.  --trace 0 reports the end-to-end metrics; --trace 1 runs each
command of one pass untraced and traced and reports per-layer spans
(bench/spans.py).  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = MANIFEST["run_seconds"]
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
SETUP_REPS = 5
KERNELS_PER_SETUP = 5  # host-speed kernels timed before each set-up
SUBJECT_POOL = 64  # distinct subject records per run; subjects cycle through them
SPOT_CHECKS = 8  # records per report recomputed by the oracle
# Generator parameters: the CLI's synth/mask defaults, plus a fourth attribute.
MEANS = (100.0, 1000.0, 5000.0, 20000.0)
STDS = (10.0, 50.0, 200.0, 800.0)
SIGMAS = (5.0, 25.0, 100.0, 400.0)
TIE_GRID = 5.0  # the tie-heavy release is rounded to multiples of this
# Typical medians of the host-speed kernels on the host the bounds were set on
# (2 vCPUs, Python 3.11.7, numpy 2.4.6), where "mixed" ranged from 6.5 to 11.5
# ms.  They only scale timings back to that host's typical speed.
KERNEL_REF_S = {"mixed": 0.0105, "block": 0.027}
# Traced, assess is at least 97% memory-bound batch distances on every
# workload, which the mixed kernel tracks badly; the block kernel does that
# work.  Every other timing is scaled by the mixed kernel.
KERNEL_OF = {"assess": "block"}
CERTIFY_D = 1  # distance target of `certify --d/--v`
TARGET_V = 1.0  # every variance target of `certify` and `subject`


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # release rows: reverse-map and subjects run on these
    m: int
    ties: bool  # integer original, release rounded to TIE_GRID
    protector_n: int  # leading rows that certify, link and assess run on
    assess_mode: str
    reps: dict[str, int]  # runs of each protector command per pass
    subjects: int  # subject commands per pass
    subject_d: int
    subject_baseline: str | None


PROTECTOR_KINDS = ("reverse_map", "certify", "certify_targets", "link", "assess")


def repeat(**counts: int) -> dict[str, int]:
    return {kind: counts.get(kind, 1) for kind in PROTECTOR_KINDS}


# The reason for each workload is its `why` in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("protector-3k", 3000, 3, False, 3000, "sampled", repeat(reverse_map=5), 10, 1, None),
        Workload(
            "subject-small-exhaustive", 40, 3, False, 40, "exhaustive",
            repeat(reverse_map=6, certify=6, certify_targets=6, link=6, assess=3), 20, 1, "exhaustive",
        ),
        Workload(
            "release-ties-100k", 100_000, 4, True, 500, "sampled",
            repeat(certify=2, certify_targets=2, link=2, assess=2), 4, 2, None,
        ),
    )
}
KIND_METRIC = {
    "reverse_map": "reverse_map_s",
    "certify": "certify_s",
    "certify_targets": "certify_targets_s",
    "link": "link_s",
    "assess": "assess_s",
    "subject": "subject_p50_ms",
}
ARTIFACTS = {
    "reverse_map": ("reverse_mapped.csv",),
    "certify": ("certificate.json",),
    "certify_targets": ("certificate.json",),
    "link": ("linkage.json",),
    "assess": ("assessment.json", "distance_histogram.csv"),
    "subject": ("subject.json",),
}


class SetupError(Exception):
    """Set-up could not produce valid inputs, or the demo gate failed."""


@dataclass
class Command:
    kind: str
    key: str  # artifacts with equal keys must be byte-identical
    argv: list[str]
    out: Path
    record: int | None = None  # 0-based subject record


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def invoke(argv: list[str]) -> tuple[int | None, float, str]:
    """Run one CLI command in-process; returns (exit code or None, seconds, output)."""
    from permpriv import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark must survive and count a crashing command
        rc = None
        out.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, out.getvalue()


class Inputs:
    """Seeded tables for one workload, written as CSV under `work`."""

    def __init__(self, w: Workload, seed: int, work: Path):
        import numpy as np
        from permpriv import io_report, masking
        from permpriv.table import MicrodataTable, Role

        synth_seed, mask_seed, pick_seed = np.random.SeedSequence(seed).generate_state(3)
        x = masking.synth_original(
            masking.SynthSpec(n=w.n, means=MEANS[: w.m], stds=STDS[: w.m], seed=int(synth_seed))
        )
        if w.ties:
            x = MicrodataTable(np.round(x.values), x.attribute_names)
        y = masking.gaussian_mask(x, masking.NoiseSpec(sigmas=SIGMAS[: w.m], seed=int(mask_seed)))
        if w.ties:
            y = MicrodataTable(
                np.round(y.values / TIE_GRID) * TIE_GRID, x.attribute_names, role=Role.ANONYMIZED
            )
        self.x, self.y = x.values, y.values
        self.release = work / "release"
        self.protector = work / "protector" if w.protector_n < w.n else self.release
        for d in {self.release, self.protector}:
            d.mkdir(parents=True, exist_ok=True)
        io_report.write_csv(x, self.release / "original.csv")
        io_report.write_csv(y, self.release / "masked.csv")
        if self.protector != self.release:
            k = w.protector_n
            io_report.write_csv(MicrodataTable(x.values[:k], x.attribute_names), self.protector / "original.csv")
            io_report.write_csv(
                MicrodataTable(y.values[:k], x.attribute_names, role=Role.ANONYMIZED),
                self.protector / "masked.csv",
            )
        rng = np.random.default_rng(int(pick_seed))
        self.subjects = [int(i) for i in rng.choice(w.n, size=min(SUBJECT_POOL, w.n), replace=False)]
        (work / "subjects").mkdir(exist_ok=True)
        for i in self.subjects:
            io_report.write_csv(
                MicrodataTable(x.values[i : i + 1], x.attribute_names), work / "subjects" / f"r{i + 1}.csv"
            )


def _protector_argv(kind: str, w: Workload, pdir: Path, rdir: Path) -> list[str]:
    if kind == "reverse_map":
        return ["reverse-map", str(rdir / "original.csv"), str(rdir / "masked.csv")]
    if kind == "certify":
        return ["certify", str(pdir / "original.csv"), str(pdir / "masked.csv")]
    if kind == "certify_targets":
        return ["certify", str(pdir / "original.csv"), str(pdir / "masked.csv"),
                "--d", str(CERTIFY_D), "--v", *[str(TARGET_V)] * w.m]
    if kind == "link":
        return ["link", str(pdir / "original.csv"), str(pdir / "reverse_mapped.csv"),
                "--truth", "identity"]
    return ["assess", str(pdir / "original.csv"), str(pdir / "masked.csv"),
            "--baseline-mode", w.assess_mode]


def _subject_argv(w: Workload, record_csv: Path, release: Path) -> list[str]:
    argv = ["subject", str(record_csv), str(release / "masked.csv"),
            "--d", str(w.subject_d), "--v", *[str(TARGET_V)] * w.m]
    return argv + (["--baseline", w.subject_baseline] if w.subject_baseline else [])


def warm_up(w: Workload, work: Path) -> None:
    """Run every command once on a 12-row table, so first-call costs stay out of timings."""
    import numpy as np
    from permpriv import io_report
    from permpriv.table import MicrodataTable, Role

    rng = np.random.default_rng(0)
    d = work / "warm"
    d.mkdir(exist_ok=True)
    names = tuple(f"a{j + 1}" for j in range(w.m))
    x = rng.normal(100.0, 10.0, size=(12, w.m))
    io_report.write_csv(MicrodataTable(x, names), d / "original.csv")
    io_report.write_csv(MicrodataTable(x + rng.normal(0.0, 5.0, x.shape), names, role=Role.ANONYMIZED),
                        d / "masked.csv")
    io_report.write_csv(MicrodataTable(x[:1], names), d / "record.csv")
    for kind in PROTECTOR_KINDS:
        argv = _protector_argv(kind, w, d, d)
        if kind == "assess":
            argv = argv[:-1] + ["exhaustive"]
        rc, _, out = invoke(argv + ["--out", str(d)])
        if rc not in (0, 4):
            raise SetupError(f"warm-up {kind} exited {rc}: {out.strip()[-300:]}")
    rc, _, out = invoke(_subject_argv(w, d / "record.csv", d) + ["--out", str(d)])
    if rc not in (0, 4):
        raise SetupError(f"warm-up subject exited {rc}: {out.strip()[-300:]}")


def setup(w: Workload, seed: int, work: Path) -> Inputs:
    inputs = Inputs(w, seed, work)
    p = inputs.protector
    rc, _, out = invoke(["reverse-map", str(p / "original.csv"), str(p / "masked.csv"), "--out", str(p)])
    if rc != 0:
        raise SetupError(f"reverse-map of the protector tables exited {rc}: {out.strip()[-300:]}")
    rc, _, out = invoke(["demo", "--out", str(work / "demo")])
    if rc != 0:
        raise SetupError(f"permpriv demo exited {rc}:\n{out.strip()[-2000:]}")
    warm_up(w, work)
    return inputs


def pass_plan(w: Workload, inputs: Inputs, work: Path, index: int) -> list[Command]:
    """Commands of one closed-loop pass, each kind's runs spread evenly over the pass.

    Spreading them lets every metric sample the whole pass rather than one
    stretch of it; protector commands keep their order, so certify precedes
    certify --d/--v.
    """
    slots = []
    for ki, kind in enumerate(PROTECTOR_KINDS):
        out = work / "out" / kind
        argv = _protector_argv(kind, w, inputs.protector, inputs.release) + ["--out", str(out)]
        r = w.reps[kind]
        offset = (ki + 0.5) / len(PROTECTOR_KINDS)
        slots += [((i + offset) / r, Command(kind, kind, argv, out)) for i in range(r)]
    pool = inputs.subjects
    for k in range(w.subjects):
        i = pool[(index * w.subjects + k) % len(pool)]
        out = work / "out" / "subject"
        argv = _subject_argv(w, work / "subjects" / f"r{i + 1}.csv", inputs.release) + ["--out", str(out)]
        slots.append(((k + 0.5) / w.subjects, Command("subject", f"subject/r{i + 1}", argv, out, i)))
    return [cmd for _, cmd in sorted(slots, key=lambda slot: slot[0])]


class Checker:
    """Oracle checks of each command's artifacts and exit code.

    The first command of each key is recomputed by the oracle; every later one
    must reproduce its exit code and artifact bytes exactly.
    """

    def __init__(self, w: Workload, inputs: Inputs, seed: int):
        import numpy as np

        import oracle

        self.np, self.oracle, self.w = np, oracle, w
        k = w.protector_n
        self.x, self.y = inputs.x, inputs.y
        self.xp, self.yp = inputs.x[:k], inputs.y[:k]
        rng = np.random.default_rng([seed, 7])
        self.sample = sorted(int(i) for i in rng.choice(k, size=min(SPOT_CHECKS, k), replace=False))
        self.seen: dict[str, tuple[int, dict, list[str]]] = {}
        self._cache: dict = {}

    def _cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def rel_y(self):
        return self._cached("y", lambda: self.oracle.Release(self.y))

    def rel_yp(self):
        if self.w.protector_n == self.w.n:
            return self.rel_y()
        return self._cached("yp", lambda: self.oracle.Release(self.yp))

    def rel_zp(self):
        return self._cached("zp", lambda: self.oracle.Release(self.oracle.reverse_map(self.xp, self.yp)))

    def check(self, cmd: Command, rc: int | None, output: str) -> list[str]:
        if rc is None:
            return [f"{cmd.kind} raised:\n{output.strip()[-2000:]}"]
        try:
            digests = {name: _sha(cmd.out / name) for name in ARTIFACTS[cmd.kind]}
        except OSError as exc:
            return [f"{cmd.kind} exited {rc} without its artifacts: {exc}; {output.strip()[-300:]}"]
        if cmd.key in self.seen:
            first_rc, first_digests, problems = self.seen[cmd.key]
            if (first_rc, first_digests) != (rc, digests):
                return [f"{cmd.key}: exit code or artifacts differ from the first, checked run"]
            return problems  # a repeat of a wrong output is wrong again
        problems = getattr(self, "_" + cmd.kind)(cmd, rc, output)
        self.seen[cmd.key] = (rc, digests, problems)
        return problems

    def _reverse_map(self, cmd, rc, output):
        if rc != 0:
            return [f"reverse-map exited {rc}"]
        z = self.oracle.read_csv(cmd.out / "reverse_mapped.csv")
        if not self.np.array_equal(z, self.oracle.reverse_map(self.x, self.y)):
            return ["reverse_mapped.csv differs from the oracle's reverse map"]
        return []

    def _certify(self, cmd, rc, output):
        if rc != 0:
            return [f"certify exited {rc}"]
        return self._certificate(cmd.out / "certificate.json")

    def _certificate(self, path: Path) -> list[str]:
        p = self.oracle.read_payload(path)
        per, rel = p["per_record"], self.rel_yp()
        if len(per) != len(self.xp):
            return [f"certificate has {len(per)} records, expected {len(self.xp)}"]
        problems = []
        d_all = p["dataset_distance"]
        if d_all != min(e["result"]["distance"] for e in per):
            problems.append("dataset distance is not the minimum record distance")
        for j, v in enumerate(p["dataset_variances"]):
            if v != min(e["variances_at_dataset_distance"][j] for e in per):
                problems.append(f"dataset variance {j} is not the minimum over records")
        for i in self.sample:
            ev, label = per[i]["result"], f"certificate record {i + 1}"
            if ev["record_index"] != i + 1:
                problems.append(f"{label}: record_index {ev['record_index']}")
            problems += self.oracle.check_evidence(rel, self.xp[i], ev, label)
            c = ev["closest_ranks"]
            problems += self.oracle.check_variances(rel, c, d_all, per[i]["variances_at_dataset_distance"], label)
            problems += self.oracle.check_variances(rel, c, ev["distance"], per[i]["variances_at_record_distance"], label)
        return problems

    def _certify_targets(self, cmd, rc, output):
        if rc not in (0, 4):
            return [f"certify --d/--v exited {rc}"]
        problems = self._certificate(cmd.out / "certificate.json")
        plain = self.seen.get("certify")
        if plain is not None and plain[1]["certificate.json"] != _sha(cmd.out / "certificate.json"):
            problems.append("certify --d/--v wrote a different certificate than certify")
        rel, v = self.rel_yp(), [TARGET_V] * self.w.m
        failing = [i for i in self.sample if not self.oracle.verdict(rel, self.xp[i], CERTIFY_D, v)]
        listed = re.search(r"NOT met: records ([\d, ]+)", output)
        if rc == 0 and failing:
            problems.append(f"targets reported met, but records {[i + 1 for i in failing]} fail")
        if rc == 4:
            if listed is None:
                problems.append("certify exited 4 without naming failing records")
            else:
                for r in (int(t) for t in listed.group(1).split(",") if t.strip()):
                    if self.oracle.verdict(rel, self.xp[r - 1], CERTIFY_D, v):
                        problems.append(f"record {r} reported failing, but meets the targets")
        return problems

    def _link(self, cmd, rc, output):
        if rc != 0:
            return [f"link exited {rc}"]
        p = self.oracle.read_payload(cmd.out / "linkage.json")
        per, rel, n = p["per_record"], self.rel_zp(), len(self.xp)
        if len(per) != n:
            return [f"linkage has {len(per)} records, expected {n}"]
        problems = []
        for i in self.sample:
            problems += self.oracle.check_evidence(rel, self.xp[i], per[i], f"linkage record {i + 1}")
        hits = Counter(t for r in per for t in r["matched_indices"])
        if p["unmatched_targets"] != [t for t in range(1, n + 1) if t not in hits]:
            problems.append("unmatched targets disagree with the match sets")
        if p["multiply_matched_targets"] != sorted(t for t, c in hits.items() if c > 1):
            problems.append("multiply matched targets disagree with the match sets")
        classes = [
            "multiple" if len(r["matched_indices"]) > 1
            else "correct" if r["matched_indices"][0] == i + 1 else "misidentified"
            for i, r in enumerate(per)
        ]
        score = p["score"]
        if score["classes"] != classes or any(score[c] != classes.count(c) for c in set(classes)):
            problems.append("linkage score disagrees with the match sets")
        return problems

    def _assess(self, cmd, rc, output):
        o, np = self.oracle, self.np
        if rc not in (0, 4):
            return [f"assess exited {rc}"]
        p = o.read_payload(cmd.out / "assessment.json")
        rel = self.rel_zp()
        dists = rel.distances(self.xp)
        make = o.exhaustive_baseline if self.w.assess_mode == "exhaustive" else o.sampled_baseline
        base = o.frequencies(rel.distances(make(self.xp)))
        orig = o.frequencies(dists)
        problems = []
        if p["original"]["frequencies"] != orig:
            problems.append("original distance distribution differs from the oracle")
        if p["baseline"]["frequencies"] != base:
            problems.append("baseline distance distribution differs from the oracle")
        median = float(np.median(dists))
        plaus = o.cumulative(base, median)
        if p["median_distance"] != median or not o._close(p["plausibility_at_median"], plaus):
            problems.append("median distance or its plausibility differs from the oracle")
        support = sorted({int(d) for d in orig} | {int(d) for d in base})
        a = np.array([orig.get(str(d), 0.0) for d in support])
        b = np.array([base.get(str(d), 0.0) for d in support])
        tv = 0.5 * float(np.abs(a - b).sum())
        if not o._close(p["divergence"]["total_variation"], tv):
            problems.append("total variation differs from the oracle")
        withstands = plaus >= o.THRESHOLD
        if p["withstands"] != withstands or rc != (0 if withstands else 4):
            problems.append(f"verdict withstands={p['withstands']} exit {rc} disagree with the oracle")
        return problems

    def _subject(self, cmd, rc, output):
        o = self.oracle
        if rc not in (0, 4):
            return [f"subject exited {rc}"]
        p = o.read_payload(cmd.out / "subject.json")
        rel, x, label = self.rel_y(), self.x[cmd.record], f"subject r{cmd.record + 1}"
        ev = p["evidence"]
        problems = o.check_evidence(rel, x, ev, label)
        problems += o.check_variances(rel, ev["closest_ranks"], ev["distance"], p["variances_at_distance"], label)
        d_t, v_t = self.w.subject_d, [TARGET_V] * self.w.m
        ver = p["verification"]
        passed = o.verdict(rel, x, d_t, v_t)
        if ver["passed"] != passed:
            problems.append(f"{label}: verification passed={ver['passed']}, oracle {passed}")
        problems += o.check_variances(rel, ev["closest_ranks"], d_t, ver["window_variances"], label)
        safe = True
        if self.w.subject_baseline:
            base = self._cached(
                "subject_baseline",
                lambda: o.frequencies(rel.distances(o.exhaustive_baseline(self.y))),
            )
            s = p["safety"]
            plaus = o.cumulative(base, ev["distance"])
            safe = plaus >= o.THRESHOLD
            if s["distance"] != ev["distance"] or not o._close(s["plausibility"], plaus) or s["safe"] != safe:
                problems.append(f"{label}: safety {s} disagrees with oracle plausibility {plaus}")
        if rc != (0 if passed and safe else 4):
            problems.append(f"{label}: exit {rc} disagrees with the verdicts")
        return problems


def expected_calls(cmd: Command, w: Workload) -> dict[str, int]:
    """Calls each traced function makes for one command at this commit's call graph."""
    m, b = w.m, 1 if w.subject_baseline else 0
    calls = {
        "reverse_map": {"io_report.load_csv": 2, "reverse_map.table": 1, "table.compute_ranks": m,
                        "io_report.write_csv": 1, "table.rank_profile": 0},
        "certify": {"io_report.load_csv": 2, "privacy.certify_dataset": 1, "table.rank_profile": 1,
                    "privacy.verify_record": 0, "io_report.write_report": 1},
        "certify_targets": {"io_report.load_csv": 2, "privacy.certify_dataset": 1,
                            "table.rank_profile": 2, "privacy.verify_record": w.protector_n,
                            "io_report.write_report": 1},
        "link": {"io_report.load_csv": 2, "linkage.link_records": 1, "linkage.score_linkage": 1,
                 "table.rank_profile": 1, "io_report.write_report": 1},
        "assess": {"io_report.load_csv": 2, "baseline.assess_tables": 1, "reverse_map.table": 1,
                   "table.rank_profile": 1, "baseline.generate_baseline": 1,
                   "baseline.distance_distribution": 2, "privacy.batch_distances": 3,
                   "io_report.write_report": 1},
        "subject": {"io_report.load_csv": 2, "table.rank_profile": 1 + b,
                    "privacy.permutation_distance": 1 + b, "privacy.window_variance": m,
                    "privacy.verify_record": 1, "baseline.subject_safety_check": b,
                    "baseline.generate_baseline": b, "privacy.batch_distances": b,
                    "io_report.write_report": 1},
    }[cmd.kind]
    return {"cli": 1, **calls}


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def metadata(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "n": w.n, "m": w.m, "protector_n": w.protector_n,
        "git_sha": _git_sha(), "src_lines": src_lines,
        "python": sys.version.split()[0], "numpy": _version("numpy"), "scipy": _version("scipy"),
        "nproc": _nproc(),
    }


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


class Kernel:
    """Fixed work timed to track host speed; a change to permpriv cannot move it.

    "mixed" (~10 ms) is a small min-max rank scan in numpy, CSV float parsing
    and JSON encoding; "block" (~25 ms) is a memory-bound min-max scan of 128
    x 3000 ranks.  The mixed kernel runs KERNELS_PER_SETUP times before each
    set-up and before every timed command but assess, which the block kernel
    precedes; each runs on a collected heap.  Set-up times are scaled by
    KERNEL_REF_S / (the median kernel timed before the set-ups), assess
    timings by KERNEL_REF_S / (the median block kernel), and every other
    command's timings by KERNEL_REF_S / (the median mixed kernel over all
    runs): on a shared host the speed of everything in a run drifts, by up to
    1.8x between runs minutes apart, and the scaling takes most of that out.
    Scaling each kind by the kernels timed right before its own runs did
    worse for the kinds that run only four times in a run, whose median of
    four kernels is itself noisy.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.ranks = rng.permutation(3000).reshape(1000, 3)
        self.centers = rng.integers(0, 3000, size=(48, 3))
        self.block_ranks = rng.permutation(9000).reshape(3000, 3)
        self.block_centers = rng.integers(0, 3000, size=(128, 3))
        self.text = "\n".join(
            ",".join(repr(float(v)) for v in row) for row in rng.normal(100.0, 10.0, (1500, 3))
        )
        self.records = [{"index": i, "values": [float(i), 2.5], "tag": "x" * 5} for i in range(300)]
        self.samples: dict[str, list[float]] = defaultdict(list)

    def __call__(self, work: str, label: str) -> None:
        """Time the `work` kernel and file the time under `label`."""
        t0 = time.perf_counter()
        if work == "block":
            abs(self.block_ranks[None, :, :] - self.block_centers[:, None, :]).max(axis=2).min(axis=1)
        else:
            abs(self.ranks[None, :, :] - self.centers[:, None, :]).max(axis=2).min(axis=1)
            [[float(c) for c in row] for row in csv.reader(io.StringIO(self.text))]
            json.dumps(self.records)
        self.samples[label].append(time.perf_counter() - t0)


class Run:
    """One workload in one process: set-up, closed-loop commands, checks."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.kernel = Kernel()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def set_up(self, reps: int) -> list[float]:
        times = []
        for _ in range(reps):
            gc.collect()
            for _ in range(KERNELS_PER_SETUP):
                self.kernel("mixed", "setup")
            t0 = time.perf_counter()
            self.inputs = setup(self.w, self.seed, self.work)
            times.append(time.perf_counter() - t0)
        self.checker = Checker(self.w, self.inputs, self.seed)
        return times

    def execute(self, cmd: Command) -> float:
        for name in ARTIFACTS[cmd.kind]:  # so a command that writes nothing cannot pass
            (cmd.out / name).unlink(missing_ok=True)
        # Every command and the kernel before it start from a collected heap,
        # so neither pays for garbage the previous command left.
        gc.collect()
        work = KERNEL_OF.get(cmd.kind, "mixed")
        self.kernel(work, work)
        rc, elapsed, output = invoke(cmd.argv)
        self.attempted += 1
        self.samples[cmd.kind].append(elapsed)
        problems = self.checker.check(cmd, rc, output)
        if problems:
            self.failed += 1
            self.problems += problems
        return elapsed

    def check_pass(self) -> float:
        """Run each kind of command once at full size, before the closed loop.

        The oracle checks every first run, slowest at full size, here, where
        they do not shorten the loop.  These runs are samples too: the first
        full-size run of a command pays one-time costs (assess ~15% slower),
        which the median over the run's samples (four or more for every kind
        in a 30 s run) absorbs.
        """
        t0 = time.perf_counter()
        first: dict[str, Command] = {}
        for cmd in pass_plan(self.w, self.inputs, self.work, 0):
            first.setdefault(cmd.kind, cmd)
        for cmd in first.values():  # in plan order, so certify is checked before certify --d/--v
            self.execute(cmd)
        return time.perf_counter() - t0

    def loop(self, seconds: float) -> int:
        """Closed loop until `seconds` pass; the first pass always completes."""
        deadline = time.perf_counter() + seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            for cmd in pass_plan(self.w, self.inputs, self.work, index):
                if index > 0 and time.perf_counter() >= deadline:
                    break
                self.execute(cmd)
            index += 1
        return index

    def artifacts(self) -> dict[str, str]:
        """SHA-256 of every input and of each command's checked artifacts."""
        out = {}
        for d in sorted({self.inputs.release, self.inputs.protector}):
            for name in ("original.csv", "masked.csv", "reverse_mapped.csv"):
                if (d / name).exists():
                    out[f"{d.name}/{name}"] = _sha(d / name)
        for key, (_, digests, _) in sorted(self.checker.seen.items()):
            for name, digest in digests.items():
                out[f"{key}/{name}"] = digest
        return out


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path, import_s: float = 0.0) -> dict:
    """Run one workload and return the result object the last stdout line carries."""
    import oracle
    from spans import Tracer

    run = Run(w, seed, work)
    report: dict = {"meta": metadata(w, seed, seconds, trace)}
    if not trace:
        setups = run.set_up(SETUP_REPS)
        report["meta"]["check_pass_s"] = run.check_pass()
        report["meta"]["passes"] = run.loop(seconds)
        kernel_s = {k: statistics.median(v) for k, v in run.kernel.samples.items()}
        wall, metrics = {"setup_s": statistics.median(setups)}, {}
        metrics["setup_s"] = wall["setup_s"] * KERNEL_REF_S["mixed"] / kernel_s["setup"]
        for kind, name in KIND_METRIC.items():
            wall[name] = statistics.median(run.samples[kind]) * (1e3 if kind == "subject" else 1.0)
            work = KERNEL_OF.get(kind, "mixed")
            metrics[name] = wall[name] * KERNEL_REF_S[work] / kernel_s[work]
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {name: m["unit"] for name, m in END_TO_END.items()}
        subj = run.samples["subject"]
        report["meta"].update(import_s=import_s, setup_runs_s=setups, kernel_s=kernel_s, wall=wall)
        if len(subj) >= 100:  # a p90 is reported only with ten samples beyond it
            report["meta"]["subject_p90_ms"] = statistics.quantiles(subj, n=10)[-1] * 1e3
    else:
        setup_tracer = Tracer()
        with setup_tracer.patch():
            run.set_up(1)
        run.check_pass()
        # Each command runs once untraced and once traced, back to back and in
        # alternating order, so the overhead is not swamped by machine drift.
        tracer = Tracer()
        mismatches, untraced, traced = [], 0.0, 0.0
        by_kind: dict[str, Counter] = defaultdict(Counter)  # traced seconds per command kind
        for i, cmd in enumerate(pass_plan(w, run.inputs, work, 0)):
            for with_trace in (False, True) if i % 2 == 0 else (True, False):
                if not with_trace:
                    untraced += run.execute(cmd)
                    continue
                before = Counter(tracer.stats)
                with tracer.patch():
                    elapsed = run.execute(cmd)
                traced += elapsed
                delta = Counter(tracer.stats)
                delta.subtract(before)
                by_kind[cmd.kind]["wall_s"] += elapsed
                by_kind[cmd.kind].update({k: v for k, v in delta.items() if k.endswith(".self_s")})
                for name, want in expected_calls(cmd, w).items():
                    got = delta[name + ".calls"]
                    if got != want:
                        mismatches.append(f"{cmd.kind}: {name} called {got} times, expected {want}")
        for line in mismatches:
            print(f"TRACE COUNT CHECK FAILED: {line}", file=sys.stderr)
        stats = tracer.stats
        metrics = {
            name: stats[name[:-3] + ".self_s"] * 1e3 if name.endswith(".ms") else stats[name]
            for name in PER_LAYER
        }
        metrics.update({
            "cli.self.ms": stats["cli.self_s"] / stats["cli.calls"] * 1e3,
            "masking.synth_original.ms": setup_tracer.stats["masking.synth_original.self_s"] * 1e3,
            "masking.gaussian_mask.ms": setup_tracer.stats["masking.gaussian_mask.self_s"] * 1e3,
            "table.tied_cells": oracle.tied_cells(run.inputs.y),
            "trace.overhead_ms": (traced - untraced) * 1e3,
            "trace.count_mismatches": len(mismatches),
        })
        units = PER_LAYER
        report["meta"].update(untraced_pass_s=untraced, traced_pass_s=traced, count_mismatches=mismatches,
                              traced_by_kind=by_kind)
    report["meta"]["samples"] = {k: len(v) for k, v in run.samples.items()}
    report["artifacts"] = run.artifacts()
    report["problems"] = run.problems[:20]
    report["result"] = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one permpriv benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in MANIFEST["workloads"]])
    parser.add_argument("--seed", type=int, default=1, help="input generation seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="closed-loop duration")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer spans instead of end-to-end metrics")
    args = parser.parse_args(argv)
    if not (SRC / "permpriv" / "cli.py").is_file():
        print(f"error: no permpriv sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_nproc())
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import permpriv.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    w = WORKLOADS[args.workload]
    work = BENCH / "_work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = measure(w, args.seed, args.seconds, bool(args.trace), work, import_s)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH / "_work").rmdir()
    result = report["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'error_rate':40s} {result['failed']:>7d}/{result['attempted']:<6d} failed/attempted")
    for line in report["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    print("meta " + json.dumps(report["meta"]))
    print("artifacts " + json.dumps(report["artifacts"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
