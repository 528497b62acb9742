"""Run workloads over several seeds and summarise each metric's median and spread.

    python3 bench/spread.py --seeds 1-10                      # every workload
    python3 bench/spread.py --workload protector-3k --seeds 1-5 --out summary.json

Spread is the distance between the first and third quartile of the per-seed
values (statistics.quantiles(values, n=4)) as a share of their median; a
metric is steady when its spread stays within a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in run.MANIFEST["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=run.RUN_SECONDS)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()
    summary, ok = {}, True
    for name in args.workload or names:
        results, meta, walls = [], None, []
        for seed in _seeds(args.seeds):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            run_meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
            meta = meta or run_meta
            results.append(json.loads(lines[-1]))
            walls.append(run_meta.get("wall", {}))
        metrics = {
            m: summarise([r["metrics"][m]["value"] for r in results]) for m in results[0]["metrics"]
        }
        failed = sum(r["failed"] for r in results)
        ok = ok and failed == 0 and all(r["correct"] for r in results)
        wall = {m: summarise([w[m] for w in walls]) for m in walls[0]} if walls[0] else {}
        summary[name] = {"attempted": sum(r["attempted"] for r in results), "failed": failed,
                         "meta": meta, "metrics": metrics, "unscaled": wall}
        print(f"{name}: {len(results)} seeds, {failed} failed")
        for m, s in metrics.items():
            bound = run.END_TO_END[m]["bound"]
            flag = "" if s["spread"] < bound / 3 else "  UNSTEADY"
            raw = wall.get(m)
            print(f"  {m:38s} median {s['median']:12.6g}  spread {s['spread']:7.2%}"
                  + f"  bound {bound:.0%}" + flag
                  + (f"  (unscaled spread {raw['spread']:.2%})" if raw else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
