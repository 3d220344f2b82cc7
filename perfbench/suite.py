#!/usr/bin/env python3
"""Run the fairdisc benchmark over several seeds and summarize each metric.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 0-9] [--trace 0|1] [--out FILE]

Runs `run.py` once per (workload, seed), one process at a time, and prints
for every workload and metric the median, the first and third quartiles
(`statistics.quantiles(n=4)`) and the spread (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json. A spread above a third of the bound is
flagged (setup_s is exempt from the spread rule). `--out` writes every run's
result plus the summary as JSON, which is how the committed baseline was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    machine = next(json.loads(l[len("machine "):]) for l in lines if l.startswith("machine "))
    return json.loads(lines[-1]), machine


def summarize(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    report = {"seeds": seeds, "seconds": seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, machine = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {}
        print(f"\n{workload}: fail_frac {failed}/{attempted} = {failed / attempted:.3g}")
        print(f"  {'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, first in runs[0]["metrics"].items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            summary[name] = {"unit": first["unit"], **stats}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] >= bound / 3:
                flag, steady = "  <-- spread above bound/3", False
            print(f"  {name:38} {stats['median']:12.6g} {stats['q1']:12.6g} {stats['q3']:12.6g} "
                  f"{stats['spread']:8.4f} {'' if bound is None else bound:>6}{flag}")
        report["workloads"][workload] = {"machine": machine, "attempted": attempted,
                                         "failed": failed, "summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady and all(w["failed"] == 0 for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
