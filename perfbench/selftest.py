#!/usr/bin/env python3
"""Self-test of the fairdisc benchmark: names, pinned call counts, largest layers.

    python3 perfbench/selftest.py

1. BENCHMARK.json is well formed, every workload and metric name matches
   [A-Za-z0-9_.-]+, and its metrics are exactly the ones run.py reports.
2. One traced run per workload. The call counts below repeat exactly at the
   commit the benchmark was defined on; a tracer that wraps the wrong binding
   (say `fairdisc.metrics.fd_score`, which no caller looks up) reads 0.
   A change that legitimately removes calls, such as a closed-form WD that
   skips `transport.solve`, updates PINNED in the same change.
3. The layer with the most self time is the expected one on each workload.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from run import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS
from suite import run_once

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

PINNED = {
    "set2-expect": {"transport.solve.calls": 5714, "classifier.estimate.calls": 2872,
                    "metrics.fd_score.calls": 28550},
    "set2-sampled-fine": {"transport.solve.calls": 0, "classifier.estimate.calls": 27170,
                          "metrics.fd_score.calls": 213280},
    "ingest-score": {"transport.solve.calls": 2, "classifier.records": 200_000,
                     "metrics.fd_score.calls": 5},
}

# Self time per layer, with the two ingest functions taken together.
LAYERS = {
    "transport": ["transport.solve.self_s"],
    "metrics": ["metrics.fd_score.self_s"],
    "classifier.sampling": ["classifier.estimate.self_s", "classifier.derive_seed.self_s"],
    "classifier.ingest": ["classifier.load_predictions.self_s",
                          "classifier.ingest_predictions.self_s"],
    "attrspace": ["attrspace.sweep.self_s"],
    "bench": ["bench.run_sweep.self_s", "bench.run_ep_analysis.self_s",
              "bench.run_benchmark.self_s", "bench.report_to_csv.self_s"],
    "cli": ["cli.main.self_s"],
}
LARGEST = {"set2-expect": "transport", "set2-sampled-fine": "metrics",
           "ingest-score": "classifier.ingest"}


def check_spec() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    errors += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    errors += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    errors += [f"bad unit {m['unit']!r}" for m in spec["end_to_end"] + spec["per_layer"]
               if not UNIT.fullmatch(m["unit"])]
    errors += [f"why too long for {w['name']}" for w in spec["workloads"] if len(w["why"]) > 200]
    errors += [f"bound of {m['name']} above 0.25" for m in spec["end_to_end"] if not 0 < m["bound"] <= 0.25]
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        errors.append("workloads differ from run.py")
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        if {m["name"]: m["unit"] for m in spec[key]} != units:
            errors.append(f"{key} metrics or units differ from run.py")
    return errors


def check_traced(workload: str) -> list[str]:
    result, _ = run_once(workload, 0, 1, 1)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    errors = [] if result["correct"] else [f"{workload}: outputs wrong"]
    for name, want in PINNED[workload].items():
        if values[name] != want:
            errors.append(f"{workload}: {name} = {values[name]}, pinned {want}")
    self_time = {layer: sum(values[n] for n in names) for layer, names in LAYERS.items()}
    largest = max(self_time, key=self_time.get)
    print(f"{workload}: self time by layer "
          + ", ".join(f"{k} {v:.3f}s" for k, v in sorted(self_time.items(), key=lambda kv: -kv[1])))
    if largest != LARGEST[workload]:
        errors.append(f"{workload}: largest layer is {largest}, expected {LARGEST[workload]}")
    return errors


def main() -> int:
    errors = check_spec()
    for workload in WORKLOADS:
        errors += check_traced(workload)
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
