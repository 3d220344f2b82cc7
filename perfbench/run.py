#!/usr/bin/env python3
"""fairdisc benchmark: one workload through the public CLI, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). The program is
`fairdisc.cli.main(argv)` from `src/`, run in a fresh child interpreter,
one process at a time, with numeric libraries held to one thread.

--trace 0 reports the end-to-end metrics: setup_s (median of fresh-process
`import fairdisc.cli` plus argv parsing), and per request the median wall_s,
cpu_s and items_per_s, plus the child's peak_rss_mb.
--trace 1 alternates untraced requests with requests under the outside-in
tracer (tracer.py) and reports the per-layer metrics.

The last line of stdout is the JSON result; the lines before it are for
people. Generated inputs and span dumps go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 60

INGEST_RECORDS = 200_000
INGEST_K = 16
# Fixed true attribute distribution of the generated predictions: p_i ~ 0.8**i.
INGEST_P_TRUE = 0.8 ** np.arange(INGEST_K) / (0.8 ** np.arange(INGEST_K)).sum()
# set2-k16: accuracy 0.66, errors spread uniformly off the diagonal.
INGEST_ACCURACY = 0.66
TALLY_TOL = 1e-12
# Scores are printed with 6 significant digits.
PRINTED_RTOL = 1e-5

SET2_KS = (2, 4, 8, 16)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "items_per_s": "1/s", "peak_rss_mb": "MB"}
SPAN_LAYERS = ("transport.solve", "classifier.estimate", "classifier.derive_seed",
               "attrspace.sweep")
SELF_ONLY = ("bench.run_sweep", "bench.run_ep_analysis", "bench.run_benchmark",
             "bench.report_to_csv", "classifier.load_predictions",
             "classifier.ingest_predictions", "cli.main")
FD_METRICS = ("l1", "l2", "wd", "spec", "is")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["transport.solve.us_per_call"] = "us"
    for m in FD_METRICS:
        units[f"metrics.fd_score.{m}.calls"] = "count"
        units[f"metrics.fd_score.{m}.self_s"] = "s"
    units["metrics.fd_score.calls"] = "count"
    units["metrics.fd_score.self_s"] = "s"
    units["metrics.n_factor.calls"] = "count"
    units["attrspace.dist_built"] = "count"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units["classifier.records"] = "count"
    units["cli.import_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


PER_LAYER_UNITS = per_layer_units()


@dataclass
class Plan:
    """What one workload runs and how its outputs are checked."""

    request: list[list[str]]
    items: int                      # scored cells or records per request
    min_requests: int = 1
    files: list[str] = field(default_factory=list)
    golden: str | None = None       # expected stdout of the first argv
    expected: dict | None = None    # ingest tally


def sweep_len(k: int, step: float) -> int:
    """Points on the one-hot-to-uniform path (mirrors the documented sweep rule)."""
    return 1 + (k - 1) * math.ceil((1.0 / k) / step - 1e-9)


def bench_cells(n_metrics: int, trials: int, step: float) -> int:
    """(point, metric) cells of `bench` over SET2_KS: EP trials plus all-start sweeps."""
    return n_metrics * sum((1 + k) * trials + k * sweep_len(k, step) for k in SET2_KS)


def plan_set2_expect(seed: int, work: Path) -> Plan:
    # Expectation mode has no randomness: every seed gives the same input.
    return Plan(request=[["bench", "--classifier", "set2"]],
                items=bench_cells(5, 1, 0.01),
                golden=(GOLDEN / "set2-expect.csv").read_text(encoding="utf-8"))


def plan_set2_sampled_fine(seed: int, work: Path) -> Plan:
    argv = ["bench", "--classifier", "set2", "--mode", "sampled", "--n", "100000",
            "--seed", str(seed), "--trials", "30", "--step", "0.001",
            "--metrics", "l1,l2,spec,is"]
    golden = GOLDEN / f"set2-sampled-fine-seed{seed}.csv"
    # Seeds without a golden capture are checked by repeat.
    return Plan(request=[argv], items=bench_cells(4, 30, 0.001), min_requests=3,
                golden=golden.read_text(encoding="utf-8") if golden.exists() else None)


def plan_ingest_score(seed: int, work: Path) -> Plan:
    preds, dist, conf = work / "preds.jsonl", work / "dist.json", work / "conf.json"
    expected = write_predictions(seed, preds)
    return Plan(request=[["ingest", str(preds), "--k", str(INGEST_K), "--out", str(dist),
                          "--confusion-out", str(conf)],
                         ["score", str(dist), "--raw"]],
                items=INGEST_RECORDS, min_requests=4, files=[str(dist), str(conf)],
                expected=expected)


WORKLOADS = {
    "set2-expect": plan_set2_expect,
    "set2-sampled-fine": plan_set2_sampled_fine,
    "ingest-score": plan_ingest_score,
}


def write_predictions(seed: int, path: Path) -> dict:
    """Write soft prediction records with truth labels; return their numpy tally.

    Truth is drawn from INGEST_P_TRUE, the predicted label through the set2-k16
    confusion rows, and the probabilities put 0.6 on that label plus 0.4 of a
    flat Dirichlet draw, so the label is the strict argmax. Probabilities are
    written with repr, which round-trips exactly: the tally of these arrays is
    the tally of the file.
    """
    rng = np.random.default_rng(seed)
    k, n = INGEST_K, INGEST_RECORDS
    m = np.full((k, k), (1.0 - INGEST_ACCURACY) / (k - 1))
    np.fill_diagonal(m, INGEST_ACCURACY)
    truth = rng.choice(k, size=n, p=INGEST_P_TRUE)
    u = rng.random(n)
    pred = np.minimum((u[:, None] >= np.cumsum(m, axis=1)[truth]).sum(axis=1), k - 1)
    probs = 0.4 * rng.dirichlet(np.ones(k), size=n)
    probs[np.arange(n), pred] += 0.6
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, n, 10_000):
            rows = probs[start:start + 10_000].tolist()
            fh.write("".join(
                f'{{"id": "img{start + i}", "probs": [{", ".join(map(repr, row))}], '
                f'"true": {int(truth[start + i])}}}\n' for i, row in enumerate(rows)))
    counts = np.zeros((k, k))
    np.add.at(counts, (truth, probs.argmax(axis=1)), 1.0)
    conf = np.eye(k)
    seen = counts.sum(axis=1) > 0
    conf[seen] = counts[seen] / counts[seen].sum(axis=1, keepdims=True)
    return {"p": probs.mean(axis=0), "m": conf}


def expected_scores(p: np.ndarray) -> dict[str, tuple[float, float, float]]:
    """Independent (raw, n_factor, normalized) per metric against uniform, default cost."""
    k = len(p)
    d = p - 1.0 / k
    l1, l1_nf = np.abs(d).sum() / k, 2.0 * (k - 1) / k ** 2
    l2, l2_nf = np.sqrt((d ** 2).sum()) / k, np.sqrt((1 - 1 / k) ** 2 + (k - 1) / k ** 2) / k
    s = np.sort(p)[::-1]
    w = (k - np.arange(2, k + 1)) / ((k - 1) * (k - 2) / 2.0)
    spec = abs(s[0] - w @ s[1:])
    raw = {"l1": (l1, l1_nf), "wd": (l1, l1_nf), "l2": (l2, l2_nf), "spec": (spec, 1.0),
           "is": (0.5 * l1 + 0.5 * spec, 0.5 * l1_nf + 0.5)}
    return {m: (v, nf, v / nf) for m, (v, nf) in raw.items()}


def check_score_csv(text: str, p: np.ndarray) -> bool:
    lines = text.splitlines()
    if not lines or lines[0] != "metric,raw,n_factor,normalized":
        return False
    want = expected_scores(p)
    got = {}
    for line in lines[1:]:
        metric, *values = line.split(",")
        got[metric] = [float(v) for v in values]
    return set(got) == set(want) and all(
        abs(g - w) <= PRINTED_RTOL * abs(w) + 1e-15
        for m in want for g, w in zip(got[m], want[m]))


def check_ingest(plan: Plan, requests: list[dict]) -> list[bool]:
    """The last request's files must match the tally; earlier ones must be byte-identical."""
    dist_path, conf_path = plan.files
    with open(dist_path, encoding="utf-8") as fh:
        p = np.asarray(json.load(fh)["p"], dtype=float)
    with open(conf_path, encoding="utf-8") as fh:
        m = np.asarray(json.load(fh)["m"], dtype=float)
    want = plan.expected
    final_ok = (p.shape == want["p"].shape and m.shape == want["m"].shape
                and np.max(np.abs(p - want["p"])) <= TALLY_TOL
                and np.max(np.abs(m - want["m"])) <= TALLY_TOL
                and check_score_csv(requests[-1]["stdout"][1], want["p"]))
    last = requests[-1]
    return [final_ok and r["files"] == last["files"] and r["stdout"] == last["stdout"]
            for r in requests]


def check_requests(plan: Plan, requests: list[dict]) -> list[bool]:
    """One verdict per request: exit codes 0 and outputs correct."""
    if plan.expected is not None:
        verdicts = check_ingest(plan, requests) if requests[-1]["codes"] == [0, 0] else [False] * len(requests)
    else:
        reference = plan.golden if plan.golden is not None else requests[0]["stdout"][0]
        verdicts = [r["stdout"][0] == reference for r in requests]
    return [ok and all(code == 0 for code in r["codes"]) for ok, r in zip(verdicts, requests)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(argv: list[str], env: dict[str, str]) -> float:
    """Median of fresh-interpreter import-plus-parse times; the first probe warms caches."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, str(HERE / "child.py"), "probe", json.dumps(argv)],
                             env=env, capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT_S)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def run_child(plan: Plan, trace: bool, work: Path, workload: str, env: dict[str, str]) -> dict:
    """Run one request in a fresh child interpreter and return its result record."""
    job = {"request": plan.request, "files": plan.files, "trace": trace,
           "spans_out": str(WORK / f"spans-{workload}.tsv")}
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "child.py"), "run", str(job_path), str(result_path)],
                   env=env, check=True, timeout=CHILD_TIMEOUT_S)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["traced"] = trace
    return result


def run_requests(plan: Plan, seconds: float, trace: bool, work: Path, workload: str,
                 env: dict[str, str]) -> list[dict]:
    """Run requests until `seconds` have passed and `min_requests` ran.

    With `trace`, each untraced request is followed by a traced one, so the
    overhead compares neighbours. Stops early at the first non-zero exit.
    """
    done: list[dict] = []
    started = time.perf_counter()
    while len(done) < plan.min_requests or time.perf_counter() - started < seconds:
        for traced in (False, True) if trace else (False,):
            done.append(run_child(plan, traced, work, workload, env))
        if any(code != 0 for r in done for code in r["codes"]):
            break
    return done


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def end_to_end(plan: Plan, requests: list[dict], setup_s: float) -> dict[str, float]:
    med = lambda key: statistics.median(r[key] for r in requests)
    return {"setup_s": setup_s, "wall_s": med("wall_s"), "cpu_s": med("cpu_s"),
            "items_per_s": statistics.median(plan.items / r["wall_s"] for r in requests),
            "peak_rss_mb": med("peak_rss_mb")}


def per_layer(requests: list[dict]) -> dict[str, float]:
    traced = [r for r in requests if r["traced"]]

    def med(name: str, key: str) -> float:
        return statistics.median(r["layers"].get(name, {}).get(key, 0) for r in traced)

    values = {}
    for metric in PER_LAYER_UNITS:
        layer, _, key = metric.rpartition(".")
        if key in ("calls", "self_s"):
            values[metric] = med(layer, key)
    for key in ("calls", "self_s"):
        values[f"metrics.fd_score.{key}"] = sum(values[f"metrics.fd_score.{m}.{key}"]
                                                for m in FD_METRICS)
    for counter in ("attrspace.dist_built", "classifier.records"):
        values[counter] = med(counter, "calls")
    calls = values["transport.solve.calls"]
    values["transport.solve.us_per_call"] = 1e6 * values["transport.solve.self_s"] / calls if calls else 0.0
    values["cli.import_s"] = statistics.median(r["import_s"] for r in traced)
    untraced = statistics.median(r["wall_s"] for r in requests if not r["traced"])
    values["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / untraced - 1.0
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fairdisc" / "cli.py").is_file():
        print(f"error: no fairdisc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = WORKLOADS[args.workload](args.seed, work)
        env = child_env()
        setup_s = None if args.trace else measure_setup(plan.request[0], env)
        requests = run_requests(plan, args.seconds, bool(args.trace), work, args.workload, env)
        verdicts = check_requests(plan, requests)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, units = per_layer(requests), PER_LAYER_UNITS
    else:
        values, units = end_to_end(plan, requests, setup_s), END_TO_END_UNITS
    machine = {"nproc": os.cpu_count(), "cpu": cpu_model(), **requests[0]["versions"]}
    failed = verdicts.count(False)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(verdicts)} requests, {failed} failed, fail_frac {failed / len(verdicts):.3g}")
    print("machine " + json.dumps(machine))
    print("request wall_s " + " ".join(f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}"
                                       for r in requests))
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": len(verdicts), "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
