#!/usr/bin/env python3
"""Run the full benchmark over the bundled set2 accuracy presets.

Reproduces the summary-table layout (MEPE / EP variance / sweep MEM,
metrics as columns) for k = 2, 4, 8, 16 and writes both renderings.
"""

import argparse
import pathlib
import time

from fairdisc import preset, report_to_csv, report_to_markdown, run_benchmark


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", help="output directory (default: results)")
    ap.add_argument("--step", type=float, default=0.01, help="sweep step (default 0.01)")
    ap.add_argument("--ks", type=int, nargs="+", default=[2, 4, 8, 16])
    args = ap.parse_args()

    t0 = time.perf_counter()
    report = run_benchmark([preset("set2", k) for k in args.ks], step=args.step, classifier_label="set2")
    elapsed = time.perf_counter() - t0

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "set2_benchmark.csv").write_text(report_to_csv(report))
    md = report_to_markdown(report)
    (outdir / "set2_benchmark.md").write_text(md)

    print(md)
    print(f"benchmark finished in {elapsed:.1f}s; wrote {outdir}/set2_benchmark.{{csv,md}}")


if __name__ == "__main__":
    main()
