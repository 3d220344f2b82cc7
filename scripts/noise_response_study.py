#!/usr/bin/env python3
"""Study how symmetric classifier noise distorts the normalized scores.

For a grid of noise levels eps, score every AB extreme point and the
whole AB-to-fair sweep in expectation mode. Under uniform noise the
estimated distribution is an exact convex mix with uniform, so every
normalized metric responds linearly: AB scores land on 1 - eps and sweep
errors on eps * f*. The emitted CSV makes that visible per metric and k.
"""

import argparse
import pathlib

from fairdisc import (
    EXPECTATION,
    AttributeSpace,
    mem,
    mepe_ab,
    parse_metrics,
    run_ep_analysis,
    run_sweep,
    uniform_noise,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/noise_response.csv")
    ap.add_argument("--ks", type=int, nargs="+", default=[2, 4, 8])
    ap.add_argument("--eps", type=float, nargs="+",
                    default=[0.0, 0.05, 0.1, 0.2, 0.3, 0.5])
    ap.add_argument("--step", type=float, default=0.02)
    args = ap.parse_args()

    metrics = parse_metrics("all")
    lines = ["k,eps,metric,mean_ab_score,mepe_ab,sweep_mem"]
    for k in args.ks:
        space = AttributeSpace.of_size(k)
        for eps in args.eps:
            model = uniform_noise(k, eps)
            _, ab = run_ep_analysis(space, model, EXPECTATION, metrics)
            f, f_star = run_sweep(space, model, EXPECTATION, metrics, args.step, starts=0)
            for m in metrics:
                lines.append(f"{k},{eps:g},{m},{ab[m].mean():.10g},"
                             f"{mepe_ab(ab[m]):.10g},{mem(f[m], f_star[m]):.10g}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(l + "\n" for l in lines))
    print(f"wrote {out} ({len(lines) - 1} rows)")
    print("spot check (k, eps, metric, mean AB score):")
    for line in lines[1:]:
        k, eps, m, ab_score, _, _ = line.split(",")
        if m == "spec":
            print(f"  k={k} eps={eps}: {ab_score} (expected {1 - float(eps):g})")


if __name__ == "__main__":
    main()
