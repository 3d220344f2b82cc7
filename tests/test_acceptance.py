"""End-to-end acceptance checks.

Each test exercises one shipped guarantee at its stated tolerance and
records a PASS/FAIL line in the terminal summary. Tolerances and the
frozen expected values live here, not in the library.
"""

import time

import numpy as np

from conftest import dist
from fairdisc import (
    EXPECTATION,
    AttributeSpace,
    CategoricalDistribution,
    CostMatrix,
    Metric,
    Sampled,
    ep_var,
    estimate,
    fd_score,
    mem,
    mepe_ab,
    mepe_fair,
    perfect,
    preset,
    run_benchmark,
    run_ep_analysis,
    run_sweep,
    solve,
    uniform_noise,
)
from fairdisc.cli import main
from fairdisc.metrics import REPORT_ORDER, l1, wd
from oracles import bruteforce_transport_cost

KS = (2, 4, 8, 16)
POINTWISE = (Metric.L1, Metric.L2, Metric.WD)

# frozen normalization ceilings, one per (metric, k)
NORMALIZATION_TABLE = {
    ("l2", 2): 0.353553391, ("l1", 2): 0.5, ("is", 2): 0.75, ("spec", 2): 1.0, ("wd", 2): 0.5,
    ("l2", 4): 0.216506351, ("l1", 4): 0.375, ("is", 4): 0.6875, ("spec", 4): 1.0, ("wd", 4): 0.375,
    ("l2", 8): 0.116926793, ("l1", 8): 0.21875, ("is", 8): 0.609375, ("spec", 8): 1.0, ("wd", 8): 0.21875,
    ("l2", 16): 0.060515365, ("l1", 16): 0.1171875, ("is", 16): 0.55859375, ("spec", 16): 1.0,
    ("wd", 16): 0.1171875,
}


def test_criterion_1_normalization_table(acceptance, capsys):
    t0 = time.perf_counter()
    code = main(["nfactor", "--k", "2", "4", "8", "16", "--precision", "12"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    got = {(metric, int(k)): float(v) for k, metric, v in rows}
    cells_ok = (len(got) == 20 and
                all(abs(got[key] - want) <= 1e-6 for key, want in NORMALIZATION_TABLE.items()))
    acceptance(1, code == 0 and cells_ok and elapsed < 1.0,
               f"20-cell normalization table within 1e-6, {elapsed:.3f}s < 1s")


def test_criterion_2_worked_l2_example(acceptance):
    score = fd_score(Metric.L2, dist(2, [0.9, 0.1]))
    # the quoted 0.799 is a 3-decimal rounding of 0.8; allow the boundary in float
    acceptance(2, abs(score - 0.799) <= 0.001 + 1e-9,
               f"normalized l2 for [0.9, 0.1] = {score:.6f} within 0.799 +- 0.001")


def test_criterion_3_wd_equals_l1_under_default_cost(acceptance):
    rng = np.random.default_rng(20240815)
    t0 = time.perf_counter()
    worst_raw = worst_norm = 0.0
    for k in KS:
        space = AttributeSpace.of_size(k)
        u = np.full(k, 1.0 / k)
        for _ in range(1000):
            p = CategoricalDistribution(space, rng.dirichlet(np.ones(k)))
            raw_gap = abs(wd(u, p) - l1(u, p))
            norm_gap = abs(fd_score(Metric.WD, p) - fd_score(Metric.L1, p))
            worst_raw = max(worst_raw, raw_gap)
            worst_norm = max(worst_norm, norm_gap)
    elapsed = time.perf_counter() - t0
    acceptance(3, worst_raw <= 1e-9 and worst_norm <= 1e-9 and elapsed < 30.0,
               f"|wd - l1| <= 1e-9 over 4000 points (worst raw {worst_raw:.2e}, "
               f"normalized {worst_norm:.2e}), {elapsed:.1f}s < 30s")


def test_criterion_4_transport_matches_bruteforce(acceptance):
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 5))
        denom = int(rng.integers(2, 13))
        a = rng.multinomial(denom, np.ones(k) / k)
        b = rng.multinomial(denom, np.ones(k) / k)
        c = rng.uniform(0.0, 4.0, size=(k, k))
        np.fill_diagonal(c, 0.0)
        space = AttributeSpace.of_size(k)
        p = CategoricalDistribution(space, a / denom)
        q = CategoricalDistribution(space, b / denom)
        got = solve(p, q, CostMatrix(c)).value
        want = bruteforce_transport_cost(a.tolist(), b.tolist(), c.tolist(), denom)
        worst = max(worst, abs(got - want))
    acceptance(4, worst <= 1e-9,
               f"200 random instances match exhaustive enumeration (worst gap {worst:.2e})")


def test_criterion_5_pinching_closed_form(acceptance):
    ok = True
    for eps in (0.1, 0.3):
        for k in KS:
            fair, ab = run_ep_analysis(uniform_noise(k, eps), EXPECTATION, POINTWISE)
            for m in POINTWISE:
                ok &= bool(np.all(np.abs(ab[m] - (1.0 - eps)) <= 1e-12))
                ok &= bool(np.all(np.abs(fair[m]) <= 1e-12))
                ok &= abs(mepe_ab(ab[m]) - eps) <= 1e-12
                ok &= mepe_fair(fair[m]) <= 1e-12
    acceptance(5, ok, "uniform noise scales every AB score to exactly 1 - eps "
                      "(l1/l2/wd, eps in {0.1, 0.3}), MEPE_AB = eps, MEPE_fair = 0")


def test_criterion_6_perfect_classifier_suite(acceptance):
    ok = True
    details = []
    for k in KS:
        model = perfect(k)
        fair, ab = run_ep_analysis(model, EXPECTATION, REPORT_ORDER)
        f, f_star = run_sweep(model, EXPECTATION, REPORT_ORDER, 0.01, starts=0)
        for m in REPORT_ORDER:
            ok &= bool(np.all(np.abs(fair[m]) <= 1e-12))
            ok &= bool(np.all(np.abs(ab[m] - 1.0) <= 1e-12))
            ok &= mem(f[m], f_star[m]) <= 1e-12
            ok &= ep_var(fair[m]) <= 1e-24
            ok &= ep_var(ab[m]) <= 1e-24
        for m in POINTWISE:
            fs = f_star[m][0].tolist()
            monotone = all(a >= b - 1e-12 for a, b in zip(fs, fs[1:]))
            ok &= monotone
            if not monotone:
                details.append(f"{m} not monotone at k={k}")
    acceptance(6, ok, "perfect classifier: fair 0, AB 1, MEM 0, EP-var 0, "
                      "f* non-increasing for l1/l2/wd" + ("; " + "; ".join(details) if details else ""))


def test_criterion_7_sampled_convergence(acceptance, capsys):
    names = ["set1-a", "set1-b", "set1-c", "set1-d", "set2-k2", "set2-k4", "set2-k8", "set2-k16"]
    worst = 0.0
    for idx, name in enumerate(names):
        model = preset(name)
        k = model.k
        space = AttributeSpace.of_size(k)
        probes = [np.full(k, 1.0 / k), np.eye(k)[0],
                  CategoricalDistribution(space, np.arange(k, 0, -1.0) / (k * (k + 1) / 2))]
        for j, p_true in enumerate(probes):
            want = estimate(model, p_true)
            got = estimate(model, p_true, Sampled(n=100000, seed=1000 + 10 * idx + j))
            worst = max(worst, float(np.abs(got - want).max()))
    converged = worst <= 0.01

    argv = ["ep", "--k", "4", "--classifier", "set2", "--mode", "sampled",
            "--n", "100000", "--seed", "7", "--trials", "2"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    acceptance(7, converged and first == second and len(first) > 0,
               f"sampled n=100000 within 0.01 of expectation (worst {worst:.4f}) "
               "and byte-identical re-run")


def test_criterion_8_qualitative_report_orderings(acceptance):
    t0 = time.perf_counter()
    report = run_benchmark([preset("set2", k) for k in KS], classifier_label="set2")
    elapsed = time.perf_counter() - t0

    checks = {
        "spec lowest mepe(fair)":
            Metric.SPECIFICITY in report.row("mepe", "fair", KS).best,
        "l1/wd lowest mepe(ab)":
            {Metric.L1, Metric.WD} <= set(report.row("mepe", "ab", KS).best),
        "l1/wd lowest mem at k in {4,8,16}":
            all({Metric.L1, Metric.WD} <= set(report.row("mem", "sweep", (k,)).best)
                for k in (4, 8, 16)),
        "k=2 sweep row constant":
            max(report.row("mem", "sweep", (2,)).values.values())
            - min(report.row("mem", "sweep", (2,)).values.values()) <= 1e-12,
        "runtime < 60s": elapsed < 60.0,
    }
    failed = [name for name, good in checks.items() if not good]
    acceptance(8, not failed,
               f"qualitative orderings of the summary report ({elapsed:.1f}s)"
               + (f"; failed: {', '.join(failed)}" if failed else ""))
