"""Independent reference implementations the library is checked against.

Deliberately naive: exhaustive search and literal loops, no shared code
with the package under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog


def bruteforce_transport_cost(a: list[int], b: list[int], cost, denom: int) -> float:
    """Minimum transport cost between p = a/denom and q = b/denom.

    Enumerates every integer-unit transport plan (row sums a, column sums
    b). Integer marginals admit an integral optimal vertex, so the optimum
    over integer plans is the true LP optimum. Exponential; keep k and
    denom small.
    """
    assert sum(a) == sum(b) == denom
    k = len(a)
    best = [math.inf]

    def compositions(total, caps):
        if len(caps) == 1:
            if total <= caps[0]:
                yield (total,)
            return
        for first in range(min(total, caps[0]) + 1):
            for rest in compositions(total - first, caps[1:]):
                yield (first,) + rest

    def place(i, remaining, acc):
        if acc >= best[0]:
            return
        if i == k:
            best[0] = acc
            return
        for row in compositions(a[i], remaining):
            extra = sum(units * cost[i][j] for j, units in enumerate(row) if units)
            place(i + 1, [r - u for r, u in zip(remaining, row)],
                  acc + extra)

    place(0, list(b), 0.0)
    return best[0] / denom


def reference_transport(p, q, cost) -> tuple[np.ndarray, float]:
    """Transport plan and cost from p to q through `scipy.optimize.linprog`.

    The LP in its textbook form: a dense 2k x k^2 equality matrix (row sums,
    then column sums) handed to linprog's HiGHS method, with plan entries
    below 1e-15 clipped to zero and the cost summed over the clipped plan.
    """
    p, q, cost = np.asarray(p, dtype=float), np.asarray(q, dtype=float), np.asarray(cost, dtype=float)
    k = len(p)
    a_rows = np.zeros((k, k * k))
    a_cols = np.zeros((k, k * k))
    for i in range(k):
        a_rows[i, i * k:(i + 1) * k] = 1.0
        a_cols[i, i::k] = 1.0
    res = linprog(cost.ravel(), A_eq=np.vstack([a_rows, a_cols]), b_eq=np.concatenate([p, q]),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    w = res.x.reshape(k, k)
    w = np.where(np.abs(w) < 1e-15, 0.0, w)
    return w, float(np.sum(w * cost))


def reference_sweep(k: int, step: float) -> list[list[float]]:
    """Literal transfer loop from the one-hot start to uniform.

    Moves `step` of mass per epoch from outcome 0 into the lowest outcome
    still below 1/k, clamping the final transfer into each outcome.
    """
    target = 1.0 / k
    p = [0.0] * k
    p[0] = 1.0
    epochs = [list(p)]
    j = 1
    while j < k:
        amount = min(step, target - p[j])
        if target - (p[j] + amount) < 1e-12:
            amount = target - p[j]
        p[j] += amount
        p[0] -= amount
        epochs.append(list(p))
        if p[j] == target:
            j += 1
    return epochs


def reference_path(k: int, step: float) -> list[list[float]]:
    """The sweep's epochs from their definition, one at a time, bit for bit.

    After the one-hot epoch, the t-th transfer into outcome j puts min(t * step, 1/k) there (exactly 1/k when
    within 1e-12 of it), leaves 1/k in outcomes 1..j-1 and the rest, 1 - (j-1)/k - that, in outcome 0; an epoch
    that fills the last outcome is exactly uniform. A sampled estimate reads the bits of its row (multinomial
    draws binomial(n, 1 - p) for p past 0.5), so this builds each row by that arithmetic rather than by the
    running sums of `reference_sweep`.
    """
    target = 1.0 / k
    transfers = math.ceil(target / step - 1e-9)
    epochs = [[1.0] + [0.0] * (k - 1)]
    for j in range(1, k):
        for t in range(1, transfers + 1):
            v = min(t * step, target)
            if target - v < 1e-12:
                v = target
            if j == k - 1 and v == target:
                epochs.append([target] * k)
            else:
                epochs.append([1.0 - (j - 1) * target - v] + [target] * (j - 1) + [v] + [0.0] * (k - 1 - j))
    return epochs


def sorted_spread(p: list[float]) -> float:
    """Specificity from first principles: top mass minus weighted rest."""
    k = len(p)
    s = sorted(p, reverse=True)
    if k == 2:
        weights = [1.0]
    else:
        weights = [(k - j) / ((k - 1) * (k - 2) / 2) for j in range(2, k + 1)]
    return s[0] - sum(w * x for w, x in zip(weights, s[1:]))


def reference_ingest(k: int, records: list[dict]):
    """Estimated distribution and confusion matrix of decoded prediction records.

    A running per-record sum of soft rows divided by its own total, or
    label counts over the record count; confusion counts from nested loops,
    each seen truth row divided by its count and an identity row for unseen
    ones. The confusion is None unless every record has a truth label.
    """
    soft = "probs" in records[0]
    total = [0.0] * k
    counts = [[0] * k for _ in range(k)]
    for rec in records:
        if soft:
            for j in range(k):
                total[j] += rec["probs"][j]
            pred = max(range(k), key=lambda j: rec["probs"][j])  # first maximal entry
        else:
            pred = rec["pred"]
            total[pred] += 1
        truth = rec.get("true", rec.get("truth"))
        if truth is not None:
            counts[truth][pred] += 1
    p = np.array(total) / np.sum(total) if soft else np.array([c / len(records) for c in total])
    if any(rec.get("true", rec.get("truth")) is None for rec in records):
        return p, None
    m = [[c / sum(row) for c in row] if sum(row) else [float(i == j) for j in range(k)]
         for i, row in enumerate(counts)]
    return p, np.array(m)


def reference_sample(m: np.ndarray, p: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Sampled estimate of one row on its own fresh `np.random.default_rng(seed)`.

    Draws n true outcomes from p, then pushes each outcome's count through
    its confusion row, one multinomial call per outcome that occurs, and
    returns the summed prediction tallies over n.
    """
    rng = np.random.default_rng(seed)
    return sum(rng.multinomial(c, m[i]) for i, c in enumerate(rng.multinomial(n, p)) if c > 0) / n


# The report's column order and tie tolerance, and the weight of l1 in `is`, as the report contract states them.
REPORT_ORDER = ("l2", "l1", "is", "spec", "wd")
TIE_TOL = 1e-12
ALPHA = 0.5


def reference_score(metric: str, p: list[float]) -> float:
    """The normalized score of distribution p against uniform, from closed forms, clipped to [0, 1].

    Each raw value is divided by its value from a one-hot row to uniform: 2(k-1)/k^2 for l1, sqrt((k-1)/k)/k for
    l2, 1 for spec and the ALPHA mix of those two for is. wd is the optimal transport cost under (2/k)(J - I),
    which equals l1 for every pair of distributions.
    """
    k = len(p)
    u = 1.0 / k
    l1 = math.fsum(abs(x - u) for x in p) / k
    spec = abs(sorted_spread([u] * k) - sorted_spread(p))
    raw = {"l1": l1, "wd": l1, "l2": math.sqrt(math.fsum((x - u) ** 2 for x in p)) / k, "spec": spec,
           "is": ALPHA * l1 + (1 - ALPHA) * spec}[metric]
    l1_top = 2 * (k - 1) / k**2
    top = {"l1": l1_top, "wd": l1_top, "l2": math.sqrt((k - 1) / k) / k, "spec": 1.0,
           "is": ALPHA * l1_top + (1 - ALPHA)}[metric]
    return min(max(raw / top, 0.0), 1.0)


def transported_score(p: list[float]) -> float:
    """The normalized wd score of p from `reference_transport`, with no closed form: the optimal transport cost to
    uniform under the cost (2/k)(J - I), over its value 2(k-1)/k^2 from a one-hot row, clipped to [0, 1]."""
    k = len(p)
    _, cost = reference_transport(p, [1.0 / k] * k, (2.0 / k) * (1.0 - np.eye(k)))
    return min(max(cost / (2 * (k - 1) / k**2), 0.0), 1.0)


def reference_estimate(m, p: list[float], mode, cell: tuple[int, ...]) -> list[float]:
    """The estimate of true distribution p through confusion matrix m: in expectation (mode None) the fsum of
    p_i m_ij over i; sampled (mode (n, seed)) `reference_sample` on the seed numpy's SeedSequence([seed, *cell])
    gives, cell being (k, kind, cell index, trial)."""
    k = len(p)
    if mode is None:
        return [math.fsum(p[i] * m[i][j] for i in range(k)) for j in range(k)]
    n, seed = mode
    row_seed = int(np.random.SeedSequence([seed, *cell]).generate_state(1, np.uint64)[0])
    return reference_sample(np.array(m, dtype=float), np.array(p, dtype=float), n, row_seed).tolist()


def _mean_abs(xs: list[float], centre: float) -> float:
    return math.fsum(abs(x - centre) for x in xs) / len(xs)


def _variance(xs: list[float]) -> float:
    mean = math.fsum(xs) / len(xs)
    return math.fsum((x - mean) ** 2 for x in xs) / len(xs)


def _mem(f: list[list[float]], f_star: list[list[float]]) -> float:
    errors = [abs(a - b) for row, row_star in zip(f, f_star) for a, b in zip(row, row_star)]
    return math.fsum(errors) / len(errors)


def reference_report(models, metrics, mode, trials: int, step: float) -> list[dict]:
    """The benchmark report of one confusion matrix per k, row by row, in literal loops.

    `models` are k x k confusion matrices (nested lists), `metrics` metric names, `mode` None for expectation or
    (n, seed) for sampled, with `trials` repeats per point (one in expectation). Kind tags: 0 fair, 1 AB, 2 sweep.
    Fair cell (k, 0, 0, t) scores uniform in trial t; AB cell (k, 1, i, t) the one-hot row on i; sweep cell
    (k, 2, s, e) epoch e of `reference_path(k, step)` with outcomes 0 and s swapped, against f* of that true row.
    Pools run in (k, trial, outcome) order. Rows: MEPE fair and AB, EP variance fair and AB over the whole k set,
    sweep MEM per k, then the four EP rows per k when there are several k. Each row is a dict of its benchmark,
    kind, k_set, `values` and `inputs` by metric (the scores each statistic reads, in pool order; (f, f*) per start
    for MEM) and its `best` and `worst` metrics: those within TIE_TOL of the row's lowest and highest values.
    wd is taken from the l1 closed form (`reference_score`); on the first, middle and last epochs of each k's last
    start, f and f* of that shortcut are checked against `transported_score` within 1e-9, whatever the metrics.
    """
    metrics = [m for m in REPORT_ORDER if m in metrics]
    models = sorted(models, key=len)
    ks = tuple(len(m) for m in models)
    n_trials = 1 if mode is None else trials
    fair, ab, sweeps = {}, {}, {}
    for m in models:
        k = len(m)
        fair[k] = {metric: [] for metric in metrics}
        ab[k] = {metric: [] for metric in metrics}
        for t in range(n_trials):
            est = reference_estimate(m, [1.0 / k] * k, mode, (k, 0, 0, t))
            for metric in metrics:
                fair[k][metric].append(reference_score(metric, est))
        for t in range(n_trials):
            for i in range(k):
                est = reference_estimate(m, [float(j == i) for j in range(k)], mode, (k, 1, i, t))
                for metric in metrics:
                    ab[k][metric].append(reference_score(metric, est))
        path = reference_path(k, step)
        f = {metric: [] for metric in metrics}
        f_star = {metric: [] for metric in metrics}
        for s in range(k):
            for metric in metrics:
                f[metric].append([])
                f_star[metric].append([])
            for e, epoch in enumerate(path):
                p = list(epoch)
                p[0], p[s] = p[s], p[0]
                est = reference_estimate(m, p, mode, (k, 2, s, e))
                if s == k - 1 and e in (0, len(path) // 2, len(path) - 1):
                    for x in (est, p):
                        assert abs(reference_score("wd", x) - transported_score(x)) <= 1e-9, (x, step, mode)
                for metric in metrics:
                    f[metric][s].append(reference_score(metric, est))
                    f_star[metric][s].append(reference_score(metric, p))
        sweeps[k] = f, f_star

    def row(benchmark, kind, k_set, inputs, stat):
        values = {metric: stat(*inputs[metric]) for metric in metrics}
        lo, hi = min(values.values()), max(values.values())
        return {"benchmark": benchmark, "kind": kind, "k_set": k_set, "values": values, "inputs": inputs,
                "best": tuple(m for m in metrics if values[m] <= lo + TIE_TOL),
                "worst": tuple(m for m in metrics if values[m] >= hi - TIE_TOL)}

    def ep_rows(k_set):
        pools = {}
        for kind, scores in (("fair", fair), ("ab", ab)):
            pools[kind] = {metric: [x for k in k_set for x in scores[k][metric]] for metric in metrics}
        return [row("mepe", "fair", k_set, {m: (pools["fair"][m],) for m in metrics}, lambda xs: _mean_abs(xs, 0.0)),
                row("mepe", "ab", k_set, {m: (pools["ab"][m],) for m in metrics}, lambda xs: _mean_abs(xs, 1.0)),
                row("ep-var", "fair", k_set, {m: (pools["fair"][m],) for m in metrics}, _variance),
                row("ep-var", "ab", k_set, {m: (pools["ab"][m],) for m in metrics}, _variance)]

    rows = ep_rows(ks)
    for k in ks:
        f, f_star = sweeps[k]
        rows.append(row("mem", "sweep", (k,), {m: (f[m], f_star[m]) for m in metrics}, _mem))
    if len(ks) > 1:
        for k in ks:
            rows += ep_rows((k,))
    return rows
