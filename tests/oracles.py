"""Independent reference implementations the library is checked against.

Deliberately naive: exhaustive search and literal loops, no shared code
with the package under test.
"""

from __future__ import annotations

import math

import numpy as np


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
