"""Discrepancy measures between categorical distributions and normalized fairness scores.

Five measures: mean absolute difference (l1), mean euclidean difference (l2), transport distance (wd),
sorted-weighted spread difference (spec), and the l1/spread hybrid (is). Rows enter through `attrspace.float_rows`,
in C order, so a score never depends on the caller's layout. `score_parts` alone normalizes, by the value at an
extreme point against uniform, for `fd_score` and for a caller that prints the raw score too; it refuses rows that
are not distributions, clips to [0, 1] and refuses a score past that by more than SCORE_TOL, or NaN.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from . import transport
from .attrspace import check_k, check_rows, float_rows
from .errors import ValidationError

DEFAULT_ALPHA = 0.5
# A normalized score may miss [0, 1] by this much from rounding; fd_score refuses more.
SCORE_TOL = 1e-9


class Metric(str, Enum):
    L1 = "l1"
    L2 = "l2"
    WD = "wd"
    SPECIFICITY = "spec"
    INFO_SPECIFICITY = "is"

    def __str__(self) -> str:
        return self.value


# Column order used in reports.
REPORT_ORDER = (Metric.L2, Metric.L1, Metric.INFO_SPECIFICITY, Metric.SPECIFICITY, Metric.WD)


def parse_metrics(spec: str) -> tuple[Metric, ...]:
    """Parse a comma-separated metric list; "all" expands to every metric."""
    if not isinstance(spec, str):
        raise ValidationError(f"metric list must be a string, got {spec!r}")
    names = [s.strip().lower() for s in spec.split(",") if s.strip()]
    if not names:
        raise ValidationError("empty metric list")
    if "all" in names:
        return REPORT_ORDER
    for name in names:
        if name not in _MEASURES:
            raise ValidationError(f"unknown metric {name!r} (valid: {', '.join(map(str, _MEASURES))}, all)")
    return tuple(map(Metric, names))


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p, q = float_rows(p), float_rows(q)
    if p.shape[-1] != q.shape[-1]:
        raise ValidationError(f"rows have k={p.shape[-1]} and k={q.shape[-1]}")
    return p, q


# Every measure below takes distributions or arrays of rows, broadcast
# against each other over the last axis; one pair of rows gives a scalar.

def l1(p, q):
    """(1/k) * sum_i |p_i - q_i|"""
    p, q = _pair(p, q)
    return np.abs(p - q).sum(axis=-1) / p.shape[-1]


def l2(p, q):
    """(1/k) * sqrt(sum_i (p_i - q_i)^2)"""
    p, q = _pair(p, q)
    return np.sqrt(((p - q) ** 2).sum(axis=-1)) / p.shape[-1]


def wd(p, q):
    """Optimal transport cost from p to q under the ground cost (2/k)(J - I), one LP per row pair, in one block."""
    p, q = np.broadcast_arrays(*_pair(p, q))
    k = p.shape[-1]
    values = transport.solve_rows(p.reshape(-1, k), q.reshape(-1, k), transport.default_cost(k))
    return values.reshape(p.shape[:-1])[()]


@lru_cache(maxsize=None)
def _spread_weights(k: int) -> np.ndarray:
    # Weights over sorted positions 2..k: proportional to (k - j), summing
    # to 1, so the spread of the uniform distribution is exactly zero. The
    # k = 2 case has a single position, which takes the whole weight.
    w = np.ones(1) if k == 2 else (k - np.arange(2, k + 1)) / ((k - 1) * (k - 2) / 2.0)
    w.setflags(write=False)
    return w


def specificity(p):
    """Sorted-weighted spread: largest entry minus the weighted tail.

    Zero for the uniform distribution, one for a point mass.
    """
    p = float_rows(p)
    s = np.sort(p, axis=-1)[..., ::-1]
    # One vector dot per row, (1, k-1) @ (k-1, 1), so a row scores the same alone or in a block.
    return s[..., 0] - (s[..., None, 1:] @ _spread_weights(p.shape[-1])[:, None])[..., 0, 0]


def delta_specificity(p, q):
    """|specificity(p) - specificity(q)|"""
    p, q = _pair(p, q)
    return np.abs(specificity(p) - specificity(q))


def info_specificity(p, q):
    """DEFAULT_ALPHA * l1 + (1 - DEFAULT_ALPHA) * delta_specificity"""
    return DEFAULT_ALPHA * l1(p, q) + (1.0 - DEFAULT_ALPHA) * delta_specificity(p, q)


_MEASURES = {Metric.L1: l1, Metric.L2: l2, Metric.WD: wd,
             Metric.SPECIFICITY: delta_specificity, Metric.INFO_SPECIFICITY: info_specificity}


def _measure(metric: Metric):
    """The measure of `metric`, a Metric or its value; anything else is a ValidationError."""
    if not isinstance(metric, str) or metric not in _MEASURES:
        raise ValidationError(f"unknown metric {metric!r} (valid: {', '.join(map(str, _MEASURES))})")
    return _MEASURES[metric]


def raw_score(metric: Metric, rows):
    """The metric between the uniform reference and each row, unnormalized; k is checked as `n_factor` checks it."""
    measure = _measure(metric)
    rows = float_rows(rows)
    k = check_k(rows.shape[-1])
    return measure(np.full(k, 1.0 / k), rows)


def n_factor(metric: Metric, k: int) -> float:
    """Normalization factor: the metric from a one-hot row to uniform.

    Computed, not tabulated; every one-hot row gives the same value, so the
    first is used. WD's LP rounds differently from uniform to one-hot.
    """
    return _n_factor(_measure(metric), check_k(k))


# Keyed on the measure and k, each checked before it is hashed; typed, so that k = 2.0 could never share k = 2's entry.
@lru_cache(maxsize=None, typed=True)
def _n_factor(measure, k: int) -> float:
    return float(measure(np.eye(1, k)[0], np.full(k, 1.0 / k)))


def fd_score(metric: Metric, rows):
    """Normalized fairness discrepancy of each row against uniform: 0 fair, 1 one-hot.

    `rows` is a distribution or an array of shape (..., k) whose rows pass
    `attrspace.check_rows`, as given; the result has shape rows.shape[:-1].
    A quotient outside [-SCORE_TOL, 1 + SCORE_TOL] from rounding is a
    ValidationError; the rest is clipped to [0, 1].
    """
    return score_parts(metric, rows)[2]


def score_parts(metric: Metric, rows) -> tuple:
    """(`raw_score`, `n_factor`, `fd_score`) of `rows`, checked as distributions, from one raw score: the quotient by
    the factor, checked and clipped as `fd_score` says."""
    rows = float_rows(rows)
    check_rows(rows, "rows")
    raw, factor = raw_score(metric, rows), n_factor(metric, rows.shape[-1])
    f = raw / factor
    if (bad := ~((f >= -SCORE_TOL) & (f <= 1.0 + SCORE_TOL))).any():
        raise ValidationError(f"score {float(f[bad][0])!r} outside [0, 1] for {metric} at k={rows.shape[-1]}")
    return raw, factor, np.clip(f, 0.0, 1.0)
