"""Discrepancy measures between categorical distributions and normalized fairness scores.

Five measures: mean absolute difference (l1), mean euclidean difference (l2),
transport distance (wd), sorted-weighted spread difference (spec), and the
l1/spread hybrid (is). Each is normalized by its value at an extreme point
against the uniform reference, so scores land in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import transport
from .attrspace import AttributeSpace, CategoricalDistribution, uniform
from .errors import ValidationError

DEFAULT_ALPHA = 0.5


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
    names = [s.strip().lower() for s in spec.split(",") if s.strip()]
    if not names:
        raise ValidationError("empty metric list")
    if "all" in names:
        return REPORT_ORDER
    out = []
    for name in names:
        try:
            out.append(Metric(name))
        except ValueError:
            valid = ", ".join(m.value for m in Metric)
            raise ValidationError(f"unknown metric {name!r} (valid: {valid}, all)") from None
    return tuple(out)


def _check_same_space(p: CategoricalDistribution, q: CategoricalDistribution) -> None:
    if p.space != q.space:
        raise ValidationError("distributions live on different attribute spaces")


def l1(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    """(1/k) * sum_i |p_i - q_i|"""
    _check_same_space(p, q)
    return float(np.abs(p.p - q.p).sum() / p.k)


def l2(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    """(1/k) * sqrt(sum_i (p_i - q_i)^2)"""
    _check_same_space(p, q)
    return float(np.sqrt(((p.p - q.p) ** 2).sum()) / p.k)


def wd(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    """Optimal transport cost from p to q under the ground cost (2/k)(J - I)."""
    _check_same_space(p, q)
    return transport.solve(p, q, transport.default_cost(p.k)).value


@lru_cache(maxsize=None)
def _spread_weights(k: int) -> np.ndarray:
    # Weights over sorted positions 2..k: proportional to (k - j), summing
    # to 1, so the spread of the uniform distribution is exactly zero. The
    # k = 2 case has a single position, which takes the whole weight.
    if k == 2:
        return np.array([1.0])
    denom = (k - 1) * (k - 2) / 2.0
    w = np.array([(k - j) / denom for j in range(2, k + 1)])
    w.setflags(write=False)
    return w


def specificity(p: CategoricalDistribution) -> float:
    """Sorted-weighted spread: largest entry minus the weighted tail.

    Zero for the uniform distribution, one for a point mass.
    """
    s = np.sort(p.p)[::-1]
    return float(s[0] - _spread_weights(p.k) @ s[1:])


def delta_specificity(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    """|specificity(p) - specificity(q)|"""
    _check_same_space(p, q)
    return abs(specificity(p) - specificity(q))


def info_specificity(p: CategoricalDistribution, q: CategoricalDistribution,
                     alpha: float = DEFAULT_ALPHA) -> float:
    """alpha * l1 + (1 - alpha) * delta_specificity"""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * l1(p, q) + (1.0 - alpha) * delta_specificity(p, q)


def metric_value(metric: Metric, p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    if metric is Metric.L1:
        return l1(p, q)
    if metric is Metric.L2:
        return l2(p, q)
    if metric is Metric.WD:
        return wd(p, q)
    if metric is Metric.SPECIFICITY:
        return delta_specificity(p, q)
    if metric is Metric.INFO_SPECIFICITY:
        return info_specificity(p, q)
    raise ValidationError(f"unknown metric {metric!r}")


@dataclass(frozen=True)
class FairnessScore:
    """One metric evaluation: raw value, normalization factor, normalized value."""

    metric: Metric
    k: int
    raw: float
    n_factor: float
    normalized: float

    def __post_init__(self):
        if self.n_factor <= 0:
            raise ValidationError(f"normalization factor must be positive, got {self.n_factor}")
        if abs(self.normalized - self.raw / self.n_factor) > 1e-12:
            raise ValidationError("normalized value inconsistent with raw / n_factor")


@lru_cache(maxsize=None)
def n_factor(metric: Metric, k: int) -> float:
    """Normalization factor: the metric's value at an extreme point against uniform.

    Computed, not tabulated. By permutation symmetry every extreme point
    gives the same value, so the first one is used.
    """
    space = AttributeSpace.of_size(k)
    ab = CategoricalDistribution(space, space.one_hot(0))
    return metric_value(metric, ab, uniform(space))


def fd_score(metric: Metric, p_est: CategoricalDistribution) -> FairnessScore:
    """Fairness discrepancy of the estimated distribution against the uniform reference."""
    ref = uniform(p_est.space)
    raw = metric_value(metric, ref, p_est)
    factor = n_factor(metric, p_est.k)
    return FairnessScore(metric=metric, k=p_est.k, raw=raw, n_factor=factor,
                         normalized=raw / factor)
