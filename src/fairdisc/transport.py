"""Exact discrete optimal transport between categorical distributions.

Small problems only (k <= 64); solved as a linear program with HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import ValidationError

MARGINAL_TOL = 1e-9
# The LP has k^2 variables and a dense 2k x k^2 constraint matrix.
MAX_K = 64


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Ground cost c[i][j] of moving one unit of mass from outcome i to j."""

    k: int
    c: np.ndarray

    def __post_init__(self):
        arr = np.array(self.c, dtype=float)
        if arr.shape != (self.k, self.k):
            raise ValidationError(f"cost matrix has shape {arr.shape}, expected ({self.k}, {self.k})")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValidationError("costs must be finite and non-negative")
        if np.any(np.diag(arr) != 0):
            raise ValidationError("cost matrix must have a zero diagonal")
        arr.setflags(write=False)
        object.__setattr__(self, "c", arr)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Optimal mass-transfer matrix and its total cost."""

    w: np.ndarray
    value: float


def default_cost(k: int) -> CostMatrix:
    """Uniform off-diagonal cost 2/k.

    This scaling makes the transport value coincide with the mean absolute
    difference metric for every pair of distributions, and puts the maximum
    (extreme point vs uniform) at 2(k-1)/k^2.
    """
    _check_k(k)
    return CostMatrix(k, (2.0 / k) * (1.0 - np.eye(k)))


def solve(p, q, cost: CostMatrix) -> TransportPlan:
    """Minimize sum_ij w_ij c_ij subject to row sums p and column sums q.

    `p` and `q` are distributions or probability vectors. Returns an exact
    LP minimizer. Zero-mass rows or columns are fine (the corresponding
    plan entries are just zero), which is what extreme-point sources
    produce.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValidationError(f"transport needs two vectors of one length, got shapes {p.shape} and {q.shape}")
    k = len(p)
    _check_k(k)
    if cost.k != k:
        raise ValidationError(f"cost matrix is {cost.k}x{cost.k}, distributions have k={k}")

    a_rows = np.zeros((k, k * k))
    a_cols = np.zeros((k, k * k))
    for i in range(k):
        a_rows[i, i * k:(i + 1) * k] = 1.0
        a_cols[i, i::k] = 1.0
    res = linprog(
        cost.c.ravel(),
        A_eq=np.vstack([a_rows, a_cols]),
        b_eq=np.concatenate([p, q]),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise ValidationError(f"transport solve failed: {res.message}")

    w = res.x.reshape(k, k)
    # Clip solver dust so the plan is a clean non-negative matrix.
    w = np.where(np.abs(w) < 1e-15, 0.0, w)
    value = float(np.sum(w * cost.c))
    _check_marginals(w, p, q)
    return TransportPlan(w=w, value=value)


def _check_k(k: int) -> None:
    if not 2 <= k <= MAX_K:
        raise ValidationError(f"transport needs 2 <= k <= {MAX_K}, got k={k}")


def _check_marginals(w: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    if np.max(np.abs(w.sum(axis=1) - p)) > MARGINAL_TOL:
        raise ValidationError("transport plan violates row marginals")
    if np.max(np.abs(w.sum(axis=0) - q)) > MARGINAL_TOL:
        raise ValidationError("transport plan violates column marginals")

