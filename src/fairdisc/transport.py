"""Exact discrete optimal transport between categorical distributions.

Small problems only (k <= 64); solved as a linear program with HiGHS,
driven directly through scipy's bindings with the sparse model and the
options of scipy.optimize's "highs" LP method, so plans are bit-identical
to that method's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.optimize._highspy import _core as highs

from .attrspace import float_array
from .errors import ValidationError, check_int

MARGINAL_TOL = 1e-9
# The LP has k^2 variables and 2k equality rows, two nonzeros per column.
MAX_K = 64

# scipy.optimize's options for its "highs" LP method: presolve on, dual simplex, no output.
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
# HiGHS meets each constraint only to its absolute primal feasibility tolerance (1e-7), so it can leave a
# small marginal entry unmet or a plan entry negative, or call such an LP infeasible. A plan off by more than
# MARGINAL_TOL is solved again on marginals scaled by this power of two, which scales them exactly.
_RETRY_SCALE = 2.0**20


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Ground cost c[i][j] of moving one unit of mass from outcome i to j; k is read from the square matrix."""

    c: np.ndarray
    k: int = field(init=False)

    def __post_init__(self):
        arr = float_array(self.c, "costs")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"cost matrix has shape {arr.shape}, expected a square matrix")
        object.__setattr__(self, "k", len(arr))
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
    return CostMatrix((2.0 / k) * (1.0 - np.eye(k)))


def solve(p, q, cost: CostMatrix) -> TransportPlan:
    """Minimize sum_ij w_ij c_ij subject to row sums p and column sums q.

    `p` and `q` are distributions or probability vectors. Returns an exact
    LP minimizer. Zero-mass rows or columns are fine (the corresponding
    plan entries are just zero), which is what extreme-point sources
    produce.
    """
    p, q = float_array(p, "transport marginals"), float_array(q, "transport marginals")
    if p.ndim != 1 or p.shape != q.shape:
        raise ValidationError(f"transport needs two vectors of one length, got shapes {p.shape} and {q.shape}")
    k = len(p)
    _check_k(k)
    if cost.k != k:
        raise ValidationError(f"cost matrix is {cost.k}x{cost.k}, distributions have k={k}")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValidationError("transport marginals must be finite")

    for scale in (1.0, _RETRY_SCALE):
        w, status = _plan(p, q, cost, scale)
        if w is not None and (miss := _violation(w, p, q)) <= MARGINAL_TOL:
            return TransportPlan(w=w, value=float(np.sum(w * cost.c)))
    reason = f"HiGHS model status {status}" if w is None else f"plan violates its constraints by {miss:.3g}"
    raise ValidationError(f"transport solve failed: {reason}")


def _plan(p: np.ndarray, q: np.ndarray, cost: CostMatrix, scale: float = 1.0) -> tuple[np.ndarray | None, str]:
    """HiGHS's model status and, if optimal, its plan for marginals scale*p and scale*q divided by scale, else None."""
    k = len(p)
    lp = highs.HighsLp()
    lp.num_col_ = k * k
    lp.num_row_ = 2 * k
    lp.a_matrix_ = _constraints(k)
    lp.col_cost_ = cost.c.ravel()
    lp.col_lower_ = np.zeros(k * k)
    lp.col_upper_ = np.full(k * k, np.inf)
    lp.row_lower_ = lp.row_upper_ = np.concatenate([p, q]) * scale
    # A fresh solver per call: no basis or warm start carries over between solves.
    solver = highs._Highs()
    solver.passOptions(_OPTIONS)
    if solver.passModel(lp) == highs.HighsStatus.kError:
        raise ValidationError("transport solve failed: HiGHS rejected the model")
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        return None, solver.modelStatusToString(status)
    w = np.array(solver.getSolution().col_value).reshape(k, k) / scale
    # Clip solver dust so the plan is a clean non-negative matrix.
    return np.where(np.abs(w) < 1e-15, 0.0, w), solver.modelStatusToString(status)


@cache
def _constraints(k: int) -> highs.HighsSparseMatrix:
    """Row sums then column sums of the k x k plan, column-wise: column i*k+j has ones in rows i and k+j."""
    a = highs.HighsSparseMatrix()
    a.format_ = highs.MatrixFormat.kColwise
    a.num_col_ = k * k
    a.num_row_ = 2 * k
    a.start_ = np.arange(0, 2 * k * k + 1, 2)
    i, j = np.divmod(np.arange(k * k), k)
    a.index_ = np.stack([i, k + j], axis=1).ravel()
    a.value_ = np.ones(2 * k * k)
    return a


def _check_k(k: int) -> None:
    if not 2 <= check_int("k", k) <= MAX_K:
        raise ValidationError(f"transport needs 2 <= k <= {MAX_K}, got k={k}")


def _violation(w: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """The plan's largest marginal miss or negative entry."""
    return max(np.max(np.abs(w.sum(axis=1) - p)), np.max(np.abs(w.sum(axis=0) - q)), -w.min())


