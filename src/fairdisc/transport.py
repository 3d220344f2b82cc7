"""Exact discrete optimal transport between categorical distributions.

Small problems only (k <= 64); solved as a linear program with HiGHS,
driven directly through scipy's bindings with the sparse model and the
options of scipy.optimize's "highs" LP method, so plans are bit-identical
to that method's. Each thread keeps one solver, set by `_solver` to dual
simplex with no output, and passes it each LP as arrays cached per k;
passing a model clears the solver's basis and solution, so no solve
warm-starts another.

`solve_rows` takes a block of marginal pairs, `solve` one pair; both check
and renormalize the block once, then solve its pairs in one loop. Each LP
is run at scale 1, then at _RETRY_SCALE, then there with presolve off, each
attempt setting its own presolve option, until its dust-clipped plan is
optimal and within MARGINAL_TOL of its marginals, and then valued; one
still off fails with its last reason. No other code sets an option.

The bindings are one extension module, scipy.optimize._highspy._core. A
plain import of it first runs scipy.optimize's package init, which loads
scipy.linalg, scipy.sparse, scipy.fft and numpy.f2py: about 0.5 s and
40 MB that the LP never uses. So `_load_highs` loads the extension from its
file and registers it under its own name, and a later `import scipy.optimize`
gets that same module. Nothing of scipy is loaded before the first solve.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from dataclasses import dataclass, field
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import numpy as np

from .attrspace import float_array, normalized_rows
from .errors import ValidationError, check_int, check_type

MARGINAL_TOL = 1e-9
# The LP has k^2 variables and 2k equality rows, two nonzeros per column.
MAX_K = 64
_HIGHS_MODULE = "scipy.optimize._highspy._core"
_LOAD_LOCK = threading.Lock()
_THREAD = threading.local()


def _load_highs():
    """scipy's HiGHS bindings: the module already imported, else the one loaded from its extension file."""
    with _LOAD_LOCK:
        if _HIGHS_MODULE in sys.modules:
            return sys.modules[_HIGHS_MODULE]
        import scipy
        where = Path(scipy.__file__).parent / "optimize" / "_highspy"
        spec = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_HIGHS_MODULE)
        if spec is None:
            raise ImportError(f"scipy's HiGHS extension _core is not in {where}", name=_HIGHS_MODULE, path=str(where))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_HIGHS_MODULE] = module
        return module


def _solver():
    """This thread's HiGHS bindings and solver: scipy's "highs" options but presolve, which each attempt sets."""
    if not hasattr(_THREAD, "solver"):
        highs = _load_highs()
        solver = highs._Highs()
        solver.setOptionValue("simplex_strategy", int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual))
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("log_to_console", False)
        _THREAD.solver = highs, solver
    return _THREAD.solver


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

    `p` and `q` are distributions, checked and renormalized by
    `normalized_rows` like any other. Returns an exact LP minimizer.
    Zero-mass rows or columns are fine (their plan entries are zero), which
    is what extreme-point sources produce.
    """
    w, value = next(_solved(_marginals(p, q, cost, 1, "vectors of one length"), cost))
    return TransportPlan(w=w, value=float(value))


def solve_rows(p, q, cost: CostMatrix) -> np.ndarray:
    """The optimal value of `solve(p[r], q[r], cost)` for each row r of two (N, k) blocks, as an (N,) array.

    The blocks are checked as one, so the first kind of fault in them is named before the first faulty row.
    """
    pq = _marginals(p, q, cost, 2, "(N, k) blocks of one shape")
    return np.fromiter((value for _, value in _solved(pq, cost)), np.float64, len(pq))


def _marginals(p, q, cost: CostMatrix, ndim: int, shapes: str) -> np.ndarray:
    """The (N, 2, k) stack of each row pair of p and q, blocks of `ndim` axes, checked and renormalized."""
    check_type("cost", cost, CostMatrix)
    p, q = float_array(p, "transport marginals"), float_array(q, "transport marginals")
    if p.ndim != ndim or p.shape != q.shape:
        raise ValidationError(f"transport needs two {shapes}, got shapes {p.shape} and {q.shape}")
    k = p.shape[-1]
    _check_k(k)
    if cost.k != k:
        raise ValidationError(f"cost matrix is {cost.k}x{cost.k}, distributions have k={k}")
    # Pair r's p then q, in the order each pair was checked when solved alone.
    return normalized_rows(np.stack([p, q], axis=-2).reshape(-1, 2, k), "transport marginals")


def _solved(pq: np.ndarray, cost: CostMatrix):
    """Yield each marginal pair's (k, k) plan and value in turn, by the attempts the module docstring names."""
    k = pq.shape[-1]
    highs, solver = _solver()
    start, index, value, lower, upper, integrality = _model(k)
    colwise, minimize = highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize
    c = cost.c.ravel()
    for pair in pq:
        for scale, presolve in ((1.0, "on"), (_RETRY_SCALE, "on"), (_RETRY_SCALE, "off")):
            rows = pair.ravel() * scale
            if solver.passModel(k * k, 2 * k, 2 * k * k, colwise, minimize, 0.0, c, lower, upper, rows, rows,
                                start, index, value, integrality) == highs.HighsStatus.kError:
                raise ValidationError("transport solve failed: HiGHS rejected the model")
            solver.setOptionValue("presolve", presolve)
            solver.run()
            if (status := solver.getModelStatus()) != highs.HighsModelStatus.kOptimal:
                reason = f"HiGHS model status {solver.modelStatusToString(status)}"
                continue
            # Clip solver dust so the plan is a clean non-negative matrix.
            w = np.asarray(solver.getSolution().col_value) / scale
            w[np.abs(w) < 1e-15] = 0.0
            plan = w.reshape(k, k)
            # The largest marginal miss or negative entry; NaN if the plan has a NaN.
            miss = max(np.abs(np.concatenate([plan.sum(axis=1), plan.sum(axis=0)]) - pair.ravel()).max(), -w.min())
            if miss <= MARGINAL_TOL:
                break
            reason = f"plan violates its constraints by {miss:.3g}"
        else:
            raise ValidationError(f"transport solve failed: {reason}")
        # The reduction of a (1, k * k) stack, so a value has the bits it had in a block of plans.
        yield plan, (w * c).reshape(1, -1).sum(axis=1)[0]


@cache
def _model(k: int) -> tuple[np.ndarray, ...]:
    """The k x k plan's constraint matrix, column-wise (start, index, value: column i*k+j has ones in rows i and
    k+j, the row sums then the column sums), its [0, inf) column bounds and all-continuous integrality, read-only."""
    i, j = np.divmod(np.arange(k * k, dtype=np.int32), k)
    arrays = (np.arange(0, 2 * k * k + 1, 2, dtype=np.int32), np.stack([i, k + j], axis=1).ravel(),
              np.ones(2 * k * k), np.zeros(k * k), np.full(k * k, np.inf), np.zeros(k * k, dtype=np.int32))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _check_k(k: int) -> None:
    if not 2 <= check_int("k", k) <= MAX_K:
        raise ValidationError(f"transport needs 2 <= k <= {MAX_K}, got k={k}")
