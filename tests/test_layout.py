"""The same values score with the same bits whatever the caller's memory layout, and no input is written: rows and
confusion matrices given F-ordered, row- or column-strided, broadcast, read-only or as a nested list score as their
C-contiguous copy does. `attrspace.float_rows` reads C-contiguous float64 rows in place and every other layout
through one C-ordered copy."""

import numpy as np
import pytest

from fairdisc import EXPECTATION, ConfusionModel, CostMatrix, Metric, Sampled, default_cost, estimate, run_sweep
from fairdisc.attrspace import float_rows
from fairdisc.metrics import REPORT_ORDER, delta_specificity, fd_score, info_specificity, l1, l2, raw_score, specificity, wd


def _row_strided(a):
    out = np.zeros((2 * len(a), a.shape[1]))
    out[::2] = a
    return out[::2]


def _column_strided(a):
    out = np.zeros((len(a), 2 * a.shape[1]))
    out[:, ::2] = a
    return out[:, ::2]


def _read_only(a):
    out = a.copy()
    out.setflags(write=False)
    return out


LAYOUTS = {"fortran": np.asfortranarray, "row-strided": _row_strided, "column-strided": _column_strided,
           "broadcast": lambda a: np.broadcast_to(a[-1], a.shape), "read-only": _read_only, "list": np.ndarray.tolist}


def _bits(result):
    """`result` as comparable bits: dicts and tuples item by item, arrays by dtype, shape and bytes."""
    if isinstance(result, dict):
        return {key: _bits(value) for key, value in result.items()}
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    result = np.asarray(result)
    return result.dtype, result.shape, result.tobytes()


def _same_as_c_copy(name, call, laid_out):
    """`call(laid_out)` has the bits of `call` on a C-contiguous copy of the same values, and leaves `laid_out` as it was."""
    before = np.array(laid_out)
    got = _bits(call(laid_out))
    assert np.array_equal(np.array(laid_out), before), name
    assert got == _bits(call(np.ascontiguousarray(before))), name


def _rows_calls(k: int):
    """Each call that reads one (8, k) block of rows, by name, with its other inputs fixed and C-ordered."""
    rng = np.random.default_rng(k)
    model = ConfusionModel(rng.dirichlet(np.ones(k), size=k))
    q = rng.dirichlet(np.full(k, 0.5), size=8)
    calls = {"estimate-expectation": lambda x: estimate(model, x),
             "estimate-sampled": lambda x: estimate(model, x, Sampled(1000, 3), list(range(8))),
             "specificity": specificity}
    for measure in (l1, l2, wd, delta_specificity, info_specificity):
        calls[measure.__name__] = lambda x, measure=measure: (measure(x, q), measure(q, x))
    for metric in REPORT_ORDER:
        calls[f"raw_score-{metric}"] = lambda x, metric=metric: raw_score(metric, x)
        calls[f"fd_score-{metric}"] = lambda x, metric=metric: fd_score(metric, x)
    return rng.dirichlet(np.full(k, 0.5), size=8), calls


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("k", [4, 16, 64])
def test_rows_in_any_layout_score_as_their_c_copy(k, layout):
    rows, calls = _rows_calls(k)
    for name, call in calls.items():
        _same_as_c_copy(name, call, LAYOUTS[layout](rows))


def _model_calls(k: int):
    """Each call that reads a k x k confusion matrix, by name: estimates and a sweep start, in both modes."""
    rows = np.random.default_rng(k + 1).dirichlet(np.full(k, 0.5), size=8)
    metrics = (Metric.L1, Metric.L2, Metric.SPECIFICITY, Metric.INFO_SPECIFICITY)
    return {"estimate-expectation": lambda m: estimate(ConfusionModel(m), rows),
            "estimate-sampled": lambda m: estimate(ConfusionModel(m), rows, Sampled(1000, 3), list(range(8))),
            "run_sweep-expectation": lambda m: run_sweep(ConfusionModel(m), EXPECTATION, metrics, 1.0 / k, 1),
            "run_sweep-sampled": lambda m: run_sweep(ConfusionModel(m), Sampled(1000, 3), metrics, 1.0 / k, 1)}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("k", [4, 16, 64])
def test_a_confusion_matrix_in_any_layout_estimates_as_its_c_copy(k, layout):
    m = np.random.default_rng(k).dirichlet(np.ones(k), size=k)
    for name, call in _model_calls(k).items():
        _same_as_c_copy(name, call, LAYOUTS[layout](m))


def test_models_and_costs_store_their_matrix_in_c_order():
    m = np.asfortranarray(np.random.default_rng(0).dirichlet(np.ones(4), size=4))
    assert ConfusionModel(m).m.flags.c_contiguous
    assert CostMatrix(np.asfortranarray(default_cost(4).c)).c.flags.c_contiguous


class _Subclass(np.ndarray):
    pass


def test_float_rows_reads_c_contiguous_float64_rows_in_place():
    rows = np.random.default_rng(0).dirichlet(np.ones(4), size=3)
    assert float_rows(rows) is rows
    for other in (np.asfortranarray(rows), rows[:, ::-1], rows.astype(np.float32), rows.view(_Subclass), rows.tolist()):
        got = float_rows(other)
        assert got is not other and type(got) is np.ndarray and got.dtype == np.float64 and got.flags.c_contiguous
