"""Fuzz the library: every callable in `fairdisc.__all__` on arguments drawn from a pool of bad values, or, for a
parameter named in GOOD, as often from its one good value.

Each call must return, or raise a ValidationError or an OSError whose message is one line. Any other exception fails,
and so does a warning, which the test configuration turns into an error.
"""

import enum
import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairdisc
from fairdisc import EXPECTATION, AttributeSpace, Metric, ValidationError, default_cost, perfect

BAD_VALUES = [
    None, "x", "", True, False, -1, 0,
    float("nan"), float("inf"), float("-inf"), 10**400,
    1 + 2j, np.complex128(0.5 + 0.1j), [np.complex128(0.5 + 0.1j), Fraction(1, 2)],
    [[0.5, 0.5], [1.0]], [], [[]], np.array(0.5), np.array([]), np.array(1.0),
    # Rows of k = 3 beside objects of k = 2, and rows that are not distributions.
    [0.2, 0.3, 0.5], np.full((3, 3), 1 / 3), [0.9, 0.9], [2.0, -1.0], [np.nan, np.nan], [10**400, 0],
    # Objects of the wrong class for most parameters.
    object(), AttributeSpace.of_size(2), perfect(2), default_cost(2), Metric.L1, EXPECTATION,
]
# A good value for a parameter of this name, drawn as often as a bad one, so that a call gets past its first checks.
GOOD = {"k": 2, "model": perfect(2), "models": [perfect(2)], "mode": EXPECTATION, "metric": Metric.L1,
        "metrics": (Metric.L1,), "p": [0.5, 0.5], "q": [0.5, 0.5], "rows": [0.5, 0.5], "f": [0.5], "f_star": [0.5],
        "step": 0.5, "trials": 1, "starts": 0, "eps": 0.1, "acc": [0.9, 0.9], "cost": default_cost(2),
        "space": AttributeSpace.of_size(2), "name": "set2", "spec": "perfect", "base_seed": 1, "precision": 6}
CALLABLES = [name for name in fairdisc.__all__ if callable(getattr(fairdisc, name))]


def parameters(fn) -> tuple[list[str], int]:
    """The names of the positional parameters to draw for `fn`, and how many of them it requires: one value for an
    Enum class, or for a callable without a signature (an exception class); one more when it takes *args."""
    if isinstance(fn, enum.EnumMeta):
        return ["value"], 1
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:
        return ["value"], 1
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    extra = [p.name for p in params if p.kind is p.VAR_POSITIONAL]
    return [p.name for p in positional] + extra, sum(p.default is p.empty for p in positional)


@pytest.mark.parametrize("name", CALLABLES)
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_every_call_returns_or_raises_one_line_error(name, data):
    fn = getattr(fairdisc, name)
    names, required = parameters(fn)
    n_args = data.draw(st.integers(required, len(names)), label="n_args")
    bad = st.sampled_from(BAD_VALUES)
    args = [data.draw(st.one_of(st.just(GOOD[n]), bad) if n in GOOD else bad, label=n) for n in names[:n_args]]
    try:
        fn(*args)
    except (ValidationError, OSError) as exc:
        assert "\n" not in str(exc), str(exc)
