import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import dist
from fairdisc import AttributeSpace, CategoricalDistribution, CostMatrix, ValidationError
from fairdisc.transport import default_cost, solve
from oracles import bruteforce_transport_cost, reference_transport


def test_default_cost_entries():
    c = default_cost(4)
    assert c.c[0, 0] == 0.0
    assert c.c[0, 1] == 0.5
    assert np.allclose(c.c, 0.5 * (1 - np.eye(4)))


def test_cost_validation():
    with pytest.raises(ValidationError):
        CostMatrix(2, np.array([[0.0, 1.0]]))
    with pytest.raises(ValidationError):
        CostMatrix(2, np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        CostMatrix(2, np.array([[0.5, 1.0], [1.0, 0.0]]))


def test_zero_cost_between_identical():
    d = dist(4, [0.4, 0.3, 0.2, 0.1])
    plan = solve(d, d, default_cost(4))
    assert plan.value <= 1e-12


def test_line_cost_example():
    # moving 0.6 of mass across a 3-bin line: 0.6 units over distance 2
    space = AttributeSpace.of_size(3)
    p = dist(space, [0.7, 0.2, 0.1])
    q = dist(space, [0.1, 0.2, 0.7])
    line = CostMatrix(3, np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0))))
    assert solve(p, q, line).value == pytest.approx(1.2, abs=1e-9)


def test_plan_marginals_match_inputs():
    rng = np.random.default_rng(7)
    space = AttributeSpace.of_size(5)
    for _ in range(20):
        p = CategoricalDistribution(space, rng.dirichlet(np.ones(5)))
        q = CategoricalDistribution(space, rng.dirichlet(np.ones(5)))
        plan = solve(p, q, default_cost(5))
        assert np.allclose(plan.w.sum(axis=1), p.p, atol=1e-9)
        assert np.allclose(plan.w.sum(axis=0), q.p, atol=1e-9)
        assert plan.w.min() >= 0.0


def test_matches_bruteforce_enumeration():
    """LP solutions equal exhaustive search over integer-unit plans."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        k = int(rng.integers(2, 5))
        denom = int(rng.integers(2, 13))
        a = rng.multinomial(denom, np.ones(k) / k)
        b = rng.multinomial(denom, np.ones(k) / k)
        c = rng.uniform(0.0, 5.0, size=(k, k))
        np.fill_diagonal(c, 0.0)
        space = AttributeSpace.of_size(k)
        p = CategoricalDistribution(space, a / denom)
        q = CategoricalDistribution(space, b / denom)
        got = solve(p, q, CostMatrix(k, c)).value
        want = bruteforce_transport_cost(a.tolist(), b.tolist(), c.tolist(), denom)
        assert got == pytest.approx(want, abs=1e-9), (a, b, c)


@settings(max_examples=60, deadline=None)
@given(p=conftest.distributions(4), q=conftest.distributions(4))
def test_symmetry_under_default_cost(p, q):
    c = default_cost(4)
    assert solve(p, q, c).value == pytest.approx(solve(q, p, c).value, abs=1e-9)


def test_k_above_64_rejected():
    with pytest.raises(ValidationError, match="k <= 64"):
        default_cost(65)
    u = np.full(65, 1.0 / 65)
    with pytest.raises(ValidationError, match="k <= 64"):
        solve(u, u, CostMatrix(65, np.zeros((65, 65))))


def _row(kind: str, k: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "dirichlet":
        return rng.dirichlet(np.full(k, 0.5))
    if kind == "zero-mass":
        row = rng.dirichlet(np.ones(k))
        row[rng.choice(k, size=int(rng.integers(1, k)), replace=False)] = 0.0
        return row / row.sum()
    if kind == "one-hot":
        return np.eye(k)[rng.integers(k)]
    if kind == "uniform":
        return np.full(k, 1.0 / k)
    # Short of 1 by 5e-10, inside the 1e-9 the library allows a distribution.
    row = rng.dirichlet(np.ones(k))
    return row * (1.0 - 5e-10)


def _cost(kind: str, k: int, rng: np.random.Generator) -> CostMatrix:
    if kind == "default":
        return default_cost(k)
    if kind == "line":
        return CostMatrix(k, np.abs(np.subtract.outer(np.arange(k), np.arange(k))).astype(float))
    c = rng.uniform(0.0, 3.0, size=(k, k))
    np.fill_diagonal(c, 0.0)
    return CostMatrix(k, c)


ROW_KINDS = ["dirichlet", "zero-mass", "one-hot", "uniform", "short"]


def _assert_matches_linprog(data, low: int, high: int) -> None:
    """solve passes HiGHS the same model and options as linprog: same plan and value, to the bit."""
    k = data.draw(st.integers(low, high), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    p = _row(data.draw(st.sampled_from(ROW_KINDS), label="p"), k, rng)
    q = _row(data.draw(st.sampled_from(ROW_KINDS), label="q"), k, rng)
    cost = _cost(data.draw(st.sampled_from(["default", "line", "random"]), label="cost"), k, rng)
    plan = solve(p, q, cost)
    w, value = reference_transport(p, q, cost.c)
    assert np.array_equal(plan.w, w)
    assert plan.value == value


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_matches_linprog_k_2_to_8(data):
    _assert_matches_linprog(data, 2, 8)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_solve_matches_linprog_k_9_to_24(data):
    _assert_matches_linprog(data, 9, 24)


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_solve_matches_linprog_k_25_to_64(data):
    _assert_matches_linprog(data, 25, 64)


@pytest.mark.parametrize("k", [2, 3, 16, 64])
def test_solve_matches_linprog_on_n_factor_inputs(k):
    """One-hot against uniform in both orders, the rows n_factor scores, at both ends of k."""
    u = np.full(k, 1.0 / k)
    for hot in (0, k - 1):
        e = np.eye(k)[hot]
        for p, q in ((e, u), (u, e)):
            plan = solve(p, q, default_cost(k))
            w, value = reference_transport(p, q, default_cost(k).c)
            assert np.array_equal(plan.w, w)
            assert plan.value == value


def test_solve_does_not_depend_on_earlier_solves():
    """A, B at another k, C at A's k, then A again: both A plans are bit-equal, so no solver state carries over."""
    rng = np.random.default_rng(5)
    a = (rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6)), default_cost(6))
    b = (rng.dirichlet(np.ones(9)), np.full(9, 1.0 / 9), _cost("random", 9, rng))
    c = (np.eye(6)[2], rng.dirichlet(np.ones(6)), _cost("line", 6, rng))
    first = solve(*a)
    solve(*b)
    solve(*c)
    again = solve(*a)
    assert np.array_equal(first.w, again.w)
    assert first.value == again.value


def test_unequal_mass_fails_with_validation_error():
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.25])
    with pytest.raises(ValidationError, match="transport solve failed"):
        solve(p, q, default_cost(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_marginals_rejected(bad):
    p = np.array([bad, 0.5])
    with pytest.raises(ValidationError, match="must be finite"):
        solve(p, np.array([0.5, 0.5]), default_cost(2))
    with pytest.raises(ValidationError, match="must be finite"):
        solve(np.array([0.5, 0.5]), p, default_cost(2))
