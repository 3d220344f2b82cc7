import numpy as np
import pytest
from hypothesis import given, settings

import conftest
from conftest import dist
from fairdisc import AttributeSpace, CategoricalDistribution, CostMatrix, ValidationError
from fairdisc.transport import default_cost, solve
from oracles import bruteforce_transport_cost


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
