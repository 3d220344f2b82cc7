import os
import pathlib
import subprocess
import sys
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import dist
from fairdisc import AttributeSpace, CategoricalDistribution, CostMatrix, ValidationError, metrics, transport
from fairdisc.metrics import l1
from fairdisc.transport import _HIGHS_MODULE, _RETRY_SCALE, MARGINAL_TOL, default_cost, solve
from oracles import bruteforce_transport_cost, reference_transport

TESTS = pathlib.Path(__file__).resolve().parent
# Child interpreters import the package from the source tree and the oracles from this directory.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(TESTS.parent / "src"), str(TESTS),
                                                                 os.environ.get("PYTHONPATH")]))}


def run_python(code: str) -> None:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr


def test_default_cost_entries():
    c = default_cost(4)
    assert c.c[0, 0] == 0.0
    assert c.c[0, 1] == 0.5
    assert np.allclose(c.c, 0.5 * (1 - np.eye(4)))


def test_cost_validation():
    with pytest.raises(ValidationError):
        CostMatrix(np.array([[0.0, 1.0]]))
    with pytest.raises(ValidationError):
        CostMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        CostMatrix(np.array([[0.5, 1.0], [1.0, 0.0]]))


def test_zero_cost_between_identical():
    d = dist(4, [0.4, 0.3, 0.2, 0.1])
    plan = solve(d, d, default_cost(4))
    assert plan.value <= 1e-12


def test_line_cost_example():
    # moving 0.6 of mass across a 3-bin line: 0.6 units over distance 2
    space = AttributeSpace.of_size(3)
    p = dist(space, [0.7, 0.2, 0.1])
    q = dist(space, [0.1, 0.2, 0.7])
    line = CostMatrix(np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0))))
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
        got = solve(p, q, CostMatrix(c)).value
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
        solve(u, u, CostMatrix(np.zeros((65, 65))))


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
        return CostMatrix(np.abs(np.subtract.outer(np.arange(k), np.arange(k))).astype(float))
    c = rng.uniform(0.0, 3.0, size=(k, k))
    np.fill_diagonal(c, 0.0)
    return CostMatrix(c)


ROW_KINDS = ["dirichlet", "zero-mass", "one-hot", "uniform", "short"]


def _assert_matches_linprog(data, low: int, high: int) -> None:
    """solve passes HiGHS the same model and options as linprog: same plan and value, to the bit."""
    k = data.draw(st.integers(low, high), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    p = _row(data.draw(st.sampled_from(ROW_KINDS), label="p"), k, rng)
    q = _row(data.draw(st.sampled_from(ROW_KINDS), label="q"), k, rng)
    cost = _cost(data.draw(st.sampled_from(["default", "line", "random"]), label="cost"), k, rng)
    plan = solve(p, q, cost)
    w, value = _reference_solve(_renormalized(p), _renormalized(q), cost.c)
    assert np.array_equal(plan.w, w)
    assert plan.value == value


def _renormalized(row: np.ndarray) -> np.ndarray:
    """The marginal solve solves on: divided by its sum where that sum is off 1 by more than 1e-12."""
    return row / row.sum() if abs(row.sum() - 1.0) > 1e-12 else row


def test_short_marginal_is_renormalized_before_it_is_solved():
    # p is 5e-10 short of 1 and q sums to 1; on these masses as given, HiGHS called the LP infeasible.
    rng = np.random.default_rng(40853605)
    p, q = _row("short", 9, rng), _row("dirichlet", 9, rng)
    plan = solve(p, q, default_cost(9))
    w, value = _reference_solve(_renormalized(p), _renormalized(q), default_cost(9).c)
    assert np.array_equal(plan.w, w)
    assert plan.value == value


def _violation(w, p, q) -> float:
    return max(np.abs(w.sum(axis=1) - p).max(), np.abs(w.sum(axis=0) - q).max(), -w.min())


def _reference_solve(p, q, c) -> tuple[np.ndarray, float]:
    """The oracle's plan and cost; where linprog fails or its plan is off by more than MARGINAL_TOL,
    solve's retry: the oracle on the marginals scaled by _RETRY_SCALE, divided back and dust-clipped."""
    try:
        w, value = reference_transport(p, q, c)
        if _violation(w, p, q) <= MARGINAL_TOL:
            return w, value
    except AssertionError:  # linprog found no optimum
        pass
    w, _ = reference_transport(p * _RETRY_SCALE, q * _RETRY_SCALE, c)
    w = w / _RETRY_SCALE
    w = np.where(np.abs(w) < 1e-15, 0.0, w)
    return w, float(np.sum(w * c))


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


def _sparse_row(data, k: int, rng: np.random.Generator, label: str) -> np.ndarray:
    """A Dirichlet(0.05..0.1) row, some with one entry set as low as 1e-30, then renormalized."""
    row = rng.dirichlet(np.full(k, data.draw(st.floats(0.05, 0.1), label=f"{label} concentration")))
    exponent = data.draw(st.none() | st.floats(8.0, 30.0), label=f"{label} tiny entry exponent")
    if exponent is not None:
        row[data.draw(st.integers(0, k - 1), label=f"{label} tiny entry")] = 10.0 ** -exponent
    return row / row.sum()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_plans_meet_marginals_and_cost_l1(data):
    """HiGHS can leave entries below its 1e-7 tolerance unmet; solve's plan still meets both marginals."""
    k = data.draw(st.integers(2, 64), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    p, q = _sparse_row(data, k, rng, "p"), _sparse_row(data, k, rng, "q")
    cost = data.draw(st.sampled_from(["default", "line", "random"]), label="cost")
    plan = solve(p, q, _cost(cost, k, rng))
    assert np.abs(plan.w.sum(axis=1) - p).max() <= MARGINAL_TOL
    assert np.abs(plan.w.sum(axis=0) - q).max() <= MARGINAL_TOL
    assert plan.w.min() >= -MARGINAL_TOL
    if cost == "default":
        # Marginals met within MARGINAL_TOL move the optimal cost, l1 under this cost, by at most 2 * MARGINAL_TOL.
        assert abs(plan.value - l1(p, q)) <= 2 * MARGINAL_TOL


RETRY_CASES = {
    # HiGHS leaves the 4.5e-08 row entry unmet.
    "unmet-entry": ([0.956240768747121, 0.0007661392069729324, 0.042993047321408566, 4.472449743633052e-08],
                    [0.25] * 4),
    # HiGHS meets both marginals with a plan entry of -1.5e-08.
    "negative-entry": ([5.222786166677077e-07, 1.4629154426641895e-08, 0.9999994630922289],
                       [5.385078046965402e-13, 6.717536932026284e-27, 0.9999999999994615]),
}


@pytest.mark.parametrize("p,q", RETRY_CASES.values(), ids=RETRY_CASES)
def test_plans_off_by_more_than_tolerance_are_solved_again(p, q):
    p, q = np.array(p), np.array(q)
    plan = solve(p, q, default_cost(len(p)))
    assert np.abs(plan.w.sum(axis=1) - p).max() <= MARGINAL_TOL
    assert np.abs(plan.w.sum(axis=0) - q).max() <= MARGINAL_TOL
    assert plan.w.min() >= 0.0
    assert abs(plan.value - l1(p, q)) <= 1e-15


@pytest.mark.parametrize("k", [2, 3, 4, 8, 16, 32, 64])
def test_wd_block_equals_the_oracle_and_solve_row_by_row(k):
    """metrics.wd solves a whole block at once; each of its values is linprog's and solve's for that pair alone."""
    rng = np.random.default_rng(k)
    u, first, last = np.full(k, 1.0 / k), np.eye(k)[0], np.eye(k)[k - 1]
    p = np.vstack([rng.dirichlet(np.ones(k), size=6), u, first, last, u, first])
    q = np.vstack([rng.dirichlet(np.full(k, 0.5), size=6), first, u, u, u, last])
    cost = default_cost(k)
    values = metrics.wd(p, q)
    assert values.shape == (len(p),)
    for value, a, b in zip(values, p, q, strict=True):
        assert value == reference_transport(a, b, cost.c)[1]
        assert value == solve(a, b, cost).value


class _RecordedRuns:
    """This thread's solver, recording the marginals passed and the presolve option of each LP it runs."""

    def __init__(self, solver):
        self._solver, self._rows, self.runs = solver, None, []

    def __getattr__(self, name):
        return getattr(self._solver, name)

    def passModel(self, *model):
        self._rows = np.array(model[9])
        return self._solver.passModel(*model)

    def run(self):
        self.runs.append((self._rows, self._solver.getOptionValue("presolve")[1]))
        return self._solver.run()


def _recorded(monkeypatch) -> _RecordedRuns:
    highs, solver = transport._solver()
    recorded = _RecordedRuns(solver)
    monkeypatch.setattr(transport._THREAD, "solver", (highs, recorded))
    return recorded


def test_retry_case_in_the_middle_of_a_block_gets_the_value_solve_gives(monkeypatch):
    p0, q0 = RETRY_CASES["unmet-entry"]
    rng = np.random.default_rng(29)
    p, q = rng.dirichlet(np.ones(4), size=7), rng.dirichlet(np.ones(4), size=7)
    p[3], q[3] = p0, q0
    recorded = _recorded(monkeypatch)
    values = metrics.wd(p, q)
    pairs, passes = np.hstack([p, q]), []
    for rows, _ in recorded.runs:
        scale = _RETRY_SCALE if rows.sum() > 2 else 1.0
        passes.append((next(r for r, pair in enumerate(pairs) if np.array_equal(rows, pair * scale)), scale))
    # Each pair is passed at scale 1 in turn; only the unmet-entry pair is passed again, right after its first pass.
    assert passes == [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (3, _RETRY_SCALE), (4, 1.0), (5, 1.0), (6, 1.0)]
    assert values[3] == solve(p0, q0, default_cost(4)).value
    for value, a, b in zip(values, p, q, strict=True):
        assert value == solve(a, b, default_cost(4)).value


# HiGHS leaves a marginal off by more than MARGINAL_TOL at scale 1 and calls the LP infeasible at _RETRY_SCALE.
SPARSE_AGAINST_ONE_HOT = ([3.07471233431779e-14, 2.5510074030535943e-08, 0.09917765998886616, 0.11730133295954269,
                           8.061619386642187e-23, 0.783520981541414, 4.779038388004067e-25, 7.243496798486754e-14],
                          np.eye(8)[0])


def _sparse_against_one_hot(seed: int):
    """Five pairs at k = 4..64: a Dirichlet row with about half its entries set to 10^-U(8, 30), then renormalized,
    and a one-hot row on one of those tiny outcomes."""
    rng = np.random.default_rng(seed)
    for _ in range(5):
        k = int(rng.integers(4, 65))
        p = rng.dirichlet(np.ones(k))
        tiny = rng.random(k) < 0.5
        tiny[rng.integers(k)] = True
        p[tiny] = 10.0 ** -rng.uniform(8, 30, size=int(tiny.sum()))
        yield p / p.sum(), np.eye(k)[rng.choice(np.flatnonzero(tiny))]


def _assert_meets_marginals_and_costs_l1(p, q) -> None:
    plan = solve(p, q, default_cost(len(p)))
    assert np.abs(plan.w.sum(axis=1) - p).max() <= MARGINAL_TOL
    assert np.abs(plan.w.sum(axis=0) - q).max() <= MARGINAL_TOL
    assert plan.w.min() >= -MARGINAL_TOL
    assert abs(plan.value - l1(p, q)) <= 1e-9


def test_lp_missed_at_both_scales_is_solved_without_presolve(monkeypatch):
    p, q = np.array(SPARSE_AGAINST_ONE_HOT[0]), SPARSE_AGAINST_ONE_HOT[1]
    recorded = _recorded(monkeypatch)
    _assert_meets_marginals_and_costs_l1(p, q)
    assert [(rows.sum() > 2, presolve) for rows, presolve in recorded.runs] == [(False, "on"), (True, "on"),
                                                                               (True, "off")]
    # Presolve is back on for the next LP.
    solve(np.eye(3)[0], np.full(3, 1.0 / 3), default_cost(3))
    assert recorded.runs[-1][1] == "on"


# Each attempt on an LP: its scale and the presolve option it names.
LADDER = [(1.0, "on"), (_RETRY_SCALE, "on"), (_RETRY_SCALE, "off")]


def _attempts(runs) -> list[list[tuple]]:
    """The recorded runs as (scale, presolve) per LP: each LP starts with a run at scale 1, whose marginals sum to 2."""
    lps = []
    for rows, presolve in runs:
        scale = _RETRY_SCALE if rows.sum() > 2 else 1.0
        if scale == 1.0:
            lps.append([])
        lps[-1].append((scale, presolve))
    return lps


def test_every_attempt_runs_with_the_presolve_option_its_rung_names(monkeypatch):
    """The mixed LPs take one, two and three attempts; the rung-n attempt of each runs with the option LADDER names."""
    recorded = _recorded(monkeypatch)
    for lp in _mixed_lps(np.random.default_rng(31)):
        solve(*lp)
    lps = _attempts(recorded.runs)
    assert len(lps) == 5
    assert sorted({len(attempts) for attempts in lps}) == [1, 2, 3]
    for attempts in lps:
        assert attempts == LADDER[:len(attempts)]


def test_an_lp_missed_at_every_rung_runs_each_rung_once(monkeypatch):
    highs, solver = transport._solver()
    recorded = _RecordedRuns(_SkippedRun(solver, highs.HighsModelStatus.kInfeasible))
    monkeypatch.setattr(transport._THREAD, "solver", (highs, recorded))
    with pytest.raises(ValidationError, match="^transport solve failed: HiGHS model status Infeasible$"):
        metrics.wd(np.eye(3)[:2], np.full((2, 3), 1.0 / 3))
    assert _attempts(recorded.runs) == [LADDER]


class _FailsWithoutPresolve(_RecordedRuns):
    """This thread's solver, recording its runs, whose `run` raises when presolve is off."""

    def run(self):
        if self._solver.getOptionValue("presolve")[1] == "off":
            raise RuntimeError("run failed without presolve")
        return super().run()


def test_a_run_that_raises_without_presolve_leaves_no_option_behind(monkeypatch):
    """The sparse-against-one-hot LP reaches the presolve-off rung, whose run raises. The next LP on this thread
    still runs its first attempt with presolve on, and its plan is the one a fresh thread's solver gives."""
    highs, solver = transport._solver()
    failing = _FailsWithoutPresolve(solver)
    monkeypatch.setattr(transport._THREAD, "solver", (highs, failing))
    with pytest.raises(RuntimeError, match="^run failed without presolve$"):
        solve(np.array(SPARSE_AGAINST_ONE_HOT[0]), SPARSE_AGAINST_ONE_HOT[1], default_cost(8))
    rng = np.random.default_rng(41)
    lp = (rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6)), default_cost(6))
    before = len(failing.runs)
    plan = solve(*lp)
    assert failing.runs[before][1] == "on"
    with ThreadPoolExecutor(1) as pool:
        fresh = pool.submit(solve, *lp).result(timeout=120)
    assert np.array_equal(plan.w, fresh.w)
    assert plan.value == fresh.value


def test_sparse_rows_against_one_hot_rows_meet_marginals_and_cost_l1():
    """Seeds 0..29 of the family hold 13 pairs that HiGHS missed at scale 1 and called infeasible at _RETRY_SCALE."""
    for seed in range(30):
        for p, q in _sparse_against_one_hot(seed):
            _assert_meets_marginals_and_costs_l1(p, q)


def test_block_errors_name_the_kind_of_error_before_the_row():
    """The block is checked as one: a negative entry in a later pair is named before a bad sum in an earlier one."""
    p, q = np.full((4, 2), 0.5), np.full((4, 2), 0.5)
    p[1] = [0.5, 0.6]
    with pytest.raises(ValidationError, match=r"^transport marginals sum to 1\.1, expected 1$"):
        metrics.wd(p, q)
    q[3] = [1.5, -0.5]
    with pytest.raises(ValidationError, match=r"^transport marginals must be non-negative$"):
        metrics.wd(p, q)


class _SkippedRun:
    """This thread's solver with `run` skipped: every LP gets `status`, and an optimal plan is `plan` (flat), all
    zeros by default."""

    def __init__(self, solver, status, plan=None):
        self._solver, self._status, self._plan = solver, status, plan

    def __getattr__(self, name):
        return getattr(self._solver, name)

    def run(self):
        pass

    def getModelStatus(self):
        return self._status

    def getSolution(self):
        return types.SimpleNamespace(col_value=[0.0] * self._solver.getNumCol() if self._plan is None else self._plan)


@pytest.mark.parametrize("status,reason", [("kInfeasible", "HiGHS model status Infeasible"),
                                           ("kOptimal", "plan violates its constraints by 1")])
def test_an_lp_missed_twice_fails_with_the_reason_of_its_retry(monkeypatch, status, reason):
    highs, solver = transport._solver()
    skipped = _SkippedRun(solver, getattr(highs.HighsModelStatus, status))
    monkeypatch.setattr(transport._THREAD, "solver", (highs, skipped))
    with pytest.raises(ValidationError, match=f"^transport solve failed: {reason}$"):
        metrics.wd(np.eye(3), np.full(3, 1.0 / 3))
    with pytest.raises(ValidationError, match=f"^transport solve failed: {reason}$"):
        solve(np.eye(3)[0], np.full(3, 1.0 / 3), default_cost(3))


def test_solve_rows_holds_one_plan_at_a_time(monkeypatch):
    """1,000 pairs at k = 64 peak under 8 MiB. Each LP skips `run` and replays one solved pair's plan, which keeps
    HiGHS's time out of the test."""
    k = 64
    rng = np.random.default_rng(37)
    p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
    want = solve(p, q, default_cost(k))
    highs, solver = transport._solver()
    replayed = _SkippedRun(solver, highs.HighsModelStatus.kOptimal, want.w.ravel().tolist())
    monkeypatch.setattr(transport._THREAD, "solver", (highs, replayed))
    p, q = np.tile(p, (1000, 1)), np.tile(q, (1000, 1))
    tracemalloc.start()
    try:
        values = transport.solve_rows(p, q, default_cost(k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"
    assert (values == want.value).all()


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


def _mixed_lps(rng: np.random.Generator) -> list[tuple]:
    """B, a random-cost LP at k = 9; C, a line-cost LP at k = 6; a k = 64 LP; the retry path's unmet-entry case;
    the sparse-against-one-hot case, whose last attempt runs without presolve."""
    p, q = RETRY_CASES["unmet-entry"]
    return [(rng.dirichlet(np.ones(9)), np.full(9, 1.0 / 9), _cost("random", 9, rng)),
            (np.eye(6)[2], rng.dirichlet(np.ones(6)), _cost("line", 6, rng)),
            (rng.dirichlet(np.ones(64)), np.full(64, 1.0 / 64), default_cost(64)),
            (np.array(p), np.array(q), default_cost(4)),
            (np.array(SPARSE_AGAINST_ONE_HOT[0]), SPARSE_AGAINST_ONE_HOT[1], default_cost(8))]


def test_solve_does_not_depend_on_earlier_solves():
    """A at k = 6, the mixed LPs, then A again: both A plans are bit-equal to linprog's, so no solver state
    carries over from one solve to the next."""
    rng = np.random.default_rng(5)
    a = (rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6)), default_cost(6))
    want, value = reference_transport(*a[:2], a[2].c)
    first = solve(*a)
    for lp in _mixed_lps(rng):
        solve(*lp)
    again = solve(*a)
    for plan in (first, again):
        assert np.array_equal(plan.w, want)
        assert plan.value == value


def test_threads_solving_at_once_get_the_serial_plans():
    """Each thread has its own solver: every plan of threads that solve at once is bit-equal to the serial plan."""
    lps = _mixed_lps(np.random.default_rng(23))
    serial = [solve(*lp) for lp in lps]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(lambda: [solve(*lp) for lp in lps + lps]) for _ in range(4)]
            plans = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in plans:
        for plan, want in zip(got, serial + serial, strict=True):
            assert np.array_equal(plan.w, want.w)
            assert plan.value == want.value


def test_unequal_mass_fails_with_validation_error():
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.25])
    with pytest.raises(ValidationError, match=r"^transport marginals sum to 0\.5, expected 1$"):
        solve(p, q, default_cost(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_marginals_rejected(bad):
    p = np.array([bad, 0.5])
    with pytest.raises(ValidationError, match="must be finite"):
        solve(p, np.array([0.5, 0.5]), default_cost(2))
    with pytest.raises(ValidationError, match="must be finite"):
        solve(np.array([0.5, 0.5]), p, default_cost(2))


def test_commands_without_lps_load_no_scipy():
    run_python(f"""
import sys
from fairdisc.cli import main
for argv in (["sweep", "--k", "4"], ["ep"], ["nfactor"], ["score", {str(TESTS / "golden" / "skewed-k4.json")!r}, "--raw"]):
    assert main(argv + ["--metrics", "l1,l2,spec,is"]) == 0, argv
assert "scipy" not in sys.modules
""")


def test_wd_loads_only_the_highs_extension():
    run_python("""
import sys
import numpy as np
from fairdisc import metrics
assert metrics.wd(np.eye(3)[0], np.full(3, 1 / 3)) > 0
assert "scipy.optimize._highspy._core" in sys.modules
assert "scipy.optimize" not in sys.modules
""")


def test_cli_solves_lps_without_scipy_optimize():
    # scipy.optimize's package init loads scipy.linalg and scipy.sparse; transport loads only the HiGHS extension.
    run_python("""
import sys
import fairdisc.cli
from fairdisc import transport
calls = []
solve_rows = transport.solve_rows
transport.solve_rows = lambda *args: calls.append(1) or solve_rows(*args)
assert fairdisc.cli.main(["bench", "--classifier", "set2", "--k", "2"]) == 0
assert calls, "bench solved no LP"
loaded = [name for name in ("scipy.optimize", "scipy.linalg", "scipy.sparse") if name in sys.modules]
assert loaded == [], loaded
assert "scipy.optimize._highspy._core" in sys.modules
""")


# Here scipy.optimize is imported first. In the tier-1 session conftest imports fairdisc before oracles imports
# linprog, so there scipy.optimize finds the extension transport loaded from its file, and every test that
# checks solve against oracles.reference_transport covers that order.
def test_scipy_optimize_imported_first_shares_the_extension():
    run_python("""
import sys
import numpy as np
import scipy.optimize
from fairdisc import transport
from oracles import reference_transport
core = sys.modules["scipy.optimize._highspy._core"]
rng = np.random.default_rng(17)
for k in (2, 3, 8, 16):
    p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
    plan = transport.solve(p, q, transport.default_cost(k))
    w, value = reference_transport(p, q, transport.default_cost(k).c)
    assert np.array_equal(plan.w, w) and plan.value == value, k
assert transport._solver()[0] is core is sys.modules["scipy.optimize._highspy._core"]
""")


# After a solve the extension is in sys.modules but not an attribute of its package, so the attribute path
# scipy.optimize._highspy._core does not resolve; these forms do.
def test_scipy_imports_after_a_solve_get_the_loaded_extension():
    run_python("""
import sys
import numpy as np
from fairdisc import transport
transport.solve(np.eye(3)[0], np.full(3, 1 / 3), transport.default_cost(3))
core = sys.modules["scipy.optimize._highspy._core"]
from scipy.optimize._highspy import _core
from scipy.optimize import linprog
assert _core is core
assert linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs").x.tolist() == [1.0, 0.0]
""")


def test_missing_highs_extension_names_its_directory(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, _HIGHS_MODULE, raising=False)
    monkeypatch.setitem(sys.modules, "scipy", types.SimpleNamespace(__file__=str(tmp_path / "__init__.py")))
    with pytest.raises(ImportError, match=f"not in {tmp_path / 'optimize' / '_highspy'}$"):
        transport._load_highs()
