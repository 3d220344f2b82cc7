import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import dist
from fairdisc import (
    ConfusionModel,
    Metric,
    ValidationError,
    estimate,
    uniform_noise,
)
from fairdisc.attrspace import MAX_OUTCOMES
from fairdisc.metrics import (
    REPORT_ORDER,
    delta_specificity,
    fd_score,
    info_specificity,
    l1,
    l2,
    n_factor,
    parse_metrics,
    raw_score,
    specificity,
    wd,
)
from oracles import sorted_spread

ALL_KS = (2, 4, 8, 16)


@st.composite
def score_rows(draw):
    """(k, row) for k in 2..64, the largest k every metric takes: a one-hot row, a row one ulp
    off one-hot, or a Dirichlet row of small concentration."""
    k = draw(st.integers(2, 64))
    i = draw(st.integers(0, k - 1))
    kind = draw(st.sampled_from(["one-hot", "off-one-hot", "dirichlet"]))
    if kind == "dirichlet":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return k, rng.dirichlet(np.full(k, draw(st.sampled_from([0.05, 0.3, 1.0]))))
    row = np.eye(k)[i]
    if kind == "off-one-hot":
        row[i] = np.nextafter(1.0, 0.0)
        row[(i + 1) % k] = 1.0 - row[i]
    return k, row


class TestParseMetrics:
    def test_all_expands_in_report_order(self):
        assert parse_metrics("all") == REPORT_ORDER

    def test_subset(self):
        assert parse_metrics("l1,spec") == (Metric.L1, Metric.SPECIFICITY)

    def test_each_metric_once_in_the_order_first_given(self):
        assert parse_metrics("spec,l1,SPEC, l1,L1") == (Metric.SPECIFICITY, Metric.L1)

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            parse_metrics("l1,tvd")


class TestPointwiseMetrics:
    def test_l1_hand_values(self):
        assert l1(dist(2, [1, 0]), dist(2, [0, 1])) == 1.0
        assert l1(dist(2, [0.5, 0.5]), dist(2, [0.9, 0.1])) == pytest.approx(0.4)

    def test_l2_hand_values(self):
        assert l2(dist(2, [1, 0]), dist(2, [0, 1])) == pytest.approx(math.sqrt(2) / 2)
        assert l2(dist(2, [0.5, 0.5]), dist(2, [0.9, 0.1])) == pytest.approx(0.2828427, abs=1e-6)

    def test_identical_inputs_are_zero(self, space):
        d = np.full(space.k, 1.0 / space.k)
        for m in REPORT_ORDER:
            assert raw_score(m, d) <= 1e-12

    def test_space_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            l1(dist(2, [1, 0]), dist(3, [1, 0, 0]))


class TestSpecificity:
    def test_uniform_is_zero(self, space):
        assert specificity(np.full(space.k, 1.0 / space.k)) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_is_one(self, space):
        assert specificity(np.eye(space.k)[0]) == 1.0

    def test_k2_is_absolute_difference(self):
        assert specificity(dist(2, [0.7, 0.3])) == pytest.approx(0.4)

    def test_k4_hand_value(self):
        # weights 2/3, 1/3, 0 over the sorted tail
        want = 0.4 - (2 / 3 * 0.3 + 1 / 3 * 0.2)
        assert specificity(dist(4, [0.4, 0.3, 0.2, 0.1])) == pytest.approx(want)

    def test_permutation_invariant(self):
        assert specificity(dist(4, [0.1, 0.4, 0.2, 0.3])) == pytest.approx(
            specificity(dist(4, [0.4, 0.3, 0.2, 0.1])))

    @settings(max_examples=80, deadline=None)
    @given(p=conftest.distributions(6))
    def test_matches_oracle(self, p):
        assert specificity(p) == pytest.approx(sorted_spread(p.p.tolist()), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(p=conftest.distributions(5))
    def test_non_negative_and_bounded(self, p):
        assert -1e-12 <= specificity(p) <= 1.0 + 1e-12

    def test_zero_without_uniformity(self):
        # the spread can vanish off-uniform; only the converse direction holds
        assert specificity(dist(4, [1 / 3, 1 / 3, 1 / 3, 0])) == pytest.approx(0.0, abs=1e-12)


class TestSpecificityBlindSpot:
    """spec weighs the sorted entries 2..k by (k - j), so the smallest entry has weight 0: it cannot see how small
    the rarest class is, and scores every row whose k - 1 largest entries are equal as fair."""

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(3, 64), seed=st.integers(0, 2**32 - 1), lowered=st.floats(0, 1))
    def test_lowering_the_smallest_entry_changes_nothing(self, k, seed, lowered):
        # specificity reads rows without a sum check, so the lowered row needs no renormalization.
        p = np.random.default_rng(seed).random(k)
        q = p.copy()
        q[p.argmin()] *= lowered
        assert specificity(q) == specificity(p)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(3, 64), smallest=st.floats(0, 1), shift=st.floats(1e-6, 1.0), data=st.data())
    def test_zero_exactly_when_the_k_minus_1_largest_are_equal(self, k, smallest, shift, data):
        # k - 1 entries of (1 - b) / (k - 1) and one of b in [0, 1/k]: the family spec scores 0, at any order.
        b = smallest / k
        order = data.draw(st.permutations(range(k)))
        p = np.array([(1 - b) / (k - 1)] * (k - 1) + [b])
        assert fd_score(Metric.SPECIFICITY, p[order]) <= 1e-12
        # Its l1 score is 2/k - 2b over l1's factor 2(k - 1)/k: at most 1/(k - 1), reached with one class absent.
        assert fd_score(Metric.L1, p[order]) == pytest.approx((1 - b * k) / (k - 1), abs=1e-12)
        # Moving mass between two of the k - 1 largest entries makes them unequal, and spec sees it.
        p[:2] += [shift * p[1], -shift * p[1]]
        assert fd_score(Metric.SPECIFICITY, p[order]) > 1e-12

    @pytest.mark.parametrize("k", [3, 4, 16, 64])
    def test_one_class_absent_is_fair_to_spec_and_not_to_l1(self, k):
        p = np.array([1 / (k - 1)] * (k - 1) + [0.0])
        assert fd_score(Metric.SPECIFICITY, p) == pytest.approx(0.0, abs=1e-12)
        assert fd_score(Metric.L1, p) == pytest.approx(1 / (k - 1), abs=1e-12)


class TestInfoSpecificity:
    def test_equal_blend(self):
        p, q = dist(2, [0.5, 0.5]), dist(2, [0.9, 0.1])
        want = 0.5 * l1(p, q) + 0.5 * delta_specificity(p, q)
        assert info_specificity(p, q) == pytest.approx(want)


class TestNormalizationFactor:
    @pytest.mark.parametrize("k", range(2, 33))
    def test_closed_forms(self, k):
        amorphic = 2 * (k - 1) / k**2
        assert n_factor(Metric.L1, k) == pytest.approx(amorphic, abs=1e-12)
        assert n_factor(Metric.WD, k) == pytest.approx(amorphic, abs=1e-9)
        assert n_factor(Metric.L2, k) == pytest.approx(math.sqrt(k - 1) / k**1.5, abs=1e-12)
        assert n_factor(Metric.SPECIFICITY, k) == pytest.approx(1.0, abs=1e-12)
        assert n_factor(Metric.INFO_SPECIFICITY, k) == pytest.approx(
            0.5 * amorphic + 0.5, abs=1e-12)

    def test_rejects_k_below_2(self):
        with pytest.raises(ValidationError):
            n_factor(Metric.L1, 1)


class TestFdScore:
    def test_uniform_scores_zero(self, space):
        for m in REPORT_ORDER:
            assert fd_score(m, np.full(space.k, 1.0 / space.k)) == pytest.approx(0.0, abs=1e-12)

    def test_extreme_points_score_one(self, space):
        for m in REPORT_ORDER:
            for pt in np.eye(space.k):
                assert fd_score(m, pt) == pytest.approx(1.0, abs=1e-12)

    def test_worked_l2_example(self):
        p = dist(2, [0.9, 0.1])
        assert raw_score(Metric.L2, p) == pytest.approx(0.2828427, abs=1e-6)
        assert fd_score(Metric.L2, p) == pytest.approx(0.8, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(k_row=score_rows(), m=st.sampled_from(REPORT_ORDER))
    def test_normalized_in_unit_interval(self, k_row, m):
        assert 0.0 <= fd_score(m, k_row[1]) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 64), m=st.sampled_from(REPORT_ORDER))
    def test_uniform_row_scores_exactly_zero(self, k, m):
        assert fd_score(m, np.full(k, 1.0 / k)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(k_row=score_rows(), m=st.sampled_from(REPORT_ORDER), eps=st.floats(0.0, 1.0))
    def test_uniform_noise_scales_the_score(self, k_row, m, eps):
        # The estimate through (1 - eps) I + (eps/k) J is (1 - eps) p + eps/k, which scores (1 - eps) f(p).
        k, p = k_row
        assert fd_score(m, estimate(uniform_noise(k, eps), p)) == pytest.approx((1 - eps) * fd_score(m, p), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(m=st.sampled_from(REPORT_ORDER), alpha=st.one_of(st.none(), st.floats(0.05, 1.0)), data=st.data())
    def test_permutation_invariant(self, m, alpha, data):
        # spec sorts its row, so it is bit-equal; the sums of l1, l2 and is run in another order, and the
        # wd LP may land on another vertex (the wd/l1 gap reaches 1.7e-10). wd takes k <= 64 only.
        tol = {Metric.SPECIFICITY: 0.0, Metric.WD: 1e-9}.get(m, 1e-15)
        k = data.draw(st.integers(2, 64 if m is Metric.WD else MAX_OUTCOMES), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        row = np.eye(k)[rng.integers(k)] if alpha is None else rng.dirichlet(np.full(k, alpha))
        assert abs(fd_score(m, row[rng.permutation(k)]) - fd_score(m, row)) <= tol

    @settings(max_examples=40, deadline=None)
    @given(p=conftest.distributions(4))
    def test_wd_equals_l1_under_default_cost(self, p):
        u = np.full(p.k, 1.0 / p.k)
        assert wd(u, p) == pytest.approx(l1(u, p), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 16), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_block_matches_rows_alone(k, n, seed):
    """A stack of rows scores and estimates exactly as each row does alone."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(k), size=n)
    rows[rng.random(n) < 0.3] = np.eye(k)[0]
    for m in REPORT_ORDER:
        block = fd_score(m, rows)
        assert block.shape == (n,)
        assert np.array_equal(block, [fd_score(m, row) for row in rows])
    # Rows summing to 1 - 5e-10 make every estimate go through renormalization.
    model = ConfusionModel(rng.dirichlet(np.ones(k), size=k) * (1 - 5e-10))
    assert np.array_equal(estimate(model, rows), [estimate(model, row) for row in rows])


def test_raw_fair_scores_order_differs_from_normalized():
    """Normalization can reorder metrics because the factors differ widely."""
    p = dist(8, [0.17, 0.17, 0.11, 0.11, 0.11, 0.11, 0.11, 0.11])
    raw_l1 = raw_score(Metric.L1, p)
    raw_sp = raw_score(Metric.SPECIFICITY, p)
    norm_l1 = fd_score(Metric.L1, p)
    norm_sp = fd_score(Metric.SPECIFICITY, p)
    assert raw_l1 < raw_sp and norm_l1 > norm_sp
