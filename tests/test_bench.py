import numpy as np
import pytest

from fairdisc import (
    EXPECTATION,
    AttributeSpace,
    BenchConfig,
    Metric,
    Sampled,
    ValidationError,
    ep_var,
    from_accuracies,
    mem,
    mepe_ab,
    mepe_fair,
    perfect,
    report_to_csv,
    report_to_markdown,
    run_benchmark,
    run_ep_analysis,
    run_sweep,
    uniform_noise,
)
from fairdisc.bench import _checked
from fairdisc.metrics import REPORT_ORDER

ALL_KS = (2, 4, 8, 16)
POINTWISE = (Metric.L1, Metric.L2, Metric.WD)


class TestStatistics:
    def test_mepe_fair_hand_mean(self):
        assert mepe_fair(np.array([0.02, 0.04])) == pytest.approx(0.03)
        assert mepe_fair(np.zeros(3)) == 0.0

    def test_mepe_ab_hand_mean(self):
        assert mepe_ab(np.array([0.96, 0.92])) == pytest.approx(0.06)
        assert mepe_ab(np.ones(2)) == 0.0

    def test_ep_var_hand_value(self):
        # population variance; scores sit in [0,1] so the +-0.1 pair is centred at 0.5
        assert ep_var(np.array([0.4, 0.6])) == pytest.approx(0.01)
        assert ep_var(np.full(3, 0.25)) == 0.0

    def test_ep_var_divides_by_n(self):
        # 3 points, mean 0.2: sum sq dev = 0.02 -> /3 not /2
        assert ep_var(np.array([0.1, 0.2, 0.3])) == pytest.approx(0.02 / 3)

    def test_statistics_pool_every_axis(self):
        # A (trials, outcomes) array counts each cell once, as its flattening does.
        ab = np.array([[0.9, 0.7], [0.8, 0.6]])
        assert mepe_ab(ab) == mepe_ab(ab.ravel()) == pytest.approx(0.25)
        assert ep_var(ab) == ep_var(ab.ravel())

    def test_mem_hand_mean(self):
        assert mem(np.array([0.8, 0.6]), np.array([1.0, 0.5])) == pytest.approx(0.15)

    def test_mem_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            mem(np.array([[0.8, 0.6]]), np.array([1.0, 0.5]))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mepe_fair(np.array([]))
        with pytest.raises(ValidationError):
            mepe_ab(np.empty((2, 0)))
        with pytest.raises(ValidationError):
            ep_var(np.array([]))
        with pytest.raises(ValidationError):
            mem(np.array([]), np.array([]))

    def test_score_bounds_enforced(self):
        with pytest.raises(ValidationError, match="1.1 outside"):
            _checked({Metric.L1: np.array([0.5, 1.1])}, 2)
        with pytest.raises(ValidationError, match="for l2 at k=4"):
            _checked({Metric.L1: np.zeros((2, 4)), Metric.L2: np.full((2, 4), -0.2)}, 4)
        edge = {Metric.L1: np.array([-1e-10, 1.0 + 1e-10])}
        assert _checked(edge, 2) is edge

    def test_permutation_invariance(self):
        scores = np.array([0.1, 0.7, 0.3, 0.9])
        assert mepe_ab(scores) == mepe_ab(scores[::-1])
        assert ep_var(scores) == pytest.approx(ep_var(scores[::-1]))


class TestEpAnalysis:
    @pytest.mark.parametrize("k", ALL_KS)
    def test_perfect_classifier_boundaries(self, k):
        space = AttributeSpace.of_size(k)
        fair, ab = run_ep_analysis(space, perfect(k), EXPECTATION, REPORT_ORDER)
        assert list(fair) == list(ab) == list(REPORT_ORDER)
        for m in REPORT_ORDER:
            assert fair[m].shape == (1,)
            assert ab[m].shape == (1, k)
            assert np.all(np.abs(fair[m]) <= 1e-12)
            assert np.all(np.abs(ab[m] - 1.0) <= 1e-12)

    def test_uniform_noise_closed_form(self):
        space = AttributeSpace.of_size(2)
        fair, ab = run_ep_analysis(space, uniform_noise(2, 0.1), EXPECTATION, (Metric.L1,))
        assert ab[Metric.L1] == pytest.approx(np.full((1, 2), 0.9), abs=1e-12)
        assert fair[Metric.L1] == pytest.approx(np.zeros(1), abs=1e-12)
        assert mepe_ab(ab[Metric.L1]) == pytest.approx(0.1, abs=1e-12)
        assert mepe_fair(fair[Metric.L1]) == pytest.approx(0.0, abs=1e-12)

    def test_unequal_accuracies_split_ab_scores(self):
        space = AttributeSpace.of_size(2)
        _, ab = run_ep_analysis(space, from_accuracies([0.98, 0.95]), EXPECTATION, (Metric.L1,))
        # Outcome i's column is the one-hot point on i: class 0 is the more accurate.
        assert ab[Metric.L1][0] == pytest.approx([0.96, 0.90])
        assert ep_var(ab[Metric.L1]) > 0.0

    def test_one_array_per_metric(self):
        # Each metric keeps its own scores: selecting one metric from a joint
        # run equals running that metric alone, and metrics never pool.
        space = AttributeSpace.of_size(4)
        model = from_accuracies([0.9, 0.8, 0.7, 0.6])
        fair, ab = run_ep_analysis(space, model, EXPECTATION, (Metric.L1, Metric.SPECIFICITY))
        fair_l1, ab_l1 = run_ep_analysis(space, model, EXPECTATION, (Metric.L1,))
        assert fair[Metric.L1].tolist() == fair_l1[Metric.L1].tolist()
        assert ab[Metric.L1].tolist() == ab_l1[Metric.L1].tolist()
        assert fair[Metric.L1][0] != pytest.approx(fair[Metric.SPECIFICITY][0])

    def test_expectation_ignores_trials(self):
        space = AttributeSpace.of_size(2)
        fair, ab = run_ep_analysis(space, perfect(2), EXPECTATION, (Metric.L1,), trials=10)
        assert fair[Metric.L1].shape == (1,)
        assert ab[Metric.L1].shape == (1, 2)

    def test_sampled_trials_and_determinism(self):
        space = AttributeSpace.of_size(4)
        mode = Sampled(n=500, seed=9)
        fair1, ab1 = run_ep_analysis(space, uniform_noise(4, 0.2), mode, (Metric.L1,), trials=3)
        fair2, ab2 = run_ep_analysis(space, uniform_noise(4, 0.2), mode, (Metric.L1,), trials=3)
        assert fair1[Metric.L1].shape == (3,) and ab1[Metric.L1].shape == (3, 4)
        assert fair1[Metric.L1].tolist() == fair2[Metric.L1].tolist()
        assert ab1[Metric.L1].tolist() == ab2[Metric.L1].tolist()
        # distinct cells must not share a stream
        assert len(set(np.round(ab1[Metric.L1], 12).ravel())) > 1

    def test_sampled_trials_validated(self):
        space = AttributeSpace.of_size(2)
        with pytest.raises(ValidationError):
            run_ep_analysis(space, perfect(2), Sampled(n=10, seed=0), (Metric.L1,), trials=0)

    @pytest.mark.parametrize("k,trials", [(2, 500_001), (16, 7_813), (1000, 3)])
    def test_sampled_trials_limited_by_block_floats(self, k, trials):
        # The AB block holds trials * k rows of k floats; one trial over the limit
        # is rejected before any row is drawn.
        with pytest.raises(ValidationError, match=rf"{trials} trials at k={k} needs {trials * k} x {k} floats"):
            run_ep_analysis(AttributeSpace.of_size(k), perfect(k), Sampled(n=10, seed=0), (Metric.L1,), trials)


class TestSweepRunner:
    def test_perfect_tracks_ground_truth(self):
        space = AttributeSpace.of_size(2)
        f, f_star = run_sweep(space, perfect(2), EXPECTATION, REPORT_ORDER, 0.1, starts=0)
        for m in REPORT_ORDER:
            assert np.array_equal(f[m], f_star[m])
            assert mem(f[m], f_star[m]) == 0.0
        # one start, epochs 0..5
        assert f[Metric.L1].shape == (1, 6)
        assert (f[Metric.L1][0, 0], f[Metric.L1][0, -1]) == (1.0, 0.0)

    @pytest.mark.parametrize("k", ALL_KS)
    def test_ground_truth_non_increasing_for_pointwise_metrics(self, k):
        space = AttributeSpace.of_size(k)
        _, f_star = run_sweep(space, perfect(k), EXPECTATION, POINTWISE, 0.02, starts=0)
        for m in POINTWISE:
            assert np.all(np.diff(f_star[m][0]) <= 1e-12)

    def test_uniform_noise_scales_per_epoch(self):
        space = AttributeSpace.of_size(4)
        f, f_star = run_sweep(space, uniform_noise(4, 0.3), EXPECTATION, (Metric.L1,), 0.05, starts=0)
        assert f[Metric.L1] == pytest.approx(0.7 * f_star[Metric.L1], abs=1e-12)

    def test_all_starts_cover_every_extreme_point(self):
        # Epoch 0 of each start is the AB EP on that outcome, so its f is that
        # point's score in the extreme-point analysis.
        space = AttributeSpace.of_size(4)
        model = from_accuracies([0.9, 0.8, 0.7, 0.6])
        f, _ = run_sweep(space, model, EXPECTATION, (Metric.L1,), 0.05)
        _, ab = run_ep_analysis(space, model, EXPECTATION, (Metric.L1,))
        first = f[Metric.L1][:, 0]
        assert first.shape == (4,)
        assert first.tolist() == ab[Metric.L1][0].tolist()
        assert len(set(np.round(first, 12))) == 4

    def test_start_changes_scores_under_skewed_classifier(self):
        space = AttributeSpace.of_size(2)
        model = from_accuracies([0.98, 0.7])
        f0, f_star0 = run_sweep(space, model, EXPECTATION, (Metric.L1,), 0.1, starts=0)
        f1, f_star1 = run_sweep(space, model, EXPECTATION, (Metric.L1,), 0.1, starts=1)
        assert not np.allclose(f0[Metric.L1], f1[Metric.L1])
        assert np.array_equal(f_star0[Metric.L1], f_star1[Metric.L1])

    def test_start_out_of_range(self):
        space = AttributeSpace.of_size(2)
        with pytest.raises(ValidationError):
            run_sweep(space, perfect(2), EXPECTATION, (Metric.L1,), 0.1, starts=5)


class TestBenchmarkReport:
    def test_perfect_everywhere_is_all_zero(self):
        cfg = BenchConfig(models={k: perfect(k) for k in (2, 4)}, step=0.05)
        report = run_benchmark(cfg)
        for row in report.rows:
            tol = 1e-24 if row.benchmark == "ep-var" else 1e-12
            for v in row.values.values():
                assert abs(v) <= tol, (row.label(), v)

    def test_ab_pool_size_for_k_2_and_4(self):
        cfg = BenchConfig(models={2: perfect(2), 4: perfect(4)}, step=0.05)
        report = run_benchmark(cfg)
        assert report.meta["n_ab_pool"] == "6"
        assert report.meta["n_fair_pool"] == "2"
        assert report.meta["mode"] == "expectation"

    def test_row_structure(self):
        cfg = BenchConfig(models={2: perfect(2), 4: perfect(4)}, step=0.05)
        report = run_benchmark(cfg)
        assert report.row("mepe", "fair", (2, 4))
        assert report.row("mepe", "ab", (2, 4))
        assert report.row("ep-var", "fair", (2, 4))
        assert report.row("ep-var", "ab", (2, 4))
        assert report.row("mem", "sweep", (2,))
        assert report.row("mem", "sweep", (4,))
        assert report.row("mepe", "ab", (2,))  # per-k breakdown

    def test_best_worst_tags_with_strict_ordering(self):
        cfg = BenchConfig(models={4: preset_like_set2_k4()}, step=0.05)
        report = run_benchmark(cfg)
        row = report.row("mem", "sweep", (4,))
        assert row.best == (Metric.SPECIFICITY,)
        assert row.worst == (Metric.L2,)

    def test_complete_tie_tags_every_metric(self):
        cfg = BenchConfig(models={2: uniform_noise(2, 0.1)}, step=0.1)
        report = run_benchmark(cfg)
        row = report.row("mem", "sweep", (2,))
        assert set(row.best) == set(REPORT_ORDER)
        assert set(row.worst) == set(REPORT_ORDER)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            BenchConfig(models={})
        with pytest.raises(ValidationError):
            BenchConfig(models={4: perfect(2)})

    def test_csv_deterministic_and_well_formed(self):
        cfg = BenchConfig(models={2: uniform_noise(2, 0.2)}, mode=Sampled(n=200, seed=3),
                          trials=2, step=0.1)
        a = report_to_csv(run_benchmark(cfg))
        b = report_to_csv(run_benchmark(cfg))
        assert a == b
        body = [l for l in a.splitlines() if not l.startswith("#")]
        assert body[0] == "benchmark,kind,k_set,metric,value"
        assert all(len(l.split(",")) == 5 for l in body[1:])

    def test_sampled_meta_records_parameters(self):
        cfg = BenchConfig(models={2: perfect(2)}, mode=Sampled(n=200, seed=3), trials=2, step=0.1)
        report = run_benchmark(cfg)
        assert report.meta["mode"] == "sampled"
        assert report.meta["n"] == "200"
        assert report.meta["seed"] == "3"
        assert report.meta["trials"] == "2"

    def test_markdown_sections(self):
        cfg = BenchConfig(models={2: perfect(2)}, step=0.1)
        md = report_to_markdown(run_benchmark(cfg))
        assert "## MEPE" in md and "## EP variance" in md and "## Sweep MEM" in md
        assert "| L2 | L1 | IS | Spec | WD |" in md


def preset_like_set2_k4():
    return from_accuracies(np.full(4, 0.86))
