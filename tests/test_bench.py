import numpy as np
import pytest

from fairdisc import (
    EXPECTATION,
    AttributeSpace,
    BenchConfig,
    Metric,
    Sampled,
    ScoreEntry,
    ScoreKind,
    ScoreSet,
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
from fairdisc.metrics import REPORT_ORDER

ALL_KS = (2, 4, 8, 16)
POINTWISE = (Metric.L1, Metric.L2, Metric.WD)


def fair_set(*scores):
    return ScoreSet(ScoreKind.FAIR_EP, tuple(ScoreEntry(2, Metric.L1, f) for f in scores))


def ab_set(*scores):
    return ScoreSet(ScoreKind.AB_EP, tuple(ScoreEntry(2, Metric.L1, f) for f in scores))


def sweep_set(pairs):
    return ScoreSet(ScoreKind.SWEEP, tuple(
        ScoreEntry(2, Metric.L1, f, f_star=fs, epoch=i, start=0)
        for i, (f, fs) in enumerate(pairs)))


class TestStatistics:
    def test_mepe_fair_hand_mean(self):
        assert mepe_fair(fair_set(0.02, 0.04)) == pytest.approx(0.03)
        assert mepe_fair(fair_set(0.0, 0.0, 0.0)) == 0.0

    def test_mepe_ab_hand_mean(self):
        assert mepe_ab(ab_set(0.96, 0.92)) == pytest.approx(0.06)
        assert mepe_ab(ab_set(1.0, 1.0)) == 0.0

    def test_ep_var_hand_value(self):
        # population variance; scores sit in [0,1] so the +-0.1 pair is centred at 0.5
        assert ep_var(ab_set(0.4, 0.6)) == pytest.approx(0.01)
        assert ep_var(fair_set(0.25, 0.25, 0.25)) == 0.0

    def test_ep_var_divides_by_n(self):
        # 3 points, mean 0.2: sum sq dev = 0.02 -> /3 not /2
        assert ep_var(ab_set(0.1, 0.2, 0.3)) == pytest.approx(0.02 / 3)

    def test_mem_hand_mean(self):
        assert mem(sweep_set([(0.8, 1.0), (0.6, 0.5)])) == pytest.approx(0.15)

    def test_kind_checked(self):
        with pytest.raises(ValidationError):
            mepe_fair(ab_set(0.5))
        with pytest.raises(ValidationError):
            mepe_ab(fair_set(0.5))
        with pytest.raises(ValidationError):
            mem(fair_set(0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mepe_fair(fair_set())
        with pytest.raises(ValidationError):
            ep_var(fair_set())

    def test_score_bounds_enforced(self):
        with pytest.raises(ValidationError):
            ab_set(1.1)
        with pytest.raises(ValidationError):
            fair_set(-0.2)

    def test_sweep_requires_f_star(self):
        with pytest.raises(ValidationError):
            ScoreSet(ScoreKind.SWEEP, (ScoreEntry(2, Metric.L1, 0.5),))

    def test_permutation_invariance(self):
        scores = [0.1, 0.7, 0.3, 0.9]
        assert mepe_ab(ab_set(*scores)) == mepe_ab(ab_set(*reversed(scores)))
        assert ep_var(ab_set(*scores)) == pytest.approx(ep_var(ab_set(*reversed(scores))))

    def test_filter(self):
        entries = (ScoreEntry(2, Metric.L1, 0.1), ScoreEntry(4, Metric.L2, 0.2),
                   ScoreEntry(4, Metric.L1, 0.3))
        s = ScoreSet(ScoreKind.FAIR_EP, entries)
        assert s.filter(Metric.L1).scores().tolist() == [0.1, 0.3]


class TestEpAnalysis:
    @pytest.mark.parametrize("k", ALL_KS)
    def test_perfect_classifier_boundaries(self, k):
        space = AttributeSpace.of_size(k)
        fair, ab = run_ep_analysis(space, perfect(k), EXPECTATION, REPORT_ORDER)
        assert len(fair) == len(REPORT_ORDER)
        assert len(ab) == k * len(REPORT_ORDER)
        assert all(abs(e.f) <= 1e-12 for e in fair.entries)
        assert all(abs(e.f - 1.0) <= 1e-12 for e in ab.entries)

    def test_uniform_noise_closed_form(self):
        space = AttributeSpace.of_size(2)
        fair, ab = run_ep_analysis(space, uniform_noise(2, 0.1), EXPECTATION, (Metric.L1,))
        assert all(e.f == pytest.approx(0.9, abs=1e-12) for e in ab.entries)
        assert all(e.f == pytest.approx(0.0, abs=1e-12) for e in fair.entries)
        assert mepe_ab(ab) == pytest.approx(0.1, abs=1e-12)
        assert mepe_fair(fair) == pytest.approx(0.0, abs=1e-12)

    def test_unequal_accuracies_split_ab_scores(self):
        space = AttributeSpace.of_size(2)
        _, ab = run_ep_analysis(space, from_accuracies([0.98, 0.95]), EXPECTATION, (Metric.L1,))
        assert sorted(e.f for e in ab.entries) == pytest.approx([0.90, 0.96])
        assert ep_var(ab) > 0.0

    def test_expectation_ignores_trials(self):
        space = AttributeSpace.of_size(2)
        fair, _ = run_ep_analysis(space, perfect(2), EXPECTATION, (Metric.L1,), trials=10)
        assert len(fair) == 1

    def test_sampled_trials_and_determinism(self):
        space = AttributeSpace.of_size(4)
        mode = Sampled(n=500, seed=9)
        fair1, ab1 = run_ep_analysis(space, uniform_noise(4, 0.2), mode, (Metric.L1,), trials=3)
        fair2, ab2 = run_ep_analysis(space, uniform_noise(4, 0.2), mode, (Metric.L1,), trials=3)
        assert len(fair1) == 3 and len(ab1) == 12
        assert fair1.scores().tolist() == fair2.scores().tolist()
        assert ab1.scores().tolist() == ab2.scores().tolist()
        # distinct cells must not share a stream
        assert len({round(e.f, 12) for e in ab1.entries}) > 1

    def test_sampled_trials_validated(self):
        space = AttributeSpace.of_size(2)
        with pytest.raises(ValidationError):
            run_ep_analysis(space, perfect(2), Sampled(n=10, seed=0), (Metric.L1,), trials=0)


class TestSweepRunner:
    def test_perfect_tracks_ground_truth(self):
        space = AttributeSpace.of_size(2)
        scores = run_sweep(space, perfect(2), EXPECTATION, REPORT_ORDER, 0.1, starts=0)
        assert all(e.f == e.f_star for e in scores.entries)
        assert mem(scores) == 0.0
        l1 = scores.filter(Metric.L1).entries
        assert (l1[0].epoch, l1[0].f) == (0, 1.0)
        assert (l1[-1].epoch, l1[-1].f) == (5, 0.0)

    @pytest.mark.parametrize("k", ALL_KS)
    def test_ground_truth_non_increasing_for_pointwise_metrics(self, k):
        space = AttributeSpace.of_size(k)
        scores = run_sweep(space, perfect(k), EXPECTATION, POINTWISE, 0.02, starts=0)
        for m in POINTWISE:
            fs = [e.f_star for e in scores.filter(m).entries]
            assert all(a >= b - 1e-12 for a, b in zip(fs, fs[1:]))

    def test_uniform_noise_scales_per_epoch(self):
        space = AttributeSpace.of_size(4)
        scores = run_sweep(space, uniform_noise(4, 0.3), EXPECTATION, (Metric.L1,), 0.05, starts=0)
        for e in scores.entries:
            assert e.f == pytest.approx(0.7 * e.f_star, abs=1e-12)

    def test_all_starts_cover_every_extreme_point(self):
        # Epoch 0 of each start is the AB EP on that outcome, so its f is that
        # point's score in the extreme-point analysis.
        space = AttributeSpace.of_size(4)
        model = from_accuracies([0.9, 0.8, 0.7, 0.6])
        scores = run_sweep(space, model, EXPECTATION, (Metric.L1,), 0.05)
        _, ab = run_ep_analysis(space, model, EXPECTATION, (Metric.L1,))
        first = {e.start: e.f for e in scores.entries if e.epoch == 0}
        assert first == {e.outcome: e.f for e in ab.entries}
        assert sorted(first) == [0, 1, 2, 3]
        assert len({round(f, 12) for f in first.values()}) == 4

    def test_start_changes_scores_under_skewed_classifier(self):
        space = AttributeSpace.of_size(2)
        model = from_accuracies([0.98, 0.7])
        s0 = run_sweep(space, model, EXPECTATION, (Metric.L1,), 0.1, starts=0)
        s1 = run_sweep(space, model, EXPECTATION, (Metric.L1,), 0.1, starts=1)
        f0 = s0.scores()
        f1 = s1.scores()
        assert not np.allclose(f0, f1)
        assert np.array_equal([e.f_star for e in s0.entries], [e.f_star for e in s1.entries])

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
