import os
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import no_children, pool_imaps, traced_peak
from fairdisc import (
    EXPECTATION,
    AttributeSpace,
    CategoricalDistribution,
    ConfusionModel,
    CostMatrix,
    Metric,
    Sampled,
    ValidationError,
    default_cost,
    derive_seed,
    ep_var,
    estimate,
    fd_score,
    from_accuracies,
    ingest_predictions,
    l1,
    load_confusion,
    load_distribution,
    load_predictions,
    load_space,
    mem,
    mepe_ab,
    mepe_fair,
    n_factor,
    parse_metrics,
    per_class_accuracy,
    perfect,
    preset,
    raw_score,
    report_to_csv,
    report_to_markdown,
    run_benchmark,
    run_ep_analysis,
    run_sweep,
    solve,
    sweep,
    uniform_noise,
)
from fairdisc import bench, classifier, metrics, transport
from fairdisc.metrics import REPORT_ORDER, specificity
from oracles import TIE_TOL, reference_report

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

    def test_score_bounds_enforced(self, monkeypatch):
        # fd_score divides raw_score by n_factor, so a patched raw score of f * n_factor is the quotient f.
        def quotients(f):
            monkeypatch.setattr(metrics, "raw_score", lambda m, rows: np.asarray(f) * n_factor(m, np.shape(rows)[-1]))
        quotients([0.5, 1.1])
        with pytest.raises(ValidationError, match="^score 1.1 outside"):
            fd_score(Metric.L1, np.full((2, 2), 0.5))
        quotients(np.full((2, 4), -0.2))
        with pytest.raises(ValidationError, match="for l2 at k=4$"):
            fd_score(Metric.L2, np.full((2, 4, 4), 0.25))
        quotients([-1e-10, 1.0 + 1e-10])
        assert np.array_equal(fd_score(Metric.L1, np.full((2, 2), 0.5)), [0.0, 1.0])

    def test_permutation_invariance(self):
        scores = np.array([0.1, 0.7, 0.3, 0.9])
        assert mepe_ab(scores) == mepe_ab(scores[::-1])
        assert ep_var(scores) == pytest.approx(ep_var(scores[::-1]))


class TestEpAnalysis:
    @pytest.mark.parametrize("k", ALL_KS)
    def test_perfect_classifier_boundaries(self, k):
        fair, ab = run_ep_analysis(perfect(k), EXPECTATION, REPORT_ORDER)
        assert list(fair) == list(ab) == list(REPORT_ORDER)
        for m in REPORT_ORDER:
            assert fair[m].shape == (1,)
            assert ab[m].shape == (1, k)
            assert np.all(np.abs(fair[m]) <= 1e-12)
            assert np.all(np.abs(ab[m] - 1.0) <= 1e-12)

    def test_uniform_noise_closed_form(self):
        fair, ab = run_ep_analysis(uniform_noise(2, 0.1), EXPECTATION, (Metric.L1,))
        assert ab[Metric.L1] == pytest.approx(np.full((1, 2), 0.9), abs=1e-12)
        assert fair[Metric.L1] == pytest.approx(np.zeros(1), abs=1e-12)
        assert mepe_ab(ab[Metric.L1]) == pytest.approx(0.1, abs=1e-12)
        assert mepe_fair(fair[Metric.L1]) == pytest.approx(0.0, abs=1e-12)

    def test_unequal_accuracies_split_ab_scores(self):
        _, ab = run_ep_analysis(from_accuracies([0.98, 0.95]), EXPECTATION, (Metric.L1,))
        # Outcome i's column is the one-hot point on i: class 0 is the more accurate.
        assert ab[Metric.L1][0] == pytest.approx([0.96, 0.90])
        assert ep_var(ab[Metric.L1]) > 0.0

    def test_one_array_per_metric(self):
        # Each metric keeps its own scores: selecting one metric from a joint
        # run equals running that metric alone, and metrics never pool.
        model = from_accuracies([0.9, 0.8, 0.7, 0.6])
        fair, ab = run_ep_analysis(model, EXPECTATION, (Metric.L1, Metric.SPECIFICITY))
        fair_l1, ab_l1 = run_ep_analysis(model, EXPECTATION, (Metric.L1,))
        assert fair[Metric.L1].tolist() == fair_l1[Metric.L1].tolist()
        assert ab[Metric.L1].tolist() == ab_l1[Metric.L1].tolist()
        assert fair[Metric.L1][0] != pytest.approx(fair[Metric.SPECIFICITY][0])

    def test_expectation_ignores_trials(self):
        fair, ab = run_ep_analysis(perfect(2), EXPECTATION, (Metric.L1,), trials=10)
        assert fair[Metric.L1].shape == (1,)
        assert ab[Metric.L1].shape == (1, 2)

    def test_sampled_trials_and_determinism(self):
        mode = Sampled(n=500, seed=9)
        fair1, ab1 = run_ep_analysis(uniform_noise(4, 0.2), mode, (Metric.L1,), trials=3)
        fair2, ab2 = run_ep_analysis(uniform_noise(4, 0.2), mode, (Metric.L1,), trials=3)
        assert fair1[Metric.L1].shape == (3,) and ab1[Metric.L1].shape == (3, 4)
        assert fair1[Metric.L1].tolist() == fair2[Metric.L1].tolist()
        assert ab1[Metric.L1].tolist() == ab2[Metric.L1].tolist()
        # distinct cells must not share a stream
        assert len(set(np.round(ab1[Metric.L1], 12).ravel())) > 1

    def test_sampled_trials_validated(self):
        with pytest.raises(ValidationError):
            run_ep_analysis(perfect(2), Sampled(n=10, seed=0), (Metric.L1,), trials=0)

    @pytest.mark.parametrize("k,trials", [(2, 500_001), (16, 7_813), (1000, 3)])
    def test_sampled_trials_limited_by_block_floats(self, k, trials):
        # The AB block holds trials * k rows of k floats; one trial over the limit
        # is rejected before any row is drawn.
        with pytest.raises(ValidationError, match=rf"{trials} trials at k={k} needs {trials * k} x {k} floats"):
            run_ep_analysis(perfect(k), Sampled(n=10, seed=0), (Metric.L1,), trials)


class TestSweepRunner:
    def test_perfect_tracks_ground_truth(self):
        f, f_star = run_sweep(perfect(2), EXPECTATION, REPORT_ORDER, 0.1, starts=0)
        for m in REPORT_ORDER:
            assert np.array_equal(f[m], f_star[m])
            assert mem(f[m], f_star[m]) == 0.0
        # one start, epochs 0..5
        assert f[Metric.L1].shape == (1, 6)
        assert (f[Metric.L1][0, 0], f[Metric.L1][0, -1]) == (1.0, 0.0)

    @pytest.mark.parametrize("k", ALL_KS)
    def test_ground_truth_non_increasing_for_pointwise_metrics(self, k):
        _, f_star = run_sweep(perfect(k), EXPECTATION, POINTWISE, 0.02, starts=0)
        for m in POINTWISE:
            assert np.all(np.diff(f_star[m][0]) <= 1e-12)

    def test_uniform_noise_scales_per_epoch(self):
        f, f_star = run_sweep(uniform_noise(4, 0.3), EXPECTATION, (Metric.L1,), 0.05, starts=0)
        assert f[Metric.L1] == pytest.approx(0.7 * f_star[Metric.L1], abs=1e-12)

    def test_all_starts_cover_every_extreme_point(self):
        # Epoch 0 of each start is the AB EP on that outcome, so its f is that
        # point's score in the extreme-point analysis.
        model = from_accuracies([0.9, 0.8, 0.7, 0.6])
        f, _ = run_sweep(model, EXPECTATION, (Metric.L1,), 0.05)
        _, ab = run_ep_analysis(model, EXPECTATION, (Metric.L1,))
        first = f[Metric.L1][:, 0]
        assert first.shape == (4,)
        assert first.tolist() == ab[Metric.L1][0].tolist()
        assert len(set(np.round(first, 12))) == 4

    def test_start_changes_scores_under_skewed_classifier(self):
        model = from_accuracies([0.98, 0.7])
        f0, f_star0 = run_sweep(model, EXPECTATION, (Metric.L1,), 0.1, starts=0)
        f1, f_star1 = run_sweep(model, EXPECTATION, (Metric.L1,), 0.1, starts=1)
        assert not np.allclose(f0[Metric.L1], f1[Metric.L1])
        assert np.array_equal(f_star0[Metric.L1], f_star1[Metric.L1])

    def test_start_out_of_range(self):
        with pytest.raises(ValidationError):
            run_sweep(perfect(2), EXPECTATION, (Metric.L1,), 0.1, starts=5)

    @pytest.mark.parametrize("mode", [EXPECTATION, Sampled(n=1000, seed=5)], ids=["expectation", "sampled"])
    def test_forked_starts_equal_one_cpu(self, monkeypatch, mode):
        # Every metric, wd's LPs included, scored by forked workers gives the arrays of one process.
        model = from_accuracies([0.9, 0.8, 0.7, 0.6])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        one_cpu = run_sweep(model, mode, REPORT_ORDER, 0.05)
        imaps = pool_imaps(monkeypatch)
        forked = run_sweep(model, mode, REPORT_ORDER, 0.05)
        assert imaps == [1]
        assert no_children()
        for got, want in zip(forked, one_cpu):
            for m in REPORT_ORDER:
                assert got[m].shape == want[m].shape == (4, 16)
                assert np.array_equal(got[m], want[m])


class TestBenchmarkReport:
    def test_perfect_everywhere_is_all_zero(self):
        report = run_benchmark([perfect(k) for k in (2, 4)], step=0.05)
        for row in report.rows:
            tol = 1e-24 if row.benchmark == "ep-var" else 1e-12
            for v in row.values.values():
                assert abs(v) <= tol, (row.benchmark, row.kind, row.k_set, v)

    def test_ab_pool_size_for_k_2_and_4(self):
        report = run_benchmark([perfect(2), perfect(4)], step=0.05)
        assert report.meta["n_ab_pool"] == "6"
        assert report.meta["n_fair_pool"] == "2"
        assert report.meta["mode"] == "expectation"

    def test_row_structure(self):
        report = run_benchmark([perfect(2), perfect(4)], step=0.05)
        assert report.row("mepe", "fair", (2, 4))
        assert report.row("mepe", "ab", (2, 4))
        assert report.row("ep-var", "fair", (2, 4))
        assert report.row("ep-var", "ab", (2, 4))
        assert report.row("mem", "sweep", (2,))
        assert report.row("mem", "sweep", (4,))
        assert report.row("mepe", "ab", (2,))  # per-k breakdown

    def test_best_worst_tags_with_strict_ordering(self):
        report = run_benchmark([preset_like_set2_k4()], step=0.05)
        row = report.row("mem", "sweep", (4,))
        assert row.best == (Metric.SPECIFICITY,)
        assert row.worst == (Metric.L2,)

    def test_complete_tie_tags_every_metric(self):
        report = run_benchmark([uniform_noise(2, 0.1)], step=0.1)
        row = report.row("mem", "sweep", (2,))
        assert set(row.best) == set(REPORT_ORDER)
        assert set(row.worst) == set(REPORT_ORDER)

    @pytest.mark.parametrize("ks,step,metric,match,mode,trials", [
        ((2, 1000), 1e-6, Metric.L1, r"sweep step 1e-06 needs 999001 x 1000 floats", EXPECTATION, 30),
        ((2, 128), 0.01, Metric.WD, r"transport needs 2 <= k <= 64, got k=128", EXPECTATION, 30),
        ((2, 1000), 0.001, Metric.L1, r"3 trials at k=1000 needs 3000 x 1000 floats", Sampled(100, 0), 3),
    ])
    def test_limits_refused_before_any_estimate(self, monkeypatch, ks, step, metric, match, mode, trials):
        # The k = 2 block would be scored first if limits were checked per k.
        calls = []
        monkeypatch.setattr(bench, "estimate", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValidationError, match=match):
            run_benchmark([perfect(k) for k in ks], mode=mode, trials=trials, step=step, metrics=(metric,))
        assert calls == []

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="at least one k"):
            run_benchmark([])
        with pytest.raises(ValidationError, match="repeats a k: 2 4 2"):
            run_benchmark([perfect(2), perfect(4), perfect(2)])

    # The old {k: model} mapping, a bare int, and an int among models.
    @pytest.mark.parametrize("models,match", [({2: perfect(2)}, "models must be a sequence, got dict"),
                                              (4, "models must be a sequence, got int"),
                                              ([perfect(2), 4], "model must be a ConfusionModel, got int")],
                             ids=["mapping", "int", "int-item"])
    def test_models_must_be_confusion_models(self, models, match):
        with pytest.raises(ValidationError, match=match):
            run_benchmark(models)

    def test_csv_deterministic_and_well_formed(self):
        kwargs = dict(mode=Sampled(n=200, seed=3), trials=2, step=0.1)
        a = report_to_csv(run_benchmark([uniform_noise(2, 0.2)], **kwargs))
        b = report_to_csv(run_benchmark([uniform_noise(2, 0.2)], **kwargs))
        assert a == b
        body = [l for l in a.splitlines() if not l.startswith("#")]
        assert body[0] == "benchmark,kind,k_set,metric,value"
        assert all(len(l.split(",")) == 5 for l in body[1:])

    def test_sampled_meta_records_parameters(self):
        report = run_benchmark([perfect(2)], mode=Sampled(n=200, seed=3), trials=2, step=0.1)
        assert report.meta["mode"] == "sampled"
        assert report.meta["n"] == "200"
        assert report.meta["seed"] == "3"
        assert report.meta["trials"] == "2"

    def test_markdown_sections(self):
        md = report_to_markdown(run_benchmark([perfect(2)], step=0.1))
        assert "## MEPE" in md and "## EP variance" in md and "## Sweep MEM" in md
        assert "| L2 | L1 | IS | Spec | WD |" in md


# The report against `oracles.reference_report`: every value within 1e-12, and every wd value within 1e-8, because the
# LP meets each raw value within 1e-9 (acceptance criterion 3) and the n-factors at k <= 4 are at least 0.375.
REPORT_TOL = {m: 1e-8 if m is Metric.WD else 1e-12 for m in Metric}


@st.composite
def report_cases(draw):
    """A k set in {2, 3, 4} with Dirichlet confusion rows, a metric subset, a step 1/(k j) for j <= 3 that every k
    of the set can take, and expectation (None) or sampled (n, seed) mode with 1 to 3 trials."""
    ks = draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = [rng.dirichlet(np.ones(k), size=k) for k in ks]
    metrics = draw(st.lists(st.sampled_from(list(Metric)), min_size=1, max_size=len(Metric), unique=True))
    step = 1.0 / (draw(st.sampled_from([k for k in (2, 3, 4) if k >= max(ks)])) * draw(st.integers(1, 3)))
    mode = (draw(st.integers(1, 1000)), draw(st.integers(0, 2**32 - 1))) if draw(st.booleans()) else None
    return models, metrics, mode, draw(st.integers(1, 3)), step


def _statistic_inputs(monkeypatch) -> list[list[np.ndarray]]:
    """Record the arguments of each statistic the report takes, in call order: one call per row and metric."""
    calls = []
    for name in ("mepe_fair", "mepe_ab", "ep_var", "mem"):
        stat = getattr(bench, name)
        monkeypatch.setattr(bench, name, lambda *args, stat=stat: calls.append([np.array(a) for a in args]) or stat(*args))
    return calls


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["pool", "one-cpu"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=report_cases())
def test_report_matches_the_reference_report(cpus, case):
    """Rows, values, the pooled scores and per-start sweep scores each statistic reads, in order, and best/worst tags
    wherever a value is further than the row's tolerance from its tie boundary."""
    models, metrics, mode, trials, step = case
    with pytest.MonkeyPatch.context() as mp:
        imaps = pool_imaps(mp)
        mp.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        calls = _statistic_inputs(mp)
        report = run_benchmark([ConfusionModel(m) for m in models], metrics,
                               EXPECTATION if mode is None else Sampled(*mode), trials, step)
    want = reference_report([m.tolist() for m in models], [m.value for m in metrics], mode, trials, step)
    assert [(r.benchmark, r.kind, r.k_set) for r in report.rows] == [(w["benchmark"], w["kind"], w["k_set"])
                                                                      for w in want]
    assert [m.value for m in report.metrics] == list(want[0]["values"])
    inputs = [(w["inputs"][m.value], REPORT_TOL[m]) for w in want for m in report.metrics]
    assert len(calls) == len(inputs)
    for args, (ref_args, tol) in zip(calls, inputs, strict=True):
        for got, ref in zip(args, ref_args, strict=True):
            assert got.size == np.size(ref)
            assert np.abs(got.ravel() - np.ravel(ref)).max() <= tol
    for row, ref in zip(report.rows, want, strict=True):
        row_tol = max(REPORT_TOL[m] for m in report.metrics)
        values = ref["values"]
        lo, hi = min(values.values()), max(values.values())
        for m in report.metrics:
            assert abs(row.values[m] - values[m.value]) <= REPORT_TOL[m], (row, m)
            if abs(values[m.value] - (lo + TIE_TOL)) > row_tol:
                assert (m in row.best) == (m.value in ref["best"]), (row, m)
            if abs(values[m.value] - (hi - TIE_TOL)) > row_tol:
                assert (m in row.worst) == (m.value in ref["worst"]), (row, m)
    # The whole report, every k's sweep starts and EP blocks, ran in one fork pool, or all here on one CPU.
    assert len(imaps) == (1 if len(cpus) > 1 else 0)
    assert no_children()


@pytest.mark.parametrize("kind", ["ep", "sweep"])
def test_a_worker_error_reaches_the_caller_and_no_worker_outlives_it(monkeypatch, kind):
    # The error is raised in a forked worker, by an EP task or by a sweep task only, and reaches run_benchmark's caller.
    parent = os.getpid()

    def fail(*args):
        raise ValidationError(f"{kind} task failed in {'a worker' if os.getpid() != parent else 'the caller'}")

    scored = bench._scored
    if kind == "ep":
        monkeypatch.setattr(bench, "run_ep_analysis", fail)
    else:
        monkeypatch.setattr(bench, "_scored", lambda *args: fail() if args[4] == bench._KIND_SWEEP else scored(*args))
    imaps = pool_imaps(monkeypatch)
    with pytest.raises(ValidationError, match=f"^{kind} task failed in a worker$"):
        run_benchmark([perfect(2), perfect(4)], (Metric.L1,), Sampled(10, 0), trials=2, step=0.25)
    assert imaps == [1]
    assert no_children()


SWEEP_METRICS = (Metric.L1, Metric.L2, Metric.SPECIFICITY, Metric.INFO_SPECIFICITY)


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["pool", "one-cpu"])
def test_the_sweep_blocks_are_the_reports_one_copy_of_the_scores(monkeypatch, cpus):
    # Each start's (f, f*) is written into its k's blocks as it arrives and then dropped, so the report's traced peak,
    # beyond the sweep paths its tasks hold, stays within 1.3 times the blocks' bytes; a list of every start's result
    # beside the blocks doubles it. On one CPU each start is scored once, untraced, and then replayed as a copy, so the
    # peak is what this process holds of the scores and not a start's sampling workspace (1.6 MB at k = 16).
    models = [preset("set2", k) for k in ALL_KS]
    parent, scored, start = os.getpid(), {}, bench._sweep_start

    def replayed(model, mode, metrics, path, s):
        if os.getpid() != parent:  # a forked worker: its memory is its own, and the tracing it inherited slows it
            tracemalloc.stop()
            return start(model, mode, metrics, path, s)
        if (model.k, s) not in scored:
            scored[model.k, s] = start(model, mode, metrics, path, s)
        return tuple({m: a.copy() for m, a in scores.items()} for scores in scored[model.k, s])

    monkeypatch.setattr(bench, "_sweep_start", replayed)
    imaps = pool_imaps(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

    def report():
        return run_benchmark(models, SWEEP_METRICS, Sampled(100, 0), trials=1, step=0.002)

    report()  # untraced: imports what a report needs and, on one CPU, scores every start
    _, peak = traced_peak(report)
    # One (epochs, k) path per k; the blocks hold f and f* of every metric for each of its k starts.
    paths = sum(sweep(k, 0.002).nbytes for k in ALL_KS)
    blocks = 2 * len(SWEEP_METRICS) * paths
    assert peak - paths <= 1.3 * blocks, (peak, paths, blocks)
    assert len(imaps) == (2 if len(cpus) > 1 else 0)


def test_a_sampled_k16_sweep_start_peaks_under_a_megabyte():
    # One start of 946 rows at step 0.001, n = 10**5: it draws through buffers of `_DRAW_BYTES` and reads its rows in
    # place. It peaks at about 0.7 MB under tracemalloc; with 1 MiB buffers and a copy per reader it peaked at 2.0-2.2 MB.
    def start():
        return run_sweep(preset("set2", 16), Sampled(10**5, 0), SWEEP_METRICS, 0.001, 3)

    start()  # untraced: loads the draw kernel and fills the caches
    _, peak = traced_peak(start)
    assert peak < 10**6, peak


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["pool", "one-cpu"])
@pytest.mark.parametrize("mode", [EXPECTATION, Sampled(n=1000, seed=5)], ids=["expectation", "sampled"])
def test_report_mem_is_the_mem_of_run_sweep_to_the_bit(monkeypatch, cpus, mode):
    # run_sweep's blocks hold each start's _sweep_start scores as they are, and the report's MEM is their mem.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    models = [preset("set2", k) for k in (2, 4)]
    report = run_benchmark(models, REPORT_ORDER, mode, trials=2, step=0.05)
    for model in models:
        f, f_star = run_sweep(model, mode, REPORT_ORDER, 0.05, "all")
        starts = [bench._sweep_start(model, mode, REPORT_ORDER, sweep(model.k, 0.05), s) for s in range(model.k)]
        for m in REPORT_ORDER:
            for got, want in ((f[m], [start[0][m] for start in starts]), (f_star[m], [start[1][m] for start in starts])):
                assert (got.shape, got.tobytes()) == (np.shape(want), np.array(want).tobytes())
            assert report.row("mem", "sweep", (model.k,)).values[m] == mem(f[m], f_star[m])


@pytest.mark.parametrize("call", ["run_benchmark", "run_sweep"])
def test_no_worker_outlives_a_result_the_caller_cannot_fold(monkeypatch, call):
    # Start 2's scores are one epoch short, so writing them into their block raises here while later starts are queued
    # or running. The pool has ended while the caller still holds the error, and with it the stopped fold.
    start = bench._sweep_start
    monkeypatch.setattr(bench, "_sweep_start", lambda model, mode, metrics, path, s:
                        start(model, mode, metrics, path[:-1] if s == 2 else path, s))
    imaps = pool_imaps(monkeypatch)
    with pytest.raises(ValueError) as caught:
        if call == "run_benchmark":
            run_benchmark([perfect(2), perfect(4), perfect(8)], L1, step=0.05)
        else:
            run_sweep(perfect(8), EXPECTATION, L1, 0.05)
    assert no_children(), caught.value
    assert imaps == [1]


L1 = (Metric.L1,)
METRICS = r"metrics must be one or more Metric values, got "
# Inputs of the wrong type, empty or unknown metrics, and a metric past its k limit: each is one
# ValidationError that names it.
BAD_INPUTS = [
    ("seed-float", lambda: estimate(perfect(2), [0.5, 0.5], Sampled(10, 1.5)), "seed must be an integer, got 1.5"),
    ("n-str", lambda: Sampled("5", 0), "n must be an integer, got '5'"),
    ("n-float", lambda: estimate(perfect(2), [0.5, 0.5], Sampled(1.5, 0)), "n must be an integer, got 1.5"),
    ("trials-float", lambda: run_ep_analysis(perfect(2), Sampled(10, 0), L1, trials=2.5),
     "trials must be an integer, got 2.5"),
    ("start-float", lambda: run_sweep(perfect(2), EXPECTATION, L1, 0.1, starts=1.5),
     "sweep start must be \"all\" or an integer, got 1.5"),
    ("start-str", lambda: run_sweep(perfect(2), EXPECTATION, L1, 0.1, starts="0"),
     "sweep start must be \"all\" or an integer, got '0'"),
    ("step-str", lambda: run_sweep(perfect(2), EXPECTATION, L1, "0.1"), "step must be a number, got '0.1'"),
    ("bench-no-metrics", lambda: run_benchmark([perfect(2)], metrics=()), METRICS + r"\(\)"),
    ("bench-bogus-metric", lambda: run_benchmark([perfect(2)], metrics=["bogus"]), METRICS + r"\['bogus'\]"),
    ("bench-mode-none", lambda: run_benchmark([perfect(2)], mode=None),
     "mode must be Expectation or Sampled, got NoneType"),
    ("ep-mode-none", lambda: run_ep_analysis(perfect(2), None, L1),
     "mode must be Expectation or Sampled, got NoneType"),
    ("ep-bogus-metric", lambda: run_ep_analysis(perfect(2), EXPECTATION, ["bogus"]), METRICS + r"\['bogus'\]"),
    ("ep-array-model", lambda: run_ep_analysis(np.eye(2), EXPECTATION, L1),
     "model must be a ConfusionModel, got ndarray"),
    ("ep-wd-k-65", lambda: run_ep_analysis(perfect(65), EXPECTATION, (Metric.WD,)),
     "transport needs 2 <= k <= 64, got k=65"),
    ("sweep-wd-k-65", lambda: run_sweep(perfect(65), EXPECTATION, (Metric.WD,), 0.01),
     "transport needs 2 <= k <= 64, got k=65"),
]


@pytest.mark.parametrize("call,match", [row[1:] for row in BAD_INPUTS], ids=[row[0] for row in BAD_INPUTS])
def test_bad_library_input_refused_before_any_estimate(monkeypatch, call, match):
    # As in test_limits_refused_before_any_estimate: the harness draws no estimate.
    calls = []
    monkeypatch.setattr(bench, "estimate", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValidationError, match=f"^{match}$"):
        call()
    assert calls == []


# A scalar that is not an integer, or not a number, where the library takes one; and entries
# that are not numbers. Each is one ValidationError, never a TypeError, a ValueError or a float k.
K_FLOAT = "k must be an integer, got "
NOT_NUMBERS = " must be an array of numbers"
NO_OUTCOMES = " must have a last axis of at least one outcome, got shape "
UNKNOWN_METRIC = "unknown metric "
VALID_METRICS = " (valid: l1, l2, wd, spec, is)"
BAD_SCALARS = [
    ("sweep-k-float", lambda: sweep(2.5, 0.1), K_FLOAT + "2.5"),
    ("perfect-k-float", lambda: perfect(2.5), K_FLOAT + "2.5"),
    ("perfect-k-numpy", lambda: perfect(np.int64(3)), K_FLOAT + repr(np.int64(3))),
    ("n_factor-k-float", lambda: n_factor(Metric.L1, 2.5), K_FLOAT + "2.5"),
    # The cached factor of k = 2 must not answer for k = 2.0.
    ("n_factor-k-float-after-int", lambda: [n_factor(Metric.L1, 2), n_factor(Metric.L1, 2.0)], K_FLOAT + "2.0"),
    ("of_size-k-float", lambda: AttributeSpace.of_size(2.5), K_FLOAT + "2.5"),
    ("confusion-not-square", lambda: ConfusionModel(np.full((2, 3), 1 / 3)),
     "confusion matrix has shape (2, 3), expected a square matrix"),
    ("cost-not-square", lambda: CostMatrix(np.zeros((2, 3))), "cost matrix has shape (2, 3), expected a square matrix"),
    ("preset-k-float", lambda: preset("set2", 4.0), K_FLOAT + "4.0"),
    ("eps-str", lambda: uniform_noise(2, "0.1"), "eps must be a number, got '0.1'"),
    ("base-seed-float", lambda: derive_seed(1.5, 2), "base seed must be an integer, got 1.5"),
    ("base-seed-bool", lambda: derive_seed(True, 2), "base seed must be an integer, got True"),
    ("seeds-bool", lambda: estimate(perfect(2), np.eye(2), Sampled(10, 0), [True, False]),
     "seeds must be 2 integers in [0, 2**64), one per row"),
    ("confusion-str-entries", lambda: ConfusionModel([["a", "b"], ["c", "d"]]), "confusion entries" + NOT_NUMBERS),
    # Confusion rows pass the distribution check, check_rows, and are kept as given.
    ("confusion-row-sum", lambda: ConfusionModel([[0.9, 0.2], [0.1, 0.9]]), "confusion rows sum to 1.1, expected 1"),
    ("confusion-negative", lambda: ConfusionModel([[1.2, -0.2], [0.0, 1.0]]), "confusion rows must be non-negative"),
    ("confusion-nan", lambda: ConfusionModel([[np.nan, 0.0], [0.0, 1.0]]), "confusion rows must be finite"),
    # An attribute space is a tuple of (name, values) pairs, so it unpacks and hashes.
    ("space-str", lambda: AttributeSpace("ab"), "attribute space must be a tuple of (name, values) pairs, got 'ab'"),
    ("space-short-pair", lambda: AttributeSpace((("a",),)),
     "attribute space must be a tuple of (name, values) pairs, got (('a',),)"),
    ("space-list", lambda: AttributeSpace([("a", ("x", "y"))]),
     "attribute space must be a tuple of (name, values) pairs, got [('a', ('x', 'y'))]"),
    ("dist-str-entries", lambda: CategoricalDistribution(AttributeSpace.of_size(2), ["a", "b"]),
     "distribution entries" + NOT_NUMBERS),
    ("accs-str", lambda: from_accuracies(["a", "b"]), "accuracies" + NOT_NUMBERS),
    ("estimate-str-entries", lambda: estimate(perfect(2), ["a", "b"]), "rows" + NOT_NUMBERS),
    ("fd_score-str-entries", lambda: fd_score(Metric.L1, ["a", "b"]), "rows" + NOT_NUMBERS),
    ("specificity-str-entries", lambda: specificity(["a", "b"]), "rows" + NOT_NUMBERS),
    # numpy would drop a complex array's imaginary parts with only a ComplexWarning; a complex list is refused as well.
    ("fd_score-complex-array", lambda: fd_score(Metric.L1, np.array([0.5 + 0j, 0.5])), "rows" + NOT_NUMBERS),
    ("estimate-complex-array", lambda: estimate(perfect(2), np.array([0.5 + 0j, 0.5])), "rows" + NOT_NUMBERS),
    ("dist-complex-array", lambda: CategoricalDistribution(AttributeSpace.of_size(2), np.array([0.5 + 0j, 0.5])),
     "distribution entries" + NOT_NUMBERS),
    ("fd_score-complex-list", lambda: fd_score(Metric.L1, [0.5 + 0j, 0.5]), "rows" + NOT_NUMBERS),
    ("solve-str-entries", lambda: solve(["a", "b"], [0.5, 0.5], default_cost(2)), "transport marginals" + NOT_NUMBERS),
    # Transport marginals are distributions; equal masses far from 1 are refused like any other.
    ("solve-negative-p", lambda: solve([1.5, -0.5], [0.5, 0.5], default_cost(2)),
     "transport marginals must be non-negative"),
    ("solve-negative-q", lambda: solve([0.5, 0.5], [-0.5, 1.5], default_cost(2)),
     "transport marginals must be non-negative"),
    ("solve-equal-mass-past-one", lambda: solve([0.6, 0.6], [0.6, 0.6], default_cost(2)),
     "transport marginals sum to 1.2, expected 1"),
    ("solve_rows-vectors", lambda: transport.solve_rows([0.5, 0.5], [0.5, 0.5], default_cost(2)),
     "transport needs two (N, k) blocks of one shape, got shapes (2,) and (2,)"),
    ("cost-str-entries", lambda: CostMatrix([["a", "b"], ["c", "d"]]), "costs" + NOT_NUMBERS),
    ("mepe_fair-str-entries", lambda: mepe_fair(["a", "b"]), "mepe_fair: scores" + NOT_NUMBERS),
    ("mem-str-entries", lambda: mem(["a", "b"], [0.5, 0.5]), "mem: scores" + NOT_NUMBERS),
    ("mepe_fair-nan", lambda: mepe_fair([np.nan, 0.1]), "mepe_fair: scores must be finite"),
    ("mepe_ab-inf", lambda: mepe_ab([np.inf]), "mepe_ab: scores must be finite"),
    ("mem-nan", lambda: mem([np.nan], [0.0]), "mem: scores must be finite"),
    # Rows need a last axis of outcomes, and are read before their shape is taken.
    ("fd_score-scalar", lambda: fd_score(Metric.L1, 0.5), "rows" + NO_OUTCOMES + "()"),
    ("estimate-scalar", lambda: estimate(perfect(2), 0.5), "rows" + NO_OUTCOMES + "()"),
    ("l1-scalars", lambda: l1(0.5, 0.5), "rows" + NO_OUTCOMES + "()"),
    ("specificity-scalar", lambda: specificity(0.5), "rows" + NO_OUTCOMES + "()"),
    ("raw_score-ragged", lambda: raw_score(Metric.L1, [[0.5, 0.5], [1.0]]), "rows" + NOT_NUMBERS),
    ("fd_score-no-outcomes", lambda: fd_score(Metric.L1, []), "rows" + NO_OUTCOMES + "(0,)"),
    # fd_score scores distributions only, and returns a score in [0, 1] or refuses, never NaN or a value past 1.
    ("fd_score-nan", lambda: fd_score(Metric.L1, [np.nan, np.nan]), "rows must be finite"),
    ("fd_score-past-one", lambda: fd_score(Metric.L1, [2.0, -1.0]), "rows must be non-negative"),
    ("fd_score-row-sum", lambda: fd_score(Metric.L1, [0.9, 0.9]), "rows sum to 1.8, expected 1"),
    ("ep-trials-str-expectation", lambda: run_ep_analysis(perfect(2), EXPECTATION, L1, trials="x"),
     "trials must be an integer, got 'x'"),
    ("mem-ragged", lambda: mem([[0.5, 0.5], [1.0]], [[0.5, 0.5], [1.0]]), "mem: scores" + NOT_NUMBERS),
    # Sampled mode checks its rows by the rule expectation mode applies to its result, before any draw.
    ("sampled-rows-sum-past-one", lambda: estimate(ConfusionModel(np.eye(2)), [0.7, 0.7], Sampled(10, 0)),
     "distribution entries sum to 1.4, expected 1"),
    ("sampled-rows-negative", lambda: estimate(ConfusionModel(np.eye(2)), [2.0, -1.0], Sampled(10, 0)),
     "distribution entries must be non-negative"),
    ("sampled-rows-nan", lambda: estimate(ConfusionModel(np.eye(2)), [np.nan, np.nan], Sampled(10, 0)),
     "distribution entries must be finite"),
    # An argument of the wrong type is refused by name, before anything is read from it.
    ("solve-cost-array", lambda: solve([0.5, 0.5], [0.5, 0.5], np.ones((2, 2)) - np.eye(2)),
     "cost must be a CostMatrix, got ndarray"),
    ("solve_rows-cost-none", lambda: transport.solve_rows([[0.5, 0.5]], [[0.5, 0.5]], None),
     "cost must be a CostMatrix, got NoneType"),
    ("estimate-array-model", lambda: estimate(np.eye(2), [0.5, 0.5]), "model must be a ConfusionModel, got ndarray"),
    ("estimate-mode-str", lambda: estimate(perfect(2), [0.5, 0.5], "sampled"),
     "mode must be Expectation or Sampled, got str"),
    ("fd_score-metric-str", lambda: fd_score("x", [0.5, 0.5]), UNKNOWN_METRIC + "'x'" + VALID_METRICS),
    ("n_factor-metric-str", lambda: n_factor("x", 2), UNKNOWN_METRIC + "'x'" + VALID_METRICS),
    ("raw_score-metric-none", lambda: raw_score(None, [0.5, 0.5]), UNKNOWN_METRIC + "None" + VALID_METRICS),
    ("fd_score-metric-list", lambda: fd_score(["l1"], [0.5, 0.5]), UNKNOWN_METRIC + "['l1']" + VALID_METRICS),
    # n_factor refuses the metric before its cache hashes it.
    ("n_factor-metric-list", lambda: n_factor(["l1"], 2), UNKNOWN_METRIC + "['l1']" + VALID_METRICS),
    ("parse_metrics-int", lambda: parse_metrics(5), "metric list must be a string, got 5"),
    ("report_to_csv-none", lambda: report_to_csv(None), "report must be a BenchmarkReport, got NoneType"),
    ("report_to_markdown-none", lambda: report_to_markdown(None), "report must be a BenchmarkReport, got NoneType"),
    ("ingest_predictions-none", lambda: ingest_predictions(None), "predictions must be a Predictions, got NoneType"),
    ("per_class_accuracy-list", lambda: per_class_accuracy([[1, 0], [0, 1]]), "model must be a ConfusionModel, got list"),
    # The report's float format owns its precision bound, which the CLI's --precision reuses.
    ("report_to_csv-precision-negative", lambda: report_to_csv(small_report(), -1), "precision must be in [0, 17], got -1"),
    ("report_to_markdown-precision-18", lambda: report_to_markdown(small_report(), 18),
     "precision must be in [0, 17], got 18"),
    ("report_to_csv-precision-float", lambda: report_to_csv(small_report(), 6.0), "precision must be an integer, got 6.0"),
    # Seeds are per sampled row; raw_score checks k as fd_score does.
    ("estimate-expectation-seeds", lambda: estimate(perfect(2), [0.5, 0.5], EXPECTATION, seeds=[1]),
     "expectation mode takes no seeds"),
    ("raw_score-k-1", lambda: raw_score(Metric.SPECIFICITY, [1.0]), "k must be in [2, 1000], got 1"),
    ("raw_score-k-1001", lambda: raw_score(Metric.L1, np.full(1001, 1 / 1001)), "k must be in [2, 1000], got 1001"),
    # A wrong type is refused before it is hashed or read; a value whose repr spans lines is shown on one.
    ("n_factor-k-list", lambda: n_factor(Metric.L1, [2]), K_FLOAT + "[2]"),
    ("preset-name-list", lambda: preset([]), "unknown preset [] (valid: " + ", ".join(classifier.PRESET_NAMES) + ")"),
    ("dist-space-none", lambda: CategoricalDistribution(None, [0.5, 0.5]),
     "space must be a AttributeSpace, got NoneType"),
    ("fd_score-numpy-complex-in-list", lambda: fd_score(Metric.L1, [np.complex128(0.5 + 0.1j), 0.5]),
     "rows" + NOT_NUMBERS),
    ("perfect-k-array", lambda: perfect(np.eye(2)), K_FLOAT + "array([[1., 0.], [0., 1.]])"),
]


def from_pipe(load, text: str):
    """`load` of the read end of a pipe that holds `text`, its write end closed; the read end must still be open
    afterwards, since `open` takes an int for a descriptor and closes it."""
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    try:
        return load(read_end)
    finally:
        os.fstat(read_end)
        os.close(read_end)


# A path is a str, bytes or os.PathLike: `open` would take an int or a bool for a file descriptor, and close it.
LOADERS = [("load_space", load_space, '{"attributes": [{"name": "a", "values": ["x", "y"]}]}'),
           ("load_distribution", load_distribution, '{"k": 2, "p": [0.5, 0.5]}'),
           ("load_confusion", load_confusion, '{"k": 2, "m": [[1, 0], [0, 1]]}'),
           ("load_predictions", partial(load_predictions, k=2), '{"id": "a", "pred": 0}\n')]
NOT_A_PATH = "path must be a str, bytes or os.PathLike, got "
BAD_SCALARS += [row for name, load, text in LOADERS for row in [
    (f"{name}-none", partial(load, None), NOT_A_PATH + "NoneType"),
    (f"{name}-float", partial(load, 1.5), NOT_A_PATH + "float"),
    (f"{name}-bool", partial(load, True), NOT_A_PATH + "bool"),
    (f"{name}-pipe-fd", partial(from_pipe, load, text), NOT_A_PATH + "int")]]


def small_report():
    return run_benchmark([perfect(2)], metrics=L1, step=0.5)


@pytest.mark.parametrize("metric", list(Metric))
def test_a_metric_value_scores_as_its_metric(metric):
    rows = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
    assert np.array_equal(fd_score(metric.value, rows), fd_score(metric, rows))
    assert np.array_equal(raw_score(metric.value, rows), raw_score(metric, rows))
    assert n_factor(metric.value, 3) == n_factor(metric, 3)


@pytest.mark.parametrize("call,message", [row[1:] for row in BAD_SCALARS], ids=[row[0] for row in BAD_SCALARS])
def test_bad_scalar_or_entry_is_one_validation_error(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_score_outside_unit_interval_refused(monkeypatch):
    # raw 0.75 over n_factor(l1, 2) = 0.5 is the quotient 1.5.
    monkeypatch.setattr(metrics, "raw_score", lambda m, rows: np.full(np.shape(rows)[:-1], 0.75))
    with pytest.raises(ValidationError, match=r"^score 1.5 outside \[0, 1\] for l1 at k=2$"):
        run_ep_analysis(perfect(2), EXPECTATION, L1)


def preset_like_set2_k4():
    return from_accuracies(np.full(4, 0.86))
