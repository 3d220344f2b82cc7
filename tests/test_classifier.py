import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import dist
from fairdisc import (
    AttributeSpace,
    ConfusionModel,
    PredictionRecord,
    Sampled,
    ValidationError,
    estimate,
    from_accuracies,
    ingest_predictions,
    load_confusion,
    per_class_accuracy,
    perfect,
    preset,
    uniform,
    uniform_noise,
)
from fairdisc.classifier import PRESET_ACCURACIES, derive_seed, load_predictions, parse_prediction_line


class TestConfusionModel:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValidationError):
            ConfusionModel(2, np.array([[0.9, 0.2], [0.1, 0.9]]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            ConfusionModel(2, np.array([[1.2, -0.2], [0.0, 1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ConfusionModel(3, np.eye(2))

    def test_perfect_is_identity(self):
        assert np.array_equal(perfect(4).m, np.eye(4))

    def test_uniform_noise_entries(self):
        m = uniform_noise(4, 0.2).m
        assert m[0, 0] == pytest.approx(0.85)
        assert m[0, 1] == pytest.approx(0.05)

    def test_uniform_noise_eps_bounds(self):
        with pytest.raises(ValidationError):
            uniform_noise(2, -0.1)
        with pytest.raises(ValidationError):
            uniform_noise(2, 1.1)

    def test_from_accuracies(self):
        m = from_accuracies([0.98, 0.95]).m
        assert m[0].tolist() == pytest.approx([0.98, 0.02])
        assert m[1].tolist() == pytest.approx([0.05, 0.95])
        assert per_class_accuracy(from_accuracies([0.9, 0.8, 0.7])).tolist() == [0.9, 0.8, 0.7]

    def test_from_accuracies_validation(self):
        with pytest.raises(ValidationError):
            from_accuracies([0.9])
        with pytest.raises(ValidationError):
            from_accuracies([0.9, 1.2])


class TestEstimate:
    def test_expectation_hand_value(self):
        model = from_accuracies([0.98, 0.95])
        est = estimate(model, dist(2, [0.5, 0.5]))
        assert est.tolist() == pytest.approx([0.515, 0.485])

    def test_expectation_at_extreme_point(self):
        model = from_accuracies([0.98, 0.95])
        est = estimate(model, dist(2, [1.0, 0.0]))
        assert est.tolist() == pytest.approx([0.98, 0.02])

    def test_perfect_returns_input_exactly(self, space):
        d = uniform(space)
        assert np.array_equal(estimate(perfect(space.k), d), d.p)

    def test_k_mismatch(self):
        with pytest.raises(ValidationError):
            estimate(perfect(3), dist(2, [0.5, 0.5]))

    @settings(max_examples=50, deadline=None)
    @given(p=conftest.distributions(4), eps=st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]))
    def test_uniform_noise_pulls_toward_uniform(self, p, eps):
        # expectation under symmetric noise is an exact convex mix with uniform
        est = estimate(uniform_noise(4, eps), p)
        want = (1 - eps) * p.p + eps / 4
        assert np.allclose(est, want, atol=1e-12)

    def test_sampled_is_deterministic(self):
        model = uniform_noise(4, 0.2)
        d = dist(4, [0.4, 0.3, 0.2, 0.1])
        a = estimate(model, d, Sampled(n=1000, seed=42))
        b = estimate(model, d, Sampled(n=1000, seed=42))
        c = estimate(model, d, Sampled(n=1000, seed=43))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sampled_counts_are_multiples_of_one_over_n(self):
        est = estimate(perfect(2), dist(2, [0.3, 0.7]), Sampled(n=50, seed=1))
        assert np.allclose(est * 50, np.round(est * 50))

    def test_sampled_converges_to_expectation(self):
        model = from_accuracies([0.9, 0.8, 0.7, 0.85])
        d = dist(4, [0.4, 0.3, 0.2, 0.1])
        want = estimate(model, d)
        got = estimate(model, d, Sampled(n=200000, seed=5))
        assert np.abs(got - want).max() <= 0.005

    def test_sample_count_validated(self):
        with pytest.raises(ValidationError):
            Sampled(n=0, seed=1)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, 1, 2, 3)
        assert base != derive_seed(8, 1, 2, 3)
        assert base != derive_seed(7, 1, 2, 4)
        assert base != derive_seed(7, 2, 1, 3)


class TestIngest:
    def space(self):
        return AttributeSpace.of_size(2)

    def test_hard_tally(self):
        recs = [PredictionRecord(id=str(i), pred=i % 2) for i in range(4)]
        est, confusion = ingest_predictions(self.space(), recs)
        assert est.p.tolist() == [0.5, 0.5]
        assert confusion is None  # no truth labels

    def test_soft_mean(self):
        recs = [PredictionRecord(id="a", probs=[0.8, 0.2]),
                PredictionRecord(id="b", probs=[0.4, 0.6])]
        est, _ = ingest_predictions(self.space(), recs)
        assert est.p.tolist() == pytest.approx([0.6, 0.4])

    def test_soft_mean_absorbs_per_record_drift(self):
        # each record is within the 1e-6 record tolerance, their plain mean is
        # not within the 1e-9 distribution tolerance
        recs = [PredictionRecord(id=str(i), probs=[0.3333333] * 3) for i in range(3)]
        est, _ = ingest_predictions(AttributeSpace.of_size(3), recs)
        assert est.p.tolist() == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_mixed_kinds_rejected(self):
        recs = [PredictionRecord(id="a", probs=[0.8, 0.2]),
                PredictionRecord(id="b", pred=1)]
        with pytest.raises(ValidationError):
            ingest_predictions(self.space(), recs)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ingest_predictions(self.space(), [])

    def test_out_of_range_label(self):
        with pytest.raises(ValidationError):
            ingest_predictions(self.space(), [PredictionRecord(id="a", pred=2)])
        with pytest.raises(ValidationError):
            ingest_predictions(self.space(), [PredictionRecord(id="a", pred=0, truth=9)])

    def test_confusion_from_full_truth(self):
        recs = [PredictionRecord(id="a", pred=0, truth=0),
                PredictionRecord(id="b", pred=1, truth=1),
                PredictionRecord(id="c", pred=0, truth=1),
                PredictionRecord(id="d", pred=1, truth=1)]
        _, confusion = ingest_predictions(self.space(), recs)
        assert confusion.m[0].tolist() == [1.0, 0.0]
        assert confusion.m[1].tolist() == pytest.approx([1 / 3, 2 / 3])

    def test_unseen_truth_class_keeps_identity_row(self):
        recs = [PredictionRecord(id="a", pred=1, truth=1)]
        _, confusion = ingest_predictions(self.space(), recs)
        assert confusion.m[0].tolist() == [1.0, 0.0]

    def test_partial_truth_gives_no_confusion(self):
        recs = [PredictionRecord(id="a", pred=0, truth=0),
                PredictionRecord(id="b", pred=1)]
        _, confusion = ingest_predictions(self.space(), recs)
        assert confusion is None

    def test_soft_confusion_uses_argmax(self):
        recs = [PredictionRecord(id="a", probs=[0.9, 0.1], truth=1)]
        _, confusion = ingest_predictions(self.space(), recs)
        assert confusion.m[1].tolist() == [1.0, 0.0]

    def test_record_validation(self):
        with pytest.raises(ValidationError):
            PredictionRecord(id="a")  # neither probs nor pred
        with pytest.raises(ValidationError):
            PredictionRecord(id="a", probs=[0.5, 0.5], pred=1)  # both
        with pytest.raises(ValidationError, match=r"sum to 1\.01, expected 1"):
            PredictionRecord(id="a", probs=[0.5, 0.51])  # sum off by > 1e-6
        PredictionRecord(id="a", probs=[0.5, 0.5000004])  # within tolerance


class TestPredictionFiles:
    def test_parse_accepts_true_and_truth_keys(self):
        a = parse_prediction_line('{"id": "x", "pred": 1, "true": 0}', 1)
        b = parse_prediction_line('{"id": "y", "pred": 1, "truth": 0}', 2)
        assert a.truth == 0 and b.truth == 0

    def test_parse_reports_line_number(self):
        with pytest.raises(ValidationError, match="line 7"):
            parse_prediction_line("{oops", 7)
        with pytest.raises(ValidationError, match="line 3"):
            parse_prediction_line('{"pred": 1}', 3)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "a", "pred": 0}\n\n{"id": "b", "pred": 1}\n')
        assert len(load_predictions(path)) == 2

    def test_load_confusion_roundtrip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"k": 2, "m": [[0.9, 0.1], [0.2, 0.8]]}')
        assert load_confusion(path).m[1, 0] == 0.2

    def test_load_confusion_errors(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"k": 2}')
        with pytest.raises(ValidationError):
            load_confusion(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError):
            load_confusion(path)


class TestPresets:
    def test_known_accuracies(self):
        for name, (k, acc) in PRESET_ACCURACIES.items():
            model = preset(name)
            assert model.k == k
            assert np.allclose(per_class_accuracy(model), acc)

    def test_family_resolves_by_k(self):
        assert np.array_equal(preset("set2", 8).m, preset("set2-k8").m)

    def test_perfect_needs_k(self):
        with pytest.raises(ValidationError):
            preset("perfect")
        assert np.array_equal(preset("perfect", 3).m, np.eye(3))

    def test_fixed_k_mismatch(self):
        with pytest.raises(ValidationError):
            preset("set1-a", k=4)

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            preset("set3-k2", k=2)
