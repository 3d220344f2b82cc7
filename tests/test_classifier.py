import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import dist
from fairdisc import (
    ConfusionModel,
    Sampled,
    ValidationError,
    estimate,
    from_accuracies,
    ingest_predictions,
    load_confusion,
    per_class_accuracy,
    perfect,
    preset,
    uniform_noise,
)
from fairdisc.classifier import PRESET_ACCURACIES, derive_seed, load_predictions
from oracles import reference_ingest, reference_sample


class TestConfusionModel:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValidationError):
            ConfusionModel(np.array([[0.9, 0.2], [0.1, 0.9]]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            ConfusionModel(np.array([[1.2, -0.2], [0.0, 1.0]]))

    def test_rejects_shape_mismatch(self):
        # k is read from the matrix, so the only mismatch is a matrix that is not square.
        for m in (np.full((2, 3), 1 / 3), [0.5, 0.5], np.eye(2)[None]):
            with pytest.raises(ValidationError, match=r"^confusion matrix has shape \(.*\), expected a square matrix$"):
                ConfusionModel(m)
        assert ConfusionModel(np.eye(3)).k == 3

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
        p = np.full(space.k, 1.0 / space.k)
        assert np.array_equal(estimate(perfect(space.k), p), p)

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            Sampled(n=100, seed=-1)

    @pytest.mark.parametrize("seeds", [[1], [1, 2, 3], [-1, 2], [2**64, 2], [0.5, 2], [[1, 2]]])
    def test_seeds_validated(self, seeds):
        with pytest.raises(ValidationError, match="seeds must be 2 integers in"):
            estimate(perfect(2), np.eye(2), Sampled(n=10, seed=0), seeds)


def confusion_models(k):
    """Row-stochastic k x k matrices with random zero entries (rows kept non-empty)."""
    def build(draw_seed):
        rng = np.random.default_rng(draw_seed)
        m = rng.dirichlet(np.ones(k), size=k) * (rng.random((k, k)) < 0.6)
        m[np.arange(k), rng.integers(0, k, size=k)] += 1e-3
        return ConfusionModel(m / m.sum(axis=1, keepdims=True))
    return st.integers(0, 2**32 - 1).map(build)


@st.composite
def sampled_cases(draw):
    k = draw(st.integers(2, 16))
    model = draw(st.one_of(st.just(perfect(k)), confusion_models(k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["one-hot", "uniform", "dirichlet"]), min_size=1, max_size=4))
    rows = np.array([np.eye(k)[rng.integers(k)] if kind == "one-hot" else
                     np.full(k, 1.0 / k) if kind == "uniform" else rng.dirichlet(np.ones(k) * 0.5)
                     for kind in kinds])
    seeds = draw(st.none() | st.lists(st.integers(0, 2**64 - 1), min_size=len(rows), max_size=len(rows)))
    mode = Sampled(draw(st.sampled_from([1, 7, 1000, 100000])), draw(st.integers(0, 2**70)))
    return model, rows, mode, seeds


class TestSampledStreams:
    @settings(max_examples=80, deadline=None)
    @given(case=sampled_cases())
    def test_rows_match_fresh_generator_per_row(self, case):
        # Every row draws exactly what a fresh default_rng(seed) per row draws.
        model, rows, mode, seeds = case
        got = estimate(model, rows, mode, seeds)
        for r, p in enumerate(rows):
            seed = mode.seed if seeds is None else seeds[r]
            assert np.array_equal(got[r], reference_sample(model.m, p, mode.n, seed))

    @pytest.mark.parametrize("m", [[[1.0000000005, 0], [0, 1]],
                                   [[0.6, 0.4000000005, 0], [0, 1, 0], [0, 0, 1]]])
    def test_rows_off_by_tolerance_draw_from_renormalized_rows(self, m):
        # Accepted rows may sum to 1 +- SUM_TOL; multinomial rejects those itself.
        model = ConfusionModel(m)
        rows = np.vstack([np.eye(model.k), np.full(model.k, 1.0 / model.k)])
        seeds = list(range(len(rows)))
        got = estimate(model, rows, Sampled(1000, 0), seeds)
        renormalized = np.array(m) / np.sum(m, axis=1, keepdims=True)
        for r, p in enumerate(rows):
            assert np.array_equal(got[r], reference_sample(renormalized, p, 1000, seeds[r]))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, 1, 2, 3)
        assert base != derive_seed(8, 1, 2, 3)
        assert base != derive_seed(7, 1, 2, 4)
        assert base != derive_seed(7, 2, 1, 3)

    @pytest.mark.parametrize("base", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5 * 2**32 + 7])
    def test_matches_seed_sequence(self, base):
        parts = np.random.default_rng(base % 2**32).integers(0, 2**32, size=(4, 40), dtype=np.uint64)
        parts[:, 0], parts[:, 1] = 0, 2**32 - 1
        want = [np.random.SeedSequence([base, *map(int, cell)]).generate_state(1, np.uint64)[0] for cell in parts.T]
        assert np.array_equal(derive_seed(base, *parts), want)
        assert derive_seed(base, *parts[:, 2]) == want[2]

    def test_parts_broadcast(self):
        got = derive_seed(3, 4, 1, np.arange(4), np.arange(5)[:, None])
        assert got.shape == (5, 4)
        assert got[2, 3] == derive_seed(3, 4, 1, 3, 2)

    @pytest.mark.parametrize("base, parts", [(-1, (1, 2)), (7, (-1, 2)), (7, (1, 2**32)),
                                             (7, (1, np.array([0, 2**32]))), (7, (1, 0.5)), (7, (2**64,))])
    def test_rejects_out_of_range(self, base, parts):
        with pytest.raises(ValidationError):
            derive_seed(base, *parts)


def write_jsonl(tmp_path, *records, name="p.jsonl"):
    """One line per record: a dict is written as JSON, a string as given."""
    path = tmp_path / name
    path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records))
    return path


def ingest(tmp_path, *records, k=2):
    return ingest_predictions(load_predictions(write_jsonl(tmp_path, *records), k))


class TestIngest:
    def test_hard_tally(self, tmp_path):
        est, confusion = ingest(tmp_path, *({"id": str(i), "pred": i % 2} for i in range(4)))
        assert est.tolist() == [0.5, 0.5]
        assert confusion is None  # no truth labels

    def test_soft_mean(self, tmp_path):
        est, _ = ingest(tmp_path, {"id": "a", "probs": [0.8, 0.2]}, {"id": "b", "probs": [0.4, 0.6]})
        assert est.tolist() == pytest.approx([0.6, 0.4])

    def test_soft_mean_absorbs_per_record_drift(self, tmp_path):
        # each record is within the 1e-6 record tolerance, their plain mean is
        # not within the 1e-9 distribution tolerance
        est, _ = ingest(tmp_path, *({"id": str(i), "probs": [0.3333333] * 3} for i in range(3)), k=3)
        assert est.tolist() == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_mixed_kinds_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^line 2: prediction stream mixes"):
            ingest(tmp_path, {"id": "a", "probs": [0.8, 0.2]}, {"id": "b", "pred": 1})
        with pytest.raises(ValidationError, match=r"^line 3: prediction stream mixes"):
            ingest(tmp_path, {"id": "a", "pred": 1}, "", {"id": "b", "probs": [0.8, 0.2]})

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="empty"):
            ingest(tmp_path)
        with pytest.raises(ValidationError, match="empty"):
            ingest(tmp_path, "", "  ")

    def test_out_of_range_label(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^line 1: record 'a': pred 2 out of range for k=2$"):
            ingest(tmp_path, {"id": "a", "pred": 2})
        with pytest.raises(ValidationError, match=r"^line 2: record 'b': pred -1 out of range"):
            ingest(tmp_path, {"id": "a", "pred": 0}, {"id": "b", "pred": -1})
        with pytest.raises(ValidationError, match=r"^line 1: record 'a': truth 9 out of range for k=2$"):
            ingest(tmp_path, {"id": "a", "pred": 0, "truth": 9})
        with pytest.raises(ValidationError, match=r"^line 1: record 'a': probs have length 3, expected 2$"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.25, 0.25]})

    def test_confusion_from_full_truth(self, tmp_path):
        _, confusion = ingest(tmp_path, {"id": "a", "pred": 0, "true": 0}, {"id": "b", "pred": 1, "true": 1},
                              {"id": "c", "pred": 0, "true": 1}, {"id": "d", "pred": 1, "true": 1})
        assert confusion.m[0].tolist() == [1.0, 0.0]
        assert confusion.m[1].tolist() == pytest.approx([1 / 3, 2 / 3])

    def test_unseen_truth_class_keeps_identity_row(self, tmp_path):
        _, confusion = ingest(tmp_path, {"id": "a", "pred": 1, "true": 1})
        assert confusion.m[0].tolist() == [1.0, 0.0]

    def test_partial_truth_gives_no_confusion(self, tmp_path):
        for records in ([{"id": "a", "pred": 0, "true": 0}, {"id": "b", "pred": 1}],
                        [{"id": "a", "pred": 0}, {"id": "b", "pred": 1, "true": 1}]):
            _, confusion = ingest(tmp_path, *records)
            assert confusion is None

    def test_soft_confusion_uses_argmax(self, tmp_path):
        _, confusion = ingest(tmp_path, {"id": "a", "probs": [0.9, 0.1], "true": 1})
        assert confusion.m[1].tolist() == [1.0, 0.0]
        # ties go to the first maximal entry
        _, confusion = ingest(tmp_path, {"id": "a", "probs": [0.4, 0.1, 0.4, 0.1], "true": 1}, k=4)
        assert confusion.m[1].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_record_validation(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^line 1: record 'a': exactly one of probs/pred"):
            ingest(tmp_path, {"id": "a"})  # neither probs nor pred
        with pytest.raises(ValidationError, match=r"^line 1: record 'a': exactly one of probs/pred"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.5], "pred": 1})  # both
        with pytest.raises(ValidationError, match=r"^line 2: record 'b': probs sum to 1\.01, expected 1$"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.5]}, {"id": "b", "probs": [0.5, 0.51]})
        with pytest.raises(ValidationError, match=r"^line 1: record 'a': probs sum to 0\.99, expected 1$"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.49]})
        with pytest.raises(ValidationError, match=r"^line 1: record '7': probs must be a non-negative vector$"):
            ingest(tmp_path, '{"id": 7, "probs": [NaN, 1]}')
        with pytest.raises(ValidationError, match=r"^line 1: record 'a': probs must be a non-negative vector$"):
            ingest(tmp_path, {"id": "a", "probs": [1.5, -0.5]})
        # within tolerance on either side
        est, _ = ingest(tmp_path, {"id": "a", "probs": [0.5, 0.5000004]}, {"id": "b", "probs": [0.5, 0.4999996]})
        assert est.sum() == pytest.approx(1.0, abs=1e-15)

    def test_value_errors_name_the_first_bad_row(self, tmp_path):
        # the per-line checks see the whole file before the value checks run
        with pytest.raises(ValidationError, match=r"^line 3: record 'c': probs have length 1"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.6]}, {"id": "b", "probs": [-1, 2]},
                   {"id": "c", "probs": [1]})
        with pytest.raises(ValidationError, match=r"^line 3: record 'b': probs sum to 1\.1"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.5]}, "", {"id": "b", "probs": [0.5, 0.6]},
                   {"id": "c", "probs": [-1, 2]})

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_sequential_reference(self, tmp_path_factory, data):
        k = data.draw(st.integers(2, 16))
        n = data.draw(st.integers(1, 60))
        soft = data.draw(st.booleans())
        truth = data.draw(st.sampled_from(["full", "partial", "none"]))
        records = []
        for i in range(n):
            rec = {"id": f"r{i}"}
            if soft:
                w = data.draw(st.lists(st.floats(0, 1), min_size=k, max_size=k).filter(lambda w: sum(w) > 0))
                drift = data.draw(st.sampled_from([1.0, 1 + 5e-7, 1 - 5e-7]))
                rec["probs"] = [x / sum(w) * drift for x in w]
            else:
                rec["pred"] = data.draw(st.integers(0, k - 1))
            if truth == "full" or (truth == "partial" and data.draw(st.booleans())):
                rec["true"] = data.draw(st.integers(0, k - 1))
            records.append(rec)
        assert_matches_reference(tmp_path_factory.mktemp("ingest"), k, records)

    def test_matches_sequential_reference_on_many_records(self, tmp_path):
        # Enough soft rows that a pairwise sum would round differently from the running total.
        rng = np.random.default_rng(0)
        w = rng.random((5_000, 5)) * rng.choice([1.0, 1e-3], size=(5_000, 5))
        records = [{"id": f"r{i}", "probs": row.tolist(), "true": i % 5}
                   for i, row in enumerate(w / w.sum(axis=1, keepdims=True))]
        assert_matches_reference(tmp_path, 5, records)


def assert_matches_reference(tmp_path, k, records):
    est, confusion = ingest(tmp_path, *records, k=k)
    want_p, want_m = reference_ingest(k, records)
    assert np.array_equal(est, want_p)
    if want_m is None:
        assert confusion is None
    else:
        assert np.array_equal(confusion.m, want_m)


class TestPredictionFiles:
    def test_parse_accepts_true_and_truth_keys(self, tmp_path):
        preds = load_predictions(write_jsonl(tmp_path, '{"id": "x", "pred": 1, "true": 0}',
                                             '{"id": "y", "pred": 1, "truth": 0}'), 2)
        assert preds.truth.tolist() == [0, 0]

    def test_parse_reports_line_number(self, tmp_path):
        with pytest.raises(ValidationError, match="line 7"):
            load_predictions(write_jsonl(tmp_path, *[{"id": "a", "pred": 0}] * 6, "{oops"), 2)
        with pytest.raises(ValidationError, match="line 3"):
            load_predictions(write_jsonl(tmp_path, {"id": "a", "pred": 0}, "", '{"pred": 1}'), 2)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "a", "pred": 0}\n\n{"id": "b", "pred": 1}\n')
        preds = load_predictions(path, 2)
        assert len(preds) == 2
        assert preds.pred.tolist() == [0, 1] and preds.probs is None and preds.truth is None

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
