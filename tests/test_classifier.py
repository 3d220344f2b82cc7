import ctypes
import json
import os
import re
import threading
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import dist, no_children, pool_imaps, traced_peak
from fairdisc import (
    ConfusionModel,
    Sampled,
    ValidationError,
    estimate,
    from_accuracies,
    from_spec,
    ingest_predictions,
    load_confusion,
    per_class_accuracy,
    perfect,
    preset,
    sweep,
    uniform_noise,
)
from fairdisc import classifier
from fairdisc.attrspace import normalized_rows
from fairdisc.classifier import PRESET_ACCURACIES, _json_line, derive_seed, load_predictions
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

    def test_checks_build_no_copy_of_the_matrix(self):
        # The model's own 8 MB float copy and the checks' boolean masks, but no renormalized copy of the matrix.
        m = np.eye(1000)
        _, peak = traced_peak(lambda: ConfusionModel(m))
        assert peak < 12 * 2**20

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

    @pytest.mark.parametrize("p", [[1.0000000005, 0.0], [0.0, 1.0000000005]])
    def test_true_rows_off_by_tolerance_draw_from_renormalized_rows(self, p):
        # A true row may sum to 1 +- SUM_TOL, as the confusion rows above; multinomial rejects an entry past 1.
        model = uniform_noise(2, 0.5)
        got = estimate(model, [p], Sampled(1000, 3))
        assert np.array_equal(got[0], reference_sample(model.m, np.array(p) / sum(p), 1000, 3))


    def test_entry_just_past_one_draws_from_the_divided_row(self):
        # The row is within 1e-12 of sum 1, so it is kept as given, but numpy refuses an entry past 1.
        p = [1.0000000000005, 0.0]
        got = estimate(perfect(2), [p], Sampled(10, 0))
        assert np.array_equal(got[0], reference_sample(perfect(2).m, np.array(p) / sum(p), 10, 0))

    def test_rows_numpy_accepts_keep_their_bits_and_the_rest_are_divided(self):
        # Sums a few ulps either side of 1 + 1e-12 and entries just past 1: each row is drawn on as
        # normalized_rows gives it exactly when numpy's multinomial accepts that row, and numpy accepts every row drawn.
        rng = np.random.default_rng(11)
        rows = [rng.dirichlet(np.full(k, 0.3)) * (1.0 + 1e-12 + ulps * 2.0**-52)
                for k in (2, 3, 5, 16) for ulps in range(-12, 13) for _ in range(4)]
        rows += [np.eye(k)[0] * (1.0 + 5e-13) for k in (2, 3)] + [np.eye(3)[2] * (1.0 + 5e-13)]
        # Found by search: numpy's Kahan sum of the first k - 1 entries is at most 1 + 1e-12 for the first row and past
        # it for the second, while a plain sum of those entries says the opposite.
        rows += [np.array([0.18668139103550435, 0.035829870895293416, 0.09146836609977045, 0.08655501430068722,
                           0.01569872361998301, 0.14053329017767713, 0.0003393330165585766, 0.09800189262279628,
                           0.13473432424129655, 0.014756715804029997, 0.08755480418916302, 0.005815350104699927,
                           0.0016569302269722997, 0.07549959097580436, 0.0248744026907634, 0.0]),
                 np.array([0.013811253020702624, 0.011429869027049962, 0.10277770115605919, 9.779173386252573e-05,
                           0.005040037989099041, 0.06255288965575913, 0.2851312869698451, 0.39355838562213474,
                           0.0001768950732688161, 0.008724199662952504, 0.014083977888875734, 0.09925459403023962,
                           0.003361118171151235, 0.0])]
        for row in rows:
            given = normalized_rows(row)
            try:
                np.random.default_rng(0).multinomial(1, given)
                accepted = True
            except ValueError:
                accepted = False
            drawn = classifier._drawable(row[None])[0]
            assert np.array_equal(drawn, given) == accepted
            np.random.default_rng(0).multinomial(1, drawn)

    @pytest.mark.parametrize("n", [1, 7])
    def test_rows_past_one_buffer_match_fresh_generator_per_row(self, monkeypatch, n):
        # Three rows per draw buffer, so buffers are reused; at n = 1 and 7 most draws stop early and leave entries
        # unwritten, which a buffer not zeroed again would carry into the next rows.
        monkeypatch.setattr(classifier, "_DRAW_BYTES", 3 * 8 * 3 * 3)
        model = ConfusionModel([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [0.2, 0.7, 0.1]])
        rows = np.random.default_rng(5).dirichlet(np.ones(3), size=11)
        got = estimate(model, rows, Sampled(n, 4), list(range(11)))
        for r, p in enumerate(rows):
            assert np.array_equal(got[r], reference_sample(model.m, p, n, r))

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_zero_entries_and_outcomes_without_count_match_fresh_generator_per_row(self, n):
        # Confusion rows with zeros first, between and last; true rows whose zeros leave confusion rows undrawn,
        # and one-hot rows on every outcome. A one-hot row's draw consumes the stream unless it is on the last outcome.
        model = ConfusionModel([[0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 1.0], [0.25] * 4])
        rows = np.vstack([np.eye(4), [[0.5, 0, 0.5, 0], [0, 0.3, 0, 0.7]]])
        got = estimate(model, rows, Sampled(n, 0), list(range(len(rows))))
        for r, p in enumerate(rows):
            assert np.array_equal(got[r], reference_sample(model.m, p, n, r))

    def test_fortran_ordered_rows_and_matrix_match_fresh_generator_per_row(self):
        # The kernel reads rows by byte address, so rows and confusion rows laid out column-major must be read as rows.
        rng = np.random.default_rng(3)
        model = ConfusionModel(np.asfortranarray(rng.dirichlet(np.ones(5), size=5)))
        rows = np.asfortranarray(rng.dirichlet(np.ones(5), size=7))
        got = estimate(model, rows, Sampled(1000, 0), list(range(7)))
        for r, p in enumerate(rows):
            assert np.array_equal(got[r], reference_sample(model.m, p, 1000, r))

    def test_k_1000_block_draws_one_row_per_buffer(self):
        # One (k, k) row of draws is 8 MB, past the buffer's byte budget, so each row has a buffer of its own.
        assert 8 * 1000 * 1000 > classifier._DRAW_BYTES
        model = uniform_noise(1000, 0.3)
        rows = np.vstack([np.eye(1000)[[0, 999]], np.full(1000, 1e-3)])
        got = estimate(model, rows, Sampled(1000, 2), [7, 8, 9])
        for r, p in enumerate(rows):
            assert np.array_equal(got[r], reference_sample(model.m, p, 1000, 7 + r))


class _CountedKernel:
    """numpy's kernel, which records the count n of each call."""

    def __init__(self, kernel):
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "ns", [])

    def __setattr__(self, name, value):  # restype goes to the real kernel
        setattr(self.kernel, name, value)

    def __call__(self, bitgen, n, *args):
        self.ns.append(n.value)
        self.kernel(bitgen, n, *args)


class TestDrawKernel:
    @pytest.mark.parametrize("n", [2**31 + 3, 2**40, 2**63 - 1])
    def test_counts_past_32_bits_match_fresh_generator_per_row(self, n):
        # Every count goes to the kernel as an int64: past 2**31 for the true counts and most confusion counts.
        model = ConfusionModel([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [0.2, 0.7, 0.1]])
        rows = np.vstack([np.eye(3), np.random.default_rng(6).dirichlet(np.ones(3), size=3)])
        got = estimate(model, rows, Sampled(n, 1), list(range(len(rows))))
        for r, p in enumerate(rows):
            assert np.array_equal(got[r], reference_sample(model.m, p, n, r))

    def test_each_row_calls_the_kernel_once_then_once_per_nonzero_count(self, monkeypatch):
        # A call with n = 0 draws nothing, so a row that also drew on the confusion rows of zero counts would keep
        # its bits; only the calls show it. The cache is cleared, so the counted kernel is loaded and probed.
        real = ctypes.PyDLL
        kernel = _CountedKernel(real(np.random._generator.__file__).random_multinomial)
        monkeypatch.setattr(ctypes, "PyDLL", lambda name: types.SimpleNamespace(random_multinomial=kernel))
        model = uniform_noise(16, 0.3)
        rows = np.vstack([np.eye(16)[[0, 15]], np.random.default_rng(2).dirichlet(np.full(16, 0.5), size=20)])
        classifier._multinomial.cache_clear()
        try:
            classifier._multinomial()
            kernel.ns.clear()
            estimate(model, rows, Sampled(7, 0), list(range(len(rows))))
        finally:
            classifier._multinomial.cache_clear()
        want = []
        for r, p in enumerate(rows):
            counts = np.random.default_rng(r).multinomial(7, p)
            want += [7, *counts[counts > 0].tolist()]
        assert kernel.ns == want
        assert len(want) < 17 * len(rows)

    def test_a_state_write_that_leaves_a_buffered_half_word_fails_the_probe(self, monkeypatch):
        # The kernel draws only 64-bit words, so its draws cannot show a buffered 32-bit half that the write left;
        # the probe's read-back of `state` must.
        real = classifier._pcg64_seeder

        def seeder(bitgen):
            write = real(bitgen)

            def seed(state, inc):
                write(state, inc)
                bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": 5}
            return seed

        monkeypatch.setattr(classifier, "_pcg64_seeder", seeder)
        classifier._multinomial.cache_clear()
        try:
            with pytest.raises(OSError, match=f"numpy {np.__version__}'s random_multinomial kernel draws unlike"):
                classifier._multinomial()
        finally:
            classifier._multinomial.cache_clear()


class TestDrawChunks:
    """A chunk's budget counts its buffers and the ctypes pointers and state ints made per row, so a block of many
    small rows holds the pointers of one chunk at a time."""

    def sweep_start(self, k):
        rows = sweep(k, 0.001)
        return preset("set2", k), rows, derive_seed(0, k, 2, 0, np.arange(len(rows))).ravel()

    def test_a_k_2_sweep_start_peaks_well_under_one_chunk_of_all_rows(self):
        # 501 rows: in one chunk, their 1,503 c_void_p (144 bytes each with its list slot) take the peak to ~420 KB.
        model, rows, seeds = self.sweep_start(2)
        assert len(rows) == 501
        want = estimate(model, rows, Sampled(100_000, 0), seeds)  # loads the kernel, once per process
        got, peak = traced_peak(lambda: estimate(model, rows, Sampled(100_000, 0), seeds))
        assert np.array_equal(got, want)
        assert peak < 200_000

    def test_a_k_16_sweep_start_draws_in_no_more_chunks_than_at_16_kib_of_draw_buffers_alone(self):
        _, rows, _ = self.sweep_start(16)
        chunks = lambda rows_a_chunk: -(-len(rows) // rows_a_chunk)
        assert chunks(classifier._DRAW_BYTES // classifier._row_bytes(16)) <= chunks((1 << 14) // (8 * 16 * 16)) == 119

    @pytest.mark.parametrize("n", [1, 7])
    def test_three_rows_a_chunk_match_fresh_generator_per_row(self, monkeypatch, n):
        # Buffers reused by three rows at a time; at n = 1 and 7 most draws stop early and leave entries unwritten.
        monkeypatch.setattr(classifier, "_DRAW_BYTES", 3 * classifier._row_bytes(3))
        model = ConfusionModel([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [0.2, 0.7, 0.1]])
        rows = np.random.default_rng(5).dirichlet(np.ones(3), size=11)
        got = estimate(model, rows, Sampled(n, 4), list(range(11)))
        for r, p in enumerate(rows):
            assert np.array_equal(got[r], reference_sample(model.m, p, n, r))


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
        with pytest.raises(ValidationError, match=r"^line 1: pred 2 out of range for k=2$"):
            ingest(tmp_path, {"id": "a", "pred": 2})
        with pytest.raises(ValidationError, match=r"^line 2: pred -1 out of range"):
            ingest(tmp_path, {"id": "a", "pred": 0}, {"id": "b", "pred": -1})
        with pytest.raises(ValidationError, match=r"^line 1: truth 9 out of range for k=2$"):
            ingest(tmp_path, {"id": "a", "pred": 0, "truth": 9})
        with pytest.raises(ValidationError, match=r"^line 1: probs have length 3, expected 2$"):
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
        with pytest.raises(ValidationError, match=r"^line 1: exactly one of probs/pred"):
            ingest(tmp_path, {"id": "a"})  # neither probs nor pred
        with pytest.raises(ValidationError, match=r"^line 1: exactly one of probs/pred"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.5], "pred": 1})  # both
        with pytest.raises(ValidationError, match=r"^line 2: probs sum to 1\.01, expected 1$"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.5]}, {"id": "b", "probs": [0.5, 0.51]})
        with pytest.raises(ValidationError, match=r"^line 1: probs sum to 0\.99, expected 1$"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.49]})
        with pytest.raises(ValidationError, match=r"^line 1: probs must be a non-negative vector$"):
            ingest(tmp_path, '{"id": 7, "probs": [NaN, 1]}')
        with pytest.raises(ValidationError, match=r"^line 1: probs must be a non-negative vector$"):
            ingest(tmp_path, {"id": "a", "probs": [1.5, -0.5]})
        with pytest.raises(ValidationError, match=r"^line 2: probs must be finite numbers$"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.5]}, {"id": "b", "probs": [10 ** 400, 0.5]})
        # within tolerance on either side
        est, _ = ingest(tmp_path, {"id": "a", "probs": [0.5, 0.5000004]}, {"id": "b", "probs": [0.5, 0.4999996]})
        assert est.sum() == pytest.approx(1.0, abs=1e-15)

    def test_value_errors_name_the_first_bad_row(self, tmp_path):
        # the per-line checks see the whole file before the value checks run
        with pytest.raises(ValidationError, match=r"^line 3: probs have length 1"):
            ingest(tmp_path, {"id": "a", "probs": [0.5, 0.6]}, {"id": "b", "probs": [-1, 2]},
                   {"id": "c", "probs": [1]})
        with pytest.raises(ValidationError, match=r"^line 3: probs sum to 1\.1"):
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
        assert_matches_reference(tmp_path, 5, many_soft_records())

    @pytest.mark.parametrize("pool", [False, True], ids=["in-process", "fork-pool"])
    def test_matches_sequential_reference_across_many_ranges(self, tmp_path, monkeypatch, pool):
        # The fold carries the running total across at least 50 cuts, so the rows are added as one pass adds them.
        records = many_soft_records()
        path = write_jsonl(tmp_path, *records)
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", path.stat().st_size // 60)
        assert sum(result[0] is not None for result in range_results(path, 5)) >= 50
        imaps = []
        if pool:
            imaps = pool_imaps(monkeypatch)
        else:
            monkeypatch.setattr("fairdisc.pool._workers", lambda n_tasks: 1)
        assert_ingests_to_reference(load_predictions(path, 5), records)
        assert imaps == [1] * pool


def many_soft_records():
    """5,000 soft records with truth: enough rows that a pairwise sum would round differently from a running total."""
    rng = np.random.default_rng(0)
    w = rng.random((5_000, 5)) * rng.choice([1.0, 1e-3], size=(5_000, 5))
    return [{"id": f"r{i}", "probs": row.tolist(), "true": i % 5} for i, row in enumerate(w / w.sum(axis=1, keepdims=True))]


def assert_matches_reference(tmp_path, k, records):
    assert_ingests_to_reference(load_predictions(write_jsonl(tmp_path, *records), k), records)


def assert_ingests_to_reference(preds, records):
    est, confusion = ingest_predictions(preds)
    want_p, want_m = reference_ingest(preds.k, records)
    assert np.array_equal(est, want_p)
    if want_m is None:
        assert confusion is None
    else:
        assert np.array_equal(confusion.m, want_m)


class TestPredictionFiles:
    def test_parse_accepts_true_and_truth_keys(self, tmp_path):
        preds = load_predictions(write_jsonl(tmp_path, '{"id": "x", "pred": 1, "true": 0}',
                                             '{"id": "y", "pred": 1, "truth": 0}'), 2)
        assert preds.pairs.tolist() == [0, 2, 0, 0]  # truth 0, prediction 1, twice

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
        # A hard total counts labels in int64, so its sum is the record count.
        assert not preds.soft and preds.total.tolist() == [1, 1] and preds.total.dtype == np.int64
        assert preds.pairs is None

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


def loaded(path, k):
    """The Predictions of load_predictions(path, k), or the message of its ValidationError."""
    try:
        return load_predictions(path, k)
    except ValidationError as exc:
        return str(exc)


def range_results(path, k):
    """`_read_file_range` of every range the fork pool would read for `path`, run in this process."""
    size = path.stat().st_size
    with open(path, "rb") as fh:
        return [classifier._read_file_range(fh.fileno(), k, size, i) for i in range(-(-size // classifier._CHUNK_BYTES))]


def folded_ranges(path, k):
    """What the fork pool's workers fold to for `path`, read in this process: Predictions, or the error message."""
    try:
        return classifier._merge(k, range_results(path, k))
    except ValidationError as exc:
        return str(exc)


def assert_same_read(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert (got.k, got.soft, len(got)) == (want.k, want.soft, len(want))
    for name in ("total", "pairs"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None and b is None) or (np.array_equal(a, b) and a.dtype == b.dtype), name


@st.composite
def prediction_files(draw):
    """(k, file bytes): soft or hard records with full, partial or no truth, blank lines, records of the other kind,
    bad JSON, a byte that is not UTF-8, a bad sum or label, and LF, CR LF or CR line ends."""
    k = draw(st.integers(2, 4))
    soft = draw(st.booleans())
    truth = draw(st.sampled_from(["full", "partial", "none"]))
    lines = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record"] * 8 + ["blank", "other-kind", "bad-json", "not-utf8", "bad-value"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])).encode())
            continue
        if kind in ("bad-json", "not-utf8"):
            lines.append(b'{"id": ' if kind == "bad-json" else b'{"id": "\xff", "pred": 0}')
            continue
        rec = {"id": draw(st.sampled_from([f"r{i}", "é€"]))}
        if soft != (kind == "other-kind"):
            w = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
            rec["probs"] = [x / sum(w) + (0.5 * (j == 0) if kind == "bad-value" else 0) for j, x in enumerate(w)]
        else:
            rec["pred"] = k if kind == "bad-value" else draw(st.integers(0, k - 1))
        if truth == "full" or (truth == "partial" and draw(st.booleans())):
            rec["true"] = draw(st.integers(0, k - 1))
        lines.append(json.dumps(rec, ensure_ascii=False).encode())
    ends = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = b""
    return k, b"".join(line + end for line, end in zip(lines, ends))


# Files small enough to be one range, and files cut after a single line, as their bytes alone decide.
CHUNKED_FILES = {
    "soft-with-truth": b"".join(b'{"id": "r%d", "probs": [0.25, 0.75], "true": %d}\n' % (i, i % 2) for i in range(9)),
    "hard-crlf-partial-truth": b'{"id": "a", "pred": 0, "true": 1}\r\n\r\n{"id": "b", "pred": 1}\r'
                               b'{"id": "c", "pred": 1}',
    "second-kind-starts-a-chunk": b'{"id": "a", "pred": 0}\n{"id": "b", "pred": 1}\n{"id": "c", "probs": [0.5, 0.5]}\n',
    "error-before-the-chunks-first-record": b'{"id": "a", "pred": 0}\n\n{oops\n{"id": "c", "probs": [0.5, 0.5]}\n',
    "bad-sum-then-bad-json-later": b'{"id": "a", "probs": [0.5, 0.6]}\n' + b'{"id": "b", "probs": [0.5, 0.5]}\n' * 4
                                   + b'{"id": "c", "probs": }\n',
    "bad-sum-in-a-later-chunk": b'{"id": "a", "probs": [0.5, 0.5]}\n' * 3 + b'\n{"id": "b", "probs": [0.5, 0.6]}\n',
    "not-utf8-in-a-later-chunk": b'{"id": "a", "pred": 0}\n' * 3 + b'{"id": "\xe2\x82", "pred": 0}\n',
}


def fifo_loaded(fifo, data, k):
    """What `loaded` gives for `data` written by another thread into a new FIFO at the path `fifo`."""
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            try:
                fh.write(data)
            except BrokenPipeError:  # the reader stopped at an error before the end
                pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return loaded(fifo, k)
    finally:
        writer.join(10)
        assert not writer.is_alive()


def memory_records(n):
    """n soft records with truth, k = 4, as JSONL bytes."""
    record = '{"id": "r%d", "probs": [0.125, 0.25, 0.5, 0.125], "true": %d}\n'
    return "".join(record % (i, i % 4) for i in range(n)).encode()


def traced_peaks(load, counts):
    """The tracemalloc peak of each load(n), which must return n, after one load(counts[0]) untraced: what a first
    call allocates once is not memory per record."""
    load(counts[0])
    peaks = []
    for n in counts:
        loaded_n, peak = traced_peak(lambda: load(n))
        assert loaded_n == n
        peaks.append(peak)
    return peaks


class TestChunkedRead:
    """A file read in ranges of whole lines gives what one pass over it gives: the same arrays, the same ingest and
    the same first error, whether the ranges are read in this process or by forked workers."""

    def read_both(self, path, k, chunk_bytes, mp):
        want = loaded(path, k)
        mp.setattr(classifier, "_CHUNK_BYTES", chunk_bytes)
        return loaded(path, k), want

    @settings(max_examples=150, deadline=None)
    @given(case=prediction_files(), chunk_bytes=st.integers(1, 200))
    @example(case=(2, CHUNKED_FILES["bad-sum-in-a-later-chunk"]), chunk_bytes=1)
    @example(case=(2, CHUNKED_FILES["second-kind-starts-a-chunk"]), chunk_bytes=1)
    def test_chunks_read_in_process_equal_one_pass(self, tmp_path_factory, case, chunk_bytes):
        k, data = case
        tmp = tmp_path_factory.mktemp("chunks")
        path = tmp / "p.jsonl"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("fairdisc.pool._workers", lambda n_tasks: 1)
            got, want = self.read_both(path, k, chunk_bytes, mp)
            # A regular file of several blocks is read in ranges; a stream is the one input read in several line
            # blocks, so the blocks' cuts are drawn for through a FIFO.
            streamed = fifo_loaded(tmp / "p.fifo", data, k)
            # Reads of at most 7 bytes split a CR LF pair, or put a CR last in a read, around range marks too.
            mp.setattr(os, "pread", lambda fd, n, offset, pread=os.pread: pread(fd, min(n, 7), offset))
            short = folded_ranges(path, k)
        for read in (got, streamed, short):
            assert_same_read(read, want)
            if not isinstance(read, str):
                records = [json.loads(line) for line in data.decode().splitlines() if line.strip()]
                assert_ingests_to_reference(read, records)

    @pytest.mark.parametrize("name", CHUNKED_FILES)
    def test_chunks_read_by_a_fork_pool_equal_one_pass(self, tmp_path, monkeypatch, name):
        path = tmp_path / "p.jsonl"
        path.write_bytes(CHUNKED_FILES[name])
        imaps = pool_imaps(monkeypatch)
        got, want = self.read_both(path, 2, 1, monkeypatch)
        assert imaps == [1]
        assert_same_read(got, want)
        assert no_children()

    @pytest.mark.parametrize("name, want", [
        ("second-kind-starts-a-chunk", "line 3: prediction stream mixes soft (probs) and hard (pred) records"),
        ("error-before-the-chunks-first-record", "line 3: invalid JSON: Expecting property name enclosed in double "
                                                 "quotes: line 1 column 2 (char 1)"),
        ("bad-sum-in-a-later-chunk", "line 5: probs sum to 1.1, expected 1"),
        ("bad-sum-then-bad-json-later", "line 6: invalid JSON: Expecting value: line 1 column 22 (char 21)"),
        ("not-utf8-in-a-later-chunk", "line 4: invalid JSON: 'utf-8' codec can't decode bytes in position 8-9: "
                                      "invalid continuation byte"),
    ])
    def test_pinned_errors(self, tmp_path, name, want):
        path = tmp_path / "p.jsonl"
        path.write_bytes(CHUNKED_FILES[name])
        assert loaded(path, 2) == want

    def test_cuts_fall_after_a_newline(self, tmp_path, monkeypatch):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b"ab\r\ncd\n\n" + b"x" * 20 + b"\nlast")
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", 3)
        # Each range's lines as _read_file_range hands them on: bytes [0, 4), [4, 7), [7, 29) and [29, 33), with the
        # ranges whose mark falls inside a line empty.
        monkeypatch.setattr(classifier, "_read_range", lambda k, lines: list(lines))
        assert range_results(path, 2) == [["ab\n"], ["cd\n"], ["\n", "x" * 20 + "\n"], [], [], [], [], [], [], ["last"],
                                          []]

    @pytest.mark.parametrize("name", CHUNKED_FILES)
    def test_short_preads_read_the_same_bytes(self, tmp_path, monkeypatch, name):
        # A pread may return fewer bytes than asked for (on Linux, at most 0x7ffff000), so a range and the search for
        # its ends are read in loops.
        path = tmp_path / "p.jsonl"
        path.write_bytes(CHUNKED_FILES[name])
        want = loaded(path, 2)
        for chunk_bytes in (classifier._CHUNK_BYTES, 20):
            monkeypatch.setattr(classifier, "_CHUNK_BYTES", chunk_bytes)
            with monkeypatch.context() as mp:
                mp.setattr(os, "pread", lambda fd, n, offset, pread=os.pread: pread(fd, min(n, 7), offset))
                assert_same_read(folded_ranges(path, 2), want)

    def test_memory_does_not_grow_with_the_record_count(self, tmp_path, monkeypatch):
        # Each range reduces its own records, so the parent holds one range and a running total, however long the
        # file is.
        monkeypatch.setattr("fairdisc.pool._workers", lambda n_tasks: 1)
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", 1 << 16)
        paths = {n: tmp_path / f"p{n}.jsonl" for n in (2_000, 20_000)}
        for n, path in paths.items():
            path.write_bytes(memory_records(n))
        peaks = traced_peaks(lambda n: len(load_predictions(paths[n], 4)), list(paths))
        assert peaks[1] < peaks[0] + classifier._CHUNK_BYTES, peaks

    def test_fifo_memory_does_not_grow_with_the_record_count(self, tmp_path, monkeypatch):
        # A stream is read in blocks of lines, each reduced before the next is read, as a file's ranges are.
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", 1 << 16)
        fifo = tmp_path / "p.fifo"
        os.mkfifo(fifo)
        data = {n: memory_records(n) for n in (2_000, 20_000)}

        def load(n):
            def write():
                # Small pieces of bytes encoded beforehand, so what the writer allocates is no more than a piece.
                with open(fifo, "wb", buffering=0) as fh:
                    view = memoryview(data[n])
                    for i in range(0, len(view), 1 << 12):
                        fh.write(view[i:i + (1 << 12)])

            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            try:
                return len(load_predictions(fifo, 4))
            finally:
                writer.join(10)
                assert not writer.is_alive()

        peaks = traced_peaks(load, list(data))
        assert peaks[1] < peaks[0] + classifier._CHUNK_BYTES, peaks

    def test_fifo_peak_is_within_a_megabyte_of_the_files(self, tmp_path, monkeypatch):
        # A stream's lines are held as str, not bytes, so it is read in smaller blocks than a file's ranges, and its
        # peak stays within 1 MB of the same file's.
        monkeypatch.setattr("fairdisc.pool._workers", lambda n_tasks: 1)
        data = memory_records(80_000)
        assert len(data) > classifier._CHUNK_BYTES
        path = tmp_path / "p.jsonl"
        path.write_bytes(data)
        peaks = []
        for load in (lambda: load_predictions(path, 4), lambda: fifo_loaded(tmp_path / "p.fifo", data, 4)):
            result, peak = traced_peak(load)
            assert len(result) == 80_000
            peaks.append(peak)
        assert peaks[1] < peaks[0] + (1 << 20), peaks

    def test_cr_only_file_is_cut_into_ranges(self, tmp_path, monkeypatch):
        # A range ends at any line end, so a file whose lines end in CR alone is cut as one with LF ends is.
        data = b"".join(b'{"id": "r%d", "pred": %d, "true": 1}\r' % (i, i % 2) for i in range(20))
        path = tmp_path / "p.jsonl"
        path.write_bytes(data)
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", 64)
        assert sum(result[0] is not None for result in range_results(path, 2)) > 5
        # On one CPU too, a regular file of several blocks is read in ranges, here in this process.
        ranges, original = [], classifier._read_file_range
        with monkeypatch.context() as mp:
            mp.setattr("fairdisc.pool._workers", lambda n_tasks: 1)
            mp.setattr(classifier, "_read_file_range", lambda fd, k, size, i: ranges.append(i) or original(fd, k, size, i))
            in_process = load_predictions(path, 2)
        assert ranges == list(range(-(-len(data) // 64)))
        assert_same_read(fifo_loaded(tmp_path / "p.fifo", data, 2), in_process)
        imaps = pool_imaps(monkeypatch)
        assert_same_read(load_predictions(path, 2), in_process)
        assert imaps == [1]
        assert in_process.total.tolist() == [10, 10] and in_process.pairs.tolist() == [0, 0, 10, 10]

    @pytest.mark.parametrize("end, want", [(b"\r\nb\r", [[], [], ["b\n"]]), (b"\rb\r", [[], ["b\n"], []])],
                             ids=["cr-lf", "lone-cr"])
    def test_a_cr_that_ends_a_read_is_read_again(self, tmp_path, monkeypatch, end, want):
        # The search from byte 2,047 reads 4,096 bytes that end in the CR, so only the byte after it says whether the
        # line ends there or after an LF: the CR LF pair is not split, and the lone CR ends a line.
        path = tmp_path / "p.jsonl"
        path.write_bytes(b"a" * 6142 + end)
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", 2048)
        monkeypatch.setattr(classifier, "_read_range", lambda k, lines: list(lines))
        assert range_results(path, 2) == [["a" * 6142 + "\n"], *want]

    def test_cr_only_pool_memory_does_not_grow_with_the_record_count(self, tmp_path, monkeypatch):
        # Each worker sends back one reduced range, so the parent holds a few ranges' rows however long the file is:
        # the pool keeps the results that come in before the parent folds them, about 30 KB each here. One range of
        # the whole file would bring all 20,000 rows (640 KB) to the parent at once.
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", 1 << 16)
        imaps = pool_imaps(monkeypatch)
        paths = {n: tmp_path / f"p{n}.jsonl" for n in (2_000, 20_000)}
        for n, path in paths.items():
            path.write_bytes(memory_records(n).replace(b"\n", b"\r"))
        peaks = traced_peaks(lambda n: len(load_predictions(paths[n], 4)), list(paths))
        assert imaps == [1] * 3
        assert peaks[1] < peaks[0] + 4 * classifier._CHUNK_BYTES, peaks

    def test_fifo_is_read_in_line_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", 4)
        for i, (text, want) in enumerate([('{"id": "a", "probs": [0.5, 0.5]}\n{"id": "b", "probs": [0.5, 0.6]}\n',
                                           "line 2: probs sum to 1.1, expected 1"),
                                          ('{"id": "a", "pred": 0, "true": 1}\n\n{"id": "b", "pred": 1, "true": 1}',
                                           None)]):
            got = fifo_loaded(tmp_path / f"p{i}.fifo", text.encode(), 2)
            if want is None:
                assert got.total.tolist() == [1, 1] and got.pairs.tolist() == [0, 0, 1, 1]
            else:
                assert got == want


def decoded(decode, s):
    """("ok", repr of the value) or (exception type, message) of decode(s); repr, so NaN equals NaN."""
    try:
        return "ok", repr(decode(s))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


# Lines built from JSON values, broken tokens, whitespace that JSON does and does not allow, a BOM, NaN, trailing
# text and nesting on both sides of the decoder's recursion limit.
JSON_VALUES = st.recursive(st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
                           lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                                      max_size=3),
                           max_leaves=8).map(json.dumps)
JSON_FRAGMENTS = st.sampled_from(["{", "}", "[", "]", ",", ":", '"', '"id"', "NaN", "-Infinity", "tru", "1e", "-",
                                  "0x1", "\\u12", "x", "{} {}", "[" * 50 + "]" * 50, "[" * 100_000 + "]" * 100_000,
                                  "[" * 100_000])
SEPARATORS = st.sampled_from([" ", "\t", "\r", "\n", "\r\n", "\x0c", "\u00a0", "\ufeff"])


class TestJsonLine:
    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.one_of(JSON_VALUES, JSON_FRAGMENTS, SEPARATORS), max_size=5))
    def test_matches_json_loads(self, parts):
        s = "".join(parts)
        assert decoded(_json_line, s) == decoded(json.loads, s)

    @pytest.mark.parametrize("s,want", [
        ("{}\r\n", ("ok", "{}")),
        (" {}", ("ok", "{}")),
        ("{}\x0c", (json.JSONDecodeError, "Extra data: line 1 column 3 (char 2)")),
        ("\ufeff{}", (json.JSONDecodeError, "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")),
        ("{} {}", (json.JSONDecodeError, "Extra data: line 1 column 4 (char 3)")),
    ])
    def test_edge_lines(self, s, want):
        assert decoded(_json_line, s) == decoded(json.loads, s) == want

    # One line of each kind json.loads refuses, after a good first line. The bad line ends the file, with no newline.
    @pytest.mark.parametrize("line,message", [
        ('{"id": "b", "pred": }', "Expecting value: line 1 column 21 (char 20)"),
        ('{"id": "b", "pred": 0} {}', "Extra data: line 1 column 24 (char 23)"),
        ('{"id": "b", "pred": 0}\x0c', "Extra data: line 1 column 23 (char 22)"),
        ('\ufeff{"id": "b", "pred": 0}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ("{'id': 'b'}", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ('{"id" "b"}', "Expecting ':' delimiter: line 1 column 7 (char 6)"),
        ('{"id": "b" "pred": 0}', "Expecting ',' delimiter: line 1 column 12 (char 11)"),
        ('{"id": "b', "Unterminated string starting at: line 1 column 8 (char 7)"),
        ('{"id": "b\tc", "pred": 0}', "Invalid control character at: line 1 column 10 (char 9)"),
        ('{"id": "b\\q", "pred": 0}', "Invalid \\escape: line 1 column 10 (char 9)"),
        ('{"id": "\\u12", "pred": 0}', "Invalid \\uXXXX escape: line 1 column 10 (char 9)"),
        ('{"id": "b", "pred": ' + "1" * 5000 + "}", "Exceeds the limit (4300 digits) for integer string conversion: "
         "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
        ('{"id": "b", "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    ], ids=["no-value", "extra-data", "form-feed", "bom", "property-name", "colon", "comma", "unterminated",
            "control-character", "escape", "u-escape", "int-digits", "too-deep"])
    def test_load_predictions_error_messages(self, tmp_path, line, message):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "a", "pred": 0}\n' + line, encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load_predictions(path, 2)
        assert str(exc.value) == f"line 2: invalid JSON: {message}"


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


class TestSpecs:
    """`from_spec` is the one reader of a classifier spec: a preset name, else a confusion file of the run's k."""

    @pytest.mark.parametrize("spec,k", [("perfect", 5), ("set2", 8), ("set1-c", 4), ("set2-k16", 16)])
    def test_a_preset_name_is_the_preset(self, spec, k):
        assert np.array_equal(from_spec(spec, k).m, preset(spec, k).m)

    def test_a_default_spec_is_the_perfect_classifier(self):
        assert np.array_equal(from_spec(classifier.DEFAULT_SPEC, 3).m, np.eye(3))

    def test_any_other_spec_is_a_confusion_file_of_the_run_k(self, tmp_path):
        path = tmp_path / "perfect"  # a path is a preset only by its whole name
        path.write_text('{"k": 2, "m": [[0.9, 0.1], [0.2, 0.8]]}')
        assert np.array_equal(from_spec(str(path), 2).m, [[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValidationError, match=rf"^confusion file {path} is for k=2, requested k=3$"):
            from_spec(str(path), 3)

    @pytest.mark.parametrize("spec,k,message", [
        ("set1-a", 4, "preset 'set1-a' is for k=2, requested k=4"),
        (["set2"], 2, "classifier spec must be a string, got ['set2']"),
        ("set2", 2.0, "k must be an integer, got 2.0"),
        ("perfect", 1, "k must be in [2, 1000], got 1")])
    def test_refusals(self, spec, k, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            from_spec(spec, k)

    def test_to_dict_is_what_load_confusion_reads(self, tmp_path):
        model = ConfusionModel([[0.9, 0.1], [0.2 / 3, 1 - 0.2 / 3]])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model.to_dict()))
        assert model.to_dict() == {"k": 2, "m": model.m.tolist()}
        assert np.array_equal(load_confusion(path).m, model.m)
