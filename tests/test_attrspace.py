import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dist
from fairdisc import (
    AttributeSpace,
    CategoricalDistribution,
    ConfusionModel,
    Metric,
    ValidationError,
    load_distribution,
    load_space,
    n_factor,
    perfect,
    sweep,
    uniform_noise,
)
from fairdisc.attrspace import MAX_BLOCK_ENTRIES, MAX_OUTCOMES, check_block, space_from_dict
from oracles import reference_path, reference_sweep


class TestAttributeSpace:
    def test_of_size(self):
        s = AttributeSpace.of_size(4)
        assert s.k == 4

    def test_product_space(self):
        s = AttributeSpace((("gender", ("m", "f")), ("age", ("young", "old"))))
        assert s.k == 4

    def test_rejects_k_below_2(self):
        with pytest.raises(ValidationError):
            AttributeSpace.of_size(1)
        with pytest.raises(ValidationError):
            AttributeSpace((("solo", ("only",)),))

    def test_rejects_k_above_limit(self):
        # Checked by value before any label is built, so a huge k costs nothing.
        assert MAX_OUTCOMES**2 <= MAX_BLOCK_ENTRIES
        assert AttributeSpace.of_size(MAX_OUTCOMES).k == MAX_OUTCOMES
        for k in (MAX_OUTCOMES + 1, 50_000_000, 10**400):
            with pytest.raises(ValidationError, match=rf"k must be in \[2, {MAX_OUTCOMES}\]"):
                AttributeSpace.of_size(k)
        # Every other entry of k checks it by value too: no matrix, path or row is built.
        for build in (lambda: sweep(1, 0.5), lambda: sweep(MAX_OUTCOMES + 1, 1e-3),
                      lambda: n_factor(Metric.L1, MAX_OUTCOMES + 1), lambda: perfect(10**400),
                      lambda: uniform_noise(10**400, 0.1), lambda: perfect(MAX_OUTCOMES + 1)):
            with pytest.raises(ValidationError, match=rf"k must be in \[2, {MAX_OUTCOMES}\]"):
                build()
        # A confusion model reads k from its square matrix.
        for m in ([[1.0]], np.eye(MAX_OUTCOMES + 1)):
            with pytest.raises(ValidationError, match=rf"k must be in \[2, {MAX_OUTCOMES}\]"):
                ConfusionModel(m)
        with pytest.raises(ValidationError):
            AttributeSpace((("a", ("x", "y")), ("b", tuple(map(str, range(MAX_OUTCOMES // 2 + 1))))))

    @pytest.mark.parametrize("k,rows", [(2, 10**6), (3, 666_666), (16, 125_000), (MAX_OUTCOMES, 2_000)])
    def test_block_limit_counts_floats(self, k, rows):
        # By value: nothing is allocated at or over the limit.
        check_block(rows, k, "block")
        with pytest.raises(ValidationError, match=rf"block needs {rows + 1} x {k} floats, more than {MAX_BLOCK_ENTRIES}"):
            check_block(rows + 1, k, "block")

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValidationError):
            AttributeSpace((("a", ("x", "x")),))

    # Labels are kept as given: nothing is read through str() or iterated out of a string.
    @pytest.mark.parametrize("attributes,message", [
        (((1, ("x", "y")),), "attribute name must be a string, got 1"),
        ((("a", ("x", 1)),), "attribute 'a' values must be a tuple of strings, got ('x', 1)"),
        ((("a", ["x", "y"]),), "attribute 'a' values must be a tuple of strings, got ['x', 'y']"),
        ((("a", "xy"),), "attribute 'a' values must be a tuple of strings, got 'xy'"),
    ])
    def test_rejects_labels_that_are_not_strings(self, attributes, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            AttributeSpace(attributes)


class TestCategoricalDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            dist(2, [1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match=r"sum to 1\.2, expected 1"):
            dist(2, [0.6, 0.6])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            dist(2, [float("nan"), 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            dist(3, [0.5, 0.5])

    def test_small_drift_renormalized(self):
        d = dist(2, [0.5, 0.5 + 4e-10])
        assert d.p.sum() == 1.0

    def test_array_read_only(self):
        d = dist(2, [0.5, 0.5])
        with pytest.raises(ValueError):
            d.p[0] = 1.0
        # A distribution is its rows: no copy on the way in, a writable copy on request.
        assert np.asarray(d, dtype=float) is d.p
        copied = np.array(d)
        assert np.array_equal(copied.view(np.uint64), d.p.view(np.uint64))
        copied[0] = 1.0
        assert d.p[0] == 0.5

    def test_uniform_entries_exact(self):
        # no renormalization may touch the exact 1/k entries
        for k in range(2, 18):
            u = dist(k, np.full(k, 1.0 / k))
            assert all(x == 1.0 / k for x in u.p)


class TestSweep:
    @pytest.mark.parametrize("k,step,expected", [
        (2, 0.1, 6),
        (4, 0.01, 76),
        (8, 0.01, 92),
        (16, 0.01, 106),
    ])
    def test_epoch_counts(self, k, step, expected):
        assert len(sweep(k, step)) == expected

    @pytest.mark.parametrize("k,step", [(2, 0.1), (3, 0.1), (4, 0.01), (5, 0.07), (8, 0.01), (16, 0.01)])
    def test_matches_reference_loop(self, k, step):
        got = sweep(k, step)
        want = reference_sweep(k, step)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.allclose(g, w, atol=1e-9)

    @pytest.mark.parametrize("k,step", [(2, 0.1), (3, 0.1), (3, 1 / 3), (3, 1 / 9), (4, 0.01), (4, 1 / 12), (5, 0.07),
                                        (8, 0.01), (16, 0.01), (16, 0.003)])
    def test_equals_the_epochs_of_its_definition_bit_for_bit(self, k, step):
        """Sampled estimates read every bit of a row, so the report oracle builds its epochs as `reference_path`."""
        want = reference_path(k, step)
        assert np.array_equal(sweep(k, step), np.array(want))
        assert np.allclose(want, reference_sweep(k, step), rtol=0, atol=1e-12)

    def test_endpoints(self, space):
        path = sweep(space.k, 0.03)
        assert path[0][0] == 1.0
        assert np.array_equal(path[-1], np.full(space.k, 1.0 / space.k))

    def test_drained_mass_non_increasing(self, space):
        path = sweep(space.k, 0.02)
        p0 = [d[0] for d in path]
        assert all(a >= b - 1e-12 for a, b in zip(p0, p0[1:]))

    def test_filled_bins_hit_target_exactly(self):
        # clamping must land every bin on exactly 1/k, also when step divides unevenly
        path = sweep(3, 0.1)
        final = path[-1]
        assert all(x == 1.0 / 3.0 for x in final)

    def test_step_validation(self):
        with pytest.raises(ValidationError):
            sweep(4, 0.0)
        with pytest.raises(ValidationError):
            sweep(4, 0.26)
        assert len(sweep(4, 0.25)) == 4  # step == 1/k is one transfer per bin

    def test_block_limit_at_finest_k2_step(self):
        # k = 2 keeps the 10**6 rows it had when the limit counted rows.
        assert len(sweep(2, 0.5 / 999_999)) == 10**6
        with pytest.raises(ValidationError, match=r"needs 1000001 x 2 floats"):
            sweep(2, 0.5 / 10**6)

    def test_block_limit_rejects_wide_path_before_building_it(self):
        # 999,001 rows of 1000 floats: 7.4 GiB if it were allocated.
        with pytest.raises(ValidationError, match=r"sweep step 1e-06 needs 999001 x 1000 floats"):
            sweep(MAX_OUTCOMES, 1e-6)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(2, 10), step=st.sampled_from([0.01, 0.05, 0.1]))
    def test_all_epochs_valid(self, k, step):
        for d in sweep(k, step):
            assert d.min() >= 0.0 and abs(d.sum() - 1.0) <= 1e-9


class TestFileFormats:
    def test_space_roundtrip(self, tmp_path):
        s = AttributeSpace((("hair", ("black", "blond")), ("smile", ("yes", "no"))))
        path = tmp_path / "space.json"
        path.write_text(json.dumps(s.to_dict()))
        assert load_space(path) == s

    def test_distribution_roundtrip(self, tmp_path):
        d = dist(4, [0.4, 0.3, 0.2, 0.1])
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(d.to_dict()))
        loaded = load_distribution(path)
        assert loaded.space == d.space and np.array_equal(loaded.p, d.p)

    def test_distribution_with_k_shorthand(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"k": 2, "p": [0.9, 0.1]}')
        d = load_distribution(path)
        assert d.k == 2 and d.p[0] == 0.9

    def test_distribution_with_relative_space_path(self, tmp_path):
        (tmp_path / "space.json").write_text(
            json.dumps(AttributeSpace.of_size(3).to_dict()))
        (tmp_path / "d.json").write_text('{"space": "space.json", "p": [0.5, 0.25, 0.25]}')
        # Each form of a path that the loaders take resolves "space" against the file's directory.
        for path in (tmp_path / "d.json", str(tmp_path / "d.json"), os.fsencode(tmp_path / "d.json")):
            assert load_distribution(path).k == 3

    def test_distribution_without_space(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"p": [0.5, 0.5]}')
        with pytest.raises(ValidationError):
            load_distribution(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_distribution(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_distribution(tmp_path / "nope.json")

    def test_space_from_dict_errors(self):
        with pytest.raises(ValidationError):
            space_from_dict({"wrong": []})
        with pytest.raises(ValidationError):
            space_from_dict({"attributes": [{"name": "a"}]})
        with pytest.raises(ValidationError, match="^attribute name must be a string, got None$"):
            space_from_dict({"attributes": [{"values": ["x", "y"]}]})

    def test_k_beside_space_must_match(self, tmp_path):
        path = tmp_path / "d.json"
        space = AttributeSpace((("hair", ("black", "blond")), ("smile", ("yes", "no"))))
        path.write_text(json.dumps({**dist(space, [0.25] * 4).to_dict(), "k": 4}))
        assert load_distribution(path).space == space
        path.write_text(json.dumps({**dist(space, [0.25] * 4).to_dict(), "k": 2}))
        with pytest.raises(ValidationError, match='"k" is 2, but the space has 4 outcomes$'):
            load_distribution(path)
