import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dist
from fairdisc import (
    AttributeSpace,
    CategoricalDistribution,
    ValidationError,
    ab_extreme_points,
    load_distribution,
    load_space,
    sweep,
    uniform,
)
from fairdisc.attrspace import space_from_dict
from oracles import reference_sweep


class TestAttributeSpace:
    def test_of_size(self):
        s = AttributeSpace.of_size(4)
        assert s.k == 4
        assert s.outcome_labels() == [("0",), ("1",), ("2",), ("3",)]

    def test_product_space(self):
        s = AttributeSpace((("gender", ("m", "f")), ("age", ("young", "old"))))
        assert s.k == 4
        assert s.outcome_labels() == [
            ("m", "young"), ("m", "old"), ("f", "young"), ("f", "old")]

    def test_one_hot_roundtrip(self):
        s = AttributeSpace.of_size(8)
        for i in range(8):
            assert np.flatnonzero(s.one_hot(i)).tolist() == [i]
            assert s.one_hot(i).sum() == 1.0

    def test_rejects_k_below_2(self):
        with pytest.raises(ValidationError):
            AttributeSpace.of_size(1)
        with pytest.raises(ValidationError):
            AttributeSpace((("solo", ("only",)),))

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValidationError):
            AttributeSpace((("a", ("x", "x")),))


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

    def test_uniform_entries_exact(self):
        # no renormalization may touch the exact 1/k entries
        for k in range(2, 18):
            u = uniform(AttributeSpace.of_size(k))
            assert all(x == 1.0 / k for x in u.p)

    def test_extreme_points(self):
        pts = ab_extreme_points(AttributeSpace.of_size(4))
        assert len(pts) == 4
        for i, pt in enumerate(pts):
            assert pt.p[i] == 1.0 and pt.p.sum() == 1.0


class TestSweep:
    @pytest.mark.parametrize("k,step,expected", [
        (2, 0.1, 6),
        (4, 0.01, 76),
        (8, 0.01, 92),
        (16, 0.01, 106),
    ])
    def test_epoch_counts(self, k, step, expected):
        assert len(sweep(AttributeSpace.of_size(k), step)) == expected

    @pytest.mark.parametrize("k,step", [(2, 0.1), (3, 0.1), (4, 0.01), (5, 0.07), (8, 0.01), (16, 0.01)])
    def test_matches_reference_loop(self, k, step):
        got = sweep(AttributeSpace.of_size(k), step)
        want = reference_sweep(k, step)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.allclose(g, w, atol=1e-9)

    def test_endpoints(self, space):
        path = sweep(space, 0.03)
        assert path[0][0] == 1.0
        assert np.array_equal(path[-1], uniform(space).p)

    def test_drained_mass_non_increasing(self, space):
        path = sweep(space, 0.02)
        p0 = [d[0] for d in path]
        assert all(a >= b - 1e-12 for a, b in zip(p0, p0[1:]))

    def test_filled_bins_hit_target_exactly(self):
        # clamping must land every bin on exactly 1/k, also when step divides unevenly
        path = sweep(AttributeSpace.of_size(3), 0.1)
        final = path[-1]
        assert all(x == 1.0 / 3.0 for x in final)

    def test_step_validation(self):
        s = AttributeSpace.of_size(4)
        with pytest.raises(ValidationError):
            sweep(s, 0.0)
        with pytest.raises(ValidationError):
            sweep(s, 0.26)
        assert len(sweep(s, 0.25)) == 4  # step == 1/k is one transfer per bin

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(2, 10), step=st.sampled_from([0.01, 0.05, 0.1]))
    def test_all_epochs_valid(self, k, step):
        for d in sweep(AttributeSpace.of_size(k), step):
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
        assert load_distribution(tmp_path / "d.json").k == 3

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
