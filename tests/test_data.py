import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdlab.data import (Component, LabeledBatch, MixtureSpec, gmm8,
                         sample_dataset, sample_points_for_labels,
                         target_stats, expected_sample_stats)


def single_component_spec(center, cov, dim=2):
    return MixtureSpec(dim=dim, label_count=1, components=[
        Component(0, np.asarray(center, float), np.asarray(cov, float), 1.0)])


class TestSampleDataset:
    def test_tight_component_mean(self):
        spec = single_component_spec((3.0, 3.0), (0.01, 0.01))
        rng = np.random.default_rng(100)
        batch = sample_dataset(spec, 10_000, rng)
        # CLT: sigma/sqrt(n) = 0.001, bound 0.01 is 10 sigma
        assert np.all(np.abs(batch.points.mean(axis=0) - 3.0) < 0.01)

    def test_symmetric_two_mode_mean(self):
        spec = MixtureSpec(dim=2, label_count=1, components=[
            Component(0, np.array([-1.0, 0.0]), np.array([0.04, 0.04]), 0.5),
            Component(0, np.array([1.0, 0.0]), np.array([0.04, 0.04]), 0.5),
        ])
        rng = np.random.default_rng(101)
        batch = sample_dataset(spec, 10_000, rng)
        assert np.all(np.abs(batch.points.mean(axis=0)) < 0.05)

    def test_single_draw(self):
        spec = single_component_spec((0.0, 0.0), (1.0, 1.0))
        batch = sample_dataset(spec, 1, np.random.default_rng(102))
        assert batch.points.shape == (1, 2)
        assert batch.labels.shape == (1,)
        assert batch.labels[0] == 0

    def test_seeded_determinism(self):
        spec = gmm8()
        a = sample_dataset(spec, 500, np.random.default_rng(7))
        b = sample_dataset(spec, 500, np.random.default_rng(7))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_empirical_matches_analytic_five_sigma(self):
        # invariant: per-coordinate |empirical - analytic| < 5 sigma / sqrt(n)
        spec = gmm8()
        rng = np.random.default_rng(103)
        n = 100_000
        batch = sample_dataset(spec, n, rng)
        for label in range(spec.label_count):
            pts = batch.points[batch.labels == label]
            mean, var = target_stats(spec, label)
            bound = 5.0 * np.sqrt(var / len(pts))
            assert np.all(np.abs(pts.mean(axis=0) - mean) < bound)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            sample_dataset(single_component_spec((0, 0), (1, 1)), 0,
                           np.random.default_rng(0))
        with pytest.raises(ValueError):
            MixtureSpec(dim=2, label_count=1, components=[
                Component(0, np.zeros(2), np.array([1.0, -1.0]), 1.0)])
        with pytest.raises(ValueError):
            MixtureSpec(dim=2, label_count=1, components=[
                Component(0, np.zeros(2), np.ones(2), 0.5)])

    @pytest.mark.parametrize("center,cov,weight", [
        ((np.nan, 0.0), (1.0, 1.0), 1.0), ((0.0, np.inf), (1.0, 1.0), 1.0),
        ((0.0, 0.0), (np.nan, 1.0), 1.0), ((0.0, 0.0), (np.inf, 1.0), 1.0),
        ((0.0, 0.0), (1.0, 1.0), np.nan), ((0.0, 0.0), (1.0, 1.0), np.inf),
    ])
    def test_non_finite_spec_rejected(self, center, cov, weight):
        with pytest.raises(ValueError):
            MixtureSpec(dim=2, label_count=1, components=[
                Component(0, np.array(center), np.array(cov), weight)])


def reference_points_for_labels(spec, labels, rng):
    """The per-sample gather loop that sample_points_for_labels replaced."""
    labels = np.asarray(labels)
    points = np.empty((len(labels), spec.dim))
    for label in range(spec.label_count):
        idx = np.nonzero(labels == label)[0]
        if idx.size == 0:
            continue
        comps = spec.components_for(label)
        w = np.array([c.weight for c in comps])
        choice = rng.choice(len(comps), size=idx.size, p=w / w.sum())
        eps = rng.standard_normal((idx.size, spec.dim))
        centers = np.stack([comps[k].center for k in choice])
        stds = np.sqrt(np.stack([comps[k].cov for k in choice]))
        points[idx] = centers + stds * eps
    return points


@st.composite
def specs_and_labels(draw):
    dim = draw(st.integers(1, 3))
    label_count = draw(st.integers(1, 5))
    comps = []
    for label in range(label_count):
        k = draw(st.integers(1, 3))
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
        weights = [r / sum(raw) for r in raw]
        weights[-1] = 1.0 - sum(weights[:-1])
        for w in weights:
            center = draw(st.lists(st.floats(-5, 5), min_size=dim,
                                   max_size=dim))
            cov = draw(st.lists(st.floats(1e-4, 4.0), min_size=dim,
                                max_size=dim))
            comps.append(Component(label, np.array(center), np.array(cov), w))
    spec = MixtureSpec(dim=dim, label_count=label_count, components=comps)
    labels = draw(st.lists(st.integers(0, label_count - 1), max_size=300))
    return spec, np.array(labels, dtype=int), draw(st.integers(0, 2**32 - 1))


class TestSamplePointsForLabels:
    @settings(max_examples=150, deadline=None)
    @given(case=specs_and_labels())
    def test_matches_reference_bit_exact(self, case):
        spec, labels, seed = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_points_for_labels(spec, labels, rng)
        want = reference_points_for_labels(spec, labels, ref_rng)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("labels,bad", [
        ([0, 5, 7, 9], "5"), ([-1, 0], "-1"), ([0.0, 1.5], "1.5"), ([4], "4"),
    ])
    def test_unknown_label_rejected_before_drawing(self, labels, bad):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"unknown label {bad}:"):
            sample_points_for_labels(gmm8(), np.array(labels), rng)
        assert rng.bit_generator.state == before


class TestTargetStats:
    def test_single_component(self):
        spec = single_component_spec((1.5, -2.0), (0.3, 0.7))
        mean, var = target_stats(spec, 0)
        np.testing.assert_allclose(mean, [1.5, -2.0])
        np.testing.assert_allclose(var, [0.3, 0.7])

    def test_two_component_closed_form(self):
        mu, s2 = 1.2, 0.09
        spec = MixtureSpec(dim=2, label_count=1, components=[
            Component(0, np.array([-mu, 0.0]), np.array([s2, s2]), 0.5),
            Component(0, np.array([mu, 0.0]), np.array([s2, s2]), 0.5),
        ])
        mean, var = target_stats(spec, 0)
        np.testing.assert_allclose(mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(var[0], s2 + mu ** 2)
        np.testing.assert_allclose(var[1], s2)

    def test_point_mass_variance_zero(self):
        spec = MixtureSpec(dim=2, label_count=1, components=[
            Component(0, np.array([2.0, 2.0]), np.array([1e-12, 1e-12]), 0.4),
            Component(0, np.array([2.0, 2.0]), np.array([1e-12, 1e-12]), 0.6),
        ])
        mean, var = target_stats(spec, 0)
        np.testing.assert_allclose(mean, [2.0, 2.0])
        np.testing.assert_allclose(var, [1e-12, 1e-12], atol=1e-15)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            target_stats(gmm8(), 9)


class TestExpectedSampleStats:
    def test_matches_monte_carlo(self):
        spec = gmm8()
        rng = np.random.default_rng(104)
        n = 200_000
        batch = sample_dataset(spec, n, rng)
        mu_emp = batch.points.mean(axis=1).mean()
        var_emp = batch.points.var(axis=1).mean()
        mu, var = expected_sample_stats(spec)
        assert abs(mu - mu_emp) < 0.02
        assert abs(var - var_emp) < 0.02

    def test_per_label_single_gaussian(self):
        spec = single_component_spec((1.0, 3.0), (0.25, 0.25))
        mu, var = expected_sample_stats(spec, 0)
        # E[mean] = 2; E[var over 2 coords] = (1-3)^2/4 + var terms
        assert abs(mu - 2.0) < 1e-12
        expected = (0.5 * (0.25 + 1.0 + 0.25 + 9.0) - 0.125 - 4.0)
        assert abs(var - expected) < 1e-12


class TestJsonRoundTrip:
    def test_roundtrip(self, tmp_path):
        spec = gmm8()
        path = tmp_path / "spec.json"
        spec.save(path)
        loaded = MixtureSpec.load(path)
        assert loaded.dim == spec.dim
        assert loaded.label_count == spec.label_count
        for a, b in zip(loaded.components, spec.components):
            assert a.label == b.label
            np.testing.assert_allclose(a.center, b.center)
            np.testing.assert_allclose(a.cov, b.cov)
            assert a.weight == b.weight

    @pytest.mark.parametrize("obj", [
        [1, 2], {"dim": 2, "labels": 1}, {"dim": None, "labels": 1,
                                          "components": []},
        {"dim": 1, "labels": 1, "components": [3]},
        {"dim": 1, "labels": float("inf"), "components": []},
        {"dim": 1, "labels": 1, "components": [
            {"label": 0, "center": [0.0], "cov": [1.0]}]},
    ])
    def test_malformed_json_is_value_error(self, obj):
        with pytest.raises(ValueError):
            MixtureSpec.from_json(obj)

    @pytest.mark.parametrize("key,value", [
        ("dim", 2.9), ("labels", 4.5), ("label", 0.7), ("dim", True),
        ("labels", True), ("label", False), ("dim", "2"),
        ("labels", float("nan")), ("label", float("inf")),
    ])
    def test_non_integer_count_rejected(self, key, value):
        obj = gmm8().to_json()
        (obj["components"][0] if key == "label" else obj)[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            MixtureSpec.from_json(obj)

    def test_duplicate_key_rejected(self, tmp_path):
        text = json.dumps(gmm8().to_json())
        path = tmp_path / "spec.json"
        path.write_text(f'{text[:-1]}, "labels": 4}}')
        with pytest.raises(ValueError, match="^'labels': given twice$"):
            MixtureSpec.load(path)

    def test_integral_float_counts_accepted(self):
        obj = gmm8().to_json()
        obj["dim"], obj["labels"] = 2.0, 4.0
        for c in obj["components"]:
            c["label"] = float(c["label"])
        spec = MixtureSpec.from_json(obj)
        assert (spec.dim, spec.label_count) == (2, 4)
        assert [c.label for c in spec.components] == [
            c.label for c in gmm8().components]
        assert all(type(v) is int for v in (
            spec.dim, spec.label_count, *(c.label for c in spec.components)))

    def test_gmm8_structure(self):
        spec = gmm8()
        assert spec.label_count == 4
        assert len(spec.components) == 8
        radii = [np.linalg.norm(c.center) for c in spec.components]
        np.testing.assert_allclose(radii, 2.0)
        w3 = sorted(c.weight for c in spec.components_for(3))
        assert w3 == [0.3, 0.7]
