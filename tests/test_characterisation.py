"""Aggregation, standardisation, MI weighting, and distance goldens."""

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sdbc.characterisation import (
    FeatureWeights,
    apply_standardisation,
    apply_weights,
    behaviour_distance,
    characterisation_schema,
    compute_standardisation,
    compute_weights,
    estimate_mutual_information,
    mi_bin_count,
)
from sdbc.formalism import FeatureSnapshot
from sdbc.tasks import make_task


def aggregate(
    samples: Sequence[FeatureSnapshot], steps_elapsed: int, max_steps: int
) -> np.ndarray:
    """Collapse a trial's feature samples into one raw characterisation:
    the formal definition, the oracle for `aggregate_batch`.

    The vector is the per-feature mean over all samples, then the final
    sample, then the normalised trial duration; its components are named
    by `characterisation_schema` of the samples' schema.
    """
    if not samples:
        raise ValueError("cannot aggregate zero feature samples")
    if not (1 <= steps_elapsed <= max_steps):
        raise ValueError("steps_elapsed must be in [1, max_steps]")
    schema = samples[0].schema
    for s in samples[1:]:
        if s.schema != schema:
            raise ValueError("feature samples disagree on schema")
    mat = np.array([s.values for s in samples], dtype=float)
    return np.concatenate([mat.mean(axis=0), mat[-1], [steps_elapsed / max_steps]])


SCHEMA3 = ("f0", "f1", "f2")


def snap(*values):
    return FeatureSnapshot(values=tuple(values), schema=SCHEMA3)


class TestAggregate:
    def test_layout_and_length(self):
        out = aggregate([snap(1, 2, 3), snap(3, 4, 5)], steps_elapsed=50, max_steps=100)
        assert len(out) == 7
        assert out == pytest.approx([2, 3, 4, 3, 4, 5, 0.5], abs=1e-12)
        schema = characterisation_schema(SCHEMA3)
        assert schema[:3] == ("f0 (M)", "f1 (M)", "f2 (M)")
        assert schema[3:6] == ("f0 (F)", "f1 (F)", "f2 (F)")
        assert schema[6] == "simulation length"

    def test_single_snapshot_mean_equals_final(self):
        out = aggregate([snap(0.3, -1, 4)], steps_elapsed=1, max_steps=10)
        assert tuple(out[:3]) == tuple(out[3:6])

    def test_constant_feature(self):
        out = aggregate([snap(7, 7, 7)] * 100, steps_elapsed=100, max_steps=100)
        assert out[:6] == pytest.approx([7] * 6, abs=1e-12)
        assert out[6] == 1.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], steps_elapsed=1, max_steps=10)

    def test_schema_mismatch_rejected(self):
        other = FeatureSnapshot(values=(1.0,), schema=("g0",))
        with pytest.raises(ValueError):
            aggregate([snap(1, 2, 3), other], steps_elapsed=2, max_steps=10)

    def test_steps_bounds_rejected(self):
        with pytest.raises(ValueError):
            aggregate([snap(1, 2, 3)], steps_elapsed=0, max_steps=10)

    def test_batch_matches_scalar(self):
        # the raw rows aggregated inside the simulation loop against the
        # formal definition over the recorded per-step features
        for name in ("resource_sharing", "gate_escape", "predator_prey"):
            task = make_task(name, {"max_steps": 60})
            batch = task.simulate(lambda x: np.tanh(x[:, :2] - x[:, 2:4]), [1, 2, 3, 4])
            schema = task.feature_names()
            for i, steps in enumerate(batch.steps):
                samples = [
                    FeatureSnapshot(values=tuple(batch.features[s, i]), schema=schema)
                    for s in range(steps)
                ]
                expected = aggregate(samples, int(steps), task.max_steps)
                assert batch.raw[i] == pytest.approx(expected, abs=1e-12), (name, i)


class TestStandardisation:
    def test_identical_population_zero_sigma(self):
        pop = np.array([[1, 2, 3, 4, 5, 6, 0.5]] * 8)
        c = compute_standardisation(pop)
        assert c.sigma == pytest.approx(np.zeros(7), abs=1e-12)

    def test_two_scalarish_vectors(self):
        pop = np.array([[0.0], [2.0]])
        c = compute_standardisation(pop)
        assert c.mu[0] == pytest.approx(1.0, abs=1e-12)
        assert c.sigma[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(17)
        pop = rng.normal(2.0, 3.0, size=(50, 7))
        c = compute_standardisation(pop)
        for k in range(7):
            mean = sum(pop[:, k]) / 50
            var = sum((x - mean) ** 2 for x in pop[:, k]) / 50
            assert c.mu[k] == pytest.approx(mean, abs=1e-10)
            assert c.sigma[k] == pytest.approx(math.sqrt(var), abs=1e-10)

    def test_apply_centred_vector_is_zero(self):
        pop = np.array([[1.0, 5.0], [3.0, 5.0]])
        c = compute_standardisation(pop)
        out = apply_standardisation(np.array([2.0, 5.0]), c)
        assert out == pytest.approx(np.zeros(2), abs=1e-12)

    def test_apply_direct_value(self):
        c = compute_standardisation(np.array([[1.0], [1.0]]))
        cc = type(c)(mu=np.array([1.0]), sigma=np.array([2.0]))
        assert apply_standardisation(np.array([3.0]), cc)[0] == pytest.approx(1.0)

    def test_zero_sigma_maps_to_zero(self):
        pop = np.array([[7.0, 1.0], [7.0, 3.0]])
        c = compute_standardisation(pop)
        out = apply_standardisation(np.array([9.0, 1.0]), c)
        assert out[0] == 0.0

    def test_population_restandardised_is_unit(self):
        rng = np.random.default_rng(23)
        pop = rng.normal(size=(40, 9)) * rng.uniform(0.1, 5.0, 9)
        pop[:, 4] = 1.25  # constant component
        c = compute_standardisation(pop)
        z = np.stack([apply_standardisation(v, c) for v in pop])
        for k in range(9):
            if k == 4:
                assert np.all(z[:, k] == 0.0)
            else:
                assert abs(z[:, k].mean()) < 1e-9
                assert abs(z[:, k].std() - 1.0) < 1e-9

    def test_length_mismatch_rejected(self):
        c = compute_standardisation(np.ones((3, 4)))
        with pytest.raises(ValueError):
            apply_standardisation(np.ones(5), c)


class TestMutualInformation:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(29)
        x = rng.uniform(size=10000)
        y = rng.uniform(size=10000)
        assert estimate_mutual_information(x, y) < 0.05

    def test_identical_near_log2_bins(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(size=10000)
        mi = estimate_mutual_information(x, x)
        assert mi == pytest.approx(math.log2(16), rel=0.05)

    def test_correlated_binary_closed_form(self):
        # exact-count sample from a known joint distribution
        p = {(0, 0): 0.4, (0, 1): 0.1, (1, 0): 0.15, (1, 1): 0.35}
        n = 10000
        xs, ys = [], []
        for (xv, yv), prob in p.items():
            xs += [xv] * int(round(prob * n))
            ys += [yv] * int(round(prob * n))
        rng = np.random.default_rng(37)
        order = rng.permutation(n)
        x = np.array(xs, dtype=float)[order]
        y = np.array(ys, dtype=float)[order]
        px = {0: p[0, 0] + p[0, 1], 1: p[1, 0] + p[1, 1]}
        py = {0: p[0, 0] + p[1, 0], 1: p[0, 1] + p[1, 1]}
        closed = sum(
            prob * math.log2(prob / (px[xy[0]] * py[xy[1]]))
            for xy, prob in p.items()
        )
        assert estimate_mutual_information(x, y) == pytest.approx(closed, rel=0.02)

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=500)
        y = x + rng.normal(size=500)
        assert estimate_mutual_information(x, y) == pytest.approx(
            estimate_mutual_information(y, x), abs=1e-12
        )

    def test_constant_feature_is_zero(self):
        y = np.arange(100.0)
        assert estimate_mutual_information(np.ones(100), y) == 0.0

    def test_rejects_mismatched_or_tiny(self):
        with pytest.raises(ValueError):
            estimate_mutual_information([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            estimate_mutual_information([1.0], [1.0])

    def test_bin_count_clamp(self):
        assert mi_bin_count(4) == 4
        assert mi_bin_count(50) == 8
        assert mi_bin_count(10000) == 16

    @given(st.integers(0, 100))
    @settings(max_examples=25)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        assert estimate_mutual_information(x, y) >= 0.0


class TestWeights:
    def test_zero_mi_gives_delta(self):
        pop = np.ones((30, 3))  # constant features carry no information
        pop_fit = np.arange(30.0)
        w = compute_weights(pop, pop_fit, delta=0.25)
        assert w.weights == pytest.approx([0.25] * 3, abs=1e-12)

    def test_weight_is_delta_plus_mi(self):
        rng = np.random.default_rng(43)
        pop = rng.normal(size=(64, 4))
        fit = rng.normal(size=64)
        w = compute_weights(pop, fit, delta=0.25)
        for k in range(4):
            mi = estimate_mutual_information(pop[:, k], fit)
            assert w.weights[k] == pytest.approx(0.25 + mi, abs=1e-12)

    def test_direct_weighting_equation(self):
        assert FeatureWeights(weights=np.array([0.25 + 0.75])).weights[0] == 1.0

    @given(st.integers(0, 50))
    @settings(max_examples=20)
    def test_weights_never_below_delta(self, seed):
        rng = np.random.default_rng(seed)
        pop = rng.normal(size=(40, 5))
        fit = rng.normal(size=40)
        w = compute_weights(pop, fit, delta=0.25)
        assert np.all(w.weights >= 0.25)

    def test_apply_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        w = FeatureWeights(weights=np.ones(3))
        assert apply_weights(b, w) == pytest.approx(b, abs=1e-15)

    def test_apply_zero_vector(self):
        w = FeatureWeights(weights=np.array([0.5, 2.0]))
        assert apply_weights(np.zeros(2), w) == pytest.approx(np.zeros(2))

    def test_apply_matches_elementwise(self):
        rng = np.random.default_rng(47)
        b = rng.normal(size=6)
        wv = rng.uniform(0.25, 3.0, 6)
        got = apply_weights(b, FeatureWeights(weights=wv))
        for k in range(6):
            assert got[k] == pytest.approx(b[k] * wv[k], abs=1e-15)


class TestBehaviourDistance:
    def test_identity(self):
        a = np.array([1.0, 2.0])
        assert behaviour_distance(a, a) == 0.0

    def test_three_four_five(self):
        assert behaviour_distance(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_triangle_inequality_bulk(self):
        rng = np.random.default_rng(53)
        pts = rng.normal(size=(1000, 3, 8))
        for a, b, c in pts:
            assert behaviour_distance(a, c) <= (
                behaviour_distance(a, b) + behaviour_distance(b, c) + 1e-12
            )

    @given(
        arrays(float, 6, elements=st.floats(-50, 50)),
        arrays(float, 6, elements=st.floats(-50, 50)),
    )
    @settings(max_examples=60)
    def test_metric_axioms(self, a, b):
        d = behaviour_distance(a, b)
        assert d >= 0.0
        assert d == pytest.approx(behaviour_distance(b, a), abs=1e-12)
        if np.array_equal(a, b):
            assert d <= 1e-12

    @given(st.floats(0.1, 10.0), st.integers(0, 30))
    @settings(max_examples=30)
    def test_uniform_weights_preserve_neighbour_order(self, c, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(12, 5))
        w = FeatureWeights(weights=np.full(5, c))
        base = np.array([[behaviour_distance(a, b) for b in pts] for a in pts])
        weighted = np.array(
            [
                [behaviour_distance(apply_weights(a, w), apply_weights(b, w)) for b in pts]
                for a in pts
            ]
        )
        assert weighted == pytest.approx(c * base, rel=1e-9)
        for i in range(12):
            assert np.array_equal(np.argsort(base[i]), np.argsort(weighted[i]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            behaviour_distance(np.ones(3), np.ones(4))
