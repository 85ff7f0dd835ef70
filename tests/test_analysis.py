"""SOM training, exploration density, MI tables, and Mann-Whitney."""

import itertools
import math

import numpy as np
import pytest

from sdbc.analysis import (
    SomGrid,
    exploration_density,
    mann_whitney_u,
    mi_relevance_table,
    train_som,
    write_som_svg,
)


class TestSomTraining:
    def test_single_sample_attracts_all_prototypes(self):
        x = np.array([[2.0, -1.0, 0.5]])
        grid = train_som(x, 3, 3, epochs=40, rng=np.random.default_rng(0))
        assert np.max(np.abs(grid.prototypes - x[0])) < 0.05
        assert grid.quantization_error(x) < 0.05

    def test_two_clusters_two_prototypes(self):
        rng = np.random.default_rng(1)
        a = rng.normal((0.0, 0.0), 0.05, size=(100, 2))
        b = rng.normal((5.0, 5.0), 0.05, size=(100, 2))
        samples = np.vstack([a, b])
        grid = train_som(samples, 2, 1, epochs=12, rng=np.random.default_rng(2))
        protos = sorted(grid.prototypes.tolist())
        assert protos[0] == pytest.approx([0.0, 0.0], abs=0.3)
        assert protos[1] == pytest.approx([5.0, 5.0], abs=0.3)

    def test_quantization_error_non_increasing(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(150, 4))
        errors = []
        for epochs in (1, 3, 6, 10):
            grid = train_som(samples, 4, 4, epochs, rng=np.random.default_rng(7))
            errors.append(grid.quantization_error(samples))
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier * 1.05

    def test_deterministic_per_seed(self):
        rng_data = np.random.default_rng(4)
        samples = rng_data.normal(size=(60, 3))
        g1 = train_som(samples, 3, 2, 4, rng=np.random.default_rng(5))
        g2 = train_som(samples, 3, 2, 4, rng=np.random.default_rng(5))
        assert np.array_equal(g1.prototypes, g2.prototypes)

    def test_bmu_tie_breaks_to_lowest_index(self):
        grid = SomGrid(width=2, height=1, prototypes=np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert grid.bmu_batch(np.array([[0.0, 0.0]])).tolist() == [0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            train_som(np.empty((0, 3)), 2, 2, 1, np.random.default_rng(0))


class TestExplorationDensity:
    def test_identical_samples_single_cell(self):
        grid = train_som(np.array([[1.0, 1.0]]), 3, 3, 10, np.random.default_rng(0))
        xs = np.tile([1.0, 1.0], (40, 1))
        counts, best = exploration_density(grid, {"m": (xs, np.ones(40))})
        assert (counts["m"] > 0).sum() == 1
        assert counts["m"].sum() == 40
        assert counts["m"][best] == 40

    def test_counts_partition_samples(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(300, 3))
        grid = train_som(samples, 4, 4, 3, np.random.default_rng(7))
        counts, _ = exploration_density(
            grid,
            {"a": (samples[:120], rng.uniform(size=120)),
             "b": (samples[120:], rng.uniform(size=180))},
        )
        assert counts["a"].sum() == 120
        assert counts["b"].sum() == 180
        assert np.all(counts["a"] >= 0) and np.all(counts["b"] >= 0)

    def test_uniform_samples_spread_out(self):
        rng = np.random.default_rng(8)
        samples = rng.uniform(-1, 1, size=(4000, 2))
        grid = train_som(samples[:800], 4, 4, 3, np.random.default_rng(9))
        counts, _ = exploration_density(grid, {"u": (samples, np.zeros(4000))})
        expected = 4000 / 16
        assert counts["u"].max() < 3 * expected

    def test_best_cell_tracks_fitness(self):
        grid = SomGrid(width=2, height=1, prototypes=np.array([[0.0, 0.0], [10.0, 10.0]]))
        xs = np.array([[0.0, 0.0], [10.0, 10.0]])
        fs = np.array([0.1, 0.9])
        _, best = exploration_density(grid, {"m": (xs, fs)})
        assert best == 1


class TestMiTable:
    def test_sorted_descending_with_constant_at_bottom(self):
        rows = [
            {"a": 1.5, "b": 0.0, "c": 0.7},
            {"a": 1.7, "b": 0.0, "c": 0.5},
        ]
        table = mi_relevance_table(rows)
        assert [r[0] for r in table] == ["a", "c", "b"]
        assert table[2][1] == pytest.approx(0.0)

    def test_identical_runs_do_not_widen_sd(self):
        one_run = [{"a": 1.0}, {"a": 2.0}]
        table_one = mi_relevance_table(one_run)
        table_two = mi_relevance_table(one_run + one_run)
        assert table_one[0][1] == pytest.approx(table_two[0][1])
        assert table_one[0][2] == pytest.approx(table_two[0][2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mi_relevance_table([])


def u_by_pair_counting(a, b):
    """Independent U definition: greater pairs plus half the ties."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def exact_p_two_sided(a, b):
    """Direct enumeration oracle for the two-sided exact p-value."""
    pooled = list(a) + list(b)
    n1 = len(a)
    us = []
    for combo in itertools.combinations(range(len(pooled)), n1):
        group_a = [pooled[i] for i in combo]
        group_b = [pooled[i] for i in range(len(pooled)) if i not in combo]
        us.append(u_by_pair_counting(group_a, group_b))
    u_obs = u_by_pair_counting(a, b)
    u_min = min(u_obs, n1 * len(b) - u_obs)
    hi = n1 * len(b) - u_min
    if hi <= u_min + 1e-9:
        return 1.0
    count = sum(1 for u in us if u <= u_min + 1e-9 or u >= hi - 1e-9)
    return count / len(us)


class TestMannWhitney:
    def test_separated_samples_golden(self):
        u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert p == pytest.approx(0.1, abs=1e-12)

    def test_identical_samples_p_one(self):
        u, p = mann_whitney_u([2, 2, 2], [2, 2, 2])
        assert p == 1.0

    def test_u_sum_property(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            a = rng.integers(0, 6, rng.integers(2, 7)).astype(float)
            b = rng.integers(0, 6, rng.integers(2, 7)).astype(float)
            u_ab, _ = mann_whitney_u(a, b)
            u_ba, _ = mann_whitney_u(b, a)
            assert u_ab + u_ba == pytest.approx(len(a) * len(b), abs=1e-9)

    def test_u_matches_pair_counting(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.integers(0, 8, rng.integers(2, 9)).astype(float)
            b = rng.integers(0, 8, rng.integers(2, 9)).astype(float)
            u, _ = mann_whitney_u(a, b)
            assert u == pytest.approx(u_by_pair_counting(a, b), abs=1e-9)

    def test_exact_p_matches_enumeration_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            a = rng.integers(0, 5, rng.integers(2, 6)).astype(float)
            b = rng.integers(0, 5, rng.integers(2, 6)).astype(float)
            _, p = mann_whitney_u(a, b)
            assert p == pytest.approx(exact_p_two_sided(a, b), abs=1e-9)

    def test_one_sided_exact(self):
        # all of a above all of b: P(U >= 9) = 1/20 one-sided
        _, p = mann_whitney_u([4, 5, 6], [1, 2, 3], alternative="greater")
        assert p == pytest.approx(0.05, abs=1e-12)
        _, p_less = mann_whitney_u([4, 5, 6], [1, 2, 3], alternative="less")
        assert p_less == 1.0

    def test_large_shifted_normals_tiny_p(self):
        rng = np.random.default_rng(13)
        a = rng.normal(1.0, 1.0, 60)
        b = rng.normal(0.0, 1.0, 60)
        u, p = mann_whitney_u(a, b)
        assert p < 1e-6
        # reference z computation
        n1 = n2 = 60
        mean = n1 * n2 / 2
        sd = math.sqrt(n1 * n2 * (n1 + n2 + 1) / 12)
        z = (abs(u - mean) - 0.5) / sd
        assert p == pytest.approx(math.erfc(z / math.sqrt(2)), rel=1e-9)

    def test_rejects_empty_or_bad_alternative(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [1.0], alternative="sideways")


class TestSvg:
    def test_writes_self_contained_svg(self, tmp_path):
        grid = SomGrid(width=2, height=2, prototypes=np.zeros((4, 3)))
        counts = np.array([5, 0, 2, 1])
        path = tmp_path / "map.svg"
        write_som_svg(str(path), grid, counts, best_cell=0, title="test map")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 4  # 3 filled cells + best-cell ring
        assert "test map" in text
