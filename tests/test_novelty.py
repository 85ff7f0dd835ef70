"""k-NN novelty, archive policy, and Pareto ranking against oracles."""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdbc.characterisation import behaviour_distance
from sdbc.novelty import (
    NoveltyArchive,
    ScoredIndividual,
    crowding_distance,
    non_dominated_sort,
    novelty_scores,
    rank_population,
    update_archive,
)


def novelty_score(
    target: ScoredIndividual,
    population: Sequence[ScoredIndividual],
    archive_view: Sequence[np.ndarray],
    k: int,
) -> float:
    """Mean behaviour distance from `target` to its k nearest neighbours,
    one individual at a time: the oracle for `novelty_scores`.

    Neighbour candidates are the rest of the population plus the archive
    view; a pool smaller than k is averaged whole.  The target itself is
    excluded, clones of it are not.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dists = [
        behaviour_distance(target.characterisation, other.characterisation)
        for other in population
        if other is not target
    ]
    dists += [behaviour_distance(target.characterisation, c) for c in archive_view]
    if not dists:
        raise ValueError("empty neighbour pool")
    dists.sort()
    return float(np.mean(dists[:k]))


def individual(i, char, fitness=0.0):
    return ScoredIndividual(
        id=i, fitness=fitness, characterisation=np.asarray(char, dtype=float)
    )


class TestNoveltyScore:
    def test_pool_of_one_returns_its_distance(self):
        target = individual(0, [0.0, 0.0])
        other = individual(1, [3.0, 4.0])
        for k in (1, 5, 100):
            assert novelty_score(target, [target, other], [], k) == pytest.approx(5.0)

    def test_clone_in_pool_gives_zero(self):
        target = individual(0, [1.0, 2.0])
        clone = individual(1, [1.0, 2.0])
        far = individual(2, [9.0, 9.0])
        assert novelty_score(target, [target, clone, far], [], 1) == 0.0

    def test_matches_sort_and_average_oracle(self):
        rng = np.random.default_rng(7)
        chars = rng.normal(size=(40, 6))
        pop = [individual(i, c) for i, c in enumerate(chars)]
        archive = [rng.normal(size=6) for _ in range(10)]
        k = 15
        for target in pop[:10]:
            got = novelty_score(target, pop, archive, k)
            dists = sorted(
                [np.linalg.norm(target.characterisation - o.characterisation)
                 for o in pop if o is not target]
                + [np.linalg.norm(target.characterisation - a) for a in archive]
            )
            assert got == pytest.approx(np.mean(dists[:k]), abs=1e-12)

    def test_empty_pool_rejected(self):
        target = individual(0, [0.0])
        with pytest.raises(ValueError):
            novelty_score(target, [target], [], 3)

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(11)
        chars = rng.normal(size=(25, 4))
        archive = rng.normal(size=(7, 4))
        pop = [individual(i, c) for i, c in enumerate(chars)]
        got = novelty_scores(chars, archive, 5)
        for i, target in enumerate(pop):
            assert got[i] == pytest.approx(
                novelty_score(target, pop, list(archive), 5), abs=1e-9
            )

    def test_far_point_cannot_decrease_small_pool_novelty(self):
        rng = np.random.default_rng(13)
        chars = rng.normal(size=(4, 3))
        k = 10  # pool smaller than k
        base = novelty_scores(chars, np.empty((0, 0)), k)
        widened = novelty_scores(chars, np.full((1, 3), 100.0), k)
        assert np.all(widened >= base - 1e-12)


class TestArchive:
    def test_rate_zero_never_adds(self):
        archive = NoveltyArchive()
        pop = [individual(i, [float(i)]) for i in range(100)]
        update_archive(archive, pop, np.random.default_rng(0), 0.0)
        assert len(archive) == 0

    def test_rate_one_adds_all(self):
        archive = NoveltyArchive()
        pop = [individual(i, [float(i)]) for i in range(100)]
        update_archive(archive, pop, np.random.default_rng(0), 1.0, generation=3)
        assert len(archive) == 100
        assert archive.generation.tolist() == [3] * 100

    def test_growth_within_binomial_bounds(self):
        rate, pop_size, gens = 0.025, 100, 250
        archive = NoveltyArchive()
        pop = [individual(i, [float(i)]) for i in range(pop_size)]
        rng = np.random.default_rng(42)
        for g in range(gens):
            update_archive(archive, pop, rng, rate, g)
        n = pop_size * gens
        expected = n * rate
        sd = (n * rate * (1 - rate)) ** 0.5
        assert abs(len(archive) - expected) < 3 * sd

    def test_stores_raw_when_present(self):
        archive = NoveltyArchive()
        ind = individual(0, [9.0, 9.0])
        ind.raw = np.array([1.0, 2.0])
        update_archive(archive, [ind], np.random.default_rng(1), 1.0)
        assert archive.raw[0] == pytest.approx([1.0, 2.0])

    def test_deterministic_given_seed(self):
        pop = [individual(i, [float(i)]) for i in range(50)]
        sizes = []
        for _ in range(2):
            archive = NoveltyArchive()
            update_archive(archive, pop, np.random.default_rng(99), 0.3)
            sizes.append(archive.raw.tolist())
        assert sizes[0] == sizes[1]

    def test_arrays_take_the_first_rows_width_and_tag_each_row(self):
        archive = NoveltyArchive(np.zeros((0, 7)))
        rng = np.random.default_rng(3)
        archive.sample(np.ones((20, 4)), rng, 0.0, generation=0)
        assert archive.raw.shape == (0, 7)  # a draw that adds nothing keeps it
        assert archive.generation.dtype == np.int64
        first = np.arange(40.0).reshape(10, 4)
        archive.sample(first, rng, 1.0, generation=1)
        second = -np.arange(12.0).reshape(3, 4)
        archive.sample(second, rng, 1.0, generation=5)
        assert np.array_equal(archive.raw, np.vstack([first, second]))
        assert archive.generation.tolist() == [1] * 10 + [5] * 3
        assert archive.generation.dtype == np.int64
        assert len(archive) == 13

    def test_sample_draws_one_uniform_per_row(self):
        raw = np.arange(30.0).reshape(10, 3)
        archive = NoveltyArchive()
        archive.sample(raw, np.random.default_rng(8), 0.4, generation=2)
        keep = np.random.default_rng(8).random(10) < 0.4
        assert np.array_equal(archive.raw, raw[keep])
        assert 0 < keep.sum() < 10

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            NoveltyArchive().sample(np.zeros((2, 2)), np.random.default_rng(0), 1.5, 0)


def dominance_oracle(points):
    """O(n^2) front assignment by repeated non-dominated filtering."""
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            dominated = False
            for j in remaining:
                if j == i:
                    continue
                better_eq = points[j][0] >= points[i][0] and points[j][1] >= points[i][1]
                strictly = points[j][0] > points[i][0] or points[j][1] > points[i][1]
                if better_eq and strictly:
                    dominated = True
                    break
            if not dominated:
                front.append(i)
        fronts.append(sorted(front))
        remaining = [i for i in remaining if i not in front]
    return fronts


class TestNonDominatedSort:
    def test_three_point_example(self):
        fronts = non_dominated_sort([(1, 0), (0, 1), (1, 1)])
        assert fronts[0] == [2]
        assert sorted(fronts[1]) == [0, 1]

    def test_identical_points_single_front(self):
        fronts = non_dominated_sort([(0.5, 0.5)] * 6)
        assert len(fronts) == 1
        assert sorted(fronts[0]) == list(range(6))

    def test_empty_input(self):
        assert non_dominated_sort([]) == []

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(21)
        points = [tuple(p) for p in rng.integers(0, 8, size=(200, 2)).astype(float)]
        got = [sorted(f) for f in non_dominated_sort(points)]
        assert got == dominance_oracle(points)

    @given(st.integers(0, 60))
    @settings(max_examples=30)
    def test_flatten_is_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        points = [tuple(p) for p in rng.normal(size=(n, 2))]
        flat = sorted(i for front in non_dominated_sort(points) for i in front)
        assert flat == list(range(n))


def crowding_reference(front):
    """Second implementation: per-objective sorted sweep."""
    n = len(front)
    out = [0.0] * n
    for m in range(2):
        order = sorted(range(n), key=lambda i: front[i][m])
        out[order[0]] = float("inf")
        out[order[-1]] = float("inf")
        span = front[order[-1]][m] - front[order[0]][m]
        if span <= 0:
            continue
        for pos in range(1, n - 1):
            i = order[pos]
            if out[i] != float("inf"):
                out[i] += (front[order[pos + 1]][m] - front[order[pos - 1]][m]) / span
    return out


class TestCrowdingDistance:
    def test_front_of_two_all_infinite(self):
        assert crowding_distance([(0, 1), (1, 0)]) == [float("inf")] * 2

    def test_three_collinear_evenly_spaced(self):
        got = crowding_distance([(0, 0), (1, 1), (2, 2)])
        assert got[0] == float("inf")
        assert got[2] == float("inf")
        assert got[1] == pytest.approx(2.0)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            front = [tuple(p) for p in rng.normal(size=(n, 2))]
            got = crowding_distance(front)
            ref = crowding_reference(front)
            for g, r in zip(got, ref):
                if r == float("inf"):
                    assert g == float("inf")
                else:
                    assert g == pytest.approx(r, abs=1e-12)


def ranked_by_objects(fitness, novelty, ids):
    """The ranking as it was written before it took columns, one Python
    sort over per-individual keys, frozen as the oracle for
    `rank_population`: crowding within each front over its members in id
    order, then the order (front, -crowding, id)."""
    points = [(float(f), float(n)) for f, n in zip(fitness, novelty)]
    keys = {}
    for front_idx, front in enumerate(non_dominated_sort(points)):
        members = sorted(front, key=lambda i: ids[i])
        crowd = crowding_distance([points[i] for i in members])
        for i, c in zip(members, crowd):
            keys[i] = (front_idx, c)
    return sorted(range(len(points)), key=lambda i: (keys[i][0], -keys[i][1], ids[i]))


class TestRankPopulation:
    def test_front_zero_precedes_front_one(self):
        order = rank_population(
            np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0, 0.0]), np.arange(4)
        )
        assert order[0] == 2
        assert order[-1] == 3

    def test_boundary_precedes_interior_within_front(self):
        # one front, evenly spaced trade-off line
        order = rank_population(
            np.array([0.0, 1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0, 0.0]), np.arange(4)
        )
        assert set(order[:2].tolist()) == {0, 3}

    def test_total_order_is_permutation_and_shuffle_stable(self):
        rng = np.random.default_rng(37)
        fitness = rng.integers(0, 4, 30).astype(float)
        novelty = rng.integers(0, 4, 30).astype(float)
        ids = np.arange(30)
        order = rank_population(fitness, novelty, ids)
        assert sorted(order.tolist()) == list(range(30))
        perm = rng.permutation(30)
        order2 = rank_population(fitness[perm], novelty[perm], ids[perm])
        assert ids[perm][order2].tolist() == ids[order].tolist()

    def test_matches_the_object_based_ranking(self):
        rng = np.random.default_rng(41)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            levels = int(rng.integers(1, 6))  # few levels: many ties
            fitness = rng.integers(0, levels, n) / levels
            novelty = rng.integers(0, levels, n) * 0.7
            if trial % 2:
                fitness = fitness + rng.normal(size=n)
            ids = rng.permutation(1000)[:n] + 50
            order = rank_population(fitness, novelty, ids)
            assert order.tolist() == ranked_by_objects(fitness, novelty, ids.tolist())
