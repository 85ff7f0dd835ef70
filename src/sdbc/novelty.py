"""Novelty scoring, archive upkeep, and fitness/novelty Pareto ranking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class ScoredIndividual:
    """An evaluated individual as the selection machinery sees it."""

    id: int
    fitness: float
    characterisation: np.ndarray
    novelty: float | None = None
    raw: np.ndarray | None = None  # untransformed vector, what the archive stores


@dataclass
class NoveltyArchive:
    """Sample of past individuals, stored untransformed so the current
    generation's standardisation and weights can be re-applied."""

    entries: list[tuple[np.ndarray, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, raw: np.ndarray, generation: int) -> None:
        self.entries.append((np.array(raw, dtype=float), generation))

    def raw_matrix(self) -> np.ndarray:
        if not self.entries:
            return np.empty((0, 0))
        return np.stack([e[0] for e in self.entries])

    def generations(self) -> list[int]:
        return [e[1] for e in self.entries]


def novelty_scores(chars: np.ndarray, archive_view: np.ndarray, k: int) -> np.ndarray:
    """Vectorised novelty for a whole population at once.

    `chars` is (P, L); `archive_view` is (A, L) or empty.  Row i is the
    mean behaviour distance from individual i to its k nearest neighbours
    among all other rows plus the archive; a pool smaller than k is
    averaged whole.  Clones of row i count as neighbours.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = chars if archive_view.size == 0 else np.vstack([chars, archive_view])
    sq = (chars * chars).sum(axis=1)[:, None] + (pool * pool).sum(axis=1)[None, :]
    sq = sq - 2.0 * (chars @ pool.T)
    d = np.sqrt(np.maximum(sq, 0.0))
    p = chars.shape[0]
    d[np.arange(p), np.arange(p)] = np.inf  # self-exclusion
    n_pool = d.shape[1] - 1
    if n_pool < 1:
        raise ValueError("empty neighbour pool")
    kk = min(k, n_pool)
    part = np.partition(d, kk - 1, axis=1)[:, :kk]
    return part.mean(axis=1)


def update_archive(
    archive: NoveltyArchive,
    population: Sequence[ScoredIndividual],
    rng: np.random.Generator,
    rate: float,
    generation: int = 0,
) -> NoveltyArchive:
    """Append each individual's raw characterisation with probability `rate`."""
    if not (0.0 <= rate <= 1.0):
        raise ValueError("rate must be in [0, 1]")
    draws = rng.random(len(population))
    for ind, u in zip(population, draws):
        if u < rate:
            raw = ind.raw if ind.raw is not None else ind.characterisation
            archive.add(raw, generation)
    return archive


def non_dominated_sort(points: Sequence[tuple[float, float]]) -> list[list[int]]:
    """Sort objective pairs (both maximised) into Pareto fronts of indices."""
    n = len(points)
    if n == 0:
        return []
    f = np.asarray(points, dtype=float)
    # dominated[i][j]: i dominates j
    ge = (f[:, None, :] >= f[None, :, :]).all(axis=2)
    gt = (f[:, None, :] > f[None, :, :]).any(axis=2)
    dominates = ge & gt
    dom_count = dominates.sum(axis=0)
    fronts: list[list[int]] = []
    remaining = dom_count.copy()
    current = [i for i in range(n) if remaining[i] == 0]
    while current:
        fronts.append(current)
        nxt: list[int] = []
        for i in current:
            for j in np.nonzero(dominates[i])[0]:
                remaining[j] -= 1
                if remaining[j] == 0:
                    nxt.append(int(j))
        current = sorted(nxt)
    return fronts


def crowding_distance(front: Sequence[tuple[float, float]]) -> list[float]:
    """Neighbour-gap density along each objective; boundary points get inf."""
    n = len(front)
    if n == 0:
        raise ValueError("crowding distance of an empty front")
    dist = np.zeros(n)
    f = np.asarray(front, dtype=float)
    for m in range(f.shape[1]):
        order = np.argsort(f[:, m], kind="stable")
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = f[order[-1], m] - f[order[0], m]
        if span <= 0.0 or n <= 2:
            continue
        gaps = (f[order[2:], m] - f[order[:-2], m]) / span
        dist[order[1:-1]] += gaps
    return [float(d) for d in dist]


def rank_population(individuals: Sequence[ScoredIndividual]) -> list[int]:
    """Total order as indices: ascending front, descending crowding, then id."""
    for ind in individuals:
        if ind.novelty is None:
            raise ValueError(f"individual {ind.id} has no novelty score")
    points = [(ind.fitness, float(ind.novelty)) for ind in individuals]
    keys: dict[int, tuple[int, float]] = {}
    for front_idx, front in enumerate(non_dominated_sort(points)):
        # id order makes crowding ties independent of the input ordering
        members = sorted(front, key=lambda i: individuals[i].id)
        crowd = crowding_distance([points[i] for i in members])
        for i, c in zip(members, crowd):
            keys[i] = (front_idx, c)
    return sorted(
        range(len(individuals)),
        key=lambda i: (keys[i][0], -keys[i][1], individuals[i].id),
    )
