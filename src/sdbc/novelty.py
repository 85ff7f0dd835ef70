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
    raw: np.ndarray | None = None  # untransformed vector, what the archive stores


@dataclass
class NoveltyArchive:
    """Sample of past individuals, stored untransformed so the current
    generation's standardisation and weights can be re-applied: `raw`
    (A, L) holds the vectors and `generation` (A,) the generation each
    joined in.  An empty archive takes the width of the first rows it
    keeps."""

    raw: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    generation: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.raw)

    def sample(
        self, raw: np.ndarray, rng: np.random.Generator, rate: float, generation: int
    ) -> None:
        """Append each row of `raw` with probability `rate`, one draw per row."""
        if not (0.0 <= rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")
        kept = np.asarray(raw, dtype=float)[rng.random(len(raw)) < rate]
        if len(kept):
            self.raw = np.concatenate([self.raw, kept]) if len(self.raw) else kept
            self.generation = np.concatenate(
                [self.generation, np.full(len(kept), generation, dtype=np.int64)]
            )


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
    raw = [ind.characterisation if ind.raw is None else ind.raw for ind in population]
    archive.sample(np.array(raw, dtype=float), rng, rate, generation)
    return archive


def non_dominated_sort(points: Sequence[tuple[float, float]]) -> list[list[int]]:
    """Sort objective pairs (both maximised) into Pareto fronts of indices,
    each front in ascending index order."""
    f = np.asarray(points, dtype=float).reshape(-1, 2)
    # dominates[i, j]: i dominates j
    dominates = (f[:, None, :] >= f[None, :, :]).all(axis=2) & (
        f[:, None, :] > f[None, :, :]
    ).any(axis=2)
    count = dominates.sum(axis=0)  # dominators not yet peeled off
    left = np.ones(len(f), dtype=bool)
    fronts: list[list[int]] = []
    while left.any():
        front = np.flatnonzero(left & (count == 0))
        fronts.append(front.tolist())
        left[front] = False
        count -= dominates[front].sum(axis=0)
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


def rank_population(fitness: np.ndarray, novelty: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Total order as indices: ascending front, descending crowding, then id."""
    points = np.column_stack([fitness, novelty])
    ids = np.asarray(ids)
    front_of = np.empty(len(ids), dtype=np.int64)
    crowding = np.empty(len(ids))
    for f, front in enumerate(non_dominated_sort(points)):
        # id order makes crowding ties independent of the input ordering
        members = np.asarray(front)[np.argsort(ids[front], kind="stable")]
        front_of[members] = f
        crowding[members] = crowding_distance(points[members])
    return np.lexsort((ids, -crowding, front_of))
