"""Shared machinery for the benchmark tasks.

Each task advances a whole batch of trials in lockstep (one controller,
many seeded initial conditions) and writes each step's behaviour features,
fully vectorised, from the batch's current (B, N) state right after that
step's update; task-specific characterisations accumulate as running sums.
Raw per-step state is kept only when `simulate(..., record=True)` asks for
it.  The formal snapshot adapter rebuilds entity groups from that record,
so the fast path can be checked against the reference extractor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..formalism import GroupSpec, TaskStateSnapshot, feature_schema
from ..characterisation import characterisation_schema

Controller = Callable[[np.ndarray], np.ndarray]


@dataclass
class TrialBatch:
    """Outcome of simulating one controller over a batch of trials."""

    steps: np.ndarray      # (B,) elapsed steps per trial
    fitness: np.ndarray    # (B,)
    features: np.ndarray   # (T, B, F) features written each step, carry-forward applied
    ts_chars: np.ndarray   # (B, 4) task-specific characterisation per trial
    record: dict | None = None  # (T, ...) per-step state arrays, only with record=True


class Task:
    """Base class; concrete tasks define groups, dynamics and fitness."""

    name: str = ""
    n_inputs: int = 0
    n_outputs: int = 2

    @property
    def max_steps(self) -> int:
        raise NotImplementedError

    def group_specs(self) -> tuple[GroupSpec, ...]:
        raise NotImplementedError

    def excluded_pairs(self) -> frozenset[frozenset[str]]:
        return frozenset()

    def feature_names(self) -> tuple[str, ...]:
        return feature_schema(self.group_specs(), self.excluded_pairs())

    def char_schema(self) -> tuple[str, ...]:
        return characterisation_schema(self.feature_names())

    def simulate(
        self, controller: Controller, seeds: Sequence[int], record: bool = True
    ) -> TrialBatch:
        raise NotImplementedError

    def snapshot(self, rec: dict, trial: int, step: int) -> TaskStateSnapshot:
        """Formal task-state view of one recorded trial step."""
        raise NotImplementedError


def write_feature_row(
    features: np.ndarray, t: int, names: Sequence[str], columns: dict
) -> None:
    """Fill step `t`'s (B, F) row of `features` in schema order.

    `columns` maps every name in `names` to its (B,) values, or to a
    (values, defined) pair for a feature that the group contents can leave
    undefined.  An undefined entry carries forward the value of row t-1 in
    its column, or 0 at t = 0.
    """
    row = features[t]
    for k, name in enumerate(names):
        column = columns[name]
        if isinstance(column, tuple):
            values, defined = column
            column = np.where(defined, values, features[t - 1, :, k] if t else 0.0)
        row[:, k] = column


def stack_record(frames: list[dict], steps: np.ndarray) -> dict:
    """Per-step state dicts to one dict of (T, ...) arrays, plus `steps`."""
    rec = {key: np.stack([f[key] for f in frames]) for key in frames[0]}
    rec["steps"] = steps
    return rec


def masked_mean(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of `values` over the last axis where `mask`; also returns the
    defined-ness (any element selected)."""
    count = mask.sum(axis=-1)
    total = (values * mask).sum(axis=-1)
    defined = count > 0
    return total / np.maximum(count, 1), defined


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All robot-robot distances: inputs (..., N) -> output (..., N, N)."""
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    return np.sqrt(dx * dx + dy * dy)


def nearest_neighbor_sensor(
    pos: np.ndarray,
    heading: np.ndarray,
    mask: np.ndarray,
    sense_range: float,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Range/bearing to each robot's nearest masked peer.

    Out-of-range or absent peers read as range 1, bearing 0.  `rows` is a
    cached arange(B)[:, None] index for the batch axis.
    """
    from ..simulation import normalize_angle

    dist = pairwise_distances(pos[..., 0], pos[..., 1])
    dist = np.where(mask[:, None, :] & mask[:, :, None], dist, np.inf)
    np.einsum("bii->bi", dist)[:] = np.inf
    nearest = dist.argmin(axis=2)
    nd = dist[rows, np.arange(pos.shape[1])[None, :], nearest]
    sensed = np.isfinite(nd) & (nd <= sense_range)
    tx = pos[..., 0][rows, nearest]
    ty = pos[..., 1][rows, nearest]
    bearing = normalize_angle(np.arctan2(ty - pos[..., 1], tx - pos[..., 0]) - heading)
    rng_col = np.where(sensed, nd / sense_range, 1.0)
    bear_col = np.where(sensed, bearing / np.pi, 0.0)
    return rng_col, bear_col


def group_dispersion_series(dist: np.ndarray, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group dispersion for any leading shape.

    `dist` is (..., N, N) pair distances, `member` (..., N) membership.
    Returns the (...) dispersion (ordered-pair sum over (n-1)^2) and its
    defined-ness (n >= 2).
    """
    pair_mask = member[..., :, None] & member[..., None, :]
    n = member.sum(axis=-1)
    total = (dist * pair_mask).sum(axis=(-2, -1))  # diagonal is zero distance
    defined = n >= 2
    denom = np.maximum(n - 1, 1) ** 2
    return total / denom, defined


def random_positions(
    rng: np.random.Generator,
    n: int,
    low: tuple[float, float],
    high: tuple[float, float],
    min_separation: float,
    max_tries: int = 200,
) -> np.ndarray:
    """Uniform non-overlapping points in a box, deterministic per rng state."""
    placed: list[np.ndarray] = []
    for _ in range(n):
        for _ in range(max_tries):
            p = rng.uniform(low, high)
            if all(np.hypot(*(p - q)) >= min_separation for q in placed):
                placed.append(p)
                break
        else:
            placed.append(rng.uniform(low, high))  # crowded box: accept overlap
    return np.array(placed)
