"""Predator-prey pursuit: three predators chase a fleeing prey of equal
speed inside a circular chase zone, so capture requires encirclement."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ..formalism import GEOM_CIRCLE, GroupSpec
from ..simulation import (
    any_last_axis,
    count_last_axis,
    min_last_axis,
    normalize_angle,
    range_bearing_arrays,
    sum_axis1,
    sum_last_axis,
)
from .base import GroupView, Task, nearest_neighbor_sensor


@dataclass(frozen=True)
class PredatorPreyParams:
    n_predators: int = 3
    zone_radius: float = 3.0
    max_steps: int = 600
    robot_radius: float = 0.05
    v_max: float = 0.12
    prey_speed_factor: float = 1.0
    prey_sense: float = 0.75
    predator_sense: float = 6.0
    axle: float = 0.08
    dt: float = 0.1
    prey_spawn_min: float = 1.0
    prey_spawn_max: float = 2.0
    start_spacing: float = 0.3
    published_layout: bool = True  # prey group may empty, so its size is a feature


def pursuit_fitness(captured, t, tau: int, d_i, d_f, size: float) -> np.ndarray | float:
    """2 - t/tau on capture, else the normalised closing of the mean
    distance; elementwise over arrays of trials."""
    d_i, d_f = np.asarray(d_i), np.asarray(d_f)
    if np.any(d_i < 0) or np.any(d_f < 0) or size <= 0:
        raise ValueError("distances must be non-negative and size positive")
    fitness = np.where(captured, 2.0 - np.asarray(t) / tau, np.maximum(d_i - d_f, 0.0) / size)
    return fitness if fitness.ndim else float(fitness)


class PredatorPreyTask(Task):
    name = "predator_prey"
    n_inputs = 6
    movers = "active"  # every predator, for as long as its trial runs
    record_keys = (
        "pos", "turn", "lin", "prey", "prey_turn", "prey_lin", "present", "heading", "wheels",
    )

    def __init__(self, params: PredatorPreyParams = PredatorPreyParams()):
        super().__init__(params)
        # the chase zone's bounding-box diagonal normalises distance gains
        self.size = 2.0 * params.zone_radius * math.sqrt(2.0)
        n = params.n_predators
        offset = (np.arange(n) - (n - 1) / 2.0) * params.start_spacing
        self.start_pos = np.stack([offset, np.zeros(n)], axis=-1)
        self.start_heading = np.full(n, math.pi / 2.0)

    def group_specs(self) -> tuple[GroupSpec, ...]:
        p = self.params
        attrs = ("x", "y", "turning speed", "linear speed")
        return (
            GroupSpec("predators", 4, p.n_predators, p.n_predators, attrs),
            GroupSpec("prey", 4, 0 if p.published_layout else 1, 1, attrs),
            GroupSpec("bounds", 0, 1, 1),
        )

    def _initial_prey(self, seeds: Sequence[int]) -> np.ndarray:
        """(B, 2) prey starts: a radius, then an angle, each drawn as
        `uniform` draws it (low + (high - low)*u) from the first two
        `random()` draws of the trial's own `default_rng(seed)`."""
        p = self.params
        u = np.array([np.random.default_rng(seed).random(2) for seed in seeds]).reshape(-1, 2)
        r = p.prey_spawn_min + (p.prey_spawn_max - p.prey_spawn_min) * u[:, 0]
        a = (-math.pi + 2.0 * math.pi * u[:, 1]).tolist()
        # math's cos and sin: numpy's may differ from them in the last bit
        cos = np.array([math.cos(x) for x in a])
        sin = np.array([math.sin(x) for x in a])
        return np.stack([r * cos, r * sin], axis=-1)

    def _reset(self, seeds: Sequence[int]) -> SimpleNamespace:
        b, n = len(seeds), self.params.n_predators
        pos = np.broadcast_to(self.start_pos, (b, n, 2)).copy()
        prey = self._initial_prey(seeds)
        deltas = pos - prey[:, None, :]
        d0 = np.sqrt(sum_last_axis(deltas * deltas))
        d_initial = sum_last_axis(d0) / n
        return SimpleNamespace(
            pos=pos,
            heading=np.broadcast_to(self.start_heading, (b, n)).copy(),
            active=np.ones((b, n), dtype=bool),
            prey=prey,
            prey_heading=np.zeros(b),
            present=np.ones(b, dtype=bool),
            captured=np.zeros(b, dtype=bool),
            prey_dist=d0,
            d_initial=d_initial,
            d_final=d_initial.copy(),
            spread_sum=np.zeros(b),
        )

    def _sensors(self, s: SimpleNamespace) -> np.ndarray:
        p = self.params
        pos, heading, prey = s.pos, s.heading, s.prey
        x = np.empty(pos.shape[:2] + (6,))
        # the distance measured after the last move; a caught prey is absent
        dist = np.where(s.present[:, None], s.prey_dist, np.inf)
        range_bearing_arrays(
            prey[:, None, 0] - pos[..., 0], prey[:, None, 1] - pos[..., 1], heading,
            p.predator_sense, dist, out=x[..., 0:2],
        )
        x[..., 2:6] = nearest_neighbor_sensor(
            pos, heading, s.dist, s.active, p.predator_sense, 2
        )
        return x

    def _step(self, s: SimpleNamespace, t: int, move: np.ndarray) -> np.ndarray:
        # preprogrammed prey: flee the mean sensed predator position
        p = self.params
        pos, prey, prey_heading = s.pos, s.prey, s.prey_heading
        prey_speed = p.prey_speed_factor * p.v_max
        deltas = pos - prey[:, None, :]
        pd = np.sqrt(sum_last_axis(deltas * deltas))
        sensed = pd <= p.prey_sense
        any_sensed = any_last_axis(sensed)
        w = sensed / np.maximum(count_last_axis(sensed), 1)[:, None]
        mean_pred = sum_axis1(pos * w[..., None])
        away = prey - mean_pred
        norm = np.sqrt(sum_last_axis(away * away))
        flee = np.where(
            (any_sensed & (norm > 1e-12))[:, None],
            away / np.maximum(norm, 1e-12)[:, None],
            0.0,
        )
        s.prey = prey = prey + flee * prey_speed * p.dt
        moving = any_last_axis(flee != 0.0)
        s.prey_heading = np.where(moving, np.arctan2(flee[:, 1], flee[:, 0]), prey_heading)
        s.prey_turn = np.where(
            moving, normalize_angle(s.prey_heading - prey_heading) / p.dt, 0.0
        )
        s.prey_lin = np.where(moving, prey_speed, 0.0)

        deltas = pos - prey[:, None, :]
        pd = np.sqrt(sum_last_axis(deltas * deltas))
        s.prey_dist = pd  # the next step's sensors read it
        caught = s.present & (min_last_axis(pd) <= 2.0 * p.robot_radius)
        escaped = s.present & ~caught & (np.hypot(prey[:, 0], prey[:, 1]) > p.zone_radius)
        s.present = s.present & ~caught
        s.captured = s.captured | caught
        n = p.n_predators
        s.d_final = sum_last_axis(pd) / n
        centroid = sum_axis1(pos) / n
        s.spread_sum += sum_last_axis(
            np.hypot(pos[..., 0] - centroid[:, None, 0], pos[..., 1] - centroid[:, None, 1])
        ) / n
        return caught | escaped

    def _finish(self, s: SimpleNamespace, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = self.params
        fitness = pursuit_fitness(
            s.captured, steps, p.max_steps, s.d_initial, s.d_final, self.size
        )
        # every trial counts each of its steps in the spread mean
        mean_spread = s.spread_sum / np.maximum(steps, 1)
        ts = np.stack(
            [
                s.captured.astype(float),
                steps / p.max_steps,
                s.d_final / (2.0 * p.zone_radius),
                mean_spread / p.zone_radius,
            ],
            axis=-1,
        )
        return fitness, ts

    def _groups(self, s: SimpleNamespace) -> tuple[GroupView, ...]:
        """Every predator is a member; under the published layout a
        captured prey leaves its group, so its features carry forward."""
        prey = (s.prey[:, 0:1], s.prey[:, 1:2], s.prey_turn[:, None], s.prey_lin[:, None])
        return (
            (None, (s.pos[..., 0], s.pos[..., 1], s.turn, s.lin), None, s.dist),
            (s.present[:, None] if self.params.published_layout else None, prey, None, None),
            (None, (), (GEOM_CIRCLE, 0.0, 0.0, self.params.zone_radius), None),
        )
