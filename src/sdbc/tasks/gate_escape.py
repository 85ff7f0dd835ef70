"""Gate escape: a robot group must exit through a gate that shuts shortly
after the first robot passes, so escaping together requires waiting for
each other."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ..formalism import GEOM_POINT, GEOM_SEGMENTS, GroupSpec
from ..simulation import any_last_axis, count_last_axis, range_bearing_arrays
from .base import GroupView, Task, nearest_neighbor_sensor, spawn_in_box


@dataclass(frozen=True)
class GateEscapeParams:
    n_robots: int = 4
    arena_size: float = 2.0
    gate_width: float = 0.3
    gate_close_delay: int = 25  # steps between first passage and closure
    grace_steps: int = 25       # steps after closure before the trial ends
    max_steps: int = 500
    robot_radius: float = 0.05
    v_max: float = 0.12
    axle: float = 0.08
    dt: float = 0.1
    neighbor_sense: float = 1.0
    wall_sense: float = 0.5
    published_layout: bool = True  # fold the gate-walls distance out of the schema


def gate_fitness(g, t, tau: int, n: int) -> np.ndarray | float:
    """Escaped count plus normalised elapsed time, rescaled to [0, 1];
    elementwise over arrays of escaped counts and times."""
    if np.any((g < 0) | (g > n) | (t < 0) | (t > tau)):
        raise ValueError("escaped count or time out of range")
    return (g + t / tau) / (1 + n)


class GateEscapeTask(Task):
    name = "gate_escape"
    n_inputs = 6
    movers = "active"
    record_keys = ("pos", "turn", "lin", "passing", "active", "closing", "heading", "wheels")

    def __init__(self, params: GateEscapeParams = GateEscapeParams()):
        super().__init__(params)
        s = params.arena_size
        half = params.gate_width / 2.0
        self.gate_center = (s / 2.0, s)
        gx1, gx2 = s / 2.0 - half, s / 2.0 + half
        # the walls group: the box outline, open across the gate
        self.walls = np.array(
            [
                (0.0, 0.0, s, 0.0),
                (s, 0.0, s, s),
                (s, s, gx2, s),
                (gx1, s, 0.0, s),
                (0.0, s, 0.0, 0.0),
            ]
        )
        self.diagonal = math.hypot(s, s)

    def group_specs(self) -> tuple[GroupSpec, ...]:
        n = self.params.n_robots
        return (
            GroupSpec(
                "agents", 5, 0, n,
                ("x", "y", "turning speed", "linear speed", "is passing gate"),
            ),
            GroupSpec("gate", 1, 1, 1, ("is closing",)),
            GroupSpec("walls", 0, 1, 1),
        )

    def excluded_pairs(self) -> frozenset[frozenset[str]]:
        if self.params.published_layout:
            return frozenset({frozenset({"gate", "walls"})})
        return frozenset()

    def _reset(self, seeds: Sequence[int]) -> SimpleNamespace:
        p = self.params
        b, n = len(seeds), p.n_robots
        # no keep-out zone around the gate
        pos, heading = spawn_in_box(seeds, n, p.arena_size, p.robot_radius, self.gate_center, 0.0)
        return SimpleNamespace(
            pos=pos,
            heading=heading,
            active=np.ones((b, n), dtype=bool),
            first_pass=np.full(b, -1, dtype=int),
            escaped=np.zeros(b, dtype=int),
            gate_sum=np.zeros(b),
            gate_count=np.zeros(b, dtype=int),
            disp_sum=np.zeros(b),
        )

    def _sensors(self, s: SimpleNamespace) -> np.ndarray:
        p = self.params
        pos, heading = s.pos, s.heading
        x = np.empty(pos.shape[:2] + (6,))
        gr, gb, _ = range_bearing_arrays(
            pos[..., 0], pos[..., 1], heading,
            self.gate_center[0], self.gate_center[1], self.diagonal,
        )
        x[..., 0] = gr
        x[..., 1] = gb / math.pi
        x[..., 2:4] = nearest_neighbor_sensor(
            pos, heading, s.dist, s.active, p.neighbor_sense, 1
        )
        # proximity to the enclosing box, cheap stand-in for per-segment math
        sz = p.arena_size
        box_d = np.minimum(
            np.minimum(pos[..., 0], sz - pos[..., 0]),
            np.minimum(pos[..., 1], sz - pos[..., 1]),
        )
        x[..., 4] = np.clip(1.0 - box_d / p.wall_sense, 0.0, 1.0)
        x[..., 5] = (s.escaped / p.n_robots)[:, None]
        return x

    def _step(self, s: SimpleNamespace, t: int, move: np.ndarray) -> np.ndarray:
        p = self.params
        n = p.n_robots
        cx, cy = self.gate_center
        pos = s.pos

        newly_escaped = move & (pos[..., 1] > p.arena_size + p.robot_radius)
        if newly_escaped.any():
            s.active = s.active & ~newly_escaped
            s.escaped = n - count_last_axis(s.active)
            just_opened = (s.first_pass < 0) & (s.escaped > 0)
            s.first_pass = np.where(just_opened, t, s.first_pass)

        active = s.active
        s.passing = (
            active
            & (np.abs(pos[..., 0] - cx) <= p.gate_width / 2.0)
            & (np.abs(pos[..., 1] - cy) <= p.robot_radius)
        ).astype(float)
        s.closing = (s.first_pass >= 0).astype(float)

        # running sum of the mean pair distance, for the task-specific
        # characterisation; it divides the pair total by n(n-1), where the
        # dispersion feature divides by (n-1)^2
        n_active = count_last_axis(active)
        pair_total = (s.dist * (active[:, :, None] & active[:, None, :])).sum(axis=(-2, -1))
        n_pairs = np.maximum(n_active * (n_active - 1), 1)
        s.disp_sum += np.where(n_active >= 2, pair_total / n_pairs, 0.0)

        closed_out = (s.first_pass >= 0) & (
            t >= s.first_pass + p.gate_close_delay + p.grace_steps
        )
        return (n_active == 0) | closed_out

    @cached_property
    def _gate_column(self) -> int:
        return self.feature_names().index("agents-gate distance")

    def _tally(self, s: SimpleNamespace, row: np.ndarray) -> None:
        # the feature column is the active robots' mean gate distance,
        # defined where any robot is active
        active = any_last_axis(s.active)
        s.gate_sum += row[:, self._gate_column] * active
        s.gate_count += active

    def _finish(self, s: SimpleNamespace, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = self.params
        fitness = gate_fitness(s.escaped, steps, p.max_steps, p.n_robots)
        # every trial counts each of its steps in the dispersion mean
        mean_gate = s.gate_sum / np.maximum(s.gate_count, 1)
        mean_disp = s.disp_sum / np.maximum(steps, 1)
        opened = np.where(s.first_pass >= 0, (s.first_pass + 1) / p.max_steps, 1.0)
        ts = np.stack(
            [
                s.escaped / p.n_robots,
                opened,
                mean_gate / self.diagonal,
                mean_disp / self.diagonal,
            ],
            axis=-1,
        )
        return fitness, ts

    def _constrain(self, s: SimpleNamespace, t: int, move: np.ndarray) -> np.ndarray:
        """Analytic wall resolution for the square arena with a gated top.

        Equivalent to segment-based resolution: axis clamps for the walls,
        radial pushes for the gate posts, and a full top clamp once the
        trial's gate has closed.  Escaped robots (outside `move`) sit
        outside and are left alone.
        """
        p = self.params
        closed = (s.first_pass >= 0) & (t >= s.first_pass + p.gate_close_delay)
        pos, active = s.pos, move
        size, r = p.arena_size, p.robot_radius
        gx1, gx2 = self.gate_center[0] - p.gate_width / 2.0, self.gate_center[0] + p.gate_width / 2.0
        x, y = pos[..., 0], pos[..., 1]
        x = np.where(active, np.clip(x, r, size - r), x)
        y = np.where(active, np.maximum(y, r), y)
        in_channel = (x > gx1) & (x < gx2)
        blocked = ~in_channel | (closed[:, None] & (y < size))
        y = np.where(active & blocked & (y > size - r) & (y < size), size - r, y)
        y = np.where(active & ~in_channel & (y >= size) & (y < size + r), size + r, y)
        pos = np.stack([x, y], axis=-1)
        for post in ((gx1, size), (gx2, size)):
            dx = pos[..., 0] - post[0]
            dy = pos[..., 1] - post[1]
            dist = np.sqrt(dx * dx + dy * dy)
            hit = active & (dist < r)
            if not hit.any():
                continue
            safe = np.where(dist > 1e-12, dist, 1.0)
            ux = np.where(dist > 1e-12, dx / safe, 0.0)
            uy = np.where(dist > 1e-12, dy / safe, -1.0)
            pos = np.where(
                hit[..., None],
                np.stack([post[0] + ux * r, post[1] + uy * r], axis=-1),
                pos,
            )
        return pos

    def _groups(self, s: SimpleNamespace) -> tuple[GroupView, ...]:
        """The robots still inside form the agents group; the gate is a
        point and the walls are segments."""
        return (
            (s.active, (s.pos[..., 0], s.pos[..., 1], s.turn, s.lin, s.passing), None, s.dist),
            (None, (s.closing[:, None],), (GEOM_POINT, *self.gate_center), None),
            (None, (), (GEOM_SEGMENTS, *self.walls.ravel()), None),
        )
