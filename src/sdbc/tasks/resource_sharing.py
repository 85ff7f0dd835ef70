"""Resource sharing: robots drain energy as they move and must take turns
on a single charging station to survive the trial."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ..formalism import GEOM_POINT, GroupSpec
from ..simulation import any_last_axis, count_last_axis, range_bearing_arrays, sum_last_axis
from .base import GroupView, Task, nearest_neighbor_sensor, spawn_in_box


@dataclass(frozen=True)
class ResourceSharingParams:
    # energy scales are matched to travel: a full tank covers roughly four
    # arena widths at full speed, while idling through a whole trial costs
    # about twice e_max, so survival requires charging and moving stays
    # meaningfully priced
    n_robots: int = 4
    arena_size: float = 2.0
    station_radius: float = 0.2
    e_max: float = 100.0
    start_energy: float = 50.0
    consumption_base: float = 0.2
    consumption_move: float = 0.5
    recharge: float = 2.0
    max_steps: int = 1000
    robot_radius: float = 0.05
    v_max: float = 0.3
    axle: float = 0.08
    dt: float = 0.1
    neighbor_sense: float = 1.0
    station_sense: float = 1.0   # station (and its occupancy) visible inside this radius
    spawn_clearance: float = 0.0  # minimum spawn distance from the station


def sharing_fitness(s, mean_energy, e_max: float, n: int) -> np.ndarray | float:
    """Survivor count plus normalised mean energy, rescaled to [0, 1];
    elementwise over arrays of survivors and mean energies."""
    if np.any((s < 0) | (s > n)) or np.any((mean_energy < 0.0) | (mean_energy > e_max)):
        raise ValueError("survivors or mean energy out of range")
    return (s + mean_energy / e_max) / (1 + n)


class ResourceSharingTask(Task):
    name = "resource_sharing"
    n_inputs = 6
    movers = "alive"
    record_keys = (
        "pos", "turn", "lin", "energy", "charging", "alive", "occupied", "heading", "wheels",
    )

    def __init__(self, params: ResourceSharingParams = ResourceSharingParams()):
        super().__init__(params)
        # a fuller start would take the mean energy, and fitness, out of range
        if not 0.0 <= params.start_energy <= params.e_max:
            raise ValueError("start_energy must be in [0, e_max]")
        s = params.arena_size
        self.station = (s / 2.0, s / 2.0)
        # largest possible distance from the station, for the TS vector
        corners = [(0, 0), (s, 0), (0, s), (s, s)]
        self.station_reach = max(math.hypot(c[0] - self.station[0], c[1] - self.station[1]) for c in corners)

    def group_specs(self) -> tuple[GroupSpec, ...]:
        n = self.params.n_robots
        return (
            GroupSpec(
                "agents", 6, 0, n,
                ("x", "y", "turning speed", "linear speed", "energy level", "is charging"),
            ),
            GroupSpec("station", 1, 1, 1, ("is occupied",)),
        )

    def _reset(self, seeds: Sequence[int]) -> SimpleNamespace:
        p = self.params
        b, n = len(seeds), p.n_robots
        pos, heading = spawn_in_box(
            seeds, n, p.arena_size, p.robot_radius, self.station, p.spawn_clearance
        )
        return SimpleNamespace(
            pos=pos,
            heading=heading,
            alive=np.ones((b, n), dtype=bool),
            energy=np.full((b, n), p.start_energy),
            occupant=np.full(b, -1, dtype=int),
            energy_integral=np.zeros(b),
            speed_sum=np.zeros(b),
            alive_steps=np.zeros(b),
            station_sum=np.zeros(b),
            station_count=np.zeros(b, dtype=int),
        )

    def _sensors(self, s: SimpleNamespace) -> np.ndarray:
        p = self.params
        pos, heading = s.pos, s.heading
        x = np.empty(pos.shape[:2] + (6,))
        x[..., 0] = s.energy / p.e_max
        sr, sb, seen = range_bearing_arrays(
            pos[..., 0], pos[..., 1], heading,
            self.station[0], self.station[1], p.station_sense,
        )
        x[..., 1] = np.where(seen, sr, 1.0)
        x[..., 2] = np.where(seen, sb / math.pi, 0.0)
        x[..., 3] = np.where(seen, (s.occupant >= 0).astype(float)[:, None], 0.0)
        x[..., 4:6] = nearest_neighbor_sensor(
            pos, heading, s.dist, s.alive, p.neighbor_sense, 1
        )
        return x

    def _constrain(self, s: SimpleNamespace, t: int, move: np.ndarray) -> np.ndarray:
        # axis clamps are exact wall resolution for a closed box; dead
        # robots already rest inside, so clamping them is a no-op
        p = self.params
        return np.clip(s.pos, p.robot_radius, p.arena_size - p.robot_radius)

    def _step(self, s: SimpleNamespace, t: int, move: np.ndarray) -> np.ndarray:
        p = self.params
        pos = s.pos

        # station occupancy: the holder keeps it while alive and inside;
        # otherwise the nearest alive robot inside takes it
        flat_rows = np.arange(len(pos))
        occupant, alive, energy, wheels = s.occupant, s.alive, s.energy, s.wheels
        st_dist = np.hypot(pos[..., 0] - self.station[0], pos[..., 1] - self.station[1])
        inside = alive & (st_dist <= p.station_radius)
        keeps = (occupant >= 0) & inside[flat_rows, np.maximum(occupant, 0)]
        occupant = np.where(keeps, occupant, -1)
        claim_d = np.where(inside, st_dist, np.inf)
        claimant = claim_d.argmin(axis=1)
        has_claim = np.isfinite(claim_d[flat_rows, claimant])
        occupant = np.where((occupant < 0) & has_claim, claimant, occupant)

        charging = np.zeros(alive.shape, dtype=bool)
        holders = np.nonzero(occupant >= 0)[0]
        charging[holders, occupant[holders]] = True
        charging &= move

        consumption = p.consumption_base + p.consumption_move * np.abs(
            (wheels[..., 0] + wheels[..., 1]) / 2.0
        )
        energy = np.where(move, energy - consumption, energy)
        energy = np.where(charging, np.minimum(energy + p.recharge, p.e_max), energy)
        died = move & (energy <= 0.0)
        s.energy = energy = np.maximum(energy, 0.0)
        s.alive = alive = alive & ~died
        freed = (occupant >= 0) & ~alive[flat_rows, np.maximum(occupant, 0)]
        s.occupant = np.where(freed, -1, occupant)

        n_alive = count_last_axis(alive)
        s.energy_integral += sum_last_axis(energy * alive)
        s.speed_sum += sum_last_axis(np.abs(s.lin) * alive)
        s.alive_steps += n_alive
        s.charging = (charging & alive).astype(float)
        s.occupied = (s.occupant >= 0).astype(float)
        return n_alive == 0

    @cached_property
    def _station_column(self) -> int:
        return self.feature_names().index("agents-station distance")

    def _tally(self, s: SimpleNamespace, row: np.ndarray) -> None:
        # the feature column is the alive robots' mean station distance,
        # defined where any robot is alive
        alive = any_last_axis(s.alive)
        s.station_sum += row[:, self._station_column] * alive
        s.station_count += alive

    def _groups(self, s: SimpleNamespace) -> tuple[GroupView, ...]:
        """The alive robots form the agents group; the station is a point."""
        return (
            (
                s.alive,
                (s.pos[..., 0], s.pos[..., 1], s.turn, s.lin, s.energy, s.charging),
                None,
                s.dist,
            ),
            (None, (s.occupied[:, None],), (GEOM_POINT, *self.station), None),
        )

    def _finish(self, s: SimpleNamespace, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = self.params
        n = p.n_robots
        # a trial's robots stop changing once it ends, so the final state
        # holds each trial's survivors
        survivors = s.alive.sum(axis=1)
        mean_energy = s.energy_integral / (n * p.max_steps)
        fitness = sharing_fitness(survivors, mean_energy, p.e_max, n)
        mean_station = s.station_sum / np.maximum(s.station_count, 1)
        ts = np.stack(
            [
                survivors / n,
                mean_energy / p.e_max,
                s.speed_sum / np.maximum(s.alive_steps, 1) / p.v_max,
                mean_station / self.station_reach,
            ],
            axis=-1,
        )
        return fitness, ts
