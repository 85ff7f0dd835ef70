"""Shared machinery for the benchmark tasks, including the one lockstep
simulation loop all of them run.

`Task.simulate` advances a batch of trials step by step: sense, act
through the controller, mask the wheels of robots that no longer move,
move, resolve collisions, apply the task's own rules, then write the
step's behaviour features from the batch's current (B, N) state.
A task supplies only its initial state (`_reset`), its sensors, its step
rules (`_step`), its feature row (`_features`) and its fitness and
task-specific characterisation (`_finish`).  Per-trial working state lives
in one namespace of arrays with the live trials on the leading axis, so
the loop can compact it: when a trial ends, its final state is stored in
full-size results and its row is dropped from every working array, and
later steps simulate the live trials only.  Raw per-step state is kept
only when `simulate(..., record=True)` asks for it.  The formal snapshot
adapter rebuilds entity groups from that record, so the fast path can be
checked against the reference extractor.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from ..formalism import GroupSpec, TaskStateSnapshot, feature_schema
from ..characterisation import characterisation_schema
from ..simulation import normalize_angle, resolve_collisions_arrays, step_kinematics_arrays

Controller = Callable[..., np.ndarray]

_NO_WALLS = np.empty((0, 4))


@dataclass
class TrialBatch:
    """Outcome of simulating one controller over a batch of trials.

    T is the longest trial's step count; in every (T, B, ...) array a
    trial's rows past its own end repeat its final row.
    """

    steps: np.ndarray      # (B,) elapsed steps per trial
    fitness: np.ndarray    # (B,)
    features: np.ndarray   # (T, B, F) features written each step, carry-forward applied
    ts_chars: np.ndarray   # (B, 4) task-specific characterisation per trial
    record: dict | None = None  # (T, B, ...) per-step state, only with record=True


class Task:
    """Base class; concrete tasks define groups, dynamics and fitness.

    A concrete task provides `params` (with `dt`, `v_max`, `axle` and
    `robot_radius`), names in `movers` the (B, N) state mask of robots
    whose wheels act, and lists in `record_keys` the state fields that
    `record=True` keeps for `snapshot`.
    """

    name: str = ""
    n_inputs: int = 0
    n_outputs: int = 2
    movers: str = ""
    record_keys: tuple[str, ...] = ()

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
        self,
        controller: Controller,
        seeds: Sequence[int],
        record: bool = True,
        networks: np.ndarray | None = None,
    ) -> TrialBatch:
        """Run one trial per seed in lockstep until every trial has ended.

        `controller` maps (R, n_inputs) sensor rows to (R, n_outputs)
        wheel commands.  With `networks`, a (B,) index per trial, it is
        called as `controller(x, index_per_row)` instead, so a stack of
        networks can pick each row's own network after finished trials
        have left the batch.
        """
        p = self.params
        b, tau = len(seeds), self.max_steps
        names = self.feature_names()
        s = self._reset(seeds)
        n = s.pos.shape[1]
        if networks is not None:
            s.network = np.repeat(np.asarray(networks), n).reshape(b, n)
        live = np.arange(b)
        rows = live[:, None]
        steps = np.full(b, tau)
        row = np.zeros((b, len(names)))  # the last feature row of each live trial
        features = np.empty((tau, b, len(names)))
        final: dict[str, np.ndarray] = {}
        frames: list[tuple[np.ndarray, dict]] = []

        def store(trials: np.ndarray, local) -> None:
            for key, value in vars(s).items():
                if key not in final:
                    final[key] = np.empty((b,) + value.shape[1:], value.dtype)
                final[key][trials] = value[local]

        for t in range(tau):
            x = self._sensors(s, rows).reshape(-1, self.n_inputs)
            wheels = controller(x) if networks is None else controller(x, s.network.ravel())
            move = getattr(s, self.movers)
            s.wheels = wheels.reshape(len(live), n, self.n_outputs) * move[..., None]
            left, right = s.wheels[..., 0], s.wheels[..., 1]
            nx, ny, s.heading = step_kinematics_arrays(
                s.pos[..., 0], s.pos[..., 1], s.heading, left, right, p.dt, p.v_max, p.axle,
            )
            s.pos = resolve_collisions_arrays(
                np.stack([nx, ny], axis=-1), p.robot_radius, move, _NO_WALLS, max_passes=4
            )
            s.turn = p.v_max * (right - left) / p.axle
            s.lin = p.v_max * (left + right) / 2.0
            ending = self._step(s, t, move)
            self._features(row, names, s)
            features[t, live] = row
            if record:
                frames.append((live, {key: getattr(s, key) for key in self.record_keys}))
            if ending.any():
                steps[live[ending]] = t + 1
                store(live[ending], ending)
                keep = ~ending
                live, row, rows = live[keep], row[keep], rows[: keep.sum()]
                s = SimpleNamespace(**{k: v[keep] for k, v in vars(s).items()})
                if not live.size:
                    break
        store(live, slice(None))

        features = features[: steps.max(initial=0)]
        hold_final_rows(features, steps)
        fitness, ts = self._finish(SimpleNamespace(**final), steps)
        return TrialBatch(
            steps=steps,
            fitness=fitness,
            features=features,
            ts_chars=np.clip(ts, 0.0, 1.0),
            record=assemble_record(frames, steps, len(features)) if record else None,
        )

    def _reset(self, seeds: Sequence[int]) -> SimpleNamespace:
        """Initial (B, ...) working state; must hold `pos` and `heading`."""
        raise NotImplementedError

    def _sensors(self, s: SimpleNamespace, rows: np.ndarray) -> np.ndarray:
        """(B, N, n_inputs) sensor readings; `rows` is arange(B)[:, None]."""
        raise NotImplementedError

    def _step(self, s: SimpleNamespace, t: int, move: np.ndarray) -> np.ndarray:
        """Apply the task's rules after the move of step `t`, updating `s`;
        `move` is the mask of robots that moved.  Returns the (B,) mask of
        trials that end with this step."""
        raise NotImplementedError

    def _features(self, row: np.ndarray, names: tuple[str, ...], s: SimpleNamespace) -> None:
        """Write the step's (B, F) feature row from the state."""
        raise NotImplementedError

    def _finish(
        self, s: SimpleNamespace, steps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fitness and task-specific characterisation from every trial's
        final state."""
        raise NotImplementedError

    def snapshot(self, rec: dict, trial: int, step: int) -> TaskStateSnapshot:
        """Formal task-state view of one recorded trial step."""
        raise NotImplementedError


def write_feature_row(row: np.ndarray, names: Sequence[str], columns: dict) -> None:
    """Overwrite the (B, F) feature `row` in schema order.

    `columns` maps every name in `names` to its (B,) values, or to a
    (values, defined) pair for a feature that the group contents can leave
    undefined.  An undefined entry keeps the value `row` holds from the
    step before (0 before the first step).
    """
    for k, name in enumerate(names):
        column = columns[name]
        if isinstance(column, tuple):
            values, defined = column
            column = np.where(defined, values, row[:, k])
        row[:, k] = column


def hold_final_rows(series: np.ndarray, steps: np.ndarray) -> None:
    """Fill each trial's rows of a (T, B, ...) series past its end with its
    final row, in place."""
    for b in np.nonzero(steps < len(series))[0]:
        series[steps[b]:, b] = series[steps[b] - 1, b]


def assemble_record(
    frames: list[tuple[np.ndarray, dict]], steps: np.ndarray, length: int
) -> dict:
    """Per-step (live trials, state dict) frames to one dict of full-size
    (T, B, ...) arrays, past-end rows held at the final row, plus `steps`."""
    rec = {}
    for key, first in frames[0][1].items():
        series = np.empty((length, len(steps)) + first.shape[1:], first.dtype)
        for t, (live, frame) in enumerate(frames):
            series[t, live] = frame[key]
        hold_final_rows(series, steps)
        rec[key] = series
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
