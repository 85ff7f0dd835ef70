"""Shared machinery for the benchmark tasks: the one lockstep simulation
loop all of them run, and the one behaviour-feature extractor.

`Task.simulate` advances a batch of trials step by step: sense, act
through the controller, mask the wheels of robots that no longer move,
move, resolve collisions, apply the task's position constraint, measure
the robot-robot distances, apply the task's own rules, then add the
previous step's behaviour features to the trial's running total and
write this step's.  The distance matrix `dist` is measured once per step,
after every position change of that step, and once after the reset; the
step's rules and features read it, and so do the next step's sensors,
which see the positions the previous step left.  A task supplies only
its initial state (`_reset`), its position constraint (`_constrain`), its
sensors, its step rules (`_step`), its group view (`_groups`) and its
fitness and task-specific characterisation (`_finish`); every sensor
encodes its range and bearing through `simulation.range_bearing_arrays`.
Per-trial working state lives in one namespace of arrays with the live
trials on the leading axis, so the loop can compact it: when a trial
ends, its final state (feature total and last feature row included) is
stored in full-size results and its row is dropped from every working
array, and later steps simulate the live trials only.  Each trial's raw
characterisation is aggregated from that total and last row as the loop
ends, so no per-step array is needed, and `_finish` reads its feature
means from them too (`Task.feature_mean`).  The per-step features and
raw state are kept only when `simulate(..., record=True)` asks for them.

Trials never interact, so `simulate` runs a large evaluation batch
(without `record`) as one part per usable core, part i holding every
n-th trial from trial i: the calling process runs the first part through
the same loop (`Task._run`), a child of `multiprocessing`'s fork context
each other part, and the parts' results are joined in trial order
(`run_forked`).  The joined batch is bit for bit the whole batch's.

The group view is the task's formal description of one step: for each
declared `GroupSpec`, which slots are members and their attribute
columns, plus the geometry of a static entity.  The vectorised feature
row (`write_features`, inside the step loop) and the formal
`TaskStateSnapshot` read by the reference extractor (`Task.snapshot`, on
a recorded step) are both derived from it, so no task maps feature names
by hand and the fast path can be checked against the reference.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import traceback
from dataclasses import dataclass, fields
from itertools import combinations
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from ..formalism import (
    GEOM_CIRCLE,
    GEOM_POINT,
    GEOM_SEGMENTS,
    EntityGroup,
    EntityState,
    GroupSpec,
    TaskStateSnapshot,
    feature_schema,
    geometry_distance,
)
from ..characterisation import aggregate_batch, characterisation_schema
from ..simulation import (
    any_last_axis,
    count_last_axis,
    range_bearing_arrays,
    resolve_collisions_arrays,
    step_kinematics_arrays,
    sum_last_axis,
)

Controller = Callable[..., np.ndarray]

# One group of a step's group view: (member, attrs, props, dist).  `member`
# is a (B, N) bool mask, or None when every slot is a member.  `attrs`
# holds the group's kappa attribute columns, each (B, N).  `props` is None
# for a body group, whose position is attrs[0], attrs[1] (the formalism's
# GEOM_BODY rule); for a static entity it is its GEOM_POINT, GEOM_SEGMENTS
# or GEOM_CIRCLE props tuple, and the entity is the group's one slot
# (N = 1), always a member (member None).  `dist` is a body group's
# (B, N, N) slot-to-slot distances (the working state's `dist` for the
# robots); it is required where the group has a dispersion (eta_max > 1)
# and None elsewhere.
GroupView = tuple[
    np.ndarray | None, Sequence[np.ndarray], tuple[float, ...] | None, np.ndarray | None
]

_NO_WALLS = np.empty((0, 4))
# Trial-steps (trials x max_steps) per part below which a batch runs whole
# in this process.  Above 37,500, one desk-scale run's generation (50 x 10
# trials x 150 steps: 72,000 to 75,000) runs whole; up to 72,000, a group of
# two such runs splits.  A 2-way split measured faster down to ~18,750 per
# part (250 desk trials).  Forking and joining takes ~4 ms.
MIN_PART_WORK = 50_000
# task parameters that must be > 0, besides every `*_sense` range
_POSITIVE = ("dt", "axle", "v_max", "robot_radius", "arena_size", "zone_radius", "e_max")


@dataclass
class TrialBatch:
    """Outcome of simulating one controller over a batch of trials.

    `raw` is each trial's raw characterisation, aggregated inside the step
    loop.  The per-step series exist only with record=True: T is then the
    longest trial's step count, and in every (T, B, ...) array a trial's
    rows past its own end repeat its final row.
    """

    steps: np.ndarray      # (B,) elapsed steps per trial
    fitness: np.ndarray    # (B,)
    raw: np.ndarray        # (B, 2F+1) [feature means, final features, steps / max_steps]
    ts_chars: np.ndarray   # (B, 4) task-specific characterisation per trial
    features: np.ndarray | None = None  # (T, B, F) per-step features, carry-forward applied
    record: dict | None = None  # (T, B, ...) per-step state


class Task:
    """Base class; concrete tasks define groups, dynamics and fitness.

    A concrete task is built from its `params` (with `dt`, `v_max`, `axle`,
    `robot_radius` and `max_steps`), names in `movers` the (B, N) state
    mask of robots whose wheels act, and lists in `record_keys` the state
    fields that `record=True` keeps.  These include every field `_groups`
    reads, so `snapshot` can rebuild the group view of any recorded step.
    """

    name: str = ""
    n_inputs: int = 0
    n_outputs: int = 2
    movers: str = ""
    record_keys: tuple[str, ...] = ()

    def __init__(self, params) -> None:
        # a zero length, speed, time step, sensor range or tank gives NaN
        # positions or fitness, or fails mid-run
        for f in fields(params):
            value = getattr(params, f.name)
            if (f.name in _POSITIVE or f.name.endswith("_sense")) and not value > 0:
                raise ValueError(f"{f.name} must be > 0, got {value}")
        self.params = params

    @property
    def max_steps(self) -> int:
        return self.params.max_steps

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

        Each step senses, acts, moves, resolves collisions, applies
        `_constrain`, measures the robot-robot distances `s.dist`, applies
        `_step` and writes the features.  The sensors read the distances
        the previous step measured (after the reset, on the first step):
        no position changes between a measurement and the next sensing.

        `controller` maps (R, n_inputs) sensor rows to (R, n_outputs)
        wheel commands.  With `networks`, a (B,) index per trial, it is
        called as `controller(x, index_per_row)` instead, so a stack of
        networks can pick each row's own network after finished trials
        have left the batch.  The index changes only on a step where
        trials leave, so the stack can keep its per-row weights until then.

        Trials never interact, so a batch without `record` is dealt into
        parts, one per usable core and each of at least `MIN_PART_WORK`
        trial-steps (trials x `max_steps`), part i taking every n-th trial
        from trial i so that each holds a share of every genome: this
        process runs the first through `_run`, a forked child each other,
        and the parts are joined in trial order into the whole batch's
        bits.  A smaller batch, a recorded one and one in a daemonic process
        run whole here: `multiprocessing` lets a daemonic process (a pool
        worker, whose siblings fill the cores) start no child.  No child
        outlives the call; a part that fails in a child raises RuntimeError
        here, with the child's traceback.
        """
        parts = 1
        if not record and not mp.current_process().daemon:
            work = len(seeds) * self.max_steps // MIN_PART_WORK
            parts = min(len(os.sched_getaffinity(0)), len(seeds), work)
        if parts < 2:
            return self._run(controller, seeds, record, networks)

        def part(i: int) -> TrialBatch:  # dealt: a share of every genome's trials
            nets = None if networks is None else networks[i::parts]
            return self._run(controller, seeds[i::parts], False, nets)

        batches = run_forked(part, parts)
        joined = {}
        for key in ("steps", "fitness", "raw", "ts_chars"):
            first = getattr(batches[0], key)
            joined[key] = np.empty((len(seeds),) + first.shape[1:], first.dtype)
            for i, batch in enumerate(batches):
                joined[key][i::parts] = getattr(batch, key)
        return TrialBatch(**joined)

    def _run(
        self,
        controller: Controller,
        seeds: Sequence[int],
        record: bool,
        networks: np.ndarray | None,
    ) -> TrialBatch:
        """The lockstep loop of `simulate` over the whole of `seeds`, in
        this process."""
        p = self.params
        b, tau = len(seeds), self.max_steps
        specs, excluded = self.group_specs(), self.excluded_pairs()
        n_features = len(self.feature_names())
        s = self._reset(seeds)
        s.dist = pairwise_distances(s.pos[..., 0], s.pos[..., 1])
        n = s.pos.shape[1]
        if networks is not None:
            s.network = np.repeat(np.asarray(networks), n).reshape(b, n)
        s.feature_row = np.zeros((b, n_features))  # each live trial's last feature row
        s.feature_total = np.zeros((b, n_features))  # and the sum of the rows before it
        live = np.arange(b)
        steps = np.full(b, tau)
        final: dict[str, np.ndarray] = {}  # each trial's state as it ends
        series: dict[str, np.ndarray] = {}  # with record, (max_steps, B, ...) per key

        def put(into: dict, lead: tuple, key: str, at, value: np.ndarray) -> None:
            if key not in into:
                into[key] = np.empty(lead + value.shape[1:], value.dtype)
            into[key][at] = value

        for t in range(tau):
            x = self._sensors(s).reshape(-1, self.n_inputs)
            wheels = controller(x) if networks is None else controller(x, s.network.ravel())
            move = getattr(s, self.movers)
            s.wheels = wheels.reshape(len(live), n, self.n_outputs) * move[..., None]
            nx, ny, s.heading, s.lin, s.turn = step_kinematics_arrays(
                s.pos[..., 0], s.pos[..., 1], s.heading, s.wheels[..., 0], s.wheels[..., 1],
                p.dt, p.v_max, p.axle,
            )
            s.pos = resolve_collisions_arrays(
                np.stack([nx, ny], axis=-1), p.robot_radius, move, _NO_WALLS, max_passes=4
            )
            s.pos = self._constrain(s, t, move)
            s.dist = pairwise_distances(s.pos[..., 0], s.pos[..., 1])
            ending = self._step(s, t, move)
            s.feature_total += s.feature_row  # the row of the step before
            write_features(s.feature_row, self._groups(s), specs, excluded)
            if record:
                for key in self.record_keys:
                    put(series, (tau, b), key, (t, live), getattr(s, key))
                put(series, (tau, b), "features", (t, live), s.feature_row)
            if ending.any():
                steps[live[ending]] = t + 1
                for key, value in vars(s).items():
                    put(final, (b,), key, live[ending], value[ending])
                keep = ~ending
                live = live[keep]
                s = SimpleNamespace(**{k: v[keep] for k, v in vars(s).items()})
                if not live.size:
                    break
        for key, value in vars(s).items():
            put(final, (b,), key, live, value)

        fitness, ts = self._finish(SimpleNamespace(**final), steps)
        batch = TrialBatch(
            steps=steps,
            fitness=fitness,
            raw=aggregate_batch(
                final["feature_total"] + final["feature_row"], final["feature_row"], steps, tau
            ),
            ts_chars=np.clip(ts, 0.0, 1.0),
        )
        if record:
            length = steps.max(initial=0)
            batch.record = {key: value[:length] for key, value in series.items()}
            for value in batch.record.values():
                hold_final_rows(value, steps)
            batch.features = batch.record.pop("features")
            batch.record["steps"] = steps
        return batch

    def _reset(self, seeds: Sequence[int]) -> SimpleNamespace:
        """Initial (B, ...) working state; must hold `pos` and `heading`."""
        raise NotImplementedError

    def _constrain(self, s: SimpleNamespace, t: int, move: np.ndarray) -> np.ndarray:
        """(B, N, 2) positions after the task's position constraint (e.g.
        its walls) at step `t`, applied after collisions; `move` is the mask
        of robots that moved.  The default leaves `s.pos` as it is."""
        return s.pos

    def _sensors(self, s: SimpleNamespace) -> np.ndarray:
        """(B, N, n_inputs) sensor readings; `s.dist` holds the distances
        between the current positions."""
        raise NotImplementedError

    def _step(self, s: SimpleNamespace, t: int, move: np.ndarray) -> np.ndarray:
        """Apply the task's rules after the move of step `t`, updating `s`;
        `move` is the mask of robots that moved, and `s.pos` and `s.dist`
        are final for this step.  Returns the (B,) mask of trials that end
        with this step."""
        raise NotImplementedError

    def _groups(self, s: SimpleNamespace) -> tuple[GroupView, ...]:
        """The step's group view: one `(member, attrs, props, dist)` entry per
        `group_specs()` entry, in order (see `GroupView`)."""
        raise NotImplementedError

    def _finish(
        self, s: SimpleNamespace, steps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fitness and task-specific characterisation from every trial's
        final state and its (B,) step counts.  `s.feature_total` holds the
        sum of each trial's feature rows but the last, and `s.feature_row`
        the last; `feature_mean` averages a column of them."""
        raise NotImplementedError

    def feature_mean(
        self, s: SimpleNamespace, steps: np.ndarray, name: str, mask: np.ndarray
    ) -> np.ndarray:
        """(B,) mean of the feature column `name` over each trial's steps,
        leaving out a final step on which the (B, N) group `mask` is empty
        (the column then only carries the step before forward).  A trial
        ends on the step its mask empties, so no earlier step is left out."""
        c = self.feature_names().index(name)
        last = any_last_axis(mask)
        total = s.feature_total[:, c] + s.feature_row[:, c] * last
        return total / np.maximum(steps - 1 + last, 1)

    def snapshot(self, rec: dict, trial: int, step: int) -> TaskStateSnapshot:
        """Formal task-state view of one recorded trial step: the group
        view of that step, one entity per member slot."""
        s = SimpleNamespace(**{key: rec[key][step, trial][None] for key in self.record_keys})
        s.dist = None  # `_groups` only passes it through; entities need no distances
        groups = []
        for spec, (member, attrs, props, _) in zip(
            self.group_specs(), self._groups(s), strict=True
        ):
            slots = range(1 if props is not None else attrs[0].shape[-1])
            entities = tuple(
                EntityState(tuple(float(a[0, i]) for a in attrs), props or ())
                for i in slots
                if member is None or member[0, i]
            )
            groups.append(EntityGroup(spec, entities))
        return TaskStateSnapshot(tuple(groups), geometry_distance, self.excluded_pairs())


def run_forked(part: Callable[[int], object], n: int) -> list:
    """[part(0), ..., part(n - 1)], run at the same time: part 0 in this
    process and each other part in a child of `multiprocessing`'s fork
    context, which sends (True, its result) or (False, its traceback)
    through a one-way pipe.  The context is named: `part` is a closure,
    which spawn and forkserver (the Linux default from Python 3.14) would
    have to pickle.

    Every child is joined before this returns or raises; if part 0 or a
    read fails, the children are killed first.  A part that raises in its
    child raises RuntimeError here, with the child's traceback.  Forking a
    process that has threads is unsafe (Python 3.12 and later warn about
    it); sdbc starts none.
    """
    fork = mp.get_context("fork")

    def send(i: int, pipe) -> None:
        try:
            message = (True, part(i))
        except Exception:  # the caller raises it; the child only exits
            message = (False, traceback.format_exc())
        pipe.send(message)

    children = []  # (process, receiving end of its pipe)
    joined = False
    try:
        for i in range(1, n):
            receiver, sender = fork.Pipe(duplex=False)
            with sender:  # closed here once forked, so the pipe ends when the child does
                child = fork.Process(target=send, args=(i, sender))
                child.start()
            children.append((child, receiver))
        results = [part(0)]
        messages = []
        for _, receiver in children:
            try:
                messages.append(receiver.recv())
            except EOFError:  # the child left without a result
                messages.append(None)
        joined = True
    finally:
        for child, receiver in children:
            if not joined:
                child.kill()
            receiver.close()
            child.join()
    for i, ((child, _), message) in enumerate(zip(children, messages), 1):
        if child.exitcode != 0 or message is None:
            raise RuntimeError(f"batch part {i} sent no result (exit code {child.exitcode})")
        ok, value = message
        if not ok:
            raise RuntimeError(f"batch part {i} failed in its child process:\n{value}")
        results.append(value)
    return results


def write_features(
    row: np.ndarray,
    view: Sequence[GroupView],
    specs: Sequence[GroupSpec],
    excluded: frozenset[frozenset[str]],
) -> None:
    """Overwrite the (B, F) feature `row` from one step's group view.

    Columns follow `feature_schema(specs, excluded)`: group sizes, mean
    attributes, dispersions, then pair distances.  An undefined value (an
    empty group, or a dispersion of fewer than two members) keeps the value
    `row` holds from the step before (0 before the first step), as in
    `formalism.extract_features`.
    """
    if len(view) != len(specs):
        raise ValueError(f"group view has {len(view)} groups, the task declares {len(specs)}")
    columns = []  # (values, defined), where defined None means everywhere
    counts = []  # per group: (B,) member count, or its slot count when every slot is a member
    for spec, (member, attrs, props, _) in zip(specs, view):
        if len(attrs) != spec.kappa:
            raise ValueError(
                f"group {spec.name!r}: view has {len(attrs)} attribute columns, "
                f"kappa is {spec.kappa}"
            )
        if props is not None and member is not None:
            raise ValueError(f"group {spec.name!r}: a static entity is always a member")
        slots = 1 if props is not None else attrs[0].shape[-1]
        counts.append(slots if member is None else count_last_axis(member))
        if spec.eta_max > spec.eta_min:
            columns.append(((counts[-1] - spec.eta_min) / (spec.eta_max - spec.eta_min), None))
    for (member, attrs, _, _), n in zip(view, counts):
        if member is None:
            columns += [(sum_last_axis(values) / n, None) for values in attrs]
        else:
            denom, defined = np.maximum(n, 1), n > 0
            columns += [(sum_last_axis(values * member) / denom, defined) for values in attrs]
    for spec, (member, _, _, dist), n in zip(specs, view, counts):
        if spec.eta_max > 1:
            if dist is None:
                raise ValueError(f"group {spec.name!r}: view has no distances for its dispersion")
            if member is not None:
                dist = dist * (member[..., :, None] & member[..., None, :])
            # the zero diagonal adds nothing: this is the ordered-pair sum
            columns.append((dist.sum(axis=(-2, -1)) / np.maximum(n - 1, 1) ** 2, n >= 2))
    for i, j in combinations(range(len(specs)), 2):
        if frozenset((specs[i].name, specs[j].name)) not in excluded:
            columns.append(_pair_distance(view[i], view[j], counts[i] * counts[j]))
    if len(columns) != row.shape[1]:
        raise ValueError(f"group view yields {len(columns)} features, schema has {row.shape[1]}")
    for k, (values, defined) in enumerate(columns):
        row[:, k] = values if defined is None else np.where(defined, values, row[:, k])


def _pair_distance(
    a: GroupView, b: GroupView, pairs: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Mean distance over the member pairs of two groups, and where it is
    defined; `pairs` is the product of their member counts."""
    if a[2] is not None and b[2] is None:  # a body group goes first
        a, b = b, a
    (ma, attrs_a, pa, _), (mb, attrs_b, pb, _) = a, b
    if pa is not None:  # two static entities
        return geometry_distance(EntityState((), pa), EntityState((), pb)), None
    if pb is not None:  # the static entity is b's one slot
        d = static_distance(attrs_a[0], attrs_a[1], pb)[..., None]
    else:
        d = np.hypot(
            attrs_a[0][..., :, None] - attrs_b[0][..., None, :],
            attrs_a[1][..., :, None] - attrs_b[1][..., None, :],
        )
    if ma is not None:
        d = d * ma[..., :, None]
    if mb is not None:
        d = d * mb[..., None, :]
    total = sum_last_axis(d.reshape(d.shape[:-2] + (-1,)))
    if ma is None and mb is None:
        return total / pairs, None
    return total / np.maximum(pairs, 1), pairs > 0


def static_distance(x: np.ndarray, y: np.ndarray, props: tuple[float, ...]) -> np.ndarray:
    """Distance from each point (x, y) to a static entity: the vectorised
    form of `formalism.geometry_distance`."""
    tag = props[0]
    if tag == GEOM_POINT:
        return np.hypot(x - props[1], y - props[2])
    if tag == GEOM_CIRCLE:
        return np.abs(np.hypot(x - props[1], y - props[2]) - props[3])
    if tag == GEOM_SEGMENTS:
        return segment_distance(x, y, np.reshape(props[1:], (-1, 4)))
    raise ValueError(f"unsupported geometry tag {tag!r}")


def segment_distance(x: np.ndarray, y: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Distance from each point (x, y) to the nearest of the (S, 4)
    segments (x1, y1, x2, y2), written out per component, one segment at
    a time."""
    nearest = np.inf
    for ax, ay, bx, by in segments:
        ex, ey = bx - ax, by - ay
        seg_sq = np.maximum(ex * ex + ey * ey, 1e-30)
        rx, ry = x - ax, y - ay
        t = np.clip((rx * ex + ry * ey) / seg_sq, 0.0, 1.0)
        dx, dy = rx - t * ex, ry - t * ey
        nearest = np.minimum(nearest, np.sqrt(dx * dx + dy * dy))
    return nearest


def hold_final_rows(series: np.ndarray, steps: np.ndarray) -> None:
    """Fill each trial's rows of a (T, B, ...) series past its end with its
    final row, in place."""
    for b in np.nonzero(steps < len(series))[0]:
        series[steps[b]:, b] = series[steps[b] - 1, b]


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All robot-robot distances: inputs (..., N) -> output (..., N, N)."""
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    return np.sqrt(dx * dx + dy * dy)


def nearest_neighbor_sensor(
    pos: np.ndarray,
    heading: np.ndarray,
    dist: np.ndarray,
    mask: np.ndarray,
    sense_range: float,
    slots: int,
) -> np.ndarray:
    """Range/bearing to each robot's `slots` nearest masked peers, nearest
    first: a (B, N, 2 * slots) array of (range, bearing) column pairs.

    `dist` is the (B, N, N) `pairwise_distances` of `pos`; it is not
    modified.  Out-of-range or absent peers read as range 1, bearing 0.
    Equal distances go to the lower peer index.
    """
    b, n = pos.shape[:2]
    dist = np.where(mask[:, None, :] & mask[:, :, None], dist, np.inf)
    np.einsum("bii->bi", dist)[:] = np.inf
    # flat indices: one-axis gathers cost a fraction of (B, N) fancy indexing
    flat = dist.reshape(-1)
    own = np.arange(b * n)
    first = own - own % n  # robot 0 of each robot's trial
    x, y, h = pos[..., 0].ravel(), pos[..., 1].ravel(), heading.ravel()
    out = np.empty((b * n, 2 * slots))
    for k in range(slots):
        nearest = dist.argmin(axis=2).ravel()
        at = own * n + nearest
        nd = flat[at]
        flat[at] = np.inf  # the chosen peer leaves the next slot's candidates
        peer = first + nearest
        range_bearing_arrays(
            x[peer] - x, y[peer] - y, h, sense_range, nd, out=out[:, 2 * k : 2 * k + 2]
        )
    return out.reshape(b, n, 2 * slots)


class TrialDraws:
    """Each trial's stream of `default_rng(seed).random()` draws, read in
    order through a per-trial cursor.

    Every stream is drawn ahead as one block.  A trial that reads past its
    block re-seeds and draws a block twice as long, whose first part
    repeats what it has already read, so no generator outlives a call.
    """

    def __init__(self, seeds: Sequence[int], block: int) -> None:
        self.seeds = seeds
        self.block = np.empty((len(seeds), block))
        for b, seed in enumerate(seeds):
            self.block[b] = np.random.default_rng(seed).random(block)
        self.filled = np.full(len(seeds), block)
        self.cursor = np.zeros(len(seeds), dtype=np.int64)

    def take(self, trials: np.ndarray, count: int) -> np.ndarray:
        """The next `count` draws of each of `trials`: (len(trials), count)."""
        end = self.cursor[trials] + count
        for b in trials[end > self.filled[trials]]:
            length = max(2 * self.filled[b], self.cursor[b] + count)
            if length > self.block.shape[1]:
                wider = np.empty((len(self.seeds), length))
                wider[:, : self.block.shape[1]] = self.block
                self.block = wider
            self.block[b, :length] = np.random.default_rng(self.seeds[b]).random(length)
            self.filled[b] = length
        drawn = self.block[trials[:, None], self.cursor[trials][:, None] + np.arange(count)]
        self.cursor[trials] = end
        return drawn


def spawn_in_box(
    seeds: Sequence[int],
    n: int,
    size: float,
    radius: float,
    keep_out: tuple[float, float],
    clearance: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(B, n, 2) start positions and (B, n) headings, one trial per seed.

    Each trial draws from its own `default_rng(seed)`, in this order.  Its
    robots are placed one at a time, uniformly inside the (size x size)
    box a margin off its walls: a point closer than 2.2 radii to a robot
    already placed is redrawn, up to 200 tries, after which one more draw
    is accepted as it is (a crowded box).  A robot closer than `clearance`
    to the point `keep_out` is then redrawn until it is not, robot by
    robot.  The headings are drawn last.  The batch is placed robot k of
    every trial at a time, each trial reading its own stream, so a trial's
    start does not depend on the other seeds of its batch.
    """
    margin = radius + 0.01
    low = np.array((margin, margin))
    span = np.array((size - margin, size - margin)) - low  # uniform(low, high) is low + span*u
    everyone = np.arange(len(seeds))
    # two draws per point and one per heading, plus room for a few redraws
    draws = TrialDraws(seeds, 4 * n)
    pos = np.empty((len(seeds), n, 2))
    for k in range(n):
        pending = everyone
        for _ in range(200):
            p = low + span * draws.take(pending, 2)
            gap = np.hypot(p[:, None, 0] - pos[pending, :k, 0], p[:, None, 1] - pos[pending, :k, 1])
            apart = (gap >= 2.2 * radius).all(axis=1)
            pos[pending[apart], k] = p[apart]
            pending = pending[~apart]
            if not pending.size:
                break
        else:
            pos[pending, k] = low + span * draws.take(pending, 2)  # crowded box: accept overlap
    if clearance > 0.0:  # skips the per-robot distance checks when nothing is kept out
        for k in range(n):
            pending = everyone
            while True:
                x, y = pos[pending, k, 0] - keep_out[0], pos[pending, k, 1] - keep_out[1]
                pending = pending[np.hypot(x, y) < clearance]
                if not pending.size:
                    break
                pos[pending, k] = low + span * draws.take(pending, 2)
    heading = -math.pi + 2.0 * math.pi * draws.take(everyone, n)
    return pos, heading
