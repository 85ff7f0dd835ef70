"""Task fitness goldens, schema counts, characterisation ranges, and the
equivalence of the vectorised feature path with the formal extractor."""

import hashlib
import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from sdbc.evolution import ControllerSpec, StackedControllers, build_controller, evaluate
from sdbc.formalism import (
    GEOM_CIRCLE,
    GEOM_POINT,
    GEOM_SEGMENTS,
    EntityState,
    extract_feature_series,
)
from sdbc.tasks import base, make_task
from sdbc.simulation import normalize_angle
from sdbc.tasks.base import (
    MIN_PART_WORK,
    nearest_neighbor_sensor,
    pairwise_distances,
    segment_distance,
    spawn_in_box,
)
from sdbc.tasks.gate_escape import gate_fitness
from sdbc.tasks.predator_prey import pursuit_fitness
from sdbc.tasks.resource_sharing import (
    ResourceSharingParams,
    ResourceSharingTask,
    sharing_fitness,
)


def null_controller(x):
    return np.zeros((x.shape[0], 2))


def full_speed_controller(x):
    return np.ones((x.shape[0], 2))


def random_controller(task, seed):
    spec = ControllerSpec(task.n_inputs, 6, task.n_outputs)
    rng = np.random.default_rng(seed)
    return build_controller(rng.uniform(-2, 2, spec.genome_length), spec)


class TestGateFitness:
    def test_worst_case(self):
        assert gate_fitness(0, 0, 500, 4) == 0.0

    def test_best_case(self):
        assert gate_fitness(4, 500, 500, 4) == pytest.approx(1.0, abs=1e-12)

    def test_direct_evaluation(self):
        assert gate_fitness(2, 250, 500, 4) == pytest.approx(0.5, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            gate_fitness(5, 0, 500, 4)


class TestSharingFitness:
    def test_worst_case(self):
        assert sharing_fitness(0, 0.0, 100.0, 4) == 0.0

    def test_best_case(self):
        assert sharing_fitness(4, 100.0, 100.0, 4) == pytest.approx(1.0, abs=1e-12)

    def test_direct_evaluation(self):
        assert sharing_fitness(3, 50.0, 100.0, 4) == pytest.approx(0.7, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sharing_fitness(2, 150.0, 100.0, 4)


class TestPursuitFitness:
    def test_capture_at_half_time(self):
        assert pursuit_fitness(True, 300, 600, 1.0, 1.0, 8.0) == pytest.approx(1.5)

    def test_no_progress_clamps_to_zero(self):
        assert pursuit_fitness(False, 600, 600, 1.0, 2.0, 8.0) == 0.0

    def test_quarter_progress(self):
        assert pursuit_fitness(False, 600, 600, 3.0, 1.0, 8.0) == pytest.approx(0.25)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            pursuit_fitness(False, 1, 10, -1.0, 0.0, 8.0)


def prey_policy(prey_pos, predator_pos, sense_range):
    """One-trial flee rule, the oracle for recorded prey moves: the unit
    direction away from the mean sensed predator position, or the zero
    vector when no predator is in range."""
    deltas = predator_pos - prey_pos
    dist = np.sqrt((deltas * deltas).sum(axis=-1))
    sensed = dist <= sense_range
    if not sensed.any():
        return np.zeros(2)
    away = prey_pos - predator_pos[sensed].mean(axis=0)
    norm = math.hypot(away[0], away[1])
    if norm < 1e-12:
        return np.zeros(2)
    return away / norm


class TestPreyPolicy:
    def test_no_predator_in_range_stops(self):
        out = prey_policy(np.zeros(2), np.array([[5.0, 0.0]]), 1.0)
        assert out == pytest.approx(np.zeros(2))

    def test_single_repulsor_flees_opposite(self):
        out = prey_policy(np.zeros(2), np.array([[0.5, 0.0]]), 1.0)
        assert out == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_symmetric_predators_flee_along_axis(self):
        preds = np.array([[0.5, 0.4], [0.5, -0.4]])
        out = prey_policy(np.zeros(2), preds, 1.0)
        assert out == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_coincident_mean_gives_zero(self):
        preds = np.array([[0.0, 0.0]])
        assert prey_policy(np.zeros(2), preds, 1.0) == pytest.approx(np.zeros(2))


def spawn_in_box_reference(seeds, n, size, radius, keep_out, clearance):
    """Frozen per-trial placement loop: one generator per trial, one
    pair of draws per candidate point, one pair distance at a time."""
    margin = radius + 0.01
    low, high = (margin, margin), (size - margin, size - margin)
    pos, heading = np.empty((len(seeds), n, 2)), np.empty((len(seeds), n))
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        placed = []
        for _ in range(n):
            for _ in range(200):
                p = rng.uniform(low, high)
                if all(np.hypot(*(p - q)) >= 2.2 * radius for q in placed):
                    placed.append(p)
                    break
            else:
                placed.append(rng.uniform(low, high))
        pos[b] = placed
        for i in range(n):
            while clearance > 0.0 and np.hypot(*(pos[b, i] - keep_out)) < clearance:
                pos[b, i] = rng.uniform(low, high)
        heading[b] = rng.uniform(-math.pi, math.pi, n)
    return pos, heading


@pytest.mark.parametrize(
    "n, size, clearance, seeds",
    [(4, 2.0, 0.0, 300), (8, 0.6, 0.0, 300), (5, 0.35, 0.0, 40), (1, 1.0, 0.0, 300),
     (4, 2.0, 0.9, 300)],
    ids=["paper", "tight", "crowded", "single", "clearance"],
)
def test_random_positions_match_the_pairwise_loop(n, size, clearance, seeds):
    # equal headings, drawn last, show that each trial's stream was read
    # to the same point, including where the 200 tries run out (crowded)
    # and where robots are redrawn away from the kept-out point
    radius, keep_out = 0.05, (0.5 * size, 0.5 * size)
    trials = list(range(seeds))
    pos, heading = spawn_in_box(trials, n, size, radius, keep_out, clearance)
    ref_pos, ref_heading = spawn_in_box_reference(trials, n, size, radius, keep_out, clearance)
    assert np.array_equal(pos, ref_pos)
    assert np.array_equal(heading, ref_heading)
    if not clearance:  # a clearance redraw does not look at the other robots
        i, j = np.triu_indices(n, 1)
        gaps = pairwise_distances(pos[..., 0], pos[..., 1])[:, i, j]
        assert (gaps < 2.2 * radius).any() == (size == 0.35)
    near = np.hypot(pos[..., 0] - keep_out[0], pos[..., 1] - keep_out[1])
    assert (near >= clearance).all()
    # a trial's start does not depend on the other seeds of its batch
    alone = spawn_in_box(trials[-1:], n, size, radius, keep_out, clearance)
    assert np.array_equal(alone[0][0], pos[-1]) and np.array_equal(alone[1][0], heading[-1])


def initial_prey_reference(params, seeds):
    """Frozen per-trial prey start: one generator per trial, a radius and
    then an angle drawn by `uniform`."""
    prey = np.empty((len(seeds), 2))
    for b, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        r = rng.uniform(params.prey_spawn_min, params.prey_spawn_max)
        a = rng.uniform(-math.pi, math.pi)
        prey[b] = (r * math.cos(a), r * math.sin(a))
    return prey


@pytest.mark.parametrize("overrides", [{}, {"prey_spawn_min": 0.2, "prey_spawn_max": 2.9}])
def test_initial_prey_matches_the_per_trial_draws(overrides):
    task = make_task("predator_prey", overrides)
    seeds = list(range(500)) + np.random.default_rng(3).integers(0, 2**62, 500).tolist()
    prey = task._initial_prey(seeds)
    reference = initial_prey_reference(task.params, seeds)
    assert np.array_equal(prey.view(np.int64), reference.view(np.int64))


class TestSchemas:
    def test_feature_counts_published_layouts(self):
        assert len(make_task("gate_escape").feature_names()) == 10
        assert len(make_task("resource_sharing").feature_names()) == 10
        assert len(make_task("predator_prey").feature_names()) == 13

    def test_feature_counts_naive_layouts(self):
        gate = make_task("gate_escape", {"published_layout": False})
        pursuit = make_task("predator_prey", {"published_layout": False})
        assert len(gate.feature_names()) == 11
        assert len(pursuit.feature_names()) == 12

    def test_characterisation_lengths(self):
        assert len(make_task("gate_escape").char_schema()) == 21
        assert len(make_task("resource_sharing").char_schema()) == 21
        assert len(make_task("predator_prey").char_schema()) == 27

    def test_named_features_present(self):
        gate = make_task("gate_escape").char_schema()
        assert "gate is closing (F)" in gate
        assert "agents group size (F)" in gate
        assert "simulation length" in gate
        sharing = make_task("resource_sharing").char_schema()
        assert "agents energy level (M)" in sharing
        assert "agents group size (F)" in sharing
        pursuit = make_task("predator_prey").char_schema()
        assert "predators-prey distance (F)" in pursuit
        assert "prey-bounds distance (F)" in pursuit
        assert "predators dispersion (F)" in pursuit


def assert_matches_formal_extractor(task, batch):
    schema = task.feature_names()
    assert batch.features.shape[2] == len(schema)
    for b in range(len(batch.steps)):
        steps = int(batch.steps[b])
        snaps = [task.snapshot(batch.record, b, t) for t in range(steps)]
        series = extract_feature_series(snaps)
        assert series[0].schema == schema
        for t in range(steps):
            got = batch.features[t, b]
            expected = np.array(series[t].values)
            assert got == pytest.approx(expected, abs=1e-12), (
                f"{task.name}: trial {b} step {t} diverges"
            )


@pytest.mark.parametrize(
    "name,overrides",
    [
        ("gate_escape", {"max_steps": 80}),
        ("resource_sharing", {"max_steps": 80, "start_energy": 12.0}),
        ("predator_prey", {"max_steps": 80, "prey_spawn_max": 1.2}),
        ("gate_escape", {"max_steps": 60, "published_layout": False}),
        ("predator_prey", {"max_steps": 60, "published_layout": False}),
    ],
)
def test_vectorised_features_match_formal_extractor(name, overrides):
    # fixed controller seeds, so every run checks the same controllers
    task = make_task(name, overrides)
    for seed in (7, 31):
        batch = task.simulate(random_controller(task, seed), [11, 12, 13])
        assert_matches_formal_extractor(task, batch)


@pytest.mark.parametrize(
    "name,overrides",
    [
        ("resource_sharing", {"max_steps": 80, "n_robots": 1, "start_energy": 12.0}),
        ("gate_escape", {"max_steps": 80, "n_robots": 1}),
        ("predator_prey", {"max_steps": 80, "n_predators": 1, "prey_spawn_max": 1.2}),
    ],
)
def test_single_robot_groups_follow_the_schema(name, overrides):
    # a group of at most one robot has no dispersion feature
    task = make_task(name, overrides)
    batch = task.simulate(random_controller(task, seed=5), [11, 12, 13])
    assert not any(f.endswith("dispersion") for f in task.feature_names())
    assert_matches_formal_extractor(task, batch)
    spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
    genome = np.random.default_rng(5).uniform(-1, 1, spec.genome_length)
    result = evaluate(genome, task, spec, [1, 2])
    assert result.raw.shape == (len(task.char_schema()),)


class DroppedColumn(ResourceSharingTask):
    """Its view of the agents group lacks the last attribute column."""

    def _groups(self, s):
        (member, attrs, props, dist), station = super()._groups(s)
        return (member, attrs[:-1], props, dist), station


class DroppedGroup(ResourceSharingTask):
    """Its view lacks the station group."""

    def _groups(self, s):
        return super()._groups(s)[:1]


class MaskedStation(ResourceSharingTask):
    """Its view gives the static station a member mask."""

    def _groups(self, s):
        agents, (_, attrs, props, dist) = super()._groups(s)
        return agents, (s.occupied[:, None] > 0, attrs, props, dist)


class MissingDistances(ResourceSharingTask):
    """Its view of the agents group has no distance slot."""

    def _groups(self, s):
        (member, attrs, props, _), station = super()._groups(s)
        return (member, attrs, props, None), station


class DroppedName(ResourceSharingTask):
    """Its schema lacks the last feature name."""

    def feature_names(self):
        return super().feature_names()[:-1]


@pytest.mark.parametrize(
    "cls,message",
    [
        (DroppedColumn, "attribute columns"),
        (DroppedGroup, "groups"),
        (MaskedStation, "always a member"),
        (MissingDistances, "no distances"),
        (DroppedName, "features"),
    ],
)
def test_group_view_that_breaks_the_schema_is_rejected(cls, message):
    task = cls(ResourceSharingParams(max_steps=5))
    with pytest.raises(ValueError, match=message):
        task.simulate(null_controller, [1])


def one_step_record(**fields):
    """A hand-built record of one trial and one step: every field becomes a
    (T=1, B=1, ...) array."""
    return {key: np.asarray(value)[None, None] for key, value in fields.items()}


def entity_thetas(group):
    return [e.theta for e in group.entities]


def test_dead_sharing_robot_leaves_the_agents_group():
    task = make_task("resource_sharing", {"n_robots": 3})
    rec = one_step_record(
        pos=[[0.5, 0.5], [1.0, 1.0], [1.5, 0.25]],
        turn=[0.1, 0.2, 0.3],
        lin=[0.01, 0.02, 0.03],
        energy=[10.0, 0.0, 20.0],
        charging=[0.0, 0.0, 1.0],
        alive=[True, False, True],
        occupied=1.0,
        heading=[0.0, 0.0, 0.0],
        wheels=[[0.0, 0.0]] * 3,
    )
    agents, station = task.snapshot(rec, 0, 0).groups
    assert entity_thetas(agents) == [
        (0.5, 0.5, 0.1, 0.01, 10.0, 0.0),
        (1.5, 0.25, 0.3, 0.03, 20.0, 1.0),
    ]
    assert station.entities == (EntityState((1.0,), (GEOM_POINT, 1.0, 1.0)),)


def test_escaped_gate_robot_leaves_the_agents_group():
    task = make_task("gate_escape", {"n_robots": 2})
    rec = one_step_record(
        pos=[[1.0, 2.2], [0.5, 0.75]],
        turn=[0.1, 0.2],
        lin=[0.01, 0.02],
        passing=[0.0, 0.0],
        active=[False, True],
        closing=1.0,
        heading=[0.0, 0.0],
        wheels=[[0.0, 0.0]] * 2,
    )
    agents, gate, walls = task.snapshot(rec, 0, 0).groups
    assert entity_thetas(agents) == [(0.5, 0.75, 0.2, 0.02, 0.0)]
    assert gate.entities == (EntityState((1.0,), (GEOM_POINT, 1.0, 2.0)),)
    (outline,) = walls.entities
    assert outline.theta == () and outline.props[0] == GEOM_SEGMENTS
    assert len(outline.props) == 1 + 4 * 5


@pytest.mark.parametrize("published,prey_members", [(True, 0), (False, 1)])
def test_captured_prey_leaves_its_group_only_under_the_published_layout(
    published, prey_members
):
    task = make_task("predator_prey", {"published_layout": published})
    rec = one_step_record(
        pos=[[0.0, 0.5], [0.2, 0.5], [0.4, 0.5]],
        turn=[0.1, 0.2, 0.3],
        lin=[0.01, 0.02, 0.03],
        prey=[0.2, 0.55],
        prey_turn=0.5,
        prey_lin=0.12,
        present=False,
        heading=[0.0, 0.0, 0.0],
        wheels=[[0.0, 0.0]] * 3,
    )
    predators, prey, bounds = task.snapshot(rec, 0, 0).groups
    assert len(predators) == 3
    assert entity_thetas(prey) == [(0.2, 0.55, 0.5, 0.12)] * prey_members
    assert bounds.entities == (EntityState((), (GEOM_CIRCLE, 0.0, 0.0, 3.0)),)


def chase_prey(x):
    """Steer toward the sensed prey; inputs 0 and 1 are its range and bearing."""
    bearing = x[:, 1]
    return np.clip(np.stack([1.0 - 3.0 * bearing, 1.0 + 3.0 * bearing], axis=-1), -1.0, 1.0)


FAST_GATE = {"max_steps": 150, "v_max": 0.4, "gate_width": 0.6, "gate_close_delay": 5,
             "grace_steps": 5}
SLOW_PREY = {"max_steps": 150, "prey_speed_factor": 0.3}

# sha256 of (steps, fitness, ts_chars, features) of one small run per task
# and layout, in which trials end at different steps (deaths, escapes,
# captures).  Acceptance criterion 8 guards bit-identity of desk-scale
# resource sharing alone; these guard the other tasks and layouts.  A change
# that moves trajectories updates them and says why.  The pins are
# bit-level, so another NumPy build or CPU may move them.
TRAJECTORY_PINS = [
    ("resource_sharing", {"max_steps": 150, "start_energy": 12.0}, 1,
     "7c94bcd12d4b16a428fbc102c0d18eff1ff00a55d8717924d8ab05b55bd561b6"),
    ("gate_escape", FAST_GATE, 0,
     "7c95f63e543fb51a5d023b669b52e415006e3b871b1f0003d4b59dc2db6fb2d3"),
    ("gate_escape", {**FAST_GATE, "published_layout": False}, 0,
     "47ea2b388e1a62a922a6417fbd39004ecb4ac9c0f6229c217d84acabd857ca8c"),
    ("predator_prey", SLOW_PREY, None,
     "765f1c35773f3bd7c0848b4584c61d81970676d701aa89f74c4f3f69d434924b"),
    ("predator_prey", {**SLOW_PREY, "published_layout": False}, None,
     "e55f22c4e8b5050aae9ffe708ba2f11d157ffe2007e39ef32d7363458d2267b1"),
]
# More pins, at 8 or more robots: NumPy sums a last axis of that length
# pairwise, and the step loop's column sums must follow it there too.
PAIRWISE_PINS = [
    ("gate_escape", {**FAST_GATE, "n_robots": 10}, 0,
     "481be8401e64fc184093534a7cb5b913a898723779d64664510f0b4f92cab2eb"),
    ("predator_prey", {**SLOW_PREY, "n_predators": 8}, None,
     "f29cc9b011dba2227b0bb0b9043bbe766e36515623dade544935e9b2dbc28b57"),
]


@pytest.mark.parametrize("name,overrides,genome_seed,digest", TRAJECTORY_PINS + PAIRWISE_PINS)
def test_trajectories_match_their_pins(name, overrides, genome_seed, digest):
    task = make_task(name, overrides)
    ctrl = chase_prey if genome_seed is None else random_controller(task, genome_seed)
    batch = task.simulate(ctrl, list(range(8)), record=True)
    assert len(set(batch.steps.tolist())) >= 3
    h = hashlib.sha256()
    for a in (batch.steps, batch.fitness, batch.ts_chars, batch.features):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == digest


def in_trial_mask(rec):
    return np.arange(rec["pos"].shape[0])[:, None] < rec["steps"][None, :]


def mean_over_defined_steps(values, member, in_trial):
    """Per-trial mean, over the in-trial steps with any member, of the
    per-step mean of `values` over the members."""
    count = member.sum(axis=-1)
    per_step = (values * member).sum(axis=-1) / np.maximum(count, 1)
    valid = in_trial & (count > 0)
    return (per_step * valid).sum(axis=0) / np.maximum(valid.sum(axis=0), 1)


def sharing_ts_oracle(task, rec):
    p = task.params
    steps, n = rec["steps"], p.n_robots
    in_trial = in_trial_mask(rec)
    alive = rec["alive"]
    live = alive & in_trial[..., None]
    survivors = alive[steps - 1, np.arange(len(steps))].sum(axis=1)
    energy = (rec["energy"] * live).sum(axis=(0, 2)) / (n * p.max_steps)
    speed = (np.abs(rec["lin"]) * live).sum(axis=(0, 2)) / np.maximum(live.sum(axis=(0, 2)), 1)
    pos = rec["pos"]
    st_dist = np.hypot(pos[..., 0] - task.station[0], pos[..., 1] - task.station[1])
    station = mean_over_defined_steps(st_dist, alive, in_trial)
    return np.stack(
        [survivors / n, energy / p.e_max, speed / p.v_max, station / task.station_reach],
        axis=-1,
    )


def gate_ts_oracle(task, rec):
    p = task.params
    steps = rec["steps"]
    in_trial = in_trial_mask(rec)
    pos, active = rec["pos"], rec["active"]
    escaped = p.n_robots - active[steps - 1, np.arange(len(steps))].sum(axis=1)
    closing = rec["closing"] > 0
    first_pass = closing.argmax(axis=0)
    opened = np.where(closing.any(axis=0), (first_pass + 1) / p.max_steps, 1.0)
    gate_d = np.hypot(pos[..., 0] - task.gate_center[0], pos[..., 1] - task.gate_center[1])
    mean_gate = mean_over_defined_steps(gate_d, active, in_trial)
    dist = pairwise_distances(pos[..., 0], pos[..., 1])
    totals = (dist * (active[..., :, None] & active[..., None, :])).sum(axis=(-2, -1))
    n_active = active.sum(axis=2)
    disp = np.where(n_active >= 2, totals / np.maximum(n_active * (n_active - 1), 1), 0.0)
    mean_disp = (disp * in_trial).sum(axis=0) / steps
    return np.stack(
        [escaped / p.n_robots, opened, mean_gate / task.diagonal, mean_disp / task.diagonal],
        axis=-1,
    )


def pursuit_ts_oracle(task, rec):
    p = task.params
    steps = rec["steps"]
    last, rows = steps - 1, np.arange(len(steps))
    in_trial = in_trial_mask(rec)
    pos, prey = rec["pos"], rec["prey"]
    captured = ~rec["present"][last, rows]
    d_final = np.hypot(
        pos[last, rows, :, 0] - prey[last, rows, None, 0],
        pos[last, rows, :, 1] - prey[last, rows, None, 1],
    ).mean(axis=1)
    centroid = pos.mean(axis=2)
    spread = np.hypot(
        pos[..., 0] - centroid[..., None, 0], pos[..., 1] - centroid[..., None, 1]
    ).mean(axis=2)
    mean_spread = (spread * in_trial).sum(axis=0) / steps
    return np.stack(
        [captured, steps / p.max_steps, d_final / (2.0 * p.zone_radius),
         mean_spread / p.zone_radius],
        axis=-1,
    )


@pytest.mark.parametrize(
    "name,overrides,oracle",
    [
        ("resource_sharing", {"max_steps": 150, "start_energy": 15.0}, sharing_ts_oracle),
        ("gate_escape", {"max_steps": 150}, gate_ts_oracle),
        ("predator_prey", {"max_steps": 150, "prey_spawn_max": 1.2}, pursuit_ts_oracle),
    ],
)
def test_recording_does_not_change_results(name, overrides, oracle):
    task = make_task(name, overrides)
    ctrl = random_controller(task, 21)
    seeds = [3, 4, 5, 6, 7]
    plain = task.simulate(ctrl, seeds, record=False)
    recorded = task.simulate(ctrl, seeds, record=True)
    assert plain.record is None and plain.features is None
    for field in ("steps", "fitness", "raw", "ts_chars"):
        assert np.array_equal(getattr(plain, field), getattr(recorded, field)), field
    rec = recorded.record
    assert {"heading", "wheels"} <= rec.keys()
    assert rec["pos"].shape[:2] == rec["wheels"].shape[:2] == recorded.features.shape[:2]
    expected = np.clip(oracle(task, rec), 0.0, 1.0)
    assert recorded.ts_chars == pytest.approx(expected, abs=1e-12)


def tallied_mean_reference(features, column, mask, steps):
    """Per trial, the mean of feature `column` over its steps whose (T, B, N)
    `mask` has a member, summed step by step as the tasks once tallied it
    inside the loop; frozen here as the reference for `Task.feature_mean`."""
    total, count = np.zeros(len(steps)), np.zeros(len(steps), dtype=int)
    for t in range(steps.max()):
        on = (t < steps) & mask[t].any(axis=-1)
        total[on] += features[t, on, column]
        count += on
    return total / np.maximum(count, 1)


@pytest.mark.parametrize(
    "name,overrides,mask_key,feature,ts_index,scale",
    [
        ("resource_sharing", {"max_steps": 150, "start_energy": 12.0}, "alive",
         "agents-station distance", 3, "station_reach"),
        ("gate_escape", {"n_robots": 1, "gate_width": 1.0, "v_max": 0.4, "max_steps": 400,
                         "gate_close_delay": 300}, "active",
         "agents-gate distance", 2, "diagonal"),
    ],
    ids=["sharing-extinction", "gate-all-escaped"],
)
def test_feature_means_match_the_per_step_tally(
    name, overrides, mask_key, feature, ts_index, scale
):
    task = make_task(name, overrides)
    spec = ControllerSpec(task.n_inputs, 6, task.n_outputs)
    genomes = np.random.default_rng(4).uniform(-3, 3, (10, spec.genome_length))
    networks = np.repeat(np.arange(10), 10)
    batch = task.simulate(StackedControllers(genomes, spec), list(range(100)), networks=networks)
    steps, mask = batch.steps, batch.record[mask_key]
    emptied = ~mask[steps - 1, np.arange(len(steps))].any(axis=-1)
    # trials that end on the step their group empties, and trials that do not
    assert 5 <= emptied.sum() <= 95
    column = task.feature_names().index(feature)
    mean = tallied_mean_reference(batch.features, column, mask, steps)
    expected = np.clip(mean / getattr(task, scale), 0.0, 1.0)
    assert batch.ts_chars[:, ts_index].tobytes() == expected.tobytes()


# configurations whose trials end at widely different steps, so the loop
# drops finished trials from the batch many times
STAGGERED_ENDS = [
    ("resource_sharing", {"max_steps": 150, "start_energy": 12.0}, 1),
    (
        "gate_escape",
        {"max_steps": 150, "v_max": 0.4, "gate_width": 0.6, "gate_close_delay": 5,
         "grace_steps": 5},
        0,
    ),
    (
        "predator_prey",
        {"max_steps": 150, "prey_spawn_min": 0.2, "prey_spawn_max": 2.9, "prey_sense": 5.0,
         "zone_radius": 2.0},
        0,
    ),
]


def assert_trials_match_solo_runs(task, batch, solo):
    """Each trial of `batch` equals `solo(b)`, the same trial simulated
    alone, bit for bit; its rows past its end repeat its final row."""
    for b, steps in enumerate(batch.steps):
        alone = solo(b)
        assert alone.steps[0] == steps, b
        assert alone.fitness[0] == batch.fitness[b], b
        assert np.array_equal(alone.ts_chars[0], batch.ts_chars[b]), b
        assert np.array_equal(alone.raw[0], batch.raw[b]), b
        series = [(batch.features, alone.features)]
        series += [(batch.record[k], alone.record[k]) for k in task.record_keys]
        for together, single in series:
            assert np.array_equal(together[:steps, b], single[:, 0]), b
            assert (together[steps:, b] == together[steps - 1, b]).all(), b


@pytest.mark.parametrize("name,overrides,genome_seed", STAGGERED_ENDS)
def test_finished_trials_leave_the_batch_without_changing_results(
    name, overrides, genome_seed
):
    task = make_task(name, overrides)
    spec = ControllerSpec(task.n_inputs, 6, task.n_outputs)
    genomes = np.random.default_rng(genome_seed).uniform(-2, 2, (4, spec.genome_length))
    networks = np.repeat(np.arange(4), 3)
    batch = task.simulate(StackedControllers(genomes, spec), list(range(12)), networks=networks)
    assert len(set(batch.steps.tolist())) >= 5
    assert batch.steps.min() < batch.features.shape[0] // 3
    assert_trials_match_solo_runs(
        task, batch,
        lambda b: task.simulate(build_controller(genomes[networks[b]], spec), [b]),
    )


def reference_aggregate_batch(features, steps, max_steps):
    """The raw characterisation as it was computed from the whole (T, B, F)
    feature array before the simulation loop aggregated it itself; frozen
    here as the reference the in-loop totals must match bit for bit."""
    t_axis = np.arange(features.shape[0])[:, None]
    valid = t_axis < steps[None, :]
    means = np.sum(features, axis=0, where=valid[:, :, None]) / steps[:, None]
    finals = features[steps - 1, np.arange(features.shape[1])]
    duration = steps[:, None] / max_steps
    return np.concatenate([means, finals, duration], axis=1)


@pytest.mark.parametrize(
    "name,overrides,genome_seed",
    [pin[:3] for pin in TRAJECTORY_PINS] + STAGGERED_ENDS,
)
def test_raw_matches_the_whole_array_reference(name, overrides, genome_seed):
    task = make_task(name, overrides)
    ctrl = chase_prey if genome_seed is None else random_controller(task, genome_seed)
    batch = task.simulate(ctrl, list(range(8)))
    assert len(set(batch.steps.tolist())) >= 3
    for trial in (batch, task.simulate(ctrl, [5])):
        expected = reference_aggregate_batch(trial.features, trial.steps, task.max_steps)
        assert np.array_equal(trial.raw, expected)


def test_plain_callable_drives_the_compacted_loop():
    task = make_task("resource_sharing", {"max_steps": 150, "start_energy": 12.0})
    rows_seen = []

    def ctrl(x):
        rows_seen.append(x.shape[0])
        return np.tanh(3.0 * x[:, 1:3] - x[:, 4:6])

    seeds = list(range(8))
    batch = task.simulate(ctrl, seeds)
    n = task.params.n_robots
    assert rows_seen == [n * int((batch.steps > t).sum()) for t in range(len(rows_seen))]
    assert rows_seen[-1] < rows_seen[0]
    assert_trials_match_solo_runs(task, batch, lambda b: task.simulate(ctrl, [seeds[b]]))


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("name,overrides,genome_seed", [pin[:3] for pin in TRAJECTORY_PINS])
def test_robot_distances_are_measured_once_per_step(
    monkeypatch, name, overrides, genome_seed, record
):
    calls = []

    def counted(x, y):
        calls.append(x.shape)
        return pairwise_distances(x, y)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("sdbc.") and vars(module).get("pairwise_distances") is (
            pairwise_distances
        ):
            monkeypatch.setattr(module, "pairwise_distances", counted)
    task = make_task(name, overrides)
    ctrl = chase_prey if genome_seed is None else random_controller(task, genome_seed)
    batch = task.simulate(ctrl, list(range(8)), record=record)
    assert len(set(batch.steps.tolist())) >= 3
    # one matrix after the reset, then one per lockstep step on the live trials
    assert len(calls) == batch.steps.max() + 1
    assert [shape[0] for shape in calls[1:]] == [
        int((batch.steps > t).sum()) for t in range(batch.steps.max())
    ]


def reference_nearest_neighbor_sensor(pos, heading, mask, sense_range, rows):
    """`nearest_neighbor_sensor` as it was when it measured its own
    distance matrix; frozen here as the reference it must match bit for
    bit."""
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


def reference_two_nearest_peers(pos, heading, mask, sense_range, rows):
    """The predator-prey peer sensor as it was when it sorted each robot's
    peer distances itself, reading two slots off a stable argsort; frozen
    here, with the mask applied first, as the two-slot reference."""
    n = pos.shape[1]
    x = np.empty(pos.shape[:2] + (4,))
    peer_d = pairwise_distances(pos[..., 0], pos[..., 1])
    peer_d = np.where(mask[:, None, :] & mask[:, :, None], peer_d, np.inf)
    np.einsum("bii->bi", peer_d)[:] = np.inf
    order = np.argsort(peer_d, axis=2, kind="stable")
    ni = np.arange(n)[None, :]
    for slot in range(2):
        if slot >= n:
            x[..., 2 * slot] = 1.0
            x[..., 1 + 2 * slot] = 0.0
            continue
        idx = order[..., slot]
        d = peer_d[rows, ni, idx]
        tx = pos[..., 0][rows, idx]
        ty = pos[..., 1][rows, idx]
        pb = normalize_angle(np.arctan2(ty - pos[..., 1], tx - pos[..., 0]) - heading)
        ok = np.isfinite(d) & (d <= sense_range)
        x[..., 2 * slot] = np.where(ok, d / sense_range, 1.0)
        x[..., 1 + 2 * slot] = np.where(ok, pb / math.pi, 0.0)
    return x


@pytest.mark.parametrize(
    "n,slots",
    [pytest.param(n, 1, id=str(n)) for n in (1, 2, 4, 7)]
    + [pytest.param(n, 2, id=f"{n}-two-slots") for n in (1, 2, 3, 4, 7)],
)
def test_neighbor_sensor_matches_its_own_distance_reference(n, slots):
    rng = np.random.default_rng(n)
    b = 60
    pos = rng.uniform(0.0, 2.0, (b, n, 2))
    pos[:10] = np.round(pos[:10] * 2.0) / 2.0  # coincident robots and tied distances
    heading = rng.uniform(-np.pi, np.pi, (b, n))
    mask = rng.uniform(size=(b, n)) < 0.6
    mask[:5] = False  # rows with no active robot
    mask[5:10] = True
    rows = np.arange(b)[:, None]
    dist = pairwise_distances(pos[..., 0], pos[..., 1])
    before = dist.copy()
    got = nearest_neighbor_sensor(pos, heading, dist, mask, 1.0, slots)
    if slots == 1:
        expected = np.stack(reference_nearest_neighbor_sensor(pos, heading, mask, 1.0, rows), -1)
    else:
        expected = reference_two_nearest_peers(pos, heading, mask, 1.0, rows)
    assert np.array_equal(dist, before)
    assert got.shape == (b, n, 2 * slots)
    assert np.array_equal(got, expected)
    assert (got[:5, :, 0::2] == 1.0).all() and (got[:5, :, 1::2] == 0.0).all()


def test_gate_and_sharing_spawn_through_one_routine():
    # both tasks place robots the same way, so with no keep-out zone the
    # same seeds give the same start poses; a clearance only redraws the
    # robots too close to the station
    seeds = list(range(40))
    gate = make_task("gate_escape")._reset(seeds)
    sharing = make_task("resource_sharing")._reset(seeds)
    assert np.array_equal(gate.pos, sharing.pos)
    assert np.array_equal(gate.heading, sharing.heading)
    task = make_task("resource_sharing", {"spawn_clearance": 0.6})
    cleared = task._reset(seeds).pos
    to_station = np.hypot(*np.moveaxis(cleared - np.array(task.station), -1, 0))
    assert (to_station >= 0.6).all()
    kept = np.hypot(*np.moveaxis(sharing.pos - np.array(task.station), -1, 0)) >= 0.6
    assert 0 < kept.sum() < kept.size
    assert np.array_equal(cleared[kept], sharing.pos[kept])


def reference_segment_distance(x, y, segments):
    """`segment_distance` as it was before it took one segment at a time:
    every segment at once on a trailing axis, then a min-reduction; frozen
    here as the reference it must match bit for bit."""
    ax, ay = segments[:, 0], segments[:, 1]
    ex, ey = segments[:, 2] - ax, segments[:, 3] - ay
    seg_sq = np.maximum(ex * ex + ey * ey, 1e-30)
    rx, ry = x[..., None] - ax, y[..., None] - ay
    t = np.clip((rx * ex + ry * ey) / seg_sq, 0.0, 1.0)
    dx, dy = rx - t * ex, ry - t * ey
    return np.sqrt(dx * dx + dy * dy).min(axis=-1)


def test_segment_distance_matches_the_broadcast_reference():
    walls = make_task("gate_escape").walls
    extra = np.array([
        (1.0, 1.0, 1.0, 1.0),      # zero length: the 1e-30 floor
        (0.0, 0.0, 2.0, 2.0),      # diagonal
        (-0.0, 0.5, 0.0, -0.0),    # signed zeros
        (0.3, 1.7, 1.9, 0.2),
    ])
    rng = np.random.default_rng(3)
    along = rng.uniform(0.0, 1.0, (len(walls) + len(extra), 7))
    every = np.concatenate([walls, extra])
    start, end = every[:, None, :2], every[:, None, 2:]
    on_segments = start + along[..., None] * (end - start)
    points = np.concatenate([
        rng.uniform(-0.5, 2.5, (400, 2)),
        every[:, :2], every[:, 2:],
        on_segments.reshape(-1, 2),
        [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, 1.0), (1.0, 2.0)],
    ])
    x, y = points.T[:, None]  # (1, P) each, a batch row of P points
    for segments in (walls, every, extra[:1], extra[1:3]):
        got = segment_distance(x, y, segments)
        expected = reference_segment_distance(x, y, segments)
        assert got.shape == x.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestGateEscapeBehaviour:
    def test_null_controller_blank_trial(self):
        task = make_task("gate_escape", {"max_steps": 50})
        batch = task.simulate(null_controller, [3, 4])
        assert np.all(batch.steps == 50)
        assert np.all(batch.fitness == pytest.approx((0 + 1.0) / 5))
        ts = batch.ts_chars
        assert ts[:, 0] == pytest.approx([0.0, 0.0])  # nobody escapes
        assert ts[:, 1] == pytest.approx([1.0, 1.0])  # gate never opened
        assert np.all(ts[:, 2] > 0.0)  # distance to gate
        assert np.all(ts[:, 3] > 0.0)  # initial dispersion

    def test_gate_closing_only_after_first_passage(self):
        task = make_task("gate_escape", {"max_steps": 150})
        for seed in range(6):
            batch = task.simulate(random_controller(task, seed), [seed])
            rec = batch.record
            closing = rec["closing"][:, 0]
            active_n = rec["active"][:, 0].sum(axis=1)
            for t in range(int(batch.steps[0])):
                if closing[t] > 0:
                    assert active_n[t] < task.params.n_robots
                else:
                    assert active_n[t] == task.params.n_robots

    def test_fitness_range_sweep(self):
        task = make_task("gate_escape", {"max_steps": 60})
        for seed in range(10):
            batch = task.simulate(random_controller(task, 100 + seed), [seed, seed + 50])
            assert np.all((batch.fitness >= 0.0) & (batch.fitness <= 1.0))
            assert np.all((batch.ts_chars >= 0.0) & (batch.ts_chars <= 1.0))


class TestResourceSharingBehaviour:
    def test_idle_robots_zero_speed_component(self):
        task = make_task("resource_sharing", {"max_steps": 40})
        batch = task.simulate(null_controller, [1, 2])
        assert batch.ts_chars[:, 2] == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_parked_on_charger_distance_near_zero(self):
        task = make_task(
            "resource_sharing", {"max_steps": 60, "n_robots": 1, "start_energy": 100.0}
        )
        seed = next(
            s for s in range(5000)
            if np.hypot(*(task._reset([s]).pos[0, 0] - np.array(task.station))) < 0.04
        )
        batch = task.simulate(null_controller, [seed])
        assert batch.ts_chars[0, 3] < 0.03
        assert batch.record["charging"][:, 0, 0].all()

    def test_charging_exclusivity(self):
        task = make_task("resource_sharing", {"max_steps": 120})
        for seed in range(6):
            batch = task.simulate(random_controller(task, 200 + seed), [seed])
            charging = batch.record["charging"]
            assert np.all(charging.sum(axis=2) <= 1.0)

    def test_death_removes_from_group(self):
        task = make_task("resource_sharing", {"max_steps": 120, "start_energy": 5.0})
        batch = task.simulate(full_speed_controller, [7])
        alive_n = batch.record["alive"][:, 0].sum(axis=1)
        assert alive_n[-1] < task.params.n_robots
        assert np.all(np.diff(alive_n) <= 0)  # nobody resurrects

    def test_all_dead_terminates_early(self):
        task = make_task("resource_sharing", {"max_steps": 400, "start_energy": 3.0})
        batch = task.simulate(full_speed_controller, [5, 6])
        assert np.all(batch.steps < 400)
        final_alive = batch.record["alive"][batch.steps - 1, np.arange(2)]
        assert final_alive.sum() == 0

    def test_fitness_range_sweep(self):
        task = make_task("resource_sharing", {"max_steps": 60, "start_energy": 10.0})
        for seed in range(10):
            batch = task.simulate(random_controller(task, 300 + seed), [seed, seed + 9])
            assert np.all((batch.fitness >= 0.0) & (batch.fitness <= 1.0))
            assert np.all((batch.ts_chars >= 0.0) & (batch.ts_chars <= 1.0))


class TestPredatorPreyBehaviour:
    def test_unsensed_prey_stays_put(self):
        task = make_task("predator_prey", {"max_steps": 50, "prey_sense": 0.1})
        batch = task.simulate(null_controller, [3, 4, 5])
        prey = batch.record["prey"]
        assert np.all(prey == prey[0])
        assert batch.ts_chars[:, 1] == pytest.approx([1.0, 1.0, 1.0])  # full length

    def test_motionless_predators_zero_fitness(self):
        task = make_task("predator_prey", {"max_steps": 50, "prey_sense": 0.1})
        batch = task.simulate(null_controller, [3])
        assert batch.fitness[0] == 0.0

    def test_scripted_capture(self):
        task = make_task(
            "predator_prey",
            {
                "max_steps": 100,
                "prey_speed_factor": 0.0,
                "prey_spawn_min": 0.105,
                "prey_spawn_max": 0.105,
            },
        )
        seed = next(
            s for s in range(200)
            if task.simulate(full_speed_controller, [s]).steps[0] <= 3
        )
        batch = task.simulate(full_speed_controller, [seed], record=True)
        assert batch.fitness[0] == pytest.approx(2.0 - batch.steps[0] / 100)
        ts = batch.ts_chars[0]
        assert ts[0] == 1.0
        assert ts[1] == pytest.approx(batch.steps[0] / 100)
        assert ts[2] < 0.1
        # captured prey leaves its group in the final snapshot
        assert not batch.record["present"][batch.steps[0] - 1, 0]

    def test_prey_escape_ends_trial(self):
        task = make_task(
            "predator_prey",
            {"max_steps": 400, "prey_sense": 5.0, "prey_spawn_min": 2.5,
             "prey_spawn_max": 2.9},
        )
        batch = task.simulate(null_controller, [1, 2, 3])
        assert np.all(batch.steps < 400)
        assert np.all(batch.fitness == 0.0)
        assert np.all(batch.ts_chars[:, 0] == 0.0)

    def test_fitness_range_sweep(self):
        task = make_task("predator_prey", {"max_steps": 60})
        for seed in range(10):
            batch = task.simulate(random_controller(task, 400 + seed), [seed, seed + 3])
            assert np.all((batch.fitness >= 0.0) & (batch.fitness <= 2.0))
            assert np.all((batch.ts_chars >= 0.0) & (batch.ts_chars <= 1.0))

    def test_fixed_predator_starts(self):
        task = make_task("predator_prey", {"max_steps": 5})
        b1 = task.simulate(null_controller, [10])
        b2 = task.simulate(null_controller, [99])
        assert np.array_equal(b1.record["pos"][0], b2.record["pos"][0])
        assert not np.array_equal(b1.record["prey"][0], b2.record["prey"][0])

    def test_simulated_prey_follows_policy(self):
        task = make_task("predator_prey", {"max_steps": 60, "prey_spawn_max": 1.1})
        p = task.params
        batch = task.simulate(random_controller(task, 31), [8])
        rec = batch.record
        speed = p.prey_speed_factor * p.v_max * p.dt
        for t in range(1, int(batch.steps[0])):
            move = prey_policy(rec["prey"][t - 1, 0], rec["pos"][t, 0], p.prey_sense)
            expected = rec["prey"][t - 1, 0] + move * speed
            assert rec["prey"][t, 0] == pytest.approx(expected, abs=1e-12)


class TestRegistry:
    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            make_task("soccer")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            make_task("gate_escape", {"n_robot": 4})

    def test_hyphen_names_accepted(self):
        assert make_task("gate-escape").name == "gate_escape"


class TestDeterminism:
    @pytest.mark.parametrize("name", ["gate_escape", "resource_sharing", "predator_prey"])
    def test_simulate_bit_identical(self, name):
        task = make_task(name, {"max_steps": 40})
        ctrl = random_controller(task, 9)
        b1 = task.simulate(ctrl, [4, 5])
        b2 = task.simulate(ctrl, [4, 5])
        assert np.array_equal(b1.fitness, b2.fitness)
        assert np.array_equal(b1.features, b2.features)
        assert np.array_equal(b1.ts_chars, b2.ts_chars)
        assert np.array_equal(b1.steps, b2.steps)


# A batch split over forked parts (`Task.simulate` without `record`).  Each
# test forces the split with a tiny MIN_PART_WORK and sets the usable cores.
DYING_SHARING = {"max_steps": 150, "start_energy": 12.0}
# one robot and a wide gate that closes late, as in trajectory_digests.py:
# a trial ends on the step its robot escapes
OPEN_GATE = {"n_robots": 1, "gate_width": 1.0, "v_max": 0.4, "max_steps": 400,
             "gate_close_delay": 300}


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test; every batch splits."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(base, "MIN_PART_WORK", 1)
    return pids


def use_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def assert_reaped(pids):
    # a pid of another child of this process (a multiprocessing resource
    # tracker, say) would make waitpid(-1) report a live child
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def population(task, trials, genome_seed):
    """A stack of random networks, three trials each, and its row index."""
    spec = ControllerSpec(task.n_inputs, 8, task.n_outputs)
    rng = np.random.default_rng(genome_seed)
    genomes = rng.uniform(-2, 2, (-(-trials // 3), spec.genome_length))
    return StackedControllers(genomes, spec), np.arange(trials) // 3


@pytest.mark.parametrize(
    "name,overrides,genome_seed,trials,cores",
    [
        ("resource_sharing", DYING_SHARING, 0, 18, 2),
        ("gate_escape", OPEN_GATE, 2, 18, 2),
        ("predator_prey", {"max_steps": 150, "prey_speed_factor": 0.3}, 0, 18, 2),
        ("resource_sharing", DYING_SHARING, 1, 17, 3),  # parts of 6, 6 and 5 trials
        ("resource_sharing", DYING_SHARING, 1, 3, 4),  # fewer trials than cores
    ],
    ids=["sharing-deaths", "gate-all-escaped", "pursuit", "uneven-parts", "few-trials"],
)
def test_split_batch_matches_the_whole_batch(
    forks, monkeypatch, name, overrides, genome_seed, trials, cores
):
    use_cores(monkeypatch, cores)
    task = make_task(name, overrides)
    stack, networks = population(task, trials, genome_seed)
    seeds = list(range(100, 100 + trials))
    here = []  # the seeds of the part this process runs
    run = type(task)._run
    monkeypatch.setattr(type(task), "_run", lambda self, c, s, *a: here.append(s) or run(self, c, s, *a))
    split = task.simulate(stack, seeds, record=False, networks=networks)
    assert len(forks) == min(cores, trials) - 1
    assert here == [seeds[:: min(cores, trials)]]  # every n-th trial, so genomes spread evenly
    assert_reaped(forks)
    whole = task._run(stack, seeds, False, networks)
    if name != "predator_prey":
        assert (whole.steps < task.max_steps).sum() >= 3  # trials end early
    for key in ("steps", "fitness", "raw", "ts_chars"):
        a, b = getattr(split, key), getattr(whole, key)
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert a.tobytes() == b.tobytes(), key
    assert split.features is None and split.record is None


@pytest.mark.parametrize("inline", ["record", "daemon", "small"])
def test_batch_runs_inline(forks, monkeypatch, inline):
    use_cores(monkeypatch, 2)
    if inline == "daemon":  # a multiprocessing pool worker, as in the acceptance cache build
        monkeypatch.setattr(base.mp, "current_process", lambda: SimpleNamespace(daemon=True))
    if inline == "small":  # two parts of 6 trials x 60 steps would fall below it
        monkeypatch.setattr(base, "MIN_PART_WORK", 6 * 60 + 1)
    task = make_task("gate_escape", {"max_steps": 60})
    stack, networks = population(task, 12, 0)
    task.simulate(stack, list(range(12)), record=inline == "record", networks=networks)
    assert forks == []


@pytest.mark.parametrize("genomes,splits", [(50, False), (48, False), (96, True)])
def test_desk_batches_split_only_when_grouped(forks, monkeypatch, genomes, splits):
    # one desk-scale run's generation (50 genomes, or 48 fresh ones after the
    # elites, x 10 trials x 150 steps) runs whole; two runs' shared batch splits
    monkeypatch.setattr(base, "MIN_PART_WORK", MIN_PART_WORK)
    use_cores(monkeypatch, 2)
    task = make_task("resource_sharing", {"max_steps": 150})
    spec = ControllerSpec(task.n_inputs, 8, task.n_outputs)
    weights = np.random.default_rng(0).uniform(-1, 1, (genomes, spec.genome_length))
    stack = StackedControllers(weights, spec)
    seeds = list(range(genomes * 10))
    task.simulate(stack, seeds, record=False, networks=np.repeat(np.arange(genomes), 10))
    assert len(forks) == int(splits)
    assert_reaped(forks)


@pytest.mark.parametrize("where", ["child", "parent", "child exits"])
def test_a_failing_part_raises_in_the_caller(forks, monkeypatch, where):
    use_cores(monkeypatch, 2)
    task = make_task("gate_escape", {"max_steps": 60})
    stack, networks = population(task, 12, 0)
    parent = os.getpid()

    def controller(x, rows):
        in_child = os.getpid() != parent
        if in_child and where == "child exits":
            os._exit(3)
        if where == ("child" if in_child else "parent"):
            raise ValueError(f"controller fault in the {where}")
        return stack(x, rows)

    expected = {
        "child": (RuntimeError, "(?s)failed in its child process:.*"
                                "ValueError: controller fault in the child"),
        "parent": (ValueError, "controller fault in the parent"),
        "child exits": (RuntimeError, "sent no result"),
    }[where]
    with pytest.raises(expected[0], match=expected[1]):
        task.simulate(controller, list(range(12)), record=False, networks=networks)
    assert len(forks) == 1
    assert_reaped(forks)
