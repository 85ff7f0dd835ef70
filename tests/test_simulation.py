"""Kinematics, collision resolution, and sensing against geometric oracles."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdbc.simulation import (
    Arena,
    any_last_axis,
    count_last_axis,
    min_last_axis,
    normalize_angle,
    range_bearing_arrays,
    resolve_collisions_arrays,
    square_arena,
    step_kinematics_arrays,
    sum_axis1,
    sum_last_axis,
)
from sdbc.tasks import TASKS, make_task

V_MAX = 0.12
AXLE = 0.08
DT = 0.1


def step(x, y, heading, left, right):
    """One kinematics step of one robot, as a one-row batch: the new pose
    and the step's linear and angular speeds, as floats."""
    out = step_kinematics_arrays(
        *(np.array([v], dtype=float) for v in (x, y, heading, left, right)), DT, V_MAX, AXLE
    )
    return tuple(float(v[0]) for v in out)


def sense(observer, target, max_range):
    """Range, bearing and sensed flag from one observer pose (x, y,
    heading) to one target point, as a one-row batch."""
    r, b, sensed = range_bearing_arrays(
        *(np.array([v], dtype=float) for v in (*observer, *target)), max_range
    )
    return float(r[0]), float(b[0]), bool(sensed[0])


def resolve_one(points, walls):
    """Resolve one set of radius-0.05 robots, every one active, as a
    one-row batch; returns their (N, 2) positions."""
    pos = np.array([points], dtype=float)
    return resolve_collisions_arrays(pos, 0.05, np.ones(pos.shape[:2], dtype=bool), walls)[0]


def _closest_points_reference(pos, walls):
    a = walls[:, 0:2]
    d = walls[:, 2:4] - a
    seg_sq = np.maximum((d * d).sum(axis=1), 1e-30)
    rel = pos[..., None, :] - a
    t = np.clip((rel * d).sum(axis=-1) / seg_sq, 0.0, 1.0)
    return a + t[..., None] * d


def resolve_collisions_reference(pos, radius, active, walls, max_passes=32, tol=1e-9):
    """Frozen whole-batch collision resolution: every pass runs on every row
    while any row overlaps.  The row-subset routine must match it bit for
    bit."""
    n = pos.shape[1]
    pairs = list(zip(*np.triu_indices(n, 1)))
    pair_ok = active[:, None, :] & active[:, :, None]
    copied = False
    for _ in range(max_passes):
        dx = pos[..., :, None, 0] - pos[..., None, :, 0]
        dy = pos[..., :, None, 1] - pos[..., None, :, 1]
        pair_d = np.sqrt(dx * dx + dy * dy)
        np.einsum("bii->bi", pair_d)[:] = np.inf
        pair_hit = pair_ok & (pair_d < 2.0 * radius - tol)

        wall_hit = False
        if walls.shape[0] > 0:
            closest = _closest_points_reference(pos, walls)
            delta = pos[:, :, None, :] - closest
            wall_d = np.sqrt((delta * delta).sum(axis=-1))
            wall_hit = (active[:, :, None] & (wall_d < radius - tol)).any()

        if not pair_hit.any() and not wall_hit:
            break
        if not copied:
            pos = pos.copy()
            copied = True

        if pair_hit.any():
            for i, j in pairs:
                delta = pos[:, j] - pos[:, i]
                dist = np.sqrt((delta * delta).sum(axis=1))
                overlap = pair_ok[:, i, j] & (dist < 2.0 * radius - tol)
                if not overlap.any():
                    continue
                degenerate = overlap & (dist < 1e-12)
                safe = np.where(dist > 1e-12, dist, 1.0)
                unit = delta / safe[:, None]
                unit[degenerate] = (1.0, 0.0)
                push = np.where(overlap, (2.0 * radius - dist) * 0.5, 0.0)
                pos[:, i] -= unit * push[:, None]
                pos[:, j] += unit * push[:, None]

        for w in range(walls.shape[0]):
            cw = _closest_points_reference(pos, walls[w : w + 1])[:, :, 0, :]
            dw = pos - cw
            distw = np.sqrt((dw * dw).sum(axis=-1))
            hw = active & (distw < radius - tol)
            if not hw.any():
                continue
            seg = walls[w]
            normal = np.array([-(seg[3] - seg[1]), seg[2] - seg[0]])
            nrm = math.hypot(normal[0], normal[1])
            normal = normal / (nrm if nrm > 0 else 1.0)
            safe = np.where(distw > 1e-12, distw, 1.0)
            unit = dw / safe[..., None]
            unit = np.where((distw > 1e-12)[..., None], unit, normal)
            pos = np.where(hw[..., None], cw + unit * radius, pos)
    return pos


def _crowded_batch(rng, rows, n):
    """Rows spread from clean to tightly packed, some with robots on top of
    each other or pressed into the walls of a 2 x 2 square, and ~15% of
    robots inactive."""
    scale = rng.choice([0.02, 0.1, 0.3, 1.9], size=(rows, 1, 1))
    corner = rng.uniform(0.0, 2.0 - scale, size=(rows, 1, 2))
    pos = corner + rng.uniform(0.0, 1.0, size=(rows, n, 2)) * scale
    stacked = rng.random(rows) < 0.05
    pos[stacked] = pos[stacked, :1]
    return pos, rng.random((rows, n)) < 0.85


def _overlapping_rows(pos, radius, active, walls, tol=1e-9):
    d = np.hypot(*np.moveaxis(pos[:, :, None] - pos[:, None], -1, 0))
    d[:, np.arange(pos.shape[1]), np.arange(pos.shape[1])] = np.inf
    pair = active[:, :, None] & active[:, None] & (d < 2.0 * radius - tol)
    wall = np.zeros(len(pos), dtype=bool)
    if walls.shape[0] > 0:
        delta = pos[:, :, None, :] - _closest_points_reference(pos, walls)
        wall_d = np.sqrt((delta * delta).sum(axis=-1))
        wall = (active[:, :, None] & (wall_d < radius - tol)).any(axis=(1, 2))
    return pair.any(axis=(1, 2)) | wall


class TestKinematics:
    def test_straight_line(self):
        x, y, h, lin, ang = step(0.0, 0.0, 0.7, 1.0, 1.0)
        assert x == pytest.approx(V_MAX * DT * math.cos(0.7), abs=1e-12)
        assert y == pytest.approx(V_MAX * DT * math.sin(0.7), abs=1e-12)
        assert h == pytest.approx(0.7, abs=1e-12)
        assert (lin, ang) == (V_MAX, 0.0)

    def test_spin_in_place(self):
        x, y, h, lin, ang = step(1.0, 2.0, 0.0, -1.0, 1.0)
        assert x == pytest.approx(1.0, abs=1e-12)
        assert y == pytest.approx(2.0, abs=1e-12)
        assert h == pytest.approx(V_MAX * 2.0 / AXLE * DT, abs=1e-12)
        assert (lin, ang) == (0.0, V_MAX * 2.0 / AXLE)

    def test_heading_stays_normalised(self):
        x, y, h = 0.0, 0.0, 3.0
        for _ in range(100):
            x, y, h, _, _ = step(x, y, h, -1.0, 1.0)
            assert -math.pi <= h < math.pi

    def test_matches_fine_step_integration(self):
        rng = np.random.default_rng(5)
        commands = rng.uniform(-1.0, 1.0, size=(100, 2))
        coarse = (0.0, 0.0, 0.0)
        fine = (0.0, 0.0, 0.0)
        path_len = 0.0
        for left, right in commands:
            coarse = step(*coarse, left, right)[:3]
            # dt/100 Euler reference
            x, y, h = fine
            lin = V_MAX * (left + right) / 2.0
            ang = V_MAX * (right - left) / AXLE
            for _ in range(100):
                x += lin * (DT / 100) * math.cos(h)
                y += lin * (DT / 100) * math.sin(h)
                h += ang * (DT / 100)
            fine = (x, y, h)
            path_len += abs(lin) * DT
        err = math.hypot(coarse[0] - fine[0], coarse[1] - fine[1])
        assert err < 0.01 * max(path_len, 1e-9)

    def test_rejects_bad_dt(self):
        # the time step is checked where it enters: at task construction
        for name in TASKS:
            for dt in (0.0, -0.1):
                with pytest.raises(ValueError, match="dt must be > 0"):
                    make_task(name, {"dt": dt})


class TestCollisions:
    def test_identical_centres_separate_deterministically(self):
        out = resolve_one([(1.0, 1.0), (1.0, 1.0)], square_arena(2.0).wall_array())
        gap = math.hypot(*(out[0] - out[1]))
        assert gap == pytest.approx(0.1, abs=1e-9)
        assert out[0, 0] < out[1, 0]  # lower index pushed -x
        assert out[0, 1] == out[1, 1]

    def test_wall_clamp(self):
        out = resolve_one([(0.01, 1.0)], square_arena(2.0).wall_array())
        assert out[0, 0] == pytest.approx(0.05, abs=1e-9)

    def test_random_clusters_fully_separated(self):
        rng = np.random.default_rng(9)
        arena = square_arena(2.0)
        for _ in range(25):
            pos = rng.uniform(0.0, 0.4, size=(1, 6, 2)) + 0.8
            active = np.ones((1, 6), dtype=bool)
            out = resolve_collisions_arrays(pos, 0.05, active, arena.wall_array())
            for i in range(6):
                for j in range(i + 1, 6):
                    d = np.hypot(*(out[0, i] - out[0, j]))
                    assert d >= 0.1 - 1e-6
                assert 0.05 - 1e-6 <= out[0, i, 0] <= 1.95 + 1e-6
                assert 0.05 - 1e-6 <= out[0, i, 1] <= 1.95 + 1e-6

    def test_inactive_robots_untouched(self):
        pos = np.array([[[1.0, 1.0], [1.02, 1.0]]])
        active = np.array([[True, False]])
        out = resolve_collisions_arrays(pos, 0.05, active, np.empty((0, 4)))
        assert out[0, 1] == pytest.approx([1.02, 1.0])

    def test_no_overlap_returns_input_unchanged(self):
        pos = np.array([[[0.5, 0.5], [1.5, 1.5]], [[0.5, 1.5], [1.5, 0.5]]])
        active = np.ones((2, 2), dtype=bool)
        for walls in (np.empty((0, 4)), square_arena(2.0).wall_array()):
            assert resolve_collisions_arrays(pos, 0.05, active, walls) is pos

    @pytest.mark.parametrize("with_walls", [False, True], ids=["no-walls", "walls"])
    @pytest.mark.parametrize("max_passes", [1, 2, 4, 32])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_matches_whole_batch_reference(self, n, max_passes, with_walls):
        # the pass budget is per row: at 1 or 2 passes crowded rows are cut
        # off unresolved, and must be cut off exactly where the reference,
        # which runs every row on every pass, leaves them
        walls = square_arena(2.0).wall_array() if with_walls else np.empty((0, 4))
        rng = np.random.default_rng(1000 * n + 10 * max_passes + with_walls)
        pos, active = _crowded_batch(rng, 300, n)
        before = pos.copy()
        out = resolve_collisions_arrays(pos, 0.05, active, walls, max_passes)
        expected = resolve_collisions_reference(pos, 0.05, active, walls, max_passes)
        assert np.array_equal(pos, before)
        assert np.array_equal(out, expected)
        overlapping = _overlapping_rows(pos, 0.05, active, walls)
        if n == 1 and not with_walls:
            assert out is pos
        else:
            assert overlapping.any() and not overlapping.all()
        if n >= 3 and max_passes <= 2:
            assert _overlapping_rows(out, 0.05, active, walls).any()

    @pytest.mark.parametrize(
        "walls, max_passes",
        [(np.empty((0, 4)), 4), (square_arena(0.5).wall_array(), 32)],
        ids=["no-walls", "walls"],
    )
    def test_batch_rows_resolve_as_if_alone(self, walls, max_passes):
        # crowded rows need several passes, with pushes that create new
        # contacts; each row must still come out as if resolved alone
        rng = np.random.default_rng(21)
        pos = rng.uniform(0.0, 0.25, size=(400, 4, 2)) + 0.05
        active = rng.random((400, 4)) < 0.9
        together = resolve_collisions_arrays(pos, 0.05, active, walls, max_passes)
        for b in range(400):
            alone = resolve_collisions_arrays(
                pos[b : b + 1], 0.05, active[b : b + 1], walls, max_passes
            )
            assert np.array_equal(together[b], alone[0]), f"row {b}"

    def test_push_that_creates_a_contact_is_resolved_in_the_same_pass(self):
        # 0 and 1 overlap; 2 touches nobody until pushing 0 off 1 drives 1
        # into it, so the pass's second push is the pair (1, 2)
        pos = np.array([[[0.0, 0.0], [0.08, 0.0], [0.185, 0.0]]])
        active = np.ones((1, 3), dtype=bool)
        out = resolve_collisions_arrays(pos, 0.05, active, np.empty((0, 4)), max_passes=1)
        assert out[0, :, 1] == pytest.approx([0.0, 0.0, 0.0])
        assert out[0, :, 0] == pytest.approx([-0.01, 0.0875, 0.1875], abs=1e-12)


class TestSensing:
    def test_target_at_observer(self):
        r, b, sensed = sense((1.0, 1.0, 0.3), (1.0, 1.0), 2.0)
        assert r == 0.0 and sensed

    def test_dead_ahead_at_max_range(self):
        target = (2.0 * math.cos(math.pi / 4), 2.0 * math.sin(math.pi / 4))
        r, b, sensed = sense((0.0, 0.0, math.pi / 4), target, 2.0)
        assert sensed
        assert r == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_beyond_range_not_sensed(self):
        assert not sense((0.0, 0.0, 0.0), (3.0, 0.0), 2.0)[2]

    @given(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
        st.floats(-3, 3), st.floats(-3.1, 3.1),
    )
    @settings(max_examples=80)
    def test_matches_trigonometric_oracle(self, ox, oy, tx, ty, heading):
        r, b, sensed = sense((ox, oy, heading), (tx, ty), 10.0)
        dist = math.hypot(tx - ox, ty - oy)
        assert sensed
        assert r == pytest.approx(dist / 10.0, abs=1e-9)
        expected = math.atan2(ty - oy, tx - ox) - heading
        expected = (expected + math.pi) % (2 * math.pi) - math.pi
        assert b == pytest.approx(expected, abs=1e-9)

    def test_rejects_bad_range(self):
        # every sensor range is checked where it enters: at task construction
        checked = 0
        for name, (_, params_cls) in TASKS.items():
            for field in fields(params_cls):
                if field.name.endswith("_sense"):
                    with pytest.raises(ValueError, match=f"{field.name} must be > 0"):
                        make_task(name, {field.name: 0.0})
                    checked += 1
        assert checked == 6  # two ranges per task


class TestDeterminism:
    def test_identical_command_sequences_bit_identical(self):
        rng = np.random.default_rng(3)
        commands = rng.uniform(-1, 1, size=(50, 2))
        runs = []
        for _ in range(2):
            pose = (0.3, 0.4, 0.1)
            trace = []
            for left, right in commands:
                pose = step(*pose, left, right)[:3]
                trace.append(pose)
            runs.append(trace)
        assert runs[0] == runs[1]


class TestAngles:
    @given(st.floats(-50.0, 50.0))
    def test_normalize_angle_range(self, a):
        out = float(normalize_angle(a))
        assert -math.pi <= out < math.pi
        assert math.isclose(
            math.cos(out), math.cos(a), abs_tol=1e-9
        ) and math.isclose(math.sin(out), math.sin(a), abs_tol=1e-9)

    def test_normalize_angle_is_bitwise_the_remainder_form(self):
        pi = math.pi
        edges = [0.0, -0.0, pi, -pi, 2 * pi, -2 * pi, 3 * pi, -3 * pi, 5e-324, -5e-324,
                 2.2e-308, -2.2e-308, 1e16, -1e16]
        edges += [np.nextafter(e, d) for e in (pi, -pi, 3 * pi, -3 * pi) for d in (-9, 9)]
        a = np.concatenate([edges, np.random.default_rng(0).uniform(-20.0, 20.0, 100_000)])
        reference = (a + pi) % (2.0 * pi) - pi
        assert np.array_equal(normalize_angle(a).view(np.int64), reference.view(np.int64))


def _bits(a):
    """The bit pattern of an array, so that -0.0, 0.0 and NaNs compare."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


# edge values every reduction below must carry: signed zeros, infinities,
# subnormals, and magnitudes far apart, so that any change of summation
# order changes some rounding
EDGES = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
                  2.2250738585072014e-308, 1.0, -1.0, 0.1, 1e16, -1e16, 3.0, -7.5])


def _floats(rng, shape, zeros=(0.0, -0.0)):
    """Random floats over 16 decades, a third of them edge values;
    `zeros` are the signed zeros that may appear."""
    edges = np.concatenate([EDGES[EDGES != 0.0], zeros])
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    pick = rng.random(shape) < 1 / 3
    a[pick] = rng.choice(edges, size=int(pick.sum()))
    return a


# 1..10 straddles NumPy's switch to pairwise summation at 8 last-axis
# entries; 16, 129 and 300 cover whole blocks and the split above 128
LENGTHS = list(range(1, 11)) + [16, 129, 300]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestShortAxisReductions:
    """Each column-operation helper is bitwise equal to the NumPy
    reduction the step loop used to call."""

    @pytest.mark.parametrize("n", LENGTHS)
    def test_sum_last_axis(self, n):
        rng = np.random.default_rng(n)
        a = _floats(rng, (2000, n))
        assert _bits(sum_last_axis(a)) == _bits(a.sum(axis=-1))
        # all-zero rows: NumPy's 0.0 start turns a -0.0 total into 0.0
        z = rng.choice([0.0, -0.0], size=(64, n))
        z[0] = -0.0
        assert _bits(sum_last_axis(z)) == _bits(z.sum(axis=-1))
        # a column view of an (B, n, 2) array, as the loop's x and y are
        pos = _floats(rng, (500, n, 2))
        assert _bits(sum_last_axis(pos[..., 1])) == _bits(pos[..., 1].sum(axis=-1))
        # a (B, P, 2) last axis of x/y, as a pair's squared offset
        assert _bits(sum_last_axis(pos)) == _bits(pos.sum(axis=-1))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_sum_axis1(self, n):
        rng = np.random.default_rng(100 + n)
        a = _floats(rng, (2000, n, 2))
        assert _bits(sum_axis1(a)) == _bits(a.sum(axis=1))
        z = rng.choice([0.0, -0.0], size=(64, n, 2))
        z[0] = -0.0
        assert _bits(sum_axis1(z)) == _bits(z.sum(axis=1))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_min_last_axis(self, n):
        # NumPy's own sign of a zero minimum among mixed-sign zeros depends
        # on its SIMD width, so each row holds zeros of one sign only, as
        # the loop's hypot distances (never -0.0) do
        rng = np.random.default_rng(200 + n)
        for zero in (0.0, -0.0):
            a = _floats(rng, (2000, n), zeros=(zero,))
            a[rng.random((2000, n)) < 0.05] = np.nan
            assert _bits(min_last_axis(a)) == _bits(a.min(axis=-1))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_bool_reductions(self, n):
        rng = np.random.default_rng(300 + n)
        for p in (0.05, 0.5, 0.95):
            m = rng.random((2000, n)) < p
            assert _bits(any_last_axis(m)) == _bits(m.any(axis=-1))
            assert _bits(count_last_axis(m)) == _bits(m.sum(axis=-1))

    def test_any_over_an_empty_axis_is_false(self):
        # the collision detector's pair axis of a single robot
        m = np.empty((3, 0), dtype=bool)
        assert _bits(any_last_axis(m)) == _bits(m.any(axis=-1))

    def test_inputs_are_not_modified(self):
        a = _floats(np.random.default_rng(7), (50, 9, 2))
        m = a[..., 0] > 0
        copies = a.copy(), m.copy()
        sum_last_axis(a[..., 0]), sum_axis1(a), min_last_axis(a[..., 1])
        any_last_axis(m), count_last_axis(m)
        assert _bits(a) == _bits(copies[0]) and _bits(m) == _bits(copies[1])


class TestArena:
    def test_square_arena_geometry(self):
        walls = square_arena(2.0).wall_array()
        assert walls.shape == (4, 4)
        # four sides, each running from one corner to the next
        corners = {(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)}
        assert {tuple(w[:2]) for w in walls} == corners
        assert all(tuple(w[2:]) == tuple(walls[(k + 1) % 4, :2]) for k, w in enumerate(walls))

    def test_empty_walls(self):
        arena = Arena(walls=())
        assert arena.wall_array().shape == (0, 4)
