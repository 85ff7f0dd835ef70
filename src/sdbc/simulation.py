"""Deterministic fixed-timestep 2D kinematics for differential-drive robots.

Each primitive (the kinematics step, collision resolution, range/bearing
sensing) has one implementation, a pure array transform over a batch axis
so that many trials advance in lockstep; one robot is a one-row batch.

The step loop reduces over short axes (robots, pair slots, x/y) of a
(B, N) or (B, N, 2) batch.  NumPy runs its reduction machinery once per
trial for these, so the loop uses column operations instead, which give
the same bits: `sum_last_axis`, `sum_axis1`, `min_last_axis`,
`any_last_axis` and `count_last_axis`.  The sums keep NumPy's order: a
last axis of fewer than 8 entries is added in order starting from 0.0
(the start turns a -0.0 total into 0.0), one of 8 or more pairwise
(`_pairwise_sum`), and any other axis in order from 0.0 at any length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(a: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles into [-pi, pi): bit for bit `(a + pi) % (2 pi) - pi`.

    `np.fmod` keeps the sign of `a + pi`; a negative remainder gets one
    period added, as `%` adds it.  About twice as fast as `%` on angles
    within a few periods of zero.
    """
    m = np.fmod(a + math.pi, TWO_PI)
    m += (m < 0.0) * TWO_PI
    return m - math.pi


def sum_last_axis(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1)` of a float array, bit for bit, as column adds.

    The order is the one NumPy takes where the last axis has the smallest
    stride, as in a C-ordered array or a column view of one (every array
    of the step loop); it adds a last axis of larger stride in order.
    """
    n = a.shape[-1]
    if n >= 8:
        return 0.0 + _pairwise_sum([a[..., k] for k in range(n)])
    total = 0.0 + a[..., 0]
    for k in range(1, n):
        total += a[..., k]
    return total


def _pairwise_sum(columns: list[np.ndarray]) -> np.ndarray:
    """NumPy's pairwise sum of 8 or more entries: eight running sums over
    blocks of eight, combined as a tree, then the remainder in order;
    more than 128 entries split in two at a multiple of eight."""
    n = len(columns)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(columns[:half]) + _pairwise_sum(columns[half:])
    blocks = n - n % 8
    r = columns[:8]
    for i in range(8, blocks, 8):
        r = [r[j] + columns[i + j] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for column in columns[blocks:]:
        total += column
    return total


def sum_axis1(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=1)` of a (B, N, ...) float array with a trailing axis,
    bit for bit: NumPy adds a non-last axis in order from 0.0 at any N."""
    total = 0.0 + a[:, 0]
    for k in range(1, a.shape[1]):
        total += a[:, k]
    return total


def min_last_axis(a: np.ndarray) -> np.ndarray:
    """`a.min(axis=-1)`, bit for bit where no minimum is a zero of mixed
    sign: NumPy gives the sign of such a zero by its SIMD width, which
    varies by CPU."""
    low = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        np.minimum(low, a[..., k], out=low)
    return low


def any_last_axis(a: np.ndarray) -> np.ndarray:
    """`a.any(axis=-1)` of a bool array; False over an empty axis, as the
    pair axis of one robot is."""
    hit = np.zeros(a.shape[:-1], dtype=bool)
    for k in range(a.shape[-1]):
        hit |= a[..., k]
    return hit


def count_last_axis(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1)` of a bool array: the count of True entries."""
    count = a[..., 0].astype(int)
    for k in range(1, a.shape[-1]):
        count += a[..., k]
    return count


@dataclass(frozen=True)
class Arena:
    """Wall segments (x1, y1, x2, y2)."""

    walls: tuple[tuple[float, float, float, float], ...]

    def wall_array(self) -> np.ndarray:
        if not self.walls:
            return np.empty((0, 4))
        return np.asarray(self.walls, dtype=float)


def step_kinematics_arrays(
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    dt: float,
    v_max: float,
    axle: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One differential-drive step for arrays of robots: the new x, y and
    heading, and the step's linear and angular speeds.

    Linear speed is v_max*(l+r)/2 and angular speed v_max*(r-l)/axle; the
    translation uses the mid-step heading, which is exact for constant
    commands along an arc.
    """
    lin = v_max * (left + right) * 0.5
    ang = v_max * (right - left) / axle
    mid = heading + 0.5 * ang * dt
    nx = x + lin * dt * np.cos(mid)
    ny = y + lin * dt * np.sin(mid)
    return nx, ny, normalize_angle(heading + ang * dt), lin, ang


def _segment_closest_points(pos: np.ndarray, walls: np.ndarray) -> np.ndarray:
    """Closest point on each wall for each robot: (..., W, 2)."""
    a = walls[:, 0:2]
    d = walls[:, 2:4] - a
    seg_sq = np.maximum((d * d).sum(axis=1), 1e-30)
    rel = pos[..., None, :] - a
    t = np.clip((rel * d).sum(axis=-1) / seg_sq, 0.0, 1.0)
    return a + t[..., None] * d


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """Every pair i < j of n robots in index order, as read-only index
    arrays and as a tuple of (i, j)."""
    first, second = np.triu_indices(n, 1)
    first.flags.writeable = second.flags.writeable = False
    return first, second, tuple(zip(first.tolist(), second.tolist()))


def resolve_collisions_arrays(
    pos: np.ndarray,
    radius: float,
    active: np.ndarray,
    walls: np.ndarray,
    max_passes: int = 32,
    tol: float = 1e-9,
) -> np.ndarray:
    """Separate overlapping robot pairs and push robots out of walls.

    `pos` is (B, N, 2); inactive robots are ignored.  A pass over a row
    visits every pair i < j in index order ((0, 1), (0, 2), ..., (1, 2),
    ...), then every wall in index order; each push sees the positions
    left by the pushes before it, and a pair or wall that does not
    overlap leaves the row alone.  Each pass first measures the pair and
    wall distances of the rows still in play and keeps only those with
    an overlap, so a row leaves as soon as it settles and gets at most
    `max_passes` passes.  A settled row would be unchanged by further
    passes, so rows never affect each other: each row comes out
    bit-identical to resolving it alone.  Pairs split the correction
    evenly; a pair at identical centres separates along +x/-x by index
    order so the outcome is deterministic.  Returns `pos` itself when
    nothing overlaps, a corrected copy otherwise; `pos` is never
    modified.
    """
    first, second, pairs = _pairs(pos.shape[1])
    out, rows, sub, ok = pos, np.arange(pos.shape[0]), pos, active
    for _ in range(max_passes):
        dx = sub[:, first, 0] - sub[:, second, 0]
        dy = sub[:, first, 1] - sub[:, second, 1]
        pair_ok = ok[:, first] & ok[:, second]
        hit = any_last_axis(pair_ok & (np.sqrt(dx * dx + dy * dy) < 2.0 * radius - tol))
        if walls.shape[0] > 0:
            delta = sub[:, :, None, :] - _segment_closest_points(sub, walls)
            wall_d = np.sqrt((delta * delta).sum(axis=-1))
            hit |= (ok[:, :, None] & (wall_d < radius - tol)).any(axis=(1, 2))
        if not hit.any():
            break
        rows, sub, ok, pair_ok = rows[hit], sub[hit], ok[hit], pair_ok[hit]

        for k, (i, j) in enumerate(pairs):
            delta = sub[:, j] - sub[:, i]
            dist = np.sqrt(sum_last_axis(delta * delta))
            overlap = pair_ok[:, k] & (dist < 2.0 * radius - tol)
            if not overlap.any():
                continue
            degenerate = overlap & (dist < 1e-12)
            safe = np.where(dist > 1e-12, dist, 1.0)
            unit = delta / safe[:, None]
            if degenerate.any():
                unit[degenerate] = (1.0, 0.0)
            push = unit * np.where(overlap, (2.0 * radius - dist) * 0.5, 0.0)[:, None]
            sub[:, i] -= push
            sub[:, j] += push

        # a pair push above may have driven a robot into a wall, so every
        # wall is checked even if none was touched at the start of the pass
        for w in range(walls.shape[0]):
            cw = _segment_closest_points(sub, walls[w : w + 1])[:, :, 0, :]
            dw = sub - cw
            distw = np.sqrt((dw * dw).sum(axis=-1))
            hw = ok & (distw < radius - tol)
            if not hw.any():
                continue
            seg = walls[w]
            normal = np.array([-(seg[3] - seg[1]), seg[2] - seg[0]])
            nrm = math.hypot(normal[0], normal[1])
            normal = normal / (nrm if nrm > 0 else 1.0)
            safe = np.where(distw > 1e-12, distw, 1.0)
            unit = dw / safe[..., None]
            unit = np.where((distw > 1e-12)[..., None], unit, normal)
            sub = np.where(hw[..., None], cw + unit * radius, sub)
        if out is pos:
            out = pos.copy()
        out[rows] = sub
    return out


def range_bearing_arrays(
    ox: np.ndarray,
    oy: np.ndarray,
    heading: np.ndarray,
    tx: np.ndarray,
    ty: np.ndarray,
    max_range: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised range, relative bearing, and a sensed mask for arrays."""
    dx = tx - ox
    dy = ty - oy
    dist = np.sqrt(dx * dx + dy * dy)
    sensed = dist <= max_range
    bearing = normalize_angle(np.arctan2(dy, dx) - heading)
    return dist / max_range, bearing, sensed


def square_arena(size: float) -> Arena:
    """A closed square arena with corners at (0, 0) and (size, size)."""
    s = size
    return Arena(((0, 0, s, 0), (s, 0, s, s), (s, s, 0, s), (0, s, 0, 0)))
