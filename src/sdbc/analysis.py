"""Post-hoc analysis: behaviour-space maps, feature relevance, run comparison.

A Kohonen map trained on pooled characterisations projects behaviour onto
a 2D grid; per-method visit counts of the grid cells show how much of the
behaviour space each method explored.  Feature relevance tables aggregate
the per-generation mutual-information dumps, and methods are compared with
the Mann-Whitney U test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .runio import _replace_file

SOM_LR_START, SOM_LR_END = 0.5, 0.02  # learning rate over the presentations
SOM_RADIUS_END = 0.2  # final neighbourhood radius, in grid cells
BMU_CHUNK = 4096  # samples per block of the (block, cells, dim) difference array
EXACT_MAX_N = 8  # largest sample size that gets Mann-Whitney's exact p
SVG_CELL_PX = 40


@dataclass
class SomGrid:
    """Trained map: unit prototypes on a width x height grid."""

    width: int
    height: int
    prototypes: np.ndarray  # (width * height, dim)

    def bmu_batch(self, xs: np.ndarray) -> np.ndarray:
        """Best-matching unit of each sample; ties break toward the lowest
        cell index."""
        out = np.empty(len(xs), dtype=int)
        for start in range(0, len(xs), BMU_CHUNK):
            block = xs[start : start + BMU_CHUNK]
            sq = ((block[:, None, :] - self.prototypes[None, :, :]) ** 2).sum(axis=2)
            out[start : start + BMU_CHUNK] = sq.argmin(axis=1)
        return out

    def quantization_error(self, xs: np.ndarray) -> float:
        bmus = self.bmu_batch(xs)
        return float(np.sqrt(((xs - self.prototypes[bmus]) ** 2).sum(axis=1)).mean())


def train_som(
    samples: np.ndarray,
    width: int,
    height: int,
    epochs: int,
    rng: np.random.Generator,
) -> SomGrid:
    """Classic online SOM training, deterministic for a given generator.

    Each sample updates its best-matching unit and a Gaussian neighbourhood;
    learning rate and radius decay exponentially over the presentations.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or len(samples) == 0:
        raise ValueError("samples must be a non-empty (n, dim) array")
    n, dim = samples.shape
    cells = width * height
    coords = np.array([(i % width, i // width) for i in range(cells)], dtype=float)
    protos = samples[rng.integers(0, n, cells)].copy()
    radius_start = max(width, height) / 2.0
    total = max(n * epochs - 1, 1)
    step = 0
    for _ in range(epochs):
        for idx in rng.permutation(n):
            x = samples[idx]
            frac = step / total
            lr = SOM_LR_START * (SOM_LR_END / SOM_LR_START) ** frac
            radius = radius_start * (SOM_RADIUS_END / radius_start) ** frac
            d = ((protos - x) ** 2).sum(axis=1)
            bmu = int(d.argmin())
            grid_sq = ((coords - coords[bmu]) ** 2).sum(axis=1)
            influence = np.exp(-grid_sq / (2.0 * radius * radius))
            protos += lr * influence[:, None] * (x - protos)
            step += 1
    return SomGrid(width=width, height=height, prototypes=protos)


def exploration_density(
    grid: SomGrid,
    samples_by_method: dict[str, tuple[np.ndarray, np.ndarray]],
) -> tuple[dict[str, np.ndarray], int]:
    """Per-cell visit counts for each method, plus the best-fitness cell.

    `samples_by_method` maps method name to (characterisations, fitnesses).
    The highlighted cell is the one with the highest mean fitness over the
    pooled samples.
    """
    cells = grid.width * grid.height
    counts: dict[str, np.ndarray] = {}
    fit_sum = np.zeros(cells)
    fit_n = np.zeros(cells)
    for method, (xs, fs) in samples_by_method.items():
        bmus = grid.bmu_batch(np.asarray(xs, dtype=float))
        counts[method] = np.bincount(bmus, minlength=cells)
        np.add.at(fit_sum, bmus, np.asarray(fs, dtype=float))
        np.add.at(fit_n, bmus, 1.0)
    mean_fit = np.where(fit_n > 0, fit_sum / np.maximum(fit_n, 1), -np.inf)
    return counts, int(mean_fit.argmax())


def mi_relevance_table(
    per_generation_mi: Sequence[dict[str, float]],
) -> list[tuple[str, float, float]]:
    """Aggregate per-generation MI readings into (feature, mean, sd) rows.

    Input rows map feature name to an MI value; one row per generation per
    run, pooled.  The output is sorted by mean MI, descending.
    """
    if not per_generation_mi:
        raise ValueError("no MI records to aggregate")
    by_feature: dict[str, list[float]] = {}
    for row in per_generation_mi:
        for name, value in row.items():
            by_feature.setdefault(name, []).append(value)
    table = [
        (name, float(np.mean(vals)), float(np.std(vals)))
        for name, vals in by_feature.items()
    ]
    table.sort(key=lambda r: -r[1])
    return table


def _rankdata(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); ties share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(
    a: Sequence[float],
    b: Sequence[float],
    alternative: str = "two-sided",
) -> tuple[float, float]:
    """Mann-Whitney U (for sample a) with a tie-corrected p-value.

    Small samples (both sizes <= `EXACT_MAX_N`) get an exact p by
    enumerating all group assignments of the pooled values; larger samples
    use the normal approximation with tie correction and continuity
    correction.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise ValueError("both samples must be non-empty")
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative {alternative!r}")
    n1, n2 = len(x), len(y)
    pooled = np.concatenate([x, y])
    ranks = _rankdata(pooled)
    offset = n1 * (n1 + 1) / 2.0
    u1 = ranks[:n1].sum() - offset

    if n1 <= EXACT_MAX_N and n2 <= EXACT_MAX_N:
        # U of every assignment of n1 pooled values to sample a; the ranks
        # are half-integers, so every sum and count is exact
        groups = np.array(list(itertools.combinations(range(n1 + n2), n1)))
        u = ranks[groups].sum(axis=1) - offset
        total = len(u)
        u_min = min(u1, n1 * n2 - u1)
        eps = 1e-9
        if alternative == "greater":
            p = np.count_nonzero(u >= u1 - eps) / total
        elif alternative == "less":
            p = np.count_nonzero(u <= u1 + eps) / total
        else:
            lo = np.count_nonzero(u <= u_min + eps)
            hi = np.count_nonzero(u >= n1 * n2 - u_min - eps)
            p = min(1.0, (lo + hi) / total)
            if n1 * n2 - u_min <= u_min + eps:  # everything is "extreme"
                p = 1.0
        return float(u1), float(p)

    # normal approximation with tie correction
    _, counts = np.unique(pooled, return_counts=True)
    n = n1 + n2
    tie_term = (counts**3 - counts).sum() / (n * (n - 1))
    var = n1 * n2 / 12.0 * (n + 1 - tie_term)
    if var <= 0:
        return float(u1), 1.0
    mean = n1 * n2 / 2.0
    sd = math.sqrt(var)
    if alternative == "greater":
        z = (u1 - mean - 0.5) / sd
        p = _norm_sf(z)
    elif alternative == "less":
        z = (u1 - mean + 0.5) / sd
        p = 1.0 - _norm_sf(z)
    else:
        z = (abs(u1 - mean) - 0.5) / sd
        p = 2.0 * _norm_sf(z)
    return float(u1), float(min(1.0, max(0.0, p)))


def write_som_svg(
    path: str,
    grid: SomGrid,
    counts: np.ndarray,
    best_cell: int | None = None,
    title: str = "",
) -> None:
    """Self-contained SVG heat map: circle area encodes per-cell count."""
    w, h, cell_px = grid.width, grid.height, SVG_CELL_PX
    pad = 10
    top = 24 if title else 0
    width_px = w * cell_px + 2 * pad
    height_px = h * cell_px + 2 * pad + top
    max_count = max(counts.max(), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        f'<rect width="{width_px}" height="{height_px}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{pad}" y="16" font-family="sans-serif" font-size="13">{title}</text>'
        )
    for cell in range(w * h):
        cx = pad + (cell % w) * cell_px + cell_px / 2
        cy = top + pad + (cell // w) * cell_px + cell_px / 2
        parts.append(
            f'<rect x="{cx - cell_px / 2:.1f}" y="{cy - cell_px / 2:.1f}" '
            f'width="{cell_px}" height="{cell_px}" fill="none" stroke="#ddd"/>'
        )
        if counts[cell] > 0:
            r = 0.45 * cell_px * math.sqrt(counts[cell] / max_count)
            parts.append(
                f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{r:.2f}" '
                f'fill="#4477aa" fill-opacity="0.75"/>'
            )
        if best_cell is not None and cell == best_cell:
            parts.append(
                f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{0.48 * cell_px:.2f}" '
                f'fill="none" stroke="#cc3311" stroke-width="2.5"/>'
            )
    parts.append("</svg>")
    text = "\n".join(parts)
    _replace_file(Path(path), lambda fh: fh.write(text))
