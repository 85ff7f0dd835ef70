"""From per-step feature samples to a comparable behaviour characterisation.

The pipeline: per-step features are aggregated into a raw characterisation
(mean block, final block, normalised duration), the current population's
raw characterisations define z-score coefficients, feature weights are the
mutual information between each component and fitness plus a floor, and
behaviour distance is the Euclidean distance between transformed vectors.

The simulation loop keeps only each trial's running feature total and
last row, and `aggregate_batch` turns those into the raw characterisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class StandardisationCoefficients:
    mu: np.ndarray
    sigma: np.ndarray

    def __len__(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class FeatureWeights:
    """Per-component weights, each the MI estimate plus the floor `delta`."""

    weights: np.ndarray
    delta: float = 0.25


def characterisation_schema(feature_names: Sequence[str]) -> tuple[str, ...]:
    """Aggregated component names: every feature as (M) then (F), plus duration."""
    means = tuple(f"{n} (M)" for n in feature_names)
    finals = tuple(f"{n} (F)" for n in feature_names)
    return means + finals + ("simulation length",)


def aggregate_batch(
    total: np.ndarray, final: np.ndarray, steps: np.ndarray, max_steps: int
) -> np.ndarray:
    """Raw characterisations of a batch of trials: per trial, the mean of
    its per-step features, then its final features, then its elapsed
    steps / `max_steps`; components are named by `characterisation_schema`.

    `total` (B, F) is the sum of each trial's per-step features in step
    order, `final` (B, F) its last feature row and `steps` (B,) its elapsed
    step count.  Returns (B, 2F+1).
    """
    means = total / steps[:, None]
    duration = steps[:, None] / max_steps
    return np.concatenate([means, final, duration], axis=1)


def compute_standardisation(population: np.ndarray) -> StandardisationCoefficients:
    """Per-component mean and (population) standard deviation of the
    (n, L) raw characterisations of a population."""
    mat = np.asarray(population, dtype=float)
    if mat.shape[0] == 0:
        raise ValueError("cannot standardise an empty population")
    return StandardisationCoefficients(mu=mat.mean(axis=0), sigma=mat.std(axis=0))


def apply_standardisation(b: np.ndarray, c: StandardisationCoefficients) -> np.ndarray:
    """Z-score one vector, or each row of an (n, L) matrix; components
    with zero spread map to 0."""
    v = np.asarray(b, dtype=float)
    if v.shape[-1] != len(c):
        raise ValueError("characterisation and coefficient lengths differ")
    sigma = np.where(c.sigma > 0.0, c.sigma, 1.0)
    return np.where(c.sigma > 0.0, (v - c.mu) / sigma, 0.0)


def _bin(x: np.ndarray, quantiles: np.ndarray) -> tuple[np.ndarray, int]:
    """Equal-frequency binning with edges at the given quantiles of `x`;
    duplicate edges collapse, so low-cardinality data gets correspondingly
    few bins.  A value sitting exactly on an edge belongs to the upper bin."""
    edges = np.unique(quantiles)
    return np.searchsorted(edges, x, side="right"), len(edges) + 1


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def mi_bin_count(n: int, bins_min: int = 4, bins_max: int = 16) -> int:
    return int(min(max(math.ceil(math.sqrt(n)), bins_min), bins_max))


def _mutual_information(
    columns: np.ndarray, y: np.ndarray, bins_min: int, bins_max: int
) -> np.ndarray:
    """(K,) `estimate_mutual_information` of each column of the (n, K)
    `columns` with `y`, which is binned once."""
    n = len(y)
    if n < 2:
        raise ValueError("mutual information needs at least 2 samples")
    b = mi_bin_count(n, bins_min, bins_max)
    q = np.arange(1, b) / b
    by, ky = _bin(y, np.quantile(y, q))
    hy = _entropy(np.bincount(by, minlength=ky), n)
    mi = np.empty(columns.shape[1])
    for k, quantiles in enumerate(np.quantile(columns, q, axis=0).T):
        bx, kx = _bin(columns[:, k], quantiles)
        hx = _entropy(np.bincount(bx, minlength=kx), n)
        hxy = _entropy(np.bincount(bx * ky + by, minlength=kx * ky), n)
        mi[k] = max(0.0, hx + hy - hxy)
    return mi


def estimate_mutual_information(
    feature: Sequence[float] | np.ndarray,
    fitness: Sequence[float] | np.ndarray,
    bins_min: int = 4,
    bins_max: int = 16,
) -> float:
    """Plug-in mutual information estimate in bits.

    Both variables are discretised with equal-frequency bins (sqrt-of-n
    count, clamped), the joint histogram gives H(X) + H(Y) - H(X, Y), and
    the result is clamped at 0 from below.
    """
    x = np.asarray(feature, dtype=float)
    y = np.asarray(fitness, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("feature and fitness must be equal-length 1-d sequences")
    return float(_mutual_information(x[:, None], y, bins_min, bins_max)[0])


def compute_weights(
    population: np.ndarray,
    fitnesses: Sequence[float],
    delta: float = 0.25,
    bins_min: int = 4,
    bins_max: int = 16,
) -> FeatureWeights:
    """Per-component weight: `delta` plus the component's MI with fitness."""
    mat = np.asarray(population, dtype=float)
    if mat.shape[0] == 0:
        raise ValueError("cannot weight an empty population")
    fit = np.asarray(fitnesses, dtype=float)
    if mat.shape[0] != len(fit):
        raise ValueError("population and fitnesses differ in length")
    mi = _mutual_information(mat, fit, bins_min, bins_max)
    return FeatureWeights(weights=delta + mi, delta=delta)


def apply_weights(b: np.ndarray, w: FeatureWeights) -> np.ndarray:
    """Component-wise product of a transformed characterisation and weights."""
    v = np.asarray(b, dtype=float)
    if v.shape[-1] != len(w.weights):
        raise ValueError("characterisation and weight lengths differ")
    return v * w.weights


def behaviour_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two (transformed) characterisations."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise ValueError("characterisation lengths differ")
    return float(np.linalg.norm(av - bv))
