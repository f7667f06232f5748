"""Bandwidth selection over a grid: GCV of the local quadratic smoother, k-fold CV,
and the power-law rescale that trades the level-optimal bandwidth for a
curvature-friendly one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import readonly_array
from .locfit import EstimationError, level_fits, nw_predict
from .model import Dataset, IndexModelSpec, compute_index, spec_from_raw
from .optimize import (
    InitStrategy,
    OptResult,
    init_equal,
    init_random,
    minimize,
    minimize_lockstep,
    resolve_init,
    safe_objective,
)

CURVATURE_EXPONENT = 5.0 / 7.0


class SelectionError(EstimationError):
    """Bandwidth selection could not produce a usable score."""


@dataclass(frozen=True)
class BandwidthGrid:
    """Strictly increasing positive candidate bandwidths."""

    values: np.ndarray

    def __post_init__(self):
        values = readonly_array(self.values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("grid must be a nonempty vector")
        if np.any(values <= 0.0) or np.any(np.diff(values) <= 0.0):
            raise ValueError("grid values must be positive and strictly increasing")
        object.__setattr__(self, "values", values)

    @classmethod
    def default(cls, n: int, sigma_z: float, count: int = 10) -> "BandwidthGrid":
        """Log-spaced grid spanning 0.5 n^{-1/6} to 2 n^{-1/8} index standard
        deviations, bracketing the consistency window for the curvature."""
        if n < 2 or sigma_z <= 0.0:
            raise ValueError("need n >= 2 and a positive index scale")
        low = 0.5 * n ** (-1.0 / 6.0) * sigma_z
        high = 2.0 * n ** (-1.0 / 8.0) * sigma_z
        return cls(np.geomspace(low, high, count))

    @property
    def reference(self) -> float:
        """Mean bandwidth, used to prefilter the random start pool."""
        return float(np.mean(self.values))


@dataclass(frozen=True)
class CVReport:
    """Scores over the grid and the winning bandwidth pair."""

    method: str
    grid: BandwidthGrid
    scores: np.ndarray
    chosen_h: float
    chosen_h_curvature: float
    best_fit: OptResult
    sigma_index: float

    def __post_init__(self):
        object.__setattr__(self, "scores", readonly_array(self.scores))


def argmin_prefer_larger(scores) -> int:
    """Index of the smallest finite score; exact ties resolve to the largest
    bandwidth, the safer side for curvature estimation."""
    scores = np.asarray(scores, dtype=float)
    finite = np.isfinite(scores)
    if not finite.any():
        raise SelectionError("no grid bandwidth produced a usable score")
    minimum = scores[finite].min()
    return int(np.nonzero(scores == minimum)[0][-1])


def curvature_bandwidth(h: float, sigma_z: float) -> float:
    """Rescale a level-optimal bandwidth for curvature estimation.

    The exponent map applies to a unitless bandwidth, so ``h`` is expressed
    in index standard deviations, raised to the 5/7 power, and mapped back.
    """
    if h <= 0.0 or sigma_z <= 0.0:
        raise ValueError("bandwidth and index scale must be positive")
    return float((h / sigma_z) ** CURVATURE_EXPONENT * sigma_z)


def gcv_score(data: Dataset, spec: IndexModelSpec, h: float) -> float:
    """Generalized cross-validation score of the level smoother at ``h``.

    Mean squared residual of the smoother fit divided by the squared
    normalized trace of (I - S); raises :class:`SelectionError` when the
    trace is not positive (the smoother has interpolated the data).  The
    fitted values and the diagonal of S come from one batched pass, without
    building S.
    """
    z = compute_index(data, spec)
    fitted, leverage = level_fits(z, data.y, h)
    residuals = data.y - fitted
    trace_term = (data.n - float(leverage.sum())) / data.n
    if trace_term <= 0.0:
        raise SelectionError(f"smoother trace degeneracy at h={h:.6g} (overfit)")
    return float(np.mean(residuals * residuals) / trace_term**2)


def _fold_assignment(n: int, folds: int, seed) -> list[np.ndarray]:
    permutation = np.random.default_rng(seed).permutation(n)
    return np.array_split(permutation, folds)


def kfold_score(data: Dataset, init, h: float, folds: int = 10, seed=0,
                budget: int | None = None) -> float:
    """K-fold cross-validation score of the full fit-then-predict pipeline.

    Each fold refits the coefficients on the remaining samples, searching
    from the start vector ``init``, and predicts the held-out responses by
    Nadaraya-Watson at the fitted index; the score is the mean squared
    held-out error over all predictable points.  Fold assignment is a seeded
    permutation.  The fold searches run in lockstep
    (:func:`fsim.optimize.minimize_lockstep`), each with the result a
    :func:`minimize` of its own would give.  Fewer samples than folds raise
    :class:`SelectionError`; a training fold too small for the objective
    fails its search with :class:`DegenerateObjectiveError`, the first such
    fold in fold order raising.
    """
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if data.n < folds:
        raise SelectionError(f"k-fold needs n >= {folds}, got n={data.n}")
    held_outs = _fold_assignment(data.n, folds, seed)
    trains = []
    for held_out in held_outs:
        mask = np.ones(data.n, dtype=bool)
        mask[held_out] = False
        trains.append(np.nonzero(mask)[0])
    results = minimize_lockstep(data, trains, init, h, budget)
    total_error = 0.0
    total_count = 0
    for train_indices, held_out, result in zip(trains, held_outs, results):
        train = data.subset(train_indices)
        test = data.subset(held_out)
        z_train = compute_index(train, result.spec)
        z_test = compute_index(test, result.spec)
        predictions, excluded = nw_predict(z_train, train.y, z_test, h)
        keep = ~excluded
        residuals = test.y[keep] - predictions[keep]
        total_error += float(residuals @ residuals)
        total_count += int(np.count_nonzero(keep))
    if total_count == 0:
        raise SelectionError(f"every held-out point excluded at h={h:.6g}")
    return total_error / total_count


def choose_random_start(data: Dataset, h: float, pool):
    """The candidate of the random ``pool`` with the lowest objective at ``h``.

    Returns ``(start, label)``; ties go to the earlier candidate.
    """
    scores = [safe_objective(data, candidate, h) for candidate in pool]
    best = int(np.argmin(scores))
    if not np.isfinite(scores[best]):
        raise SelectionError(f"every random start is degenerate at h={h:.6g}")
    return pool[best], f"random[{best}]"


def select_bandwidth(data: Dataset, strategy: InitStrategy, grid: BandwidthGrid,
                     method: str = "gcv", folds: int = 10, seed=0,
                     budget: int | None = None, sign_reference=None) -> CVReport:
    """Score every grid bandwidth and return the argmin with its final fit.

    Coefficients are refit for every bandwidth.  GCV scores the smoother of
    the per-bandwidth fit; k-fold scores held-out prediction error.  A
    bandwidth whose search or score raises :class:`EstimationError` scores
    infinity; ties and exact score repeats resolve toward the larger
    bandwidth, which is the safer side for curvature estimation.

    The start rule: a deterministic strategy starts every search from its one
    start vector.  The random strategy draws its pool once, prefiltered at
    ``grid.reference``, and at each bandwidth h runs one search from the
    candidate that scores best at h (:func:`choose_random_start`), so
    different bandwidths may start from different candidates.  k-fold refits
    every training fold from the start of its bandwidth.
    """
    if method not in ("gcv", "kfold"):
        raise ValueError(f"method must be 'gcv' or 'kfold', got {method!r}")
    pool = init_random(data, grid.reference, strategy) if strategy.kind == "random" else None
    fixed = resolve_init(data, strategy) if pool is None else None

    scores = np.full(grid.values.size, np.inf)
    starts: dict[int, tuple] = {}
    fits: dict[int, OptResult] = {}
    for k, h in enumerate(grid.values):
        try:
            init, label = starts[k] = fixed if pool is None else choose_random_start(data, h, pool)
            if method == "gcv":
                result = minimize(data, init, h, budget, sign_reference, label)
                fits[k] = result
                scores[k] = gcv_score(data, result.spec, h)
            else:
                scores[k] = kfold_score(data, init, h, folds, seed, budget)
        except EstimationError:
            continue
    chosen = argmin_prefer_larger(scores)
    chosen_h = float(grid.values[chosen])
    if chosen in fits:
        best_fit = fits[chosen]
    else:
        init, label = starts[chosen]
        best_fit = minimize(data, init, chosen_h, budget, sign_reference, label)
    sigma_index = float(np.std(compute_index(data, best_fit.spec)))
    if sigma_index <= 0.0:
        raise SelectionError("fitted index is constant; no usable scale")
    return CVReport(
        method=method,
        grid=grid,
        scores=scores,
        chosen_h=chosen_h,
        chosen_h_curvature=curvature_bandwidth(chosen_h, sigma_index),
        best_fit=best_fit,
        sigma_index=sigma_index,
    )


def fit_pipeline(data: Dataset, strategy: InitStrategy, grid_size: int, method: str,
                 folds: int, seed, budget: int | None, sign_reference=None) -> CVReport:
    """The estimation pipeline: anchor the default grid, then select the bandwidth.

    The grid is :meth:`BandwidthGrid.default` with ``grid_size`` values at the
    index scale of a reference vector: the strategy's start, or the all-equal
    vector for the random strategy, which has no single start.  A constant
    reference index raises :class:`SelectionError`.
    """
    if strategy.kind == "random":
        reference = init_equal(data.search_dimension())
    else:
        reference = resolve_init(data, strategy)[0]
    sigma_z = float(np.std(compute_index(data, spec_from_raw(data, reference, 1.0))))
    if sigma_z <= 0.0:
        raise SelectionError("reference index is constant; no usable bandwidth scale")
    grid = BandwidthGrid.default(data.n, sigma_z, grid_size)
    return select_bandwidth(data, strategy, grid, method, folds, seed, budget, sign_reference)
