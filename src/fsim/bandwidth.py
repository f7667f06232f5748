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
    minimize_each,
    minimize_lockstep,
    resolve_init,
    safe_objective,
)

CURVATURE_EXPONENT = 5.0 / 7.0
METHODS = ("gcv", "kfold")


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
    (outcome,) = _kfold_grid(data, [init], [h], folds, seed, budget)
    if isinstance(outcome, EstimationError):
        raise outcome
    return outcome


def _kfold_grid(data: Dataset, starts, hs, folds: int, seed, budget: int | None
                ) -> list[float | EstimationError]:
    """:func:`kfold_score` at every bandwidth of ``hs`` from its start in ``starts``.

    The fold searches of every bandwidth run as one lockstep.  Each entry
    is the bandwidth's score or the :class:`EstimationError` its
    :func:`kfold_score` raises; a failed fold's sibling searches still run
    and are discarded.
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
    starts = np.asarray(starts, dtype=float)
    results = minimize_lockstep(data, trains * len(hs), np.repeat(starts, folds, axis=0),
                                np.repeat(hs, folds), budget)
    outcomes = []
    for k, h in enumerate(hs):
        fold_results = results[k * folds:(k + 1) * folds]
        failure = next((r for r in fold_results if isinstance(r, EstimationError)), None)
        outcomes.append(failure if failure is not None
                        else _held_out_score(data, trains, held_outs, fold_results, h))
    return outcomes


def _held_out_score(data: Dataset, trains, held_outs, results, h: float):
    """Mean squared held-out error of the fold fits, or the :class:`SelectionError`
    of a bandwidth whose every held-out point is excluded."""
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
        return SelectionError(f"every held-out point excluded at h={h:.6g}")
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
                     budget: int | None = None, sign_reference=None,
                     start: tuple[np.ndarray, str] | None = None) -> CVReport:
    """Score every grid bandwidth and return the argmin with its final fit.

    Coefficients are refit for every bandwidth.  GCV scores the smoother of
    the per-bandwidth fit; k-fold scores held-out prediction error.  A
    bandwidth whose search or score raises :class:`EstimationError` scores
    infinity; ties and exact score repeats resolve toward the larger
    bandwidth, which is the safer side for curvature estimation.  K-fold
    with fewer samples than folds raises the :class:`SelectionError` of
    :func:`kfold_score`.

    The start rule: a deterministic strategy starts every search from its one
    start vector: ``start``, the ``(vector, label)`` of :func:`resolve_init`
    when the caller has resolved it already, else resolved here.  The random
    strategy draws its pool once, prefiltered at ``grid.reference``, and at
    each bandwidth h runs one search from the candidate that scores best at
    h (:func:`choose_random_start`), so different bandwidths may start from
    different candidates.

    The searches of every bandwidth with a start run as one lockstep, each
    with the result it would have alone: GCV runs one full-data search per
    bandwidth (:func:`fsim.optimize.minimize_each`) and keeps the winner's
    fit; k-fold refits every training fold from the start of its bandwidth
    (the result :func:`kfold_score` would give there), then refits the
    winner on all the data.
    """
    if method not in METHODS:
        raise ValueError(f"method must be 'gcv' or 'kfold', got {method!r}")
    pool = init_random(data, grid.reference, strategy) if strategy.kind == "random" else None
    fixed = None
    if pool is None:
        fixed = start if start is not None else resolve_init(data, strategy)
    starts: dict[int, tuple] = {}
    for k, h in enumerate(grid.values):
        try:
            starts[k] = fixed if pool is None else choose_random_start(data, h, pool)
        except EstimationError:
            continue

    keys = list(starts)
    inits, hs = [starts[k][0] for k in keys], grid.values[keys]
    outcomes = []
    if keys and method == "gcv":
        fits = minimize_each(data, inits, hs, budget, sign_reference,
                             [starts[k][1] for k in keys])
        outcomes = [_gcv_outcome(data, fit, h) for fit, h in zip(fits, hs)]
    elif keys:
        outcomes = _kfold_grid(data, inits, hs, folds, seed, budget)
    scores = np.full(grid.values.size, np.inf)
    for k, outcome in zip(keys, outcomes):
        if not isinstance(outcome, EstimationError):
            scores[k] = outcome
    chosen = argmin_prefer_larger(scores)
    chosen_h = float(grid.values[chosen])
    if method == "gcv":
        best_fit = fits[keys.index(chosen)]
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


def _gcv_outcome(data: Dataset, fit: OptResult | EstimationError, h: float):
    """The GCV score of a grid search's fit, or the :class:`EstimationError`
    of the search or of its score."""
    if isinstance(fit, EstimationError):
        return fit
    try:
        return gcv_score(data, fit.spec, h)
    except EstimationError as exc:
        return exc


def fit_pipeline(data: Dataset, strategy: InitStrategy, grid_size: int, method: str,
                 folds: int, seed, budget: int | None, sign_reference=None) -> CVReport:
    """The estimation pipeline: anchor the default grid, then select the bandwidth.

    The grid is :meth:`BandwidthGrid.default` with ``grid_size`` values at the
    index scale of a reference vector: the strategy's start, resolved once
    and passed on to the search, or the all-equal vector for the random
    strategy, which has no single start.  A constant reference index raises
    :class:`SelectionError`.
    """
    if strategy.kind == "random":
        start = None
        reference = init_equal(data.search_dimension())
    else:
        start = resolve_init(data, strategy)
        reference = start[0]
    sigma_z = float(np.std(compute_index(data, spec_from_raw(data, reference, 1.0))))
    if sigma_z <= 0.0:
        raise SelectionError("reference index is constant; no usable bandwidth scale")
    grid = BandwidthGrid.default(data.n, sigma_z, grid_size)
    return select_bandwidth(data, strategy, grid, method, folds, seed, budget, sign_reference,
                            start)
