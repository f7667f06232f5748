"""Bandwidth selection over a grid: GCV of the local quadratic smoother, k-fold CV,
and the power-law rescale that trades the level-optimal bandwidth for a
curvature-friendly one.

Both methods run one plan, search, select shape: the plan picks each grid
bandwidth's start and, for k-fold, splits the samples; every planned search
runs in one lockstep of :func:`fsim.optimize.minimize_each`, on the full
data (GCV) or on the training folds (k-fold); the selection scores the
searches and takes the argmin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import readonly_array
from .locfit import EstimationError, check_bandwidth, level_fits, nw_predict, raise_failure
from .model import (
    Dataset,
    IndexModelSpec,
    StackedObjective,
    compute_index,
    search_index,
    spec_from_raw,
)
from .optimize import (
    InitStrategy,
    OptResult,
    init_equal,
    init_random,
    minimize,
    minimize_each,
    resolve_init,
)

CURVATURE_EXPONENT = 5.0 / 7.0
METHODS = ("gcv", "kfold")
# the smallest normalized trace of I - S a GCV score takes: an interpolating
# smoother has trace n, which the batched leverages reach only within their
# rounding, so an exact comparison with 0 passes or fails it by chance
MIN_TRACE_TERM = float(np.sqrt(np.finfo(float).eps))


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
        check_bandwidth(values, "grid values")
        if np.any(np.diff(values) <= 0.0):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "values", values)

    @classmethod
    def default(cls, n: int, sigma_z: float, count: int = 10) -> "BandwidthGrid":
        """Log-spaced grid spanning 0.5 n^{-1/6} to 2 n^{-1/8} index standard
        deviations, bracketing the consistency window for the curvature."""
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        check_bandwidth(sigma_z, "index scale")
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

    @property
    def chosen_score(self) -> float:
        """The smallest finite grid score, the one ``chosen_h`` won with."""
        return float(np.min(self.scores[np.isfinite(self.scores)]))


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
    check_bandwidth(h)
    check_bandwidth(sigma_z, "index scale")
    return float((h / sigma_z) ** CURVATURE_EXPONENT * sigma_z)


def gcv_score(data: Dataset, spec: IndexModelSpec, h: float) -> float:
    """Generalized cross-validation score of the level smoother at ``h``.

    Mean squared residual of the smoother fit divided by the squared
    normalized trace of (I - S); raises :class:`SelectionError` when that
    trace is not above ``MIN_TRACE_TERM`` (the smoother has interpolated the
    data).  The fitted values and the diagonal of S come from one batched
    pass, without building S.
    """
    z = compute_index(data, spec)
    fitted, leverage = level_fits(z, data.y, h)
    residuals = data.y - fitted
    trace_term = (data.n - float(leverage.sum())) / data.n
    if trace_term <= MIN_TRACE_TERM:
        raise SelectionError(f"smoother trace degeneracy at h={h:.6g} (overfit)")
    return float(np.mean(residuals * residuals) / trace_term**2)


def _fold_assignment(n: int, folds: int, seed) -> list[np.ndarray]:
    permutation = np.random.default_rng(seed).permutation(n)
    return np.array_split(permutation, folds)


def _fold_split(n: int, folds: int, seed) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The training and held-out indices of every fold of the seeded split."""
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise SelectionError(f"k-fold needs n >= {folds}, got n={n}")
    held_outs = _fold_assignment(n, folds, seed)
    trains = []
    for held_out in held_outs:
        mask = np.ones(n, dtype=bool)
        mask[held_out] = False
        trains.append(np.nonzero(mask)[0])
    return trains, held_outs


def kfold_score(data: Dataset, init, h: float, folds: int = 10, seed=0,
                budget: int | None = None) -> float:
    """K-fold cross-validation score of the full fit-then-predict pipeline.

    Each fold refits the coefficients on the remaining samples, searching
    from the start vector ``init``, and predicts the held-out responses by
    Nadaraya-Watson at the fitted index; the score is the mean squared
    held-out error over all predictable points.  Fold assignment is a seeded
    permutation.  The fold searches run in lockstep
    (:func:`fsim.optimize.minimize_each` on the training folds), each with
    the result a :func:`minimize` of its own would give.  Fewer samples
    than folds raise :class:`SelectionError`; a training fold too small for
    the objective fails its search with :class:`DegenerateObjectiveError`,
    the first such fold in fold order raising.
    """
    split = _fold_split(data.n, folds, seed)
    # the fold results stay out of this frame, as the failure may be one of them
    return raise_failure(_held_out_score(data, split, minimize_each(
        data, init, [h] * folds, budget, None, ["custom"] * folds, split[0]), h))


def _held_out_score(data: Dataset, split, results, h: float):
    """Mean squared held-out error of one bandwidth's fold fits on ``split``;
    else the error of its first failed fold search, or the
    :class:`SelectionError` of a bandwidth whose every held-out point is
    excluded.  Each fold's index values are gathered from one stacked
    full-data :func:`search_index` of the fold specs, within one rounding
    of those of ``data.subset``: the score moved by up to 1.1e-15 relative
    on simulated draws, with the same excluded points.
    """
    failure = next((r for r in results if isinstance(r, EstimationError)), None)
    if failure is not None:
        return failure
    z = search_index(data, np.stack([result.spec.search_vector() for result in results]))[0]
    total_error = 0.0
    total_count = 0
    for z_fold, train, held_out in zip(z, *split):
        predictions, excluded = nw_predict(z_fold[train], data.y[train], z_fold[held_out], h)
        keep = ~excluded
        residuals = data.y[held_out][keep] - predictions[keep]
        total_error += float(residuals @ residuals)
        total_count += int(np.count_nonzero(keep))
    if total_count == 0:
        return SelectionError(f"every held-out point excluded at h={h:.6g}")
    return total_error / total_count


def choose_random_start(data: Dataset, h: float, pool):
    """The candidate of the random ``pool`` with the lowest objective at ``h``.

    Returns ``(start, label)``; ties go to the earlier candidate.  The pool
    is scored in one full-data :class:`fsim.model.StackedObjective` call.
    """
    scores = StackedObjective(data, None, h)(np.zeros(len(pool), dtype=int), pool)
    best = int(np.argmin(scores))
    if not np.isfinite(scores[best]):
        raise SelectionError(f"every random start is degenerate at h={h:.6g}")
    return pool[best], f"random[{best}]"


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be 'gcv' or 'kfold', got {method!r}")


@dataclass(frozen=True)
class _GridSearches:
    """One strategy's planned grid searches, run.

    ``starts`` maps the grid index of every bandwidth with a start to its
    ``(vector, label)``, in grid order.  ``results`` holds, in the same
    order, each bandwidth's full-data search (GCV) or the searches of its
    training folds (k-fold, on the ``(trains, held_outs)`` of ``split``);
    a failed search keeps its error.
    """

    starts: dict
    results: list
    split: tuple | None = None


def _plan(data: Dataset, strategy: InitStrategy, grid: BandwidthGrid, method: str,
          folds: int, seed, start: tuple[np.ndarray, str] | None = None) -> tuple:
    """``(starts, split)``: the ``(vector, label)`` start of every grid bandwidth
    that has one, by grid index, and for k-fold the :func:`_fold_split` by ``seed``.

    A deterministic strategy starts every bandwidth from ``start``, else from
    :func:`resolve_init`; the random strategy draws its pool at
    ``grid.reference`` and takes each bandwidth's :func:`choose_random_start`,
    and a bandwidth where every candidate is degenerate has no start.  A
    plan with no start is not split; a k-fold plan with fewer samples than
    folds raises the :class:`SelectionError` of :func:`_fold_split`.
    """
    pool = init_random(data, grid.reference, strategy) if strategy.kind == "random" else None
    fixed = None
    if pool is None:
        fixed = start if start is not None else resolve_init(data, strategy)
    starts = {}
    for k, h in enumerate(grid.values):
        try:
            starts[k] = fixed if pool is None else choose_random_start(data, h, pool)
        except EstimationError:
            continue
    split = _fold_split(data.n, folds, seed) if method == "kfold" and starts else None
    return starts, split


def _run_searches(data: Dataset, grids, plans, method: str, budget: int | None,
                  sign_reference) -> list[_GridSearches]:
    """The :class:`_GridSearches` of every strategy: ``plans[i]`` (:func:`_plan`) on
    ``grids[i]``.

    Every planned search of every strategy runs in one lockstep of
    :func:`fsim.optimize.minimize_each`, with the result it would have
    alone: GCV runs one full-data search per planned bandwidth, k-fold one
    search per planned bandwidth and training fold of its strategy's split,
    with the sign and label of a :func:`minimize` of its own.
    """
    searches = []  # (start, h, label, training indices or None), strategy by strategy
    for grid, (starts, split) in zip(grids, plans):
        trains = [None] if split is None else split[0]
        searches.extend((init, grid.values[k], label if split is None else "custom", train)
                        for k, (init, label) in starts.items() for train in trains)
    results = []
    if searches:
        inits, hs, labels, trains = zip(*searches)
        kfold = method == "kfold"
        results = minimize_each(data, np.array(inits), hs, budget,
                                None if kfold else sign_reference, list(labels),
                                list(trains) if kfold else None)
    grid_searches = []
    at = 0
    for starts, split in plans:
        per = 1 if split is None else len(split[0])
        mine = results[at:at + per * len(starts)]
        at += len(mine)
        if split is not None:
            mine = [mine[j:j + per] for j in range(0, len(mine), per)]
        grid_searches.append(_GridSearches(starts, mine, split))
    return grid_searches


def select_bandwidth(data: Dataset, strategy: InitStrategy, grid: BandwidthGrid,
                     method: str = "gcv", folds: int = 10, seed=0,
                     budget: int | None = None, sign_reference=None,
                     searches: _GridSearches | None = None) -> CVReport:
    """Score every grid bandwidth and return the argmin with its final fit.

    Coefficients are refit for every bandwidth.  GCV scores the smoother of
    the per-bandwidth fit; k-fold scores held-out prediction error.  A
    bandwidth whose search or score raises :class:`EstimationError` scores
    infinity; ties and exact score repeats resolve toward the larger
    bandwidth, which is the safer side for curvature estimation.  K-fold
    with fewer samples than folds raises the :class:`SelectionError` of
    :func:`_fold_split`, as :func:`kfold_score` does.

    The start rule (:func:`_plan`): a deterministic strategy starts every
    search from its one start vector (:func:`resolve_init`).  The random
    strategy draws its pool once, prefiltered at ``grid.reference``, and at
    each bandwidth h runs one search from the candidate that scores best at
    h (:func:`choose_random_start`), so different bandwidths may start from
    different candidates.

    GCV runs one full-data search per bandwidth and keeps the winner's fit;
    k-fold refits every training fold from the start of its bandwidth (the
    result :func:`kfold_score` would give there), then refits the winner on
    all the data in a search of its own.  ``searches`` is this strategy's
    :class:`_GridSearches`, already run by :func:`fit_pipelines` in one
    lockstep with other strategies' searches; without it this call plans
    and runs them itself, through the same helpers.  Either way each search
    has the result it would have alone.
    """
    _check_method(method)
    if searches is None:
        plan = _plan(data, strategy, grid, method, folds, seed)
        (searches,) = _run_searches(data, [grid], [plan], method, budget, sign_reference)
    keys = list(searches.starts)
    hs = grid.values[keys]
    if method == "gcv":
        outcomes = [_gcv_outcome(data, fit, h) for fit, h in zip(searches.results, hs)]
    else:
        outcomes = [_held_out_score(data, searches.split, fold_results, h)
                    for fold_results, h in zip(searches.results, hs)]
    scores = np.full(grid.values.size, np.inf)
    for k, outcome in zip(keys, outcomes):
        if not isinstance(outcome, EstimationError):
            scores[k] = outcome
    chosen = argmin_prefer_larger(scores)
    chosen_h = float(grid.values[chosen])
    if method == "gcv":
        best_fit = searches.results[keys.index(chosen)]
    else:
        init, label = searches.starts[chosen]
        best_fit = minimize(data, init, chosen_h, budget, sign_reference, label)
    sigma_index = float(np.std(compute_index(data, best_fit.spec)))
    if not 0.0 < sigma_index < np.inf:
        raise SelectionError("fitted index is constant or not finite; no usable scale")
    return CVReport(
        method=method,
        grid=grid,
        scores=scores,
        chosen_h=chosen_h,
        chosen_h_curvature=curvature_bandwidth(chosen_h, sigma_index),
        best_fit=best_fit,
        sigma_index=sigma_index,
    )


def _failure(exc: EstimationError) -> EstimationError:
    """``exc``, kept as a failure, without its traceback and chained errors.

    A caught error's frames link back to the frame that keeps the list of
    failures, so they would hold every failed call's arrays in a reference
    cycle until the cyclic collector runs.  The message stays whole.
    """
    exc.__cause__ = exc.__context__ = None
    return exc.with_traceback(None)


def _gcv_outcome(data: Dataset, fit: OptResult | EstimationError, h: float):
    """The GCV score of a grid search's fit, or the :class:`EstimationError`
    of the search or of its score (:func:`_failure`)."""
    if isinstance(fit, EstimationError):
        return fit
    try:
        return gcv_score(data, fit.spec, h)
    except EstimationError as exc:
        return _failure(exc)


def _anchored_grid(data: Dataset, strategy: InitStrategy, grid_size: int):
    """The default grid of ``grid_size`` values at the index scale of the
    strategy's reference vector, and its resolved start (None for random)."""
    if strategy.kind == "random":
        start = None
        reference = init_equal(data.search_dimension())
    else:
        start = resolve_init(data, strategy)
        reference = start[0]
    sigma_z = float(np.std(compute_index(data, spec_from_raw(data, reference))))
    if not 0.0 < sigma_z < np.inf:
        raise SelectionError(
            "reference index is constant or not finite; no usable bandwidth scale")
    return BandwidthGrid.default(data.n, sigma_z, grid_size), start


def fit_pipelines(data: Dataset, strategies, grid_size: int, method: str, folds: int,
                  seeds, budget: int | None, sign_reference=None
                  ) -> list[CVReport | EstimationError]:
    """:func:`fit_pipeline` for each strategy, with one lockstep for all their grid searches.

    Entry i is the report of ``fit_pipeline(data, strategies[i], grid_size,
    method, folds, seeds[i], budget, sign_reference)``, or the
    :class:`EstimationError` it raises, bit for bit.  The work runs in three
    stages:

    - plan, per strategy: anchor the grid, resolve the start or draw the
      random pool, pick the start of each grid bandwidth, and for k-fold
      split the samples by the strategy's own fold seed (:func:`_plan`);
    - search, once: every planned search of every strategy runs as one
      lockstep (:func:`_run_searches`);
    - select, per strategy: :func:`select_bandwidth` scores the strategy's
      searches and picks its bandwidth, refitting the winner for k-fold.

    A strategy whose plan or selection raises :class:`EstimationError` fails
    alone, and its slot holds the :func:`_failure`; any other exception
    propagates.
    """
    _check_method(method)
    outcomes: list = [None] * len(strategies)
    planned = []  # (strategy index, grid, starts) of every strategy whose plan held
    for i, strategy in enumerate(strategies):
        try:
            grid, start = _anchored_grid(data, strategy, grid_size)
            planned.append((i, grid, _plan(data, strategy, grid, method, folds, seeds[i],
                                           start)))
        except EstimationError as exc:
            outcomes[i] = _failure(exc)
    searches = _run_searches(data, [grid for _, grid, _ in planned],
                             [plan for _, _, plan in planned], method, budget, sign_reference)
    for (i, grid, _), searched in zip(planned, searches):
        try:
            outcomes[i] = select_bandwidth(data, strategies[i], grid, method, folds, seeds[i],
                                           budget, sign_reference, searched)
        except EstimationError as exc:
            outcomes[i] = _failure(exc)
    return outcomes


def fit_pipeline(data: Dataset, strategy: InitStrategy, grid_size: int, method: str,
                 folds: int, seed, budget: int | None, sign_reference=None) -> CVReport:
    """The estimation pipeline of one strategy: anchor the default grid, then
    select the bandwidth.

    The grid is :meth:`BandwidthGrid.default` with ``grid_size`` values at the
    index scale of a reference vector: the strategy's start, resolved once
    and passed on to the search, or the all-equal vector for the random
    strategy, which has no single start.  A constant reference index raises
    :class:`SelectionError`; every other :class:`EstimationError` of the plan
    or of :func:`select_bandwidth` is raised too.  This is the one-strategy
    call of :func:`fit_pipelines`.
    """
    return raise_failure(fit_pipelines(data, [strategy], grid_size, method, folds, [seed],
                                       budget, sign_reference)[0])
