"""Coefficient search: simplex minimization of the leave-one-out MSE.

The objective is piecewise smooth in the coefficients (samples enter and
leave kernel windows), so the outer search is derivative-free.  Four ways of
choosing the start point are supported: the known truth (simulations), an
ordinary least squares fit assuming a linear link, an all-equal vector, and a
pool of standard normal draws prefiltered by objective value, from which
:func:`fsim.bandwidth.select_bandwidth` picks one start per bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .locfit import SingularFitError
from .model import (
    Dataset,
    DegenerateObjectiveError,
    IndexModelSpec,
    NormalizationError,
    StackedObjective,
    canonical_sign,
    objective_loo_mse,
    spec_from_raw,
)

INIT_KINDS = ("true", "linear", "equal", "random")
SPREAD_TOL = 1e-8
BUDGET_PER_DIM = 500


@dataclass(frozen=True)
class InitStrategy:
    """How to start the coefficient search.

    ``candidate_count``, ``keep_best`` and ``seed`` only matter for the
    random pool; ``true_coeffs`` (a full search vector) is required for
    kind "true".
    """

    kind: str
    candidate_count: int = 1000
    keep_best: int = 10
    seed: object = None
    true_coeffs: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}, expected one of {INIT_KINDS}")
        if not 1 <= self.keep_best <= self.candidate_count:
            raise ValueError(
                f"need candidate_count >= keep_best >= 1, got "
                f"{self.candidate_count} and {self.keep_best}"
            )
        if self.kind == "true" and self.true_coeffs is None:
            raise ValueError("kind 'true' needs true_coeffs")
        if self.true_coeffs is not None:
            object.__setattr__(self, "true_coeffs", np.asarray(self.true_coeffs, dtype=float))


@dataclass(frozen=True)
class OptResult:
    """Terminal state of one coefficient search."""

    spec: IndexModelSpec
    final_mse: float
    iterations: int
    converged: bool
    init_used: str
    evaluations: int
    trace: tuple[float, ...]


def init_equal(dim: int) -> np.ndarray:
    """Unit vector with all entries equal."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return np.full(dim, 1.0 / np.sqrt(dim))


def init_linear(data: Dataset) -> np.ndarray:
    """Search vector from ordinary least squares under a linear link.

    Regresses the responses on the stacked basis coefficients (and the scalar
    covariate when present) with an intercept, which the link absorbs; the
    functional part of the solution is rescaled to unit norm.  Too few
    samples or a rank-deficient design raise :class:`SingularFitError`.
    """
    dim = data.search_dimension()
    if data.n <= dim:
        raise SingularFitError(f"least-squares init needs n > {dim}, got n={data.n}")
    columns = [np.ones((data.n, 1))]
    columns.extend(block.nonconstant() for block in data.blocks)
    if data.w is not None:
        columns.append(data.w[:, None])
    design = np.hstack(columns)
    solution, _, rank, _ = np.linalg.lstsq(design, data.y, rcond=None)
    if rank < design.shape[1]:
        raise SingularFitError(f"rank-deficient design: rank {rank} < {design.shape[1]}")
    functional = solution[1:1 + sum(data.beta_dims())]
    norm = float(np.linalg.norm(functional))
    if norm == 0.0:
        raise NormalizationError("least-squares functional coefficients are all zero")
    raw = functional / norm
    if data.w is not None:
        raw = np.append(raw, solution[-1] / norm)
    return raw


def init_random(data: Dataset, h_ref: float, cfg: InitStrategy) -> list[np.ndarray]:
    """The best ``keep_best`` of ``candidate_count`` standard normal draws.

    Candidates are scored by the leave-one-out MSE at the reference bandwidth
    (degenerate candidates score infinity) and returned best first, breaking
    ties by draw order, so a fixed seed fixes the output.
    """
    if cfg.kind != "random":
        raise ValueError(f"expected a random strategy, got kind {cfg.kind!r}")
    rng = np.random.default_rng(cfg.seed)
    candidates = rng.standard_normal((cfg.candidate_count, data.search_dimension()))
    scores = np.array([safe_objective(data, c, h_ref) for c in candidates])
    if not np.any(np.isfinite(scores)):
        raise DegenerateObjectiveError("every random start candidate is degenerate")
    order = np.argsort(scores, kind="stable")
    return [candidates[i] for i in order[: cfg.keep_best]]


def safe_objective(data: Dataset, raw, h: float) -> float:
    try:
        return objective_loo_mse(data, raw, h).mse
    except (DegenerateObjectiveError, NormalizationError):
        return np.inf


def _nelder_mead(fn, x0: np.ndarray, max_evals: int, spread_tol: float):
    """Reflection / expansion / contraction / shrink search of ``fn`` from ``x0``.

    Stops when the simplex objective spread drops below ``spread_tol`` or
    the evaluation budget runs out, and returns the best vertex, its value,
    the iteration count, the convergence flag, the per-iteration best-value
    trace, and the number of evaluations spent.
    """
    reflect, expand, contract, shrink = 1.0, 2.0, 0.5, 0.5
    dim = x0.size
    f0 = float(fn(x0))
    evals = 1
    if not np.isfinite(f0):
        raise DegenerateObjectiveError("objective is not finite at the initialization")
    if max_evals < dim + 2:
        return x0, f0, 0, False, [f0], evals

    simplex = np.repeat(x0[None], dim + 1, axis=0)
    for i in range(dim):
        simplex[i + 1, i] = x0[i] * 1.05 if x0[i] != 0.0 else 2.5e-4
    values = np.empty(dim + 1)
    values[0] = f0
    values[1:] = [fn(vertex) for vertex in simplex[1:]]
    evals += dim

    iterations = 0
    converged = False
    trace = []
    while True:
        order = values.argsort(kind="stable")
        simplex = simplex[order]
        values = values[order]
        trace.append(float(values[0]))
        spread = float(values[-1] - values[0])
        if math.isfinite(spread) and spread < spread_tol:
            converged = True
            break
        if evals >= max_evals:
            break
        iterations += 1

        # np.mean's own sum and division, bit for bit, without its dispatch cost
        centroid = simplex[:-1].sum(axis=0) / dim
        reflected = centroid + reflect * (centroid - simplex[-1])
        f_reflected = fn(reflected)
        evals += 1
        if f_reflected < values[0]:
            expanded = centroid + expand * (centroid - simplex[-1])
            f_expanded = fn(expanded)
            evals += 1
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        contracted = centroid + contract * (simplex[-1] - centroid)
        f_contracted = fn(contracted)
        evals += 1
        if f_contracted < values[-1]:
            simplex[-1], values[-1] = contracted, f_contracted
            continue
        simplex[1:] = simplex[0] + shrink * (simplex[1:] - simplex[0])
        values[1:] = [fn(vertex) for vertex in simplex[1:]]
        evals += dim

    best = int(np.argmin(values))
    return simplex[best], float(values[best]), iterations, converged, trace, evals


def _search_start(data: Dataset, init, budget: int | None,
                  count: int | None = None) -> tuple[np.ndarray, int]:
    """The checked start vector of a search and its evaluation budget.

    With a search ``count``, ``init`` may also hold one start per search.
    """
    x0 = np.asarray(init, dtype=float).copy()
    dim = data.search_dimension()
    if x0.shape != (dim,) and (count is None or x0.shape != (count, dim)):
        raise ValueError(f"expected a search vector of length {dim}, got shape {x0.shape}")
    return x0, BUDGET_PER_DIM * dim if budget is None else budget


def _opt_result(data: Dataset, h: float, outcome, sign_reference, label: str) -> OptResult:
    """The normalized, sign-canonical result of a finished search."""
    best, f_best, iterations, converged, trace, evals = outcome
    spec = canonical_sign(spec_from_raw(data, best, h), sign_reference)
    return OptResult(
        spec=spec,
        final_mse=f_best,
        iterations=iterations,
        converged=converged,
        init_used=label,
        evaluations=evals,
        trace=tuple(trace),
    )


def minimize(data: Dataset, init, h: float, budget: int | None = None,
             sign_reference=None, label: str = "custom") -> OptResult:
    """Run the simplex search on the raw search vector from one start point.

    The terminal point is normalized (unit functional norm, bandwidth record
    scaled by the terminal raw norm) and sign-canonicalized.  The returned
    value never exceeds the objective at the initialization.
    """
    x0, budget = _search_start(data, init, budget)
    outcome = _nelder_mead(lambda x: safe_objective(data, x, h), x0, budget, SPREAD_TOL)
    return _opt_result(data, h, outcome, sign_reference, label)


# what the pending points of a lockstep search are; DONE has none
INIT, REFLECT, EXPAND, CONTRACT, SHRINK, DONE = range(6)


def minimize_lockstep(data: Dataset, subsets, init, h, budget: int | None = None
                      ) -> list[OptResult | DegenerateObjectiveError]:
    """``minimize(data.subset(subsets[s]), init[s], h[s], budget)`` for every search s.

    ``init`` holds one start vector per search, or one for all; ``h`` one
    bandwidth per search, or one for all.  The searches run in lockstep on
    one array-state simplex: each step evaluates every running search's
    pending points with one :class:`fsim.model.StackedObjective` call, then
    applies each search's branch as a masked update.  Every reduction and
    comparison stays per search, so each result is the serial one bit for
    bit and does not depend on which searches share the lockstep.  A search
    whose start value is not finite stops after it, and its slot holds the
    :class:`DegenerateObjectiveError` that :func:`minimize` would raise; the
    others run on.  A result's spec depends on the data only through their
    design, which every subset shares with ``data``.
    """
    reflect, expand, contract, shrink = 1.0, 2.0, 0.5, 0.5
    count, dim = len(subsets), data.search_dimension()
    starts, max_evals = _search_start(data, init, budget, count)
    starts = np.array(np.broadcast_to(starts, (count, dim)))
    hs = np.broadcast_to(np.asarray(h, dtype=float), (count,))
    objective = StackedObjective(data, subsets, hs)
    everyone = np.arange(count)

    f0 = objective(everyone, starts)
    failed = ~np.isfinite(f0)
    simplex = np.repeat(starts[:, None], dim + 1, axis=1)
    diagonal = np.arange(dim)
    simplex[:, diagonal + 1, diagonal] = np.where(starts != 0.0, starts * 1.05, 2.5e-4)
    # a search stopped before its simplex keeps the start: its other values stay inf
    values = np.full((count, dim + 1), np.inf)
    values[:, 0] = f0
    phase = np.full(count, DONE if max_evals < dim + 2 else INIT)
    phase[failed] = DONE
    evals = np.ones(count, dtype=int)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    centroid = np.empty((count, dim))
    # the pending point of a search in REFLECT, EXPAND or CONTRACT, and the
    # reflected point and its value while it expands
    trial = np.empty((count, dim))
    reflected = np.empty((count, dim))
    f_reflected = np.empty(count)
    early = everyone[(phase == DONE) & ~failed]
    trace_rows, trace_values = [early], [f0[early]]

    while True:
        live = np.flatnonzero(phase != DONE)
        if not live.size:
            break
        live_phase = phase[live]
        many = live[(live_phase == INIT) | (live_phase == SHRINK)]
        one = live[(live_phase != INIT) & (live_phase != SHRINK)]
        got = objective(np.concatenate([np.repeat(many, dim), one]),
                        np.concatenate([simplex[many, 1:].reshape(-1, dim), trial[one]]))
        values[many, 1:] = got[:many.size * dim].reshape(many.size, dim)
        evals[many] += dim
        evals[one] += 1
        got, one_phase = got[many.size * dim:], phase[one]
        # the searches whose simplex is complete again, to be sorted
        ready = [many]

        at = one_phase == REFLECT
        s, f = one[at], got[at]
        grow = f < values[s, 0]
        keep = ~grow & (f < values[s, -2])
        shrinking = ~grow & ~keep
        g = s[grow]
        reflected[g], f_reflected[g] = trial[g], f[grow]
        trial[g] = centroid[g] + expand * (centroid[g] - simplex[g, -1])
        phase[g] = EXPAND
        k = s[keep]
        simplex[k, -1], values[k, -1] = trial[k], f[keep]
        ready.append(k)
        c = s[shrinking]
        trial[c] = centroid[c] + contract * (simplex[c, -1] - centroid[c])
        phase[c] = CONTRACT

        at = one_phase == EXPAND
        s, f = one[at], got[at]
        better = f < f_reflected[s]
        simplex[s, -1] = np.where(better[:, None], trial[s], reflected[s])
        values[s, -1] = np.where(better, f, f_reflected[s])
        ready.append(s)

        at = one_phase == CONTRACT
        s, f = one[at], got[at]
        better = f < values[s, -1]
        k = s[better]
        simplex[k, -1], values[k, -1] = trial[k], f[better]
        ready.append(k)
        k = s[~better]
        simplex[k, 1:] = simplex[k, :1] + shrink * (simplex[k, 1:] - simplex[k, :1])
        phase[k] = SHRINK

        s = np.concatenate(ready)
        order = values[s].argsort(axis=1, kind="stable")
        simplex[s] = simplex[s[:, None], order]
        values[s] = values[s[:, None], order]
        trace_rows.append(s)
        trace_values.append(values[s, 0])
        spread = values[s, -1] - values[s, 0]
        settled = np.isfinite(spread) & (spread < SPREAD_TOL)
        converged[s[settled]] = True
        stop = settled | (evals[s] >= max_evals)
        phase[s[stop]] = DONE
        s = s[~stop]
        iterations[s] += 1
        # per search np.mean's own sum and division, as in the serial search
        centroid[s] = simplex[s, :-1].sum(axis=1) / dim
        trial[s] = centroid[s] + reflect * (centroid[s] - simplex[s, -1])
        phase[s] = REFLECT

    rows = np.concatenate(trace_rows)
    by_search = rows.argsort(kind="stable")
    traced = np.concatenate(trace_values)[by_search].tolist()
    bounds = np.searchsorted(rows[by_search], np.arange(count + 1)).tolist()
    best = values.argmin(axis=1)
    results = []
    for k in range(count):
        if failed[k]:
            results.append(DegenerateObjectiveError(
                "objective is not finite at the initialization"))
            continue
        b = int(best[k])
        outcome = (simplex[k, b], float(values[k, b]), int(iterations[k]),
                   bool(converged[k]), traced[bounds[k]:bounds[k + 1]], int(evals[k]))
        results.append(_opt_result(data, float(hs[k]), outcome, None, "custom"))
    return results


def resolve_init(data: Dataset, strategy: InitStrategy) -> tuple[np.ndarray, str]:
    """Start vector for the deterministic strategies (not the random pool)."""
    if strategy.kind == "true":
        return np.asarray(strategy.true_coeffs, dtype=float), "true"
    if strategy.kind == "equal":
        return init_equal(data.search_dimension()), "equal"
    if strategy.kind == "linear":
        return init_linear(data), "linear"
    raise ValueError(f"no single start point for strategy {strategy.kind!r}")
