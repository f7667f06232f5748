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


def _nelder_mead(x0: np.ndarray, max_evals: int, spread_tol: float):
    """Reflection / expansion / contraction / shrink search from ``x0``, as a stepper.

    A generator: it yields each block of points to evaluate as the rows of
    a 2-D array (``x0`` alone, the ``dim`` initial vertices, each reflected,
    expanded or contracted point, the ``dim`` shrunk vertices) and is sent
    back their objective values.  Stops when the simplex objective spread
    drops below ``spread_tol`` or the evaluation budget runs out, and
    returns the best vertex, its value, the iteration count, the
    convergence flag, the per-iteration best-value trace, and the number of
    evaluations spent.
    """
    reflect, expand, contract, shrink = 1.0, 2.0, 0.5, 0.5
    dim = x0.size
    (f0,) = yield x0[None]
    f0 = float(f0)
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
    values[1:] = yield simplex[1:]
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
        (f_reflected,) = yield reflected[None]
        evals += 1
        if f_reflected < values[0]:
            expanded = centroid + expand * (centroid - simplex[-1])
            (f_expanded,) = yield expanded[None]
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
        (f_contracted,) = yield contracted[None]
        evals += 1
        if f_contracted < values[-1]:
            simplex[-1], values[-1] = contracted, f_contracted
            continue
        simplex[1:] = simplex[0] + shrink * (simplex[1:] - simplex[0])
        values[1:] = yield simplex[1:]
        evals += dim

    best = int(np.argmin(values))
    return simplex[best], float(values[best]), iterations, converged, trace, evals


def _search_start(data: Dataset, init, budget: int | None) -> tuple[np.ndarray, int]:
    """The checked start vector of a search and its evaluation budget."""
    x0 = np.asarray(init, dtype=float).copy()
    if x0.shape != (data.search_dimension(),):
        raise ValueError(
            f"expected a search vector of length {data.search_dimension()}, got {x0.shape}"
        )
    return x0, BUDGET_PER_DIM * x0.size if budget is None else budget


def _opt_result(data: Dataset, h: float, outcome, sign_reference, label: str) -> OptResult:
    """The normalized, sign-canonical result of a finished stepper."""
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
    stepper = _nelder_mead(x0, budget, SPREAD_TOL)
    block = next(stepper)
    try:
        while True:
            block = stepper.send([safe_objective(data, x, h) for x in block])
    except StopIteration as stop:
        return _opt_result(data, h, stop.value, sign_reference, label)


def minimize_lockstep(data: Dataset, subsets, init, h: float,
                      budget: int | None = None) -> list[OptResult]:
    """``minimize(data.subset(s), init, h, budget)`` for every index set ``s``, bit for bit.

    The searches run in lockstep: each step gathers every running search's
    pending block of points and evaluates them together
    (:class:`fsim.model.StackedObjective`).  Every reduction stays per
    search, so a result does not depend on which searches share a step.  A
    search can only fail on its start value, and the first step sends those
    in order, so the first search in order whose :func:`minimize` would
    raise is the one that raises.  A result's spec depends on the data only
    through their design, which every subset shares with ``data``.
    """
    x0, max_evals = _search_start(data, init, budget)
    steppers = [_nelder_mead(x0, max_evals, SPREAD_TOL) for _ in subsets]
    objective = StackedObjective(data, subsets, h)
    pending = {k: next(stepper) for k, stepper in enumerate(steppers)}
    outcomes = {}
    while pending:
        keys = list(pending)
        blocks = [pending[k] for k in keys]
        which = [k for k, block in zip(keys, blocks) for _ in range(len(block))]
        values = objective(which, np.concatenate(blocks))
        stop = 0
        for k, block in zip(keys, blocks):
            start, stop = stop, stop + len(block)
            try:
                pending[k] = steppers[k].send(values[start:stop])
            except StopIteration as done:
                del pending[k]
                outcomes[k] = done.value
    return [_opt_result(data, h, outcomes[k], None, "custom") for k in range(len(subsets))]


def resolve_init(data: Dataset, strategy: InitStrategy) -> tuple[np.ndarray, str]:
    """Start vector for the deterministic strategies (not the random pool)."""
    if strategy.kind == "true":
        return np.asarray(strategy.true_coeffs, dtype=float), "true"
    if strategy.kind == "equal":
        return init_equal(data.search_dimension()), "equal"
    if strategy.kind == "linear":
        return init_linear(data), "linear"
    raise ValueError(f"no single start point for strategy {strategy.kind!r}")
