"""Coefficient search: simplex minimization of the leave-one-out MSE.

The objective is piecewise smooth in the coefficients (samples enter and
leave kernel windows), so the outer search is derivative-free.  Four ways of
choosing the start point are supported: the known truth (simulations), an
ordinary least squares fit assuming a linear link, an all-equal vector, and a
pool of standard normal draws prefiltered by objective value, from which
:func:`fsim.bandwidth.select_bandwidth` picks one start per bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .locfit import SingularFitError
from .model import (
    Dataset,
    DegenerateObjectiveError,
    IndexModelSpec,
    NormalizationError,
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
    """Reflection / expansion / contraction / shrink search from ``x0``.

    Stops when the simplex objective spread drops below ``spread_tol`` or the
    evaluation budget runs out.  Returns the best vertex, its value, the
    iteration count, the convergence flag, the per-iteration best-value
    trace, and the number of evaluations spent.
    """
    reflect, expand, contract, shrink = 1.0, 2.0, 0.5, 0.5
    dim = x0.size
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return fn(x)

    f0 = call(x0)
    if not np.isfinite(f0):
        raise DegenerateObjectiveError("objective is not finite at the initialization")
    if max_evals < dim + 2:
        return x0, f0, 0, False, [f0], evals

    simplex = [x0.copy()]
    values = [f0]
    for i in range(dim):
        vertex = x0.copy()
        vertex[i] = vertex[i] * 1.05 if vertex[i] != 0.0 else 2.5e-4
        simplex.append(vertex)
        values.append(call(vertex))
    simplex = np.array(simplex)
    values = np.array(values)

    iterations = 0
    converged = False
    trace = []
    while True:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        trace.append(float(values[0]))
        spread = values[-1] - values[0]
        if np.isfinite(spread) and spread < spread_tol:
            converged = True
            break
        if evals >= max_evals:
            break
        iterations += 1

        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + reflect * (centroid - simplex[-1])
        f_reflected = call(reflected)
        if f_reflected < values[0]:
            expanded = centroid + expand * (centroid - simplex[-1])
            f_expanded = call(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        contracted = centroid + contract * (simplex[-1] - centroid)
        f_contracted = call(contracted)
        if f_contracted < values[-1]:
            simplex[-1], values[-1] = contracted, f_contracted
            continue
        for i in range(1, dim + 1):
            simplex[i] = simplex[0] + shrink * (simplex[i] - simplex[0])
            values[i] = call(simplex[i])

    best = int(np.argmin(values))
    return simplex[best], float(values[best]), iterations, converged, trace, evals


def minimize(data: Dataset, init, h: float, budget: int | None = None,
             sign_reference=None, label: str = "custom") -> OptResult:
    """Run the simplex search on the raw search vector from one start point.

    The terminal point is normalized (unit functional norm, bandwidth record
    scaled by the terminal raw norm) and sign-canonicalized.  The returned
    value never exceeds the objective at the initialization.
    """
    x0 = np.asarray(init, dtype=float).copy()
    if x0.shape != (data.search_dimension(),):
        raise ValueError(
            f"expected a search vector of length {data.search_dimension()}, got {x0.shape}"
        )
    if budget is None:
        budget = BUDGET_PER_DIM * x0.size
    best, f_best, iterations, converged, trace, evals = _nelder_mead(
        lambda x: safe_objective(data, x, h), x0, budget, SPREAD_TOL
    )
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


def resolve_init(data: Dataset, strategy: InitStrategy) -> tuple[np.ndarray, str]:
    """Start vector for the deterministic strategies (not the random pool)."""
    if strategy.kind == "true":
        return np.asarray(strategy.true_coeffs, dtype=float), "true"
    if strategy.kind == "equal":
        return init_equal(data.search_dimension()), "equal"
    if strategy.kind == "linear":
        return init_linear(data), "linear"
    raise ValueError(f"no single start point for strategy {strategy.kind!r}")
