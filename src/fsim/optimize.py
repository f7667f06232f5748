"""Coefficient search: simplex minimization of the leave-one-out MSE.

The objective is piecewise smooth in the coefficients (samples enter and
leave kernel windows), so the outer search is derivative-free.  Every
search, alone or with others, runs on one array-state Nelder-Mead
(:func:`_nelder_mead`); the searches of a lockstep are split across the
CPUs this process may use (:func:`_in_parts`).  Four ways of choosing the
start point are supported: the known truth (simulations), an ordinary
least squares fit assuming a linear link, an all-equal vector, and a pool
of standard normal draws prefiltered by objective value, from which
:func:`fsim.bandwidth.select_bandwidth` picks one start per bandwidth.
"""

from __future__ import annotations

import os
import pickle
import signal
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


def _search_start(data: Dataset, init, budget: int | None,
                  count: int) -> tuple[np.ndarray, int]:
    """The checked start vectors of ``count`` searches, from one start per
    search or one for all, and their evaluation budget."""
    dim = data.search_dimension()
    x0 = np.asarray(init, dtype=float)
    if x0.shape != (dim,) and x0.shape != (count, dim):
        raise ValueError(f"expected a search vector of length {dim}, got shape {x0.shape}")
    starts = np.array(np.broadcast_to(x0, (count, dim)))
    return starts, BUDGET_PER_DIM * dim if budget is None else budget


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


def _opt_results(data: Dataset, hs, outcomes, sign_reference, labels
                 ) -> list[OptResult | DegenerateObjectiveError]:
    """:func:`_opt_result` of every finished search; a failed search keeps its error."""
    return [outcome if isinstance(outcome, DegenerateObjectiveError)
            else _opt_result(data, h, outcome, sign_reference, label)
            for h, outcome, label in zip(hs, outcomes, labels)]


def minimize(data: Dataset, init, h: float, budget: int | None = None,
             sign_reference=None, label: str = "custom") -> OptResult:
    """Run the simplex search on the raw search vector from one start point.

    The terminal point is normalized (unit functional norm, bandwidth record
    scaled by the terminal raw norm) and sign-canonicalized.  The returned
    value never exceeds the objective at the initialization; a start whose
    value is not finite raises :class:`DegenerateObjectiveError`.
    """
    (result,) = minimize_each(data, init, [h], budget, sign_reference, [label])
    if isinstance(result, DegenerateObjectiveError):
        raise result
    return result


def minimize_each(data: Dataset, init, h, budget: int | None, sign_reference,
                  labels) -> list[OptResult | DegenerateObjectiveError]:
    """``minimize(data, init[s], h[s], budget, sign_reference, labels[s])`` for every search s.

    ``h`` holds one bandwidth per search, ``init`` one start vector per
    search or one for all, and ``labels`` one ``init_used`` per search.
    The searches run in lockstep (:func:`_nelder_mead`), one lockstep per
    part of :func:`_in_parts`, each point evaluated on its own by
    :func:`safe_objective`, each search's points in the order a search of
    its own evaluates them.  A failed search's slot holds the error
    :func:`minimize` raises.
    """
    hs = np.asarray(h, dtype=float).tolist()
    starts, max_evals = _search_start(data, init, budget, len(hs))

    def objective(which, points):
        return np.array([safe_objective(data, x, hs[k]) for k, x in zip(which.tolist(), points)])

    outcomes = _searches(objective, starts, max_evals)
    return _opt_results(data, hs, outcomes, sign_reference, labels)


def minimize_lockstep(data: Dataset, subsets, init, h, budget: int | None = None
                      ) -> list[OptResult | DegenerateObjectiveError]:
    """``minimize(data.subset(subsets[s]), init[s], h[s], budget)`` for every search s.

    ``init`` holds one start vector per search, or one for all; ``h`` one
    bandwidth per search, or one for all.  The searches run in lockstep
    (:func:`_nelder_mead`), one lockstep per part of :func:`_in_parts`;
    each step evaluates every running search's pending points with one
    :class:`fsim.model.StackedObjective` call.  A failed search's slot
    holds the error :func:`minimize` raises.  A result's spec depends on
    the data only through their design, which every subset shares with
    ``data``.
    """
    count = len(subsets)
    starts, max_evals = _search_start(data, init, budget, count)
    hs = np.broadcast_to(np.asarray(h, dtype=float), (count,))
    outcomes = _searches(StackedObjective(data, subsets, hs), starts, max_evals)
    return _opt_results(data, hs.tolist(), outcomes, None, ["custom"] * count)


def _searches(objective, starts: np.ndarray, max_evals: int) -> list:
    """``_nelder_mead(objective, starts, max_evals)``, its searches split by :func:`_in_parts`.

    Each part runs its own lockstep on its rows of ``starts``; a search's
    result does not depend on which searches share its steps.
    """
    def run(rows):
        return _nelder_mead(lambda which, points: objective(rows[which], points),
                            starts[rows], max_evals)

    return _in_parts(run, len(starts))


def _in_parts(run, count: int) -> list:
    """``run(rows)`` over ``count`` searches, split across the CPUs this process may use.

    With W = min(usable CPUs, count) parts, part r holds searches r, r + W,
    r + 2W, ..., so that cheap and costly searches mix.  ``run(rows)``
    returns one outcome per search of the index array ``rows``; the
    outcomes come back in search order.  This process runs part 0 and a
    forked child runs each other part (:func:`_fork`).  A child's exception
    is raised here, the first failing part's in part order.  If part 0
    raises, every child is killed and reaped before the exception goes on,
    so no child outlives the call.  Where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, W is 1 and nothing forks.
    """
    usable = (len(os.sched_getaffinity(0))
              if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    width = max(1, min(usable, count))
    parts = [np.arange(r, count, width) for r in range(width)]
    if width == 1:
        return run(parts[0])
    children = []  # (pid, pipe) of every child not yet reaped, in part order
    try:
        for rows in parts[1:]:
            children.append(_fork(run, rows))
        messages = [(True, run(parts[0]))]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            messages.append(pickle.loads(payload) if payload else (False, RuntimeError(
                f"search worker {pid} ended without a result (wait status {status})")))
    except BaseException:
        for pid, pipe in children:
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped just before the exception
        raise
    outcomes = [None] * count
    for rows, (ok, value) in zip(parts, messages):
        if not ok:
            raise value
        for k, outcome in zip(rows.tolist(), value):
            outcomes[k] = outcome
    return outcomes


def _fork(run, rows) -> tuple:
    """Fork a child that runs ``run(rows)``; returns its pid and the read end of its pipe.

    The child pickles ``(True, outcomes)``, or ``(False, exception)`` when
    ``run`` raises, to the pipe and always leaves through ``os._exit``, so
    it never unwinds into its caller's frames.  It sends nothing when the
    message cannot be pickled.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    status = 1
    try:
        os.close(read)
        try:
            message = (True, run(rows))
        except BaseException as exc:
            message = (False, exc)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(message))
        status = 0
    finally:
        os._exit(status)


# what the pending points of a search are; DONE has none
INIT, REFLECT, EXPAND, CONTRACT, SHRINK, DONE = range(6)


def _nelder_mead(objective, starts: np.ndarray, max_evals: int) -> list:
    """Reflection / expansion / contraction / shrink searches, one from each row of ``starts``.

    ``objective(which, points)`` returns the value of each row of
    ``points`` for search ``which[i]``.  The searches run in lockstep on one
    array-state simplex: each step evaluates every running search's pending
    points with one objective call, then applies each search's branch as a
    masked update.  Every reduction and comparison stays per search, so a
    search's points and result do not depend on which searches share the
    lockstep.  A search stops when its simplex objective spread drops below
    ``SPREAD_TOL`` or its evaluation budget runs out; a shrink step may
    overshoot the budget by up to dim evaluations.  Its entry is then
    ``(best vertex, its value, iterations, converged, per-iteration
    best-value trace, evaluations)``.  A search whose start value is not
    finite stops after it, and its entry is a
    :class:`DegenerateObjectiveError`; the others run on.
    """
    reflect, expand, contract, shrink = 1.0, 2.0, 0.5, 0.5
    count, dim = starts.shape
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
        # the searches whose simplex is complete again, to be sorted; a
        # branch no search takes is skipped, which changes no decision
        ready = []
        if many.size:
            values[many, 1:] = got[:many.size * dim].reshape(many.size, dim)
            evals[many] += dim
            ready.append(many)
        if one.size:
            evals[one] += 1
            got, one_phase = got[many.size * dim:], phase[one]
            at = one_phase == REFLECT
            s = one[at]
            if s.size:
                f = got[at]
                grow = f < values[s, 0]
                keep = ~grow & (f < values[s, -2])
                g = s[grow]
                if g.size:
                    reflected[g], f_reflected[g] = trial[g], f[grow]
                    trial[g] = centroid[g] + expand * (centroid[g] - simplex[g, -1])
                    phase[g] = EXPAND
                k = s[keep]
                if k.size:
                    simplex[k, -1], values[k, -1] = trial[k], f[keep]
                    ready.append(k)
                c = s[~grow & ~keep]
                if c.size:
                    trial[c] = centroid[c] + contract * (simplex[c, -1] - centroid[c])
                    phase[c] = CONTRACT
            at = one_phase == EXPAND
            s = one[at]
            if s.size:
                f = got[at]
                better = f < f_reflected[s]
                simplex[s, -1] = np.where(better[:, None], trial[s], reflected[s])
                values[s, -1] = np.where(better, f, f_reflected[s])
                ready.append(s)
            at = one_phase == CONTRACT
            s = one[at]
            if s.size:
                f = got[at]
                better = f < values[s, -1]
                k = s[better]
                if k.size:
                    simplex[k, -1], values[k, -1] = trial[k], f[better]
                    ready.append(k)
                k = s[~better]
                if k.size:
                    simplex[k, 1:] = simplex[k, :1] + shrink * (simplex[k, 1:] - simplex[k, :1])
                    phase[k] = SHRINK
        if not ready:
            continue

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
        if not s.size:
            continue
        iterations[s] += 1
        # per search np.mean's own sum and division, bit for bit, without its dispatch cost
        centroid[s] = simplex[s, :-1].sum(axis=1) / dim
        trial[s] = centroid[s] + reflect * (centroid[s] - simplex[s, -1])
        phase[s] = REFLECT

    rows = np.concatenate(trace_rows)
    by_search = rows.argsort(kind="stable")
    traced = np.concatenate(trace_values)[by_search].tolist()
    bounds = np.searchsorted(rows[by_search], np.arange(count + 1)).tolist()
    best = values.argmin(axis=1)
    outcomes = []
    for k in range(count):
        if failed[k]:
            outcomes.append(DegenerateObjectiveError(
                "objective is not finite at the initialization"))
            continue
        b = int(best[k])
        outcomes.append((simplex[k, b], float(values[k, b]), int(iterations[k]),
                         bool(converged[k]), traced[bounds[k]:bounds[k + 1]], int(evals[k])))
    return outcomes


def resolve_init(data: Dataset, strategy: InitStrategy) -> tuple[np.ndarray, str]:
    """Start vector for the deterministic strategies (not the random pool)."""
    if strategy.kind == "true":
        return np.asarray(strategy.true_coeffs, dtype=float), "true"
    if strategy.kind == "equal":
        return init_equal(data.search_dimension()), "equal"
    if strategy.kind == "linear":
        return init_linear(data), "linear"
    raise ValueError(f"no single start point for strategy {strategy.kind!r}")
