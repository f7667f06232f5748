"""Synthetic functional data, error metrics, and the Monte-Carlo experiment runner.

Covariate functions are drawn coefficient by coefficient in a Fourier basis
with linearly growing scales, the true coefficient function puts its mass on
the first two harmonics, and responses pass through one of three links:
convex (exp(-s)), concave (-s^2), or linear (s).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bandwidth import METHODS, fit_pipeline
from .basis import BasisExpansion, FourierBasis, is_integer, readonly_array
from .locfit import EstimationError, curve_estimates, relocated_fit
from .model import Dataset, FunctionalBlock, IndexModelSpec, compute_index
from .optimize import INIT_KINDS, InitStrategy


@dataclass(frozen=True)
class LinkSpec:
    """A link function together with its exact curvature."""

    name: str
    g: Callable[[np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray], np.ndarray]


LINKS = {
    "g1": LinkSpec("g1", lambda s: np.exp(-s), lambda s: np.exp(-s)),
    "g2": LinkSpec("g2", lambda s: -np.square(s), lambda s: np.full_like(s, -2.0)),
    "g3": LinkSpec("g3", lambda s: np.asarray(s, dtype=float).copy(), lambda s: np.zeros_like(s)),
}


@dataclass(frozen=True)
class SimScenario:
    """Generator configuration for one synthetic dataset."""

    n: int
    link: str = "g1"
    basis_dim: int = 25
    noise_sd: float = 0.1
    seed: object = 0

    def __post_init__(self):
        _check_counts({"n": (self.n, 1), "basis_dim": (self.basis_dim, 4)})
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}, expected one of {sorted(LINKS)}")
        _check_noise(self.noise_sd)


@dataclass(frozen=True)
class GroundTruth:
    """Everything the generator knows that an estimator must recover."""

    beta: BasisExpansion
    index: np.ndarray
    link: LinkSpec
    noise_sd: float

    def __post_init__(self):
        object.__setattr__(self, "index", readonly_array(self.index))


def coefficient_scales(basis_dim: int) -> np.ndarray:
    """Standard deviations of the covariate coefficients: (j-1)/(K-1) for the
    j-th basis function, so the constant coefficient is identically zero."""
    return np.arange(basis_dim) / (basis_dim - 1)


def generate(scenario: SimScenario) -> tuple[Dataset, GroundTruth]:
    """Draw one dataset and its ground truth, deterministically per seed."""
    rng = np.random.default_rng(scenario.seed)
    scales = coefficient_scales(scenario.basis_dim)
    coeffs = rng.standard_normal((scenario.n, scenario.basis_dim)) * scales
    x_basis = FourierBasis(scenario.basis_dim, include_constant=True)
    # the textbook truth (1, 1, 0.5, 0, ...) over the coefficient basis, at unit norm
    beta_coeffs = np.zeros(scenario.basis_dim - 1)
    beta_coeffs[:3] = (1.0, 1.0, 0.5)
    beta = BasisExpansion(x_basis.drop_constant(), beta_coeffs / np.linalg.norm(beta_coeffs))
    index = coeffs[:, 1:] @ beta.coeffs
    link = LINKS[scenario.link]
    noise = scenario.noise_sd * rng.standard_normal(scenario.n)
    data = Dataset(blocks=(FunctionalBlock(x_basis, coeffs),), y=link.g(index) + noise)
    truth = GroundTruth(beta=beta, index=index, link=link, noise_sd=scenario.noise_sd)
    return data, truth


def rse(beta_hat: BasisExpansion, beta_true: BasisExpansion) -> float:
    """Root squared error of the coefficient function.

    The L2 distance of the functions equals the Euclidean distance of their
    coefficient vectors; both arguments are expected sign-canonical.
    """
    if beta_hat.basis != beta_true.basis:
        raise ValueError(f"basis mismatch: {beta_hat.basis} vs {beta_true.basis}")
    return float(np.linalg.norm(beta_hat.coeffs - beta_true.coeffs))


@dataclass(frozen=True)
class RaseResult:
    value: float
    relocated: int


def rase(data: Dataset, truth: GroundTruth, spec: IndexModelSpec,
         derivative: int, bandwidth: float) -> RaseResult:
    """Root average squared error of the fitted link (or curvature) at the samples.

    Compares the local quadratic estimate with bandwidth ``bandwidth`` at
    each fitted index value against the true link (``derivative`` 0) or its
    curvature (2) at the true index value.  All samples are fit in one batch;
    those whose fit is singular are evaluated at the nearest admissible point
    and counted in ``relocated``.
    """
    if not is_integer(derivative) or derivative not in (0, 2):
        raise ValueError(f"derivative order must be 0 or 2, got {derivative}")
    z_hat = compute_index(data, spec)
    target = truth.link.g(truth.index) if derivative == 0 else truth.link.curvature(truth.index)
    estimates = curve_estimates(z_hat, data.y, z_hat, bandwidth, derivative)
    center = float(np.median(z_hat))
    relocated = 0
    for i in np.flatnonzero(np.isnan(estimates)):
        fit_i, moved = relocated_fit(z_hat, data.y, float(z_hat[i]), bandwidth, center=center)
        relocated += int(moved)
        estimates[i] = fit_i.a_hat if derivative == 0 else fit_i.c_hat
    errors = estimates - target
    return RaseResult(value=float(np.sqrt(np.mean(errors * errors))), relocated=relocated)


def finite_number(value) -> bool:
    """Whether a config or JSON value is a finite number; a bool is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_counts(counts: dict) -> None:
    """Raise :class:`ValueError` unless every ``name: (value, low)`` entry
    holds an integer of at least ``low``.  A bool is an int to Python, but
    "seed": true in a config is a typo, not seed 1."""
    for name, (value, low) in counts.items():
        if not is_integer(value) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_noise(noise_sd) -> None:
    if not finite_number(noise_sd) or noise_sd < 0:
        raise ValueError(f"noise_sd must be a finite number >= 0, got {noise_sd!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale Monte-Carlo table configuration.

    Every constant the tables depend on is surfaced here so runs are
    auditable: noise level, grid size, optimizer budget, random-pool size.
    """

    links: tuple[str, ...] = ("g1", "g2", "g3")
    sizes: tuple[int, ...] = (100, 1000)
    strategies: tuple[str, ...] = INIT_KINDS
    method: str = "gcv"
    reps: int = 10
    seed: int = 0
    noise_sd: float = 0.1
    basis_dim: int = 25
    grid_size: int = 10
    folds: int = 10
    opt_budget: int = 150
    candidate_count: int = 1000
    keep_best: int = 10
    rescale_comparison: bool = False

    def __post_init__(self):
        for name in ("links", "sizes", "strategies"):
            value = getattr(self, name)
            # a string is a sequence too: "links": "g1" would read as links g and 1
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        for name, known in (("links", tuple(LINKS)), ("strategies", INIT_KINDS)):
            for k, value in enumerate(getattr(self, name)):
                # a list entry is unhashable, so its type is checked before membership
                if not isinstance(value, str) or value not in known:
                    raise ValueError(f"{name}[{k}] must be one of {', '.join(known)}, "
                                     f"got {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be 'gcv' or 'kfold', got {self.method!r}")
        _check_counts({"reps": (self.reps, 1), "seed": (self.seed, 0),
                       **{f"sizes[{k}]": (n, 1) for k, n in enumerate(self.sizes)},
                       "basis_dim": (self.basis_dim, 4), "grid_size": (self.grid_size, 1),
                       "folds": (self.folds, 2 if self.method == "kfold" else 1),
                       "opt_budget": (self.opt_budget, 0),
                       "candidate_count": (self.candidate_count, 1),
                       "keep_best": (self.keep_best, 1)})
        _check_noise(self.noise_sd)
        if not isinstance(self.rescale_comparison, bool):
            raise ValueError(f"rescale_comparison must be a bool, got {self.rescale_comparison!r}")
        if self.keep_best > self.candidate_count:
            raise ValueError("need candidate_count >= keep_best")


def _strategy_for(kind: str, config: ExperimentConfig, truth: GroundTruth,
                  seed) -> InitStrategy:
    true_coeffs = truth.beta.coeffs if kind == "true" else None
    return InitStrategy(kind=kind, candidate_count=config.candidate_count,
                        keep_best=config.keep_best, seed=seed, true_coeffs=true_coeffs)


# the failures run_experiment counts per cell; any other exception is a bug and
# propagates.  The benchmark harness catches failed reps by this name.
FAILURE_KINDS = (EstimationError,)


def run_single(data: Dataset, truth: GroundTruth, strategy_kind: str,
               config: ExperimentConfig, strategy_seed, fold_seed) -> dict:
    """One full pipeline pass: grid, bandwidth selection, fit, metrics."""
    strategy = _strategy_for(strategy_kind, config, truth, strategy_seed)
    report = fit_pipeline(data, strategy, config.grid_size, config.method, config.folds,
                          fold_seed, config.opt_budget, sign_reference=truth.beta.coeffs)
    result = report.best_fit
    row = {
        "rse": rse(result.spec.beta_blocks[0], truth.beta),
        "rase": rase(data, truth, result.spec, 0, report.chosen_h).value,
        "rase2": rase(data, truth, result.spec, 2, report.chosen_h_curvature).value,
        "cv_score": report.chosen_score,
        "chosen_h": report.chosen_h,
        "chosen_h_curvature": report.chosen_h_curvature,
    }
    if config.rescale_comparison:
        row["rase2_original"] = rase(data, truth, result.spec, 2, report.chosen_h).value
    return row


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Median metrics per (link, n, strategy) cell, with per-cell failure counts.

    Every repetition derives its generator, strategy and fold seeds from the
    experiment seed and the cell coordinates, so reruns reproduce the table
    bit for bit and cells are independent of iteration order.
    """
    rows = []
    metric_keys = ["rse", "rase", "rase2", "cv_score", "chosen_h", "chosen_h_curvature"]
    if config.rescale_comparison:
        metric_keys.insert(3, "rase2_original")
    for link_i, link in enumerate(config.links):
        for n in config.sizes:
            for strat_i, strategy_kind in enumerate(config.strategies):
                samples: dict[str, list[float]] = {key: [] for key in metric_keys}
                failures = 0
                for rep in range(config.reps):
                    root = np.random.SeedSequence(
                        entropy=(config.seed, link_i, n, strat_i, rep)
                    )
                    gen_seed, strategy_seed, fold_seed = root.spawn(3)
                    scenario = SimScenario(n=n, link=link, basis_dim=config.basis_dim,
                                           noise_sd=config.noise_sd, seed=gen_seed)
                    data, truth = generate(scenario)
                    try:
                        rep_row = run_single(data, truth, strategy_kind, config,
                                             strategy_seed, fold_seed)
                    except FAILURE_KINDS:
                        failures += 1
                        continue
                    for key in metric_keys:
                        samples[key].append(rep_row[key])
                row = {
                    "link": link,
                    "n": n,
                    "strategy": strategy_kind,
                    "method": config.method,
                    "reps": config.reps,
                    "failures": failures,
                    "flagged": failures * 2 > config.reps,
                }
                for key in metric_keys:
                    row[key] = float(np.median(samples[key])) if samples[key] else float("nan")
                rows.append(row)
    return rows


def write_table_csv(rows: list[dict], path) -> None:
    """Write experiment rows as CSV with a stable column order."""
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_format_cell(row[name]) for name in fields])


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return value


def write_json(path, payload) -> None:
    """Write a JSON artifact: sorted keys, two-space indent, trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_table_json(rows: list[dict], path, metadata: dict | None = None) -> None:
    write_json(path, {"metadata": metadata or {}, "rows": rows})
