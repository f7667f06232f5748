"""Plant-growth records: CSV schema, basis projection, synthetic file generation.

A record is one plant observed over one interval: log area at the start and
end, a scalar competition measure, and two 37-bin functional covariates, the
aggregated precipitation and temperature histories.  The response is the log
area change and the model explains it through a single index built from the
scalar and the two histories.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisExpansion, FourierBasis, project_sample_rows, readonly_array
from .model import Dataset, FunctionalBlock, IndexModelSpec, compute_index
from .simulate import LINKS, write_json

N_BINS = 37
PRECIP_COLUMNS = tuple(f"p.{i:02d}" for i in range(N_BINS))
TEMP_COLUMNS = tuple(f"t.{i:02d}" for i in range(N_BINS))
BASE_COLUMNS = ("logarea.t1", "logarea.t0", "W")
REQUIRED_COLUMNS = BASE_COLUMNS + PRECIP_COLUMNS + TEMP_COLUMNS


class SchemaError(ValueError):
    """The file does not match the expected record layout."""


@dataclass(frozen=True)
class EcologyRecord:
    """One plant-growth observation with its environmental history."""

    logarea_t1: float
    logarea_t0: float
    w: float
    precip: np.ndarray
    temp: np.ndarray

    def __post_init__(self):
        for name in ("precip", "temp"):
            values = readonly_array(getattr(self, name))
            if values.shape != (N_BINS,):
                raise ValueError(f"{name} must have {N_BINS} bins, got {values.shape}")
            object.__setattr__(self, name, values)

    @property
    def response(self) -> float:
        return self.logarea_t1 - self.logarea_t0


def load_csv(path) -> list[EcologyRecord]:
    """Parse an ecology CSV, reporting the exact coordinates of bad cells."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        missing = [name for name in REQUIRED_COLUMNS if name not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {', '.join(missing)}")
        positions = {name: header.index(name) for name in REQUIRED_COLUMNS}
        records = []
        for row in reader:
            if not row:
                continue  # a blank line, skipped as csv.DictReader skips it
            row_number = reader.line_num
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: line {row_number} has {len(row)} fields, header has {len(header)}"
                )
            def cell(name):
                text = row[positions[name]]
                try:
                    value = float(text)
                except ValueError:
                    raise SchemaError(
                        f"{path}: line {row_number}, column {name}: not a number: {text!r}"
                    ) from None
                if not math.isfinite(value):
                    raise SchemaError(
                        f"{path}: line {row_number}, column {name}: non-finite value"
                    )
                return value
            records.append(EcologyRecord(
                logarea_t1=cell("logarea.t1"),
                logarea_t0=cell("logarea.t0"),
                w=cell("W"),
                precip=np.array([cell(name) for name in PRECIP_COLUMNS]),
                temp=np.array([cell(name) for name in TEMP_COLUMNS]),
            ))
    return records


def write_csv(records, path) -> None:
    """Write records in the canonical column order with round-trip float text."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(REQUIRED_COLUMNS)
        for record in records:
            row = [repr(float(record.logarea_t1)), repr(float(record.logarea_t0)),
                   repr(float(record.w))]
            row.extend(repr(float(v)) for v in record.precip)
            row.extend(repr(float(v)) for v in record.temp)
            writer.writerow(row)


def to_dataset(records, basis: FourierBasis) -> Dataset:
    """Project the 37-bin histories onto ``basis`` and assemble the model data.

    The bins are mapped onto 37 equally spaced points of [0, 1]; the response
    is the log area change; the competition scalar is carried through.
    """
    records = list(records)
    if not records:
        raise SchemaError("no records to convert")
    if basis.dimension > N_BINS:
        raise ValueError(
            f"projection underdetermined: basis dimension {basis.dimension} > {N_BINS} bins"
        )
    precip = project_sample_rows(np.stack([r.precip for r in records]), basis)
    temp = project_sample_rows(np.stack([r.temp for r in records]), basis)
    return Dataset(
        blocks=(FunctionalBlock(basis, precip), FunctionalBlock(basis, temp)),
        y=np.array([r.response for r in records]),
        w=np.array([r.w for r in records]),
    )


@dataclass(frozen=True)
class EcologyTruth:
    """Generator ground truth for a synthetic ecology file."""

    alpha: float
    beta1: np.ndarray
    beta2: np.ndarray
    link: str
    noise_sd: float
    basis_dim: int
    seed: int
    n: int

    def __post_init__(self):
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}, expected one of {sorted(LINKS)}")
        object.__setattr__(self, "beta1", readonly_array(self.beta1))
        object.__setattr__(self, "beta2", readonly_array(self.beta2))
        if not (3 <= self.basis_dim <= N_BINS
                and self.beta1.shape == self.beta2.shape == (self.basis_dim - 1,)):
            raise ValueError(f"need basis_dim in [3, {N_BINS}] and basis_dim - 1 "
                             "coefficients in beta1 and beta2")

    def beta_expansions(self, basis: FourierBasis) -> tuple[BasisExpansion, BasisExpansion]:
        beta_basis = basis.drop_constant()
        return BasisExpansion(beta_basis, self.beta1), BasisExpansion(beta_basis, self.beta2)

    def true_index(self, data: Dataset) -> np.ndarray:
        """Index values implied by the truth on (projected) data."""
        betas = self.beta_expansions(data.blocks[0].basis)
        return compute_index(data, IndexModelSpec(betas, alpha=self.alpha))

    def to_json(self, path) -> None:
        write_json(path, {
            "alpha": self.alpha,
            "beta1": [float(v) for v in self.beta1],
            "beta2": [float(v) for v in self.beta2],
            "link": self.link,
            "noise_sd": self.noise_sd,
            "basis_dim": self.basis_dim,
            "seed": self.seed,
            "n": self.n,
        })

    @classmethod
    def from_json(cls, path) -> "EcologyTruth":
        """Read a truth file; values that make no truth raise :class:`SchemaError`."""
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        try:
            return cls(
                alpha=float(payload["alpha"]),
                beta1=np.asarray(payload["beta1"], dtype=float),
                beta2=np.asarray(payload["beta2"], dtype=float),
                link=str(payload["link"]),
                noise_sd=float(payload["noise_sd"]),
                basis_dim=int(payload["basis_dim"]),
                seed=int(payload["seed"]),
                n=int(payload["n"]),
            )
        except ValueError as exc:  # raised only by the conversions and checks of the values
            raise SchemaError(f"{path}: {exc}") from None


def _default_truth_coeffs(beta_dim: int) -> tuple[np.ndarray, np.ndarray]:
    beta1 = np.zeros(beta_dim)
    beta2 = np.zeros(beta_dim)
    beta1[:4] = (1.0, 0.6, 0.0, 0.3)
    beta2[:4] = (0.4, -0.8, 0.25, 0.0)
    joint = np.linalg.norm(np.concatenate([beta1, beta2]))
    return beta1 / joint, beta2 / joint


def synth_ecology(path, n: int, seed: int = 0, link: str = "g2", alpha: float = 0.6,
                  noise_sd: float = 0.05, basis_dim: int = 13,
                  beta1=None, beta2=None, truth_path=None) -> EcologyTruth:
    """Write a synthetic ecology CSV whose generating model is known.

    Histories are smooth random curves in a ``basis_dim``-dimensional Fourier
    basis with decaying harmonic scales and a nonzero mean level, so the index
    has a nonzero mean and the model's linear component is visible.  The
    combined (beta1, beta2) truth is unit norm.  A truth JSON is written next
    to the CSV (or at ``truth_path``).
    """
    if basis_dim < 3 or basis_dim > N_BINS:
        raise ValueError(f"basis dimension must be in [3, {N_BINS}], got {basis_dim}")
    basis = FourierBasis(basis_dim, include_constant=True)
    beta_dim = basis_dim - 1
    if beta1 is None or beta2 is None:
        default1, default2 = _default_truth_coeffs(beta_dim)
        beta1 = default1 if beta1 is None else beta1
        beta2 = default2 if beta2 is None else beta2
    truth = EcologyTruth(alpha=alpha, beta1=beta1, beta2=beta2, link=link,
                         noise_sd=noise_sd, basis_dim=basis_dim, seed=seed, n=n)

    rng = np.random.default_rng(seed)
    # decaying harmonic scales; pair k gets scale 0.6 / k
    harmonic = np.repeat(np.arange(1, (beta_dim + 1) // 2 + 1), 2)[:beta_dim]
    scales = 0.6 / harmonic
    grid = np.linspace(0.0, 1.0, N_BINS)
    design = basis.design_matrix(grid)

    def draw_histories(mean_level):
        coeffs = np.empty((n, basis_dim))
        coeffs[:, 0] = mean_level + 0.4 * rng.standard_normal(n)
        coeffs[:, 1:] = rng.standard_normal((n, beta_dim)) * scales
        return coeffs

    p_coeffs = draw_histories(mean_level=1.0)
    t_coeffs = draw_histories(mean_level=0.5)
    w = 1.0 + 0.5 * rng.standard_normal(n)
    index = p_coeffs[:, 1:] @ truth.beta1 + t_coeffs[:, 1:] @ truth.beta2 + alpha * w
    response = LINKS[link].g(index) + noise_sd * rng.standard_normal(n)
    logarea_t0 = 2.0 + 0.5 * rng.standard_normal(n)

    records = [
        EcologyRecord(
            logarea_t1=float(logarea_t0[i] + response[i]),
            logarea_t0=float(logarea_t0[i]),
            w=float(w[i]),
            precip=design @ p_coeffs[i],
            temp=design @ t_coeffs[i],
        )
        for i in range(n)
    ]
    write_csv(records, path)
    if truth_path is None:
        truth_path = str(path) + ".truth.json"
    truth.to_json(truth_path)
    return truth
