"""Index model specification, identifiability normalization, and the search objective.

The model is y = g(alpha * w + sum_b integral x_b beta_b) + noise with unknown
link g and unknown coefficient functions beta_b.  Scale is not identified (g
absorbs it), so the functional coefficients are constrained to joint unit norm;
during the coefficient search the constraint is imposed implicitly by scaling
the kernel bandwidth with the current coefficient norm, which makes the
objective invariant to rescaling the search vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisExpansion, FourierBasis, readonly_array
from .locfit import EstimationError, nw_loo_all, nw_loo_batch, stack_size

# fewest samples the leave-one-out objective accepts
MIN_SAMPLES = 4


class NormalizationError(EstimationError):
    """A zero functional coefficient vector cannot be normalized."""


class DegenerateObjectiveError(EstimationError):
    """The leave-one-out objective is undefined: too few samples, or every
    sample lost its window (bandwidth far too small)."""


@dataclass(frozen=True)
class FunctionalBlock:
    """Coefficient matrix of n covariate functions sharing one basis."""

    basis: FourierBasis
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = readonly_array(self.coeffs)
        if coeffs.ndim != 2 or coeffs.shape[1] != self.basis.dimension:
            raise ValueError(
                f"expected (n, {self.basis.dimension}) coefficients, got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def nonconstant(self) -> np.ndarray:
        """Columns aligned with the coefficient-function basis (constant dropped)."""
        return self.coeffs[:, 1:] if self.basis.include_constant else self.coeffs

    def beta_basis(self) -> FourierBasis:
        return self.basis.drop_constant()

    def expansion(self, i: int) -> BasisExpansion:
        return BasisExpansion(self.basis, self.coeffs[i])


@dataclass(frozen=True)
class Dataset:
    """Samples of the index model: functional blocks, responses, optional scalar."""

    blocks: tuple[FunctionalBlock, ...]
    y: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("dataset needs at least one functional block")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        y = readonly_array(self.y)
        if y.ndim != 1:
            raise ValueError(f"responses must be one-dimensional, got {y.shape}")
        object.__setattr__(self, "y", y)
        n = y.size
        for k, block in enumerate(self.blocks):
            if block.n != n:
                raise ValueError(f"block {k} has {block.n} samples, responses have {n}")
        if self.w is not None:
            w = readonly_array(self.w)
            if w.shape != (n,):
                raise ValueError(f"scalar covariate must have shape ({n},), got {w.shape}")
            object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.y.size

    def beta_dims(self) -> tuple[int, ...]:
        return tuple(block.nonconstant().shape[1] for block in self.blocks)

    def search_dimension(self) -> int:
        """Length of the raw search vector: functional coefficients plus alpha."""
        return sum(self.beta_dims()) + (1 if self.w is not None else 0)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        blocks = tuple(
            FunctionalBlock(block.basis, block.coeffs[idx]) for block in self.blocks
        )
        w = None if self.w is None else self.w[idx]
        return Dataset(blocks, self.y[idx], w)


@dataclass(frozen=True)
class IndexModelSpec:
    """Identifiability-normalized model coefficients plus a bandwidth record.

    ``bandwidth`` is the working bandwidth at the point the spec was built
    from (the search bandwidth times the raw coefficient norm); smoothing
    entry points take their bandwidth explicitly.
    """

    beta_blocks: tuple[BasisExpansion, ...]
    bandwidth: float
    alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta_blocks", tuple(self.beta_blocks))
        if not self.beta_blocks:
            raise ValueError("spec needs at least one coefficient function")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        for beta in self.beta_blocks:
            if beta.basis.include_constant:
                raise ValueError("coefficient functions must not carry a constant term")

    def coefficient_vector(self) -> np.ndarray:
        return np.concatenate([beta.coeffs for beta in self.beta_blocks])


@dataclass(frozen=True)
class ObjectiveReport:
    """Leave-one-out MSE value with its exclusion bookkeeping."""

    mse: float
    excluded_count: int
    index_values: np.ndarray


def _search_vector(data: Dataset, raw) -> np.ndarray:
    raw = np.asarray(raw, dtype=float)
    expected = data.search_dimension()
    if raw.shape != (expected,):
        raise ValueError(f"expected a search vector of length {expected}, got {raw.shape}")
    return raw


def split_raw(data: Dataset, raw) -> tuple[list[np.ndarray], float | None]:
    """Split a raw search vector into per-block coefficients and alpha."""
    raw = _search_vector(data, raw)
    parts = []
    start = 0
    for dim in data.beta_dims():
        parts.append(raw[start:start + dim])
        start += dim
    alpha = float(raw[start]) if data.w is not None else None
    return parts, alpha


def raw_index(data: Dataset, raw) -> tuple[np.ndarray, float]:
    """Index values at an unnormalized search vector, with the coefficient norm.

    Runs once per objective evaluation, so it reads slices of ``raw``
    instead of building :func:`split_raw`'s parts and concatenating them.
    """
    raw = _search_vector(data, raw)
    z = np.zeros(data.n)
    start = 0
    for block in data.blocks:
        columns = block.nonconstant()
        stop = start + columns.shape[1]
        z += columns @ raw[start:stop]
        start = stop
    if data.w is not None:
        z += float(raw[start]) * data.w
    return z, float(np.linalg.norm(raw[:start]))


def spec_from_raw(data: Dataset, raw, h: float) -> IndexModelSpec:
    """Normalized spec at a raw search point.

    The functional coefficients (and alpha with them, so the index only
    changes scale) are divided by the joint coefficient norm, and the
    bandwidth is multiplied by it, recording the working bandwidth.
    """
    parts, alpha = split_raw(data, raw)
    norm = float(np.linalg.norm(np.concatenate(parts)))
    if norm == 0.0:
        raise NormalizationError("zero functional coefficient vector")
    betas = tuple(
        BasisExpansion(block.beta_basis(), part / norm)
        for block, part in zip(data.blocks, parts)
    )
    return IndexModelSpec(
        beta_blocks=betas,
        bandwidth=h * norm,
        alpha=None if alpha is None else alpha / norm,
    )


def compute_index(data: Dataset, spec: IndexModelSpec) -> np.ndarray:
    """Single index alpha * w + sum_b <x_b, beta_b> for every sample."""
    if len(spec.beta_blocks) != len(data.blocks):
        raise ValueError(
            f"spec has {len(spec.beta_blocks)} coefficient functions for "
            f"{len(data.blocks)} functional blocks"
        )
    z = np.zeros(data.n)
    for k, (block, beta) in enumerate(zip(data.blocks, spec.beta_blocks)):
        xs = block.nonconstant()
        if beta.basis != block.beta_basis():
            raise ValueError(f"block {k}: coefficient basis does not match covariate basis")
        z += xs @ beta.coeffs
    if spec.alpha is not None:
        if data.w is None:
            raise ValueError("spec has a scalar coefficient but the dataset has no scalar")
        z += spec.alpha * data.w
    return z


def canonical_sign(spec: IndexModelSpec, reference=None) -> IndexModelSpec:
    """Deterministic sign for reporting; the link absorbs reflections.

    Flips the whole spec (coefficients and alpha together, so only the index
    orientation changes) when the functional coefficient vector points away
    from ``reference``, or, without one, when its first nonzero entry is
    negative.
    """
    c = spec.coefficient_vector()
    if reference is not None:
        ref = np.asarray(reference, dtype=float)
        if ref.shape != c.shape:
            raise ValueError(f"reference shape {ref.shape} does not match {c.shape}")
        flip = float(c @ ref) < 0.0
    else:
        nonzero = np.nonzero(c)[0]
        flip = bool(nonzero.size) and c[nonzero[0]] < 0.0
    if not flip:
        return spec
    betas = tuple(BasisExpansion(b.basis, -b.coeffs) for b in spec.beta_blocks)
    alpha = None if spec.alpha is None else -spec.alpha
    return IndexModelSpec(betas, spec.bandwidth, alpha)


def objective_loo_mse(data: Dataset, raw_coeffs, h: float) -> ObjectiveReport:
    """Leave-one-out Nadaraya-Watson mean squared error at a raw search point.

    The kernel bandwidth is ``h`` times the functional coefficient norm, which
    makes the value invariant to rescaling the search vector; equivalently the
    model is evaluated at unit norm with bandwidth ``h``.  Samples with an
    empty leave-one-out window are excluded from the average and counted, so
    the bandwidth selector can reject pathological bandwidths.
    """
    if data.n < MIN_SAMPLES:
        raise DegenerateObjectiveError(
            f"objective needs at least {MIN_SAMPLES} samples, got {data.n}")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    z, norm = raw_index(data, raw_coeffs)
    if norm == 0.0:
        raise NormalizationError("zero functional coefficient vector")
    estimates, excluded = nw_loo_all(z, data.y, h * norm)
    excluded_count = int(np.count_nonzero(excluded))
    if excluded_count == data.n:
        raise DegenerateObjectiveError(
            f"every sample excluded at h={h:.6g}; bandwidth far too small"
        )
    residuals = data.y - estimates
    if excluded_count:
        residuals = residuals[~excluded]
    squares = residuals * residuals
    z /= norm
    z.flags.writeable = False
    return ObjectiveReport(
        # np.mean's own sum and division, bit for bit, without its dispatch cost
        mse=float(squares.sum() / squares.size),
        excluded_count=excluded_count,
        index_values=z,
    )


class StackedObjective:
    """The leave-one-out objective on subsets of one dataset at bandwidth ``h``.

    ``objective(which, points)`` returns, for each row of ``points``
    evaluated on ``data.subset(subsets[which[i]])``, the value
    :func:`fsim.optimize.safe_objective` gives there: the
    :func:`objective_loo_mse` value, or infinity where that raises
    (fewer than ``MIN_SAMPLES`` samples, a zero coefficient norm, every
    sample excluded).  Points on subsets of one size are evaluated in
    stacks (:func:`fsim.locfit.stack_size`) whose kernel tile and gathered
    coefficients hold at most ``ONE_TILE_MAX**2`` values each: the index
    values and coefficient norms come from stacked products, the kernel
    sums from :func:`fsim.locfit.nw_loo_batch`, and every other reduction
    runs per point, so each value is the serial one bit for bit.  The
    subsets' samples are gathered from ``data`` per stack, never copied
    whole.
    """

    def __init__(self, data: Dataset, subsets, h: float):
        if h <= 0:
            raise ValueError(f"bandwidth must be positive, got {h}")
        self.data = data
        self.h = h
        subsets = [np.asarray(indices, dtype=int) for indices in subsets]
        self._sizes = np.array([indices.size for indices in subsets], dtype=int)
        self._positions = np.empty(len(subsets), dtype=int)
        self._members = {}
        for n in sorted(set(self._sizes.tolist())):
            members = np.flatnonzero(self._sizes == n)
            self._positions[members] = np.arange(members.size)
            self._members[n] = np.stack([subsets[k] for k in members.tolist()])

    def __call__(self, which, points) -> np.ndarray:
        which = np.asarray(which, dtype=int)
        points = np.asarray(points, dtype=float)
        values = np.full(len(points), np.inf)
        sizes = self._sizes[which]
        # a stack's kernel tile holds n * n values, its coefficients n * width
        width = max(block.coeffs.shape[1] for block in self.data.blocks)
        for n, members in self._members.items():
            if n < MIN_SAMPLES:
                continue
            rows = np.flatnonzero(sizes == n)
            step = stack_size(n * max(n, width))
            for a in range(0, rows.size, step):
                part = rows[a:a + step]
                values[part] = self._loo_mse(members[self._positions[which[part]]],
                                             points[part])
        return values

    def _loo_mse(self, samples: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """:func:`objective_loo_mse` at every row of ``raw`` on the subset of
        the matching row of ``samples``, infinity where it raises."""
        data = self.data
        z = np.zeros(samples.shape)
        start = 0
        for block in data.blocks:
            # each slice has the layout of the subset's own coefficient matrix
            columns = block.coeffs[samples]
            if block.basis.include_constant:
                columns = columns[:, :, 1:]
            stop = start + columns.shape[2]
            z += (columns @ raw[:, start:stop, None])[..., 0]
            start = stop
        if data.w is not None:
            z += raw[:, start, None] * data.w[samples]
        functional = raw[:, :start]
        # per row the dot product np.linalg.norm takes the root of
        norms = np.sqrt((functional[:, None, :] @ functional[:, :, None])[:, 0, 0])
        mse = np.full(len(raw), np.inf)
        ok = np.flatnonzero(norms != 0.0)
        y = data.y[samples[ok]]
        estimates, excluded = nw_loo_batch(z[ok], y, self.h * norms[ok])
        residuals = y - estimates
        squares = residuals * residuals
        dropped = np.count_nonzero(excluded, axis=1)
        mse[ok] = squares.sum(axis=-1) / samples.shape[1]
        for i in np.flatnonzero(dropped).tolist():
            kept = squares[i][~excluded[i]]
            mse[ok[i]] = kept.sum() / kept.size if kept.size else np.inf
        return mse
