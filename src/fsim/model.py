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
    """Identifiability-normalized model coefficients: coefficient functions and alpha.

    Smoothing entry points take their bandwidth explicitly; a fit's are the
    ones its bandwidth selection chose.
    """

    beta_blocks: tuple[BasisExpansion, ...]
    alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta_blocks", tuple(self.beta_blocks))
        if not self.beta_blocks:
            raise ValueError("spec needs at least one coefficient function")
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


def _search_vector(data: Dataset, raw, lead=()) -> np.ndarray:
    raw = np.asarray(raw, dtype=float)
    expected = lead + (data.search_dimension(),)
    if raw.shape != expected:
        raise ValueError(f"expected search vectors of shape {expected}, got {raw.shape}")
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


def search_index(data: Dataset, raw, samples=None) -> tuple[np.ndarray, np.ndarray]:
    """Index values at unnormalized search vectors, with the coefficient norms.

    A search vector holds each block's coefficients in block order, without
    the constant column, then alpha when the data carry a scalar.  Given
    ``samples``, ``raw`` is a stack of search vectors and row ``b`` is mapped
    on the samples ``samples[b]``, bit for bit as on
    ``data.subset(samples[b])``.  The norm is that of the functional part.
    """
    rows = slice(None) if samples is None else samples
    z = np.zeros(data.y[rows].shape)
    raw = _search_vector(data, raw, z.shape[:-1])
    start = 0
    for block in data.blocks:
        # each slice has the layout of the subset's own coefficient matrix
        columns = block.coeffs[rows]
        if block.basis.include_constant:
            columns = columns[..., 1:]
        stop = start + columns.shape[-1]
        z += (columns @ raw[..., start:stop, None])[..., 0]
        start = stop
    if data.w is not None:
        z += raw[..., start, None] * data.w[rows]
    functional = raw[..., :start]
    # per search vector the dot product np.linalg.norm takes the root of
    return z, np.sqrt((functional[..., None, :] @ functional[..., :, None])[..., 0, 0])


def spec_from_raw(data: Dataset, raw) -> IndexModelSpec:
    """Normalized spec at a raw search point.

    The functional coefficients (and alpha with them, so the index only
    changes scale) are divided by the joint coefficient norm, so the
    objective at ``raw`` and bandwidth ``h`` equals, up to rounding, the
    objective at the spec's coefficients and the same ``h``.
    """
    parts, alpha = split_raw(data, raw)
    norm = float(np.linalg.norm(np.concatenate(parts)))
    if norm == 0.0:
        raise NormalizationError("zero functional coefficient vector")
    betas = tuple(
        BasisExpansion(block.beta_basis(), part / norm)
        for block, part in zip(data.blocks, parts)
    )
    return IndexModelSpec(beta_blocks=betas, alpha=None if alpha is None else alpha / norm)


def compute_index(data: Dataset, spec: IndexModelSpec) -> np.ndarray:
    """Single index alpha * w + sum_b <x_b, beta_b> for every sample."""
    if len(spec.beta_blocks) != len(data.blocks):
        raise ValueError(
            f"spec has {len(spec.beta_blocks)} coefficient functions for "
            f"{len(data.blocks)} functional blocks"
        )
    for k, (block, beta) in enumerate(zip(data.blocks, spec.beta_blocks)):
        if beta.basis != block.beta_basis():
            raise ValueError(f"block {k}: coefficient basis does not match covariate basis")
    if (spec.alpha is None) != (data.w is None):
        raise ValueError("spec has a scalar coefficient but the dataset has no scalar"
                         if data.w is None else
                         "dataset has a scalar but the spec has no scalar coefficient")
    alpha = [] if spec.alpha is None else [spec.alpha]
    return search_index(data, np.concatenate([spec.coefficient_vector(), alpha]))[0]


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
    return IndexModelSpec(betas, alpha)


def objective_loo_mse(data: Dataset, raw_coeffs, h: float) -> ObjectiveReport:
    """Leave-one-out Nadaraya-Watson mean squared error at a raw search point.

    The kernel bandwidth is ``h`` times the functional coefficient norm, which
    makes the value invariant to rescaling the search vector; equivalently the
    model is evaluated at the unit-norm coefficients of :func:`spec_from_raw`
    with bandwidth ``h``.  Samples with an empty leave-one-out window are
    excluded from the average and counted, so the bandwidth selector can
    reject pathological bandwidths; the report holds the value and that count.
    """
    if data.n < MIN_SAMPLES:
        raise DegenerateObjectiveError(
            f"objective needs at least {MIN_SAMPLES} samples, got {data.n}")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    z, norm = search_index(data, raw_coeffs)
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
    return ObjectiveReport(
        # np.mean's own sum and division, bit for bit, without its dispatch cost
        mse=float(squares.sum() / squares.size),
        excluded_count=excluded_count,
    )


class StackedObjective:
    """The leave-one-out objective on subsets of one dataset, one bandwidth each.

    ``objective(which, points)`` returns, for each row of ``points``
    evaluated on ``data.subset(subsets[which[i]])`` at bandwidth
    ``h[which[i]]`` (``h`` holds one bandwidth per subset, or one for all),
    the value :func:`fsim.optimize.safe_objective` gives there: the
    :func:`objective_loo_mse` value, or infinity where that raises
    (fewer than ``MIN_SAMPLES`` samples, a zero coefficient norm, every
    sample excluded).  Points on subsets of one size are evaluated in
    stacks (:func:`fsim.locfit.stack_size`) whose gathered coefficients
    hold at most ``ONE_TILE_MAX**2`` values; :func:`fsim.locfit.nw_loo_batch`
    splits each stack's kernel sums into tiles of at most that many pairs.
    The index values and coefficient norms come from :func:`search_index`,
    and every other reduction runs per point, so each value is the serial
    one bit for bit.  The subsets' samples are gathered from ``data`` per
    stack, never copied whole.
    """

    def __init__(self, data: Dataset, subsets, h):
        self._h = np.broadcast_to(np.asarray(h, dtype=float), (len(subsets),))
        if np.any(self._h <= 0):
            raise ValueError(f"bandwidth must be positive, got {self._h.min()}")
        self.data = data
        # a stack gathers n * width coefficients per point
        self._width = max(block.coeffs.shape[1] for block in data.blocks)
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
        for n, members in self._members.items():
            if n < MIN_SAMPLES:
                continue
            rows = np.flatnonzero(sizes == n)
            step = stack_size(n * self._width)
            for a in range(0, rows.size, step):
                part = rows[a:a + step]
                search = which[part]
                values[part] = self._loo_mse(members[self._positions[search]],
                                             self._h[search], points[part])
        return values

    def _loo_mse(self, samples: np.ndarray, h: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """:func:`objective_loo_mse` at every row of ``raw`` on the subset of
        the matching row of ``samples`` at the matching bandwidth of ``h``,
        infinity where it raises."""
        data = self.data
        z, norms = search_index(data, raw, samples)
        mse = np.full(len(raw), np.inf)
        ok = np.flatnonzero(norms != 0.0)
        y = data.y[samples[ok]]
        estimates, excluded = nw_loo_batch(z[ok], y, h[ok] * norms[ok])
        residuals = y - estimates
        squares = residuals * residuals
        n = samples.shape[1]
        mse[ok] = squares.sum(axis=-1) / n
        kept = n - np.count_nonzero(excluded, axis=1)
        partial = np.flatnonzero(kept < n)
        kept = kept[partial]
        # rows with the same kept count compact into one matrix, each row
        # summed on its own as the serial objective sums its kept samples
        for c in set(kept.tolist()):
            rows = partial[kept == c]
            if c == 0:
                mse[ok[rows]] = np.inf
                continue
            mse[ok[rows]] = squares[rows][~excluded[rows]].reshape(rows.size, c).sum(axis=-1) / c
        return mse
