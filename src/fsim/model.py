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
from functools import cached_property

import numpy as np

from .basis import BasisExpansion, FourierBasis, readonly_array
from .locfit import EstimationError, check_bandwidth, check_finite, nw_loo_all, stack_size

# fewest samples the leave-one-out objective accepts
MIN_SAMPLES = 4


class NormalizationError(EstimationError):
    """A functional coefficient vector cannot be normalized: its squared norm
    is zero, subnormal, infinite or NaN."""


# the root of finfo.tiny, 2**-511: a squared norm f @ f lies in [tiny, inf)
# exactly when its correctly rounded root lies in [2**-511, inf)
_MIN_NORM = float(np.sqrt(np.finfo(float).tiny))


def _normalizable(norm):
    """Whether the norm of :func:`search_index` can scale a bandwidth, for
    one norm or an array of them.  A squared norm that overflows leaves no
    finite bandwidth, and a subnormal one has lost digits, so the bandwidth
    and the objective would move with the coefficients' scale."""
    return (_MIN_NORM <= norm) & (norm < np.inf)


def _check_norm(norm: float) -> None:
    """Raise :class:`NormalizationError` unless :func:`_normalizable`."""
    if not _MIN_NORM <= norm < np.inf:
        raise NormalizationError(
            "zero functional coefficient vector" if norm == 0.0 else
            f"functional coefficient norm {norm:.3g} out of range: its square is "
            f"subnormal, infinite or NaN")


class DegenerateObjectiveError(EstimationError):
    """The leave-one-out objective is undefined: too few samples, an index
    value that is not finite, or every sample lost its window (bandwidth far
    too small)."""


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
    """Samples of the index model: functional blocks, responses, optional scalar.

    Every value is finite: a NaN or infinite response, basis coefficient or
    scalar covariate raises :class:`ValueError` naming the field and the
    first row that holds one.
    """

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
        check_finite(y, "responses")
        object.__setattr__(self, "y", y)
        n = y.size
        for k, block in enumerate(self.blocks):
            if block.n != n:
                raise ValueError(f"block {k} has {block.n} samples, responses have {n}")
            check_finite(block.coeffs, f"block {k} coefficients")
        if self.w is not None:
            w = readonly_array(self.w)
            if w.shape != (n,):
                raise ValueError(f"scalar covariate must have shape ({n},), got {w.shape}")
            check_finite(w, "scalar covariate")
            object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.y.size

    @cached_property
    def search_columns(self) -> tuple[np.ndarray, ...]:
        """Each block's nonconstant columns (views, made once): the design
        :func:`search_index` multiplies by the search vector.  Contiguous
        copies timed no faster and would hold a second copy of the data."""
        return tuple(block.nonconstant() for block in self.blocks)

    def beta_dims(self) -> tuple[int, ...]:
        return tuple(columns.shape[1] for columns in self.search_columns)

    @cached_property
    def _search_dimension(self) -> int:
        return sum(self.beta_dims()) + (1 if self.w is not None else 0)

    def search_dimension(self) -> int:
        """Length of the raw search vector: functional coefficients plus alpha."""
        return self._search_dimension

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

    def search_vector(self) -> np.ndarray:
        """The coefficients, then any alpha: the search vector of this index."""
        alpha = [] if self.alpha is None else [self.alpha]
        return np.concatenate([self.coefficient_vector(), alpha])


@dataclass(frozen=True)
class ObjectiveReport:
    """Leave-one-out MSE value with its exclusion bookkeeping: one value, or
    one per row of a stack with the stack's total count."""

    mse: float | np.ndarray
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


def search_index(data: Dataset, raw) -> tuple[np.ndarray, np.ndarray]:
    """Index values at unnormalized search vectors, with the coefficient norms.

    A search vector holds each block's coefficients in block order, without
    the constant column, then alpha when the data carry a scalar.  ``raw``
    is one search vector (dim,) or a stack of them (S, dim), each mapped on
    the full data by the broadcast product ``columns @ raw[..., None]``,
    with no gather; a stack's rows have the bits of one vector's map, and a
    subset's index values are gathered from them, within about one
    rounding (eps times the sum of the terms' magnitudes) of the map of
    ``data.subset``, as the product rounds a row by its position.  The norm
    is that of the functional part, the root of its dot product; a square
    that overflows gives an infinite norm without a warning, which the
    objective refuses (:func:`_normalizable`).
    """
    raw = np.asarray(raw, dtype=float)
    z = np.zeros((raw.shape[:1] if raw.ndim == 2 else ()) + (data.n,))
    raw = _search_vector(data, raw, z.shape[:-1])
    start = 0
    for columns in data.search_columns:
        stop = start + columns.shape[-1]
        z += (columns @ raw[..., start:stop, None])[..., 0]
        start = stop
    if data.w is not None:
        z += raw[..., start, None] * data.w
    functional = raw[..., :start]
    with np.errstate(over="ignore"):
        return z, np.sqrt((functional[..., None, :] @ functional[..., :, None])[..., 0, 0])


def spec_from_raw(data: Dataset, raw) -> IndexModelSpec:
    """Normalized spec at a raw search point.

    The functional coefficients (and alpha with them, so the index only
    changes scale) are divided by the joint coefficient norm, so the
    objective at ``raw`` and bandwidth ``h`` equals, up to rounding, the
    objective at the spec's coefficients and the same ``h``.
    """
    parts, alpha = split_raw(data, raw)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(np.concatenate(parts)))
    _check_norm(norm)
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
    return search_index(data, spec.search_vector())[0]


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


def objective_loo_mse(data: Dataset, raw_coeffs, h, samples=None) -> ObjectiveReport:
    """Leave-one-out Nadaraya-Watson mean squared error at raw search points.

    The kernel bandwidth is ``h`` times the functional coefficient norm, which
    makes the value invariant to rescaling the search vector; equivalently the
    model is evaluated at the unit-norm coefficients of :func:`spec_from_raw`
    with bandwidth ``h``.  Samples with an empty leave-one-out window are
    excluded from the average and counted, so the bandwidth selector can
    reject pathological bandwidths; the report holds the value and that count.

    One search vector (dim,) at one ``h`` gives a float ``mse`` and raises
    :class:`DegenerateObjectiveError` (fewer than ``MIN_SAMPLES`` samples,
    an index value that overflows to infinity, every sample excluded) or
    :class:`NormalizationError`.  A stack (S, dim)
    with one ``h`` per row, or one for all, is scored in one call: one
    batched index map (:func:`search_index`) and one :func:`nw_loo_all`
    call, so the caller bounds S by :func:`fsim.locfit.stack_size`.  Its
    ``mse`` holds each row's value, bit for bit the one-point value, and
    infinity where the one-point call would raise; ``excluded_count`` is
    the total over the stack.

    A stack may carry ``samples``, an (S, m) integer array of indices in
    [0, n), unchecked here: row i is then scored on
    ``data.subset(samples[i])``, with index values gathered from the
    full-data map through flat indices, which can be one rounding from the
    subset's own map (:func:`search_index`).  Each row's squares, excluded
    ones zeroed, are summed by one ``sum(axis=-1)``, as numpy sums the row
    alone.
    """
    raw = np.asarray(raw_coeffs, dtype=float)
    one = raw.ndim == 1
    if samples is not None and (one or samples.ndim != 2 or len(samples) != len(raw)):
        raise ValueError(f"expected one row of samples per search vector, got "
                         f"{samples.shape} for {raw.shape}")
    n = data.n if samples is None else samples.shape[-1]
    if one and n < MIN_SAMPLES:
        raise DegenerateObjectiveError(
            f"objective needs at least {MIN_SAMPLES} samples, got {n}")
    h = np.asarray(h, dtype=float)
    check_bandwidth(h)
    z, norms = search_index(data, raw[None] if one else raw)
    if not one and n < MIN_SAMPLES:
        return ObjectiveReport(mse=np.full(len(z), np.inf), excluded_count=0)
    y = data.y
    if samples is not None:
        z = z.reshape(-1)[samples + data.n * np.arange(len(samples))[:, None]]
        y = y[samples]
    ok = _normalizable(norms) & np.isfinite(z).all(axis=-1)
    if one and not ok[0]:
        _check_norm(float(norms[0]))
        raise DegenerateObjectiveError("an index value is not finite: the search vector is "
                                       "too large for the data")
    rows = slice(None) if ok.all() else np.flatnonzero(ok)
    if y.ndim > 1:
        y = y[rows]
    estimates, excluded = nw_loo_all(z[rows], y, (h[rows] if h.ndim else h) * norms[rows])
    residuals = y - estimates
    squares = residuals * residuals
    squares[excluded] = 0.0
    counts = np.count_nonzero(excluded, axis=-1)
    mse = np.full(len(z), np.inf)
    mse[rows] = np.divide(squares.sum(axis=-1), n - counts, out=np.full(len(counts), np.inf),
                          where=counts < n)
    if not one:
        return ObjectiveReport(mse=mse, excluded_count=int(counts.sum()))
    if counts[0] == n:
        raise DegenerateObjectiveError(
            f"every sample excluded at h={h.item():.6g}; bandwidth far too small")
    return ObjectiveReport(mse=float(mse[0]), excluded_count=int(counts[0]))


class StackedObjective:
    """The leave-one-out objective of many searches on one dataset, each at a
    bandwidth of its own, all on the full data or each on a subset of it.

    ``objective(which, points)`` returns, for each row of ``points``, the
    one-point :func:`objective_loo_mse` value of search ``which[i]``, or
    infinity where that raises.  With ``subsets`` None ``h`` holds one
    bandwidth per search (a scalar is one search); else search k runs on
    ``data.subset(subsets[k])`` and ``h`` holds one bandwidth per subset,
    or one for all.  Points on samples of one size run in stacks of
    :func:`fsim.locfit.stack_size` points, each one
    :func:`objective_loo_mse` call: with no gather on the full data, with
    each point's subset as its ``samples`` row otherwise, which moved the
    objective by at most 5.0e-16 relative on simulated draws.  A subset
    index outside [0, n) raises :class:`ValueError`, since the flat gather
    would read another row's map.
    """

    def __init__(self, data: Dataset, subsets, h):
        h = np.asarray(h, dtype=float)
        self.data = data
        if subsets is None:
            self._h = h.reshape(-1)
            self._sizes = np.full(self._h.size, data.n)
            self._members = {data.n: None}
        else:
            self._h = np.broadcast_to(h, (len(subsets),))
            subsets = [np.asarray(indices, dtype=int) for indices in subsets]
            for k, indices in enumerate(subsets):
                if np.any((indices < 0) | (indices >= data.n)):
                    raise ValueError(f"subset {k} has sample indices outside [0, {data.n})")
            self._sizes = np.array([indices.size for indices in subsets], dtype=int)
            self._positions = np.empty(len(subsets), dtype=int)
            self._members = {}
            for n in sorted(set(self._sizes.tolist())):
                members = np.flatnonzero(self._sizes == n)
                self._positions[members] = np.arange(members.size)
                self._members[n] = np.stack([subsets[k] for k in members.tolist()])
        check_bandwidth(self._h)

    def __call__(self, which, points) -> np.ndarray:
        which = np.asarray(which, dtype=int)
        points = np.asarray(points, dtype=float)
        values = np.full(len(points), np.inf)
        sizes = self._sizes[which]
        for n, members in self._members.items():
            if n < MIN_SAMPLES:
                continue
            rows = np.flatnonzero(sizes == n)
            step = stack_size(n)
            for a in range(0, rows.size, step):
                part = rows[a:a + step]
                search = which[part]
                samples = None if members is None else members[self._positions[search]]
                values[part] = objective_loo_mse(self.data, points[part], self._h[search],
                                                 samples).mse
        return values
