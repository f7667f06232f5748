"""Local quadratic weighted least squares for the link function and its derivatives.

At an evaluation point ``u`` the responses are fit to a second-order Taylor
polynomial with kernel weights K((z_i - u)/h).  The minimizer of

    sum_i [y_i - a - b (z_i - u) - c (z_i - u)^2 / 2]^2 K((z_i - u)/h)

estimates (g(u), g'(u), g''(u)) = (a, b, c), and each estimate is a linear
functional of the responses: the rows of (X'WX)^{-1} X'W, exposed here as
smoother rows.

All kernel sums above the smallest problems run on sorted windows.  The
kernel vanishes beyond one bandwidth, so a sum sorts its points and samples
once and sums every point over its own run of samples, in ascending sample
order: one :func:`fsim.kernel.window_sums` call forms the moments of the
local fits (quadratic behind GCV, curve grids and RASE; constant for
k-fold's held-out Nadaraya-Watson prediction), and above ``ONE_TILE_MAX``
samples one :func:`fsim.kernel.loo_estimates` call gives the leave-one-out
estimator inside the coefficient-search objective.  :func:`nw_loo_all`
takes one leave-one-out problem or a stack of them, the points of a
lockstep step: up to the cap one :func:`transform_inplace` call forms the
weights of a dense stack of tiles, and above it one ``loo_estimates`` call
covers the stack.  The call never splits a stack; its callers bound them by
:func:`stack_size`.  The pointwise fits
(:func:`local_quad_fit`, :func:`smoother_matrix`, :func:`relocated_fit`)
stay as the reference for the batched ones.

Every public entry point refuses a NaN or infinite index value, response or
evaluation point with :class:`ValueError` (:func:`check_finite`), so the
sums below run on finite values only.  NaN in a result marks an empty
window or an unusable local fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import is_integer, readonly_array
from .kernel import (NORMALIZER, loo_estimates, nw_ratio, smooth_kernel, transform_inplace,
                     window_sums)

MIN_WINDOW_POINTS = 3
CONDITION_LIMIT = 1e12
# steps of h/4 that relocated_fit takes toward the data centre before it gives up
RELOCATION_STEPS = 64
# The largest leave-one-out problem that runs as a dense tile without
# sorting.  tools/kernel_sweep.py puts the crossover of a 30-point lockstep
# step between 40 and 48 samples with the compiled loops, and between 64
# and 90 for 10-point steps; without a compiler the dense numpy stack wins
# well beyond both (see README, "Performance").
ONE_TILE_MAX = 64


class EstimationError(RuntimeError):
    """The data admit no estimate here: the failure an estimation pipeline
    counts (a failed bandwidth, strategy or Monte-Carlo rep) rather than a bug."""


class SingularFitError(EstimationError):
    """A least-squares design is unusable: the local fit at an evaluation
    point, or the linear start of the coefficient search."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def raise_failure(outcome):
    """``outcome``, or raise it when it is an :class:`EstimationError`, as
    the one-item calls of the batched pipelines do.  A raised error's
    traceback holds each frame it leaves, so callers pass the outcome
    straight in and this frame drops its own reference: no local closes a
    cycle only the collector frees."""
    if isinstance(outcome, EstimationError):
        try:
            raise outcome
        finally:
            del outcome
    return outcome


@dataclass(frozen=True)
class LocalQuadFit:
    """Level, slope and curvature estimates at one evaluation point.

    ``smoother_row_k . y`` reproduces the k-th estimate exactly; the rows are
    the data-dependent linear functionals behind (a_hat, b_hat, c_hat).
    """

    u: float
    a_hat: float
    b_hat: float
    c_hat: float
    effective_points: int
    smoother_row_0: np.ndarray
    smoother_row_1: np.ndarray
    smoother_row_2: np.ndarray


def check_finite(values: np.ndarray, name: str) -> None:
    """Raise :class:`ValueError` unless every value of the float array
    ``values`` is finite; the message names ``name``, the first NaN or
    infinity and its row (and column, in a 2-d array)."""
    finite = np.isfinite(values)
    if not finite.all():
        at = np.unravel_index(int(np.argmin(finite)), finite.shape)
        place = f" at row {', column '.join(map(str, at))}" if at else ""
        raise ValueError(f"{name} must be finite, got {values[at]}{place}")


def _as_vector(values, name: str) -> np.ndarray:
    """``values`` as a checked one-dimensional float array (:func:`check_finite`)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    check_finite(arr, name)
    return arr


def check_bandwidth(h, name: str = "bandwidth") -> None:
    """Raise :class:`ValueError` unless ``h``, a number or an array of them,
    is positive and finite throughout: NaN and infinity are refused as zero is."""
    if isinstance(h, np.ndarray) and h.ndim:
        # min and max are NaN when any value is
        if h.size and not (0.0 < h.min() and h.max() < np.inf):
            bad = ~((0.0 < h) & (h < np.inf))
            raise ValueError(f"{name} must be positive and finite, got {h[bad][0]}")
    elif not 0.0 < h < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {h}")


def _fit_inputs(index_values, responses, h: float):
    """Checked index and response vectors of one smoothing call."""
    z = _as_vector(index_values, "index_values")
    y = _as_vector(responses, "responses")
    if z.size != y.size:
        raise ValueError(f"got {z.size} index values but {y.size} responses")
    check_bandwidth(h)
    return z, y


def _smoother_rows(z: np.ndarray, u: float, h: float):
    """Rows M with (a, b, c) = M @ y, plus the in-window point count.

    The system is solved on the h-scaled design for conditioning; the
    condition guard applies to the raw normal matrix X'WX that defines the
    estimator.
    """
    d = z - u
    s = d / h
    w = smooth_kernel(s)
    inside = int(np.count_nonzero(w))
    if inside < MIN_WINDOW_POINTS:
        raise SingularFitError(
            f"only {inside} points inside the window at u={u:.6g} (h={h:.6g})"
        )
    ones = np.ones_like(d)
    raw_design = np.stack([ones, d, 0.5 * d * d])
    a_raw = (raw_design * w) @ raw_design.T
    cond = np.linalg.cond(a_raw)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularFitError(
            f"normal matrix condition {cond:.3g} exceeds {CONDITION_LIMIT:.0e} at u={u:.6g}"
        )
    scaled_design = np.stack([ones, s, 0.5 * s * s])
    weighted = scaled_design * w
    try:
        rows = np.linalg.solve(weighted @ scaled_design.T, weighted)
    except np.linalg.LinAlgError as exc:
        raise SingularFitError(f"singular normal matrix at u={u:.6g}") from exc
    rows[1] /= h
    rows[2] /= h * h
    return rows, inside


def _tagged_rows(z: np.ndarray, j: int, h: float) -> np.ndarray:
    """Smoother rows of the fit at sample ``j``; a singular fit names the row."""
    try:
        return _smoother_rows(z, float(z[j]), float(h))[0]
    except SingularFitError as exc:
        raise SingularFitError(f"row {j}: {exc}", row=j) from exc


def local_quad_fit(index_values, responses, u: float, h: float) -> LocalQuadFit:
    """Fit the local quadratic at ``u`` with bandwidth ``h``.

    Requires at least three samples strictly inside the kernel window; raises
    :class:`SingularFitError` otherwise, or when the weighted normal matrix
    is too ill-conditioned to trust.
    """
    z, y = _fit_inputs(index_values, responses, h)
    check_finite(np.float64(u), "u")
    rows, inside = _smoother_rows(z, float(u), float(h))
    a, b, c = rows @ y
    return LocalQuadFit(
        u=float(u),
        a_hat=float(a),
        b_hat=float(b),
        c_hat=float(c),
        effective_points=inside,
        smoother_row_0=readonly_array(rows[0]),
        smoother_row_1=readonly_array(rows[1]),
        smoother_row_2=readonly_array(rows[2]),
    )


def _sorted_moments(points, samples, responses, h):
    """The moments of :func:`fsim.kernel.window_sums` at finite points from
    finite samples in any order: both are sorted once, and the moments come
    back in the input order of the points."""
    order = np.argsort(points)
    by_index = np.argsort(samples)
    sorted_sums = window_sums(points[order], samples[by_index], responses[by_index], h)
    sums = np.empty_like(sorted_sums)
    sums[:, order] = sorted_sums
    return sums


def _nw_tile(points, responses):
    """Leave-one-out kernel row sums and kernel-weighted response sums of one
    dense tile, or of a stack of them.

    One :func:`transform_inplace` call forms the unnormalized weights of the
    differences ``points[..., j] - points[..., i]``, the diagonal of each
    row's own sample is zeroed, and one product of the weights with the
    (1, y) columns gives both sums; the kernel constant cancels in the ratio
    :func:`fsim.kernel.nw_ratio` takes.  A leading batch axis on ``points`` stacks
    tiles of one shape, with ``responses`` of the same shape or one vector
    for all; the stacked product sums each slice exactly as it would be
    summed alone.
    """
    n = points.shape[-1]
    w = transform_inplace(np.empty(points.shape + (n,)), points, points)
    w.reshape(w.shape[:-2] + (n * n,))[..., ::n + 1] = 0.0
    ones_y = np.empty(responses.shape + (2,))
    ones_y[..., 0] = 1.0
    ones_y[..., 1] = responses
    sums = w @ ones_y
    return sums[..., 0], sums[..., 1]


def _nw_loo(points, responses):
    """Leave-one-out estimates ``(estimates, excluded)`` at every h-scaled
    sample of a stack of (B, n) problems, with (B, n) responses or one (n,)
    vector for all: one dense stack of tiles (:func:`_nw_tile`) up to
    ``ONE_TILE_MAX`` samples, else one :func:`fsim.kernel.loo_estimates`
    call."""
    if points.shape[-1] <= ONE_TILE_MAX:
        return nw_ratio(*_nw_tile(points, responses))
    return loo_estimates(points, responses)


# the largest dense stack of one nw_loo_all call (S n^2 weights), and the
# largest (S, n) array of a windowed one; callers split their stacks by stack_size
STACK_PAIRS = 2**16
STACK_VALUES = 2**13


def stack_size(n: int) -> int:
    """How many leave-one-out problems of ``n`` samples one :func:`nw_loo_all`
    call should take: a dense stack of at most ``STACK_PAIRS`` weights up to
    ``ONE_TILE_MAX`` samples, at most ``STACK_VALUES`` values per (S, n)
    array above it, and at least one problem."""
    return max(1, STACK_PAIRS // (n * n) if n <= ONE_TILE_MAX else STACK_VALUES // max(1, n))


def nw_loo_all(index_values, responses, h):
    """Leave-one-out Nadaraya-Watson at every sample, of one problem or a stack.

    ``index_values`` is (n,), or (B, n) for B problems of one size;
    ``responses`` is (n,), shared by every problem, or of the shape of
    ``index_values``; ``h`` is one bandwidth, or one per problem.  Returns
    ``(estimates, excluded)`` of the shape of ``index_values``, where
    excluded marks samples with no other sample inside their window; their
    estimate entry is NaN.  A NaN or infinite index value or response
    raises :class:`ValueError`.  Each problem's results are those it has
    alone, bit for bit, whatever shares its stack.  The call makes one dense
    stack, or one :func:`fsim.kernel.loo_estimates` call (:func:`_nw_loo`),
    however large the stack: callers split large ones by :func:`stack_size`.
    """
    z = np.asarray(index_values, dtype=float)
    y = np.asarray(responses, dtype=float)
    h = np.asarray(h, dtype=float)
    if z.ndim not in (1, 2) or y.shape not in (z.shape, z.shape[-1:]) or h.shape != z.shape[:-1]:
        raise ValueError(
            f"expected (n,) or (B, n) index values, responses of that shape or (n,), and one "
            f"bandwidth per problem, got {z.shape}, {y.shape} and {h.shape}")
    check_bandwidth(h)
    check_finite(z, "index_values")
    check_finite(y, "responses")
    scaled = z / h[..., None]
    if z.ndim == 1:
        estimates, excluded = _nw_loo(scaled[None], y)
        return estimates[0], excluded[0]
    return _nw_loo(scaled, y)


def nw_predict(index_values, responses, points, h: float):
    """Nadaraya-Watson prediction at held-out ``points`` from the samples.

    Returns ``(predictions, excluded)``; excluded marks points with no
    sample inside their window, and their prediction is NaN.  The prediction
    is the local constant fit, T_0 / S_0 of the moments that one
    :func:`fsim.kernel.window_sums` call forms for the local quadratic fits:
    the weights are K((z_j - u) / h) and the kernel constant cancels.
    """
    z, y = _fit_inputs(index_values, responses, h)
    u = _as_vector(points, "points")
    return nw_ratio(*_sorted_moments(u, z, y, float(h))[[0, 5]])


# Entry (p, q) of the normal matrix X'WX of the h-scaled design (1, s, s^2/2)
# is S_{p+q} times _HALVES[p, q], with S_k the sum of w s^k over the window.
_HANKEL = np.add.outer(np.arange(3), np.arange(3))
_HALVES = np.outer([1.0, 1.0, 0.5], [1.0, 1.0, 0.5])


def _quad_fits(z: np.ndarray, y: np.ndarray, points: np.ndarray, h: float):
    """Local quadratic fits at every evaluation point from one pass of window sums.

    Returns ``(coefficients, usable, leverage)``.  ``coefficients[k]`` holds
    the k-th estimate of (a, b, c) at every point, NaN where the point is
    unusable.  ``usable`` applies the guards of :func:`_smoother_rows` to
    every point at once: at least ``MIN_WINDOW_POINTS`` nonzero weights, a
    finite raw condition number up to ``CONDITION_LIMIT`` (from the
    h-scaled moments rescaled by h^(p+q)), and a nonzero LU pivot.
    ``leverage`` is K(0) (A^{-1})_00, the weight of the level row on a
    sample at the evaluation point itself.  The weights are the pointwise
    ones bit for bit; only the order of the sums differs.
    """
    sums = _sorted_moments(points, z, y, h)
    scaled = sums[:5].T[:, _HANKEL] * _HALVES
    h_powers = np.array([1.0, h, h * h])
    cond = np.linalg.cond(scaled * np.outer(h_powers, h_powers))
    usable = (sums[8] >= MIN_WINDOW_POINTS) & np.isfinite(cond) & (cond <= CONDITION_LIMIT)
    # np.linalg.solve raises on a zero LU pivot; det runs the same factorization
    usable[usable] = np.linalg.det(scaled[usable]) != 0.0
    rhs = np.zeros((int(usable.sum()), 3, 2))
    rhs[:, :, 0] = sums[5:8, usable].T * _HALVES[0]
    rhs[:, 0, 1] = 1.0
    solution = np.linalg.solve(scaled[usable], rhs)
    coefficients = np.full((3, points.size), np.nan)
    leverage = np.full(points.size, np.nan)
    coefficients[:, usable] = (solution[:, :, 0] / h_powers).T
    leverage[usable] = NORMALIZER * solution[:, 0, 1]
    return coefficients, usable, leverage


def smoother_matrix(index_values, h: float) -> np.ndarray:
    """The n-by-n linear map from responses to fitted link values.

    Row j is the level smoother row of the local quadratic fit at u = z_j, so
    S @ y stacks the fitted values.  A singular row aborts the build with the
    row index attached.
    """
    z = _as_vector(index_values, "index_values")
    check_bandwidth(h)
    out = np.empty((z.size, z.size))
    for j in range(z.size):
        out[j] = _tagged_rows(z, j, h)[0]
    return out


def level_fits(index_values, responses, h: float):
    """Fitted link values at every sample and the diagonal of the smoother matrix.

    The batched counterpart of ``smoother_matrix(z, h) @ y`` and its
    diagonal, without the n-by-n matrix: the sample at the evaluation point
    has s = 0, so its weight is K(0) (A^{-1})_00.  The first unusable row
    raises the error :func:`smoother_matrix` raises there.
    """
    z, y = _fit_inputs(index_values, responses, h)
    coefficients, usable, leverage = _quad_fits(z, y, z, float(h))
    if not usable.all():
        j = int(np.argmin(usable))
        _tagged_rows(z, j, h)
        # the pointwise guards passed: the row sits within rounding of their edge
        raise SingularFitError(
            f"row {j}: local fit at u={z[j]:.6g} is at the edge of the guards", row=j)
    return coefficients[0], leverage


def curve_estimates(index_values, responses, grid, h: float, derivative: int = 0) -> np.ndarray:
    """Link (or derivative) estimates over ``grid``, NaN where the fit is unusable.

    One batched pass; each value is the matching estimate of
    :func:`local_quad_fit` up to the order of the sums.
    """
    if not is_integer(derivative) or derivative not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {derivative}")
    z, y = _fit_inputs(index_values, responses, h)
    points = np.asarray(grid, dtype=float).ravel()
    check_finite(points, "grid")
    return _quad_fits(z, y, points, float(h))[0][derivative]


def relocated_fit(index_values, responses, u: float, h: float,
                  center: float | None = None):
    """Local quadratic fit at ``u``, stepping toward the data centre on failure.

    Sparse windows near the index extremes can make the fit singular; the
    evaluation point is then moved toward ``center`` (default: median index)
    in steps of h/4 until a fit succeeds, at most ``RELOCATION_STEPS`` of
    them.  Returns ``(fit, moved)``.
    """
    z = _as_vector(index_values, "index_values")
    if center is None:
        center = float(np.median(z))
    point = float(u)
    step = 0.25 * h * (1.0 if center >= point else -1.0)
    for k in range(RELOCATION_STEPS + 1):
        try:
            return local_quad_fit(z, responses, point, h), k > 0
        except SingularFitError:
            if step == 0.0 or (step > 0 and point >= center) or (step < 0 and point <= center):
                break
            point = point + step
            if (step > 0 and point > center) or (step < 0 and point < center):
                point = center
    raise SingularFitError(f"no admissible evaluation point near u={u:.6g}")
