"""Local quadratic weighted least squares for the link function and its derivatives.

At an evaluation point ``u`` the responses are fit to a second-order Taylor
polynomial with kernel weights K((z_i - u)/h).  The minimizer of

    sum_i [y_i - a - b (z_i - u) - c (z_i - u)^2 / 2]^2 K((z_i - u)/h)

estimates (g(u), g'(u), g''(u)) = (a, b, c), and each estimate is a linear
functional of the responses: the rows of (X'WX)^{-1} X'W, exposed here as
smoother rows.  One unit-free rule, :func:`_ldl`, judges every fit from
the closed-form LDL^T factors of its h-scaled normal matrix, and the
batched fits solve with the same factors.

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
:func:`stack_size`.  The pointwise fits (:func:`local_quad_fit`,
:func:`smoother_matrix`, :func:`relocated_fit`) take the same verdict but
solve on their own, as the reference for the batched ones.

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
# a usable fit's least relative pivot (one minus the weighted R^2 of a design
# column on those before it; see _ldl) exceeds 1/CONDITION_LIMIT
CONDITION_LIMIT = 1e12
# steps of h/4 that relocated_fit takes toward the data centre before it gives up
RELOCATION_STEPS = 64
# The largest leave-one-out problem that runs as a dense tile without
# sorting.  In tools/kernel_sweep.py's 30-point steps the compiled window
# sums win at every n from 16 to 64, and without a compiler the dense numpy
# stack wins up to at least 200 (see ROADMAP item 8).
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


def _moments_at(z: np.ndarray, u: float, h: float) -> np.ndarray:
    """The window sums of the one point ``u`` (zero responses): the same bits
    as in any batch, so :func:`_ldl` gives the point the batch's verdict."""
    samples = np.sort(z)
    return window_sums(np.array([u]), samples, np.zeros_like(samples), h)[:, 0]


def _refusal(sums: np.ndarray, u: float, h: float) -> SingularFitError:
    """Why :func:`_ldl` refuses the fit at ``u`` with window sums ``sums``."""
    inside = int(sums[8])
    if inside < MIN_WINDOW_POINTS:
        return SingularFitError(f"only {inside} points inside the window at u={u:.6g} (h={h:.6g})")
    return SingularFitError(f"normal matrix relative pivot {_ldl(sums)[1]:.3g} is not above "
                            f"{1.0 / CONDITION_LIMIT:.0e} at u={u:.6g} (h={h:.6g})")


def _smoother_rows(z: np.ndarray, u: float, h: float):
    """Rows M with (a, b, c) = M @ y, plus the in-window point count: the
    verdict of the batched fits, and this fit's own solve of the h-scaled
    design."""
    sums = _moments_at(z, u, h)
    if not _ldl(sums)[2]:
        raise _refusal(sums, u, h)
    s = (z - u) / h
    design = np.stack([np.ones_like(s), s, 0.5 * s * s])
    weighted = design * smooth_kernel(s)
    rows = np.linalg.solve(weighted @ design.T, weighted) / np.array([[1.0], [h], [h * h]])
    return rows, int(sums[8])


def local_quad_fit(index_values, responses, u: float, h: float) -> LocalQuadFit:
    """Fit the local quadratic at ``u`` with bandwidth ``h``.

    Raises :class:`SingularFitError` where :func:`_ldl` refuses the fit: fewer
    than ``MIN_WINDOW_POINTS`` samples strictly inside the kernel window, or
    a relative pivot of the h-scaled normal matrix at most 1/``CONDITION_LIMIT``.
    """
    z, y = _fit_inputs(index_values, responses, h)
    check_finite(np.float64(u), "u")
    rows, inside = _smoother_rows(z, float(u), float(h))
    a, b, c = rows @ y
    return LocalQuadFit(float(u), float(a), float(b), float(c), inside,
                        *(readonly_array(row) for row in rows))


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


def _ldl(sums: np.ndarray):
    """``((l10, l20, l21, d1, d2), pivot, usable)``: the closed-form LDL^T
    factors (d_0 = S_0) of the normal matrix A of the h-scaled design (1, s,
    s^2/2), entries S_{p+q} c_p c_q with c = (1, 1, 1/2), from the columns of
    window sums ``sums``, and the verdict on each fit.  ``pivot`` is
    min(d_1/a_11, d_2/a_22), one minus the weighted R^2 of a design column on
    those before it: rescaling a column, so the unit of the index or of h,
    leaves it alone.  A fit is usable with ``MIN_WINDOW_POINTS`` nonzero
    weights and a pivot above 1/``CONDITION_LIMIT``; elsewhere the factors
    may be NaN or infinite.
    """
    s0, s1, s2, s3, s4 = sums[:5]
    with np.errstate(all="ignore"):
        l10 = s1 / s0
        l20 = 0.5 * s2 / s0
        d1 = s2 - l10 * s1
        l21 = (0.5 * s3 - l20 * s1) / d1
        d2 = 0.25 * s4 - 0.5 * l20 * s2 - l21 * l21 * d1
        pivot = np.minimum(d1 / s2, d2 / (0.25 * s4))
    usable = (sums[8] >= MIN_WINDOW_POINTS) & (pivot > 1.0 / CONDITION_LIMIT)
    return (l10, l20, l21, d1, d2), pivot, usable


def _quad_fits(z: np.ndarray, y: np.ndarray, points: np.ndarray, h: float):
    """Local quadratic fits at every evaluation point from one pass of window sums.

    Returns ``(coefficients, usable, leverage)``.  ``coefficients[k]`` holds
    the k-th estimate of (a, b, c) at every point, NaN where the point is
    unusable.  ``usable`` is the verdict of :func:`_ldl`, which the pointwise
    fit takes too, and forward and back substitution of (T_0, T_1, T_2/2)
    with its factors give (a, b h, c h^2).  ``leverage`` is K(0) (A^{-1})_00,
    the weight of the level row on a sample at the evaluation point itself,
    from the forward substitution of e_0.  The weights are the pointwise ones
    bit for bit; only the order of the sums and the solve differ.
    """
    sums = _sorted_moments(points, z, y, h)
    (l10, l20, l21, d1, d2), _, usable = _ldl(sums)
    with np.errstate(all="ignore"):
        r1 = sums[6] - l10 * sums[5]
        r2 = 0.5 * sums[7] - l20 * sums[5] - l21 * r1
        c = r2 / d2
        b = r1 / d1 - l21 * c
        a = sums[5] / sums[0] - l10 * b - l20 * c
        inverse_00 = 1.0 / sums[0] + l10 * l10 / d1 + (l21 * l10 - l20) ** 2 / d2
    coefficients = np.where(usable, np.stack([a, b / h, c / (h * h)]), np.nan)
    leverage = np.where(usable, NORMALIZER * inverse_00, np.nan)
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
        try:
            out[j] = _smoother_rows(z, float(z[j]), float(h))[0][0]
        except SingularFitError as exc:
            raise SingularFitError(f"row {j}: {exc}", row=j) from exc
    return out


def level_fits(index_values, responses, h: float):
    """Fitted link values at every sample and the diagonal of the smoother matrix.

    The batched counterpart of ``smoother_matrix(z, h) @ y`` and its
    diagonal, without the n-by-n matrix: the sample at the evaluation point
    has s = 0, so its weight is K(0) (A^{-1})_00.  The first unusable row
    raises the error :func:`smoother_matrix` raises there, the reason of
    :func:`_ldl` on that point's own window sums.
    """
    z, y = _fit_inputs(index_values, responses, h)
    coefficients, usable, leverage = _quad_fits(z, y, z, float(h))
    if not usable.all():
        j = int(np.argmin(usable))
        u, h = float(z[j]), float(h)
        raise SingularFitError(f"row {j}: {_refusal(_moments_at(z, u, h), u, h)}", row=j)
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
