"""Local quadratic weighted least squares for the link function and its derivatives.

At an evaluation point ``u`` the responses are fit to a second-order Taylor
polynomial with kernel weights K((z_i - u)/h).  The minimizer of

    sum_i [y_i - a - b (z_i - u) - c (z_i - u)^2 / 2]^2 K((z_i - u)/h)

estimates (g(u), g'(u), g''(u)) = (a, b, c), and each estimate is a linear
functional of the responses: the rows of (X'WX)^{-1} X'W, exposed here as
smoother rows.

The Nadaraya-Watson kernel sums also live here, in one engine that serves
the leave-one-out estimator inside the coefficient-search objective and the
held-out prediction of k-fold validation.  The kernel vanishes beyond one
bandwidth, so above ``ONE_TILE_MAX`` samples the engine sorts the h-scaled
index once and sums over row tiles, each against the contiguous window of
samples it can reach; up to that size, where a timing sweep found the sort
and tile loop no faster, it sums over one dense tile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import readonly_array
from .kernel import smooth_kernel, transform_inplace

MIN_WINDOW_POINTS = 3
CONDITION_LIMIT = 1e12
# Rows per tile of the sorted-window kernel sums, and the largest problem that
# runs as one dense tile without sorting.  A per-call timing sweep over the
# default bandwidth grid put the crossover at about 250 samples (see README,
# "Kernel sums").
TILE_ROWS = 64
ONE_TILE_MAX = 256


class SingularFitError(RuntimeError):
    """The weighted design is unusable at an evaluation point."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


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


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


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


def local_quad_fit(index_values, responses, u: float, h: float) -> LocalQuadFit:
    """Fit the local quadratic at ``u`` with bandwidth ``h``.

    Requires at least three samples strictly inside the kernel window; raises
    :class:`SingularFitError` otherwise, or when the weighted normal matrix
    is too ill-conditioned to trust.
    """
    z = _as_vector(index_values, "index_values")
    y = _as_vector(responses, "responses")
    if z.size != y.size:
        raise ValueError(f"got {z.size} index values but {y.size} responses")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
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


def _tile_sums(rows, columns, responses, diagonal):
    """Kernel row sums and kernel-weighted response sums of one dense tile.

    ``diagonal`` is the column of row 0's own sample, whose weight (and, down
    the diagonal, every later row's) is zeroed; ``None`` keeps every weight.
    """
    w = transform_inplace(rows[:, None] - columns[None, :])
    if diagonal is not None:
        w.ravel()[diagonal::columns.size + 1] = 0.0
    return w.sum(axis=1), w @ responses


def _nw_sums(points, samples, responses, leave_one_out: bool):
    """Nadaraya-Watson at h-scaled ``points`` from h-scaled ``samples``.

    The one kernel-sum engine behind :func:`nw_loo_all` and
    :func:`nw_predict`.  Returns ``(estimates, excluded)`` in the order of
    ``points``; with ``leave_one_out`` the points are the samples and each
    sample's own weight is zeroed.  Up to ``ONE_TILE_MAX`` points and
    samples the sums come from one dense tile, unsorted.  Beyond that both
    sides are sorted once and the points are walked in tiles of
    ``TILE_ROWS`` rows, each against the contiguous run of samples that lies
    within reach of the tile's first and last rows, so tiles skip the pairs
    the compact kernel zeroes.  Every weight is the same kernel value of the
    same difference either way; only the order of the sums changes.
    """
    m, n = points.size, samples.size
    tiled = (min(m, n) > 0 and max(m, n) > ONE_TILE_MAX
             and np.isfinite(points).all() and np.isfinite(samples).all())
    if not tiled:
        den, num = _tile_sums(points, samples, responses, 0 if leave_one_out else None)
    else:
        order = np.argsort(points)
        p = points[order]
        if leave_one_out:
            s, y = p, responses[order]
        else:
            by_index = np.argsort(samples)
            s, y = samples[by_index], responses[by_index]
        # widen the reach by the rounding of p +- 1 so no in-window sample is cut
        reach = 1.0 + 4.0 * np.finfo(float).eps * (2.0 + max(-p[0], p[-1], -s[0], s[-1]))
        starts = np.arange(0, m, TILE_ROWS)
        stops = np.minimum(starts + TILE_ROWS, m)
        lo = s.searchsorted(p[starts] - reach, side="left")
        hi = s.searchsorted(p[stops - 1] + reach, side="right")
        den, num = np.empty(m), np.empty(m)
        for a, b, c0, c1 in zip(starts.tolist(), stops.tolist(), lo.tolist(), hi.tolist()):
            rows = order[a:b]
            den[rows], num[rows] = _tile_sums(
                p[a:b], s[c0:c1], y[c0:c1], a - c0 if leave_one_out else None)
    excluded = den == 0.0
    estimates = np.divide(num, den, out=np.full(m, np.nan), where=~excluded)
    return estimates, excluded


def nw_loo_all(index_values, responses, h: float):
    """Leave-one-out Nadaraya-Watson at every sample.

    Returns ``(estimates, excluded)`` where excluded marks samples with no
    other sample inside their window; their estimate entry is NaN.
    """
    z = _as_vector(index_values, "index_values")
    y = _as_vector(responses, "responses")
    if z.size != y.size:
        raise ValueError(f"got {z.size} index values but {y.size} responses")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    scaled = z / h
    return _nw_sums(scaled, scaled, y, leave_one_out=True)


def nw_predict(index_values, responses, points, h: float):
    """Nadaraya-Watson prediction at held-out ``points`` from the samples.

    Returns ``(predictions, excluded)``; excluded marks points with no
    sample inside their window, and their prediction is NaN.
    """
    z = _as_vector(index_values, "index_values")
    y = _as_vector(responses, "responses")
    u = _as_vector(points, "points")
    if z.size != y.size:
        raise ValueError(f"got {z.size} index values but {y.size} responses")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    return _nw_sums(u / h, z / h, y, leave_one_out=False)


def smoother_matrix(index_values, h: float) -> np.ndarray:
    """The n-by-n linear map from responses to fitted link values.

    Row j is the level smoother row of the local quadratic fit at u = z_j, so
    S @ y stacks the fitted values.  A singular row aborts the build with the
    row index attached.
    """
    z = _as_vector(index_values, "index_values")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    n = z.size
    out = np.empty((n, n))
    for j in range(n):
        try:
            rows, _ = _smoother_rows(z, float(z[j]), float(h))
        except SingularFitError as exc:
            raise SingularFitError(f"row {j}: {exc}", row=j) from exc
        out[j] = rows[0]
    return out


def curve_estimates(index_values, responses, grid, h: float, derivative: int = 0) -> np.ndarray:
    """Link (or derivative) estimates over ``grid``, NaN where the fit is singular."""
    if derivative not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {derivative}")
    z = _as_vector(index_values, "index_values")
    y = _as_vector(responses, "responses")
    points = np.atleast_1d(np.asarray(grid, dtype=float))
    values = np.full(points.size, np.nan)
    for k, u in enumerate(points):
        try:
            rows, _ = _smoother_rows(z, float(u), float(h))
        except SingularFitError:
            continue
        values[k] = rows[derivative] @ y
    return values


def relocated_fit(index_values, responses, u: float, h: float,
                  center: float | None = None, max_steps: int = 64):
    """Local quadratic fit at ``u``, stepping toward the data centre on failure.

    Sparse windows near the index extremes can make the fit singular; the
    evaluation point is then moved toward ``center`` (default: median index)
    in steps of h/4 until a fit succeeds.  Returns ``(fit, moved)``.
    """
    z = _as_vector(index_values, "index_values")
    if center is None:
        center = float(np.median(z))
    point = float(u)
    step = 0.25 * h * (1.0 if center >= point else -1.0)
    for k in range(max_steps + 1):
        try:
            return local_quad_fit(z, responses, point, h), k > 0
        except SingularFitError:
            if step == 0.0 or (step > 0 and point >= center) or (step < 0 and point <= center):
                break
            point = point + step
            if (step > 0 and point > center) or (step < 0 and point < center):
                point = center
    raise SingularFitError(f"no admissible evaluation point near u={u:.6g}")
