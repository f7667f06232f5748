"""Local quadratic weighted least squares for the link function and its derivatives.

At an evaluation point ``u`` the responses are fit to a second-order Taylor
polynomial with kernel weights K((z_i - u)/h).  The minimizer of

    sum_i [y_i - a - b (z_i - u) - c (z_i - u)^2 / 2]^2 K((z_i - u)/h)

estimates (g(u), g'(u), g''(u)) = (a, b, c), and each estimate is a linear
functional of the responses: the rows of (X'WX)^{-1} X'W, exposed here as
smoother rows.

All kernel sums run on sorted-window tile walks.  The kernel vanishes
beyond one bandwidth, so above ``ONE_TILE_MAX`` samples a walk sorts the
h-scaled index once and sums over row tiles, each against the contiguous
window of samples it can reach; up to that size, where a timing sweep found
the sort and tile loop no faster, it sums over one dense tile.  One walk
serves the held-out Nadaraya-Watson prediction of k-fold validation and the
batched local quadratic fits behind GCV, curve grids and RASE.  The
leave-one-out estimator inside the coefficient-search objective has a
symmetric walk of its own, which forms each in-reach pair once for both of
its samples and runs one kernel transform per group of tiles.  A batch of
leave-one-out problems of one size (the training sets of the k-fold
searches) runs as stacks of dense tiles.  The pointwise fits
(:func:`local_quad_fit`, :func:`smoother_matrix`, :func:`relocated_fit`)
stay as the reference for the batched ones.
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
# "Performance").
TILE_ROWS = 64
ONE_TILE_MAX = 256


class EstimationError(RuntimeError):
    """The data admit no estimate here: the failure an estimation pipeline
    counts (a failed bandwidth, strategy or Monte-Carlo rep) rather than a bug."""


class SingularFitError(EstimationError):
    """A least-squares design is unusable: the local fit at an evaluation
    point, or the linear start of the coefficient search."""

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


def _fit_inputs(index_values, responses, h: float):
    """Checked index and response vectors of one smoothing call."""
    z = _as_vector(index_values, "index_values")
    y = _as_vector(responses, "responses")
    if z.size != y.size:
        raise ValueError(f"got {z.size} index values but {y.size} responses")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    return z, y


def _smoother_rows(z: np.ndarray, u: float, h: float):
    """Rows M with (a, b, c) = M @ y, plus the in-window point count.

    The system is solved on the h-scaled design for conditioning; the
    condition guard applies to the raw normal matrix X'WX that defines the
    estimator.  A non-finite point or sample leaves the fit unusable, as in
    :func:`_quad_fits`.
    """
    if not (np.isfinite(u) and np.isfinite(z).all()):
        raise SingularFitError(f"non-finite index value or evaluation point at u={u:.6g}")
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


def _tiled(points, samples) -> bool:
    """Whether a problem takes a sorted-window walk rather than one dense
    tile: more than ``ONE_TILE_MAX`` points or samples, all of them finite."""
    return (min(points.size, samples.size) > 0
            and max(points.size, samples.size) > ONE_TILE_MAX
            and bool(np.isfinite(points).all())
            and (samples is points or bool(np.isfinite(samples).all())))


def _sorted_tiles(points, samples=None):
    """The sort and tile bounds shared by both sorted-window walks.

    Returns ``(order, p, by_index, s, tiles)``: ``p = points[order]`` and
    ``s = samples[by_index]`` sorted (the samples are the points when
    ``samples`` is ``None``), and ``tiles`` yields ``(a, b, c0, c1)`` for
    each run of ``TILE_ROWS`` sorted rows [a, b), whose reach is the sorted
    samples [c0, c1): those within one bandwidth of row a or row b - 1.
    """
    order = np.argsort(points)
    p = points[order]
    if samples is None:
        by_index, s = order, p
    else:
        by_index = np.argsort(samples)
        s = samples[by_index]
    # widen the reach by the rounding of p +- 1 so no in-window sample is cut
    reach = 1.0 + 4.0 * np.finfo(float).eps * (2.0 + max(-p[0], p[-1], -s[0], s[-1]))
    starts = np.arange(0, p.size, TILE_ROWS)
    stops = np.minimum(starts + TILE_ROWS, p.size)
    lo = s.searchsorted(p[starts] - reach, side="left")
    hi = s.searchsorted(p[stops - 1] + reach, side="right")
    return order, p, by_index, s, zip(starts.tolist(), stops.tolist(), lo.tolist(), hi.tolist())


def _walk(tile, points, samples, data):
    """The sorted-window tile walk of h-scaled ``points`` over ``samples``.

    ``tile(rows, tile_points, window_samples, window_data)`` sums one tile
    and returns a tuple of arrays whose first axis runs over the tile's
    points.  ``rows`` indexes those points in input order, and
    ``window_data`` holds the columns of ``data`` (per-sample values along
    its last axis) of the window's samples.  Up to ``ONE_TILE_MAX`` points
    and samples the whole problem is one dense tile, unsorted.  Beyond that
    the sorted points are walked in tiles of ``TILE_ROWS`` rows, each
    against the contiguous run of sorted samples within reach of its first
    and last rows, so tiles skip the pairs the compact kernel zeroes; the
    tile results are scattered back to input order.  Non-finite input takes
    the dense tile.
    """
    if not _tiled(points, samples):
        return tile(slice(None), points, samples, data)
    order, p, by_index, s, tiles = _sorted_tiles(points, samples)
    data = data[..., by_index]
    results = None
    for a, b, c0, c1 in tiles:
        rows = order[a:b]
        parts = tile(rows, p[a:b], s[c0:c1], data[..., c0:c1])
        if results is None:
            results = tuple(np.empty((p.size,) + part.shape[1:], part.dtype) for part in parts)
        for result, part in zip(results, parts):
            result[rows] = part
    return results


def _factors(points, samples):
    """The factors whose product :func:`_differences` takes: rows
    ``(points_i, 1)`` and columns ``(-1, samples_j)``."""
    left = np.empty(points.shape + (2,))
    left[..., 0] = points
    left[..., 1] = 1.0
    right = np.empty(samples.shape[:-1] + (2,) + samples.shape[-1:])
    right[..., 0, :] = -1.0
    right[..., 1, :] = samples
    return left, right


def _differences(points, samples) -> np.ndarray:
    """The kernel arguments ``samples[..., None, :] - points[..., :, None]`` of
    a tile of finite values, as one matrix product of :func:`_factors`.

    Both products in an entry are exact, and their sum is rounded once in
    any order, so each entry is the broadcast difference; only the sign of a
    zero may differ, which no kernel weight and no sum with a nonzero term
    sees.  The product is one pass over the tile, where the broadcast takes
    several.
    """
    left, right = _factors(points, samples)
    return left @ right


def _ones_y(responses):
    """The (1, y) columns of ``responses`` along a new last axis: a weight
    tile times them gives (sum w, sum w y) for each of its rows."""
    ones_y = np.empty(responses.shape + (2,))
    ones_y[..., 0] = 1.0
    ones_y[..., 1] = responses
    return ones_y


def _nw_tile(rows, points, samples, responses, diagonal=None):
    """Kernel row sums and kernel-weighted response sums of one tile.

    Both sums come from one product, the unnormalized weights
    (:func:`transform_inplace`) times the (1, y) columns of the samples; the
    kernel constant cancels in the ratio :func:`_nw_ratio` takes.
    ``diagonal`` is the column of row 0's own sample, whose weight (and,
    down the diagonal, every later row's) is zeroed; ``None`` keeps every
    weight.  A leading batch axis on ``points``, ``samples`` and
    ``responses`` stacks tiles of one shape; the stacked product sums each
    slice exactly as it would be summed alone.  A tile with a non-finite
    value (only the dense tile of non-finite input) subtracts by broadcast
    instead of :func:`_differences`: a BLAS product may multiply an infinity
    by the zeros that pad its blocks and raise a spurious invalid-value
    warning.  The broadcast's inf - inf, an infinite sample against itself,
    is NaN without a warning, as NaN input is.
    """
    if np.isfinite(points).all() and (samples is points or np.isfinite(samples).all()):
        w = _differences(points, samples)
    else:
        with np.errstate(invalid="ignore"):
            w = samples[..., None, :] - points[..., :, None]
    transform_inplace(w)
    if diagonal is not None:
        w.reshape(w.shape[:-2] + (-1,))[..., diagonal::samples.shape[-1] + 1] = 0.0
    sums = w @ _ones_y(responses)
    return sums[..., 0], sums[..., 1]


def _tile_groups(tiles):
    """Group the symmetric walk's tiles ``(a, b, c0, c1)`` to share a buffer.

    Yields ``(group, size)``: a run of consecutive tiles ``(a, b, c1)``, rows
    [a, b) against samples [a, c1), and its count of weights, at most
    ``ONE_TILE_MAX**2`` unless the run is one larger tile alone.
    """
    group, used = [], 0
    for a, b, _, c1 in tiles:
        size = (b - a) * (c1 - a)
        if group and used + size > ONE_TILE_MAX**2:
            yield group, used
            group, used = [], 0
        group.append((a, b, c1))
        used += size
    if group:
        yield group, used


def _nw_loo_sums(points, responses):
    """Leave-one-out kernel sums ``(den, num)`` at every h-scaled sample.

    Up to ``ONE_TILE_MAX`` samples, or on non-finite input, this is one
    dense tile with the own-sample diagonal zeroed.  Beyond that the walk
    forms each in-reach pair once and uses it for both rows: K(s_i - s_j)
    and K(s_j - s_i) are the same double, since s_j - s_i = -(s_i - s_j)
    exactly.  The tile of sorted rows [a, b) forms weights against the
    sorted samples [a, c1) only, where c1 ends the reach of row b - 1, and
    zeroes the own-sample diagonal.  One matmul against the (1, y) columns
    of samples [a, c1) adds (sum w, sum w y) to rows [a, b); the part right
    of the tile, transposed, against the (1, y) columns of rows [a, b) adds
    the same pairs to rows [b, c1).  Each row so gets its pairs with
    earlier samples from earlier tiles.

    The kernel-argument factors (:func:`_factors`) are built once over the
    sorted index.  Consecutive tiles form groups of at most
    ``ONE_TILE_MAX**2`` weights, the largest dense tile (a larger tile is a
    group of its own), written into one reused buffer, each tile's
    differences as one product into its part; one :func:`transform_inplace`
    then turns the whole group into weights, and the group's tiles add their
    sums in tile order.  Every weight and every sum is the one a tile alone
    would form, bit for bit; grouping only cuts the calls per tile.  The
    sums accumulate in sorted order and are scattered back once.
    """
    if not _tiled(points, points):
        return _nw_tile(slice(None), points, points, responses, 0)
    order, p, _, _, tiles = _sorted_tiles(points)
    groups = list(_tile_groups(tiles))
    left, right = _factors(p, p)
    ones_y = _ones_y(responses[order])
    sums = np.zeros((p.size, 2))
    buffer = np.empty(max(size for _, size in groups))
    for group, size in groups:
        weights, used = [], 0
        for a, b, c1 in group:
            flat = buffer[used:used + (b - a) * (c1 - a)]
            np.matmul(left[a:b], right[:, a:c1], out=flat.reshape(b - a, c1 - a))
            weights.append(flat)
            used += flat.size
        transform_inplace(buffer[:size])
        for (a, b, c1), flat in zip(group, weights):
            flat[::c1 - a + 1] = 0.0
            w = flat.reshape(b - a, c1 - a)
            sums[a:b] += w @ ones_y[a:c1]
            sums[b:c1] += w[:, b - a:].T @ ones_y[a:b]
    den, num = np.empty(p.size), np.empty(p.size)
    den[order], num[order] = sums[:, 0], sums[:, 1]
    return den, num


def stack_size(elements: int) -> int:
    """How many problems of ``elements`` values each one stack holds: as many
    as fit in ``ONE_TILE_MAX**2`` values, the largest dense tile, and at
    least one."""
    return max(1, ONE_TILE_MAX**2 // max(1, elements))


def _nw_ratio(den, num):
    """``(estimates, excluded)`` from the kernel sums: excluded marks an
    empty window, whose estimate is NaN."""
    excluded = den == 0.0
    estimates = np.divide(num, den, out=np.full(den.shape, np.nan), where=~excluded)
    return estimates, excluded


def nw_loo_all(index_values, responses, h: float):
    """Leave-one-out Nadaraya-Watson at every sample.

    Returns ``(estimates, excluded)`` where excluded marks samples with no
    other sample inside their window; their estimate entry is NaN.
    """
    z, y = _fit_inputs(index_values, responses, h)
    return _nw_ratio(*_nw_loo_sums(z / h, y))


def nw_loo_batch(index_values, responses, h):
    """:func:`nw_loo_all` for a batch of problems of one size, bit for bit.

    Row b of the (B, n) ``index_values`` and ``responses`` is one problem,
    smoothed with bandwidth ``h[b]``; returns (B, n) ``(estimates,
    excluded)``.  Up to ``ONE_TILE_MAX`` samples the problems run as stacked
    dense tiles of at most ``ONE_TILE_MAX**2`` pairs, the largest tile
    :func:`nw_loo_all` builds; larger problems take its walk one by one.
    """
    z = np.asarray(index_values, dtype=float)
    y = np.asarray(responses, dtype=float)
    h = np.asarray(h, dtype=float)
    if z.ndim != 2 or y.shape != z.shape or h.shape != z.shape[:1]:
        raise ValueError(
            f"expected (B, n) index values and responses and B bandwidths, got "
            f"{z.shape}, {y.shape} and {h.shape}")
    if np.any(h <= 0):
        raise ValueError(f"bandwidths must be positive, got minimum {h.min()}")
    scaled = z / h[:, None]
    den, num = np.empty(z.shape), np.empty(z.shape)
    count, n = z.shape
    if n <= ONE_TILE_MAX:
        step = stack_size(n * n)
        for a in range(0, count, step):
            chunk = slice(a, a + step)
            points = scaled[chunk]
            den[chunk], num[chunk] = _nw_tile(chunk, points, points, y[chunk], 0)
    else:
        for b in range(count):
            den[b], num[b] = _nw_loo_sums(scaled[b], y[b])
    return _nw_ratio(den, num)


def nw_predict(index_values, responses, points, h: float):
    """Nadaraya-Watson prediction at held-out ``points`` from the samples.

    Returns ``(predictions, excluded)``; excluded marks points with no
    sample inside their window, and their prediction is NaN.  Every weight
    is the same kernel value of the same difference on either path of the
    walk; only the order of the sums changes.
    """
    z, y = _fit_inputs(index_values, responses, h)
    u = _as_vector(points, "points")
    return _nw_ratio(*_walk(_nw_tile, u / h, z / h, y))


# Entry (p, q) of the normal matrix X'WX of the h-scaled design (1, s, s^2/2)
# is S_{p+q} times _HALVES[p, q], with S_k the sum of w s^k over the window.
_HANKEL = np.add.outer(np.arange(3), np.arange(3))
_HALVES = np.outer([1.0, 1.0, 0.5], [1.0, 1.0, 0.5])


def _quad_tile(u: np.ndarray, h: float):
    """Tile of the local quadratic fits at the raw evaluation points ``u``.

    The tile returns the in-window count of every point and, in
    ``sums[:, k]``, the sums of w s^k (k <= 4) and of w s^k y (k <= 2),
    with s = (z - u) / h and w = K(s) formed exactly as
    :func:`_smoother_rows` forms them, so the weights and the counts are the
    pointwise ones bit for bit.  The powers overwrite one array in turn, so
    a tile holds two arrays of its shape.
    """
    def tile(rows, _points, _samples, window):
        z, y = window
        s = _differences(u[rows], z)
        s /= h
        ws = smooth_kernel(s)
        count = np.count_nonzero(ws, axis=1)
        ones_y = _ones_y(y)
        sums = np.zeros((s.shape[0], 5, 2))
        for k in range(5):
            if k:
                ws *= s
            if k < 3:
                sums[:, k] = ws @ ones_y
            else:
                sums[:, k, 0] = ws.sum(axis=1)
        return count, sums
    return tile


def _quad_fits(z: np.ndarray, y: np.ndarray, points: np.ndarray, h: float):
    """Local quadratic fits at every evaluation point from one tile walk.

    Returns ``(coefficients, usable, leverage)``.  ``coefficients[k]`` holds
    the k-th estimate of (a, b, c) at every point, NaN where the point is
    unusable.  ``usable`` applies the guards of :func:`_smoother_rows` to
    every point at once: at least ``MIN_WINDOW_POINTS`` nonzero weights, a
    finite raw condition number up to ``CONDITION_LIMIT`` (from the
    h-scaled moments rescaled by h^(p+q)), and a nonzero LU pivot.
    ``leverage`` is K(0) (A^{-1})_00, the weight of the level row on a
    sample at the evaluation point itself.  Non-finite points, or any
    non-finite sample, leave a point unusable.
    """
    m = points.size
    coefficients = np.full((3, m), np.nan)
    leverage = np.full(m, np.nan)
    usable = np.isfinite(points) & np.isfinite(z).all()
    at = np.flatnonzero(usable)
    if at.size == 0:
        return coefficients, usable, leverage
    u = points[at]
    count, sums = _walk(_quad_tile(u, h), u / h, z / h, np.stack([z, y]))
    scaled = sums[:, _HANKEL, 0] * _HALVES
    h_powers = np.array([1.0, h, h * h])
    cond = np.linalg.cond(scaled * np.outer(h_powers, h_powers))
    ok = (count >= MIN_WINDOW_POINTS) & np.isfinite(cond) & (cond <= CONDITION_LIMIT)
    # np.linalg.solve raises on a zero LU pivot; det runs the same factorization
    ok[ok] = np.linalg.det(scaled[ok]) != 0.0
    usable[at] = ok
    rhs = np.zeros((int(ok.sum()), 3, 2))
    rhs[:, :, 0] = sums[ok, :3, 1] * _HALVES[0]
    rhs[:, 0, 1] = 1.0
    solution = np.linalg.solve(scaled[ok], rhs)
    fitted = at[ok]
    coefficients[:, fitted] = (solution[:, :, 0] / h_powers).T
    leverage[fitted] = smooth_kernel(0.0) * solution[:, 0, 1]
    return coefficients, usable, leverage


def smoother_matrix(index_values, h: float) -> np.ndarray:
    """The n-by-n linear map from responses to fitted link values.

    Row j is the level smoother row of the local quadratic fit at u = z_j, so
    S @ y stacks the fitted values.  A singular row aborts the build with the
    row index attached.
    """
    z = _as_vector(index_values, "index_values")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
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
    if derivative not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {derivative}")
    z, y = _fit_inputs(index_values, responses, h)
    points = np.asarray(grid, dtype=float).ravel()
    return _quad_fits(z, y, points, float(h))[0][derivative]


def relocated_fit(index_values, responses, u: float, h: float,
                  center: float | None = None, max_steps: int = 64):
    """Local quadratic fit at ``u``, stepping toward the data centre on failure.

    Sparse windows near the index extremes can make the fit singular; the
    evaluation point is then moved toward ``center`` (default: median index)
    in steps of h/4 until a fit succeeds.  Returns ``(fit, moved)``.  A
    non-finite index value or ``u`` leaves every point unusable, so it
    raises at once.
    """
    z = _as_vector(index_values, "index_values")
    if not (np.isfinite(u) and np.isfinite(z).all()):
        raise SingularFitError(f"no admissible evaluation point near u={u:.6g}")
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
