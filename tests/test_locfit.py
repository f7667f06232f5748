"""Tests for the local quadratic smoother and the leave-one-out estimator."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fsim import kernel, locfit
from fsim.kernel import smooth_kernel
from fsim.locfit import (
    SingularFitError,
    curve_estimates,
    level_fits,
    local_quad_fit,
    nw_loo_all,
    nw_predict,
    relocated_fit,
    smoother_matrix,
)


def weighted_sum_of_squares(z, y, u, h, a, b, c):
    d = z - u
    residual = y - a - b * d - c * d * d / 2.0
    return float(np.sum(residual**2 * smooth_kernel(d / h)))


def brute_force_abc(z, y, u, h, width=8.0):
    """Independent oracle: coarse 13x13x13 grid over (a, b, c) to localize,
    then Powell-style polish with exact parabolic line minimizations.  The
    cost is exactly quadratic in the parameters, so three-point line fits are
    exact and the direction updates terminate at the minimizer; no linear
    algebra involved."""
    def cost(theta):
        return weighted_sum_of_squares(z, y, u, h, *theta)

    axis = np.linspace(-width, width, 13)
    best, best_val = None, np.inf
    for a in axis:
        for b in axis:
            for c in axis:
                val = cost((a, b, c))
                if val < best_val:
                    best, best_val = np.array([a, b, c]), val

    def line_min(x, direction):
        lo, mid, hi = cost(x - direction), cost(x), cost(x + direction)
        curvature = lo - 2.0 * mid + hi
        if curvature <= 0.0:
            return x
        return x + 0.5 * (lo - hi) / curvature * direction

    directions = [np.eye(3)[k] for k in range(3)]
    x = best
    for _ in range(8):
        start = x.copy()
        for direction in directions:
            x = line_min(x, direction)
        displacement = x - start
        if np.linalg.norm(displacement) > 1e-14:
            directions = directions[1:] + [displacement]
            x = line_min(x, displacement)
    return x


class TestLocalQuadFit:
    def test_exact_quadratic_reproduced(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-1.0, 1.0, 40)
        u = 0.2
        d = z - u
        y = 4.0 + 2.0 * d + 3.0 * d * d / 2.0
        for h in (0.4, 0.9, 2.5):
            fit = local_quad_fit(z, y, u, h)
            assert fit.a_hat == pytest.approx(4.0, abs=1e-8)
            assert fit.b_hat == pytest.approx(2.0, abs=1e-8)
            assert fit.c_hat == pytest.approx(3.0, abs=1e-8)

    def test_constant_reproduced(self):
        z = np.linspace(-1.0, 1.0, 15)
        fit = local_quad_fit(z, np.full(15, 7.0), 0.1, 0.8)
        assert fit.a_hat == pytest.approx(7.0, abs=1e-10)
        assert fit.b_hat == pytest.approx(0.0, abs=1e-9)
        assert fit.c_hat == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force_minimizer(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(-1.0, 1.0, 5)
        y = rng.normal(0.0, 1.0, 5)
        u, h = 0.0, 1.2
        fit = local_quad_fit(z, y, u, h)
        a, b, c = brute_force_abc(z, y, u, h)
        assert fit.a_hat == pytest.approx(a, abs=1e-6)
        assert fit.b_hat == pytest.approx(b, abs=1e-6)
        assert fit.c_hat == pytest.approx(c, abs=1e-6)

    def test_smoother_rows_consistent_with_estimates(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(0.0, 1.0, 30)
        y = rng.normal(0.0, 1.0, 30)
        fit = local_quad_fit(z, y, 0.5, 0.3)
        assert fit.a_hat == pytest.approx(fit.smoother_row_0 @ y, abs=1e-10)
        assert fit.b_hat == pytest.approx(fit.smoother_row_1 @ y, abs=1e-10)
        assert fit.c_hat == pytest.approx(fit.smoother_row_2 @ y, abs=1e-10)
        assert fit.smoother_row_0.sum() == pytest.approx(1.0, abs=1e-10)
        assert fit.effective_points >= 3

    def test_too_few_points_in_window(self):
        z = np.array([0.0, 0.01, 5.0, 6.0, 7.0])
        y = np.zeros(5)
        with pytest.raises(SingularFitError):
            local_quad_fit(z, y, 0.0, 0.1)

    def test_coincident_points_are_singular(self):
        z = np.full(10, 0.3)
        with pytest.raises(SingularFitError):
            local_quad_fit(z, np.zeros(10), 0.3, 1.0)

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            local_quad_fit(np.arange(5.0), np.zeros(5), 0.0, -1.0)

    def test_linearity_in_responses(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(0.0, 1.0, 25)
        y1 = rng.normal(size=25)
        y2 = rng.normal(size=25)
        f1 = local_quad_fit(z, y1, 0.4, 0.35)
        f2 = local_quad_fit(z, y2, 0.4, 0.35)
        f12 = local_quad_fit(z, y1 + y2, 0.4, 0.35)
        assert f12.a_hat == pytest.approx(f1.a_hat + f2.a_hat, abs=1e-10)
        assert f12.b_hat == pytest.approx(f1.b_hat + f2.b_hat, abs=1e-10)
        assert f12.c_hat == pytest.approx(f1.c_hat + f2.c_hat, abs=1e-10)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(0.0, 1.0, 25)
        y = rng.normal(size=25)
        base = local_quad_fit(z, y, 0.5, 0.3)
        shifted = local_quad_fit(z + 17.25, y, 0.5 + 17.25, 0.3)
        assert shifted.a_hat == pytest.approx(base.a_hat, abs=1e-9)
        assert shifted.b_hat == pytest.approx(base.b_hat, abs=1e-9)
        assert shifted.c_hat == pytest.approx(base.c_hat, abs=1e-9)

    def test_scale_covariance(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(0.0, 1.0, 25)
        y = rng.normal(size=25)
        lam = 3.5
        base = local_quad_fit(z, y, 0.5, 0.3)
        scaled = local_quad_fit(lam * z, y, lam * 0.5, lam * 0.3)
        assert scaled.a_hat == pytest.approx(base.a_hat, abs=1e-8)
        assert scaled.b_hat == pytest.approx(base.b_hat / lam, abs=1e-8)
        assert scaled.c_hat == pytest.approx(base.c_hat / lam**2, abs=1e-8)


def direct_nw(points, samples, y, h, leave_one_out):
    """Oracle: every pair's weight from the argument the code forms, exactly
    rounded sums.  The leave-one-out weights take the difference of the
    h-scaled index, the held-out ones the h-scaled difference (z_j - u) / h,
    so both put each sample on the code's side of the window edge.

    Returns ``(estimates, excluded, scale)``; scale is the weighted mean of
    |y|, the size a reordered sum of the same weights can be off by.
    """
    p = np.asarray(points, float)
    s = np.asarray(samples, float)
    estimates = np.full(p.size, np.nan)
    scale = np.full(p.size, np.nan)
    for i in range(p.size):
        if leave_one_out:
            w = smooth_kernel(p[i] / h - s / h)
            w[i] = 0.0
        else:
            w = smooth_kernel((s - p[i]) / h)
        # zero weights add nothing to an exactly rounded sum
        inside = np.flatnonzero(w)
        w, near = w[inside], y[inside]
        den = math.fsum(w)
        if den > 0.0:
            estimates[i] = math.fsum(w * near) / den
            scale[i] = (w @ np.abs(near)) / den
    return estimates, np.isnan(estimates), scale


def spying(calls, function):
    """``function``, recording the arguments of each call in ``calls``."""
    def spy(*args):
        calls.append(args)
        return function(*args)
    return spy


def assert_matches_oracle(got, oracle, rel=1e-12):
    estimates, excluded = got
    expected, expected_excluded, scale = oracle
    np.testing.assert_array_equal(excluded, expected_excluded)
    assert np.all(np.isnan(estimates[excluded]))
    keep = ~expected_excluded
    assert np.all(np.abs(estimates[keep] - expected[keep]) <= rel * scale[keep])


def awkward_index(n, rng):
    """Index values with ties, exact duplicates and a few isolated samples.

    Above two tiles of the numpy window sums, the sorted rows ``T - 1`` and
    ``T`` are exact duplicates across the first tile boundary, and a gap of
    5 follows sorted row ``2T - 1``, so at bandwidths below 5 the second tile
    reaches no sample right of itself.
    """
    z = rng.normal(size=n)
    z[: n // 3] = np.round(z[: n // 3], 1)
    z[n // 3: n // 2] = z[: n // 2 - n // 3]
    z[-3:] = 40.0 + 7.0 * np.arange(3)
    if n > 2 * T:
        z.sort()
        z[T] = z[T - 1]
        z[2 * T:-3] += 5.0
    return rng.permutation(z)


class TestNadarayaWatson:
    def test_constant_responses(self):
        z = np.linspace(0.0, 1.0, 8)
        estimates, _ = nw_loo_all(z, np.full(8, 4.5), 0.5)
        assert estimates[3] == pytest.approx(4.5, abs=1e-14)

    def test_single_neighbour(self):
        estimates, _ = nw_loo_all([0.0, 0.1], [2.0, 4.0], 1.0)
        assert estimates[0] == pytest.approx(4.0)

    def test_direct_sum_oracle(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(0.0, 1.0, 6)
        y = rng.normal(size=6)
        h = 0.4
        estimates, _ = nw_loo_all(z, y, h)
        for i in range(6):
            num = den = 0.0
            for j in range(6):
                if j == i:
                    continue
                weight = smooth_kernel((z[i] - z[j]) / h)
                num += weight * y[j]
                den += weight
            assert estimates[i] == pytest.approx(num / den, abs=1e-12)

    def test_empty_window_signal(self):
        z = np.array([0.0, 10.0, 20.0, 30.0])
        estimates, excluded = nw_loo_all(z, np.zeros(4), 0.5)
        assert excluded[0]
        assert np.isnan(estimates[0])

    def test_vectorized_matches_oracle(self):
        rng = np.random.default_rng(6)
        z = rng.uniform(0.0, 1.0, 30)
        y = rng.normal(size=30)
        estimates, excluded = nw_loo_all(z, y, 0.15)
        expected, expected_excluded, _ = direct_nw(z, z, y, 0.15, leave_one_out=True)
        np.testing.assert_array_equal(excluded, expected_excluded)
        for i in range(30):
            if not excluded[i]:
                # the matrix path and the exact sums differ in accumulation order
                assert estimates[i] == pytest.approx(expected[i], rel=1e-12)

    def test_exclusions_flagged(self):
        z = np.array([0.0, 0.01, 0.02, 9.0])
        estimates, excluded = nw_loo_all(z, np.ones(4), 0.1)
        assert list(excluded) == [False, False, False, True]
        assert np.isnan(estimates[3])


# points per tile of the numpy window sums, a multiple of every vector block
T = kernel._TILE_ROWS
CUTOFF = locfit.ONE_TILE_MAX
# sizes about the tile edges of the numpy window sums, the dense cap and the
# cap it had before: 300, 1000 and 4000 end on a short tile, 65 and 257 on a
# tile of one point, and every size but 64, 256, 1000 and 4000 on a ragged
# block of eight
ENGINE_SIZES = sorted({63, 64, 65, 197, 255, 256, 257, 300, 1000, 4000,
                       CUTOFF - 1, CUTOFF, CUTOFF + 1})


@pytest.fixture(params=["default", "tiled"])
def engine_path(request, monkeypatch):
    """Run each case as shipped and with every size forced onto the tiled path."""
    if request.param == "tiled":
        monkeypatch.setattr(locfit, "ONE_TILE_MAX", 0)
    return request.param


@functools.lru_cache(maxsize=None)
def loo_oracles(n):
    """Index, responses and leave-one-out oracles at each bandwidth for one
    size, computed once for both engine paths; the last bandwidth is wider
    than the whole index."""
    rng = np.random.default_rng(n)
    z = awkward_index(n, rng)
    y = rng.normal(size=n)
    return z, y, [(h, direct_nw(z, z, y, h, leave_one_out=True))
                  for h in (0.004, 0.08, 0.5, 3.0, 200.0)]


# from a reach of one sample (or its exact duplicates) to wider than the whole index
WALK_BANDWIDTHS = (1e-9, 0.004, 0.08, 0.5, 3.0, 200.0)


class TestKernelSumEngine:
    @pytest.mark.parametrize("n", ENGINE_SIZES)
    def test_loo_matches_direct_sums(self, n, engine_path):
        z, y, oracles = loo_oracles(n)
        for h, oracle in oracles:
            # the isolated samples, 7 apart, have empty windows below h = 7
            assert oracle[1][z >= 40.0].all() == (h < 7.0)
            assert_matches_oracle(nw_loo_all(z, y, h), oracle)

    @pytest.mark.parametrize("n", [n for n in ENGINE_SIZES if n > CUTOFF])
    def test_compiled_walk_is_the_numpy_walk_byte_for_byte(self, n, monkeypatch):
        # the library's leave-one-out loop and its numpy form sum each row
        # over its window in the same order, signed zeros included, and so
        # does the walk of either
        rng = np.random.default_rng(n + 3)
        z = awkward_index(n, rng)
        y = rng.normal(size=n)
        y[::5] = -0.0
        walks = {}
        for path in ("compiled", "numpy"):
            if path == "numpy":
                monkeypatch.setattr(kernel, "_loo_estimates", None)
            walks[path] = [array for h in WALK_BANDWIDTHS
                           for array in kernel.loo_estimates((z / h)[None], y)]
        for got, expected in zip(walks["compiled"], walks["numpy"]):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", ENGINE_SIZES)
    def test_compiled_predictions_and_fits_are_the_numpy_ones_byte_for_byte(self, n,
                                                                           monkeypatch):
        # held-out predictions and local quadratic fits take the window sums
        # at every size, the same bits on the compiled loop and its numpy form
        rng = np.random.default_rng(n + 4)
        z = awkward_index(n, rng)
        y = rng.normal(size=n)
        y[::5] = -0.0
        points = np.concatenate([rng.choice(z, 30), rng.normal(scale=2.0, size=30), [-60.0]])
        results = {}
        for path in ("compiled", "numpy"):
            if path == "numpy":
                monkeypatch.setattr(kernel, "_window_sums", None)
            results[path] = [array for h in WALK_BANDWIDTHS[1:-1]
                             for result in (nw_predict(z, y, points, h),
                                            locfit._quad_fits(z, y, points, h))
                             for array in result]
        for got, expected in zip(results["compiled"], results["numpy"]):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [n for n in ENGINE_SIZES if n > CUTOFF])
    def test_one_loop_call_per_walk(self, n, monkeypatch):
        # above the cap a leave-one-out call makes one loo_estimates call with
        # the h-scaled index, and no kernel transform or window_sums call of
        # its own; with the library that call is one library call, and
        # without it the numpy walk sorts the index once and sums it in one
        # pass of the numpy window sums
        calls, stacks, library, walks, transforms = [], [], [], [], []
        monkeypatch.setattr(locfit, "window_sums", spying(calls, locfit.window_sums))
        monkeypatch.setattr(locfit, "loo_estimates", spying(stacks, locfit.loo_estimates))
        monkeypatch.setattr(locfit, "transform_inplace", lambda *args: transforms.append(args))
        monkeypatch.setattr(kernel, "_numpy_window_sums",
                            spying(walks, kernel._numpy_window_sums))
        rng = np.random.default_rng(n + 3)
        z = awkward_index(n, rng)
        y = rng.normal(size=n)
        for compiled in (True, False):
            if not compiled:
                monkeypatch.setattr(kernel, "_loo_estimates", None)
            elif kernel._loo_estimates is None:
                continue
            else:
                monkeypatch.setattr(kernel, "_loo_estimates",
                                    spying(library, kernel._loo_estimates))
            for h in WALK_BANDWIDTHS:
                stacks.clear()
                library.clear()
                walks.clear()
                nw_loo_all(z, y, h)
                [(scaled, responses)] = stacks
                np.testing.assert_array_equal(scaled, (z / h)[None])
                assert responses is y
                assert len(library) == compiled
                if compiled:
                    assert walks == []
                    continue
                [(p, s, sorted_y)] = walks
                order = np.argsort(z / h)
                np.testing.assert_array_equal(p, (z / h)[order])
                np.testing.assert_array_equal(sorted_y, y[order])
                assert s is p
        assert calls == [] and transforms == []

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("n", [65, 90, 257, 1000])
    def test_stack_call_is_the_numpy_walk_byte_for_byte(self, n, shared, monkeypatch):
        # one library call per stack gives the estimates and excluded flags
        # of the numpy walk, empty windows and -0 included
        if kernel._loo_estimates is None:
            pytest.skip("no compiled library loaded")
        rng = np.random.default_rng(n + 5)
        z = np.stack([awkward_index(n, rng) for _ in range(6)])
        scaled = z / np.array([1e-9, 0.004, 0.08, 0.5, 3.0, 200.0])[:, None]
        y = rng.normal(size=n if shared else z.shape)
        y[..., ::5] = -0.0
        got = kernel.loo_estimates(scaled, y)
        monkeypatch.setattr(kernel, "_loo_estimates", None)
        expected = kernel.loo_estimates(scaled, y)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].dtype == bool and got[1].tobytes() == expected[1].tobytes()
        assert got[1][0].any() and not got[1][-1].any()

    def test_arrays_the_library_cannot_take_go_to_the_numpy_walk(self, monkeypatch):
        # strided, read-only and float32 stacks, and empty ones, take the
        # numpy walk without a library call and answer with its bytes, which
        # for the float64 ones are the library's bytes of a contiguous copy
        p = np.linspace(-3.0, 3.0, 80)
        y = np.cos(p)
        stack = np.stack([p, p / 2.0])
        frozen = stack.copy()
        frozen.flags.writeable = False
        cases = [(stack[:, ::2], y[::2]), (stack, y[::-1]), (frozen, y),
                 (stack.astype(np.float32), y), (stack, y.astype(np.float32)), (stack[:0], y),
                 (np.empty((2, 0)), np.empty(0))]
        library = [kernel.loo_estimates(np.ascontiguousarray(points, dtype=np.float64),
                                        np.ascontiguousarray(responses, dtype=np.float64))
                   for points, responses in cases[:3]]
        calls = []
        if kernel._loo_estimates is not None:
            monkeypatch.setattr(kernel, "_loo_estimates", spying(calls, kernel._loo_estimates))
        for k, (points, responses) in enumerate(cases):
            estimates, excluded = kernel.loo_estimates(points, responses)
            expected = kernel._numpy_loo(points, responses)
            assert estimates.shape == excluded.shape == points.shape
            assert estimates.tobytes() == expected[0].tobytes()
            assert excluded.tobytes() == expected[1].tobytes()
            if k < len(library):
                assert estimates.tobytes() == library[k][0].tobytes()
        assert calls == []
        with pytest.raises(ValueError, match=r"expected \(B, n\) points"):
            kernel.loo_estimates(p, y)

    @pytest.mark.parametrize("n", sorted({10, CUTOFF + 1, 200, 257}))
    def test_one_loop_call_per_prediction_or_fit_pass(self, n, monkeypatch):
        # at every size held-out prediction and the local quadratic fits sort
        # their points and samples once and take the moments of the raw index
        # in one window_sums call each, one library call with the library
        calls, library, transforms = [], [], []
        monkeypatch.setattr(locfit, "window_sums", spying(calls, locfit.window_sums))
        monkeypatch.setattr(locfit, "transform_inplace", lambda *args: transforms.append(args))
        monkeypatch.setattr(locfit, "smooth_kernel", lambda *args: transforms.append(args))
        if kernel._window_sums is not None:
            monkeypatch.setattr(kernel, "_window_sums", spying(library, kernel._window_sums))
        rng = np.random.default_rng(n)
        z = rng.normal(size=n)
        y = rng.normal(size=n)
        points = rng.normal(size=25)
        nw_predict(z, y, points, 0.5)
        locfit._quad_fits(z, y, points, 0.5)
        order = np.argsort(z)
        assert len(calls) == 2
        for u, samples, moment_y, h in calls:
            np.testing.assert_array_equal(u, np.sort(points))
            np.testing.assert_array_equal(samples, z[order])
            assert moment_y.tolist() == y[order].tolist() and h == 0.5
        assert len(library) == (0 if kernel._window_sums is None else 2)
        assert transforms == []

    @pytest.mark.parametrize("m, n", [(10, 90), (65, 197), (5, 1000), (1000, 20),
                                      (CUTOFF + 1, CUTOFF + 1), (257, 257)])
    def test_predict_matches_direct_sums(self, m, n, engine_path):
        rng = np.random.default_rng(m * n)
        z = awkward_index(n, rng)
        y = rng.normal(size=n)
        # held-out points: some equal to samples, some between, some far off
        points = np.concatenate([rng.choice(z, m // 2), rng.normal(scale=2.0, size=m - m // 2)])
        points[-1] = -60.0
        for h in (0.01, 0.3, 2.0):
            oracle = direct_nw(points, z, y, h, leave_one_out=False)
            assert oracle[1][-1]
            assert_matches_oracle(nw_predict(z, y, points, h), oracle)

    def test_predict_and_oracle_share_the_window_edge(self):
        # z / h - u / h rounds these samples across the window edge that
        # (z - u) / h leaves them on: one inside, one outside
        excluded = []
        for z, u, h in [(0.4702734042712358, -0.4638766728140493, 0.9341500770852852),
                        (-1.0502013799081846, -0.08498784700926532, 0.9652135328989193)]:
            samples, y = np.array([z, 5.0]), np.array([2.0, 3.0])
            oracle = direct_nw([u], samples, y, h, leave_one_out=False)
            assert_matches_oracle(nw_predict(samples, y, [u], h), oracle)
            excluded.append(bool(oracle[1][0]))
        assert excluded == [False, True]

    @pytest.mark.parametrize("m, n", [(10, 90), (65, 197), (1000, 20)])
    def test_predict_is_the_local_constant_fit_bit_for_bit(self, m, n):
        # the prediction is sum K((z_j - u)/h) y_j / sum K((z_j - u)/h), T_0 / S_0
        # of the local fits' moments: smooth_kernel values of the raw index,
        # each sum added in ascending sample order from +0
        rng = np.random.default_rng(m + n)
        z = rng.normal(size=n)
        y = rng.normal(size=n)
        points = np.concatenate([rng.choice(z, m // 2), rng.normal(scale=2.0, size=m - m // 2)])
        order = np.argsort(z)
        for h in (0.01, 0.3, 2.0):
            expected = []
            for u in points:
                num = den = 0.0
                for w, response in zip(smooth_kernel((z[order] - u) / h).tolist(),
                                       y[order].tolist()):
                    den += w
                    num += w * response
                expected.append(num / den if den else np.nan)
            predictions, excluded = nw_predict(z, y, points, h)
            assert predictions.tobytes() == np.array(expected).tobytes()
            np.testing.assert_array_equal(excluded, np.isnan(expected))

    def test_one_tile_is_the_dense_matrix_bit_for_bit(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.0, 3.0, size=CUTOFF)
        y = rng.normal(size=CUTOFF)
        scaled = z / 0.3
        # unnormalized weights, own sample zeroed, both sums from one product
        w = kernel._numpy_passes(scaled[None, :] - scaled[:, None])
        np.fill_diagonal(w, 0.0)
        sums = w @ np.stack([np.ones(CUTOFF), y], axis=1)
        estimates, excluded = nw_loo_all(z, y, 0.3)
        assert not excluded.any()
        np.testing.assert_array_equal(estimates, sums[:, 1] / sums[:, 0])

    def test_no_points_or_no_samples(self):
        z = np.linspace(0.0, 1.0, CUTOFF + 1)
        predictions, excluded = nw_predict(z, np.ones(z.size), [], 0.1)
        assert predictions.size == excluded.size == 0
        predictions, excluded = nw_predict([], [], z, 0.1)
        assert excluded.all() and np.isnan(predictions).all()

    def test_rejects_mismatched_lengths_and_bad_bandwidth(self):
        with pytest.raises(ValueError):
            nw_loo_all(np.arange(5.0), np.zeros(4), 0.5)
        with pytest.raises(ValueError):
            nw_predict(np.arange(5.0), np.zeros(5), [0.5], 0.0)

    @pytest.mark.parametrize("n", sorted({64, CUTOFF, CUTOFF + 1, 256, 257}))
    def test_batch_matches_each_problem_alone(self, n, engine_path):
        rng = np.random.default_rng(n + 1)
        z = np.stack([awkward_index(n, rng) for _ in range(5)])
        y = rng.normal(size=z.shape)
        h = np.array([0.004, 0.08, 0.5, 0.5, 3.0])
        estimates, excluded = nw_loo_all(z, y, h)
        for b in range(5):
            alone_estimates, alone_excluded = nw_loo_all(z[b], y[b], h[b])
            assert estimates[b].tobytes() == alone_estimates.tobytes()
            np.testing.assert_array_equal(excluded[b], alone_excluded)

    @pytest.mark.parametrize("n", [90, 200, 1000])
    def test_compiled_weights_give_the_broadcast_bits(self, n, monkeypatch):
        # every tile takes its weights from the compiled loop, which forms
        # samples - points as the broadcast subtraction does; so every result
        # keeps the bits of the broadcast subtraction and the numpy passes,
        # signed zeros included
        rng = np.random.default_rng(n + 7)
        z = np.stack([awkward_index(n, rng) for _ in range(3)])
        z[1, :6] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
        y = rng.normal(size=z.shape)
        points = np.concatenate([rng.choice(z[0], 40), rng.normal(scale=2.0, size=40), z[1, :6]])
        h = np.array([0.004, 0.3, 3.0])

        def outputs():
            results = [nw_loo_all(z[b], y[b], h[b]) for b in range(3)]
            results += [nw_loo_all(z, y, h)]
            results += [nw_predict(z[0], y[0], points, hb) for hb in h]
            results += [locfit._quad_fits(z[b], y[b], at, hb)
                        for b in (0, 1) for at in (z[b], points) for hb in h[1:]]
            return [array for result in results for array in result]

        compiled = outputs()
        assert any(np.isnan(array).any() for array in compiled)
        monkeypatch.setattr(kernel, "_weights", None)
        broadcast = outputs()
        assert len(compiled) == len(broadcast) == 38
        for got, expected in zip(compiled, broadcast):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_batch_stacks_at_most_one_dense_tile_of_pairs(self, monkeypatch):
        # a batch makes one dense stack or one loo_estimates call (one
        # library call, or the numpy walk), however large; stack_size tells
        # callers how many problems to pass
        shapes, calls = [], []
        tile = locfit._nw_tile

        def spy(points, responses):
            shapes.append(points.shape + points.shape[-1:])
            return tile(points, responses)

        monkeypatch.setattr(locfit, "_nw_tile", spy)
        monkeypatch.setattr(locfit, "loo_estimates", spying(calls, locfit.loo_estimates))
        rng = np.random.default_rng(12)
        for n in (CUTOFF, CUTOFF + 1):
            z = rng.normal(size=(20, n))
            nw_loo_all(z, rng.normal(size=z.shape), np.full(20, 0.5))
        assert shapes == [(20, CUTOFF, CUTOFF)]
        [(p, _)] = calls
        assert p.shape == (20, CUTOFF + 1)
        # problems of 90 x 90 pairs: 8 fit in STACK_PAIRS = 65536 pairs, 9 do not
        monkeypatch.setattr(locfit, "ONE_TILE_MAX", 90)
        assert locfit.stack_size(90) == 8 and locfit.stack_size(91) == locfit.STACK_VALUES // 91
        assert locfit.stack_size(10**5) == 1

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
    def test_non_finite_bandwidth_is_refused_everywhere(self, h):
        # NaN once slipped through every h <= 0 guard: nw_loo_all returned NaN
        # estimates with nothing excluded, and the local fits raised LinAlgError
        z = np.linspace(0.0, 1.0, 30)
        y = np.sin(z)
        calls = [lambda: nw_loo_all(z, y, h), lambda: nw_predict(z, y, [0.5], h),
                 lambda: curve_estimates(z, y, [0.5], h), lambda: level_fits(z, y, h),
                 lambda: local_quad_fit(z, y, 0.5, h), lambda: smoother_matrix(z, h),
                 lambda: nw_loo_all(np.stack([z, z]), np.stack([y, y]), [0.3, h])]
        for call in calls:
            with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
                call()

    def test_batch_rejects_mismatched_shapes_and_bad_bandwidth(self):
        z = np.zeros((2, 5))
        with pytest.raises(ValueError):
            nw_loo_all(z, np.zeros((2, 4)), [0.5, 0.5])
        with pytest.raises(ValueError):
            nw_loo_all(z, z, [0.5])
        with pytest.raises(ValueError):
            nw_loo_all(z, z, 0.5)
        with pytest.raises(ValueError):
            nw_loo_all(np.zeros((2, 2, 5)), np.zeros(5), np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            nw_loo_all(z, z, [0.5, 0.0])


# the inputs each public entry point takes, called at h = 0.3: index values,
# responses and an evaluation point (a held-out point, a grid point or u)
ENTRY_POINTS = {
    "nw_loo_all": (("index_values", "responses"), lambda z, y, u: nw_loo_all(z, y, 0.3)),
    "nw_loo_all stack": (("index_values", "responses"),
                         lambda z, y, u: nw_loo_all(np.stack([z, z]), np.stack([y, y]),
                                                    [0.3, 0.3])),
    "nw_predict": (("index_values", "responses", "points"),
                   lambda z, y, u: nw_predict(z, y, [0.2, u], 0.3)),
    "curve_estimates": (("index_values", "responses", "grid"),
                        lambda z, y, u: curve_estimates(z, y, [0.2, u], 0.3)),
    "level_fits": (("index_values", "responses"), lambda z, y, u: level_fits(z, y, 0.3)),
    "local_quad_fit": (("index_values", "responses", "u"),
                       lambda z, y, u: local_quad_fit(z, y, u, 0.3)),
    "smoother_matrix": (("index_values",), lambda z, y, u: smoother_matrix(z, 0.3)),
    "relocated_fit": (("index_values", "responses", "u"),
                      lambda z, y, u: relocated_fit(z, y, u, 0.3)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry, field", [(entry, field) for entry, (fields, _) in
                                          ENTRY_POINTS.items() for field in fields])
def test_non_finite_input_is_refused_where_it_enters(entry, field, bad):
    # one check at the entry names the input and its first bad row; nothing
    # inside the engine carries a NaN or an infinity any more
    z = np.linspace(0.0, 1.0, 100)
    y = np.sin(z)
    u = 0.5
    if field == "index_values":
        z[70] = bad
    elif field == "responses":
        y[70] = bad
    else:
        u = bad
    row = {"index_values": " at row 70", "responses": " at row 70", "points": " at row 1",
           "grid": " at row 1", "u": ""}[field]
    if entry == "nw_loo_all stack":
        row = " at row 0, column 70"
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}{row}$"):
        ENTRY_POINTS[entry][1](z, y, u)


def sized_index_arrays(low, high):
    return st.integers(low, high).flatmap(
        lambda n: hnp.arrays(float, n, elements=st.floats(-4.0, 4.0, width=16)))


index_arrays = sized_index_arrays(2, 2 * CUTOFF)
# every example takes the symmetric walk
tiled_index_arrays = sized_index_arrays(CUTOFF + 1, 4 * CUTOFF)


def check_permutation(z, seed, h):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=z.size)
    perm = rng.permutation(z.size)
    estimates, excluded = nw_loo_all(z, y, h)
    permuted, permuted_excluded = nw_loo_all(z[perm], y[perm], h)
    np.testing.assert_array_equal(permuted_excluded, excluded[perm])
    scale = direct_nw(z, z, y, h, leave_one_out=True)[2]
    keep = ~excluded[perm]
    assert np.all(np.abs(permuted[keep] - estimates[perm][keep]) <= 1e-12 * scale[perm][keep])


def check_power_of_two_rescale(z, seed, h, power):
    y = np.random.default_rng(seed).normal(size=z.size)
    lam = 2.0**power
    estimates, excluded = nw_loo_all(z, y, h)
    scaled, scaled_excluded = nw_loo_all(lam * z, y, lam * h)
    np.testing.assert_array_equal(scaled_excluded, excluded)
    np.testing.assert_array_equal(scaled, estimates)


class TestInvariances:
    @settings(max_examples=40, deadline=None)
    @given(z=index_arrays, seed=st.integers(0, 2**32 - 1), h=st.floats(0.05, 3.0))
    def test_permuting_samples_permutes_estimates(self, z, seed, h):
        check_permutation(z, seed, h)

    @settings(max_examples=25, deadline=None)
    @given(z=tiled_index_arrays, seed=st.integers(0, 2**32 - 1), h=st.floats(0.05, 3.0))
    def test_permuting_samples_permutes_estimates_above_one_tile(self, z, seed, h):
        check_permutation(z, seed, h)

    @settings(max_examples=40, deadline=None)
    @given(z=index_arrays, seed=st.integers(0, 2**32 - 1), h=st.floats(0.05, 3.0),
           power=st.integers(-20, 20))
    def test_power_of_two_rescale_is_exact(self, z, seed, h, power):
        check_power_of_two_rescale(z, seed, h, power)

    @settings(max_examples=25, deadline=None)
    @given(z=tiled_index_arrays, seed=st.integers(0, 2**32 - 1), h=st.floats(0.05, 3.0),
           power=st.integers(-20, 20))
    def test_power_of_two_rescale_is_exact_above_one_tile(self, z, seed, h, power):
        check_power_of_two_rescale(z, seed, h, power)

    @settings(max_examples=40, deadline=None)
    @given(z=index_arrays, seed=st.integers(0, 2**32 - 1), h=st.floats(0.05, 3.0),
           lam=st.floats(1e-3, 1e3))
    def test_rescale_leaves_estimates_unchanged(self, z, seed, h, lam):
        # a pair within rounding of the window edge may flip in or out
        distance = np.abs(z[:, None] - z[None, :]) / h
        assume(not np.any(np.abs(distance - 1.0) < 1e-9))
        y = np.random.default_rng(seed).normal(size=z.size)
        estimates, excluded = nw_loo_all(z, y, h)
        scaled, scaled_excluded = nw_loo_all(lam * z, y, lam * h)
        np.testing.assert_array_equal(scaled_excluded, excluded)
        scale = direct_nw(z, z, y, h, leave_one_out=True)[2]
        keep = ~excluded
        assert np.all(np.abs(scaled[keep] - estimates[keep]) <= 1e-9 * scale[keep])


def pointwise_fits(z, y, points, h):
    """Oracle: ``local_quad_fit`` at every point, NaN where it raises.

    Returns ``(coefficients, kappa, scale)``: the (a, b, c) rows, the
    condition number of the h-scaled normal matrix, and the weighted mean
    |y| of every usable point.  Reordering the sums of a system with
    condition kappa moves its solution by up to about kappa times the
    rounding of the sums, so kappa times the local response scale is the
    size two correct fits can differ by.
    """
    coefficients = np.full((3, len(points)), np.nan)
    kappa = np.full(len(points), np.nan)
    scale = np.full(len(points), np.nan)
    for k, u in enumerate(points):
        try:
            fit = local_quad_fit(z, y, u, h)
        except SingularFitError:
            continue
        coefficients[:, k] = fit.a_hat, fit.b_hat, fit.c_hat
        s = (z - u) / h
        w = smooth_kernel(s)
        design = np.stack([np.ones_like(s), s, 0.5 * s * s])
        kappa[k] = np.linalg.cond((design * w) @ design.T)
        scale[k] = (w @ np.abs(y)) / w.sum()
    return coefficients, kappa, scale


def assert_fits_match(got, oracle, h, rel=1e-12):
    """Same unusable points; (a, b h, c h^2) within rel * kappa * scale."""
    expected, kappa, scale = oracle
    unusable = np.isnan(expected[0])
    np.testing.assert_array_equal(np.isnan(got), np.broadcast_to(unusable, got.shape))
    units = np.array([1.0, h, h * h])[:, None]
    error = np.abs(got - expected)[:, ~unusable] * units
    assert np.all(error <= rel * kappa[~unusable] * scale[~unusable])


@functools.lru_cache(maxsize=None)
def fit_oracles(n):
    """Index, responses, evaluation points and the pointwise fits at each
    bandwidth for one size, computed once for both engine paths."""
    rng = np.random.default_rng(n)
    z = awkward_index(n, rng)
    y = rng.normal(size=n)
    # at the samples, between them, and far off
    points = np.concatenate([z, rng.normal(scale=2.0, size=40), [-60.0]])
    return z, y, points, [(h, pointwise_fits(z, y, points, h)) for h in (0.004, 0.08, 0.5, 3.0)]


class TestBatchedFits:
    @pytest.mark.parametrize("n", ENGINE_SIZES)
    def test_matches_pointwise_fits(self, n, engine_path):
        # the same unusable points as the pointwise fits, and estimates within
        # the kappa bound of the order of the sums
        z, y, points, oracles = fit_oracles(n)
        for h, oracle in oracles:
            assert np.isnan(oracle[0][0, :n][z >= 40.0]).all()
            assert_fits_match(locfit._quad_fits(z, y, points, h)[0], oracle, h)

    def test_curve_estimates_are_the_batch_rows(self):
        rng = np.random.default_rng(12)
        z = awkward_index(300, rng)
        y = rng.normal(size=300)
        grid = np.linspace(-3.0, 3.0, 500)
        coefficients = locfit._quad_fits(z, y, grid, 0.2)[0]
        for k in range(3):
            np.testing.assert_array_equal(curve_estimates(z, y, grid, 0.2, derivative=k),
                                          coefficients[k])

    @pytest.mark.parametrize("n", [100, 300])
    def test_level_fits_match_smoother_matrix(self, n, engine_path):
        rng = np.random.default_rng(n)
        z = rng.uniform(0.0, 1.0, n)
        y = rng.normal(size=n)
        smoother = smoother_matrix(z, 0.15)
        fitted, leverage = level_fits(z, y, 0.15)
        np.testing.assert_allclose(fitted, smoother @ y, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(leverage, np.diag(smoother), rtol=0.0, atol=1e-12)

    def test_level_fits_raise_at_first_unusable_row(self, engine_path):
        z = np.linspace(0.0, 1.0, 300)
        z[[40, 7]] = [9.0, -5.0]
        with pytest.raises(SingularFitError) as batch:
            level_fits(z, np.zeros(300), 0.1)
        with pytest.raises(SingularFitError) as pointwise:
            smoother_matrix(z, 0.1)
        assert batch.value.row == pointwise.value.row == 7
        assert str(batch.value) == str(pointwise.value)

    def test_collinear_window_raises_the_pivot_reason_at_the_same_row(self, engine_path):
        # three weights on two index values: the quadratic column is a
        # combination of the other two, so its relative pivot is 0
        z = np.linspace(0.0, 1.0, 300)
        z[[100, 200, 250]] = [5.0, 5.125, 5.0]
        with pytest.raises(SingularFitError) as batch:
            level_fits(z, np.zeros(300), 0.25)
        with pytest.raises(SingularFitError) as pointwise:
            smoother_matrix(z, 0.25)
        assert batch.value.row == pointwise.value.row == 100
        assert str(batch.value) == str(pointwise.value)
        assert "normal matrix relative pivot 0 is not above 1e-12" in str(batch.value)

    def test_factors_rebuild_the_normal_matrix_and_pivots_are_one_minus_r2(self):
        rng = np.random.default_rng(14)
        z = rng.normal(size=200)
        points = np.linspace(-2.0, 2.0, 9)
        sums = locfit._sorted_moments(points, z, np.zeros(200), 0.7)
        (l10, l20, l21, d1, d2), pivot, usable = locfit._ldl(sums)
        assert usable.all()
        for k, u in enumerate(points):
            s = (z - u) / 0.7
            root_w = np.sqrt(smooth_kernel(s))
            design = np.stack([np.ones_like(s), s, 0.5 * s * s]) * root_w
            lower = np.array([[1.0, 0.0, 0.0], [l10[k], 1.0, 0.0], [l20[k], l21[k], 1.0]])
            np.testing.assert_allclose(lower @ np.diag([sums[0, k], d1[k], d2[k]]) @ lower.T,
                                       design @ design.T, rtol=1e-12, atol=1e-12 * sums[0, k])
            # 1 - R^2 of each column on the columns before it, by least squares
            r2 = [1.0 - np.sum((design[c] - np.linalg.lstsq(design[:c].T, design[c],
                                                            rcond=None)[0] @ design[:c])**2)
                  / np.sum(design[c]**2) for c in (1, 2)]
            assert pivot[k] == pytest.approx(1.0 - max(r2), rel=1e-9)

    def test_no_points_or_no_samples(self):
        assert curve_estimates(np.linspace(0.0, 1.0, 300), np.zeros(300), [], 0.1).size == 0
        assert np.isnan(curve_estimates([], [], np.linspace(0.0, 1.0, 300), 0.1)).all()


class TestBatchedInvariances:
    @settings(max_examples=30, deadline=None)
    @given(z=index_arrays, seed=st.integers(0, 2**32 - 1), h=st.floats(0.05, 3.0))
    def test_permuting_samples_leaves_fits_unchanged(self, z, seed, h):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=z.size)
        perm = rng.permutation(z.size)
        fits = locfit._quad_fits(z, y, z, h)[0]
        permuted = locfit._quad_fits(z[perm], y[perm], z, h)[0]
        assert_fits_match(permuted, (fits, *pointwise_fits(z, y, z, h)[1:]), h)

    @settings(max_examples=30, deadline=None)
    @given(z=index_arrays, seed=st.integers(0, 2**32 - 1), h=st.floats(0.05, 3.0),
           shift=st.integers(-2**16, 2**16))
    def test_translation_leaves_fits_unchanged(self, z, seed, h, shift):
        # half-precision index values plus a multiple of 2^-10 add exactly, so
        # every difference z - u, and every weight, is unchanged
        y = np.random.default_rng(seed).normal(size=z.size)
        c = shift / 1024.0
        fits = locfit._quad_fits(z, y, z, h)[0]
        shifted = locfit._quad_fits(z + c, y, z + c, h)[0]
        assert_fits_match(shifted, (fits, *pointwise_fits(z, y, z, h)[1:]), h)


    @settings(max_examples=40, deadline=None)
    @given(z=index_arrays, seed=st.integers(0, 2**32 - 1), h=st.floats(0.05, 3.0),
           power=st.integers(-20, 20))
    def test_power_of_two_rescale_scales_the_fits_exactly(self, z, seed, h, power):
        # (z, h) -> (lam z, lam h) at lam = 2^k leaves every argument (z - u) / h
        # and so every moment as it was: the usable masks are the same, and
        # the level and the leverage keep their bits while b and c scale by
        # 1/lam and 1/lam^2 exactly
        y = np.random.default_rng(seed).normal(size=z.size)
        lam = 2.0**power
        fits, usable, leverage = locfit._quad_fits(z, y, z, h)
        scaled, scaled_usable, scaled_leverage = locfit._quad_fits(lam * z, y, lam * z, lam * h)
        np.testing.assert_array_equal(scaled_usable, usable)
        assert scaled[0].tobytes() == fits[0].tobytes()
        assert scaled_leverage.tobytes() == leverage.tobytes()
        assert scaled[1].tobytes() == (fits[1] / lam).tobytes()
        assert scaled[2].tobytes() == (fits[2] / lam**2).tobytes()


class TestSmootherMatrix:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(0.0, 1.0, 20)
        smoother = smoother_matrix(z, 0.5)
        np.testing.assert_allclose(smoother.sum(axis=1), np.ones(20), atol=1e-10)

    def test_matches_pointwise_fits(self):
        rng = np.random.default_rng(8)
        z = rng.uniform(0.0, 1.0, 20)
        y = rng.normal(size=20)
        smoother = smoother_matrix(z, 0.4)
        fitted = smoother @ y
        for j in range(20):
            assert fitted[j] == pytest.approx(local_quad_fit(z, y, z[j], 0.4).a_hat, abs=1e-10)

    def test_large_bandwidth_approaches_global_quadratic_hat(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(0.0, 1.0, 12)
        design = np.column_stack([np.ones(12), z, z * z])
        hat = design @ np.linalg.solve(design.T @ design, design.T)
        smoother = smoother_matrix(z, 1e6)
        assert np.abs(smoother - hat).max() < 1e-8

    def test_singular_row_is_tagged(self):
        z = np.array([0.0, 0.01, 0.02, 0.03, 9.0])
        with pytest.raises(SingularFitError) as info:
            smoother_matrix(z, 0.1)
        assert info.value.row == 4


class TestCurveHelpers:
    def test_curve_estimates_gap_encoding(self):
        z = np.concatenate([np.linspace(0.0, 1.0, 30), [9.0, 9.01, 9.02]])
        y = np.sin(z)
        grid = np.array([0.5, 5.0, 9.01])
        values = curve_estimates(z, y, grid, 0.3, derivative=0)
        assert np.isfinite(values[0])
        assert np.isnan(values[1])
        assert values[0] == pytest.approx(local_quad_fit(z, y, 0.5, 0.3).a_hat)

    @pytest.mark.parametrize("h", [0.0, -0.3, np.nan, np.inf])
    def test_curve_estimates_rejects_bad_bandwidth(self, h):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            curve_estimates(np.arange(5.0), np.zeros(5), [1.0], h)

    def test_curve_estimates_rejects_orders_other_than_0_1_2(self):
        # True once returned all three coefficient rows, False none, and 2.0 an IndexError
        for order in (True, False, 2.0, 3, -1, "1"):
            with pytest.raises(ValueError, match="derivative order must be 0, 1 or 2"):
                curve_estimates(np.arange(5.0), np.zeros(5), [1.0], 0.5, derivative=order)

    def test_curve_estimates_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="got 5 index values but 4 responses"):
            curve_estimates(np.arange(5.0), np.zeros(4), [1.0], 0.5)

    def test_relocated_fit_moves_inward(self):
        rng = np.random.default_rng(10)
        z = np.sort(rng.uniform(0.0, 1.0, 40))
        y = rng.normal(size=40)
        fit, moved = relocated_fit(z, y, z.max() + 0.5, 0.12)
        assert moved
        assert np.isfinite(fit.a_hat)
        fit2, moved2 = relocated_fit(z, y, 0.5, 0.4)
        assert not moved2

    def test_relocated_fit_gives_up(self, monkeypatch):
        # h/4 steps from 0 to the median 10 would be 4000 fits; it stops after 64
        calls, fit = [], locfit.local_quad_fit
        monkeypatch.setattr(locfit, "local_quad_fit", lambda *args: calls.append(args) or fit(*args))
        with pytest.raises(SingularFitError):
            relocated_fit(np.array([0.0, 10.0, 20.0]), np.zeros(3), 0.0, 0.01)
        assert len(calls) == locfit.RELOCATION_STEPS + 1 == 65
