"""Tests for the local quadratic smoother and the leave-one-out estimator."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fsim import locfit
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
    """Oracle: every pair's weight on the h-scaled index, exactly rounded sums.

    Returns ``(estimates, excluded, scale)``; scale is the weighted mean of
    |y|, the size a reordered sum of the same weights can be off by.
    """
    p = np.asarray(points, float) / h
    s = np.asarray(samples, float) / h
    estimates = np.full(p.size, np.nan)
    scale = np.full(p.size, np.nan)
    for i in range(p.size):
        w = smooth_kernel(p[i] - s)
        if leave_one_out:
            w[i] = 0.0
        # zero weights add nothing to an exactly rounded sum
        inside = np.flatnonzero(w)
        w, near = w[inside], y[inside]
        den = math.fsum(w)
        if den > 0.0:
            estimates[i] = math.fsum(w * near) / den
            scale[i] = (w @ np.abs(near)) / den
    return estimates, np.isnan(estimates), scale


def assert_matches_oracle(got, oracle, rel=1e-12):
    estimates, excluded = got
    expected, expected_excluded, scale = oracle
    np.testing.assert_array_equal(excluded, expected_excluded)
    assert np.all(np.isnan(estimates[excluded]))
    keep = ~expected_excluded
    assert np.all(np.abs(estimates[keep] - expected[keep]) <= rel * scale[keep])


def awkward_index(n, rng):
    """Index values with ties, exact duplicates and a few isolated samples.

    Above two tiles of samples, the sorted rows ``T - 1`` and ``T`` are
    exact duplicates across the first tile boundary, and a gap of 5 follows
    sorted row ``2T - 1``, so at bandwidths below 5 the second tile reaches
    no sample right of itself.
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


T = locfit.TILE_ROWS
CUTOFF = locfit.ONE_TILE_MAX
# 300, 1000 and 4000 end on a short tile, CUTOFF + 1 on a tile of one row
ENGINE_SIZES = [T - 1, T, T + 1, 3 * T + 5, CUTOFF - 1, CUTOFF, CUTOFF + 1, 300, 1000, 4000]


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


class TestKernelSumEngine:
    @pytest.mark.parametrize("n", ENGINE_SIZES)
    def test_loo_matches_direct_sums(self, n, engine_path):
        z, y, oracles = loo_oracles(n)
        for h, oracle in oracles:
            # the isolated samples, 7 apart, have empty windows below h = 7
            assert oracle[1][z >= 40.0].all() == (h < 7.0)
            assert_matches_oracle(nw_loo_all(z, y, h), oracle)

    @pytest.mark.parametrize("m, n", [(10, 90), (T + 1, 3 * T + 5), (5, 1000), (1000, 20),
                                      (CUTOFF + 1, CUTOFF + 1)])
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

    def test_one_tile_is_the_dense_matrix_bit_for_bit(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.0, 3.0, size=CUTOFF)
        y = rng.normal(size=CUTOFF)
        scaled = z / 0.3
        w = smooth_kernel(scaled[:, None] - scaled[None, :])
        np.fill_diagonal(w, 0.0)
        estimates, excluded = nw_loo_all(z, y, 0.3)
        assert not excluded.any()
        np.testing.assert_array_equal(estimates, (w @ y) / w.sum(axis=1))

    def test_non_finite_index_propagates_as_nan(self, engine_path):
        z = np.linspace(0.0, 1.0, 300)
        z[7] = np.nan
        estimates, excluded = nw_loo_all(z, np.ones(300), 0.1)
        assert np.isnan(estimates).all()
        assert not excluded.any()

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

    @pytest.mark.parametrize("n", [T, CUTOFF, CUTOFF + 1])
    def test_batch_matches_each_problem_alone(self, n, engine_path):
        rng = np.random.default_rng(n + 1)
        z = np.stack([awkward_index(n, rng) for _ in range(5)])
        y = rng.normal(size=z.shape)
        z[3, 7] = np.nan
        h = np.array([0.004, 0.08, 0.5, 0.5, 3.0])
        estimates, excluded = locfit.nw_loo_batch(z, y, h)
        for b in range(5):
            alone_estimates, alone_excluded = nw_loo_all(z[b], y[b], h[b])
            assert estimates[b].tobytes() == alone_estimates.tobytes()
            np.testing.assert_array_equal(excluded[b], alone_excluded)

    @pytest.mark.parametrize("n", [90, 200, 1000])
    def test_filled_differences_give_the_broadcast_bits(self, n, monkeypatch):
        # the tiles fill samples - points in place; K is even and its
        # transform squares first, so every result keeps the bits of the
        # broadcast points - samples form
        rng = np.random.default_rng(n + 7)
        z = np.stack([awkward_index(n, rng) for _ in range(3)])
        y = rng.normal(size=z.shape)
        points = np.concatenate([rng.choice(z[0], 40), rng.normal(scale=2.0, size=40)])
        h = np.array([0.004, 0.3, 3.0])

        def outputs():
            return ([nw_loo_all(z[b], y[b], h[b]) for b in range(3)]
                    + [locfit.nw_loo_batch(z, y, h)]
                    + [nw_predict(z[0], y[0], points, hb) for hb in h])

        filled = outputs()
        monkeypatch.setattr(locfit, "_differences",
                            lambda points, samples: points[..., :, None] - samples[..., None, :])
        for (estimates, excluded), (expected, expected_excluded) in zip(filled, outputs()):
            assert estimates.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(excluded, expected_excluded)

    def test_batch_stacks_at_most_one_dense_tile_of_pairs(self, monkeypatch):
        shapes = []
        tile = locfit._nw_tile

        def spy(rows, points, samples, responses, diagonal):
            shapes.append(points.shape + samples.shape[-1:])
            return tile(rows, points, samples, responses, diagonal)

        monkeypatch.setattr(locfit, "_nw_tile", spy)
        rng = np.random.default_rng(12)
        z = rng.normal(size=(20, 90))
        locfit.nw_loo_batch(z, rng.normal(size=z.shape), np.full(20, 0.5))
        # 8 problems of 90 x 90 pairs fit in CUTOFF**2 = 65536 pairs, 9 do not
        assert shapes == [(8, 90, 90), (8, 90, 90), (4, 90, 90)]

    def test_batch_rejects_mismatched_shapes_and_bad_bandwidth(self):
        z = np.zeros((2, 5))
        with pytest.raises(ValueError):
            locfit.nw_loo_batch(z, np.zeros((2, 4)), [0.5, 0.5])
        with pytest.raises(ValueError):
            locfit.nw_loo_batch(z, z, [0.5])
        with pytest.raises(ValueError):
            locfit.nw_loo_batch(z, z, [0.5, 0.0])


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


class TestBatchedFits:
    @pytest.mark.parametrize("n", [T - 1, T, T + 1, CUTOFF - 1, CUTOFF, CUTOFF + 1, 1000])
    def test_matches_pointwise_fits(self, n, engine_path):
        rng = np.random.default_rng(n)
        z = awkward_index(n, rng)
        y = rng.normal(size=n)
        # at the samples, between them, and far off
        points = np.concatenate([z, rng.normal(scale=2.0, size=40), [-60.0]])
        for h in (0.004, 0.08, 0.5, 3.0):
            oracle = pointwise_fits(z, y, points, h)
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

    def test_non_finite_points_are_unusable(self):
        z = np.linspace(0.0, 1.0, 300)
        values = curve_estimates(z, z, [0.5, np.nan, np.inf], 0.1)
        assert np.isfinite(values[0])
        assert np.isnan(values[1:]).all()

    def test_non_finite_sample_leaves_every_point_unusable(self):
        z = np.linspace(0.0, 1.0, 300)
        z[150] = np.inf
        assert np.isnan(curve_estimates(z, z, [0.2, 0.5], 0.1)).all()

    @pytest.mark.parametrize("bad", ["nan_sample", "inf_sample", "nan_point"])
    def test_pointwise_fits_reject_non_finite_input_like_the_batch(self, bad):
        z = np.linspace(0.0, 1.0, 300)
        u = 0.5
        if bad == "nan_point":
            u = np.nan
        else:
            z[150] = np.nan if bad == "nan_sample" else np.inf
        assert np.isnan(curve_estimates(z, z, [u], 0.1)).all()
        with pytest.raises(SingularFitError):
            local_quad_fit(z, z, u, 0.1)
        with pytest.raises(SingularFitError):
            relocated_fit(z, z, u, 0.1)
        if bad != "nan_point":
            with pytest.raises(SingularFitError) as raised:
                smoother_matrix(z, 0.1)
            assert raised.value.row == 0

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

    @pytest.mark.parametrize("h", [0.0, -0.3])
    def test_curve_estimates_rejects_bad_bandwidth(self, h):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            curve_estimates(np.arange(5.0), np.zeros(5), [1.0], h)

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

    def test_relocated_fit_gives_up(self):
        z = np.array([0.0, 10.0, 20.0])
        with pytest.raises(SingularFitError):
            relocated_fit(z, np.zeros(3), 0.0, 0.01, max_steps=4)

    @pytest.mark.parametrize("bad", ["nan_sample", "inf_sample", "nan_point", "inf_point"])
    def test_relocated_fit_gives_up_at_once_on_non_finite_input(self, bad, monkeypatch):
        z = np.linspace(0.0, 1.0, 300)
        u = 0.5
        if bad.endswith("point"):
            u = np.nan if bad == "nan_point" else np.inf
        else:
            z[150] = np.nan if bad == "nan_sample" else np.inf
        calls = []
        fit = locfit.local_quad_fit

        def spy(*args):
            calls.append(args)
            return fit(*args)

        monkeypatch.setattr(locfit, "local_quad_fit", spy)
        with pytest.raises(SingularFitError, match="no admissible evaluation point"):
            relocated_fit(z, z, u, 0.1)
        assert len(calls) <= 1
