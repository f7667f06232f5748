"""Tests for the smoothing kernel: shape, normalization, moments, smoothness."""

import numpy as np
import pytest

from fsim.kernel import MAX_MOMENT, NORMALIZER, kernel_moment, smooth_kernel, transform_inplace


def test_peak_value_is_normalization_constant():
    assert smooth_kernel(0.0) == pytest.approx(315.0 / 256.0, abs=1e-15)


def test_support_boundary_is_zero():
    assert smooth_kernel(1.0) == 0.0
    assert smooth_kernel(-1.0) == 0.0
    assert smooth_kernel(1.7) == 0.0
    assert smooth_kernel(-42.0) == 0.0


def test_direct_formula_value():
    # (315/256) * (1 - 0.25)^4
    assert smooth_kernel(0.5) == pytest.approx(NORMALIZER * 0.75**4, abs=1e-15)


def test_kernel_is_the_unnormalized_transform_times_the_constant():
    # the Nadaraya-Watson sums take transform_inplace as it is; every other
    # weight is smooth_kernel, the same powers scaled once, bit for bit
    rng = np.random.default_rng(3)
    s = np.concatenate([rng.uniform(-1.0, 1.0, 500), rng.uniform(-40.0, 40.0, 500),
                        [0.0, -0.0, 1.0, -1.0, 1e-300, np.inf, -np.inf, np.nan]])
    got = smooth_kernel(s)
    assert got.tobytes() == (transform_inplace(s.copy()) * NORMALIZER).tobytes()
    # the scalar entry point gives the same bits
    for k in range(s.size - 8, s.size):
        assert np.float64(smooth_kernel(s[k])).tobytes() == got[k].tobytes()


def test_nonnegative_and_symmetric():
    s = np.linspace(-1.5, 1.5, 4001)
    values = smooth_kernel(s)
    assert np.all(values >= 0.0)
    np.testing.assert_array_equal(values, smooth_kernel(-s))


def test_integrates_to_one():
    s = np.linspace(-1.0, 1.0, 2_000_001)
    total = np.trapezoid(smooth_kernel(s), s)
    assert total == pytest.approx(1.0, abs=1e-10)


class TestMoments:
    def test_zeroth_moment_is_one(self):
        assert kernel_moment(0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("p", [1, 3, 5, 7])
    def test_odd_moments_vanish(self, p):
        assert kernel_moment(p) == 0.0

    @pytest.mark.parametrize("p", [2, 4, 6, 8])
    def test_even_moments_match_quadrature(self, p):
        s = np.linspace(-1.0, 1.0, 2_000_001)
        oracle = np.trapezoid(s**p * smooth_kernel(s), s)
        assert kernel_moment(p) == pytest.approx(oracle, abs=1e-10)

    def test_second_moment_frozen_value(self):
        # 1/11, computed by quadrature of s^2 (315/256)(1-s^2)^4 beforehand
        assert kernel_moment(2) == pytest.approx(0.09090909090909091, abs=1e-12)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            kernel_moment(MAX_MOMENT + 1)
        with pytest.raises(ValueError):
            kernel_moment(-1)


def test_third_derivative_continuous_at_boundary():
    # five-point stencil for f'''; the quadruple zero at |s|=1 keeps it
    # continuous there, unlike lower-power polynomial kernels
    step = 1e-3
    s = np.arange(0.9, 1.1, step)
    fd3 = (
        -smooth_kernel(s - 2 * step)
        + 2 * smooth_kernel(s - step)
        - 2 * smooth_kernel(s + step)
        + smooth_kernel(s + 2 * step)
    ) / (2 * step**3)
    jumps = np.abs(np.diff(fd3))
    # slope of K''' near the boundary is about 472, so adjacent samples may
    # differ by about 0.5; a discontinuity would show up as an O(1/step) spike
    assert jumps.max() < 1.0
    near_boundary = fd3[np.abs(s - 1.0) < 2.5 * step]
    assert np.all(np.abs(near_boundary) < 1.5)
