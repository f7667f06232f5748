"""Tests for the smoothing kernel: shape, normalization, moments, smoothness, and
the compiled transform against the numpy passes it replaces."""

import json
import os
import pathlib
import shutil
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fsim import kernel
from fsim.kernel import MAX_MOMENT, NORMALIZER, kernel_moment, smooth_kernel, transform_inplace

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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
        # 2.5 and 1.5 once gave 0.0599 and 0.1448, True gave 0.0
        for order in (MAX_MOMENT + 1, -1, 2.5, 1.5, True, False, 2.0, np.float64(4.0), "2"):
            with pytest.raises(ValueError, match="moment order must be an integer"):
                kernel_moment(order)
        assert kernel_moment(np.int64(2)) == kernel_moment(2)


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


@pytest.fixture(scope="module")
def loops(tmp_path_factory):
    """The compiled loops ``(weights, window, step, loo)``, built
    afresh from the shipped source and flags."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler cc on PATH")
    path = kernel._library_path(str(tmp_path_factory.mktemp("kernel")))
    kernel._build(path)
    return kernel._open(path)


@pytest.fixture(scope="module")
def loop(loops):
    return loops[0]


def run_loop(loop, points, samples):
    """The loop's weights of ``samples - points``: one tile, or a stack of them."""
    u = np.empty(points.shape + samples.shape[-1:])
    pointer = kernel.ctypes.c_double.from_buffer
    loop(pointer(u), pointer(points), pointer(samples), u.size // (u.shape[-2] * u.shape[-1]),
         *u.shape[-2:])
    return u


EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
         np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0), 5e-324, -5e-324, 2.2e-308,
         1.3e154, 1.4e154, -1e200, 1.7976931348623157e308, np.inf, -np.inf, np.nan]
KERNEL_ARGUMENTS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(-1.5, 1.5),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
# points and samples of a tile: kernel arguments, values whose differences
# overflow, and a small set of values that meet each other (exact zeros)
TILE_VALUES = st.one_of(KERNEL_ARGUMENTS, st.sampled_from([1e200, -1e200, 0.25, -0.25]))


@st.composite
def tiles(draw):
    """``(points, samples)`` of one tile, (m,) and (n,), or of a stack, (B, m) and (B, n)."""
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    points = draw(arrays(np.float64, lead + (m,), elements=TILE_VALUES))
    samples = draw(arrays(np.float64, lead + (n,), elements=TILE_VALUES))
    return points, samples


def broadcast_weights(points, samples):
    """The weights of ``samples - points`` by broadcast subtraction and the
    five numpy passes."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = samples[..., None, :] - points[..., :, None]
    return kernel._numpy_passes(u)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.sampled_from([(), (1,), (9,), (3, 5), (70,)]),
              elements=KERNEL_ARGUMENTS),
       st.sampled_from(["array", "strided", "float32"]), st.booleans())
def test_kernel_is_the_unnormalized_transform_times_the_constant(s, form, compiled):
    # the Nadaraya-Watson sums take transform_inplace as it is; every other
    # weight is smooth_kernel, the same powers scaled once, bit for bit, on the
    # compiled path and the fallback
    if form == "strided" and s.ndim:
        s = np.repeat(s, 2, axis=-1)[..., ::2]
    elif form == "float32":
        with np.errstate(over="ignore"):
            s = s.astype(np.float32)
    expected = kernel._numpy_passes(np.array(s, dtype=float)) * NORMALIZER
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        if not compiled:
            patch.setattr(kernel, "_weights", None)
        warnings.simplefilter("error")
        got = smooth_kernel(s)
    assert type(got) is float if s.ndim == 0 else got.shape == s.shape
    assert np.float64(got).tobytes() == expected.tobytes()


class TestCompiledTransform:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 70), elements=KERNEL_ARGUMENTS))
    def test_loop_matches_the_numpy_passes_bit_for_bit(self, loop, values):
        # s - (+0) is s for every double, so one zero point turns the samples
        # themselves into weights, as smooth_kernel does
        got = run_loop(loop, np.zeros(1), values)[0]
        assert got.tobytes() == kernel._numpy_passes(values.copy()).tobytes()
        assert np.isnan(got[np.isnan(values)]).all()

    def test_edges_and_every_vector_tail(self, loop):
        rng = np.random.default_rng(11)
        values = np.concatenate([EDGES, rng.uniform(-1.2, 1.2, 1000)])
        for size in [*range(1, 40), values.size]:
            assert run_loop(loop, np.zeros(1), values[:size]).tobytes() == \
                kernel._numpy_passes(values[:size].copy()).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(tiles())
    def test_fused_weights_match_the_broadcast_and_passes(self, loop, tile):
        assert run_loop(loop, *tile).tobytes() == broadcast_weights(*tile).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(tiles(), st.sampled_from(["compiled", "strided", "float32", "numpy"]))
    def test_transform_of_a_tile_is_the_broadcast_and_passes(self, tile, path):
        # whichever path transform_inplace takes, compiled or fallback
        points, samples = tile
        expected = broadcast_weights(points, samples)
        u = np.empty(expected.shape)
        if path == "strided":
            points = np.repeat(points, 2, axis=-1)[..., ::2]
            samples = np.repeat(samples, 2, axis=-1)[..., ::2]
        elif path == "float32":
            u = np.empty(expected.shape, dtype=np.float32)
            with np.errstate(over="ignore"):  # 1e200 is infinite in float32
                points, samples = points.astype(np.float32), samples.astype(np.float32)
            expected = broadcast_weights(points, samples)
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            if path == "numpy":
                patch.setattr(kernel, "_weights", None)
            warnings.simplefilter("error")
            assert transform_inplace(u, points, samples) is u
        assert u.dtype == expected.dtype and u.tobytes() == expected.tobytes()

    def test_loaded_library_sits_in_a_private_directory(self):
        if kernel.COMPILED_LIBRARY is None:
            pytest.skip("the numpy passes run here")
        assert os.path.isfile(kernel.COMPILED_LIBRARY)
        info = os.lstat(os.path.dirname(kernel.COMPILED_LIBRARY))
        assert stat.S_IMODE(info.st_mode) == 0o700 and info.st_uid == os.getuid()


class TestDispatch:
    @pytest.fixture
    def calls(self, monkeypatch):
        """``(batch, rows, columns)`` of every tile the compiled loop receives,
        with a loop that records them and then runs the numpy form on the
        arrays themselves, passed in place of their pointers."""
        seen = []

        def recording(u, points, samples, batch, rows, columns):
            seen.append((batch, rows, columns))
            kernel._numpy_weights(u.reshape(batch, rows, columns), points.reshape(batch, rows),
                                  samples.reshape(batch, columns))

        monkeypatch.setattr(kernel, "_pointer", lambda array: array)
        monkeypatch.setattr(kernel, "_weights", recording)
        return seen

    def test_contiguous_float64_tiles_take_the_fused_loop(self, calls):
        points = np.linspace(-2.0, 2.0, 6).reshape(2, 3)
        samples = np.linspace(-1.0, 1.5, 8).reshape(2, 4)
        u = np.empty((2, 3, 4))
        assert transform_inplace(u, points, samples) is u
        first = u[0]
        assert transform_inplace(first, points[0], samples[0]) is first
        assert calls == [(2, 3, 4), (1, 3, 4)]
        assert u.tobytes() == broadcast_weights(points, samples).tobytes()

    def test_other_tiles_take_the_broadcast(self, calls):
        points, samples = np.linspace(-2.0, 2.0, 6), np.linspace(-1.0, 1.5, 8)
        for p, s, u in [(points[::2], samples, np.empty((3, 8))),
                        (points, samples[::2], np.empty((6, 4))),
                        (points.astype(np.float32), samples, np.empty((6, 8))),
                        (points, samples, np.empty((8, 6)).T),
                        (points, samples[None], np.empty((1, 6, 8))),
                        (points, samples, np.empty((0, 6, 8)))]:
            transform_inplace(u, p, s)
            if u.size:
                assert u.tobytes() == broadcast_weights(
                    p.astype(float), s.astype(float)).reshape(u.shape).tobytes()
        assert calls == []

    def test_contiguous_float64_takes_the_loop(self, calls):
        # smooth_kernel's arguments, 0-d, stacked, strided or float32, reach the
        # loop as the one row of a fresh tile against one zero point
        values = np.linspace(-2.0, 2.0, 12)
        for s in (0.5, values.reshape(3, 4), values[::2], values.astype(np.float32)):
            smooth_kernel(s)
        assert calls == [(1, 1, 1), (1, 1, 12), (1, 1, 6), (1, 1, 12)]

    def test_other_arrays_take_the_numpy_passes(self, calls):
        frozen = np.linspace(-2.0, 2.0, 12)
        frozen.flags.writeable = False
        assert smooth_kernel(frozen).tobytes() == smooth_kernel(frozen.copy()).tobytes()
        assert smooth_kernel(np.empty((0, 3))).shape == (0, 3)
        assert calls == [(1, 1, 12)]

    def test_read_only_array_raises_and_keeps_its_values(self, calls):
        # a read-only tile raises before anything is written
        points, samples = np.linspace(-2.0, 2.0, 6), np.linspace(-1.0, 1.5, 8)
        u = np.zeros((6, 8))
        u.flags.writeable = False
        with pytest.raises(ValueError):
            transform_inplace(u, points, samples)
        assert not u.any() and broadcast_weights(points, samples).any()
        assert calls == []


FINITE_EDGES = [value for value in EDGES if np.isfinite(value)] + [-1.7976931348623157e308]
SORTED_VALUES = st.one_of(st.sampled_from(FINITE_EDGES), st.floats(-3.0, 3.0),
                          st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
RESPONSES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-10.0, 10.0),
                      st.floats(allow_nan=False, allow_infinity=False))


def run_window(window, points, samples, y, h):
    """The loop's moments of one problem, called as :func:`kernel.window_sums` calls it."""
    sums = np.empty((9, points.size))
    pointer = kernel.ctypes.c_double.from_buffer
    window(pointer(sums), pointer(points), points.size, pointer(samples), pointer(y),
           samples.size, h)
    return sums


def run_loo(loo, points, y):
    """The library's leave-one-out estimates of a (B, n) stack and their
    excluded flags, each row taken in the order of its argsort, as
    :func:`kernel.loo_estimates` takes it."""
    return kernel._compiled_loo(points, np.argsort(points, axis=-1), y, loo)


def sequential_sums(points, samples, y, h=None):
    """Window sums written out one pair at a time: from +0, in ascending
    sample order, over |argument| < 1, the own sample left out without
    ``h``; the moments weigh by the kernel with its constant."""
    sums = np.zeros((2 if h is None else 9, points.size))
    for i in range(points.size):
        for j in range(samples.size):
            x = samples[j] - points[i] if h is None else (samples[j] - points[i]) / h
            w = kernel._numpy_passes(np.array([x]))[0] * (1.0 if h is None else NORMALIZER)
            if abs(x) >= 1.0 or (h is None and j == i):
                continue
            powers = [w]
            if h is not None:
                for _ in range(4):
                    powers.append(powers[-1] * x)
            sums[:, i] += powers + [power * y[j] for power in powers[:3]] + [1.0] * (h is not None)
    return sums


def sequential_loo(points, y):
    """The leave-one-out estimates and excluded flags of one index in any
    order: its :func:`sequential_sums` in the order of its argsort, divided
    and put back in sample order."""
    order = np.argsort(points)
    sums = sequential_sums(points[order], points[order], y[order])
    den, num = np.empty(points.size), np.empty(points.size)
    den[order], num[order] = sums
    return kernel.nw_ratio(den, num)


def assert_same_estimates(got, expected):
    """Estimates and excluded flags of the same bytes."""
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1].dtype == expected[1].dtype == bool
    assert got[1].tobytes() == expected[1].tobytes()


class TestCompiledLooSums:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 90).flatmap(lambda n: st.tuples(
        arrays(np.float64, n, elements=SORTED_VALUES), arrays(np.float64, n, elements=RESPONSES))))
    def test_loop_matches_the_numpy_form_bit_for_bit(self, loops, index):
        # ties, differences of exactly +-1 and within one rounding of it,
        # subnormal and overflowing differences and squares, signed zeros
        values, y = index
        p = np.sort(values)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = kernel._numpy_loo(p, y)
        assert_same_estimates(run_loo(loops[3], p, y), expected)

    def test_rows_sum_their_window_in_ascending_order(self, loops):
        # every block width and ragged tail: sequential sums from +0 over
        # |p[j] - p[i]| < 1, j != i, written out one pair at a time, and
        # their ratio, NaN and excluded where the window is empty
        rng = np.random.default_rng(5)
        for n in [*range(1, 20), 64, 65, 66, 129, 200]:
            p = np.sort(np.round(rng.normal(scale=1.5, size=n), 1))
            y = rng.normal(size=n)
            y[::3] = -0.0
            expected = [part[None] for part in sequential_loo(p, y)]
            assert_same_estimates(run_loo(loops[3], p[None], y), expected)
            assert_same_estimates(kernel._numpy_loo(p[None], y), expected)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 90), st.booleans(), st.data())
    def test_a_stack_is_each_problem_alone(self, loops, batch, n, shared, data):
        # each problem's estimates are those it has alone, byte for byte, in
        # the library's one call and in the numpy walk, whatever shares its
        # stack: unsorted rows, ragged last blocks and empty windows, with
        # shared or per-row responses
        stack = data.draw(arrays(np.float64, (batch, n), elements=SORTED_VALUES))
        y = data.draw(arrays(np.float64, n if shared else (batch, n), elements=RESPONSES))
        rows = [y] * batch if shared else list(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            walk = kernel._numpy_loo(stack, y)
            alone = [kernel._numpy_loo(p[None].copy(), r) for p, r in zip(stack, rows)]
        assert_same_estimates(walk, [np.concatenate(part) for part in zip(*alone)])
        assert_same_estimates(run_loo(loops[3], stack, y), walk)
        for b in range(batch):
            one = run_loo(loops[3], stack[b:b + 1].copy(), rows[b].copy())
            assert_same_estimates(one, alone[b])

    def test_a_library_with_other_sums_is_refused(self, tmp_path, monkeypatch):
        # a loop that keeps each row's own weight fails the load-time probe
        refuse_library(tmp_path, monkeypatch, ["if (!0 && j - i < rows)"], "if (0)",
                       "leave-one-out estimates")

    def test_other_arrays_take_the_numpy_form(self, monkeypatch):
        # strided, read-only and float32 arrays, and empty ones, never reach
        # a loop: the leave-one-out estimates and the moments
        seen = []
        monkeypatch.setattr(kernel, "_pointer", lambda array: array)
        monkeypatch.setattr(kernel, "_loo_estimates", lambda *args: seen.append("loo"))
        monkeypatch.setattr(kernel, "_window_sums", lambda *args: seen.append("moments"))
        p = np.linspace(-2.0, 2.0, 12)
        y = np.cos(p)
        frozen = p.copy()
        frozen.flags.writeable = False
        stack = np.stack([p, -p])
        frozen_stack = stack.copy()
        frozen_stack.flags.writeable = False
        for points, responses in [(stack[:, ::2], y[::2]), (stack, y[::-1]), (frozen_stack, y),
                                  (stack.astype(np.float32), y), (stack, y.astype(np.float32)),
                                  (stack[:0], y)]:
            assert_same_estimates(kernel.loo_estimates(points, responses),
                                  kernel._numpy_loo(points, responses))
        for args in [(p[::2], p, y), (p, p[::2], y[::2]), (frozen, p, y), (p, frozen, y),
                     (p, p, y.astype(np.float32)), (p[:0], p, y), (p, p[:0], y[:0])]:
            assert (kernel.window_sums(*args, 0.5).tobytes()
                    == kernel._numpy_window_sums(*args, 0.5).tobytes())
        assert seen == []
        kernel.loo_estimates(stack, y)
        kernel.window_sums(p[:5].copy(), p, y, 0.5)
        assert seen == ["loo", "moments"]


def refuse_library(tmp_path, monkeypatch, lines, replacement, job):
    """Build the shipped source with each of ``lines`` replaced and check that
    the load-time probe refuses the library for its numpy ``job``."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler cc on PATH")
    source = kernel._SOURCE
    for line in lines:
        assert line in source
        source = source.replace(line, replacement)
    monkeypatch.setattr(kernel, "_SOURCE", source)
    path = kernel._library_path(str(tmp_path))
    kernel._build(path)
    with pytest.raises(OSError, match=f"numpy {job}"):
        kernel._open(path)


SAMPLED_H = st.one_of(st.sampled_from([1.0, 0.5, 3.0, 1e-300, 1e300, 5e-324]),
                      st.floats(1e-3, 1e3))


@st.composite
def windows(draw):
    """Sorted points and samples (up to 40 and 90), the samples' responses
    and a bandwidth: the values of the leave-one-out index."""
    n = draw(st.integers(0, 90))
    samples = np.sort(draw(arrays(np.float64, n, elements=SORTED_VALUES)))
    pick = draw(st.booleans()) and n
    if pick:
        points = samples[draw(arrays(np.intp, draw(st.integers(1, 40)),
                                     elements=st.integers(0, n - 1)))]
    else:
        points = draw(arrays(np.float64, draw(st.integers(0, 40)), elements=SORTED_VALUES))
    y = draw(arrays(np.float64, n, elements=RESPONSES))
    return np.sort(points), samples, y, draw(SAMPLED_H)


class TestCompiledWindowSums:
    @settings(max_examples=300, deadline=None)
    @given(windows())
    def test_loop_matches_the_numpy_form_bit_for_bit(self, loops, window):
        # moments of points against other samples: ties, points at samples,
        # arguments of exactly +-1 and within one rounding of it, subnormal
        # arguments, and arguments and squares that overflow
        points, samples, y, h = window
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = kernel._numpy_window_sums(points, samples, y, h)
        if points.size and samples.size:
            assert run_window(loops[1], points, samples, y, h).tobytes() == expected.tobytes()
        assert kernel.window_sums(points, samples, y, h).tobytes() == expected.tobytes()

    def test_points_sum_their_window_in_ascending_order(self, loops):
        rng = np.random.default_rng(6)
        for m, n in [(1, 1), (1, 50), (2, 50), (3, 7), (17, 40), (64, 100), (65, 130), (129, 200)]:
            samples = np.sort(np.round(rng.normal(scale=1.5, size=n), 1))
            points = np.sort(np.concatenate([rng.choice(samples, m - m // 2),
                                             rng.normal(scale=2.0, size=m // 2)]))
            y = rng.normal(size=n)
            y[::3] = -0.0
            for h in (0.3, 1.0, 2.5):
                expected = sequential_sums(points, samples, y, h).tobytes()
                assert run_window(loops[1], points, samples, y, h).tobytes() == expected
                assert kernel._numpy_window_sums(points, samples, y, h).tobytes() == expected

    def test_moments_count_the_nonzero_weights_of_the_pointwise_fit(self, loops):
        # the argument is (z - u) / h, as the pointwise fit forms it, so the
        # window is the pointwise one where z / h - u / h rounds across its edge
        for z, u, h in [(0.4702734042712358, -0.4638766728140493, 0.9341500770852852),
                        (-1.0502013799081846, -0.08498784700926532, 0.9652135328989193)]:
            pointwise = np.count_nonzero(smooth_kernel((z - u) / h))
            assert pointwise != np.count_nonzero(smooth_kernel(z / h - u / h))
            sums = run_window(loops[1], np.array([u]), np.array([z]), np.ones(1), h)
            assert sums[8].tolist() == [pointwise]

    def test_a_library_with_other_moments_is_refused(self, tmp_path, monkeypatch):
        # powers that take the argument of a sample outside the window turn an
        # overflowing argument into NaN and fail the load-time probe
        lines = [f"x = (doubles_{lanes})((bits_{lanes})x & inside);" for lanes in kernel._WIDTHS]
        refuse_library(tmp_path, monkeypatch, lines, "", "moments window sums")


@pytest.mark.parametrize("compiled", [True, False])
def test_neither_path_warns(monkeypatch, compiled):
    # an s^2 that overflows is weight 0 on both paths, without a warning
    # and so is a difference that overflows; inf - inf is NaN, also silently
    if not compiled:
        monkeypatch.setattr(kernel, "_weights", None)
    elif kernel.COMPILED_LIBRARY is None:
        pytest.skip("the numpy passes run here")
    s = np.array([1.4e154, -1e200, 1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.5])
    points = np.array([-1.7976931348623157e308, np.inf, 0.0])
    samples = np.array([1.7976931348623157e308, np.inf, 0.5])
    tile = np.empty((3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = smooth_kernel(s)
        transform_inplace(tile, points, samples)
        np.ones(3) * 2.0  # no floating-point flag of the loop leaks into later numpy calls
    assert u[:5].tolist() == [0.0] * 5
    assert np.isnan(u[5]) and u[6] == NORMALIZER * 0.75**4
    assert np.isnan(tile[1, 1]) and tile[2, 2] == 0.75**4
    assert np.delete(tile.ravel(), [4, 8]).tolist() == [0.0] * 7


# prints which transform ran and a hash of the leave-one-out sums (dense,
# walked and stacked), of held-out predictions (dense and walked), of a
# curve grid and of a lockstep of Nelder-Mead searches on a quantized
# stand-in objective; a fresh process runs the loader as shipped
PROBE_SCRIPT = """
import hashlib, json
import numpy as np
from fsim import kernel, locfit, optimize
rng = np.random.default_rng(7)
z = rng.standard_normal(400)
y = np.sin(z) + 0.1 * rng.standard_normal(400)
at = np.linspace(-3.0, 3.0, 300)
parts = [*locfit.nw_loo_all(z[:100], y[:100], 0.4), *locfit.nw_loo_all(z, y, 0.3),
         *locfit.nw_loo_all(z.reshape(20, 20), y.reshape(20, 20), np.linspace(0.2, 1.0, 20)),
         *locfit.nw_loo_all(z.reshape(4, 100), y[:100], np.linspace(0.2, 1.0, 4)),
         *locfit.nw_predict(z[:100], y[:100], at[:50], 0.4), *locfit.nw_predict(z, y, at, 0.2),
         locfit.curve_estimates(z, y, np.linspace(-2.0, 2.0, 41), 0.5, derivative=2)]
searches = optimize._nelder_mead(
    lambda which, points: np.floor(((points - 0.1 * which[:, None]) ** 2).sum(axis=1) * 64.0),
    z[:40].reshape(8, 5), 300)
parts += [np.array(part) for search in searches for part in search]
digest = hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest()
print(json.dumps({"library": kernel.COMPILED_LIBRARY, "digest": digest}))
"""


def fresh_import(tmp_path, path_dirs):
    """Run the probe script in a new process with ``PATH`` set to ``path_dirs``
    and the cache and temporary directories under ``tmp_path``."""
    scratch = tmp_path / "tmp"
    scratch.mkdir(exist_ok=True)
    env = dict(os.environ, PATH=os.pathsep.join(str(p) for p in path_dirs),
               XDG_CACHE_HOME=str(tmp_path / "cache"), TMPDIR=str(scratch), PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def fake_compiler(directory, marker):
    """A ``cc`` on ``directory`` that records its call in ``marker`` and fails."""
    directory.mkdir()
    script = directory / "cc"
    script.write_text(f"#!/bin/sh\n: > '{marker}'\nexit 1\n")
    script.chmod(0o755)
    return directory


@pytest.fixture(scope="module")
def numpy_digest(tmp_path_factory):
    """The probe's digest with no compiler on PATH: the numpy passes."""
    root = tmp_path_factory.mktemp("numpy")
    empty = root / "bin"
    empty.mkdir()
    result = fresh_import(root, [empty])
    assert result["library"] is None
    return result["digest"]


class TestLoader:
    def test_compiled_sums_match_the_numpy_passes(self, tmp_path, numpy_digest):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH")
        result = fresh_import(tmp_path, os.environ["PATH"].split(os.pathsep))
        assert result["library"] is not None
        assert result["library"].startswith(str(tmp_path / "cache" / "fsim"))
        assert result["digest"] == numpy_digest

    def test_failing_build_falls_back(self, tmp_path, numpy_digest):
        marker = tmp_path / "called"
        result = fresh_import(tmp_path, [fake_compiler(tmp_path / "bin", marker)])
        assert marker.exists()
        assert result == {"library": None, "digest": numpy_digest}
        assert not [p for p in (tmp_path / "cache" / "fsim").iterdir()]

    def test_unusable_cache_falls_back(self, tmp_path, numpy_digest):
        # mode 0500 (unwritable), or a file where the directory should be
        cache = tmp_path / "cache"
        (cache / "fsim").mkdir(parents=True)
        (cache / "fsim").chmod(0o500)
        (tmp_path / "tmp").mkdir()
        (tmp_path / "tmp" / f"fsim-{os.getuid()}").write_text("")
        result = fresh_import(tmp_path, os.environ["PATH"].split(os.pathsep))
        assert result == {"library": None, "digest": numpy_digest}

    @pytest.mark.parametrize("line, replacement, half", [
        # NaN no longer sorts last in a simplex
        ("return a < b || (b != b && a == a);", "return a < b;", "Nelder-Mead step"),
        # the step gives out each vertex's predecessor in its place
        ("simplex + (s * (dim + 1) + v) * dim", "simplex + (s * (dim + 1) + v - 1) * dim",
         "Nelder-Mead step"),
        # the responses stay in sample order while their samples are sorted
        ("sorted_y[j] = y[order[j]];", "sorted_y[j] = y[j];", "leave-one-out estimates"),
    ])
    def test_a_library_failing_a_new_probe_half_is_used_for_nothing(
            self, tmp_path, monkeypatch, numpy_digest, line, replacement, half):
        # the faulty library sits under the shipped source's name, so the
        # fresh import loads it without a build and refuses every loop of it
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH")
        cache = tmp_path / "cache" / "fsim"
        cache.mkdir(parents=True)
        cache.chmod(0o700)
        path = kernel._library_path(str(cache))
        assert line in kernel._SOURCE
        monkeypatch.setattr(kernel, "_SOURCE", kernel._SOURCE.replace(line, replacement))
        kernel._build(path)
        with pytest.raises(OSError, match=f"numpy {half}"):
            kernel._open(path)
        result = fresh_import(tmp_path, os.environ["PATH"].split(os.pathsep))
        assert result == {"library": None, "digest": numpy_digest}

    def test_second_load_reuses_the_cache(self, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH")
        first = fresh_import(tmp_path, os.environ["PATH"].split(os.pathsep))
        assert first["library"] is not None
        marker = tmp_path / "called"
        second = fresh_import(tmp_path, [fake_compiler(tmp_path / "bin", marker)])
        assert second == first
        assert not marker.exists()

    def test_a_build_removes_the_other_libraries(self, tmp_path, monkeypatch):
        # libraries of older sources or flags go, other files stay, and a
        # library a concurrent import removed first is no error
        if shutil.which("cc") is None:
            pytest.skip("no C compiler cc on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        directory = pathlib.Path(kernel._cache_dir())
        for name in ("transform-869277a1.so", "transform-d1aacf73.so", "notes.txt"):
            (directory / name).write_text("")
        path = kernel._library_path(str(directory))
        kernel._build(path)
        assert sorted(os.listdir(directory)) == sorted(["notes.txt", os.path.basename(path)])
        listdir = os.listdir
        monkeypatch.setattr(kernel.os, "listdir", lambda d: [*listdir(d), "transform-0.so"])
        kernel._build(path)
        assert sorted(listdir(directory)) == sorted(["notes.txt", os.path.basename(path)])

    def test_private_directory_of_the_temporary_root(self, tmp_path, monkeypatch):
        # with the user cache unusable the library lives in <tempdir>/fsim-<uid>
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        monkeypatch.setattr(kernel.tempfile, "tempdir", str(tmp_path))
        directory = kernel._cache_dir()
        assert directory == str(tmp_path / f"fsim-{os.getuid()}")
        assert stat.S_IMODE(os.lstat(directory).st_mode) == 0o700
