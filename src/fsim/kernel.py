"""Compactly supported smoothing kernel with three continuous derivatives.

:func:`transform_inplace`, the kernel without its constant, forms the
weights of a dense tile: given a tile's points and samples it forms each
kernel argument samples[j] - points[i] and its weight in one pass, so no
caller writes the arguments out; :func:`smooth_kernel` passes its arguments
as samples against one zero point.  :func:`window_sums` forms every other
kernel sum: for sorted points and samples it sums each point over its own
window in ascending sample order, in one call, giving the leave-one-out sums
(sum w, sum w y) of a sorted index or the local polynomial moments of points
against samples.  Its points, samples and responses are finite, as the entry
points of :mod:`fsim.locfit` check; the transform keeps its IEEE results
for any argument, NaN and the infinities included.  On writeable, aligned,
C-contiguous float64 arrays both run C loops, which the system C compiler
(``cc``) builds once into a per-user cache and ``ctypes`` loads when this
module is imported; ``COMPILED_LIBRARY`` is the path of the library loaded,
or ``None``.  Other arrays, and all arrays when no library could be built,
loaded or trusted, take their numpy forms, which the loops reproduce bit for
bit.  The choice depends only on what the loader finds and on the arrays; no
option selects it.
"""

import contextlib
import ctypes
import os
import platform
import shutil
import stat
import tempfile
import zlib
from math import comb

import numpy as np

from .basis import is_integer

# 1 / integral of (1 - s^2)^4 over [-1, 1]
NORMALIZER = 315.0 / 256.0
MAX_MOMENT = 8

# The numpy passes element by element: the same IEEE operations in the same
# order.  The select keeps NaN (and would keep -0.0) as np.maximum(x, 0.0)
# does.  fsim_kernel_weights forms each argument as the broadcast subtraction
# samples[j] - points[i] does, then its weight, in one pass over the tile.
# On x86-64 Linux the loader picks the widest clone the CPU runs.
_HEAD = r"""
#include <stddef.h>
#if defined(__x86_64__) && defined(__linux__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#define WIDTH_8 __attribute__((target("avx512f")))
#define WIDTH_4 __attribute__((target("avx2")))
#define WIDEST (__builtin_cpu_init(), __builtin_cpu_supports("avx512f") ? 8 \
                : __builtin_cpu_supports("avx2") ? 4 : 2)
#else
#define CLONES
#define WIDTH_8
#define WIDTH_4
#define WIDEST 2
#endif
#define WIDTH_2

static inline double weight(double x)
{
    x = 1.0 - x * x;
    x = x < 0.0 ? 0.0 : x;
    x = x * x;
    return x * x;
}

CLONES void fsim_kernel_weights(double *u, const double *points, const double *samples,
                                size_t batch, size_t rows, size_t columns)
{
    for (size_t b = 0; b < batch; b++, samples += columns)
        for (size_t i = 0; i < rows; i++, u += columns) {
            double point = *points++;
            for (size_t j = 0; j < columns; j++)
                u[j] = weight(samples[j] - point);
        }
}
"""
# The window sums of LANES sorted points at a time, one vector register of
# points (8 with AVX-512, 4 with AVX2, 2 otherwise: a wider block than the
# registers ran 4-5 times slower).  Each block runs over the samples [lo, hi)
# that any of its points reaches, lo ending the reach of its first point and
# hi that of its last, both found by comparing the argument the weight uses
# with -1 and 1.  Each lane adds its point's terms sample by sample, so a
# point's sums run in ascending sample order from +0; a sample outside the
# point's window weighs +0, its argument is zeroed before the powers, and the
# point's own sample in the leave-one-out sums is masked to +0, so with
# finite responses they add an exact +-0 and leave the sums as the point's
# own window gives them.  The select of the weight is the scalar one's: NaN
# is not below 0.  The moments take the argument (s - p) / h and weigh by
# the kernel with its constant, smooth_kernel's bits; the leave-one-out sums
# take s - p, as a division by the constant 1.0 folds away.  One body serves
# both kinds of sums: MOMENTS is replaced by a constant and the compiler
# drops the branches a kind does not take.
_WINDOW_SUMS = r"""
typedef double doubles_LANES __attribute__((vector_size(LANES * sizeof(double))));
typedef long long bits_LANES __attribute__((vector_size(LANES * sizeof(double))));

WIDTH_LANES static void NAME_LANES(double *sums, const double *p, size_t m, const double *s,
                                   const double *y, size_t n, double h)
{
    bits_LANES lane;
    for (size_t l = 0; l < LANES; l++)
        lane[l] = (long long)l;
    const double scale = MOMENTS ? h : 1.0;
    for (size_t i = 0, lo = 0, hi = 0; i < m; i += LANES) {
        size_t rows = m - i < LANES ? m - i : LANES, last = i + rows - 1;
        doubles_LANES at, sum[9] = {{0.0}};
        for (size_t l = 0; l < LANES; l++)
            at[l] = p[l < rows ? i + l : last];
        while (lo < n && (s[lo] - p[i]) / scale <= -1.0)
            lo++;
        if (hi < lo)
            hi = lo;
        while (hi < n && (s[hi] - p[last]) / scale < 1.0)
            hi++;
        for (size_t j = lo; j < hi; j++) {
            doubles_LANES x = (s[j] - at) / scale, w = 1.0 - x * x;
            w = (doubles_LANES)((bits_LANES)w & ~(w < 0.0));
            w = w * w;
            w = w * w;
            if (!MOMENTS && j - i < rows)
                w = (doubles_LANES)((bits_LANES)w & (lane != (long long)(j - i)));
            if (MOMENTS) {
                bits_LANES inside = (bits_LANES)(w != 0.0);
                w *= NORMALIZER;
                x = (doubles_LANES)((bits_LANES)x & inside);
                sum[8] -= __builtin_convertvector(inside, doubles_LANES);
            }
            for (int q = 0; q < (MOMENTS ? 5 : 1); q++, w *= x) {
                sum[q] += w;
                if (q < 3)
                    sum[MOMENTS ? 5 + q : 1] += w * y[j];
            }
        }
        for (size_t t = 0; t < (MOMENTS ? 9 : 2); t++)
            if (rows == LANES)
                __builtin_memcpy(sums + t * m + i, &sum[t], sizeof sum[t]);
            else
                for (size_t l = 0; l < rows; l++)
                    sums[t * m + i + l] = sum[t][l];
    }
}
"""
_WIDTHS = (8, 4, 2)
# the kinds of window sums, numbered in this order: a kind's number is its MOMENTS flag
_KINDS = ("loo", "moments")
_SOURCE = _HEAD + f"#define NORMALIZER {NORMALIZER!r}\n" + "".join(
    _WINDOW_SUMS.replace("NAME", kind).replace("MOMENTS", str(moments))
    .replace("LANES", str(lanes))
    for lanes in _WIDTHS for moments, kind in enumerate(_KINDS)) + r"""
typedef void window_sums(double *, const double *, size_t, const double *, const double *,
                         size_t, double);
static window_sums *const LOOPS[][3] = {%s};

/* the sums of batch problems, each of m points and n samples, one after the other */
void fsim_window_sums(int kind, double *sums, const double *p, size_t m, const double *s,
                      const double *y, size_t n, double h, size_t batch)
{
    int widest = WIDEST;
    window_sums *loop = LOOPS[kind][widest == 8 ? 0 : widest == 4 ? 1 : 2];
    size_t terms = kind ? 9 : 2;
    for (size_t b = 0; b < batch; b++)
        loop(sums + b * terms * m, p + b * m, m, s + b * n, y + b * n, n, h);
}
""" % ", ".join("{" + ", ".join(f"{kind}_{lanes}" for lanes in _WIDTHS) + "}" for kind in _KINDS)
# -ffp-contract=off: a fused multiply-add would round 1 - x*x once, not twice,
# and change the bits (GCC fuses by default in GNU C mode).  -O3 with
# -fno-trapping-math lets GCC vectorize the select; without them the loop is
# scalar and branchy, slower than numpy.  Never -ffast-math or -Ofast, whose
# libraries can switch on flush-to-zero for the whole process, and never
# -march=native, since the cached library can outlive the machine it was
# built on.
_FLAGS = ("-O3", "-fno-trapping-math", "-ffp-contract=off", "-fPIC", "-shared")
# points and samples whose weights a library must give the numpy forms' bits before it is used
_PROBE = np.concatenate([np.linspace(-1.1, 1.1, 45),
                         [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                          5e-324, 1e-300, 1e200, np.inf, -np.inf, np.nan]])
# a sorted index whose window sums of every kind a library must give the numpy
# form's bits: ties, differences of exactly 1, within one rounding of 1 and
# subnormal, squares that overflow, differences that overflow, and 53 points,
# a ragged last block at every width
_SORTED_PROBE = np.array(sorted([
    *np.linspace(-1.5, 1.5, 31).tolist(), 0.0, 0.0, -0.0, 0.5, 0.5, 1.5, -1.0, 1.0, 2.0,
    np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), np.nextafter(-1.0, 0.0), 5e-324, 1e-310,
    2e154, 2e154 + 1e138, 3e154, 1e200, -1e200, 1.7e308, -1.7e308, 1.6e308]))
_SORTED_PROBE_Y = np.array([-0.0 if k % 7 == 0 else (k * 5 % 11 - 5.0) / 3.0
                            for k in range(_SORTED_PROBE.size)])
# points per tile of the numpy window sums
_TILE_ROWS = 64


def _numpy_passes(u: np.ndarray) -> np.ndarray:
    """The kernel transform as five numpy passes over ``u``, in place.

    The fourth power runs as two squares because pow is far slower on large
    arrays.  An s^2 that overflows gives weight 0 without a warning, as in
    the compiled loop, which raises none.
    """
    with np.errstate(over="ignore"):
        np.multiply(u, u, out=u)
        np.subtract(1.0, u, out=u)
        np.maximum(u, 0.0, out=u)
        np.multiply(u, u, out=u)
        np.multiply(u, u, out=u)
    return u


def _numpy_weights(u: np.ndarray, points: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """The weights of the arguments ``samples[..., None, :] - points[..., :, None]``
    as a broadcast subtraction into ``u`` and the five passes.  A difference
    that overflows, or inf - inf, is the infinity or the NaN the compiled
    loop forms, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(samples[..., None, :], points[..., :, None], out=u)
    return _numpy_passes(u)


def _numpy_window_sums(points: np.ndarray, samples: np.ndarray, responses: np.ndarray,
                       h: float | None = None) -> np.ndarray:
    """The sums of :func:`window_sums` in numpy, bit for bit.

    A stack of problems is summed one problem after the other.  Tiles of
    ``_TILE_ROWS`` sorted points each take the run of samples their first and
    last points reach, found by the loop's own comparisons; a sample outside
    a point's window weighs +0 and adds an exact +-0, as does the point's own
    sample in the leave-one-out sums (no ``h``: the points are the samples),
    and so do their w y terms, since the responses are finite.  A tile holds
    its terms sample-major, so ``np.add.reduce`` over samples, which numpy
    sums one sample after the other from ``initial`` off the fast axis
    (pairwise only along it), sums each point in the loop's order;
    ``np.add.accumulate`` gives the same bits about nine times slower.  A
    tile of one point takes it twice, as one column would make the samples
    the fast axis.
    """
    def arguments(samples, points):
        x = np.subtract(samples, points)
        if h is not None:
            x /= h
        return x

    if points.ndim > 1:
        sums = np.empty(points.shape[:-1] + (2 if h is None else 9, points.shape[-1]))
        for b in np.ndindex(points.shape[:-1]):
            sums[b] = _numpy_window_sums(points[b], samples[b], responses[b], h)
        return sums
    sums = np.empty((2 if h is None else 9, points.size))
    # an argument, a square or a sum that overflows is an infinity, and a sum
    # of opposite infinities NaN, as in the loop, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, points.size, _TILE_ROWS):
            rows = np.arange(a, min(a + _TILE_ROWS, points.size))
            tile = rows if rows.size > 1 else rows.repeat(2)
            lo = np.count_nonzero(arguments(samples, points[tile[0]]) <= -1.0)
            hi = np.count_nonzero(arguments(samples, points[tile[-1]]) < 1.0)
            x = arguments(samples[lo:hi, None], points[tile])
            w = _numpy_passes(x if h is None else x.copy())
            powers = [w]
            if h is None:
                w[tile - lo, np.arange(tile.size)] = 0.0
            else:
                inside = w != 0.0
                w *= NORMALIZER
                x[~inside] = 0.0
                for _ in range(4):
                    powers.append(powers[-1] * x)
            terms = powers + [power * responses[lo:hi, None] for power in powers[:3]]
            if h is not None:
                terms.append(inside * 1.0)
            for row, term in zip(sums, terms):
                row[rows] = np.add.reduce(term, axis=0, initial=0.0)[:rows.size]
    return sums


def _cache_dir() -> str | None:
    """The first usable cache directory, made if missing, or ``None``.

    ``$XDG_CACHE_HOME/fsim`` (``~/.cache/fsim`` when that is unset), else
    ``<tempdir>/fsim-<uid>``.  A directory is usable when it is no link, this
    user owns it and its mode is 0700, so no other user can place a library
    in it.
    """
    if not hasattr(os, "getuid"):
        return None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    for directory in (os.path.join(base, "fsim"),
                      os.path.join(tempfile.gettempdir(), f"fsim-{os.getuid()}")):
        if not os.path.isabs(directory):
            continue
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            info = os.lstat(directory)
        except OSError:
            continue
        if (stat.S_ISDIR(info.st_mode) and info.st_uid == os.getuid()
                and stat.S_IMODE(info.st_mode) == 0o700):
            return directory
    return None


def _library_path(directory: str) -> str:
    """The library's path in ``directory``, named by a CRC-32 of source, flags
    and machine.  The directory is private, so the name only has to tell
    builds apart; hashlib would add milliseconds to every import."""
    key = "\0".join((_SOURCE, *_FLAGS, platform.system(), platform.machine()))
    return os.path.join(directory, f"transform-{zlib.crc32(key.encode()):08x}.so")


def _build(path: str) -> None:
    """Compile the loops into ``path``; raise :class:`OSError` when that fails.

    The compiler writes a temporary name in the same directory, which then
    replaces ``path`` in one step, so a concurrent import never loads a
    half-written file.  A successful build then removes the directory's
    other libraries, builds of other sources or flags, so the cache holds
    one.
    """
    import subprocess  # only a build needs it, and it would add 8 ms to every import

    compiler = shutil.which("cc")
    if compiler is None:
        raise FileNotFoundError("no C compiler cc on PATH")
    directory, name = os.path.split(path)
    handle, partial = tempfile.mkstemp(suffix=".part", dir=directory)
    os.close(handle)
    try:
        subprocess.run([compiler, *_FLAGS, "-o", partial, "-x", "c", "-"], input=_SOURCE.encode(),
                       capture_output=True, check=True, timeout=120)
        os.replace(partial, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{compiler} could not build {path}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)
    for other in os.listdir(directory):
        if other != name and other.startswith("transform-") and other.endswith(".so"):
            # a concurrent import may have removed it first
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(directory, other))


# A loop's pointer argument: from_buffer refuses a read-only or non-contiguous
# array, and on numpy 2.4 costs a third of what arr.ctypes.data does per call.
_pointer = ctypes.c_double.from_buffer


def _open(path: str):
    """``(weights, window)``, the two loops of the library at ``path``, once
    each has matched its numpy form on a probe, every kind of window sums
    included."""
    library = ctypes.CDLL(path)
    weights, window = library.fsim_kernel_weights, library.fsim_window_sums
    double_p = ctypes.POINTER(ctypes.c_double)
    weights.argtypes = (double_p, double_p, double_p, ctypes.c_size_t, ctypes.c_size_t,
                        ctypes.c_size_t)
    window.argtypes = (ctypes.c_int, double_p, double_p, ctypes.c_size_t, double_p, double_p,
                       ctypes.c_size_t, ctypes.c_double, ctypes.c_size_t)
    weights.restype = window.restype = None
    # three stacked tiles: every probe value against every one in its stack,
    # inf - inf, overflowing differences and exact cancellations included
    points, samples = _PROBE.reshape(3, -1).copy(), _PROBE[::-1].reshape(3, -1).copy()
    tiles = np.empty(points.shape + samples.shape[-1:])
    weights(_pointer(tiles), _pointer(points), _pointer(samples), *tiles.shape)
    if tiles.tobytes() != _numpy_weights(np.empty_like(tiles), points, samples).tobytes():
        raise OSError(f"{path} does not reproduce the numpy kernel transform")
    # the leave-one-out sums of a stack of the sorted probe and its half, and
    # the probe's moments (h = 0.75) at every third of its values
    s, y = _SORTED_PROBE.copy(), _SORTED_PROBE_Y.copy()
    third, stack = s[::3].copy(), np.stack([s, s / 2.0])
    cases = [(stack, stack, np.stack([y, -y]), None), (third, s, y, 0.75)]
    for kind, (p, samples, responses, h) in enumerate(cases):
        expected = _numpy_window_sums(p, samples, responses, h)
        sums = np.empty_like(expected)
        window(kind, _pointer(sums), _pointer(p), p.shape[-1], _pointer(samples),
               _pointer(responses), samples.shape[-1], 1.0 if h is None else h,
               p.size // p.shape[-1])
        if sums.tobytes() != expected.tobytes():
            raise OSError(f"{path} does not reproduce the numpy {_KINDS[kind]} window sums")
    return weights, window


def _load():
    """``(weights, window, path)`` of the cached library, built first when
    missing, or ``(None, None, None)`` when there is no usable cache
    directory or the build, the load or a probe fails."""
    directory = _cache_dir()
    if directory is None:
        return None, None, None
    path = _library_path(directory)
    try:
        if not os.path.exists(path):
            _build(path)
        return *_open(path), path
    except (OSError, AttributeError):
        return None, None, None


_weights, _window_sums, COMPILED_LIBRARY = _load()
# the one point smooth_kernel measures its arguments from: s - (+0) is s for
# every double, -0, the infinities and NaN included
_ORIGIN = np.zeros(1)


def transform_inplace(u: np.ndarray, points: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Overwrite ``u`` with the kernel weights (1 - s^2)^4 on |s| < 1, zero
    outside, without the constant ``NORMALIZER``, and return it.

    ``points`` and ``samples`` are float arrays of shapes (..., m) and
    (..., n) with the same leading axes; the arguments are
    ``samples[..., None, :] - points[..., :, None]``, and ``u`` of shape
    (..., m, n) receives their weights.  It must not share memory with
    either.

    :func:`smooth_kernel` scales the result; the Nadaraya-Watson sums take it
    as it is, since their ratio sum(w y) / sum(w) cancels the constant.  One
    function serves both so every caller forms bit-identical powers.  When a
    library is loaded, nonempty, writeable, aligned, C-contiguous float64
    arrays of at least one dimension go through its compiled loop, which
    forms each difference and its weight in one pass; anything else takes a
    broadcast subtraction and the numpy passes, which give the same bits,
    raise on a read-only ``u`` before writing to it, and keep the dtype of a
    float32 one.  Neither path warns: an s^2 that overflows gives weight 0,
    and inf - inf gives NaN.
    """
    if (_weights is not None and u.size and points.ndim and samples.ndim
            and u.shape == points.shape + samples.shape[-1:]
            and points.shape[:-1] == samples.shape[:-1]
            and u.dtype == points.dtype == samples.dtype == np.float64
            and u.flags.carray and points.flags.carray and samples.flags.carray):
        rows, columns = u.shape[-2:]
        _weights(_pointer(u), _pointer(points), _pointer(samples), u.size // (rows * columns),
                 rows, columns)
        return u
    return _numpy_weights(u, points, samples)


def window_sums(points: np.ndarray, samples: np.ndarray, responses: np.ndarray,
                h: float | None = None) -> np.ndarray:
    """Kernel sums of every sorted point over its own window of sorted samples.

    ``points`` (m,) and ``samples`` (n,) are finite and ascending, and
    ``responses`` holds the n samples' responses, also finite: the callers
    check both, and nothing here does.  Leading axes stack
    independent problems: ``points`` (..., m), ``samples`` and ``responses``
    (..., n) with the same leading axes give (..., K, m) sums, each problem's
    the sums it has alone, in one call.  Without ``h`` these are the
    leave-one-out sums, which take ``samples is points``: the argument of
    point i and sample j is samples[j] - points[i], and the (2, m) result
    holds, for every point, sum w and sum w y over the other samples of its
    window, those with an argument in (-1, 1); w is the kernel weight
    without ``NORMALIZER``.  With a bandwidth ``h`` the
    argument is s = (samples[j] - points[i]) / h and its weight w = K(s),
    formed as the pointwise local fit forms them, and the (9, m) result
    holds S_0 to S_4, T_0 to T_2 and the count of nonzero weights, with
    S_k = sum w s^k and T_k = sum w s^k y; each power of s multiplies the
    previous term.  Every sum runs in ascending sample order
    from +0, and a sample outside a point's window adds +0 to it.  When a
    library is loaded, nonempty, writeable,
    aligned, C-contiguous float64 arrays go through its loop, which runs a
    vector register of points at a time; anything else takes the numpy form,
    which gives the same bits.
    """
    if h is None and samples is not points:
        raise ValueError("the leave-one-out sums (no h) take the points as samples")
    if (_window_sums is not None and points.size and samples.size
            and points.ndim == samples.ndim and points.shape[:-1] == samples.shape[:-1]
            and samples.shape == responses.shape
            and points.dtype == samples.dtype == responses.dtype == np.float64
            and points.flags.carray and samples.flags.carray and responses.flags.carray):
        m = points.shape[-1]
        sums = np.empty(points.shape[:-1] + (2 if h is None else 9, m))
        _window_sums(h is not None, _pointer(sums), _pointer(points), m, _pointer(samples),
                     _pointer(responses), samples.shape[-1], 1.0 if h is None else h,
                     points.size // m)
        return sums
    return _numpy_window_sums(points, samples, responses, h)


def smooth_kernel(s):
    """Kernel (315/256)(1 - s^2)^4 on |s| < 1, zero outside.

    Nonnegative, symmetric, integrates to one.  The fourth power gives a
    quadruple zero at the support boundary, so the kernel is three times
    continuously differentiable on the whole line; lower-power polynomial
    kernels (biweight, triweight) are not.  The value is
    :func:`transform_inplace` of the samples ``s`` against one zero point,
    times ``NORMALIZER``, which is the five numpy passes over ``s`` times
    ``NORMALIZER``, bit for bit.
    """
    s = np.asarray(s, dtype=float)
    u = transform_inplace(np.empty((1, s.size)), _ORIGIN, s.ravel())
    u *= NORMALIZER
    return float(u[0, 0]) if s.ndim == 0 else u.reshape(s.shape)


def kernel_moment(p: int) -> float:
    """Integral of s^p times the kernel over [-1, 1]; zero for odd p.  The
    order is an integer from 0 to ``MAX_MOMENT``: a bool or a float, even an
    integer-valued one, is refused."""
    if not is_integer(p) or not 0 <= p <= MAX_MOMENT:
        raise ValueError(f"moment order must be an integer in [0, {MAX_MOMENT}], got {p!r}")
    if p % 2 == 1:
        return 0.0
    # expand (1 - s^2)^4 and integrate term by term over [-1, 1]
    return 2.0 * NORMALIZER * sum(
        comb(4, k) * (-1) ** k / (p + 2 * k + 1) for k in range(5)
    )
