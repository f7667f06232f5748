"""Compactly supported smoothing kernel with three continuous derivatives.

:func:`transform_inplace`, the kernel without its constant, is the innermost
loop of every kernel sum over a tile.  Given a tile's points and samples it
forms each kernel argument samples[j] - points[i] and its weight in one
pass, so no caller writes the arguments out; :func:`smooth_kernel` passes
its arguments as samples against one zero point.  :func:`loo_sums` gives the
leave-one-out sums (sum w, sum w y) of every sample of a sorted index in one
call, each row summed over its own window in ascending order.  On writeable,
aligned, C-contiguous float64 arrays both run C loops, which the system C
compiler (``cc``) builds once into a per-user cache and ``ctypes`` loads
when this module is imported; ``COMPILED_LIBRARY`` is the path of the
library loaded, or ``None``.  Other arrays, and all arrays when no library
could be built, loaded or trusted, take their numpy forms, which the loops
reproduce bit for bit.  The choice depends only on what the loader finds and
on the arrays; no option selects it.
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
# The leave-one-out sums at LANES sorted rows at a time, one vector register
# of rows (8 with AVX-512, 4 with AVX2, 2 otherwise: a wider block than the
# registers ran 4-5 times slower).  Each block runs over the samples [lo, hi)
# that any of its rows reaches, lo ending the reach of its first row and hi
# that of its last, both found by comparing the difference the weight uses
# with -1 and 1.  Each lane adds its row's terms sample by sample, so a row's
# sums run in ascending sample order from +0; a sample outside the row's
# window weighs +0 and the row's own sample is masked to +0, so they add an
# exact +-0 and leave the sums as the row's own window gives them.  The
# select of the weight is the scalar one's: NaN is not below 0.
_LOO_SUMS = r"""
typedef double doubles_LANES __attribute__((vector_size(LANES * sizeof(double))));
typedef long long bits_LANES __attribute__((vector_size(LANES * sizeof(double))));

WIDTH_LANES static void loo_sums_LANES(double *den, double *num, const double *p,
                                       const double *y, size_t n)
{
    bits_LANES lane;
    for (size_t l = 0; l < LANES; l++)
        lane[l] = (long long)l;
    for (size_t i = 0, lo = 0, hi = 0; i < n; i += LANES) {
        size_t rows = n - i < LANES ? n - i : LANES, last = i + rows - 1;
        doubles_LANES at, sw = {0.0}, swy = {0.0};
        for (size_t l = 0; l < LANES; l++)
            at[l] = p[l < rows ? i + l : last];
        while (p[lo] - p[i] <= -1.0)
            lo++;
        if (hi <= last)
            hi = last + 1;
        while (hi < n && p[hi] - p[last] < 1.0)
            hi++;
        for (size_t j = lo; j < hi; j++) {
            doubles_LANES x = p[j] - at;
            x = 1.0 - x * x;
            x = (doubles_LANES)((bits_LANES)x & ~(x < 0.0));
            x = x * x;
            x = x * x;
            if (j - i < rows)
                x = (doubles_LANES)((bits_LANES)x & (lane != (long long)(j - i)));
            sw += x;
            swy += x * y[j];
        }
        for (size_t l = 0; l < rows; l++) {
            den[i + l] = sw[l];
            num[i + l] = swy[l];
        }
    }
}
"""
_SOURCE = _HEAD + "".join(_LOO_SUMS.replace("LANES", str(lanes)) for lanes in (8, 4, 2)) + r"""
void fsim_loo_sums(double *den, double *num, const double *p, const double *y, size_t n)
{
    switch (WIDEST) {
    case 8:
        loo_sums_8(den, num, p, y, n);
        break;
    case 4:
        loo_sums_4(den, num, p, y, n);
        break;
    default:
        loo_sums_2(den, num, p, y, n);
    }
}
"""
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
# a sorted index whose leave-one-out sums a library must give the numpy form's
# bits: ties, differences of exactly 1, within one rounding of 1 and
# subnormal, squares that overflow, differences that overflow, and 53 rows,
# a ragged last block at every width
_SORTED_PROBE = np.array(sorted([
    *np.linspace(-1.5, 1.5, 31).tolist(), 0.0, 0.0, -0.0, 0.5, 0.5, 1.5, -1.0, 1.0, 2.0,
    np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), np.nextafter(-1.0, 0.0), 5e-324, 1e-310,
    2e154, 2e154 + 1e138, 3e154, 1e200, -1e200, 1.7e308, -1.7e308, 1.6e308]))
_SORTED_PROBE_Y = np.array([-0.0 if k % 7 == 0 else (k * 5 % 11 - 5.0) / 3.0
                            for k in range(_SORTED_PROBE.size)])
# rows per tile of the numpy leave-one-out sums
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


def _numpy_loo_sums(p: np.ndarray, y: np.ndarray):
    """The leave-one-out sums of :func:`loo_sums` in numpy, bit for bit.

    Tiles of ``_TILE_ROWS`` sorted rows each take the run of samples their
    rows can reach, found by a reach widened by the rounding of p +- 1 so no
    in-window sample is cut; every other sample weighs +0 and adds an exact
    +-0, as does the row's own, zeroed.  A tile holds its terms sample-major,
    so ``np.add.reduce`` over samples, which numpy sums one sample after the
    other from ``initial`` off the fast axis (pairwise only along it), sums
    each row in the loop's order; ``np.add.accumulate`` gives the same bits
    about nine times slower.
    """
    sums = np.empty((2, p.size))
    if not p.size:
        return sums[0], sums[1]
    reach = 1.0 + 4.0 * np.finfo(float).eps * (2.0 + max(-p[0], p[-1]))
    # the last tile takes up to one row more: a tile of one row would make
    # the samples the fast axis
    starts = np.arange(0, max(p.size - 1, 1), _TILE_ROWS)
    stops = np.append(starts[1:], p.size)
    # a reach bound or a sum that overflows is an infinity, as in the loop
    with np.errstate(over="ignore"):
        lo = p.searchsorted(p[starts] - reach, side="left")
        hi = p.searchsorted(p[stops - 1] + reach, side="right")
        for a, b, c0, c1 in zip(starts.tolist(), stops.tolist(), lo.tolist(), hi.tolist()):
            # w[j, i] weighs p[a + i] - p[c0 + j], the exact negation of the
            # loop's difference, so the same weight
            w = _numpy_weights(np.empty((c1 - c0, b - a)), p[c0:c1], p[a:b])
            w[np.arange(a - c0, b - c0), np.arange(b - a)] = 0.0
            np.add.reduce(w * y[c0:c1, None], axis=0, out=sums[1, a:b], initial=0.0)
            np.add.reduce(w, axis=0, out=sums[0, a:b], initial=0.0)
    return sums[0], sums[1]


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
    """Compile the loop into ``path``; raise :class:`OSError` when that fails.

    The compiler writes a temporary name in the same directory, which then
    replaces ``path`` in one step, so a concurrent import never loads a
    half-written file.
    """
    import subprocess  # only a build needs it, and it would add 8 ms to every import

    compiler = shutil.which("cc")
    if compiler is None:
        raise FileNotFoundError("no C compiler cc on PATH")
    handle, partial = tempfile.mkstemp(suffix=".part", dir=os.path.dirname(path))
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


# A loop's pointer argument: from_buffer refuses a read-only or non-contiguous
# array, and on numpy 2.4 costs a third of what arr.ctypes.data does per call.
_pointer = ctypes.c_double.from_buffer


def _open(path: str):
    """``(weights, loo_sums)``, the two loops of the library at ``path``, once
    each has matched its numpy form on a probe."""
    library = ctypes.CDLL(path)
    weights, loo = library.fsim_kernel_weights, library.fsim_loo_sums
    double_p = ctypes.POINTER(ctypes.c_double)
    weights.argtypes = (double_p, double_p, double_p, ctypes.c_size_t, ctypes.c_size_t,
                        ctypes.c_size_t)
    loo.argtypes = (double_p, double_p, double_p, double_p, ctypes.c_size_t)
    weights.restype = loo.restype = None
    # three stacked tiles: every probe value against every one in its stack,
    # inf - inf, overflowing differences and exact cancellations included
    points, samples = _PROBE.reshape(3, -1).copy(), _PROBE[::-1].reshape(3, -1).copy()
    tiles = np.empty(points.shape + samples.shape[-1:])
    weights(_pointer(tiles), _pointer(points), _pointer(samples), *tiles.shape)
    if tiles.tobytes() != _numpy_weights(np.empty_like(tiles), points, samples).tobytes():
        raise OSError(f"{path} does not reproduce the numpy kernel transform")
    p, y = _SORTED_PROBE.copy(), _SORTED_PROBE_Y.copy()
    sums = np.empty((2, p.size))
    loo(_pointer(sums[0]), _pointer(sums[1]), _pointer(p), _pointer(y), p.size)
    if sums.tobytes() != np.stack(_numpy_loo_sums(p, y)).tobytes():
        raise OSError(f"{path} does not reproduce the numpy leave-one-out sums")
    return weights, loo


def _load():
    """``(weights, loo_sums, path)`` of the cached library, built first when
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


_weights, _loo_sums, COMPILED_LIBRARY = _load()
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


def loo_sums(p: np.ndarray, y: np.ndarray):
    """Leave-one-out kernel sums ``(den, num)`` at every point of a sorted index.

    ``p`` is finite and ascending, ``y`` holds finite responses of the same
    size.  For every row i, ``den[i]`` and ``num[i]`` sum the unnormalized
    weight w of p[j] - p[i], and w y[j], over the samples j != i of the
    row's window, the j with |p[j] - p[i]| < 1, in ascending order of j and
    from +0.  When a library is loaded, nonempty, writeable, aligned,
    C-contiguous float64 arrays go through its loop, which runs a vector
    register of rows at a time; anything else takes the numpy form, which
    gives the same bits.
    """
    if (_loo_sums is not None and p.size and p.shape == y.shape == (p.size,)
            and p.dtype == y.dtype == np.float64 and p.flags.carray and y.flags.carray):
        sums = np.empty((2, p.size))
        _loo_sums(_pointer(sums[0]), _pointer(sums[1]), _pointer(p), _pointer(y), p.size)
        return sums[0], sums[1]
    return _numpy_loo_sums(p, y)


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
    """Integral of s^p times the kernel over [-1, 1]; zero for odd p."""
    if p < 0 or p > MAX_MOMENT:
        raise ValueError(f"moment order must be in [0, {MAX_MOMENT}], got {p}")
    if p % 2 == 1:
        return 0.0
    # expand (1 - s^2)^4 and integrate term by term over [-1, 1]
    return 2.0 * NORMALIZER * sum(
        comb(4, k) * (-1) ** k / (p + 2 * k + 1) for k in range(5)
    )
