"""Compactly supported smoothing kernel with three continuous derivatives,
and the compiled library behind the estimator's inner loops.

:func:`transform_inplace`, the kernel without its constant, forms the
weights of a dense tile: given a tile's points and samples it forms each
kernel argument samples[j] - points[i] and its weight in one pass, so no
caller writes the arguments out; :func:`smooth_kernel` passes its arguments
as samples against one zero point.  :func:`window_sums` forms every other
kernel sum: for sorted points and samples it sums each point over its own
window in ascending sample order, in one call, giving the leave-one-out sums
(sum w, sum w y) of a sorted index or the local polynomial moments of points
against samples.  :func:`loo_estimates` takes a whole stack of leave-one-out
problems in one call: it sorts each, sums it in the leave-one-out loop and
writes the estimates back in sample order.  :class:`SimplexLockstep` holds
a lockstep of Nelder-Mead searches as arrays, and each of its steps packs
the pending points and advances every search in one call each.  Points,
samples and responses are finite, as the entry points of :mod:`fsim.locfit`
check; the transform keeps its IEEE results for any argument, NaN and the
infinities included.  On writeable, aligned, C-contiguous float64 arrays
these run C loops, which the system C compiler (``cc``) builds once into a
per-user cache and ``ctypes`` loads when this module is imported;
``COMPILED_LIBRARY`` is the path of the library loaded, or ``None``.  Other
arrays, and all arrays when no library could be built, loaded or trusted,
take their numpy forms, which the loops reproduce bit for bit, and a library
is trusted only once every loop has matched its numpy form on a probe.  The
choice depends only on what the loader finds and on the arrays; no option
selects it.
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

static window_sums *widest_loop(int kind)
{
    int widest = WIDEST;
    return LOOPS[kind][widest == 8 ? 0 : widest == 4 ? 1 : 2];
}

/* the sums of batch problems, each of m points and n samples, one after the other */
void fsim_window_sums(int kind, double *sums, const double *p, size_t m, const double *s,
                      const double *y, size_t n, double h, size_t batch)
{
    window_sums *loop = widest_loop(kind);
    size_t terms = kind ? 9 : 2;
    for (size_t b = 0; b < batch; b++)
        loop(sums + b * terms * m, p + b * m, m, s + b * n, y + b * n, n, h);
}

/* the leave-one-out estimates of batch problems of n samples, one after the
   other: each gathered by its order (its argsort) into work, summed by the
   leave-one-out loop, and written back in sample order, NaN and excluded
   where the window holds no other sample; y advances y_stride per problem */
void fsim_loo_estimates(double *estimates, _Bool *excluded, const double *points,
                        const ptrdiff_t *order, const double *y, size_t y_stride, size_t n,
                        size_t batch, double *work)
{
    window_sums *loop = widest_loop(0);
    double *p = work, *sorted_y = work + n, *sums = work + 2 * n;
    for (size_t b = 0; b < batch; b++, points += n, order += n, y += y_stride,
         estimates += n, excluded += n) {
        for (size_t j = 0; j < n; j++) {
            p[j] = points[order[j]];
            sorted_y[j] = y[order[j]];
        }
        loop(sums, p, n, p, sorted_y, n, 1.0);
        for (size_t j = 0; j < n; j++) {
            double den = sums[j];
            excluded[order[j]] = den == 0.0;
            estimates[order[j]] = den == 0.0 ? __builtin_nan("") : sums[n + j] / den;
        }
    }
}
""" % ", ".join("{" + ", ".join(f"{kind}_{lanes}" for lanes in _WIDTHS) + "}" for kind in _KINDS)
# The Nelder-Mead step of SimplexLockstep, the numpy forms' operations search
# by search in the same order: every branch's update, the stable sort of a
# simplex with NaN last (an insertion sort), and numpy's sum over the vertex
# axis for the centroid, which starts from +0 and adds one vertex after the
# other.  The centroid uses vertices 0 to dim - 1 and dim >= 1.
_SIMPLEX_STEP = r"""

/* the count of pending points, and unless which is NULL the points and their
   searches, in the order of _numpy_pack */
size_t fsim_simplex_pack(ptrdiff_t *which, double *points, const double *simplex,
                         const double *trial, const long long *phase, size_t count, size_t dim)
{
    size_t k = 0, bytes = dim * sizeof(double);
    for (size_t s = 0; s < count; s++)
        if (phase[s] == INIT || phase[s] == SHRINK)
            for (size_t v = 1; v <= dim; v++, k++)
                if (which) {
                    which[k] = (ptrdiff_t)s;
                    __builtin_memcpy(points + k * dim, simplex + (s * (dim + 1) + v) * dim,
                                     bytes);
                }
    for (size_t s = 0; s < count; s++)
        if (phase[s] == REFLECT || phase[s] == EXPAND || phase[s] == CONTRACT) {
            if (which) {
                which[k] = (ptrdiff_t)s;
                __builtin_memcpy(points + k * dim, trial + s * dim, bytes);
            }
            k++;
        }
    return k;
}

/* a sorts before b in numpy's stable sort, which puts NaN last */
static int before(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* _numpy_advance: the searches sorted go to ready, and their count is returned */
size_t fsim_simplex_advance(ptrdiff_t *ready, double *simplex, double *values,
                            double *vectors, double *f_reflected, long long *counters,
                            const double *got, size_t count, size_t dim, long long max_evals,
                            double tol)
{
    double *centroid = vectors, *trial = vectors + count * dim, *reflected = trial + count * dim;
    long long *phase = counters, *evals = phase + count, *iterations = evals + count,
              *converged = iterations + count;
    size_t bytes = dim * sizeof(double), many = 0, sorted = 0;
    double row[dim];
    for (size_t s = 0; s < count; s++)
        many += phase[s] == INIT || phase[s] == SHRINK;
    const double *f_many = got, *f_one = got + many * dim;
    for (size_t s = 0; s < count; s++) {
        double *x = simplex + s * (dim + 1) * dim, *v = values + s * (dim + 1);
        double *worst = x + dim * dim, *c = centroid + s * dim, *t = trial + s * dim;
        long long was = phase[s];
        if (was == DONE)
            continue;
        if (was == INIT || was == SHRINK) {
            for (size_t j = 1; j <= dim; j++)
                v[j] = *f_many++;
            evals[s] += dim;
        } else {
            double f = *f_one++;
            evals[s]++;
            if (was == REFLECT && f < v[0]) {
                __builtin_memcpy(reflected + s * dim, t, bytes);
                f_reflected[s] = f;
                for (size_t i = 0; i < dim; i++)
                    t[i] = c[i] + EXPAND_BY * (c[i] - worst[i]);
                phase[s] = EXPAND;
            } else if (was == REFLECT && !(f < v[dim - 1])) {
                for (size_t i = 0; i < dim; i++)
                    t[i] = c[i] + CONTRACT_BY * (worst[i] - c[i]);
                phase[s] = CONTRACT;
            } else if (was == CONTRACT && !(f < v[dim])) {
                for (size_t j = 1; j <= dim; j++)
                    for (size_t i = 0; i < dim; i++)
                        x[j * dim + i] = x[i] + SHRINK_BY * (x[j * dim + i] - x[i]);
                phase[s] = SHRINK;
            } else if (was == EXPAND && !(f < f_reflected[s])) {
                __builtin_memcpy(worst, reflected + s * dim, bytes);
                v[dim] = f_reflected[s];
            } else {
                /* a reflected point kept, an expanded point better than its
                   reflection, or a contracted point accepted */
                __builtin_memcpy(worst, t, bytes);
                v[dim] = f;
            }
            if (phase[s] != was)
                continue;
        }
        for (size_t j = 1; j <= dim; j++) {
            double key = v[j];
            size_t at = j;
            while (at > 0 && before(key, v[at - 1]))
                at--;
            if (at == j)
                continue;
            __builtin_memcpy(row, x + j * dim, bytes);
            __builtin_memmove(x + (at + 1) * dim, x + at * dim, (j - at) * bytes);
            __builtin_memmove(v + at + 1, v + at, (j - at) * sizeof(double));
            __builtin_memcpy(x + at * dim, row, bytes);
            v[at] = key;
        }
        ready[sorted++] = (ptrdiff_t)s;
        double spread = v[dim] - v[0];
        int settled = __builtin_isfinite(spread) && spread < tol;
        converged[s] = settled;
        if (settled || evals[s] >= max_evals) {
            phase[s] = DONE;
            continue;
        }
        iterations[s]++;
        for (size_t i = 0; i < dim; i++) {
            double sum = 0.0;
            for (size_t j = 0; j < dim; j++)
                sum += x[j * dim + i];
            c[i] = sum / (double)dim;
            t[i] = c[i] + REFLECT_BY * (c[i] - worst[i]);
        }
        phase[s] = REFLECT;
    }
    return sorted;
}
"""
# what the pending points of a search are, numbered in this order; DONE has none
_PHASES = ("INIT", "REFLECT", "EXPAND", "CONTRACT", "SHRINK", "DONE")
INIT, REFLECT, EXPAND, CONTRACT, SHRINK, DONE = range(len(_PHASES))
# the step's coefficients of reflection, expansion, contraction and shrink
_COEFFICIENTS = {"REFLECT_BY": 1.0, "EXPAND_BY": 2.0, "CONTRACT_BY": 0.5, "SHRINK_BY": 0.5}
_SOURCE += "".join([f"enum {{ {', '.join(_PHASES)} }};\n",
                    *(f"#define {name} {value!r}\n" for name, value in _COEFFICIENTS.items()),
                    _SIMPLEX_STEP])
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
# a lockstep of ten searches of dimension 3 in every phase, on vertices whose
# sums round differently in another order, and values of their pending
# points that send them down every branch of the step: NaN, inf, ties and
# -0, a search that converges and one that spends its budget
_STEP_PROBE_PHASES = [INIT, SHRINK, REFLECT, REFLECT, REFLECT, EXPAND, EXPAND, CONTRACT,
                      CONTRACT, DONE]
_STEP_PROBE_SIMPLEX = np.sin(np.arange(120.0)).reshape(10, 4, 3)
_STEP_PROBE_VALUES = np.array([[1.0, np.inf, np.inf, np.inf], [0.0, 7.0, 7.0, 7.0]]
                              + [[1.0, 2.0, 3.0, 4.0]] * 8)
_STEP_PROBE_GOT = np.array([np.nan, 0.5, 0.5, 0.0, -0.0, 0.0, 0.5, 1.5, 3.0, 0.25, 0.5, 2.5,
                            np.inf])
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


class SimplexLockstep:
    """The array state of S Nelder-Mead searches of dimension dim, one row per
    search, and its step.

    ``simplex`` (S, dim + 1, dim) holds each search's vertices and
    ``values`` (S, dim + 1) their objective values; ``phase`` says what a
    search's pending points are (``INIT`` and ``SHRINK``: vertices 1 to
    dim; ``REFLECT``, ``EXPAND`` and ``CONTRACT``: its ``trial`` point;
    ``DONE``: none).  ``centroid``, ``trial`` and ``reflected`` share one
    (3, S, dim) block; ``reflected`` and ``f_reflected`` hold the reflected
    point and its value while a search expands.  The counters ``phase``,
    ``evals`` (from 1, the start's evaluation), ``iterations`` and
    ``converged`` share one (4, S) int64 block.  The lockstep updates
    ``simplex`` and ``values`` in place when they are C-ordered float64
    arrays, and copies of them otherwise.  A step is :meth:`pack`, one objective call on
    its points, and :meth:`advance` with their values; a search stops when
    its simplex's value spread is below ``tol`` or it has spent
    ``max_evals``.  With the library loaded each of the two is one C call,
    the operations of its numpy form (:func:`_numpy_pack`,
    :func:`_numpy_advance`) search by search in the same order, so either
    gives the same bits.
    """

    def __init__(self, simplex, values, phase, max_evals: int, tol: float):
        count, _, dim = simplex.shape
        self.simplex = np.ascontiguousarray(simplex, dtype=np.float64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.vectors = np.empty((3, count, dim))
        self.centroid, self.trial, self.reflected = self.vectors
        self.f_reflected = np.empty(count)
        self.counters = np.zeros((4, count), dtype=np.int64)
        self.phase, self.evals, self.iterations, self.converged = self.counters
        self.phase[:] = phase
        self.evals[:] = 1
        self.max_evals, self.tol = max_evals, tol
        # the library's pointers to the state, made once: simplex, values,
        # vectors, f_reflected, trial, counters and phase
        self._pointers = (*map(_pointer, (self.simplex, self.values, self.vectors,
                                          self.f_reflected, self.trial)),
                          _integers(self.counters), _integers(self.phase))

    def pack(self) -> tuple[np.ndarray, np.ndarray]:
        """``(which, points)``: the pending points of every live search and the
        search of each, first the vertices 1 to dim of each search in INIT or
        SHRINK, in search order, then the trial point of each other live
        search; both empty once every search is done."""
        if _simplex_step is None:
            return _numpy_pack(self)
        return _compiled_pack(self, _simplex_step[0])

    def advance(self, got) -> np.ndarray:
        """Apply each search's branch to the values ``got`` of the points of
        the last :meth:`pack`; return the searches whose simplex was complete
        again and is now sorted."""
        if _simplex_step is None:
            return _numpy_advance(self, got)
        return _compiled_advance(self, got, _simplex_step[1])


def _numpy_pack(lockstep: SimplexLockstep):
    """:meth:`SimplexLockstep.pack` in numpy."""
    phase, dim = lockstep.phase, lockstep.simplex.shape[-1]
    live = np.flatnonzero(phase != DONE)
    live_phase = phase[live]
    many = live[(live_phase == INIT) | (live_phase == SHRINK)]
    one = live[(live_phase != INIT) & (live_phase != SHRINK)]
    lockstep._pending_rows = many, one
    which, points = np.repeat(many, dim), lockstep.simplex[many, 1:].reshape(-1, dim)
    if one.size:
        which, points = np.concatenate([which, one]), np.concatenate([points, lockstep.trial[one]])
    return which, points


def _numpy_advance(lockstep: SimplexLockstep, got) -> np.ndarray:
    """:meth:`SimplexLockstep.advance` in numpy, after :func:`_numpy_pack`.

    Each branch is a masked update, and a branch no search takes is skipped,
    which changes no decision.  The searches to sort are ordered by a stable
    argsort, which puts NaN last, and a search that goes on takes its
    centroid from np.sum over its vertices 0 to dim - 1 divided by dim,
    np.mean's own sum and division without its dispatch cost.
    """
    reflect, expand, contract, shrink = _COEFFICIENTS.values()
    simplex, values, phase, evals = (lockstep.simplex, lockstep.values, lockstep.phase,
                                      lockstep.evals)
    centroid, trial, reflected = lockstep.centroid, lockstep.trial, lockstep.reflected
    f_reflected = lockstep.f_reflected
    many, one = lockstep._pending_rows
    dim = simplex.shape[-1]
    ready = []
    if many.size:
        values[many, 1:] = got[:many.size * dim].reshape(many.size, dim)
        evals[many] += dim
        ready.append(many)
    if one.size:
        evals[one] += 1
        got, one_phase = got[many.size * dim:], phase[one]
        at = one_phase == REFLECT
        s = one[at]
        if s.size:
            f = got[at]
            grow = f < values[s, 0]
            keep = ~grow & (f < values[s, -2])
            g = s[grow]
            if g.size:
                reflected[g], f_reflected[g] = trial[g], f[grow]
                trial[g] = centroid[g] + expand * (centroid[g] - simplex[g, -1])
                phase[g] = EXPAND
            k = s[keep]
            if k.size:
                simplex[k, -1], values[k, -1] = trial[k], f[keep]
                ready.append(k)
            c = s[~grow & ~keep]
            if c.size:
                trial[c] = centroid[c] + contract * (simplex[c, -1] - centroid[c])
                phase[c] = CONTRACT
        at = one_phase == EXPAND
        s = one[at]
        if s.size:
            f = got[at]
            better = f < f_reflected[s]
            simplex[s, -1] = np.where(better[:, None], trial[s], reflected[s])
            values[s, -1] = np.where(better, f, f_reflected[s])
            ready.append(s)
        at = one_phase == CONTRACT
        s = one[at]
        if s.size:
            f = got[at]
            better = f < values[s, -1]
            k = s[better]
            if k.size:
                simplex[k, -1], values[k, -1] = trial[k], f[better]
                ready.append(k)
            k = s[~better]
            if k.size:
                simplex[k, 1:] = simplex[k, :1] + shrink * (simplex[k, 1:] - simplex[k, :1])
                phase[k] = SHRINK
    if not ready:
        return np.empty(0, dtype=np.intp)
    ready = np.concatenate(ready)
    order = values[ready].argsort(axis=1, kind="stable")
    simplex[ready] = simplex[ready[:, None], order]
    values[ready] = values[ready[:, None], order]
    spread = values[ready, -1] - values[ready, 0]
    settled = np.isfinite(spread) & (spread < lockstep.tol)
    lockstep.converged[ready[settled]] = True
    stop = settled | (evals[ready] >= lockstep.max_evals)
    phase[ready[stop]] = DONE
    s = ready[~stop]
    if s.size:
        lockstep.iterations[s] += 1
        centroid[s] = simplex[s, :-1].sum(axis=1) / dim
        trial[s] = centroid[s] + reflect * (centroid[s] - simplex[s, -1])
        phase[s] = REFLECT
    return ready


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
_indices = ctypes.c_ssize_t.from_buffer  # intp
_integers = ctypes.c_longlong.from_buffer  # int64
_flags = ctypes.c_bool.from_buffer


def _compiled_pack(lockstep: SimplexLockstep, pack):
    """:meth:`SimplexLockstep.pack` through the library's ``pack``: one call
    counts the points, a second writes them."""
    count, _, dim = lockstep.simplex.shape
    simplex, _, _, _, trial, _, phase = lockstep._pointers
    state = (simplex, trial, phase, count, dim)
    size = pack(None, None, *state)
    which, points = np.empty(size, dtype=np.intp), np.empty((size, dim))
    if size:
        pack(_indices(which), _pointer(points), *state)
    lockstep._pending_count = size
    return which, points


def _compiled_advance(lockstep: SimplexLockstep, got, advance) -> np.ndarray:
    """:meth:`SimplexLockstep.advance` through the library's ``advance``,
    after :func:`_compiled_pack`; it reads exactly the packed count of values."""
    count, _, dim = lockstep.simplex.shape
    got = np.asarray(got, dtype=np.float64)
    if not got.flags.carray:
        got = got.copy()
    if got.shape != (lockstep._pending_count,):
        raise ValueError(f"expected {lockstep._pending_count} objective values, got shape "
                         f"{got.shape}")
    simplex, values, vectors, f_reflected, _, counters, _ = lockstep._pointers
    ready = np.empty(count, dtype=np.intp)
    # a budget beyond a C long long would wrap; no count of evaluations reaches 2**62
    size = advance(_indices(ready), simplex, values, vectors, f_reflected, counters,
                   _pointer(got), count, dim, min(lockstep.max_evals, 2**62), lockstep.tol)
    return ready[:size]


def _compiled_loo(points, order, responses, loop):
    """``(estimates, excluded)`` of :func:`loo_estimates` through the
    library's ``loop``, with ``order`` the (B, n) intp argsort of ``points``."""
    batch, n = points.shape
    estimates, excluded = np.empty(points.shape), np.empty(points.shape, dtype=bool)
    loop(_pointer(estimates), _flags(excluded), _pointer(points), _indices(order),
         responses.ctypes.data, n if responses.ndim > 1 else 0, n, batch,
         _pointer(np.empty(4 * n)))
    return estimates, excluded


def _stepped(pack, advance) -> bytes:
    """The bytes of two steps of the probe lockstep, through ``pack`` and
    ``advance``: the packed points, the sorted searches in search order and
    the whole state."""
    lockstep = SimplexLockstep(_STEP_PROBE_SIMPLEX.copy(), _STEP_PROBE_VALUES.copy(),
                               _STEP_PROBE_PHASES, 20, 1e-8)
    lockstep.vectors[:] = np.linspace(-2.0, 2.0, lockstep.vectors.size).reshape(3, 10, 3)
    lockstep.f_reflected[:] = 0.5
    lockstep.evals[7] = 19
    parts = []
    for got in (_STEP_PROBE_GOT, None):
        which, points = pack(lockstep)
        if got is None:
            # quantized values of the second step's points: ties and +-0
            got = np.floor(points @ np.array([4.0, -8.0, 2.0])) / 4.0
        parts += [which, points, np.sort(advance(lockstep, got))]
    parts += [lockstep.simplex, lockstep.values, lockstep.vectors, lockstep.f_reflected,
              lockstep.counters]
    return b"".join(part.tobytes() for part in parts)


def _open(path: str):
    """``(weights, window, (pack, advance), loo)``, the loops of the library
    at ``path``, once each has matched its numpy form on a probe: every kind
    of window sums, the leave-one-out estimates and two Nelder-Mead steps."""
    library = ctypes.CDLL(path)
    weights, window = library.fsim_kernel_weights, library.fsim_window_sums
    pack, advance = library.fsim_simplex_pack, library.fsim_simplex_advance
    loo = library.fsim_loo_estimates
    double_p, index_p = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_ssize_t)
    integer_p, size = ctypes.POINTER(ctypes.c_longlong), ctypes.c_size_t
    weights.argtypes = (double_p, double_p, double_p, size, size, size)
    window.argtypes = (ctypes.c_int, double_p, double_p, size, double_p, double_p, size,
                       ctypes.c_double, size)
    loo.argtypes = (double_p, ctypes.POINTER(ctypes.c_bool), double_p, index_p, ctypes.c_void_p,
                    size, size, size, double_p)
    pack.argtypes = (index_p, double_p, double_p, double_p, integer_p, size, size)
    advance.argtypes = (index_p, double_p, double_p, double_p, double_p, integer_p, double_p,
                        size, size, ctypes.c_longlong, ctypes.c_double)
    weights.restype = window.restype = loo.restype = None
    pack.restype = advance.restype = size
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
        if kind == 0:
            loo_sums = expected
    # the leave-one-out estimates of the same stack given in descending order
    # with its descending argsort: its sums' ratio, NaN where the window is
    # empty, put back
    den, num = loo_sums[:, 0], loo_sums[:, 1]
    expected = np.divide(num, den, out=np.full(den.shape, np.nan), where=den != 0.0)
    estimates, excluded = _compiled_loo(stack[:, ::-1].copy(),
                                        np.tile(np.arange(s.size)[::-1], (2, 1)),
                                        np.stack([y, -y])[:, ::-1].copy(), loo)
    if (estimates.tobytes() != expected[:, ::-1].tobytes()
            or not np.array_equal(excluded, den[:, ::-1] == 0.0)):
        raise OSError(f"{path} does not reproduce the numpy leave-one-out estimates")
    if (_stepped(lambda lockstep: _compiled_pack(lockstep, pack),
                 lambda lockstep, got: _compiled_advance(lockstep, got, advance))
            != _stepped(_numpy_pack, _numpy_advance)):
        raise OSError(f"{path} does not reproduce the numpy Nelder-Mead step")
    return weights, window, (pack, advance), loo


def _load():
    """``(weights, window, step, loo, path)`` of the cached library, built
    first when missing, or five ``None`` when there is no usable cache
    directory or the build, the load or a probe fails."""
    directory = _cache_dir()
    if directory is None:
        return (None,) * 5
    path = _library_path(directory)
    try:
        if not os.path.exists(path):
            _build(path)
        return *_open(path), path
    except (OSError, AttributeError):
        return (None,) * 5


_weights, _window_sums, _simplex_step, _loo_estimates, COMPILED_LIBRARY = _load()
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


def loo_estimates(points: np.ndarray, responses: np.ndarray):
    """Leave-one-out Nadaraya-Watson estimates of a stack of problems, or
    ``None`` when the compiled library cannot take them.

    ``points`` (B, n) holds each problem's finite h-scaled index and
    ``responses`` (B, n), or (n,) shared by every problem, their finite
    responses.  Numpy's argsort orders each row; then one library call
    gathers each row by its order, takes its leave-one-out window sums in
    the loop of :func:`window_sums` and writes ``(estimates, excluded)``
    back in sample order: sum w y / sum w, and NaN and excluded where the
    sample's window holds no other sample.  It needs a loaded library and
    nonempty C-ordered float64 arrays (the responses may be read-only);
    else it returns ``None``, and the caller takes the numpy walk, whose
    bits these are.
    """
    if (_loo_estimates is None or points.ndim != 2 or not points.size
            or responses.shape not in (points.shape, points.shape[-1:])
            or points.dtype != np.float64 or responses.dtype != np.float64
            or not (points.flags.carray and responses.flags.c_contiguous
                    and responses.flags.aligned)):
        return None
    return _compiled_loo(points, np.argsort(points, axis=-1), responses, _loo_estimates)


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
