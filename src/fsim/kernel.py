"""Compactly supported smoothing kernel with three continuous derivatives."""

from math import comb

import numpy as np

# 1 / integral of (1 - s^2)^4 over [-1, 1]
NORMALIZER = 315.0 / 256.0
SUPPORT = 1.0
MAX_MOMENT = 8


def transform_inplace(u: np.ndarray) -> np.ndarray:
    """Overwrite an array of kernel arguments s with (1 - s^2)^4 on |s| < 1,
    zero outside: the kernel without its constant ``NORMALIZER``.

    :func:`smooth_kernel` scales the result; the Nadaraya-Watson sums take it
    as it is, since their ratio sum(w y) / sum(w) cancels the constant.  One
    function serves both so every caller forms bit-identical powers; the
    fourth power runs as two squares because pow is far slower on large
    arrays.
    """
    np.multiply(u, u, out=u)
    np.subtract(1.0, u, out=u)
    np.maximum(u, 0.0, out=u)
    np.multiply(u, u, out=u)
    np.multiply(u, u, out=u)
    return u


def smooth_kernel(s):
    """Kernel (315/256)(1 - s^2)^4 on |s| < 1, zero outside.

    Nonnegative, symmetric, integrates to one.  The fourth power gives a
    quadruple zero at the support boundary, so the kernel is three times
    continuously differentiable on the whole line; lower-power polynomial
    kernels (biweight, triweight) are not.  The value is
    :func:`transform_inplace` times ``NORMALIZER``, bit for bit.
    """
    u = transform_inplace(np.array(s, dtype=float))
    u *= NORMALIZER
    return float(u) if u.ndim == 0 else u


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
