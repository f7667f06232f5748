"""Orthonormal Fourier basis on [0, 1] and coefficient-vector function representations.

Covariate functions and coefficient functions are carried around as finite
coefficient vectors in a shared orthonormal system, so L2 inner products
reduce to Euclidean dot products and integrals never need to be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_trapz = getattr(np, "trapezoid", None) or np.trapz


def readonly_array(values, dtype=float) -> np.ndarray:
    """Copy ``values`` into a locked ndarray so frozen dataclasses stay frozen."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal Fourier system on [0, 1].

    Functions are ordered ``[1, sqrt(2) sin(2 pi t), sqrt(2) cos(2 pi t),
    sqrt(2) sin(4 pi t), sqrt(2) cos(4 pi t), ...]`` truncated to
    ``dimension`` entries.  With ``include_constant=False`` the leading 1 is
    dropped and the ordering starts at the first sine; that variant is used
    for coefficient functions, whose integral is constrained to zero.
    """

    dimension: int
    include_constant: bool = True

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"basis dimension must be >= 1, got {self.dimension}")

    def design_matrix(self, t) -> np.ndarray:
        """Evaluate every basis function on ``t``; shape (len(t), dimension)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t.size, self.dimension))
        j = 0
        if self.include_constant:
            out[:, 0] = 1.0
            j = 1
        root2 = np.sqrt(2.0)
        for col in range(j, self.dimension):
            pos = col - j
            k = pos // 2 + 1
            arg = 2.0 * np.pi * k * t
            out[:, col] = root2 * (np.sin(arg) if pos % 2 == 0 else np.cos(arg))
        return out

    def drop_constant(self) -> "FourierBasis":
        """The matching coefficient-function basis (constant term removed)."""
        if not self.include_constant:
            return self
        if self.dimension < 2:
            raise ValueError("cannot drop the constant from a one-function basis")
        return FourierBasis(self.dimension - 1, include_constant=False)


@dataclass(frozen=True)
class BasisExpansion:
    """A function represented by its coefficient vector in a ``FourierBasis``."""

    basis: FourierBasis
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = readonly_array(self.coeffs)
        if coeffs.ndim != 1 or coeffs.size != self.basis.dimension:
            raise ValueError(
                f"expected {self.basis.dimension} coefficients, got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, t):
        """Finite sum of coefficients times basis functions at ``t`` in [0, 1]."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("evaluation points must lie in [0, 1]")
        values = self.basis.design_matrix(arr) @ self.coeffs
        return float(values[0]) if arr.ndim == 0 else values

    def norm(self) -> float:
        """L2 norm of the represented function (equals the coefficient norm)."""
        return float(np.linalg.norm(self.coeffs))


def inner_product(f: BasisExpansion, g: BasisExpansion) -> float:
    """L2 inner product of two expansions; exact by orthonormality."""
    if f.basis != g.basis:
        raise ValueError(f"basis mismatch: {f.basis} vs {g.basis}")
    return float(f.coeffs @ g.coeffs)


def project_sample_rows(values, basis: FourierBasis) -> np.ndarray:
    """Coefficients of every row of ``values`` on ``basis``, shape (rows, dimension).

    Each row holds samples on an equally spaced grid over [0, 1]; row k of
    the result is ``project_samples(values[k], basis).coeffs``.  The grid
    and the design matrix are built once for all rows; the quadrature runs
    row by row, so no temporary grows with the row count.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("expected a two-dimensional array of sample rows")
    m = values.shape[1]
    if m < basis.dimension:
        raise ValueError(
            f"projection underdetermined: {m} samples for {basis.dimension} basis functions"
        )
    if m < 2:
        raise ValueError("need at least two samples for quadrature")
    t = np.linspace(0.0, 1.0, m)
    psi = basis.design_matrix(t)
    coeffs = np.empty((values.shape[0], basis.dimension))
    for k, row in enumerate(values):
        coeffs[k] = _trapz(psi * row[:, None], t, axis=0)
    return coeffs


def project_samples(values, basis: FourierBasis) -> BasisExpansion:
    """Project values sampled on an equally spaced grid over [0, 1] onto ``basis``.

    Coefficients are trapezoid-rule approximations of the L2 inner products
    with the basis functions, which for a dense grid is the least-squares
    projection; the residual is orthogonal to the basis span up to quadrature
    error.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("expected a one-dimensional sample vector")
    return BasisExpansion(basis, project_sample_rows(values[None], basis)[0])
