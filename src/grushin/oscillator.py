"""The |xi|-scaled oscillator -Laplacian + |x'|^2 |xi|^2 and its spectral calculus.

Eigenfunctions are the dilated products Phi_nu^xi(x') = |xi|^{d1/4} Phi_nu(sqrt(|xi|) x')
with eigenvalues (2|nu| + d1)|xi|.  All operations evaluate Hermite tables at the
dilated argument directly; nothing is resampled or interpolated.  Every
evaluator keeps the spectral window decided here: eigenvalue_cap, torus_slabs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, TruncationError, check_real
from .hermite import PrimeGrid, hermite_table

__all__ = [
    "active_level_range",
    "eigenvalue_cap",
    "oscillator_transform",
    "oscillator_synthesis",
    "torus_slabs",
]


def eigenvalue_cap(profile, lambda_max) -> float:
    """The top eigenvalue that F(L) keeps: min(support edge, lambda_max).

    lambda_max None and inf both mean no cap; any other lambda_max must be
    one positive number (grushin.errors), and a top that is not a finite
    float raises DomainError.
    """
    top = profile.support[1]
    if not (lambda_max is None or isinstance(lambda_max, (float, np.floating))
            and lambda_max == math.inf):  # inf is a float: no array reaches ==
        check_real(lambda_max, "lambda_max", 0.0, strict=True)
        top = min(top, lambda_max)
    if not top <= sys.float_info.max:  # an int past the float range too
        raise DomainError("need a finite positive eigenvalue cap; pass a finite "
                          "lambda_max or use a compactly supported profile")
    return top


def active_level_range(profile, xi_mag: float, d1: int, lambda_max,
                       k_max: int | None = None):
    """Levels k with eigenvalue (2k + d1) xi_mag in supp(F), at most the cap.

    The cap is eigenvalue_cap's.  Returns (k_lo, k_hi), possibly an empty
    range (k_lo > k_hi).  Given k_max, a non-empty range with k_hi past it
    raises TruncationError(k_hi, xi_mag, k_max).
    """
    k_lo, k_hi = _level_ranges(profile, float(xi_mag), d1,
                               eigenvalue_cap(profile, lambda_max), k_max)
    return int(k_lo), int(k_hi)


def _level_ranges(profile, xis, d1: int, top: float, k_max):
    """active_level_range of each slab xis (an array or one float) under top.

    top is an eigenvalue_cap.  Given k_max, the first non-empty range past
    it raises TruncationError.
    """
    a = profile.support[0]
    if top < a:
        return np.zeros(np.shape(xis), dtype=int), np.full(np.shape(xis), -1)
    k_lo = np.maximum(np.ceil((a / xis - d1) / 2.0 - 1e-12), 0).astype(int)
    k_hi = np.floor((top / xis - d1) / 2.0 + 1e-12).astype(int)
    if k_max is not None:
        past = (k_lo <= k_hi) & (k_hi > k_max)
        if past.any():
            i = np.argmax(past)  # the first
            raise TruncationError(int(np.ravel(k_hi)[i]),
                                  float(np.ravel(xis)[i]), k_max)
    return k_lo, k_hi


def torus_slabs(profile, top: float, dxi: float, d1: int,
                k_max: int | None = None):
    """Arrays (xi_j, k_lo, k_hi) over the slabs j = 1 ... j_top.

    top is an eigenvalue_cap, xi_j = j dxi and j_top = floor(top / (d1 dxi)
    + 1e-12): the slabs whose lowest eigenvalue d1 xi_j is at most top.  Each
    level range is that of active_level_range and may be empty.  Given
    k_max, the first non-empty slab past it raises TruncationError; slab 1,
    which has the most levels, is checked before the arrays are built.
    """
    j_top = int(np.floor(top / (d1 * dxi) + 1e-12))
    if k_max is not None and j_top > 0:
        _level_ranges(profile, float(dxi), d1, top, k_max)
    xis = dxi * np.arange(1, j_top + 1)
    return (xis, *_level_ranges(profile, xis, d1, top, k_max))


def _tables(grid: PrimeGrid, xi_mag: float, k_hi: int) -> np.ndarray:
    if grid.d1 > 3:
        raise DomainError("oscillator transforms implemented for d1 <= 3")
    # per-axis normalization xi^{1/4} keeps the quadrature-orthonormality of rows
    return xi_mag ** 0.25 * hermite_table(k_hi, np.sqrt(xi_mag) * grid.axis)


def oscillator_transform(f: np.ndarray, grid: PrimeGrid, xi_mag: float, k_hi: int) -> np.ndarray:
    """Coefficient tensor <f, Phi_nu^xi> for all nu with components <= k_hi.

    The first d1 axes of f are spatial; any trailing axes are carried along as a
    batch, so one call transforms a whole family of slices.
    """
    return _contract(_tables(grid, xi_mag, k_hi), f, grid.d1) * grid.cell


def oscillator_synthesis(coef: np.ndarray, grid: PrimeGrid, xi_mag: float) -> np.ndarray:
    """Inverse of oscillator_transform on the represented span."""
    k_hi = coef.shape[0] - 1
    return _contract(_tables(grid, xi_mag, k_hi).T, coef, grid.d1)


def _contract(H: np.ndarray, f, d1: int) -> np.ndarray:
    """Apply the real matrix H along each of the first d1 axes of f.

    A complex f goes through as a float64 view with a trailing (re, im) axis,
    so every product is a real one and H is never upcast to complex.
    """
    out = np.asarray(f)
    is_complex = np.iscomplexobj(out)
    if is_complex:
        out = np.ascontiguousarray(out, dtype=np.complex128)[..., None].view(np.float64)
    for axis in range(d1):
        # contract spatial axis `axis` (always at position `axis` after the
        # previous contractions moved their level axis to the front)
        out = np.moveaxis(np.tensordot(H, out, axes=(1, axis)), 0, axis)
    if is_complex:
        # the (re, im) axis stays last and contiguous through the contractions
        out = out.view(np.complex128)[..., 0]
    return out


def _level_weights(coef_shape, d1: int) -> np.ndarray:
    """Tensor of |nu| values over the first d1 axes of a coefficient tensor."""
    return sum(np.ix_(*[np.arange(coef_shape[0])] * d1))
