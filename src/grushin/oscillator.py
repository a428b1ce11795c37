"""The |xi|-scaled oscillator -Laplacian + |x'|^2 |xi|^2 and its spectral calculus.

Eigenfunctions are the dilated products Phi_nu^xi(x') = |xi|^{d1/4} Phi_nu(sqrt(|xi|) x')
with eigenvalues (2|nu| + d1)|xi|.  All operations evaluate Hermite tables at the
dilated argument directly; nothing is resampled or interpolated.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .hermite import PrimeGrid, hermite_table

__all__ = [
    "active_level_range",
    "oscillator_transform",
    "oscillator_synthesis",
]


def active_level_range(profile, xi_mag: float, d1: int, lambda_max: float):
    """Levels k whose eigenvalue lies in supp(profile) intersected with [0, lambda_max].

    Returns (k_lo, k_hi), possibly an empty range (k_lo > k_hi).
    """
    a, b = profile.support
    top = min(b, lambda_max)
    if top < a:
        return 0, -1
    k_lo = max(0, int(np.ceil((a / xi_mag - d1) / 2.0 - 1e-12)))
    k_hi = int(np.floor((top / xi_mag - d1) / 2.0 + 1e-12))
    return k_lo, k_hi


def _tables(grid: PrimeGrid, xi_mag: float, k_hi: int) -> np.ndarray:
    # per-axis normalization xi^{1/4} keeps the quadrature-orthonormality of rows
    return xi_mag ** 0.25 * hermite_table(k_hi, np.sqrt(xi_mag) * grid.axis)


def oscillator_transform(f: np.ndarray, grid: PrimeGrid, xi_mag: float, k_hi: int) -> np.ndarray:
    """Coefficient tensor <f, Phi_nu^xi> for all nu with components <= k_hi.

    The first d1 axes of f are spatial; any trailing axes are carried along as a
    batch, so one call transforms a whole family of slices.
    """
    if grid.d1 > 3:
        raise DomainError("oscillator transforms implemented for d1 <= 3")
    return _contract(_tables(grid, xi_mag, k_hi), f, grid.d1) * grid.cell


def oscillator_synthesis(coef: np.ndarray, grid: PrimeGrid, xi_mag: float) -> np.ndarray:
    """Inverse of oscillator_transform on the represented span."""
    if grid.d1 > 3:
        raise DomainError("oscillator transforms implemented for d1 <= 3")
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
