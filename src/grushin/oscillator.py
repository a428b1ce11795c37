"""The |xi|-scaled oscillator -Laplacian + |x'|^2 |xi|^2 and its spectral calculus.

Eigenfunctions are the dilated products Phi_nu^xi(x') = |xi|^{d1/4} Phi_nu(sqrt(|xi|) x')
with eigenvalues (2|nu| + d1)|xi|.  All operations evaluate Hermite tables at the
dilated argument directly; nothing is resampled or interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DegenerateInputError, DomainError, TruncationError
from .hermite import PrimeGrid, hermite_table, level_sum_profile, phi_eval

__all__ = [
    "XiSlice",
    "phi_xi_eval",
    "active_level_range",
    "oscillator_transform",
    "oscillator_synthesis",
    "project_onto_level",
    "restriction_norm_level",
    "weighted_oscillator_check",
    "RatioReport",
]


@dataclass(frozen=True)
class XiSlice:
    """One partial-Fourier slice: coupling strength |xi|, dimension, level cap."""

    xi_mag: float
    d1: int
    k_max: int

    def __post_init__(self):
        if self.xi_mag <= 0:
            raise DomainError("xi_mag must be positive")
        if self.d1 < 1 or self.k_max < 0:
            raise DomainError("need d1 >= 1 and k_max >= 0")

    def eigenvalue(self, k: int) -> float:
        return (2 * k + self.d1) * self.xi_mag


def phi_xi_eval(nu, xi_mag: float, x_prime) -> float:
    """Phi_nu^xi(x') = |xi|^{d1/4} Phi_nu(sqrt(|xi|) x')."""
    if xi_mag <= 0:
        raise DomainError("xi_mag must be positive")
    x = np.asarray(x_prime, dtype=float)
    d1 = len(tuple(nu))
    return xi_mag ** (d1 / 4.0) * phi_eval(nu, np.sqrt(xi_mag) * x)


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
    H = _tables(grid, xi_mag, k_hi)
    out = np.asarray(f)
    for axis in range(grid.d1):
        # contract spatial axis `axis` (always at position `axis` after the
        # previous contractions moved their level axis to the front)
        out = np.moveaxis(np.tensordot(H, out, axes=(1, axis)), 0, axis)
    return out * grid.cell


def oscillator_synthesis(coef: np.ndarray, grid: PrimeGrid, xi_mag: float) -> np.ndarray:
    """Inverse of oscillator_transform on the represented span."""
    if grid.d1 > 3:
        raise DomainError("oscillator transforms implemented for d1 <= 3")
    k_hi = coef.shape[0] - 1
    H = _tables(grid, xi_mag, k_hi)
    out = np.asarray(coef)
    for axis in range(grid.d1):
        out = np.moveaxis(np.tensordot(H.T, out, axes=(1, axis)), 0, axis)
    return out


def _level_weights(coef_shape, d1: int) -> np.ndarray:
    """Tensor of |nu| values over the first d1 axes of a coefficient tensor."""
    return sum(np.ix_(*[np.arange(coef_shape[0])] * d1))


def project_onto_level(f: np.ndarray, k: int, grid: PrimeGrid) -> np.ndarray:
    """Orthogonal projection of grid samples f onto the level-k eigenspace at |xi| = 1.

    Grid quadrature stands in for the continuum inner products; accurate once the
    grid resolves level k (see PrimeGrid.reliable_level_cap).
    """
    if k < 0:
        raise DomainError("level must be >= 0")
    if k > grid.reliable_level_cap():
        raise TruncationError(k, 1.0, grid.reliable_level_cap())
    f = np.asarray(f)
    if f.shape != (grid.n_points,) * grid.d1:
        raise ContractViolation("field shape does not match the grid")
    coef = oscillator_transform(f, grid, 1.0, k)
    coef[_level_weights(coef.shape, grid.d1) != k] = 0.0
    return oscillator_synthesis(coef, grid, 1.0)


def restriction_norm_level(k: int, xi_mag: float, p: float, d1: int,
                           refine: int = 9):
    """Operator norm of the level-k projection from L^p into L^2.

    p = 1 is exact: the norm equals sup_{y'} sqrt(sum_{|nu|=k} Phi_nu^xi(y')^2),
    evaluated on a dense radial grid (the level sum is radial) with parabolic
    refinement of the maximum.  For p in (1, 2) use grushin.lab.op_norm, which
    reports certified lower bounds; this function only handles the exact endpoint.
    """
    if not (1.0 <= p <= 2.0):
        raise DomainError("p must lie in [1, 2]")
    if xi_mag <= 0:
        raise DomainError("xi_mag must be positive")
    if p != 1.0:
        raise DomainError("only the exact endpoint p = 1 is computed here; "
                          "use grushin.lab.op_norm for p in (1, 2)")
    lam = 2.0 * k + d1
    rmax = np.sqrt(lam) + 5.0
    # >= 8 points per oscillation of the fastest Hermite factor
    n = max(64, int(np.ceil(rmax * np.sqrt(lam) * 8 / np.pi)))
    r = np.linspace(0.0, rmax, n)
    q = level_sum_profile(k, d1, r)
    i = int(np.argmax(q))
    # parabolic refinement around the discrete argmax
    for _ in range(refine):
        if 0 < i < len(r) - 1:
            a, b, c = q[i - 1], q[i], q[i + 1]
            denom = a - 2 * b + c
            if denom < 0:
                shift = 0.5 * (a - c) / denom
                r = r[i] + (r[1] - r[0]) * np.linspace(shift - 0.5, shift + 0.5, 9)
                r = r[r >= 0]
                q = level_sum_profile(k, d1, r)
                i = int(np.argmax(q))
        else:
            break
    return xi_mag ** (d1 / 4.0) * float(np.sqrt(q.max()))


@dataclass(frozen=True)
class RatioReport:
    numerator: float
    denominator: float

    @property
    def ratio(self) -> float:
        return self.numerator / self.denominator


def weighted_oscillator_check(f: np.ndarray, xislice: XiSlice, gamma: float,
                              grid: PrimeGrid) -> RatioReport:
    """Ratio || |x'|^gamma f ||_2 / || |xi|^{-gamma} L_xi^{gamma/2} f ||_2.

    L_xi^{gamma/2} acts spectrally on the reliable span.  gamma = 0 returns 1 up to
    arithmetic noise.  Zero input is rejected: the ratio would be 0/0.
    """
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    f = np.asarray(f)
    dx = grid.spacing
    nf2 = np.sum(np.abs(f) ** 2) * grid.cell
    if nf2 == 0:
        raise DegenerateInputError("weighted check needs a nonzero field")
    axes = np.meshgrid(*([grid.axis] * grid.d1), indexing="ij")
    r2 = sum(a * a for a in axes)
    num = np.sqrt(np.sum(r2 ** gamma * np.abs(f) ** 2) * grid.cell)
    k_hi = min(xislice.k_max, grid.reliable_level_cap(xislice.xi_mag))
    coef = oscillator_transform(f, grid, xislice.xi_mag, k_hi)
    levels = _level_weights(coef.shape, grid.d1)
    eig = (2 * levels + xislice.d1) * xislice.xi_mag
    den = xislice.xi_mag ** (-gamma) * np.sqrt(np.sum(eig ** gamma * np.abs(coef) ** 2))
    return RatioReport(numerator=float(num), denominator=float(den))
