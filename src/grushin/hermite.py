"""Normalized Hermite functions, multi-index oscillator eigenfunctions, level projections.

Everything here lives at unit coupling: the reference operator is -d^2/du^2 + u^2 per
axis, with eigenvalue 2n+1 on the n-th normalized Hermite function h_n.  The
|xi|-scaled machinery builds on these via the substitution u -> sqrt(|xi|) u, see
grushin.oscillator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DomainError

__all__ = [
    "PrimeGrid",
    "hermite_eval",
    "hermite_table",
    "hermite_zero_values",
    "multiindex_enum",
    "level_multiplicity",
    "phi_eval",
    "projection_kernel",
    "level_sum_profile",
    "gaussian_decay_fit",
]

# Hermite functions are numerically zero past the classical turning point plus this
# many units; grids narrower than that under-resolve the highest requested level.
TURNING_MARGIN = 6.0
MIN_TURNING_MARGIN = 4.0


def hermite_table(nmax: int, u: np.ndarray) -> np.ndarray:
    """Rows n = 0..nmax of the L2-normalized Hermite functions at the points u.

    Upward three-term recurrence on the normalized functions themselves,
    h_{n+1} = sqrt(2/(n+1)) u h_n - sqrt(n/(n+1)) h_{n-1}, which is stable and
    overflow-free for every n reachable at desk scale.
    """
    if nmax < 0:
        raise DomainError("nmax must be >= 0")
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise DomainError("hermite evaluation points must be finite")
    out = np.empty((nmax + 1,) + u.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    if nmax >= 1:
        out[1] = np.sqrt(2.0) * u * out[0]
    for n in range(1, nmax):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * u * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def hermite_eval(n: int, u) -> np.ndarray | float:
    """h_n(u) for a single degree n; u may be a scalar or an array."""
    scalar = np.isscalar(u)
    vals = hermite_table(n, np.atleast_1d(np.asarray(u, dtype=float)))[n]
    return float(vals[0]) if scalar else vals


def hermite_zero_values(nmax: int) -> np.ndarray:
    """h_n(0) for n = 0..nmax via the two-step recurrence; odd entries are 0."""
    h = np.zeros(nmax + 1)
    h[0] = np.pi ** -0.25
    for n in range(2, nmax + 1, 2):
        h[n] = -np.sqrt((n - 1.0) / n) * h[n - 2]
    return h


def level_multiplicity(d1: int, k: int) -> int:
    """Number of multi-indices nu in N^d1 with |nu| = k."""
    return math.comb(k + d1 - 1, d1 - 1)


def multiindex_enum(d1: int, k: int) -> list[tuple[int, ...]]:
    """All multi-indices of length d1 summing to k, in lexicographic order."""
    if d1 < 1:
        raise DomainError("d1 must be >= 1")
    if k < 0:
        raise DomainError("level must be >= 0")
    if d1 == 1:
        return [(k,)]
    out = []
    for first in range(k + 1):
        for rest in multiindex_enum(d1 - 1, k - first):
            out.append((first,) + rest)
    return out


def phi_eval(nu, x_prime) -> float:
    """Product eigenfunction value: prod_j h_{nu_j}(x'_j)."""
    nu = tuple(int(n) for n in nu)
    x = np.atleast_1d(np.asarray(x_prime, dtype=float))
    if len(nu) != x.shape[-1]:
        raise ContractViolation(
            f"multi-index has {len(nu)} components but point has {x.shape[-1]}"
        )
    if any(n < 0 for n in nu):
        raise DomainError("multi-index components must be >= 0")
    val = 1.0
    for j, n in enumerate(nu):
        val = val * hermite_eval(n, x[..., j])
    return val


def projection_kernel(k: int, x_prime, y_prime) -> float:
    """Level-k spectral projection kernel sum_{|nu|=k} Phi_nu(x') Phi_nu(y')."""
    if k < 0:
        raise DomainError("level must be >= 0")
    x = np.asarray(x_prime, dtype=float).ravel()
    y = np.asarray(y_prime, dtype=float).ravel()
    if x.shape != y.shape:
        raise ContractViolation("x' and y' must have the same dimension")
    d1 = len(x)
    hx = hermite_table(k, x)  # (k+1, d1)
    hy = hermite_table(k, y)
    total = 0.0
    for nu in multiindex_enum(d1, k):
        term = 1.0
        for j, n in enumerate(nu):
            term *= hx[n, j] * hy[n, j]
        total += term
    return total


@dataclass(frozen=True)
class PrimeGrid:
    """Uniform grid on [-X, X)^d1 used to sample the x' factor.

    The axis contains 0 exactly when n_points is even.  Quadrature is the plain
    Riemann rule with uniform cell weight spacing**d1, which is spectrally accurate
    for the super-exponentially decaying integrands that arise here.
    """

    half_width: float
    n_points: int
    d1: int

    def __post_init__(self):
        if not 0 < self.half_width < math.inf or self.n_points < 2 or self.d1 < 1:
            raise DomainError(
                "PrimeGrid needs finite positive extent, >=2 points, d1 >= 1")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @property
    def cell(self) -> float:
        return self.spacing ** self.d1

    @property
    def axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.n_points)

    def reliable_level_cap(self, xi_mag: float = 1.0) -> int:
        """Largest level whose turning point stays MIN_TURNING_MARGIN inside the box."""
        reach = np.sqrt(xi_mag) * self.half_width - MIN_TURNING_MARGIN
        if reach <= 0:
            return -1
        return int(np.floor((reach * reach - self.d1) / 2.0))

    @classmethod
    def for_levels(cls, k_max: int, d1: int, points_per_osc: float = 6.0) -> "PrimeGrid":
        """Grid sized for levels up to k_max at unit xi: X = sqrt(2k+d1) + 6."""
        X = np.sqrt(2.0 * k_max + d1) + TURNING_MARGIN
        # highest spatial frequency on a level-k eigenfunction is sqrt(2k+d1)
        dx = np.pi / (points_per_osc * np.sqrt(2.0 * k_max + d1))
        n = 1 << int(np.ceil(np.log2(2.0 * X / dx)))
        return cls(half_width=float(X), n_points=n, d1=d1)


def level_sum_profile(k: int, d1: int, r: np.ndarray) -> np.ndarray:
    """Radial profile Q_k(r) = sum_{|nu|=k} Phi_nu(r e_1)^2.

    Splitting nu = (a, nu') gives Q_k(r) = sum_a h_a(r)^2 W_{k-a} where
    W_m = sum_{|nu'|=m} Phi_{nu'}(0)^2 is the (d1-1)-fold convolution of the
    squared axis values at the origin.  Cheap for any k at desk scale.
    """
    if k < 0:
        raise DomainError("level must be >= 0")
    r = np.asarray(r, dtype=float)
    h2 = hermite_table(k, r) ** 2
    if d1 == 1:
        return h2[k]
    w = hermite_zero_values(k) ** 2
    W = w.copy()
    for _ in range(d1 - 2):
        W = np.convolve(W, w)[: k + 1]
    return np.tensordot(W[::-1], h2, axes=(0, 0))  # sum_a h_a^2 W_{k-a}


def gaussian_decay_fit(k: int, d1: int, n_samples: int = 64) -> tuple[float, float]:
    """Fit Q_k(r) <= C exp(-c r^2) on the classically forbidden tail r^2 >= 2(2k+d1).

    Returns (c, C) from a least-squares line through log Q_k against r^2.  The decay
    rate c is the quantity of interest; callers assert c > 0.
    """
    lam = 2.0 * k + d1
    r = np.sqrt(np.linspace(2.0 * lam, (np.sqrt(lam) + TURNING_MARGIN) ** 2, n_samples))
    q = level_sum_profile(k, d1, r)
    good = q > 0
    if good.sum() < 8:
        raise DomainError("tail underflows; reduce k")
    A = np.vstack([r[good] ** 2, np.ones(good.sum())]).T
    slope, intercept = np.linalg.lstsq(A, np.log(q[good]), rcond=None)[0]
    return -float(slope), float(np.exp(intercept))
