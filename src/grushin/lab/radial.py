"""Grid-free weighted column norms via the polar oscillator decomposition.

Specialized to two prime coordinates and one torus coordinate.  The level-k
eigenprojection of the 2-D oscillator splits over angular momentum l into
radial Laguerre modes psi_{n,l} (k = 2n + l), which turns the weighted L^2
norm of a multiplier column into small per-(xi, l) quadratic forms.  No
Cartesian grid appears: radial integrals use exact Gauss quadrature, so this
path cross-validates the tensor-grid engine rather than reusing it.

The zero torus frequency is excluded from the sum: the lattice sum is a
Riemann approximation of the continuum xi-integral and the xi = 0 term is a
measure-zero compactification artifact (its weight vanishes as the torus
grows).  All norms here follow that convention.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import gammaln

from ..errors import DomainError, TruncationError
from ..oscillator import active_level_range

__all__ = [
    "laguerre_radial_table",
    "radial_gram",
    "weighted_column_norm",
    "weighted_column_norms",
    "weighted_operator_norm",
]

_D1 = 2  # this fast path is specific to two prime coordinates


def _normalized_recurrence(n_max: int, l: int, x: np.ndarray,
                           log_row0: np.ndarray) -> np.ndarray:
    """Rows n = 0..n_max of c_n L_n^l(x) exp(log_row0), c_n the sqrt ratio.

    Three-term recurrence with the orthonormal scaling sqrt(n!/(n+l)!) folded
    in.  Row 0 enters in log form and the recurrence runs on per-node scaled
    mantissas with a log offset: starting values far below the underflow
    threshold can still climb back to order one by the time n reaches the
    classically allowed range, which plain arithmetic would lose to a hard
    zero.  Emitted rows are unscaled; entries whose true size is below the
    double floor come out as exact zeros.
    """
    log_row0 = np.asarray(log_row0, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    expo = log_row0.copy()
    # orthonormal-scaled rows are O(1) where the modes live, so capping the
    # emission exponent only suppresses values already below the double floor
    unscale = np.exp(np.minimum(expo, 709.0))
    out[0] = unscale
    if n_max == 0:
        return out
    prev = np.zeros_like(x)
    cur = np.ones_like(x)  # scaled row 0 mantissa
    for n in range(n_max):
        if n == 0:
            nxt = (1.0 + l - x) * cur / np.sqrt(1.0 + l)
        else:
            nxt = ((2.0 * n + 1.0 + l - x) * cur
                   - np.sqrt(n * (n + l)) * prev) \
                / np.sqrt((n + 1.0) * (n + 1.0 + l))
        big = np.abs(nxt) > 1e200
        if np.any(big):
            scale = np.where(big, np.abs(nxt), 1.0)
            nxt = nxt / scale
            cur = cur / scale
            expo = expo + np.log(scale)
            unscale = np.exp(np.minimum(expo, 709.0))
        out[n + 1] = nxt * unscale
        prev, cur = cur, nxt
    return out


def laguerre_radial_table(n_max: int, l: int, s: np.ndarray) -> np.ndarray:
    """Rows n = 0..n_max of psi_{n,l}(s), orthonormal for the weight s ds.

    psi_{n,l}(s) = sqrt(2 n! / (n+l)!) s^l L_n^l(s^2) exp(-s^2/2).  The l > 0
    modes vanish at s = 0; the l = 0 modes take the value sqrt(2) (n even
    sign convention of L_n(0) = 1).
    """
    if n_max < 0 or l < 0:
        raise DomainError("need n_max >= 0 and l >= 0")
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise DomainError("s is a radial coordinate; need s >= 0")
    s2 = s * s
    if l == 0:
        log_row0 = 0.5 * np.log(2.0) - 0.5 * s2
    else:
        with np.errstate(divide="ignore"):
            log_s = np.where(s > 0, np.log(np.where(s > 0, s, 1.0)), -np.inf)
        log_row0 = (0.5 * (np.log(2.0) - gammaln(l + 1.0))
                    + l * log_s - 0.5 * s2)
    return _normalized_recurrence(n_max, l, s2, log_row0)


def _gauss_modes(n_max: int, l: int, gamma: float) -> np.ndarray:
    """Orthonormal Laguerre rows times sqrt of Gauss weights for t^{l+gamma} e^{-t}.

    Row n holds sqrt(n!/(n+l)!) L_n^l(t_q) sqrt(w_q) at the n_max + 1 Gauss
    nodes (the t = s^2 substitution Jacobian absorbs the radial sqrt(2)), so
    U @ U.T is the weighted Gram, exactly: the quadrature integrates
    polynomial degree 2 n_max + 1 without error.  The nodes are the
    eigenvalues of the Jacobi matrix.  The weights are Christoffel numbers,
    w_q = t_q^alpha e^{-t_q} / sum_n phi_n(t_q)^2 with phi_n the orthonormal
    Laguerre functions of parameter alpha = l + gamma, assembled in log scale:
    each weight is then accurate in relative terms, however small, and the
    total mass Gamma(alpha + 1), which overflows for large l, never forms.
    """
    alpha = l + gamma
    k = np.arange(n_max + 1, dtype=float)
    t = eigvalsh_tridiagonal(2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha)))
    log_weight = alpha * np.log(t) - t
    phi = _normalized_recurrence(n_max, alpha, t,
                                 0.5 * (log_weight - gammaln(alpha + 1.0)))
    log_w = log_weight - np.log(np.sum(phi * phi, axis=0))
    return _normalized_recurrence(n_max, l, t, 0.5 * (log_w - gammaln(l + 1.0)))


def radial_gram(n_max: int, l: int, gamma: float) -> np.ndarray:
    """Gram matrix int_0^inf s^{2 gamma + 1} psi_{n,l} psi_{m,l} ds, exact.

    In the t = s^2 variable this is a polynomial integral against the weight
    t^{l+gamma} e^{-t}, so Gauss quadrature at n_max + 1 nodes is exact.
    gamma = 0 recovers the identity (orthonormality) to rounding.
    """
    if n_max < 0 or l < 0:
        raise DomainError("need n_max >= 0 and l >= 0")
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    modes = _gauss_modes(n_max, l, gamma)
    return modes @ modes.T


def weighted_column_norms(profile, u, gamma: float, torus_half_period: float,
                          k_max: int, lambda_max: float) -> np.ndarray:
    """|| |x'|^gamma K_F(., y) ||_2 for columns at |y'| = u, vectorized in u.

    The column norm depends on y only through u = |y'| by rotation invariance
    in x' and translation invariance on the torus.  Levels beyond the k_max
    policy raise TruncationError naming the offending frequency.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u < 0):
        raise DomainError("u is a radius; need u >= 0")
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    if torus_half_period <= 0:
        raise DomainError("torus half period must be positive")
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    lo, hi = profile.support
    top = min(hi, lambda_max)
    if not np.isfinite(top) or top <= 0:
        raise DomainError("need a finite positive eigenvalue cap; lower "
                          "lambda_max or use a compactly supported profile")
    dxi = np.pi / torus_half_period
    j_top = int(np.floor(top / (_D1 * dxi) + 1e-12))
    total = np.zeros(u.shape)
    for j in range(1, j_top + 1):
        xi = j * dxi
        k_lo, k_hi = active_level_range(profile, xi, _D1, lambda_max)
        if k_hi < k_lo:
            continue
        if k_hi > k_max:
            raise TruncationError(k_hi, xi, k_max)
        s_u = np.sqrt(xi) * u
        slab = np.zeros(u.shape)
        for l in range(k_hi + 1):
            n_hi = (k_hi - l) // 2
            psi_u = laguerre_radial_table(n_hi, l, s_u)
            n_idx = np.arange(n_hi + 1)
            eig = (2.0 * (2 * n_idx + l) + _D1) * xi
            vals = np.asarray(profile(eig))
            if not vals.imag.any():
                vals = vals.real
            coef = vals[:, None] * psi_u
            if not coef.any():
                continue
            if gamma == 0.0:
                # orthonormal modes: the Gram is the identity
                form = np.sum(np.abs(coef) ** 2, axis=0)
            else:
                modes = _gauss_modes(n_hi, l, gamma)
                synth = coef.T @ modes
                form = np.sum(np.abs(synth) ** 2, axis=1)
            slab += (2.0 if l > 0 else 1.0) * form
        total += 2.0 * xi ** (1.0 - gamma) / (2.0 * np.pi) * slab
    return np.sqrt(total / (2.0 * torus_half_period))


def weighted_column_norm(profile, u: float, gamma: float,
                         torus_half_period: float, k_max: int,
                         lambda_max: float) -> float:
    """Scalar-u convenience wrapper around weighted_column_norms."""
    return float(weighted_column_norms(profile, np.array([u]), gamma,
                                       torus_half_period, k_max,
                                       lambda_max)[0])


def weighted_operator_norm(profile, gamma: float, torus_half_period: float,
                           k_max: int, lambda_max: float,
                           u_range: Tuple[float, float] | None = None,
                           n_scan: int = 97) -> Tuple[float, float]:
    """max_u || |x'|^gamma K_F(., y(u)) ||_2 and the maximizing radius.

    This is the L^1 -> L^2 operator norm of w_gamma F(L); restricting u_range
    realizes a metric-ball cutoff on the input side.  The default range spans
    the classically allowed reach of the lowest active torus frequency; the
    search is a dense scan with extra density near the axis, then two local
    grid-refinement rounds.
    """
    lo, hi = profile.support
    top = min(hi, lambda_max)
    if not np.isfinite(top) or top <= 0:
        raise DomainError("need a finite positive eigenvalue cap; lower "
                          "lambda_max or use a compactly supported profile")
    dxi = np.pi / torus_half_period
    if u_range is None:
        u_range = (0.0, np.sqrt(top) / dxi + 1.0)
    u_lo, u_hi = max(0.0, float(u_range[0])), float(u_range[1])
    if u_hi < u_lo:
        raise DomainError("empty u range")
    if n_scan < 5:
        raise DomainError("need at least 5 scan points")

    def norms(us):
        return weighted_column_norms(profile, us, gamma, torus_half_period,
                                     k_max, lambda_max)

    if u_hi == u_lo:
        return float(norms(np.array([u_lo]))[0]), u_lo
    us = np.linspace(u_lo, u_hi, n_scan)
    if u_hi - u_lo > 4.0:
        # weighted peaks tend to sit near the axis; keep that region resolved
        us = np.unique(np.concatenate(
            [us, np.linspace(u_lo, u_lo + 2.0, 49)]))
    vals = norms(us)
    best_i = int(np.argmax(vals))
    best_u, best = float(us[best_i]), float(vals[best_i])
    half = (us[min(best_i + 1, us.size - 1)]
            - us[max(best_i - 1, 0)]) / 2.0
    for _ in range(2):
        if half <= 0:
            break
        local = np.linspace(max(u_lo, best_u - half),
                            min(u_hi, best_u + half), 17)
        lvals = norms(local)
        i = int(np.argmax(lvals))
        if lvals[i] > best:
            best, best_u = float(lvals[i]), float(local[i])
        half /= 8.0
    return best, best_u
