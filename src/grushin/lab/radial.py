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

Each torus frequency xi costs one profile evaluation at its levels and a few
vectorised passes: consecutive l run side by side as lanes of one recurrence
over n, a lane retiring after its last row n = (k_hi - l) // 2, and at
gamma > 0 the Gauss-mode recurrence of the same lanes runs in lockstep, so no
(n, l) table is ever stored.  _BLOCK_BUDGET bounds the lanes of one pass,
which keeps the memory of a pass flat however many levels are active.
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
# floats per block of l, counted as lanes * (feet + 1) * (Gauss nodes + 1):
# the (l, u) recurrence state at gamma = 0, the (l, u, node) synthesis at
# gamma > 0
_BLOCK_BUDGET = 1.25e5


def _normalized_recurrence(n_max: np.ndarray, l: np.ndarray, x: np.ndarray,
                           log_row0: np.ndarray):
    """Yield rows n = 0..n_max of c_n L_n^l(x) exp(log_row0), c_n the sqrt ratio.

    Three-term recurrence with the orthonormal scaling sqrt(n!/(n+l)!) folded
    in.  Row 0 enters in log form and the recurrence runs on per-node scaled
    mantissas with a log offset: starting values far below the underflow
    threshold can still climb back to order one by the time n reaches the
    classically allowed range, which plain arithmetic would lose to a hard
    zero.  Emitted rows are unscaled; entries whose true size is below the
    double floor come out as exact zeros.

    The leading axis holds lanes: n_max has one entry per lane, in
    nonincreasing order, and l is a matching column.  Row n holds the leading
    lanes with n_max >= n, so a lane costs no work past its own last row.
    Every entry sees the same arithmetic as in a run of its lane alone.
    """
    l = np.asarray(l, dtype=float)
    shape = np.broadcast_shapes(l.shape, np.shape(x), np.shape(log_row0))
    x = np.broadcast_to(x, shape)
    expo = np.array(np.broadcast_to(log_row0, shape), dtype=float)
    # orthonormal-scaled rows are O(1) where the modes live, so capping the
    # emission exponent only suppresses values already below the double floor
    unscale = np.exp(np.minimum(expo, 709.0))
    yield unscale
    alive = np.count_nonzero(n_max[:, None] > np.arange(n_max[0]), axis=0)
    prev = np.zeros(shape)
    cur = np.ones(shape)  # scaled row 0 mantissa
    for n, m in enumerate(alive.tolist()):
        if m < len(cur):
            l, x, prev, cur, expo, unscale = (
                a[:m] for a in (l, x, prev, cur, expo, unscale))
        # at n = 0 the prev term vanishes and the divisor is sqrt(1 + l)
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
        yield nxt * unscale
        prev, cur = cur, nxt


def _radial_log_row0(l, s: np.ndarray) -> np.ndarray:
    """log psi_{0,l}(s) = log(sqrt(2/l!) s^l exp(-s^2/2)), -inf at s = 0 for l > 0."""
    l_log_s = np.where(s > 0, l * np.log(np.where(s > 0, s, 1.0)),
                       np.where(l > 0, -np.inf, 0.0))
    return 0.5 * (np.log(2.0) - gammaln(l + 1.0)) + l_log_s - 0.5 * (s * s)


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
    lane = np.full((1,) * (s.ndim + 1), float(l))
    return np.stack([row[0] for row in _normalized_recurrence(
        np.array([n_max]), lane, s * s, _radial_log_row0(lane, s))])


def _gauss_modes(n_max: np.ndarray, l: np.ndarray, gamma: float):
    """Orthonormal Laguerre rows times sqrt of Gauss weights for t^{l+gamma} e^{-t}.

    One lane per entry of the column l, with n_max[i] + 1 Gauss nodes in lane
    i (n_max nonincreasing).  Yields rows n as _normalized_recurrence does:
    row n, lane i holds sqrt(n!/(n+l)!) L_n^l(t_q) sqrt(w_q) at the nodes of
    the lane (the t = s^2 substitution Jacobian absorbs the radial sqrt(2)),
    so U @ U.T over the rows of one lane is the weighted Gram, exactly: the
    quadrature integrates polynomial degree 2 n_max + 1 without error.  The
    nodes are the eigenvalues of the Jacobi matrix.  The weights are
    Christoffel numbers, w_q = t_q^alpha e^{-t_q} / sum_n phi_n(t_q)^2 with
    phi_n the orthonormal Laguerre functions of parameter alpha = l + gamma,
    assembled in log scale: each weight is then accurate in relative terms,
    however small, and the total mass Gamma(alpha + 1), which overflows for
    large l, never forms.  Lanes with fewer nodes than the first are padded
    with copies of their last node whose weight is masked to zero.
    """
    alpha = l + gamma
    width = int(n_max[0]) + 1
    t = np.empty((len(n_max), width))
    for row, cap, a in zip(t, n_max, alpha[:, 0]):
        k = np.arange(cap + 1, dtype=float)
        row[:cap + 1] = eigvalsh_tridiagonal(2.0 * k + a + 1.0,
                                             np.sqrt(k[1:] * (k[1:] + a)))
        row[cap + 1:] = row[cap]
    log_weight = alpha * np.log(t) - t
    christoffel = np.zeros_like(t)
    for phi in _normalized_recurrence(
            n_max, alpha, t, 0.5 * (log_weight - gammaln(alpha + 1.0))):
        christoffel[:len(phi)] += phi * phi
    log_w = log_weight - np.log(christoffel)
    real = np.arange(width) <= n_max[:, None]
    return _normalized_recurrence(
        n_max, l, t, np.where(real, 0.5 * (log_w - gammaln(l + 1.0)), -np.inf))


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
    modes = np.stack([row[0] for row in _gauss_modes(
        np.array([n_max]), np.array([[float(l)]]), gamma)])
    return modes @ modes.T


def _frequency_slab(vals: np.ndarray, s_u: np.ndarray,
                    gamma: float) -> np.ndarray:
    """Sum over l of the weighted quadratic forms of one torus frequency.

    vals[k] is the profile at level k = 2n + l.  The form of sector l is
    || s^gamma sum_n vals[2n + l] psi_{n,l}(s) psi_{n,l}(s_u) ||^2 over the
    radial measure, counted twice for l > 0 (the two signs of the angular
    momentum).  The l axis runs in blocks of consecutive l, as many as
    _BLOCK_BUDGET allows; a block takes one pass of the psi recurrence, at
    gamma > 0 in lockstep with its Gauss-mode recurrence, and stores no
    table.  Each (l, u) entry sees the same arithmetic in any block.
    """
    k_hi = vals.size - 1
    slab = np.zeros(s_u.shape)
    l0 = 0
    while l0 <= k_hi:
        nodes = (k_hi - l0) // 2 + 1 if gamma > 0 else 0
        lanes = int(_BLOCK_BUDGET / ((s_u.size + 1) * (nodes + 1)))
        l1 = min(k_hi + 1, l0 + max(1, lanes))
        l = np.arange(l0, l1, dtype=float)[:, None]
        n_max = (k_hi - np.arange(l0, l1)) // 2
        psi = _normalized_recurrence(n_max, l, s_u * s_u,
                                     _radial_log_row0(l, s_u))
        form = np.zeros((l1 - l0, s_u.size))
        if gamma == 0.0:
            # orthonormal modes: the Gram is the identity
            for n, row in enumerate(psi):
                coef = vals[2 * n + l0:2 * n + l0 + len(row), None] * row
                form[:len(row)] += np.abs(coef) ** 2
        else:
            synth = np.zeros((l1 - l0, s_u.size, nodes), dtype=vals.dtype)
            for n, (row, mode) in enumerate(
                    zip(psi, _gauss_modes(n_max, l, gamma))):
                coef = vals[2 * n + l0:2 * n + l0 + len(row), None] * row
                synth[:len(row)] += coef[:, :, None] * mode[:, None, :]
            # node by node, so the zero padded nodes leave each sum unchanged
            for q in range(nodes):
                form += np.abs(synth[:, :, q]) ** 2
        for l_i, row in enumerate(form, l0):
            slab += (2.0 if l_i > 0 else 1.0) * row
        l0 = l1
    return slab


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
        vals = np.asarray(profile((2.0 * np.arange(k_hi + 1) + _D1) * xi))
        if not vals.imag.any():
            vals = vals.real
        slab = _frequency_slab(vals, np.sqrt(xi) * u, gamma)
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
