"""Grid-free weighted column norms via the polar oscillator decomposition.

Specialized to two prime coordinates and one torus coordinate.  The level-k
eigenprojection of the 2-D oscillator splits over angular momentum l into
radial Laguerre modes psi_{n,l} (k = 2n + l), which turns the weighted L^2
norm of a multiplier column into small per-(xi, l) quadratic forms.  No
Cartesian grid appears: the weighted radial Gram matrices factor exactly by
the Laguerre connection formula (DLMF 18.18.18), so this path cross-validates
the tensor-grid engine rather than reusing it.

The zero torus frequency is excluded from the sum: the lattice sum is a
Riemann approximation of the continuum xi-integral and the xi = 0 term is a
measure-zero compactification artifact (its weight vanishes as the torus
grows).  All norms here follow that convention.

Each torus frequency xi costs one profile evaluation at its levels and a few
vectorised passes: consecutive l run side by side as lanes of one recurrence
over n, a lane retiring after its last row n = (k_hi - l) // 2, and at
gamma > 0 the rows of a block meet the Gram factor in one matrix product.
_BLOCK_BUDGET bounds the lanes of one pass, so its memory stays flat.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import gammaln

from ..errors import DomainError, TruncationError
from ..oscillator import active_level_range

__all__ = [
    "laguerre_radial_table",
    "weighted_column_norms",
    "weighted_operator_norm",
]

_D1 = 2  # this fast path is specific to two prime coordinates
# floats per block of l: lanes * (feet + 1), times at gamma > 0 the rows n of
# the block's first lane (the stacked coefficients; T adds rows^2 more)
_BLOCK_BUDGET = 1.25e5
# from this angular momentum on, _radial_log_row0 uses Stirling's form
_STIRLING_L = 20


def _normalized_recurrence(n_max: np.ndarray, l: np.ndarray, x: np.ndarray,
                           log_row0: np.ndarray):
    """Yield rows n = 0..n_max of c_n L_n^l(x) exp(log_row0), c_n the sqrt ratio.

    Three-term recurrence with the orthonormal scaling sqrt(n!/(n+l)!) folded
    in.  Row 0 enters in log form and the recurrence runs on per-entry scaled
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
    shape = np.broadcast_shapes(l.shape, np.shape(x), np.shape(log_row0))
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
            l, prev, cur, expo, unscale = (
                a[:m] for a in (l, prev, cur, expo, unscale))
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
    """log psi_{0,l}(s) = log(sqrt(2/l!) s^l exp(-s^2/2)), -inf at s = 0 for l > 0.

    Its terms log l!, l log s and s^2 each reach about l log l, far above
    their sum, so lanes with l >= _STIRLING_L take the form of
    _log_row0_stirling instead.
    """
    l = np.asarray(l, dtype=float)
    small = l < _STIRLING_L
    if small.all():
        return _log_row0_direct(l, s)
    if not small.any():
        return _log_row0_stirling(l, s)
    return np.where(small, _log_row0_direct(l, s),
                    _log_row0_stirling(np.maximum(l, _STIRLING_L), s))


def _log_row0_direct(l, s):
    l_log_s = np.where(s > 0, l * np.log(np.where(s > 0, s, 1.0)),
                       np.where(l > 0, -np.inf, 0.0))
    return 0.5 * (np.log(2.0) - gammaln(l + 1.0)) + l_log_s - 0.5 * (s * s)


def _log_row0_stirling(l, s):
    """log psi_{0,l}(s) for l > 0 as
    1/2 log 2 - 1/4 log(2 pi l) - 1/2 b(l) + 1/2 l (log1p(x - 1) - (x - 1)),
    x = s^2 / l, where b(l) = 1/(12 l) - 1/(360 l^3) + 1/(1260 l^5)
    - 1/(1680 l^7) + 1/(1188 l^9) is Stirling's series of
    log l! - (l log l - l + 1/2 log(2 pi l)).  Its next term,
    691/(360360 l^11), is below 1e-17 from l = 20 on.
    """
    y = s * s / l - 1.0
    with np.errstate(divide="ignore"):  # s = 0: log1p(-1) = -inf
        gap = np.log1p(y) - y
    inv2 = 1.0 / (l * l)
    b = (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 * (
        1.0 / 1680.0 - inv2 / 1188.0)))) / l
    return (0.5 * np.log(2.0) - 0.25 * np.log(2.0 * np.pi * l) - 0.5 * b
            + 0.5 * l * gap)


def laguerre_radial_table(n_max: int, l: int, s: np.ndarray) -> np.ndarray:
    """Rows n = 0..n_max of psi_{n,l}(s), orthonormal for the weight s ds.

    psi_{n,l}(s) = sqrt(2 n! / (n+l)!) s^l L_n^l(s^2) exp(-s^2/2).  The l > 0
    modes vanish at s = 0; the l = 0 modes take the value sqrt(2) (n even
    sign convention of L_n(0) = 1).
    """
    if n_max < 0 or l < 0:
        raise DomainError("need n_max >= 0 and l >= 0")
    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0) & (s < np.inf)):
        raise DomainError("s is a radial coordinate; need finite s >= 0")
    lane = np.full((1,) * (s.ndim + 1), float(l))
    return np.stack([row[0] for row in _normalized_recurrence(
        np.array([n_max]), lane, s * s, _radial_log_row0(lane, s))])


def _gauss_modes(n_max: np.ndarray, l: np.ndarray, gamma: float):
    """Closed-form factor (E, T, 1/E') of the weighted Gram of each lane.

    DLMF 18.18.18 (lambda = l, mu = l + gamma) gives L_n^l = sum_k c_{n-k}
    L_k^{l+gamma}, c_i = (-gamma)_i / i!, and the L_k^{l+gamma} are
    orthogonal for t^{l+gamma} e^{-t}.  In t = s^2 the weighted Gram
    int_0^inf s^{2 gamma + 1} psi_{n,l} psi_{m,l} ds is then M M^T,
    M[n, k] = E[n] T[n, k] / E'[k] with T[n, k] = c_{n-k} (zero for k > n;
    shared by all lanes and frequencies), E[n] = sqrt(n!/(n+l)!) and
    E'[k] = sqrt(k!/Gamma(k+l+gamma+1)).  Lanes are as in
    _normalized_recurrence; the rows of E and 1/E' stop at n_max of their
    lane and share a lane constant centring log E (range e^{+-960} at k_hi =
    3999).  benchmark/tracer.py times this function as radial.gauss_modes.
    """
    width = int(n_max[0]) + 1
    k = np.arange(width, dtype=float)
    c = np.cumprod(np.concatenate(([1.0], (k[1:] - 1.0 - gamma) / k[1:])))
    # log-ratio sums, not log Gamma, whose rounding near l log l reaches E / E'
    # (4e-12 at l = 4000); rho[x - 1] = log Gamma(x + gamma) - log Gamma(x)
    log_e = np.zeros((len(n_max), width))
    np.cumsum(0.5 * np.log(k[1:] / (k[1:] + l)), axis=1, out=log_e[:, 1:])
    rho = gammaln(1.0 + gamma) + np.concatenate(
        ([0.0], np.cumsum(np.log1p(gamma / np.arange(1.0, l[-1, 0] + width)))))
    log_e_prime = log_e - 0.5 * rho[l.astype(int) + np.arange(width)]
    real = k <= n_max[:, None]
    shift = 0.5 * log_e[np.arange(len(n_max)), n_max, None]
    return (np.exp(np.where(real, log_e - shift, -np.inf)),
            toeplitz(c, np.zeros(width)),
            np.exp(np.where(real, shift - log_e_prime, -np.inf)))


def _frequency_slab(vals: np.ndarray, s_u: np.ndarray,
                    gamma: float) -> np.ndarray:
    """Sum over l of the weighted quadratic forms of one torus frequency.

    vals[k] is the profile at level k = 2n + l.  The form of sector l,
    || s^gamma sum_n a_n psi_{n,l}(s) ||^2 with a_n = vals[2n + l]
    psi_{n,l}(s_u), is sum_k |sum_n a_n M[n, k]|^2 for the Gram factor M of
    _gauss_modes, counted twice for l > 0 (the two signs of the angular
    momentum).  The l axis runs in blocks of consecutive l, as many as
    _BLOCK_BUDGET allows; a block takes one pass of the psi recurrence and,
    at gamma > 0, one product with T.  At gamma = 0 each (l, u) entry sees
    the same arithmetic in any block; at gamma > 0 BLAS may group the sums
    of the product by the block's shape.
    """
    k_hi = vals.size - 1
    slab = np.zeros(s_u.shape)
    l0 = 0
    while l0 <= k_hi:
        rows = (k_hi - l0) // 2 + 1 if gamma > 0 else 1
        lanes = int(_BLOCK_BUDGET / ((s_u.size + 1) * rows))
        l1 = min(k_hi + 1, l0 + max(1, lanes))
        l = np.arange(l0, l1, dtype=float)[:, None]
        n_max = (k_hi - np.arange(l0, l1)) // 2
        psi = _normalized_recurrence(n_max, l, s_u * s_u,
                                     _radial_log_row0(l, s_u))
        if gamma == 0.0:  # orthonormal modes: the Gram is the identity
            form = np.zeros((l1 - l0, s_u.size))
            for n, row in enumerate(psi):
                coef = vals[2 * n + l0:2 * n + l0 + len(row), None] * row
                form[:len(row)] += np.abs(coef) ** 2
        else:
            e, t, ep_inv = _gauss_modes(n_max, l, gamma)
            coef = np.zeros((rows, l1 - l0, s_u.size))
            for n, row in enumerate(psi):  # a_n E[n], zero past a lane's end
                coef[n, :len(row)] = vals[2 * n + l0:2 * n + l0 + len(row),
                                          None] * row * e[:len(row), n, None]
            mixed = (t.T @ coef.reshape(rows, -1)).reshape(coef.shape)
            mixed *= ep_inv.T[:, :, None]
            form = np.einsum("nlu,nlu->lu", mixed, mixed)
            del e, t, ep_inv, coef, mixed  # free them before the next block
        for l_i, row in enumerate(form, l0):
            slab += (2.0 if l_i > 0 else 1.0) * row
        l0 = l1
    return slab


def _eigenvalue_cap(profile, gamma: float, torus_half_period: float,
                    k_max: int, lambda_max: float) -> float:
    """Validate the shared arguments; return the eigenvalue cap."""
    if not 0.0 <= gamma < np.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma!r}")
    if not 0.0 < torus_half_period < np.inf:
        raise DomainError("torus half period must be finite and positive")
    if not k_max >= 0:
        raise DomainError(f"k_max must be >= 0, got {k_max!r}")
    if np.isnan(lambda_max):
        raise DomainError("lambda_max is NaN; pass inf for no cap")
    top = min(profile.support[1], lambda_max)
    if not np.isfinite(top) or top <= 0:
        raise DomainError("need a finite positive eigenvalue cap; lower "
                          "lambda_max or use a compactly supported profile")
    return top


def weighted_column_norms(profile, u, gamma: float, torus_half_period: float,
                          k_max: int, lambda_max: float) -> np.ndarray:
    """|| |x'|^gamma K_F(., y) ||_2 for columns at |y'| = u, vectorized in u.

    The column norm depends on y only through u = |y'| by rotation invariance
    in x' and translation invariance on the torus.  Levels beyond the k_max
    policy raise TruncationError naming the offending frequency; non-finite
    or out-of-domain arguments raise DomainError.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all((u >= 0) & (u < np.inf)):
        raise DomainError("u is a radius; need finite u >= 0")
    top = _eigenvalue_cap(profile, gamma, torus_half_period, k_max, lambda_max)
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
        vals = profile((2.0 * np.arange(k_hi + 1) + _D1) * xi)
        slab = _frequency_slab(vals, np.sqrt(xi) * u, gamma)
        total += 2.0 * xi ** (1.0 - gamma) / (2.0 * np.pi) * slab
    return np.sqrt(total / (2.0 * torus_half_period))


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
    top = _eigenvalue_cap(profile, gamma, torus_half_period, k_max, lambda_max)
    dxi = np.pi / torus_half_period
    if u_range is None:
        u_range = (0.0, np.sqrt(top) / dxi + 1.0)
    # np.maximum keeps a NaN lower end, which max() would drop
    u_lo, u_hi = float(np.maximum(0.0, u_range[0])), float(u_range[1])
    if not u_lo <= u_hi < np.inf:
        raise DomainError(f"need a finite nonempty u range, got {u_range!r}")
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
