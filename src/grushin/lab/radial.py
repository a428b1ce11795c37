"""Grid-free weighted column norms via the polar oscillator decomposition.

Specialized to two prime coordinates and one torus coordinate.  The level-k
eigenprojection of the 2-D oscillator splits over angular momentum l into
radial Laguerre modes psi_{n,l} (k = 2n + l), which turns the weighted L^2
norm of a multiplier column into small per-(xi, l) quadratic forms.  No
Cartesian grid appears: the weighted radial Gram matrices factor exactly by
the Laguerre connection formula (DLMF 18.18.18), so this path cross-validates
the tensor-grid engine rather than reusing it.  Its spectral window is the
engine's: oscillator.eigenvalue_cap and oscillator.torus_slabs.

At gamma = 0 no sector form is needed.  The squared column norm of a
frequency xi is 2 pi sum_k |F_k|^2 Q_k(s), s = sqrt(xi) u, where Q_k(s) =
sum_{a+b=k} h_a(s)^2 h_b(0)^2 is the diagonal of the level-k projection at
(s, 0) in Hermite functions h_a.  Regrouped it is 2 pi sum_a h_a(s)^2 W_a
with W_a = sum_{b even} h_b(0)^2 |F_{a+b}|^2, which depends on the frequency
only.  By DLMF 18.7.19-20, h_{2n}(s) and h_{2n+1}(s) are Laguerre functions
of parameter -1/2 and +1/2 in s^2, so two parity lanes of the same
recurrence give every h_a(s)^2: O(k_hi) entries per foot, against O(k_hi^2)
for the sectors.  Every term is nonnegative, so nothing cancels; the
alternating form (e^{-s^2}/pi) sum_{n<=k} (-1)^n L_n(2 s^2) of Q_k would lose
all its digits near the turning point.  At gamma > 0 the weight does not
commute with the projections, and each sector (xi, l) keeps its lane.

The zero torus frequency is left out of the sum.  The lattice sum over xi
is a Riemann sum of the continuum xi-integral, in which the xi = 0 slab
carries the weight 1 / (2S) of every slab, falling like 1/S as the torus of
half period S grows: in these L^2 norms it is a compactification artifact.
The L^1 path of lab.columns keeps that slab, because in an L^1 norm it is
part of the x''-periodization of the kernel on R^2 x R.  Each convention is
the right one for its own norm.

One call evaluates the profile once, on the levels of all active torus
frequencies, and runs every lane (a parity at gamma = 0, a sector at
gamma > 0) in one vectorised recurrence over n: lanes in decreasing order of
their last row n_max, each retiring after it, so lanes of different
frequencies share a pass.  _BLOCK_BUDGET bounds the lanes of one pass; at
gamma > 0 the rows of a block meet the Gram factor in one matrix product.
So the passes of a call, each a Python loop over n, are bounded by its
blocks, not by its frequencies.  The forms are summed per frequency in lane
order, and the frequencies in ascending order, so at gamma = 0 every norm
has the arithmetic of a frequency-by-frequency sum.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import gammaln

from ..errors import DomainError, check_integer, check_real, real_array
from ..oscillator import eigenvalue_cap, torus_slabs

__all__ = [
    "laguerre_radial_table",
    "weighted_column_norms",
    "weighted_operator_norm",
]

_D1 = 2  # this fast path is specific to two prime coordinates
# floats a pass holds, about lanes * (feet + 1) * depth: seven arrays of
# lanes * feet (x, log row 0, the unscale factor, three recurrence buffers and
# the forms) and, at gamma > 0, two of rows * lanes * feet (the stacked
# coefficients and their product with T) for the rows n of the block's first
# lane; T adds rows^2 more.  The lanes are two parities per frequency at
# gamma = 0 and k_hi + 1 sectors at gamma > 0.  This keeps the peak of a
# 144-foot scan at R = 32 at that of a pass per frequency
_BLOCK_BUDGET = 5.6e5
# from this angular momentum on, _radial_log_row0 uses Stirling's form
_STIRLING_L = 20
_MAX_SCAN = 10 ** 5  # feet of a scan: 410 MB of forms at R = 32, S = pi


def _normalized_recurrence(n_max: np.ndarray, l: np.ndarray, x: np.ndarray,
                           log_row0: np.ndarray):
    """Yield rows n = 0..n_max of c_n L_n^l(x) exp(log_row0), c_n the sqrt ratio.

    Three-term recurrence with the orthonormal scaling sqrt(n!/(n+l)!) folded
    in.  Row 0 enters in log form and the recurrence runs on per-entry scaled
    mantissas with a log offset: starting values far below the underflow
    threshold can still climb back to order one by the time n reaches the
    classically allowed range, which plain arithmetic would lose to a hard
    zero.  Emitted rows are unscaled; entries whose true size is below the
    double floor come out as exact zeros.  Each row is a work buffer that the
    caller may overwrite and that the next row reuses.

    The leading axis holds lanes: n_max has one entry per lane, in
    nonincreasing order, and l is a matching column; x may differ per lane.
    Row n holds the leading lanes with n_max >= n, so a lane costs no work
    past its own last row.  Every entry sees the same arithmetic as in a run
    of its lane alone.
    """
    shape = np.broadcast_shapes(l.shape, np.shape(x), np.shape(log_row0))
    x = np.broadcast_to(x, shape)  # read-only views, sliced as lanes retire
    expo = np.broadcast_to(log_row0, shape)
    # orthonormal-scaled rows are O(1) where the modes live, so capping the
    # emission exponent only suppresses values already below the double floor
    unscale = np.exp(np.minimum(expo, 709.0))
    work = unscale.copy()
    yield work
    # alive[n]: the lanes with n_max > n, which take the step n -> n + 1
    alive = np.searchsorted(-n_max, -np.arange(n_max[0]), side="left")
    prev = np.zeros(shape)
    cur = np.ones(shape)  # scaled row 0 mantissa
    for n, m in enumerate(alive.tolist()):
        if m < len(cur):
            l, x, prev, cur, work, expo, unscale = (
                a[:m] for a in (l, x, prev, cur, work, expo, unscale))
        # nxt = ((2n + 1 + l - x) cur - sqrt(n (n + l)) prev)
        #       / sqrt((n + 1)(n + 1 + l)), built in prev, which is spent;
        # at n = 0 the prev term vanishes and the divisor is sqrt(1 + l)
        np.subtract(2.0 * n + 1.0 + l, x, out=work)
        work *= cur
        prev *= np.sqrt(n * (n + l))
        np.subtract(work, prev, out=prev)
        prev /= np.sqrt((n + 1.0) * (n + 1.0 + l))
        nxt = prev
        if nxt.max(initial=0.0) > 1e200 or nxt.min(initial=0.0) < -1e200:
            scale = np.abs(nxt)
            np.copyto(scale, 1.0, where=~(scale > 1e200))
            nxt /= scale
            cur /= scale
            expo = np.add(expo, np.log(scale, out=scale), out=scale)
            np.exp(np.minimum(expo, 709.0, out=unscale), out=unscale)
        yield np.multiply(nxt, unscale, out=work)
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
    # lanes of both kinds (l a column over the lanes of s): each subset of
    # lanes by its own form
    small = small[:, 0]
    out = np.empty(s.shape)
    out[small] = _log_row0_direct(l[small], s[small])
    out[~small] = _log_row0_stirling(l[~small], s[~small])
    return out


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


def _parity_log_row0(l, s: np.ndarray) -> np.ndarray:
    """log h_0(s) on even lanes (l = -1/2) and log h_1(s) on odd ones (l = +1/2).

    h_0(s) = pi^{-1/4} e^{-s^2/2} and h_1(s) = sqrt(2) s h_0(s), -inf at
    s = 0.  With these starts the rows of _normalized_recurrence in x = s^2
    are h_{2n}(s) and h_{2n+1}(s) up to the sign (-1)^n.
    """
    with np.errstate(divide="ignore"):  # s = 0 on an odd lane
        odd = np.where(l > 0, 0.5 * np.log(2.0) + np.log(s), 0.0)
    return odd - 0.5 * (s * s) - 0.25 * np.log(np.pi)


def _diagonal_weights(vals: np.ndarray, k_his: np.ndarray) -> np.ndarray:
    """2 pi W_a, W_a = sum_{b even} h_b(0)^2 |F_{a+b}|^2, frequency by frequency.

    vals lists the profile at the levels 0..k_hi of each frequency in turn,
    and the weights come out in the same places.  h_{2m}(0)^2 =
    Gamma(m + 1/2) / (pi m!) is a product of positive ratios, and each W is
    one correlation of positive terms.
    """
    top = k_his.max(initial=0)
    m = np.arange(1.0, top // 2 + 1)
    even = np.zeros(top + 1)  # h_b(0)^2: zero at odd b
    even[::2] = np.cumprod(np.concatenate(([np.pi ** -0.5],
                                           (m - 0.5) / m)))
    power = 2.0 * np.pi * vals * vals
    weights = np.empty_like(power)
    stop = np.cumsum(k_his + 1)
    for a, b in zip((stop - k_his - 1).tolist(), stop.tolist()):
        weights[a:b] = np.correlate(power[a:b], even[:b - a], "full")[b - a - 1:]
    return weights


def laguerre_radial_table(n_max: int, l: int, s: np.ndarray) -> np.ndarray:
    """Rows n = 0..n_max of psi_{n,l}(s), orthonormal for the weight s ds.

    psi_{n,l}(s) = sqrt(2 n! / (n+l)!) s^l L_n^l(s^2) exp(-s^2/2).  The l > 0
    modes vanish at s = 0; the l = 0 modes take the value sqrt(2) (n even
    sign convention of L_n(0) = 1).
    """
    check_integer(n_max, "n_max")
    check_integer(l, "l")
    s = real_array(s, "radial coordinate s", 0.0)
    lane = np.full((1,) * (s.ndim + 1), float(l))
    return np.stack([row[0].copy() for row in _normalized_recurrence(
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
        ([0.0], np.cumsum(np.log1p(gamma / np.arange(1.0, l.max() + width)))))
    log_e_prime = log_e - 0.5 * rho[l.astype(int) + np.arange(width)]
    real = k <= n_max[:, None]
    shift = 0.5 * log_e[np.arange(len(n_max)), n_max, None]
    return (np.exp(np.where(real, log_e - shift, -np.inf)),
            toeplitz(c, np.zeros(width)),
            np.exp(np.where(real, shift - log_e_prime, -np.inf)))


def _block_forms(vals: np.ndarray, base: np.ndarray, n_max: np.ndarray,
                 l: np.ndarray, root_xi: np.ndarray, u: np.ndarray,
                 gamma: float) -> np.ndarray:
    """The form of each lane of one block, at each foot u.

    Lane i has the radial argument s_u = root_xi[i] u, and its row n belongs
    to level 2n + (its lowest level) of its frequency, whose entry in vals is
    vals[base[i] + 2n]; vals lists the levels of each frequency in turn.

    At gamma = 0 lane i is a parity, l = -1/2 (even) or +1/2 (odd), its
    rows are h_a(s_u), a = 2n or 2n + 1, and vals holds the diagonal weights
    2 pi W_a of _diagonal_weights: the form is sum_n h_a(s_u)^2 2 pi W_a.

    At gamma > 0 lane i is a sector (xi, l), vals holds the profile, and the
    form || s^gamma sum_n a_n psi_{n,l} ||^2 with a_n = vals[base + 2n]
    psi_{n,l}(s_u) is sum_k |sum_n a_n M[n, k]|^2 for the Gram factor M of
    _gauss_modes.

    The block takes one pass of the recurrence and, at gamma > 0, one
    product with T.  At gamma = 0 each (lane, u) entry sees the same
    arithmetic in any block; at gamma > 0 BLAS may group the sums of the
    product by the block's shape.
    """
    s_u = root_xi[:, None] * u
    log_row0 = (_parity_log_row0 if gamma == 0.0 else _radial_log_row0)(l, s_u)
    psi = _normalized_recurrence(n_max, l, np.multiply(s_u, s_u, out=s_u),
                                 log_row0)
    del s_u, log_row0  # the recurrence alone holds them, so a rescale frees
    if gamma == 0.0:
        form = np.zeros((l.size, u.size))
        for n, row in enumerate(psi):
            np.square(row, out=row)
            row *= vals[base[:len(row)] + 2 * n, None]
            form[:len(row)] += row
        return form
    rows = int(n_max[0]) + 1
    e, t, ep_inv = _gauss_modes(n_max, l, gamma)
    coef = np.zeros((rows, l.size, u.size))
    for n, row in enumerate(psi):  # a_n E[n], zero past a lane's end
        row *= vals[base[:len(row)] + 2 * n, None]
        np.multiply(row, e[:len(row), n, None], out=coef[n, :len(row)])
    mixed = (t.T @ coef.reshape(rows, -1)).reshape(coef.shape)
    mixed *= ep_inv.T[:, :, None]
    return np.einsum("nlu,nlu->lu", mixed, mixed)


def _lanes(count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(frequency, index within it) of each lane, count[j] lanes at frequency j."""
    freq = np.repeat(np.arange(count.size), count)
    return freq, np.arange(freq.size) - (np.cumsum(count) - count)[freq]


def weighted_column_norms(profile, u, gamma: float, torus_half_period: float,
                          k_max: int, lambda_max: float) -> np.ndarray:
    """|| |x'|^gamma K_F(., y) ||_2 for columns at |y'| = u, vectorized in u.

    The column norm depends on y only through u = |y'| by rotation invariance
    in x' and translation invariance on the torus.  At gamma = 0 each
    frequency takes two Hermite parity lanes against its level-diagonal
    weights; at gamma > 0 it takes one Laguerre lane per sector (xi, l),
    l = 0..k_hi, and its Gram factor (module docstring).  Levels beyond the
    k_max policy raise TruncationError naming the offending frequency;
    numbers follow the rule of grushin.errors.
    """
    u = np.atleast_1d(real_array(u, "radius u", 0.0))
    check_real(gamma, "gamma", 0.0)
    check_real(torus_half_period, "torus half period", 0.0, strict=True)
    check_integer(k_max, "k_max")
    top = eigenvalue_cap(profile, lambda_max)
    # the active torus frequencies, ascending
    active = [(xi, k_hi) for xi, k_lo, k_hi in torus_slabs(
        profile, top, np.pi / torus_half_period, _D1, k_max) if k_hi >= k_lo]
    xis = np.array([xi for xi, _ in active])
    k_his = np.array([k_hi for _, k_hi in active], dtype=int)
    # the levels 0..k_hi of each frequency in turn; level 0 of frequency j is
    # at first[j]
    first = np.cumsum(k_his + 1) - k_his - 1
    freq, low = _lanes(k_his + 1)
    vals = profile((2.0 * low + _D1) * xis[freq])
    if gamma == 0.0:  # two parity lanes, one where k_hi = 0
        vals = _diagonal_weights(vals, k_his)
        freq, low = _lanes(np.minimum(k_his, 1) + 1)
        l = low - 0.5
    else:  # one lane per sector (xi, l), its lowest level l
        l = low
    # row n of a lane is level 2n + low of its frequency, at vals[base + 2n]
    base = first[freq] + low
    n_max = (k_his[freq] - low) // 2
    # lanes by decreasing n_max, as the recurrence takes them; the sort is
    # stable, so within a frequency the lowest level still ascends
    order = np.argsort(-n_max, kind="stable")
    slabs = np.zeros((k_his.size, u.size))
    i = 0
    while i < order.size:
        depth = 7 + (2 * (n_max[order[i]] + 1) if gamma > 0 else 0)
        block = order[i:i + max(1, int(_BLOCK_BUDGET / ((u.size + 1) * depth)))]
        i += block.size
        form = _block_forms(vals, base[block], n_max[block],
                            l[block, None].astype(float),
                            np.sqrt(xis[freq[block]]), u, gamma)
        if gamma > 0:
            form *= np.where(l[block] > 0, 2.0, 1.0)[:, None]  # signs of l
        np.add.at(slabs, freq[block], form)  # in lane order
        del form  # before the next block allocates its own
    total = np.zeros(u.shape)
    for xi_j, slab in zip(xis.tolist(), slabs):
        total += 2.0 * xi_j ** (1.0 - gamma) / (2.0 * np.pi) * slab
    return np.sqrt(total / (2.0 * torus_half_period))


def weighted_operator_norm(profile, gamma: float, torus_half_period: float,
                           k_max: int, lambda_max: float,
                           n_scan: int = 97) -> Tuple[float, float]:
    """max_u || |x'|^gamma K_F(., y(u)) ||_2 and the maximizing radius.

    This is the L^1 -> L^2 operator norm of w_gamma F(L).  The scan spans
    the classically allowed reach of the lowest active torus frequency, u
    from 0 to sqrt(top) / dxi + 1; the search is a dense scan with extra
    density near the axis, then two local grid-refinement rounds.  A ball
    cutoff on the input side is a scan of weighted_column_norms over the
    feet in the ball.  gamma and k_max are checked by the first scan; an
    n_scan above _MAX_SCAN raises DomainError before any allocation.
    """
    check_real(torus_half_period, "torus half period", 0.0, strict=True)
    check_integer(n_scan, "n_scan", minimum=5)
    if n_scan > _MAX_SCAN:
        raise DomainError(f"n_scan = {n_scan} is above {_MAX_SCAN}")
    top = eigenvalue_cap(profile, lambda_max)
    dxi = np.pi / torus_half_period
    u_hi = np.sqrt(top) / dxi + 1.0

    def norms(us):
        return weighted_column_norms(profile, us, gamma, torus_half_period,
                                     k_max, lambda_max)

    us = np.linspace(0.0, u_hi, n_scan)
    if u_hi > 4.0:
        # weighted peaks tend to sit near the axis; keep that region resolved
        us = np.unique(np.concatenate([us, np.linspace(0.0, 2.0, 49)]))
    vals = norms(us)
    best_i = int(np.argmax(vals))
    best_u, best = float(us[best_i]), float(vals[best_i])
    half = (us[min(best_i + 1, us.size - 1)]
            - us[max(best_i - 1, 0)]) / 2.0
    for _ in range(2):
        if half <= 0:
            break
        local = np.linspace(max(0.0, best_u - half),
                            min(u_hi, best_u + half), 17)
        lvals = norms(local)
        i = int(np.argmax(lvals))
        if lvals[i] > best:
            best, best_u = float(lvals[i]), float(local[i])
        half /= 8.0
    return best, best_u
