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

Away from the axis most sectors of a gamma > 0 call sit deep in a forbidden
zone.  Every row of the lane (xi, l) lives in the classical region of its
frequency's top level, l^2/s^2 + s^2 <= 2 (k_hi + 1), and past it decays
like e^{-D}, D the Agmon distance from the region.  A (lane, foot) pair with
D >= -log(eps) is skipped: its form there, below eps^2 of what its rows
would give at full size, is exactly 0 (_kept_range; the forms skipped at
the feet of the benchmark's balls are at most 6.8e-37 of the largest kept
one).  A lane that no foot of the call keeps leaves the passes, and a pass
runs only the feet that one of its lanes keeps.  The rule reads the lane
and the foot alone, so it adds no dependence of a foot's norm on the other
feet of its call.

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
frequencies share a pass.  A pass builds the recurrence coefficients of all
its (n, lane) entries before its loop, so each step of the loop is a few
array operations on the (lanes, feet) rows.  _BLOCK_BUDGET bounds the
floats of one pass.  At gamma > 0 the rows of a block, scaled by E, meet the
Gram factor M = E T / E' in a product with T that is written over them band
by band (_BAND) and skips T's upper triangle.  T depends on gamma alone, so
one T per call, sized for the longest lane, serves every block by its
leading submatrix.  So the passes of a call, each a Python loop over n, are
bounded by its blocks, not by its frequencies; the level ranges, the
gamma = 0 weights and the closing sum are array operations over all
frequencies at once.  The forms are summed per frequency in lane order, and
the frequencies in ascending order as a running sum, so at gamma = 0 every
norm has the arithmetic of a frequency-by-frequency sum, whatever the number
of feet.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from ..errors import DomainError, check_integer, check_real, real_array
from ..oscillator import eigenvalue_cap, torus_slabs

__all__ = [
    "laguerre_radial_table",
    "weighted_column_norms",
    "weighted_operator_norm",
]

_D1 = 2  # this fast path is specific to two prime coordinates
# floats a pass holds, 7 (feet + 1) per lane: seven arrays of lanes * feet
# (x, log row 0, the unscale factor, three recurrence buffers and the forms).
# At gamma > 0 a lane of r rows (those of the block's first lane) adds
# r (feet + 8) + min(r, _BAND) feet: per (lane, row) the stacked
# coefficients (feet floats), E and 1/E', the profile value, the three
# recurrence coefficients and two more while those are built, and the
# product's temporary of min(r, _BAND) rows.  The stacked coefficients, the
# largest array of a pass, also stay within half the budget (2 r feet per
# lane): glibc's malloc raises its mmap threshold to the largest array
# freed, and arrays below it stay in the heap, so without this cap the peak
# resident memory of a benchmark round read 0.44 MB higher (median of 24
# rounds).  At gamma = 0 the lanes are two parities per frequency, whose
# n_max fall like 1/xi, and their per-row floats are not counted.  Nor is
# the one T of a call (rows^2 for its longest lane).  This keeps the peak of
# a 144-foot scan at R = 32 at that of a pass per frequency
_BLOCK_BUDGET = 5.6e5
# from this angular momentum on, _radial_log_row0 uses Stirling's form
_STIRLING_L = 20
_MAX_SCAN = 10 ** 5  # feet of a scan: 410 MB of forms at R = 32, S = pi
# radial arguments s past this are taken as it: every row there is e^{-s^2/2}
# times a polynomial of degree <= 2 n_max + l in s, far below the double
# floor, and s^2 <= 1e100 keeps the recurrence's products finite
_S_CAP = 1e50
# a sector lane is skipped at a foot whose Agmon distance from the lane's
# classical region is at least this: its rows there are below eps
# (_kept_range)
_AGMON = -np.log(np.finfo(float).eps)
# _kept_range's Newton steps stop after one that moves no edge by more than
# this in log x: the next would move an edge by about its square, which is
# below rounding
_NEWTON_STOP = 1e-8
# rows of T^T coef per product: the products skip T's upper triangle but for
# the diagonal blocks, 1/2 + _BAND / (2 rows) of the full product's
# multiply-adds, and hold a _BAND-row temporary.  They run on numpy's BLAS.
# scipy's trmm would skip the whole triangle, but scipy links an OpenBLAS of
# its own, whose first call leaves ~1.2 MB of buffers resident beside
# numpy's: with it a benchmark round read 0.3 MB more peak resident memory
# than with the full product (median of 24 rounds)
_BAND = 32


def _rows(n_max: np.ndarray):
    """(count, n, lane): the entries of rows n = 0..n_max[0] of a pass.

    n_max is nonincreasing over the lanes, and row n holds the count[n]
    leading lanes, those with n_max >= n.  n and lane list the entries row
    by row, so row n is the slice [sum(count[:n]), sum(count[:n + 1])).
    """
    count = np.searchsorted(-n_max, -np.arange(n_max[0] + 1), side="right")
    return (count, *_lanes(count))


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
    Row n holds the leading lanes with n_max >= n (_rows), so a lane costs
    no work past its own last row.  The coefficients of every step are built
    before the first, with the arithmetic of one step at a time, so every
    entry sees the same arithmetic as in a run of its lane alone.
    """
    shape = np.broadcast_shapes(l.shape, np.shape(x), np.shape(log_row0))
    x = np.broadcast_to(x, shape)  # read-only views, sliced as lanes retire
    expo = np.broadcast_to(log_row0, shape)
    # orthonormal-scaled rows are O(1) where the modes live, so capping the
    # emission exponent only suppresses values already below the double floor
    unscale = np.exp(np.minimum(expo, 709.0))
    work = unscale.copy()
    yield work
    # the step n -> n + 1 takes the lanes of row n + 1:
    # nxt = ((2n + 1 + l - x) cur - sqrt(n (n + l)) prev)
    #       / sqrt((n + 1)(n + 1 + l)), built in prev, which is spent;
    # at n = 0 the prev term vanishes and the divisor is sqrt(1 + l)
    count, n, lane = _rows(n_max)
    l = l[lane[count[0]:]]
    del lane
    n = (n[count[0]:] - 1.0).reshape(l.shape)
    # in place, so that n and l are the only temporaries (_BLOCK_BUDGET)
    diag = 2.0 * n
    diag += 1.0
    diag += l
    back = n + l
    back *= n
    np.sqrt(back, out=back)
    n += 1.0
    ahead = n + l
    ahead *= n
    np.sqrt(ahead, out=ahead)
    del n, l
    prev = np.zeros(shape)
    cur = np.ones(shape)  # scaled row 0 mantissa
    stop = 0
    for m in count[1:].tolist():
        start, stop = stop, stop + m
        if m < len(cur):
            x, prev, cur, work, expo, unscale = (
                a[:m] for a in (x, prev, cur, work, expo, unscale))
        np.subtract(diag[start:stop], x, out=work)
        work *= cur
        prev *= back[start:stop]
        np.subtract(work, prev, out=prev)
        prev /= ahead[start:stop]
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
    """2 pi W_a, W_a = sum_{b even} h_b(0)^2 |F_{a+b}|^2, for every frequency.

    vals lists the profile at the levels 0..k_hi of each frequency in turn,
    and the weights come out in the same places.  h_{2m}(0)^2 =
    Gamma(m + 1/2) / (pi m!) is a product of positive ratios.  A run of
    frequencies whose level counts k_hi + 1 round up to the same power of
    two w (at least 16) shares one zero-padded array of width 2 w, and their
    W are one contraction of its windows of width w at even steps with
    h_b(0)^2.  The level counts fall with the frequency, so there is a run
    per power of two, and every term is positive.
    """
    count = k_his + 1
    width = np.maximum(16, 2 ** np.ceil(np.log2(count)).astype(int))
    m = np.arange(1.0, int(width.max(initial=16)) // 2)
    even = np.cumprod(np.concatenate(([np.pi ** -0.5], (m - 0.5) / m)))
    power = 2.0 * np.pi * vals * vals
    weights = np.empty_like(power)
    ends = np.cumsum(count)
    starts = np.flatnonzero(np.diff(width, prepend=0)).tolist()
    for j0, j1 in zip(starts, starts[1:] + [count.size]):
        w, lo, hi = int(width[j0]), ends[j0] - count[j0], ends[j1 - 1]
        row, a = _lanes(count[j0:j1])
        padded = np.zeros((j1 - j0, 2 * w))
        padded[row, a] = power[lo:hi]
        # windows[., a, m] = padded[., a + 2 m]: zero past the frequency's top
        windows = sliding_window_view(padded, w, axis=1)[:, :w, ::2]
        weights[lo:hi] = np.einsum("fam,m->fa", windows, even[:w // 2])[row, a]
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
    """The diagonal scalings (E, 1/E') of the weighted Gram factor of each lane.

    DLMF 18.18.18 (lambda = l, mu = l + gamma) gives L_n^l = sum_k c_{n-k}
    L_k^{l+gamma}, c_i = (-gamma)_i / i!, and the L_k^{l+gamma} are
    orthogonal for t^{l+gamma} e^{-t}.  In t = s^2 the weighted Gram
    int_0^inf s^{2 gamma + 1} psi_{n,l} psi_{m,l} ds is then M M^T,
    M[n, k] = E[n] T[n, k] / E'[k] with T[n, k] = c_{n-k} (zero for k > n),
    E[n] = sqrt(n!/(n+l)!) and E'[k] = sqrt(k!/Gamma(k+l+gamma+1)).  T is
    the same for all lanes and frequencies: _connection_matrix builds it
    once per call, and a block takes its leading submatrix.  Lanes are as
    in _normalized_recurrence; the rows of E and 1/E' stop at n_max of
    their lane and share a lane constant centring log E (range e^{+-960} at
    k_hi = 3999).  benchmark/tracer.py times this function as
    radial.gauss_modes.
    """
    width = int(n_max[0]) + 1
    k = np.arange(width, dtype=float)
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
            np.exp(np.where(real, shift - log_e_prime, -np.inf)))


def _connection_matrix(width: int, gamma: float) -> np.ndarray:
    """T[n, k] = c_{n-k} (zero for k > n), c_i = (-gamma)_i / i!, width by width.

    The connection coefficients of _gauss_modes as a lower-triangular
    Toeplitz matrix.  A block of r rows takes its leading r by r submatrix.
    """
    k = np.arange(1.0, width)
    c = np.cumprod(np.concatenate(([1.0], (k - 1.0 - gamma) / k)))
    # row k of T^T is c behind k zeros, a window of (0, ..., 0, c)
    windows = sliding_window_view(np.concatenate((np.zeros(width - 1), c)),
                                  width)
    return np.ascontiguousarray(windows[::-1]).T


def _block_forms(vals: np.ndarray, base: np.ndarray, n_max: np.ndarray,
                 l: np.ndarray, root_xi: np.ndarray, u: np.ndarray,
                 gamma: float, t) -> np.ndarray:
    """The form of each lane of one block, at each foot u.

    Lane i has the radial argument s_u = root_xi[i] u (at most _S_CAP), and
    its row n belongs to level 2n + (its lowest level) of its frequency,
    whose entry in vals is vals[base[i] + 2n]; vals lists the levels of
    each frequency in turn.

    At gamma = 0 lane i is a parity, l = -1/2 (even) or +1/2 (odd), its
    rows are h_a(s_u), a = 2n or 2n + 1, and vals holds the diagonal weights
    2 pi W_a of _diagonal_weights: the form is sum_n h_a(s_u)^2 2 pi W_a.
    t is unused.

    At gamma > 0 lane i is a sector (xi, l), vals holds the profile, and the
    form || s^gamma sum_n a_n psi_{n,l} ||^2 with a_n = vals[base + 2n]
    psi_{n,l}(s_u) is sum_k |sum_n a_n M[n, k]|^2 for the Gram factor
    M = E T / E' of _gauss_modes.  t is the call's T (_connection_matrix),
    at least as wide as the block's rows.  The rows a_n E[n] of all lanes
    and feet are stacked in one array, which the product with T overwrites.

    The block takes one pass of the recurrence and, at gamma > 0, one
    product with T.  The bands of the product start at multiples of _BAND
    whatever the block, but BLAS may split the inner sum of a band, over
    its rows - k0 rows of coef, into panels by that length, so an entry's
    sum follows the block's longest lane: a product of 300 nonzero rows
    read the same zero-padded to 301 ... 600 rows and moved by 2.8e-14 at
    1 024.  So a (lane, u) entry sees the same arithmetic in any block
    while the lanes stay short (every call up to R = 32 at S = pi, at most
    257 rows, which the per-foot tests check), and past that a foot's form
    may move by rounding with the other lanes and feet of its block: a
    norm by 1.1e-16 relative at R = 64, S = pi, y = 3.
    """
    s_u = np.minimum(u, _S_CAP / root_xi[:, None])
    s_u *= root_xi[:, None]
    log_row0 = (_parity_log_row0 if gamma == 0.0 else _radial_log_row0)(l, s_u)
    psi = _normalized_recurrence(n_max, l, np.multiply(s_u, s_u, out=s_u),
                                 log_row0)
    del s_u, log_row0  # the recurrence alone holds them, so a rescale frees
    # the vals entry of every row of every lane, row by row (_rows)
    count, n, lane = _rows(n_max)
    scale = vals[base[lane] + 2 * n]
    del n, lane
    if gamma == 0.0:
        form = np.zeros((l.size, u.size))
        stop = 0
        for row in psi:
            start, stop = stop, stop + len(row)
            np.square(row, out=row)
            row *= scale[start:stop, None]
            form[:len(row)] += row
        return form
    rows = count.size
    e, ep_inv = _gauss_modes(n_max, l, gamma)
    coef = np.zeros((rows, l.size, u.size))
    stop = 0
    for k, row in enumerate(psi):  # a_n E[n], zero past a lane's end
        start, stop = stop, stop + len(row)
        row *= scale[start:stop, None]
        np.multiply(row, e[:len(row), k, None], out=coef[k, :len(row)])
    # T^T coef in place, _BAND rows at a time from the top: rows k0..k1 of
    # the product read the rows n >= k0 of coef, which no band before has
    # overwritten, and the rows n < k0, where T[n, k] = 0, not at all
    flat, t = coef.reshape(rows, -1), t[:rows, :rows]
    for k0 in range(0, rows, _BAND):
        flat[k0:k0 + _BAND] = t[k0:, k0:k0 + _BAND].T @ flat[k0:]
    coef *= ep_inv.T[:, :, None]
    return np.einsum("nlu,nlu->lu", coef, coef)


def _kept_range(l: np.ndarray, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(x_lo, x_hi): where each sector lane reaches rounding size, in x = s^2.

    Lane i is the sector l[i] of a frequency whose top level is h[i] - 1.
    Every row of the lane has a lower level, so it lives in the classical
    region l^2/s^2 + s^2 <= 2 h, the x in [a, b] with a + b = 2 h and
    a b = l^2, and decays monotonically past it.  The Agmon distance
    D = int sqrt(l^2/t^2 + t^2 - 2 h) dt from the region's edge to
    s = sqrt(x) bounds every row there by e^{-D} of its size (Agmon,
    Lectures on exponential decay, 1982).  In x it is
    int sqrt(|t - a| |t - b|) / (2 t) dt, whose closed form below holds on
    both sides of the region.  x_hi > b and, for l > 0, x_lo < a solve
    D = _AGMON, so a skipped row is below eps of its size and its share of
    a form below eps^2; at l = 0 the region reaches the axis, x_lo = 0.
    Newton's method in log x runs from the far side, where D is convex in
    log x: it starts where D >= (x - b)^2 / (4 x) >= _AGMON, or
    D >= (l / 2)(log(a / x) - 1 + x / a) >= _AGMON, and its steps never
    cross the root.  They stop after one that moves no edge by more than
    _NEWTON_STOP in log x, and after six at most, which reach the root
    within 1e-13 for h up to 3000 (and within 3e-5 at h = 1e5); short of it
    an edge errs towards keeping, so [x_lo, x_hi] always holds the x where
    D < _AGMON.
    """
    l, h = np.asarray(l, dtype=float), np.asarray(h, dtype=float)
    r = np.sqrt((h - l) * (h + l))  # l < h, so a < b
    b = h + r
    a = l * l / b
    # the outer edge of every lane, then the inner edge of each lane l > 0
    n, inner = l.size, np.flatnonzero(l > 0)
    lane = np.concatenate((np.arange(n), inner))
    outer = np.arange(lane.size) < n
    sign = np.where(outer, 1.0, -1.0)
    a, b, h, l, offset = (v[lane] for v in (a, b, h, l,
                                             (h - l) * np.log(2.0 * r)))
    y = np.log(np.where(
        outer, b + 2.0 * _AGMON + 2.0 * np.sqrt(_AGMON * (b + _AGMON)),
        a * np.exp(-2.0 * _AGMON / np.maximum(l, 1.0) - 1.0)))
    h2, l2, sign2 = 2.0 * h, 2.0 * l, 2.0 * sign
    for _ in range(6):
        x = np.exp(y)
        da, db = np.abs(x - a), np.abs(x - b)
        root = np.sqrt(da * db)
        gap = 0.5 * (sign * root + offset
                     - h2 * np.log(np.sqrt(da) + np.sqrt(db))
                     + l2 * np.log(np.sqrt(b * da) + np.sqrt(a * db))
                     - l * y) - _AGMON
        step = sign2 * gap / root
        y -= step
        if not np.max(np.abs(step), initial=0.0) > _NEWTON_STOP:
            break
    x = np.exp(y)
    x_lo = np.zeros(n)
    x_lo[inner] = x[n:]
    return x_lo, x[:n]


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
    l = 0..k_hi, and its Gram factor (module docstring).  At gamma > 0 a
    sector is skipped at each foot whose Agmon distance from the lane's
    classical region is at least -log(eps) (_kept_range): its form there is
    exactly 0, and the lane leaves the passes when every foot skips it.  The
    rule reads the lane and the foot alone, so it does not tie a foot's norm
    to the other feet of its call.  Levels beyond the k_max policy raise
    TruncationError naming the offending frequency; numbers follow the rule
    of grushin.errors.
    """
    u = np.atleast_1d(real_array(u, "radius u", 0.0))
    check_real(gamma, "gamma", 0.0)
    check_real(torus_half_period, "torus half period", 0.0, strict=True)
    check_integer(k_max, "k_max")
    top = eigenvalue_cap(profile, lambda_max)
    xis, k_los, k_his = torus_slabs(profile, top, np.pi / torus_half_period,
                                    _D1, k_max)
    live = k_his >= k_los  # the active torus frequencies, ascending
    xis, k_his = xis[live], k_his[live]
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
    root_xi = np.sqrt(xis[freq])
    lanes = np.arange(l.size)
    if gamma > 0:  # a sector is kept at the feet in [lo, hi], within
        # _AGMON of its classical region, and run if one of them is a foot
        lo, hi = (np.sqrt(x) / root_xi
                  for x in _kept_range(l, k_his[freq] + 1))
        ascending = np.sort(u)
        lanes = lanes[np.searchsorted(ascending, lo)
                      < np.searchsorted(ascending, hi, side="right")]
    # lanes by decreasing n_max, as the recurrence takes them; the sort is
    # stable, so within a frequency the lowest level still ascends
    order = lanes[np.argsort(-n_max[lanes], kind="stable")]
    t = (_connection_matrix(int(n_max[order].max(initial=0)) + 1, gamma)
         if gamma > 0 else None)
    slabs = np.zeros((k_his.size + 1, u.size))  # row 0: the empty sum
    feet = slice(None)  # at gamma = 0 every pass runs every foot
    i = 0
    while i < order.size:
        rows = n_max[order[i]] + 1
        per_lane = 7 * (u.size + 1)
        if gamma > 0:
            per_lane = max(per_lane + rows * (u.size + 8)
                           + min(rows, _BAND) * u.size, 2 * rows * u.size)
        block = order[i:i + max(1, int(_BLOCK_BUDGET / per_lane))]
        i += block.size
        if gamma > 0:  # the block's pairs, and the feet that any of them keeps
            keep = (lo[block, None] <= u) & (u <= hi[block, None])
            feet = keep.any(axis=0)
        form = _block_forms(vals, base[block], n_max[block],
                            l[block, None].astype(float), root_xi[block],
                            u[feet], gamma, t)
        if gamma > 0:  # the signs of l, and 0 at the skipped pairs, as in a
            # call without the other feet; the next block's mask frees keep
            keep = keep * np.where(l[block] > 0, 2.0, 1.0)[:, None]
            keep[:, feet] *= form
            form = keep
        np.add.at(slabs, freq[block] + 1, form)  # in lane order
        del form  # before the next block allocates its own
    # the frequencies in ascending order as a running sum, which a single foot
    # keeps too (np.add.reduce would sum one foot pairwise)
    slabs[1:] *= (2.0 * xis ** (1.0 - gamma) / (2.0 * np.pi))[:, None]
    total = np.cumsum(slabs, axis=0, out=slabs)[-1]
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
