"""Pointwise and L^1 column evaluators that bypass the tensor grid engine.

Two tools live here, both specialized to two prime coordinates and one torus
coordinate and both choosing their own discretizations:

* an L^1 norm for multiplier kernel columns, split into a small core square
  in x' that carries every torus frequency and a wide bulk zone where only
  the low frequencies can reach (higher slabs die off inside the core); the
  bulk's few bins are summed over the torus by a half-period cosine matrix
  product, the core's many by irfft, both a cache-sized chunk of lines at a
  time, from Hermite tables built once per slab and call, and
* a closed-form heat kernel evaluator built from the oscillator semigroup
  kernel per frequency, with no level truncation at all.

Unlike the radial norm path, these include the zero torus frequency: its
slab is the free-plane functional calculus of the multiplier, entering the
lattice sum with the same weight as every other frequency.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import j0, jv, gamma as _gamma_fn

from ..errors import DomainError
from ..hermite import hermite_table, hermite_zero_values

__all__ = [
    "bochner_riesz_radial_kernel",
    "planar_radial_kernel",
    "l1_multiplier_norm",
    "heat_kernel_pointwise",
]

# floats of one tile of the stored spectrum (bins up to the last slab, times
# the tile's lines); it fixes the tiling and so the order of the float sums.
# 2 MiB keeps every buffer of a call small: glibc's malloc raises its mmap
# threshold to the size of a freed mapped block (up to 32 MiB) and then
# serves such blocks from the heap, whose pages it keeps, so x1 blocks of
# tens of MB made a process's peak RSS depend on the order of its calls
_BLOCK_BUDGET = float(1 << 18)
# floats of the buffer that the torus samples of |K| go through, a chunk of
# lines at a time (1 MiB, so it stays in cache): about 2 000 lines at the
# bulk's n_fft = 128
_CHUNK_SAMPLES = 1 << 17
# values of one block of the zero slab's Bessel matrix J_0(r rho)
_J0_BLOCK = 1 << 18


def bochner_riesz_radial_kernel(scale: float, delta: float,
                                r: np.ndarray) -> np.ndarray:
    """Radial kernel profile of (1 + Laplacian/scale^2)_+^delta in the plane.

    Closed form via the Bessel function of order delta + 1; the removable
    r = 0 singularity is filled with its limit.
    """
    if scale <= 0:
        raise DomainError("scale must be positive")
    if delta < 0:
        raise DomainError("delta must be >= 0")
    z = scale * np.asarray(r, dtype=float)
    small = z < 1e-8
    zz = np.where(small, 1.0, z)
    vals = (scale ** 2 / (2.0 * np.pi) * 2.0 ** delta * _gamma_fn(delta + 1.0)
            * jv(delta + 1.0, zz) / zz ** (delta + 1.0))
    return np.where(small, scale ** 2 / (4.0 * np.pi * (delta + 1.0)), vals)


def planar_radial_kernel(profile, r: np.ndarray,
                         lambda_max: float) -> np.ndarray:
    """Radial kernel profile of F(-Laplacian) in the plane, by quadrature.

    Hankel form (2 pi)^{-1} int F(rho^2) J_0(rho r) rho drho over the
    support of F capped at lambda_max.  Quadrature density follows the
    fastest oscillation J_0(rho r_max).  The rule is Simpson's: the integrand
    starts with slope F(0) at rho = 0, where the trapezoid rule would leave
    the same O(h^2) offset on every r.
    """
    r = np.asarray(r, dtype=float)
    lo, hi = profile.support
    top = min(hi, lambda_max)
    if not np.isfinite(top) or top <= 0:
        raise DomainError("need a finite positive eigenvalue cap")
    rho_lo = np.sqrt(max(lo, 0.0))
    rho_hi = np.sqrt(top)
    r_max = float(np.max(np.abs(r))) if r.size else 1.0
    n_rho = max(512, int(np.ceil(4.0 * (rho_hi - rho_lo)
                                 * max(r_max, 1.0) / np.pi)))
    n_rho += n_rho % 2  # Simpson needs an even interval count
    rho = np.linspace(rho_lo, rho_hi, n_rho + 1)
    w = np.full(rho.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (rho[1] - rho[0]) / 3.0
    fvals = profile(rho * rho) * rho * w
    # J_0(r rho) for a block of r at a time, at most _J0_BLOCK values
    flat = r.reshape(-1)
    out = np.empty(flat.size)
    step = max(1, _J0_BLOCK // rho.size)
    for i0 in range(0, flat.size, step):
        out[i0:i0 + step] = j0(np.multiply.outer(flat[i0:i0 + step],
                                                 rho)) @ fvals
    return out.reshape(r.shape) / (2.0 * np.pi)


def _kernel_slab_coeff(profile, xi: float, k_cap: int, h_u: np.ndarray,
                       h_0: np.ndarray, lambda_max: float):
    """Even-column coefficient matrix of one frequency slab at y' = (u, 0).

    Returns (C, even_index) with C[m, n] = F((2(m + n_e) + 2) xi) h_m(s u)
    h_{n_e}(0) over levels m <= k_cap and even n_e; odd second indices drop
    out because the axis eigenfunctions vanish at 0.  h_u and h_0 hold
    h_m(s u) and h_m(0) for m = 0 .. k_cap at least.
    """
    even = np.arange(0, k_cap + 1, 2)
    lam = (2.0 * np.add.outer(np.arange(k_cap + 1), even) + 2.0) * xi
    F = profile(lam) * (lam <= lambda_max * (1.0 + 1e-12))
    return F * h_u[:k_cap + 1, None] * h_0[even][None, :], even


def _half_period_cosines(n_bins: int, n_fft: int) -> np.ndarray:
    """Table T with T @ X = irfft(X, n_fft)[:n_fft // 2 + 1] along axis 0.

    T[k, j] = c_j cos(2 pi j k / n_fft) / n_fft, c_0 = 1 and c_j = 2 else,
    for a real spectrum X of bins 0..n_bins - 1 below the Nyquist bin.
    The phase j k is reduced mod n_fft in integers, so large products lose
    no accuracy.
    """
    k = np.arange(n_fft // 2 + 1)
    j = np.arange(n_bins)
    table = np.cos(2.0 * np.pi * (np.outer(k, j) % n_fft) / n_fft) / n_fft
    table[:, 1:] *= 2.0
    return table


def _cosine_abs_sums(table: np.ndarray, spec: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """Sums of |irfft(spec, n_fft)| over one full period, along axis 0.

    spec holds the real bins 0..n_bins - 1 of spectra slab-major, shape
    (n_bins, *lines); table is _half_period_cosines(n_bins, n_fft).  The
    samples of a real spectrum's transform are even about k = 0 and
    k = n_fft / 2, so only those n_fft // 2 + 1 are computed, and the others
    enter the sum twice.  The lines go through the flat buffer out as many
    at a time as it holds columns of samples, so product, |.| and weighted
    sum of a chunk run while it is in cache.  Returns shape lines.
    """
    n_rows = table.shape[0]
    flat = spec.reshape(spec.shape[0], -1)
    chunk = out.size // n_rows
    weights = np.full(n_rows, 2.0)
    weights[0] = weights[-1] = 1.0
    sums = np.empty(flat.shape[1])
    for c0 in range(0, flat.shape[1], chunk):
        c1 = min(flat.shape[1], c0 + chunk)
        vals = out[:n_rows * (c1 - c0)].reshape(n_rows, c1 - c0)
        np.matmul(table, flat[:, c0:c1], out=vals)
        np.matmul(weights, np.abs(vals, out=vals), out=sums[c0:c1])
    return sums.reshape(spec.shape[1:])


def l1_multiplier_norm(profile, torus_half_period: float, u: float = 0.0,
                       lambda_max: float | None = None,
                       points_per_wavelength: float = 4.0,
                       core_half_width: float | None = None,
                       xi_zero_radial=None, fft_oversample: int = 1,
                       extent: float | None = None) -> float:
    """L^1 norm of the multiplier kernel column based at ((u, 0), 0).

    The x' integration splits at a core square of half width core_half_width:
    inside, every torus frequency contributes and the frequency count sets
    the FFT size; outside, only frequencies reaching past the core survive
    (the rest are cut off exponentially at their classical radius), which
    keeps the wide zone's torus samples few.  Each zone samples |K| at its
    own n_fft torus points per line: the core, whose bins grow like the
    square of the scale, by irfft; the bulk, whose bins grow only like the
    scale, by one product with a half-period cosine table, as per-line FFT
    overhead would outweigh its few bins.  Each slab's Hermite table is
    built once per call, on the x1 points of the widest zone that carries
    the slab; its x1 >= 0 tail serves as the x2 table.  At u = 0 the column
    is even in x1 as in x2, so both zones sum x1 >= 0 only, with the x2
    weights.  xi_zero_radial overrides the radial profile used for the
    zero-frequency slab (closed forms beat quadrature when available);
    default is the Hankel quadrature of the profile.

    The modulus of a band-limited kernel is not band-limited, so the torus
    integral of |K| carries a residual resolution error; fft_oversample
    doubles the bin count that many times for convergence studies.  Setting
    core_half_width beyond the resolved region degenerates the split into a
    dense all-frequency evaluation, useful as a reference.  extent overrides
    the integration half width in x'.  Non-finite arguments raise
    DomainError; lambda_max None or inf leaves the support edge as the cap,
    and a cap below the edge where |F| > 1e-14 raises DomainError.
    """
    for name, value in (("torus_half_period", torus_half_period), ("u", u),
                        ("points_per_wavelength", points_per_wavelength),
                        ("fft_oversample", fft_oversample)):
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if lambda_max is not None and np.isnan(lambda_max):
        raise DomainError("lambda_max is NaN; pass None or inf for no cap")
    if core_half_width is not None and not core_half_width > 0:
        raise DomainError("core_half_width must be positive")
    lo, hi = profile.support
    top = min(hi, lambda_max) if lambda_max is not None else hi
    if not np.isfinite(top) or top <= 0:
        raise DomainError("need a finite positive eigenvalue cap; pass "
                          "lambda_max or use a compactly supported profile")
    if top < hi:
        # a cap where F has not vanished cuts the zero slab's Hankel integral
        # sharply: the planar kernel decays like r^(-3/2), is not integrable,
        # and the "norm" would grow with the integration window
        edge = abs(float(profile(np.array([top]))[0]))
        if edge > 1e-14:
            raise DomainError(
                f"lambda_max = {top:.6g} cuts the profile inside its support, "
                f"where |F({top:.6g})| = {edge:.3e} > 1e-14; pass the support "
                f"edge {hi:.6g} or a cap where F vanishes")
    if torus_half_period <= 0:
        raise DomainError("torus half period must be positive")
    if points_per_wavelength < 2.0:
        raise DomainError("need at least 2 points per wavelength")
    dxi = np.pi / torus_half_period
    scale = np.sqrt(top)
    dx = 2.0 * np.pi / (points_per_wavelength * scale)
    j_max = int(np.floor(top / (2.0 * dxi) + 1e-12))
    if extent is None:
        # classical radius of the last slab plus a sub-Gaussian tail margin;
        # too narrow when the spectrum sits far below the first slab, so
        # slowly decaying near-planar kernels should pass extent explicitly
        extent = np.sqrt(top + 2.0 * dxi) / dxi + 4.0 / np.sqrt(dxi)
    elif extent <= 0 or not np.isfinite(extent):
        raise DomainError("extent must be finite and positive")
    if abs(u) > extent / 2.0:
        raise DomainError("column foot u is outside the resolved region")
    n_half = int(np.ceil(extent / dx))
    ax2 = dx * np.arange(0, n_half + 1)  # even in x2: half grid, weight 2
    w2 = np.full(ax2.size, 2.0)
    w2[0] = 1.0
    if u == 0.0:
        # the column is even in x1 as well: the same half grid and weights
        ax1, w1 = ax2, w2
    else:
        ax1 = dx * np.arange(-n_half, n_half + 1)
        w1 = np.ones(ax1.size)
    tail = ax1.size - ax2.size  # ax1[tail:] is ax2, bit for bit
    if core_half_width is None:
        core_half_width = max(1.5, 2.5 * abs(u) + 1.5)
    if fft_oversample < 1:
        raise DomainError("fft_oversample must be >= 1")
    over = 1 << max(0, int(np.ceil(np.log2(fft_oversample))))
    j_split = min(j_max, int(np.ceil(1.35 * scale / core_half_width / dxi)) + 2)
    n_fft_core = over << int(np.ceil(np.log2(4 * j_max + 4)))
    n_fft_bulk = over << int(np.ceil(np.log2(4 * j_split + 4)))
    # the core square is x1 in ax1[core], x2 in ax2[:n_core]
    n_core = int(np.count_nonzero(ax2 <= core_half_width))
    core = slice(max(0, tail - n_core + 1), tail + n_core)

    if xi_zero_radial is None:
        def xi_zero_radial(r, _p=profile, _t=top):
            return planar_radial_kernel(_p, r, _t)
    # cubic spline of the radial zero slab at 16 samples per wavelength:
    # interpolation error ~(scale dr)^4 stays below the zone-split error
    r_grid = np.arange(0.0, extent * 2.83 + 2.0 * dx, 0.25 * dx)
    zero_slab = CubicSpline(r_grid, np.asarray(xi_zero_radial(r_grid),
                                               dtype=float))

    def slab_level(j):
        # a slab without a level left gets a zero C from the cap mask
        xi = j * dxi
        return max(0, int(np.floor((top / xi - 2.0) / 2.0 + 1e-12)))

    # per slab, whatever no tile changes, from one Hermite table H1 on
    # the x1 rows of the widest zone carrying it (the bulk up to j_split,
    # the core past it): P = H1^T C (-1)^j xi, and T2, the even rows of H1 on
    # the x1 >= 0 tail, which is the x2 axis.  The factor xi is the slab's
    # weight in the torus transform; the alternating sign recenters the
    # transform on [-S, S)
    slabs = {}
    h_0 = hermite_zero_values(slab_level(1))
    h_u = hermite_table(slab_level(1),
                        np.sqrt(dxi * np.arange(1, j_max + 1)) * u)
    for j in range(1, j_max + 1):
        k_cap, xi = slab_level(j), j * dxi
        C, even = _kernel_slab_coeff(profile, xi, k_cap, h_u[:, j - 1], h_0,
                                     top)
        rows = slice(0, ax1.size) if j <= j_split else core
        H1 = hermite_table(k_cap, np.sqrt(xi) * ax1[rows])
        slabs[j] = (rows.start, H1.T @ (C * ((-1) ** j * xi)),
                    H1[even, tail - rows.start:])

    def accumulate(rows, n2, j_list, n_fft, by_cosines, wgt):
        # the zone's lines are x1 in ax1[rows], x2 in ax2[:n2], with weights
        # wgt; a zero weight leaves a line out
        if not wgt.any():
            return 0.0
        x1, x2 = ax1[rows], ax2[:n2]
        # bins past the last slab are zero, so the spectrum stops there.  The
        # lines go by tiles of about as many x1 rows as x2 columns, so the
        # P T2 products are thin in neither; one spectrum buffer serves every
        # tile, a short one as a prefix
        n_bins = max(j_list, default=0) + 1
        tile = max(1, int(_BLOCK_BUDGET / n_bins))
        n_cols = min(n2, max(1, int(np.sqrt(tile))))
        n_rows = min(x1.size, max(1, tile // n_cols))
        spec_buf = np.empty(n_bins * n_rows * n_cols)
        if by_cosines:
            table = _half_period_cosines(n_bins, n_fft)
            out = np.empty(max(_CHUNK_SAMPLES, table.shape[0]))
        else:
            chunk = max(1, _CHUNK_SAMPLES // n_fft)
            out = np.empty((chunk, n_fft))
        acc = 0.0
        for i0 in range(0, x1.size, n_rows):
            i1 = min(x1.size, i0 + n_rows)
            for c0 in range(0, n2, n_cols):
                c1 = min(n2, c0 + n_cols)
                spec = spec_buf[:n_bins * (i1 - i0) * (c1 - c0)]
                spec = spec.reshape(n_bins, i1 - i0, c1 - c0)
                rr = np.sqrt((x1[i0:i1, None] - u) ** 2
                             + x2[None, c0:c1] ** 2)
                spec[0] = zero_slab(rr)
                for j in j_list:
                    start, P, T2 = slabs[j]
                    a = rows.start - start + i0
                    np.matmul(P[a:a + i1 - i0], T2[:, c0:c1], out=spec[j])
                if by_cosines:
                    sums = _cosine_abs_sums(table, spec, out)
                else:
                    # irfft zero-pads the spectrum to n_fft // 2 + 1 bins
                    lines = np.moveaxis(spec, 0, -1).reshape(-1, n_bins)
                    sums = np.empty(lines.shape[0])
                    for l0 in range(0, lines.shape[0], chunk):
                        l1 = min(lines.shape[0], l0 + chunk)
                        vals = np.fft.irfft(lines[l0:l1], n=n_fft,
                                            out=out[:l1 - l0])
                        np.abs(vals, out=vals).sum(axis=1, out=sums[l0:l1])
                    sums = sums.reshape(i1 - i0, c1 - c0)
                acc += float((sums * wgt[i0:i1, c0:c1]).sum())
        return acc

    wgt = w1[:, None] * w2[None, :]
    core_wgt = wgt[core, :n_core].copy()
    wgt[core, :n_core] = 0.0  # the bulk zone is what the core leaves
    total = accumulate(slice(0, ax1.size), ax2.size, range(1, j_split + 1),
                       n_fft_bulk, by_cosines=True, wgt=wgt)
    total += accumulate(core, n_core, range(1, j_max + 1), n_fft_core,
                        by_cosines=False, wgt=core_wgt)
    return total * dx * dx


_HEAT_MAX_TERMS = 10 ** 6  # each term array then holds at most 8 MB


def heat_kernel_pointwise(x, y, t: float, torus_half_period: float) -> float:
    """Heat kernel p_t(x, y) on the torus-compactified model, closed form.

    Per torus frequency the prime-coordinate factor is the oscillator
    semigroup kernel (a Gaussian in disguise), so there is no level
    truncation anywhere: the frequency sum is cut only where its terms fall
    below machine noise.  Points are (x_prime_tuple, x_second_tuple) with
    one torus coordinate; any prime dimension up to 3.  A sum of more than
    _HEAT_MAX_TERMS terms raises DomainError.
    """
    if not 0 < t < np.inf:
        raise DomainError("time must be positive and finite")
    if not 0 < torus_half_period < np.inf:
        raise DomainError("torus half period must be positive and finite")
    xp = np.asarray(x[0], dtype=float)
    yp = np.asarray(y[0], dtype=float)
    if xp.shape != yp.shape or xp.ndim != 1 or not (1 <= xp.size <= 3):
        raise DomainError("prime parts must match with dimension 1..3")
    if len(x[1]) != 1 or len(y[1]) != 1:
        raise DomainError("exactly one torus coordinate is supported")
    d1 = xp.size
    ds = float(x[1][0]) - float(y[1][0])
    dp2 = float(np.sum((xp - yp) ** 2))
    # the sum runs until e^{-2 t xi} reaches e^{-46}: 46 S / (2 pi t) terms
    terms = 23.0 * torus_half_period / (np.pi * t)
    if terms > _HEAT_MAX_TERMS:
        raise DomainError(
            f"the heat sum at torus half period S={torus_half_period:g} and "
            f"time t={t:g} needs {terms:.3g} terms, above the cap of "
            f"{_HEAT_MAX_TERMS}")
    dxi = np.pi / torus_half_period
    # free-plane slab at zero frequency
    total = (4.0 * np.pi * t) ** (-d1 / 2.0) * np.exp(-dp2 / (4.0 * t))
    j_max = max(1, int(np.ceil(46.0 / (2.0 * t * dxi))))
    xi = dxi * np.arange(1, j_max + 1)
    rho = np.exp(-2.0 * t * xi)
    one_m = 1.0 - rho * rho
    factor = xi ** (d1 / 2.0) * np.exp(-d1 * t * xi) \
        * (np.pi * one_m) ** (-d1 / 2.0)
    expo = np.zeros_like(xi)
    for a in range(d1):
        sa, sb = xi ** 0.5 * xp[a], xi ** 0.5 * yp[a]
        ss = sa * sa + sb * sb
        expo += (2.0 * sa * sb * rho - ss * rho * rho) / one_m - 0.5 * ss
    total += 2.0 * float(np.sum(np.cos(xi * ds) * factor * np.exp(expo)))
    return total / (2.0 * torus_half_period)
