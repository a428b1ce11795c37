"""Pointwise and L^1 column evaluators that bypass the tensor grid engine.

Two tools live here, both specialized to two prime coordinates and one torus
coordinate and both choosing their own discretizations:

* an L^1 norm for multiplier kernel columns, in the engine's spectral
  window (oscillator.eigenvalue_cap and oscillator.torus_slabs), over nested
  square frames in x': slab j of the torus transform dies past its reach
  r_j from the origin, so the innermost square carries every slab and each
  frame past it only the slabs that reach past its inner edge, at its own
  torus sampling; a frame of few slabs is summed over the torus by a
  half-period cosine matrix product, the innermost square and a frame of
  many by irfft, both a cache-sized chunk of lines at a time; every slab's
  set-up is built once per call for all slabs together, from one profile
  call and one Hermite recurrence per group of slabs; the zero slab is a
  not-a-knot cubic spline of its radial profile, the profile's closed-form
  planar kernel or else a composite Gauss-Legendre Hankel quadrature, over
  the radii the frames evaluate and no further, built here by one banded
  solve for its slopes and read by direct index into its uniform
  breakpoints, and
* a closed-form heat kernel evaluator built from the oscillator semigroup
  kernel per frequency, with no level truncation at all, over scalar points
  or arrays of them.

Unlike the radial norm path, these include the zero torus frequency: its
slab is the free-plane functional calculus of the multiplier, entering the
lattice sum with the same weight as every other frequency.  The kernel of
F(L) on R^2 x torus is the x''-periodization of the kernel on R^2 x R, and
the xi = 0 slab is part of that periodization, so it belongs in an L^1 norm.
The radial path leaves it out of its L^2 norms, where its weight falls like
1/S with the torus half period S; each convention is the right one for its
own norm.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import j0

from ..errors import DomainError, GrushinError, check_integer, check_real, real_array
from ..fields import bochner_riesz_radial_kernel
from ..geometry import _gauss_legendre
from ..hermite import MIN_TURNING_MARGIN, hermite_lanes, hermite_table
from ..oscillator import eigenvalue_cap, torus_slabs

# benchmark/tracer.py times _kernel_slab_coeff, hermite_table,
# planar_radial_kernel, bochner_riesz_radial_kernel and np.fft.irfft by
# replacing them where this module looks them up: they stay module
# attributes, called by name at call time.  bochner_riesz_radial_kernel
# lives in grushin.fields and is re-exported here; a profile's own planar
# kernel calls it there, so its span sees only explicit xi_zero_radial
# callers that look it up here, and a profile's planar kernel is not timed

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
# lines at a time (1 MiB, so it stays in cache): about 2 000 lines at
# n_fft = 128
_CHUNK_SAMPLES = 1 << 17
# a frame past the innermost square with at most this many torus slabs sums
# |K| by the half-period cosine product, a larger one by irfft
_COSINE_MAX_BINS = 64
# floats of the Hermite tables of one group of torus slabs, one
# hermite_lanes recurrence each (512 KiB); a slab past it makes its own group
_TABLE_BUDGET = 1 << 16
# points of one chunk of the zero slab's spline evaluation (128 KiB per
# temporary)
_SPLINE_CHUNK = 1 << 14
# the cheapest refusals of a grid no run could finish: x' lines (ax1 by ax2
# nodes; 2e6 to 4e6 at the default R = 64 run), and torus samples per line
# of the innermost frame, fft_oversample (4 j_max + 4), before rounding up
# to a power of 2
_MAX_LINES = 10 ** 10
_MAX_TORUS_SAMPLES = 1 << 22
# values of one block of the zero slab's Bessel matrix J_0(r rho)
_J0_BLOCK = 1 << 18
# the zero slab's Hankel quadrature: Gauss-Legendre panels of 32 nodes, each
# spanning at most _PANEL_RADIANS of J_0(rho r_max), at least _MIN_PANELS,
# the last one split at these fractions of its width from the support edge
_PANEL_RADIANS = 50.0
_MIN_PANELS = 4
_EDGE_SPLITS = 8.0 ** -np.arange(1, 4)
_PANEL_NODES, _PANEL_WEIGHTS = _gauss_legendre(32)


def planar_radial_kernel(profile, r: np.ndarray,
                         lambda_max: float) -> np.ndarray:
    """Radial kernel profile of F(-Laplacian) in the plane, by quadrature.

    Hankel form (2 pi)^{-1} int F(rho^2) J_0(rho r) rho drho over the
    support of F capped at lambda_max by oscillator.eigenvalue_cap.  The
    rule is composite Gauss-Legendre: equal panels of 32 nodes, as many as
    keep each within _PANEL_RADIANS of the fastest oscillation
    J_0(rho r_max), and at least _MIN_PANELS.  No node sits at rho = 0,
    where the integrand starts with slope F(0), so no endpoint error grows
    with r: on a smooth F the error is at rounding level for every r up to
    r_max.  A rough support edge, as (1 - v)_+^delta, converges only like a
    power of the width of the panel next to it, so the last panel is split
    geometrically toward the edge, down to 1/512 of its width.
    """
    r = real_array(r, "r")
    top = eigenvalue_cap(profile, lambda_max)
    rho_lo = np.sqrt(max(profile.support[0], 0.0))
    rho_hi = np.sqrt(top)
    r_max = float(np.max(np.abs(r))) if r.size else 0.0
    n_panels = max(_MIN_PANELS, int(np.ceil((rho_hi - rho_lo) * r_max
                                            / _PANEL_RADIANS)))
    edges = np.linspace(rho_lo, rho_hi, n_panels + 1)
    edges = np.r_[edges[:-1], rho_hi - (rho_hi - edges[-2]) * _EDGE_SPLITS,
                  rho_hi]
    width = np.diff(edges)[:, None]
    rho = (edges[:-1, None] + width * _PANEL_NODES).reshape(-1)
    fvals = profile(rho * rho) * rho * (width * _PANEL_WEIGHTS).reshape(-1)
    # J_0(r rho) for a block of r at a time, at most _J0_BLOCK values
    flat = r.reshape(-1)
    out = np.empty(flat.size)
    step = max(1, _J0_BLOCK // rho.size)
    for i0 in range(0, flat.size, step):
        out[i0:i0 + step] = j0(np.multiply.outer(flat[i0:i0 + step],
                                                 rho)) @ fvals
    return out.reshape(r.shape) / (2.0 * np.pi)


def _kernel_slab_coeff(profile, xi: np.ndarray, k_caps: np.ndarray,
                       h_u: np.ndarray, h_0: np.ndarray):
    """Even-column coefficient matrices of the torus slabs at y' = (u, 0).

    Returns, for slab j at frequency xi[j] with top level k_caps[j], the
    pair (C, even) with C[m, n] = F((2(m + n_e) + 2) xi_j) h_m(s_j u)
    h_{n_e}(0) over levels m <= k_cap and even n_e; odd second indices drop
    out because the axis eigenfunctions vanish at 0.  h_u[:, j] holds
    h_m(s_j u) and h_0 holds h_m(0), for m = 0 .. k_caps[j] at least.  F
    goes through one profile call, at the eigenvalues (2L + 2) xi_j,
    L <= 2 k_cap_j, of every slab in turn, and each C is a Hankel gather of
    its slab's stretch.  Level L is kept when L <= k_cap_j, the top level
    of the slab in oscillator.torus_slabs, and is 0 past it.
    """
    sizes = 2 * k_caps + 1
    starts = np.cumsum(sizes) - sizes
    L = np.arange(sizes.sum()) - np.repeat(starts, sizes)
    lam = (2.0 * L + 2.0) * np.repeat(xi, sizes)
    F = profile(lam) * (L <= np.repeat(k_caps, sizes))
    coeffs = []
    for j, (k_cap, start) in enumerate(zip(k_caps.tolist(), starts.tolist())):
        even = np.arange(0, k_cap + 1, 2)
        hankel = F[start + np.add.outer(np.arange(k_cap + 1), even)]
        coeffs.append((hankel * h_u[:k_cap + 1, j, None]
                       * h_0[even][None, :], even))
    return coeffs


def _slab_tables(k_caps: np.ndarray, roots: np.ndarray, ax1: np.ndarray,
                 spans):
    """Slab j's table hermite_table(k_caps[j], roots[j] * ax1[spans[j]]),
    for each slab in turn.

    k_caps and the span lengths are non-increasing, so the slabs go in
    groups through hermite_lanes, one recurrence per group: a group takes
    slabs while its first slab's levels times its points stay within
    _TABLE_BUDGET floats.  Each table is a view of its group's buffer.
    """
    tops = k_caps.tolist()
    sizes = [rows.stop - rows.start for rows in spans]
    j = 0
    while j < len(sizes):
        first, width = j, sizes[j]
        j += 1
        while (j < len(sizes)
               and (tops[first] + 1) * (width + sizes[j]) <= _TABLE_BUDGET):
            width += sizes[j]
            j += 1
        ends = np.cumsum(sizes[first:j])
        out = hermite_lanes(tops[first:j], np.concatenate(
            [roots[i] * ax1[spans[i]] for i in range(first, j)]), ends)
        for i, end in zip(range(first, j), ends.tolist()):
            yield out[:tops[i] + 1, end - sizes[i]:end]


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray):
    """Knots and coefficients of the not-a-knot cubic spline through (x, y).

    Returns (x, coef), coef of shape (4, x.size - 1): on [x_i, x_i+1] the
    spline is coef[0, i] s^3 + coef[1, i] s^2 + coef[2, i] s + coef[3, i],
    s = r - x_i.  The slopes s_i at the knots solve the tridiagonal system of
    C^2 continuity with not-a-knot end rows (de Boor, A Practical Guide to
    Splines, 1978), filled and solved as scipy.interpolate.CubicSpline does,
    so the coefficients are its .c bit for bit.  x increases, with at least
    4 knots; y is finite.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    ab = np.zeros((3, x.size))  # bands: upper, diagonal, lower
    ab[0, 2:] = dx[:-1]
    ab[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    ab[2, :-2] = dx[1:]
    b = np.empty(x.size)
    b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x_1 and x_n-2
    d = x[2] - x[0]
    ab[1, 0], ab[0, 1] = dx[1], d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1], ab[2, -2] = dx[-2], d
    b[-1] = (dx[-1] ** 2 * slope[-2]
             + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                     check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return x, np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _spline_values(knots: np.ndarray, coef: np.ndarray, x1: np.ndarray,
                   x2: np.ndarray, u: float, out: np.ndarray) -> None:
    """The zero slab's spline at r = hypot(x1 - u, x2), into out.

    knots and coef are _not_a_knot_spline's; out has shape
    (x1.size, x2.size).  The knots are uniform from 0, so r lies in the
    interval floor(r / h), the last one closed; past the last knot the
    value is NaN, as the spline does not extrapolate.  Horner goes in
    place, rows of about _SPLINE_CHUNK points at a time, so no temporary is
    larger than that.
    """
    h, last = knots[1], knots[-1]
    step = max(1, _SPLINE_CHUNK // x2.size)
    for i0 in range(0, x1.size, step):
        vals = out[i0:i0 + step]
        r = np.sqrt((x1[i0:i0 + step, None] - u) ** 2 + x2[None, :] ** 2)
        interval = np.minimum((r / h).astype(np.intp), knots.size - 2)
        s = r - knots.take(interval)
        coef[0].take(interval, out=vals)
        for c in coef[1:]:
            vals *= s
            vals += c.take(interval)
        np.copyto(vals, np.nan, where=r > last)


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


def _reach(top: float, xi):
    """Half width in x' past which the slab at torus frequency xi has died.

    The slab's levels stop at eigenvalue top, so its Hermite functions turn
    inside the classical radius sqrt(top + 2 xi) / xi; MIN_TURNING_MARGIN
    / sqrt(xi) past it their sub-Gaussian tails are spent.  Decreasing in xi.
    """
    return np.sqrt(top + 2.0 * xi) / xi + MIN_TURNING_MARGIN / np.sqrt(xi)


def _frames(reach: np.ndarray, inner: float, extent: float):
    """Nested square frames of the x' domain as (w_in, w_out, bins).

    reach[j - 1] is the reach of slab j.  The innermost square, from 0 to
    half width inner, carries every slab; past it the half widths double out
    to extent, and the frame from w_in to w_out carries the slabs 1..bins
    that reach past w_in.
    """
    frames = [(0.0, inner, reach.size)]
    w = inner
    while w < extent:
        frames.append((w, min(2.0 * w, extent),
                       int(np.count_nonzero(reach > w))))
        w *= 2.0
    return frames


def l1_multiplier_norm(profile, torus_half_period: float, u: float = 0.0,
                       lambda_max: float | None = None,
                       points_per_wavelength: float = 4.0,
                       xi_zero_radial=None, fft_oversample: int = 1,
                       extent: float | None = None) -> float:
    """L^1 norm of the multiplier kernel column based at ((u, 0), 0).

    Slab j of the torus transform, at frequency xi_j = j pi / S, dies past
    its reach r_j = sqrt(lambda + 2 xi_j) / xi_j + 4 / sqrt(xi_j) from the
    origin of x', with lambda the eigenvalue cap.  So the x' domain is tiled
    by nested square frames: the innermost square, of half width r_{j_max}
    (the reach of the last slab), carries every slab, and the frames past
    it, of half widths doubling out to the extent (default r_1), carry only
    the slabs that reach past their inner edge.  Each frame samples |K| at
    its own n_fft torus points per line, 4 (bins + 1) rounded up to a power
    of 2.  The innermost square goes by irfft, so a dense reference, one
    square over the whole domain, stays apart from the cosine product; a
    frame past it goes by one product with a half-period cosine
    table when it carries at most _COSINE_MAX_BINS slabs, where per-line FFT
    overhead would outweigh the few bins, and by irfft past that.  A frame
    is summed as its strips (the top strip over its full width, the side
    strips below it), so no line is computed twice or left out.  The slabs
    are set up together, once per call: F goes through one profile call at
    the eigenvalues of every slab, and each slab's Hermite table, on the x1
    rows of the widest frame that carries the slab, comes from one
    recurrence per group of slabs (hermite_lanes); its x1 >= 0 tail serves
    as the x2 table.  At u = 0 the column is even in x1 as in x2, so only
    x1 >= 0 is summed, with the x2 weights.  The zero-frequency slab is a
    cubic spline of its radial profile at 16 samples per wavelength, from
    r = 0 to 2 dx past the farthest line, hypot(max |x1 - u|, extent),
    evaluated by direct index into its breakpoints; the spline does not
    extrapolate.  The radial profile is, first to last: xi_zero_radial if
    given; the profile's planar kernel (MultiplierProfile.planar), the
    closed form that heat and bochner_riesz carry; else planar_radial_kernel,
    the Gauss-Legendre Hankel quadrature of the profile, whose panel count
    follows from the same farthest radius.  A closed form does not see the
    cap; the stock profiles decrease, so a cap that passes the check below
    cuts off only values |F| <= 1e-14.  With no torus slab below the cap
    (j_max = 0) the default is one frame holding the zero slab alone.

    The modulus of a band-limited kernel is not band-limited, so the torus
    integral of |K| carries a residual resolution error; fft_oversample,
    the torus sampling factor, a power of 2, serves convergence studies.
    extent overrides the integration half width in x'.  Numbers follow the
    rule of grushin.errors, and xi_zero_radial must return finite values.
    A grid of more than _MAX_LINES lines, or an innermost frame of more
    than _MAX_TORUS_SAMPLES torus samples per line, raises DomainError before
    anything is allocated.  The cap is oscillator.eigenvalue_cap's:
    lambda_max None and inf both mean no cap, and a cap below the support
    edge where |F| > 1e-14 raises DomainError.
    """
    check_real(torus_half_period, "torus_half_period", 0.0, strict=True)
    check_real(u, "u")
    check_real(points_per_wavelength, "points_per_wavelength", 2.0)
    check_integer(fft_oversample, "fft_oversample", minimum=1)
    if fft_oversample & (fft_oversample - 1):
        raise DomainError(f"fft_oversample must be a power of 2, got "
                          f"{fft_oversample!r}")
    if extent is not None:
        check_real(extent, "extent", 0.0, strict=True)
    top = eigenvalue_cap(profile, lambda_max)
    if top < profile.support[1]:
        # a cap where F has not vanished cuts the zero slab's Hankel integral
        # sharply: the planar kernel decays like r^(-3/2), is not integrable,
        # and the "norm" would grow with the integration window
        edge = abs(float(profile(np.array([top]))[0]))
        if edge > 1e-14:
            raise DomainError(
                f"lambda_max = {top:.6g} cuts the profile inside its support, "
                f"where |F({top:.6g})| = {edge:.3e} > 1e-14; pass the support "
                f"edge {profile.support[1]:.6g} or a cap where F vanishes")
    dxi = np.pi / torus_half_period
    dx = 2.0 * np.pi / (points_per_wavelength * np.sqrt(top))
    samples = fft_oversample * (4.0 * top / (2.0 * dxi) + 4.0)
    if samples > _MAX_TORUS_SAMPLES:
        raise DomainError(
            f"the innermost frame needs {samples:.3g} torus samples per line "
            f"(fft_oversample = {fft_oversample}, torus_half_period = "
            f"{torus_half_period:g}), above the cap of {_MAX_TORUS_SAMPLES}")
    # every slab below the cap: one without an active level gets a zero C
    xis, _, k_his = torus_slabs(profile, top, dxi, 2)
    k_caps = np.maximum(k_his, 0)
    j_max = k_caps.size
    reach = _reach(top, xis)
    if extent is None:
        # too narrow when the spectrum sits far below the first slab, so
        # slowly decaying near-planar kernels should pass extent explicitly
        extent = float(_reach(top, dxi))
    if abs(u) > extent / 2.0:
        raise DomainError("column foot u is outside the resolved region")
    n_half = np.ceil(extent / dx)
    lines = (n_half + 1) * (n_half + 1 if u == 0.0 else 2 * n_half + 1)
    if lines > _MAX_LINES:
        raise DomainError(
            f"the x' grid needs {lines:.3g} lines (points_per_wavelength = "
            f"{points_per_wavelength:g}, extent = {extent:g}), above the cap "
            f"of {_MAX_LINES}")
    n_half = int(n_half)
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

    def nodes(w):
        # x2 nodes below half width w; the last frame takes the grid's edge
        return ax2.size if w >= extent else int(np.count_nonzero(ax2 < w))

    def span(n):
        # the x1 rows within the n nodes of half width
        return slice(max(0, tail - n + 1), tail + n)

    frames = [(nodes(w_in), nodes(w_out), bins)
              for w_in, w_out, bins
              in _frames(reach, reach[-1] if j_max else extent, extent)]
    # slab j's tables cover the widest frame that carries it
    widest = np.zeros(j_max, dtype=int)
    for _, n_out, bins in frames:
        widest[:bins] = n_out

    if xi_zero_radial is None:
        xi_zero_radial = profile.planar or (
            lambda r: planar_radial_kernel(profile, r, top))
    # not-a-knot cubic spline of the radial zero slab at 16 samples per
    # wavelength, its slopes from one banded solve (_not_a_knot_spline):
    # interpolation error ~(sqrt(top) dr)^4 stays below the torus sampling
    # error.  It runs past the farthest line strip_sum evaluates by 2 dx and
    # never extrapolates
    r_far = np.hypot(np.max(np.abs(ax1 - u)), ax2[-1])
    r_grid = np.arange(0.0, r_far + 2.0 * dx, 0.25 * dx)
    knots, coef = _not_a_knot_spline(
        r_grid, real_array(xi_zero_radial(r_grid), "xi_zero_radial value"))

    # per slab, whatever no tile changes, from one Hermite table H1 on the
    # x1 rows of its widest frame: P = H1^T C (-1)^j xi, and T2, the even
    # rows of H1 on the x1 >= 0 tail, which is the x2 axis.  The factor xi
    # is the slab's weight in the torus transform; the alternating sign
    # recenters the transform on [-S, S)
    roots = np.sqrt(xis)
    # column 0 holds h_m(0), column j holds h_m at slab j's sqrt(xi) u
    h_0u = hermite_table(k_caps.max(initial=0), np.r_[0.0, roots * u])
    coeffs = _kernel_slab_coeff(profile, xis, k_caps, h_0u[:, 1:], h_0u[:, 0])
    spans = [span(n) for n in widest]
    slabs = {}
    for j, (C, even), rows, H1 in zip(
            range(1, j_max + 1), coeffs, spans,
            _slab_tables(k_caps, roots, ax1, spans)):
        slabs[j] = (rows.start, H1.T @ (C * ((-1) ** j * xis[j - 1])),
                    H1[even, tail - rows.start:])

    def strip_sum(rows, cols, bins, n_fft, table, out):
        # weighted sum of the torus sums of |K| over the lines x1 in
        # ax1[rows], x2 in ax2[cols].  Bins past the frame's last slab are
        # zero, so the spectrum stops there.  The lines go by tiles of about
        # as many x1 rows as x2 columns, so the P T2 products are thin in
        # neither; one spectrum buffer serves every tile, a short one as a
        # prefix
        x1, x2, v1, v2 = ax1[rows], ax2[cols], w1[rows], w2[cols]
        n_bins = bins + 1
        tile = max(1, int(_BLOCK_BUDGET / n_bins))
        n_cols = min(x2.size, max(1, int(np.sqrt(tile))))
        n_rows = min(x1.size, max(1, tile // n_cols))
        spec_buf = np.empty(n_bins * n_rows * n_cols)
        acc = 0.0
        for i0 in range(0, x1.size, n_rows):
            i1 = min(x1.size, i0 + n_rows)
            for c0 in range(0, x2.size, n_cols):
                c1 = min(x2.size, c0 + n_cols)
                spec = spec_buf[:n_bins * (i1 - i0) * (c1 - c0)]
                spec = spec.reshape(n_bins, i1 - i0, c1 - c0)
                _spline_values(knots, coef, x1[i0:i1], x2[c0:c1], u,
                               spec[0])
                for j in range(1, n_bins):
                    start, P, T2 = slabs[j]
                    a = rows.start - start + i0
                    np.matmul(P[a:a + i1 - i0],
                              T2[:, cols.start + c0:cols.start + c1],
                              out=spec[j])
                if table is not None:
                    sums = _cosine_abs_sums(table, spec, out)
                else:
                    # irfft zero-pads the spectrum to n_fft // 2 + 1 bins
                    lines = np.moveaxis(spec, 0, -1).reshape(-1, n_bins)
                    sums = np.empty(lines.shape[0])
                    chunk = out.shape[0]
                    for l0 in range(0, lines.shape[0], chunk):
                        l1 = min(lines.shape[0], l0 + chunk)
                        vals = np.fft.irfft(lines[l0:l1], n=n_fft,
                                            out=out[:l1 - l0])
                        np.abs(vals, out=vals).sum(axis=1, out=sums[l0:l1])
                    sums = sums.reshape(i1 - i0, c1 - c0)
                acc += float(v1[i0:i1] @ sums @ v2[c0:c1])
        return acc

    total = 0.0
    for n_in, n_out, bins in frames:
        if n_out <= n_in:
            continue
        n_fft = fft_oversample << int(np.ceil(np.log2(4 * bins + 4)))
        if n_in and bins <= _COSINE_MAX_BINS:
            table = _half_period_cosines(bins + 1, n_fft)
            out = np.empty(max(_CHUNK_SAMPLES, table.shape[0]))
        else:
            table = None
            out = np.empty((max(1, _CHUNK_SAMPLES // n_fft), n_fft))
        # the top strip over the frame's full width, then the side strips
        # below it: x1 past the inner edge, and at u != 0 before it
        strips = [(span(n_out), slice(n_in, n_out))]
        if n_in:
            strips.append((slice(tail + n_in, tail + n_out), slice(0, n_in)))
            if tail:
                strips.append((slice(tail - n_out + 1, tail - n_in + 1),
                               slice(0, n_in)))
        for rows, cols in strips:
            total += strip_sum(rows, cols, bins, n_fft, table, out)
    if not np.isfinite(total):
        raise GrushinError(f"the L^1 norm came out {total}: a line lies past "
                           f"the zero slab's spline grid, which ends at "
                           f"r = {knots[-1]:g}")
    return total * dx * dx


_HEAT_MAX_TERMS = 10 ** 6  # each term array then holds at most 8 MB
# terms of one block of points: the points go through the frequency sum as
# many at a time as keep each term array at 1 MiB, or one at a time
_HEAT_BLOCK_TERMS = 1 << 17


def heat_kernel_pointwise(x, y, t: float, torus_half_period: float):
    """Heat kernel p_t(x, y) on the torus-compactified model, closed form.

    Per torus frequency the prime-coordinate factor is the oscillator
    semigroup kernel (a Gaussian in disguise), so there is no level
    truncation anywhere: the frequency sum is cut only where its terms fall
    below machine noise.  Points are (x_prime, x_second) pairs with the
    coordinates along the last axis: any prime dimension up to 3 and one
    torus coordinate.  Scalar points such as ((a, b), (c,)) give a float;
    arrays of points give an array, their leading axes broadcast against
    each other.  A sum of more than _HEAT_MAX_TERMS terms raises DomainError.
    """
    check_real(t, "time", 0.0, strict=True)
    check_real(torus_half_period, "torus half period", 0.0, strict=True)
    xp, xs, yp, ys = (real_array(v, "point coordinate")
                      for v in (x[0], x[1], y[0], y[1]))
    if (xp.ndim == 0 or yp.ndim == 0 or xp.shape[-1] != yp.shape[-1]
            or not 1 <= xp.shape[-1] <= 3):
        raise DomainError("prime parts must match with dimension 1..3")
    if xs.ndim == 0 or ys.ndim == 0 or xs.shape[-1] != 1 or ys.shape[-1] != 1:
        raise DomainError("exactly one torus coordinate is supported")
    try:
        shape = np.broadcast_shapes(*(v.shape[:-1] for v in (xp, xs, yp, ys)))
    except ValueError:
        raise DomainError("the points' leading axes do not broadcast") from None
    d1 = xp.shape[-1]
    xp, yp = (np.broadcast_to(v, shape + (d1,)).reshape(-1, d1)
              for v in (xp, yp))
    ds = np.broadcast_to(xs - ys, shape + (1,)).reshape(-1)
    dp2 = np.sum((xp - yp) ** 2, axis=-1)
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
    root = xi ** 0.5
    step = max(1, _HEAT_BLOCK_TERMS // j_max)
    for p0 in range(0, ds.size, step):
        p1 = min(ds.size, p0 + step)
        expo = np.zeros((p1 - p0, j_max))
        for a in range(d1):
            sa, sb = root * xp[p0:p1, a, None], root * yp[p0:p1, a, None]
            ss = sa * sa + sb * sb
            expo += (2.0 * sa * sb * rho - ss * rho * rho) / one_m - 0.5 * ss
        total[p0:p1] += 2.0 * np.sum(np.cos(xi * ds[p0:p1, None]) * factor
                                     * np.exp(expo), axis=-1)
    total /= 2.0 * torus_half_period
    return float(total[0]) if shape == () else total.reshape(shape)
