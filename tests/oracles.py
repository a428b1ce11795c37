"""Test-only references for the paths the experiments use.

Nothing in the program calls these.  Each one computes, by a route of its
own, a quantity that a tested path also computes, or builds test input for
it:
- eigenfunctions as per-axis Hermite products over enumerated multi-indices;
- level projection kernels as brute-force multi-index sums, and the level-k
  projection through the engine's transform/synthesis pair;
- the rotation-invariant level profile from axis values at the origin (the
  gamma = 0 reference of the radial path), its Gaussian tail fit, and the
  exact p = 1 level-k restriction norm from its maximum;
- the Hardy-type weight check on the oscillator transform;
- the full-lattice multiplier path (complex FFT over the torus axis, every
  +-xi bin weighted by the real profile values), against which the engine's
  half-lattice path is checked;
- the weighted radial Gram matrix M M^T from the radial path's closed-form
  factor (compared with quadrature and mpmath in the radial tests);
- the discrete inner product and L^p norm of fields, fields sampled from a
  function, the unit-mass node delta, the torus frequency labels in FFT
  order, the sharp indicator profile, a smooth bump profile and the
  unbounded wave profile cos(s sqrt(lam)).
"""

from __future__ import annotations

import numpy as np

from grushin.errors import (
    ContractViolation,
    DomainError,
    TruncationError,
    check_real,
)
from grushin.engine import _apply_xi_zero, apply_slice_multiplier, slice_levels
from grushin.fields import Field, GrushinGrid, MultiplierProfile, SpectralTruncation
from grushin.hermite import PrimeGrid, hermite_table
from grushin.lab.radial import _connection_matrix, _gauss_modes
from grushin.oscillator import _level_weights, oscillator_synthesis, oscillator_transform


def hermite_eval(n: int, u) -> np.ndarray | float:
    """h_n(u) for a single degree n; u may be a scalar or an array."""
    scalar = np.isscalar(u)
    vals = hermite_table(n, np.atleast_1d(np.asarray(u, dtype=float)))[n]
    return float(vals[0]) if scalar else vals


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


def phi_xi_eval(nu, xi_mag: float, x_prime) -> float:
    """Phi_nu^xi(x') = |xi|^{d1/4} Phi_nu(sqrt(|xi|) x')."""
    if xi_mag <= 0:
        raise DomainError("xi_mag must be positive")
    x = np.asarray(x_prime, dtype=float)
    d1 = len(tuple(nu))
    return xi_mag ** (d1 / 4.0) * phi_eval(nu, np.sqrt(xi_mag) * x)


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


def level_sum_profile(k: int, d1: int, r: np.ndarray) -> np.ndarray:
    """Radial profile Q_k(r) = sum_{|nu|=k} Phi_nu(r e_1)^2.

    Splitting nu = (a, nu') gives Q_k(r) = sum_a h_a(r)^2 W_{k-a} where
    W_m = sum_{|nu'|=m} Phi_{nu'}(0)^2 is the (d1-1)-fold convolution of the
    squared axis values at the origin.
    """
    if k < 0:
        raise DomainError("level must be >= 0")
    r = np.asarray(r, dtype=float)
    h2 = hermite_table(k, r) ** 2
    if d1 == 1:
        return h2[k]
    w = hermite_table(k, np.zeros(1))[:, 0] ** 2
    W = w.copy()
    for _ in range(d1 - 2):
        W = np.convolve(W, w)[: k + 1]
    return np.tensordot(W[::-1], h2, axes=(0, 0))  # sum_a h_a^2 W_{k-a}


def gaussian_decay_fit(k: int, d1: int, n_samples: int = 64,
                       margin: float = 6.0) -> tuple[float, float]:
    """Fit Q_k(r) <= C exp(-c r^2) on the classically forbidden tail r^2 >= 2(2k+d1).

    Returns (c, C) from a least-squares line through log Q_k against r^2, over
    r up to `margin` past the turning point.  Callers assert c > 0.
    """
    lam = 2.0 * k + d1
    r = np.sqrt(np.linspace(2.0 * lam, (np.sqrt(lam) + margin) ** 2, n_samples))
    q = level_sum_profile(k, d1, r)
    good = q > 0
    if good.sum() < 8:
        raise DomainError("tail underflows; reduce k")
    A = np.vstack([r[good] ** 2, np.ones(good.sum())]).T
    slope, intercept = np.linalg.lstsq(A, np.log(q[good]), rcond=None)[0]
    return -float(slope), float(np.exp(intercept))


def restriction_norm_level(k: int, xi_mag: float, p: float, d1: int,
                           refine: int = 9) -> float:
    """Operator norm of the level-k projection from L^p into L^2, for p = 1 only.

    The norm equals sup_{y'} sqrt(sum_{|nu|=k} Phi_nu^xi(y')^2), evaluated on a
    dense radial grid (the level sum is radial) with parabolic refinement of
    the maximum.
    """
    if not (1.0 <= p <= 2.0):
        raise DomainError("p must lie in [1, 2]")
    if xi_mag <= 0:
        raise DomainError("xi_mag must be positive")
    if p != 1.0:
        raise DomainError("only the exact endpoint p = 1 is computed")
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


def weighted_oscillator_check(f: np.ndarray, xi_mag: float, k_max: int, d1: int,
                              gamma: float, grid: PrimeGrid) -> tuple[float, float]:
    """(|| |x'|^gamma f ||_2, || |xi|^{-gamma} L_xi^{gamma/2} f ||_2).

    L_xi^{gamma/2} acts spectrally on the reliable span, levels up to k_max.
    At gamma = 0 the two sides agree up to arithmetic noise.  Zero input is
    rejected: their ratio would be 0/0.
    """
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    f = np.asarray(f)
    nf2 = np.sum(np.abs(f) ** 2) * grid.cell
    if nf2 == 0:
        raise DomainError("weighted check needs a nonzero field")
    axes = np.meshgrid(*([grid.axis] * grid.d1), indexing="ij")
    r2 = sum(a * a for a in axes)
    num = np.sqrt(np.sum(r2 ** gamma * np.abs(f) ** 2) * grid.cell)
    k_hi = min(k_max, grid.reliable_level_cap(xi_mag))
    coef = oscillator_transform(f, grid, xi_mag, k_hi)
    levels = _level_weights(coef.shape, grid.d1)
    eig = (2 * levels + d1) * xi_mag
    den = xi_mag ** (-gamma) * np.sqrt(np.sum(eig ** gamma * np.abs(coef) ** 2))
    return float(num), float(den)


def radial_gram(n_max: int, l: int, gamma: float) -> np.ndarray:
    """Gram matrix int_0^inf s^{2 gamma + 1} psi_{n,l} psi_{m,l} ds.

    Formed as M M^T from the closed-form factor the radial path uses (the
    Laguerre connection formula, DLMF 18.18.18).  gamma = 0 recovers the
    identity (orthonormality) to rounding.
    """
    if n_max < 0 or l < 0:
        raise DomainError("need n_max >= 0 and l >= 0")
    if not 0.0 <= gamma < np.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma!r}")
    e, ep_inv = _gauss_modes(np.array([n_max]), np.array([[l]]), gamma)
    factor = e[0, :, None] * _connection_matrix(n_max + 1, gamma) * ep_inv[0]
    return factor @ factor.T


def indicator(lo: float, hi: float) -> MultiplierProfile:
    """The sharp spectral band 1_[lo, hi]."""
    return MultiplierProfile(lambda lam: ((lam >= lo) & (lam <= hi)).astype(float),
                             (lo, hi), label=f"indicator[{lo:g},{hi:g}]")


def wave_cosine(s: float) -> MultiplierProfile:
    """cos(s sqrt(lam)); unbounded support, band-limited only by policy."""
    check_real(s, "propagation time", 0.0)
    return MultiplierProfile(lambda lam: np.cos(s * np.sqrt(np.maximum(lam, 0.0))),
                             (0.0, np.inf), label=f"wave_cosine(s={s:g})")


def bump(lo: float, hi: float) -> MultiplierProfile:
    """(lambda - lo)(hi - lambda) on [lo, hi], vanishing at both edges."""
    return MultiplierProfile(
        lambda lam: np.maximum(0.0, (lam - lo) * (hi - lam)), (lo, hi))


def inner(f: Field, g: Field) -> float:
    """<f, g> on the grid."""
    if g.grid != f.grid:
        raise ContractViolation("fields live on different grids")
    return float(np.vdot(g.values, f.values) * f.grid.cell_volume)


def norm_lp(field: Field, p: float) -> float:
    """Discrete L^p norm of a field, with the grid's cell volume; p may be inf."""
    if p == np.inf:
        return float(np.max(np.abs(field.values)))
    if p <= 0:
        raise DomainError("p must be positive or inf")
    w = field.grid.cell_volume
    return float((np.sum(np.abs(field.values) ** p) * w) ** (1.0 / p))


def field_from_function(grid: GrushinGrid, fn) -> Field:
    """Sample fn(*x_prime_coords, *x_second_coords) on the grid."""
    xp = np.meshgrid(*([grid.prime.axis] * grid.prime.d1 + [grid.second_axis]),
                     indexing="ij")
    return Field(grid, fn(*xp))


def delta_field(grid: GrushinGrid, x_prime, x_second) -> Field:
    """Unit-mass discrete delta: indicator of one node divided by cell volume.

    The node is found by GrushinGrid.locate, whose errors apply.
    """
    values = np.zeros(grid.shape)
    values[grid.locate(x_prime, x_second)] = 1.0 / grid.cell_volume
    return Field(grid, values)


def xi_index(grid: GrushinGrid) -> np.ndarray:
    """Integer torus frequency labels in FFT order."""
    return np.rint(np.fft.fftfreq(grid.n_second) * grid.n_second).astype(int)


def _full_lattice_phase(grid: GrushinGrid) -> np.ndarray:
    return 1.0 - 2.0 * (np.abs(xi_index(grid)) % 2)


def full_lattice_groups(grid: GrushinGrid) -> list:
    """[(xi_mag, indices)] over the whole dual lattice, grouped by |xi|.

    Each group but those of 0 and the Nyquist bin holds the pair +-m.
    """
    key = xi_index(grid).astype(np.int64) ** 2
    order = np.argsort(key, kind="stable")
    groups, start = [], 0
    for stop in range(1, order.size + 1):
        if stop == order.size or key[order[stop]] != key[order[start]]:
            groups.append((grid.xi_spacing * float(np.sqrt(key[order[start]])),
                           order[start:stop]))
            start = stop
    return groups


def full_lattice_apply(profile: MultiplierProfile, field: Field,
                       trunc: SpectralTruncation) -> np.ndarray:
    """F(L) f through a complex FFT over the torus axis and every lattice bin.

    The engine's slice kernels weight each |xi| group by the real profile
    values, as in the engine; only the lattice handling differs: no
    real-input half spectrum, and each +-xi pair goes through the slice
    kernel together.  The zero bin of the real field's spectrum is real, and
    its real part goes to _apply_xi_zero as the engine passes it.  The result
    is complex; its imaginary part is rounding.
    """
    grid, prime = field.grid, field.grid.prime
    spacing = grid.second_spacing / np.sqrt(2.0 * np.pi)
    fh = np.fft.fft(field.values) * _full_lattice_phase(grid) * spacing
    for xi_mag, idx in full_lattice_groups(grid):
        if xi_mag == 0.0:
            fh[..., idx] = _apply_xi_zero(profile, fh[..., idx].real, prime)
        elif slice_levels(profile, prime, xi_mag, trunc.k_max, trunc.lambda_max):
            fh[..., idx] = apply_slice_multiplier(profile, fh[..., idx], prime, xi_mag,
                                                  trunc.k_max, trunc.lambda_max)
        else:
            fh[..., idx] = 0.0
    fh *= _full_lattice_phase(grid) / spacing
    return np.fft.ifft(fh)
