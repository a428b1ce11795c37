"""Spectral multiplier engine on the product grid.

A partial Fourier transform in the torus variable block-diagonalizes the
operator into a family of scaled harmonic oscillators indexed by the dual
lattice.  Applying a multiplier profile then means: transform, weight each
oscillator eigenspace by the profile value at its eigenvalue, synthesize, and
transform back.  The torus has one axis (GrushinGrid holds d2 = 1), so each
lattice bin m is one slice, at |xi| = m xi_spacing.

Fields are real (Field enforces it), profile values are real, and the slice
operators are real and depend on |xi| only, so F(L) maps a field to a real
field, and the xi and -xi slices carry conjugate data.  The transform is
therefore real-to-real: it keeps the bins m = 0 ... n/2, and the inverse
restores the others.

The zero frequency is special: there the operator degenerates to the Euclidean
Laplacian in x' alone, and the slice is handled by a zero-padded DFT multiplier.

Kernel columns take no torus transform.  The half spectrum of a unit-mass
delta at the node (y', k0) is known in closed form: bin m is one real x' slab
D, 1/cell_volume at y' and 0 elsewhere, times e^{-2 pi i m k0 / n}.  So the
column is

    K(x', k) = (1/n) sum_m c_m cos(2 pi m (k - k0) / n) G_m(x'),

G_m = F(L_{xi_m}) D, c_m = 1 at m = 0 and m = n/2 and 2 otherwise, and every
slab G_m is real.  A nonzero bin keeps G_m factored as H_m^T Q_m: H_m is the
bin's Hermite table along the first x' axis and Q_m holds the weighted
coefficients with the other x' axes already synthesized.  The column is then
filled one block of first-axis rows at a time: the rows of every G_m go into
one buffer of at most _ROW_BLOCK_BYTES, and one real matrix product with the
cosine waves writes that block of the column.  The full stack of slabs G_m
(up to n/2 + 1 of them) is never formed: held at once it would stay resident
in the heap beside the column.
"""

from __future__ import annotations

import functools

import numpy as np
# bound at import, not looked up as np.fft.irfft at call time: the benchmark
# tracer wraps np.fft.irfft as the L^1 path's span, and the torus transforms
# of apply_multiplier (the only caller of partial_fourier and its inverse in
# the program) belong to its engine.fft span
from numpy.fft import irfft, rfft

from .errors import DomainError, TruncationError, real_array
from .fields import Field, GrushinGrid, MultiplierProfile, SpectralTruncation
from .hermite import PrimeGrid
from .oscillator import (
    _level_weights,
    _tables,
    active_level_range,
    oscillator_synthesis,
    oscillator_transform,
)

# bound on each buffer of a kernel column besides the column itself, as on
# the L^1 path's tiles
_ROW_BLOCK_BYTES = 2 * 2 ** 20


def _phase(grid: GrushinGrid) -> np.ndarray:
    """Signs (-1)^m over the bins m = 0 ... n/2 of the half spectrum.

    The torus axis starts at -S, not 0, so each FFT bin m picks up e^{i pi m}.
    The same signs serve both transform directions.
    """
    return 1.0 - 2.0 * (np.arange(grid.n_second // 2 + 1) % 2)


def partial_fourier(field: Field) -> np.ndarray:
    """Transform the torus axis of a field onto the bins m = 0 ... n/2.

    The field is real, so each bin left out, -m, is the conjugate of bin m,
    and bins 0 and n/2 are real.  Normalization is (2 pi)^{-1/2} times the
    Riemann sum with cell weight, so Parseval holds with dual cell weight
    xi_spacing once the bins 0 < m < n/2 are counted twice.
    """
    g = field.grid
    vals = rfft(field.values)
    vals *= _phase(g) * (g.second_spacing / np.sqrt(2.0 * np.pi))
    return vals


def inverse_partial_fourier(grid: GrushinGrid, fhat: np.ndarray) -> Field:
    """Inverse of partial_fourier: a real field.

    fhat is scaled in place, so it is spent once this returns.
    """
    half_shape = grid.shape[:-1] + (grid.n_second // 2 + 1,)
    if fhat.shape != half_shape:
        raise DomainError(f"fhat shape {fhat.shape} does not match the half "
                          f"lattice {half_shape} of the grid")
    fhat *= _phase(grid) * (np.sqrt(2.0 * np.pi) / grid.second_spacing)
    return Field(grid, irfft(fhat, n=grid.n_second))


@functools.lru_cache(maxsize=8)
def _xi_zero_symbol(prime: PrimeGrid):
    """Eigenvalues |zeta|^2 of the 2x padded real DFT of an x' slab.

    Returns (distinct, inverse): the sorted distinct values, and for every
    bin of the half spectrum (last axis 0 ... pad/2) the index of its value.
    Both depend on the x' grid alone, so each grid builds them once.
    """
    d1, pad = prime.d1, 2 * prime.n_points
    zeta2 = (2.0 * np.pi * np.fft.fftfreq(pad, d=prime.spacing)) ** 2
    lam = np.zeros(())
    for axis in range(d1):
        lam = np.add.outer(lam, zeta2 if axis < d1 - 1 else zeta2[:pad // 2 + 1])
    # lam takes far fewer distinct values than it has points (~29k of 262k
    # on a 512^2 padded grid): the profile is evaluated once per value
    distinct, inverse = np.unique(lam, return_inverse=True)
    inverse = inverse.reshape(lam.shape)
    distinct.flags.writeable = inverse.flags.writeable = False
    return distinct, inverse


def _apply_xi_zero(profile: MultiplierProfile, slab: np.ndarray,
                   prime: PrimeGrid) -> np.ndarray:
    """Euclidean functional calculus in x' on the real zero-frequency slice.

    Uses a 2x zero-padded DFT so the implicit periodization does not fold the
    kernel back into the window.  The profile's own support masks the symbol;
    the policy's lambda_max is deliberately not imposed here, since a hard
    spectral edge on this slice would ring against the crop back to the window
    (the ceiling exists to bound oscillator levels, which this slice has none
    of).  The slab is the zero bin of a real field's transform, so it is real;
    the symbol is real and depends on |zeta| only, so one real DFT pair does.
    """
    d1, n = prime.d1, prime.n_points
    pad = 2 * n
    axes = tuple(range(d1))
    crop = (slice(0, n),) * d1
    distinct, inverse = _xi_zero_symbol(prime)
    w = profile(distinct)[inverse]
    w = w.reshape(w.shape + (1,) * (slab.ndim - d1))
    fp = np.zeros((pad,) * d1 + slab.shape[d1:])
    fp[crop] = slab
    spec = np.fft.rfftn(fp, axes=axes)
    return np.fft.irfftn(spec * w, s=(pad,) * d1, axes=axes)[crop]


def slice_levels(profile: MultiplierProfile, prime: PrimeGrid, xi_mag: float,
                 k_max: int, lambda_max: float) -> range:
    """Levels k that F(L_xi) keeps on one nonzero |xi| slice; possibly empty.

    The levels, and the TruncationError past k_max, are those of
    oscillator.active_level_range.  A kept level beyond what the x' grid
    represents reliably at this |xi| raises TruncationError too.
    """
    k_lo, k_hi = active_level_range(profile, xi_mag, prime.d1, lambda_max,
                                    k_max)
    cap = prime.reliable_level_cap(xi_mag)
    if k_lo <= k_hi and k_hi > cap:
        raise TruncationError(k_hi, xi_mag, cap)
    return range(k_lo, k_hi + 1)


def _slice_weights(profile: MultiplierProfile, kept: range, xi_mag: float,
                   d1: int) -> np.ndarray:
    """Profile values over the coefficient tensor of one |xi| slice.

    Entry nu is F((2|nu| + d1)|xi|) for the kept levels and 0 for the others;
    the tensor has kept.stop entries along each of its d1 axes.
    """
    levels = _level_weights((kept.stop,), d1)
    weights = profile((2 * levels + d1) * xi_mag)
    weights[(levels < kept.start) | (levels >= kept.stop)] = 0.0
    return weights


def apply_slice_multiplier(profile: MultiplierProfile, f: np.ndarray, prime: PrimeGrid,
                           xi_mag: float, k_max: int, lambda_max: float) -> np.ndarray:
    """F(L_xi) f on one nonzero |xi| slice via the truncated eigenfunction expansion.

    The first d1 axes of f are spatial; trailing axes are a batch of slices
    sharing |xi|.  Only the levels of slice_levels are kept, and its
    TruncationError conditions apply.
    """
    kept = slice_levels(profile, prime, xi_mag, k_max, lambda_max)
    if not kept:
        return np.zeros_like(f)
    d1 = prime.d1
    coef = oscillator_transform(f, prime, xi_mag, kept[-1])
    weights = _slice_weights(profile, kept, xi_mag, d1)
    weights = weights.reshape(weights.shape + (1,) * (coef.ndim - d1))
    return oscillator_synthesis(coef * weights, prime, xi_mag)


def apply_multiplier(profile: MultiplierProfile, field: Field,
                     trunc: SpectralTruncation) -> Field:
    """Apply F(L) to a field under the given truncation policy; the result is real.

    This is the operator on general fields; on a delta it is the reference
    that schwartz_kernel_column's closed-form path is tested against.

    Each nonzero bin m = 1 ... n/2 goes through apply_slice_multiplier, so
    the TruncationError conditions are those of slice_levels.  Field values
    follow the number rule of grushin.errors, and a profile value with a
    nonzero imaginary part raises DomainError.
    """
    real_array(field.values, "field value")
    grid = field.grid
    prime = grid.prime
    fhat = partial_fourier(field)
    # each bin is read before it is written, so every result goes back into
    # the transform this call owns
    fhat[..., 0] = _apply_xi_zero(profile, fhat[..., 0].real, prime)
    for m in range(1, fhat.shape[-1]):
        fhat[..., m] = apply_slice_multiplier(
            profile, fhat[..., m], prime, m * grid.xi_spacing, trunc.k_max,
            trunc.lambda_max)
    return inverse_partial_fourier(grid, fhat)


def schwartz_kernel_column(profile: MultiplierProfile, grid: GrushinGrid,
                           y_prime, y_second,
                           trunc: SpectralTruncation) -> Field:
    """Kernel column K_F(., y): the profile applied to a unit-mass node delta.

    Equal, up to rounding, to apply_multiplier on the unit-mass delta at y,
    with the same TruncationError raised at the same bin, but without a torus
    transform.  The delta's half spectrum is the real x' slab D times
    e^{-2 pi i m k0 / n} in bin m (module docstring), so the xi = 0 slab is
    _apply_xi_zero of D, and each bin that slice_levels keeps takes
    oscillator_transform of D, the level weights of apply_slice_multiplier
    and a synthesis along every x' axis but the first.  Rows of the first x'
    axis then go through one buffer of at most _ROW_BLOCK_BYTES (one row at
    least): the first-axis synthesis of every bin fills it, and one real
    product with the bins' cosine waves writes that block of the column.  No
    complex array is made, and no grid-sized one but the column.

    y must be a grid node: an off-grid point raises ContractViolation, and
    its coordinates follow the number rule of grushin.errors.
    """
    *foot, k0 = grid.locate(y_prime, y_second)
    prime, n = grid.prime, grid.n_second
    d1, n_rows = prime.d1, prime.n_points
    row_size = n_rows ** (d1 - 1)
    delta = np.zeros((n_rows,) * d1)
    delta[tuple(foot)] = 1.0 / grid.cell_volume
    zero = _apply_xi_zero(profile, delta, prime).reshape(n_rows, row_size)
    bins, factors = [0], []
    for m in range(1, n // 2 + 1):
        xi_mag = m * grid.xi_spacing
        kept = slice_levels(profile, prime, xi_mag, trunc.k_max, trunc.lambda_max)
        if not kept:
            continue
        coef = oscillator_transform(delta, prime, xi_mag, kept[-1])
        coef *= _slice_weights(profile, kept, xi_mag, d1)
        table = _tables(prime, xi_mag, kept[-1])
        for axis in range(1, d1):
            coef = np.moveaxis(np.tensordot(table, coef, axes=(0, axis)), 0, axis)
        bins.append(m)
        factors.append((table, coef.reshape(kept.stop, row_size)))

    bins = np.array(bins)
    phase = np.outer(bins, np.arange(n) - k0) % n
    weight = np.where((bins == 0) | (2 * bins == n), 1.0, 2.0) / n
    waves = weight[:, None] * np.cos((2.0 * np.pi / n) * phase)

    column = np.empty(grid.shape)
    block = max(1, _ROW_BLOCK_BYTES // (8 * bins.size * row_size))
    buffer = np.empty(min(block, n_rows) * bins.size * row_size)
    for start in range(0, n_rows, block):
        rows = slice(start, min(start + block, n_rows))
        size = (rows.stop - start) * row_size
        stack = buffer[:bins.size * size].reshape(bins.size, size)
        stack[0] = zero[rows].ravel()
        for slab, (table, coef) in zip(stack[1:], factors):
            np.matmul(table[:, rows].T, coef, out=slab.reshape(-1, row_size))
        np.matmul(stack.T, waves, out=column[rows].reshape(size, n))
    return Field(grid, column)
