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
"""

from __future__ import annotations

import functools

import numpy as np
# bound at import, not looked up as np.fft.irfft at call time: the benchmark
# tracer wraps np.fft.irfft as the L^1 path's span, and the engine's torus
# transforms belong to its engine.fft span
from numpy.fft import irfft, rfft

from .errors import DomainError, TruncationError
from .fields import Field, GrushinGrid, MultiplierProfile, SpectralTruncation, delta_field
from .hermite import PrimeGrid
from .oscillator import (
    _level_weights,
    active_level_range,
    oscillator_synthesis,
    oscillator_transform,
)


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

    A level is kept when its eigenvalue (2k + d1)|xi| lies in supp(F) and at
    or below lambda_max.  Raises TruncationError, naming the first offending
    level, if a kept level is beyond k_max or beyond what the x' grid can
    represent reliably at this |xi|.
    """
    k_lo, k_hi = active_level_range(profile, xi_mag, prime.d1, lambda_max)
    if k_hi >= k_lo:
        if k_hi > k_max:
            raise TruncationError(k_hi, xi_mag, k_max)
        cap = prime.reliable_level_cap(xi_mag)
        if k_hi > cap:
            raise TruncationError(k_hi, xi_mag, cap)
    return range(k_lo, k_hi + 1)


def apply_slice_multiplier(profile: MultiplierProfile, f: np.ndarray, prime: PrimeGrid,
                           xi_mag: float, k_max: int, lambda_max: float) -> np.ndarray:
    """F(L_xi) f on one nonzero |xi| slice via the truncated eigenfunction expansion.

    The first d1 axes of f are spatial; trailing axes are a batch of slices
    sharing |xi|.  Only the levels of slice_levels are kept, and its
    TruncationError conditions apply.
    """
    kept = slice_levels(profile, prime, xi_mag, k_max, lambda_max)
    if not kept:
        return np.zeros(np.shape(f), dtype=complex)
    d1 = prime.d1
    coef = oscillator_transform(f, prime, xi_mag, kept[-1])
    levels = _level_weights(coef.shape, d1)
    weights = profile((2 * levels + d1) * xi_mag)
    weights[(levels < kept.start) | (levels >= kept.stop)] = 0.0
    weights = weights.reshape(weights.shape + (1,) * (coef.ndim - d1))
    return oscillator_synthesis(coef * weights, prime, xi_mag)


def apply_multiplier(profile: MultiplierProfile, field: Field,
                     trunc: SpectralTruncation) -> Field:
    """Apply F(L) to a field under the given truncation policy; the result is real.

    Each nonzero bin m = 1 ... n/2 goes through apply_slice_multiplier, so
    the TruncationError conditions are those of slice_levels.  A field with
    a NaN or infinite value raises DomainError, and so does a profile value
    with a nonzero imaginary part.
    """
    if not np.isfinite(field.values).all():
        raise DomainError("field has a NaN or infinite value")
    grid = field.grid
    prime = grid.prime
    fhat = partial_fourier(field)
    # each bin is read before it is written, so every result goes back into
    # the transform this call owns
    for m in range(fhat.shape[-1]):
        xi_mag = m * grid.xi_spacing
        bin_m = fhat[..., m]
        if m == 0:
            bin_m[...] = _apply_xi_zero(profile, bin_m.real, prime)
        elif slice_levels(profile, prime, xi_mag, trunc.k_max, trunc.lambda_max):
            bin_m[...] = apply_slice_multiplier(profile, bin_m, prime, xi_mag,
                                                trunc.k_max, trunc.lambda_max)
        else:
            # no kept level: skip the transform
            bin_m[...] = 0.0
    return inverse_partial_fourier(grid, fhat)


def schwartz_kernel_column(profile: MultiplierProfile, grid: GrushinGrid,
                           y_prime, y_second,
                           trunc: SpectralTruncation) -> Field:
    """Kernel column K_F(., y): the profile applied to a unit-mass node delta.

    y must be a grid node: an off-grid point raises ContractViolation, and a
    NaN or infinite coordinate DomainError.
    """
    return apply_multiplier(profile, delta_field(grid, y_prime, y_second), trunc)
