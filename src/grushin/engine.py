"""Spectral multiplier engine on the product grid.

A partial Fourier transform in the torus variables block-diagonalizes the
operator into a family of scaled harmonic oscillators indexed by the dual
lattice.  Applying a multiplier profile then means: transform, weight each
oscillator eigenspace by the profile value at its eigenvalue, synthesize, and
transform back.  Frequencies with equal magnitude share one eigenfunction
table, so slices are processed in |xi| groups.

Profile values are real and the slice operators are real and depend on |xi|
only, so F(L) maps real fields to real fields, and the xi and -xi slices
carry conjugate data.  The transform is therefore real-to-real: it keeps the
half lattice whose last torus frequency is >= 0, and the inverse restores
the other half.  A complex field goes through that path by linearity, as
F(L) Re f + i F(L) Im f, skipping a part that is all zero.

The zero frequency is special: there the operator degenerates to the Euclidean
Laplacian in x' alone, and the slice is handled by a zero-padded DFT multiplier.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractViolation, DomainError, TruncationError
from .fields import Field, GrushinGrid, MultiplierProfile, SpectralTruncation, delta_field
from .hermite import PrimeGrid
from .oscillator import (
    _level_weights,
    active_level_range,
    oscillator_synthesis,
    oscillator_transform,
)


def _half_lattice(grid: GrushinGrid) -> list:
    """Integer frequency labels of each torus axis of the half spectrum.

    All axes but the last are in FFT order; the last keeps m = 0 ... n/2.
    """
    return [grid.xi_index] * (grid.d2 - 1) + [np.arange(grid.n_second // 2 + 1)]


def _phase(grid: GrushinGrid) -> np.ndarray:
    """Product of per-axis signs (-1)^m translating FFT phases to the torus origin.

    The torus axis starts at -S, not 0, so each FFT bin m picks up e^{i pi m}.
    The same sign array serves both transform directions.
    """
    out = np.ones(())
    for m in _half_lattice(grid):
        out = np.multiply.outer(out, 1.0 - 2.0 * (np.abs(m) % 2))
    return out


def partial_fourier(field: Field) -> np.ndarray:
    """Transform the torus axes of a real field onto the half lattice.

    The bins are those of _half_lattice, in FFT order; each bin left out, with
    a negative last frequency, is the conjugate of one kept.  Normalization is
    (2 pi)^{-d2/2} times the Riemann sum with cell weight, so Parseval holds
    with dual cell weight xi_spacing^d2 once the bins 0 < m < n/2 of the last
    axis are counted twice.  A complex field raises ContractViolation: its
    real and imaginary parts are transformed one at a time.
    """
    if np.iscomplexobj(field.values):
        raise ContractViolation("partial_fourier takes a real field; transform "
                                "the real and imaginary parts one at a time")
    g = field.grid
    axes = tuple(range(g.d1, g.d1 + g.d2))
    vals = np.fft.rfftn(field.values, axes=axes)
    vals *= _phase(g) * (g.second_spacing / np.sqrt(2.0 * np.pi)) ** g.d2
    return vals


def inverse_partial_fourier(grid: GrushinGrid, fhat: np.ndarray) -> Field:
    """Inverse of partial_fourier: a real field.

    fhat is scaled in place, so it is spent once this returns.
    """
    half_shape = grid.shape[:-1] + (grid.n_second // 2 + 1,)
    if fhat.shape != half_shape:
        raise DomainError(f"fhat shape {fhat.shape} does not match the half "
                          f"lattice {half_shape} of the grid")
    axes = tuple(range(grid.d1, grid.d1 + grid.d2))
    fhat *= _phase(grid) * (np.sqrt(2.0 * np.pi) / grid.second_spacing) ** grid.d2
    return Field(grid, np.fft.irfftn(fhat, s=(grid.n_second,) * grid.d2, axes=axes))


def xi_groups(grid: GrushinGrid):
    """[(xi_mag, flat_indices)] over the half lattice, grouped by |xi|, ascending.

    flat_indices index the flattened torus axes of the half spectrum (C
    order), matching fhat.reshape(prime_shape + (-1,)).  For d2 = 1 every
    group is one bin.
    """
    labels = np.meshgrid(*_half_lattice(grid), indexing="ij")
    key = sum(m.astype(np.int64) ** 2 for m in labels).reshape(-1)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    starts = np.flatnonzero(np.diff(sorted_key)) + 1
    return [(grid.xi_spacing * float(np.sqrt(k)), idx)
            for k, idx in zip(sorted_key[np.r_[0, starts]], np.split(order, starts))]


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
    """Euclidean functional calculus in x' on the zero-frequency slice.

    Uses a 2x zero-padded DFT so the implicit periodization does not fold the
    kernel back into the window.  The profile's own support masks the symbol;
    the policy's lambda_max is deliberately not imposed here, since a hard
    spectral edge on this slice would ring against the crop back to the window
    (the ceiling exists to bound oscillator levels, which this slice has none
    of).  The symbol is real and depends on |zeta| only, so the DFT pair is
    real to real: a slab whose imaginary part is nonzero takes one pair per
    part.  The zero slice of a real field's transform is real and takes one
    pair.
    """
    d1, n = prime.d1, prime.n_points
    pad = 2 * n
    axes = tuple(range(d1))
    crop = (slice(0, n),) * d1
    distinct, inverse = _xi_zero_symbol(prime)
    w = profile(distinct)[inverse]
    w = w.reshape(w.shape + (1,) * (slab.ndim - d1))

    def real_pass(part):
        fp = np.zeros((pad,) * d1 + part.shape[d1:])
        fp[crop] = part
        spec = np.fft.rfftn(fp, axes=axes)
        return np.fft.irfftn(spec * w, s=(pad,) * d1, axes=axes)[crop]

    if np.iscomplexobj(slab) and slab.imag.any():
        return real_pass(slab.real) + 1j * real_pass(slab.imag)
    return real_pass(slab.real)


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
    """Apply F(L) to a field under the given truncation policy.

    Each nonzero |xi| group goes through apply_slice_multiplier, so the
    TruncationError conditions are those of slice_levels.  A field with a
    NaN or infinite value raises DomainError, and so does a profile value
    with a nonzero imaginary part.  The result is real when the field is.
    """
    if not np.isfinite(field.values).all():
        raise DomainError("field has a NaN or infinite value")
    if not np.iscomplexobj(field.values):
        return _apply_real(profile, field, trunc)
    grid = field.grid
    re, im = field.values.real, field.values.imag
    out = 0.0
    # the real part also runs when both parts are zero, so that the
    # truncation checks still apply
    if re.any() or not im.any():
        out = _apply_real(profile, Field(grid, re), trunc).values
    if im.any():
        out = out + 1j * _apply_real(profile, Field(grid, im), trunc).values
    return Field(grid, out)


def _apply_real(profile: MultiplierProfile, field: Field,
                trunc: SpectralTruncation) -> Field:
    """apply_multiplier on a real field, over the half lattice."""
    grid = field.grid
    prime = grid.prime
    fhat = partial_fourier(field)
    # the groups are disjoint and each is read before it is written, so every
    # result goes back into the transform this call owns
    fh = fhat.reshape(fhat.shape[:prime.d1] + (-1,))
    for xi_mag, idx in xi_groups(grid):
        if xi_mag == 0.0:
            fh[..., idx] = _apply_xi_zero(profile, fh[..., idx], prime)
        elif slice_levels(profile, prime, xi_mag, trunc.k_max, trunc.lambda_max):
            fh[..., idx] = apply_slice_multiplier(profile, fh[..., idx], prime, xi_mag,
                                                  trunc.k_max, trunc.lambda_max)
        else:
            # no kept level: skip the gather and the transform
            fh[..., idx] = 0.0
    return inverse_partial_fourier(grid, fhat)


def schwartz_kernel_column(profile: MultiplierProfile, grid: GrushinGrid,
                           y_prime, y_second,
                           trunc: SpectralTruncation) -> Field:
    """Kernel column K_F(., y): the profile applied to a unit-mass node delta.

    y must be a grid node; off-grid points raise ContractViolation.
    """
    return apply_multiplier(profile, delta_field(grid, y_prime, y_second), trunc)
