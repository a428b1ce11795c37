"""Evaluators against each other at one shared configuration, and each
against the Grushin dilation.

The tensor-grid engine, the radial path and the L^1 column path share no
code past the spectral window (oscillator.torus_slabs): the engine
synthesizes a kernel column on a Cartesian grid, the radial path sums
Hermite parity lanes against the level diagonal, the L^1 path sums |K| over
nested frames by irfft.  Their norms must agree where they measure the same
thing.  The dilation (x', x'') -> (x'/2, x''/4) maps F(L/R^2) on the torus
of half period S to F(L/(2R)^2) on the torus of half period S/4, so each
norm must follow it exactly.
"""

import numpy as np
import pytest

from grushin.engine import schwartz_kernel_column
from grushin.fields import GrushinGrid, MultiplierProfile, SpectralTruncation
from grushin.hermite import PrimeGrid
from grushin.lab.columns import (
    _reach,
    bochner_riesz_radial_kernel,
    l1_multiplier_norm,
)
from grushin.lab.experiments import band_profile
from grushin.lab.radial import weighted_column_norms

S = np.pi
LAMBDA_MAX = 16.0  # band_profile(4) is supported on [1, 16]
K_MAX = 40


@pytest.mark.parametrize("y_prime", [(0.0, 0.0), (1.5, 1.0)],
                         ids=["u=0", "off-axis"])
def test_engine_column_norm_matches_radial_path(y_prime):
    # X = 8 with 128 points per prime axis; the torus holds the 8 active
    # frequencies xi = 1..8 at n_second = 32.  The radial path leaves the
    # xi = 0 slab out, and the engine's torus mean is exactly that slab.
    # Measured: 2.2e-16 at both nodes, at most 6.7e-16 at the nodes (1, 0)
    # and (2, 0); 64 points per axis give 4.3e-14 at u = 0
    profile = band_profile(4.0)
    grid = GrushinGrid(PrimeGrid(8.0, 128, 2), S, 32, 1)
    column = schwartz_kernel_column(profile, grid, y_prime, (0.0,),
                                    SpectralTruncation(K_MAX, LAMBDA_MAX)).values
    column -= column.mean(axis=-1, keepdims=True)
    engine = np.sqrt(np.sum(column * column) * grid.cell_volume)
    u = np.hypot(*y_prime)
    radial = weighted_column_norms(profile, [u], 0.0, S, K_MAX, LAMBDA_MAX)[0]
    assert engine == pytest.approx(radial, rel=4e-15, abs=0.0)


def bochner_riesz_l1(radius, torus_half_period, u, delta=1.5, **kwargs):
    return l1_multiplier_norm(
        MultiplierProfile.bochner_riesz(1.0 / (radius * radius), delta),
        torus_half_period, u=u, lambda_max=radius * radius, **kwargs)


@pytest.mark.parametrize("u", [0.0, 0.25], ids=["u=0", "u=1/R"])
def test_l1_norm_follows_the_dilation(u):
    # (R, S, u) = (4, 2 pi, u) and (8, pi/2, u/2), the zero slab in closed
    # form; the grids, reaches and spline knots scale by powers of 2, so
    # the two agree to the last bit (measured gap 0 at both feet)
    def closed_form(radius):
        return lambda r: bochner_riesz_radial_kernel(radius, 1.5, r)

    a = bochner_riesz_l1(4.0, 2.0 * np.pi, u, xi_zero_radial=closed_form(4.0))
    b = bochner_riesz_l1(8.0, np.pi / 2.0, u / 2.0,
                         xi_zero_radial=closed_form(8.0))
    assert b == pytest.approx(a, rel=1e-14, abs=0.0)


def test_weighted_norm_gains_the_homogeneous_factor():
    # |x'|^gamma-weighted column L^2 norms at (4, pi, u) and (8, pi/4, u/2):
    # the second is 2^(Q/2 - gamma) times the first, Q = 4, gamma = 0.25.
    # Measured: at most 2.2e-16 over the five feet
    gamma, u = 0.25, np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    a = weighted_column_norms(band_profile(4.0), u, gamma, S, 4000, 16.0)
    b = weighted_column_norms(band_profile(8.0), u / 2.0, gamma, S / 4.0,
                              4000, 64.0)
    np.testing.assert_allclose(b, 2.0 ** (2.0 - gamma) * a, rtol=1e-14, atol=0)


@pytest.mark.parametrize("delta", [1.5, 0.2])
def test_engine_column_l1_matches_l1_path(delta):
    # Bochner-Riesz at R = 4, u = 0, S = pi/2, with the torus mean (the
    # xi = 0 slab) removed on both sides: the engine's window is the L^1
    # extent, past which every torus slab is dead, so neither cuts a
    # kernel the other keeps.  Engine: 128 points per prime axis and 128
    # on the torus; L^1 path: 16 points per wavelength, fft_oversample 4.
    # Measured gaps 4.9e-6 (delta = 1.5) and 9.5e-6 (delta = 0.2); both
    # sums carry the resolution error of |K| at its kinks
    radius, half_period = 4.0, np.pi / 2.0
    extent = float(_reach(radius * radius, np.pi / half_period))
    grid = GrushinGrid(PrimeGrid(extent, 128, 2), half_period, 128, 1)
    profile = MultiplierProfile.bochner_riesz(1.0 / (radius * radius), delta)
    column = schwartz_kernel_column(
        profile, grid, (0.0, 0.0), (0.0,),
        SpectralTruncation(64, radius * radius)).values
    column -= column.mean(axis=-1, keepdims=True)
    engine = float(np.abs(column).sum()) * grid.cell_volume
    path = bochner_riesz_l1(radius, half_period, 0.0, delta=delta,
                            points_per_wavelength=16.0, fft_oversample=4,
                            xi_zero_radial=np.zeros_like)
    assert engine == pytest.approx(path, rel=2e-5, abs=0.0)
