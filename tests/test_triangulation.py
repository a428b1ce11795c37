"""Evaluators against each other at one shared configuration.

The tensor-grid engine and the radial path share no code past the spectral
window (oscillator.torus_slabs): the engine synthesizes a kernel column on a
Cartesian grid, the radial path sums Hermite parity lanes against the level
diagonal.  Their gamma = 0 column L^2 norms must agree.
"""

import numpy as np
import pytest

from grushin.engine import schwartz_kernel_column
from grushin.fields import GrushinGrid, SpectralTruncation
from grushin.hermite import PrimeGrid
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
