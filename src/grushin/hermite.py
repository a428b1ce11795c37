"""Normalized Hermite functions and the x' grid they are sampled on.

Everything here lives at unit coupling: the reference operator is -d^2/du^2 + u^2 per
axis, with eigenvalue 2n+1 on the n-th normalized Hermite function h_n.  The
|xi|-scaled machinery builds on these via the substitution u -> sqrt(|xi|) u, see
grushin.oscillator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_integer, check_real, real_array

__all__ = [
    "PrimeGrid",
    "hermite_table",
]

# Grids narrower than the classical turning point plus this many units
# under-resolve the highest requested level.
MIN_TURNING_MARGIN = 4.0


def hermite_table(nmax: int, u: np.ndarray) -> np.ndarray:
    """Rows n = 0..nmax of the L2-normalized Hermite functions at the points u.

    Upward three-term recurrence on the normalized functions themselves,
    h_{n+1} = sqrt(2/(n+1)) u h_n - sqrt(n/(n+1)) h_{n-1}, which is stable and
    overflow-free for every n reachable at desk scale.
    """
    check_integer(nmax, "nmax")
    u = real_array(u, "hermite evaluation point")
    out = np.empty((nmax + 1,) + u.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    if nmax >= 1:
        out[1] = np.sqrt(2.0) * u * out[0]
    for n in range(1, nmax):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * u * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


@dataclass(frozen=True)
class PrimeGrid:
    """Uniform grid on [-X, X)^d1 used to sample the x' factor.

    The axis contains 0 exactly when n_points is even.  Quadrature is the plain
    Riemann rule with uniform cell weight spacing**d1, which is spectrally accurate
    for the super-exponentially decaying integrands that arise here.
    """

    half_width: float
    n_points: int
    d1: int

    def __post_init__(self):
        check_real(self.half_width, "half_width", 0.0, strict=True)
        check_integer(self.n_points, "n_points", minimum=2)
        check_integer(self.d1, "d1", minimum=1)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_points

    @property
    def cell(self) -> float:
        return self.spacing ** self.d1

    @property
    def axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.n_points)

    def reliable_level_cap(self, xi_mag: float = 1.0) -> int:
        """Largest level whose turning point stays MIN_TURNING_MARGIN inside the box."""
        reach = np.sqrt(xi_mag) * self.half_width - MIN_TURNING_MARGIN
        if reach <= 0:
            return -1
        return int(np.floor((reach * reach - self.d1) / 2.0))
