"""Normalized Hermite functions and the x' grid they are sampled on.

Everything here lives at unit coupling: the reference operator is -d^2/du^2 + u^2 per
axis, with eigenvalue 2n+1 on the n-th normalized Hermite function h_n.  The
|xi|-scaled machinery builds on these via the substitution u -> sqrt(|xi|) u, see
grushin.oscillator.
"""

from __future__ import annotations

import math
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
    overflow-free for every n reachable at desk scale.  This is the one-lane
    case of hermite_lanes.
    """
    check_integer(nmax, "nmax")
    u = real_array(u, "hermite evaluation point")
    return hermite_lanes([nmax], u.reshape(-1), [u.size]).reshape(
        (nmax + 1,) + u.shape)


def hermite_lanes(tops, u: np.ndarray, ends) -> np.ndarray:
    """Hermite tables of several lanes of points from one recurrence.

    Lane i holds the points u[ends[i - 1]:ends[i]] (from 0 for the first)
    and needs rows n = 0..tops[i].  tops is non-increasing, so the lanes
    that reach level n hold a prefix of the flat vector u, and one vector
    step per level serves them all.  Returns out of shape
    (tops[0] + 1, u.size): lane i's table is the view
    out[:tops[i] + 1, ends[i - 1]:ends[i]], equal bit for bit to
    hermite_table(tops[i], its points); the entries past a lane's top are
    unset.  tops and ends are trusted, as hermite_table and the L^1 column
    path build them.
    """
    tops = np.asarray(tops)
    # live[n]: the points of the lanes that reach level n
    live = np.asarray(ends)[np.searchsorted(
        -tops, -np.arange(tops[0] + 1), side="right") - 1].tolist()
    out = np.empty((tops[0] + 1, u.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    if tops[0] >= 1:
        p = live[1]
        out[1, :p] = np.sqrt(2.0) * u[:p] * out[0, :p]
    for n in range(1, tops[0]):
        p = live[n + 1]
        row = np.multiply(math.sqrt(2.0 / (n + 1)), u[:p], out=out[n + 1, :p])
        row *= out[n, :p]
        row -= math.sqrt(n / (n + 1.0)) * out[n - 1, :p]
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
