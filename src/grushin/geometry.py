"""Quasi-distance, ball volumes and doubling ratios.

The anisotropic dilation structure (x', x'') -> (t x', t^2 x'') induces a
two-branch quasi-distance rho: the second layer costs the smaller of a
square root, which serves near the degenerate set {x' = 0}, and a cost
graded by 1/(|x'| + |y'|).  rho and the model volume are comparability
representatives, with constants fitted by the consumer; the volumes of
rho's own balls are integrated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ContractViolation, DomainError, check_real, real_array
from .fields import GrushinGrid


@dataclass(frozen=True)
class MetricPoint:
    """A point x = (x', x'') of the product space."""

    x_prime: Tuple[float, ...]
    x_second: Tuple[float, ...]

    def __post_init__(self):
        for part in ("x_prime", "x_second"):
            coords = real_array(getattr(self, part), "metric point coordinate")
            if coords.ndim != 1 or coords.size == 0:
                raise DomainError(f"metric point {part} must be a non-empty flat "
                                  f"list of numbers, got {getattr(self, part)!r}")
            object.__setattr__(self, part, tuple(coords.tolist()))

    @property
    def d1(self) -> int:
        return len(self.x_prime)

    @property
    def d2(self) -> int:
        return len(self.x_second)

    @property
    def prime_norm(self) -> float:
        return math.hypot(*self.x_prime) if self.d1 > 1 else abs(self.x_prime[0])


def _rho_from_parts(dp: np.ndarray, ds: np.ndarray, ax: np.ndarray,
                    ay: np.ndarray) -> np.ndarray:
    """Two-branch quasi-distance from precomputed norms.

    dp = |x'-y'|, ds = |x''-y''|, ax = |x'|, ay = |y'|.  The second layer
    costs min(sqrt(ds), ds / (ax + ay)), the graded cost where
    sqrt(ds) <= ax + ay.  fmin passes over the inf or 0/0 at ax + ay = 0,
    and over the inf of an overflow where ax + ay is tiny.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.asarray(ds / (ax + ay))  # even for scalars: filled in place
    np.fmin(out, np.sqrt(ds), out=out)
    out += dp
    return out


def grushin_distance(x: MetricPoint, y: MetricPoint) -> float:
    """The explicit two-branch representative of the control distance."""
    if x.d1 != y.d1 or x.d2 != y.d2:
        raise ContractViolation(
            f"dimension mismatch: ({x.d1},{x.d2}) vs ({y.d1},{y.d2})")
    dp = math.dist(x.x_prime, y.x_prime)
    ds = math.dist(x.x_second, y.x_second)
    return float(_rho_from_parts(np.float64(dp), np.float64(ds),
                                 np.float64(x.prime_norm), np.float64(y.prime_norm)))


def grushin_distance_arrays(x_prime: np.ndarray, x_second: np.ndarray,
                            y_prime: np.ndarray, y_second: np.ndarray) -> np.ndarray:
    """Vectorized quasi-distance; the last axis of each input is the coordinate
    axis, leading axes broadcast."""
    x_prime, x_second, y_prime, y_second = (
        real_array(v, "point coordinate")
        for v in (x_prime, x_second, y_prime, y_second))
    dp = np.linalg.norm(x_prime - y_prime, axis=-1)
    ds = np.linalg.norm(x_second - y_second, axis=-1)
    ax = np.linalg.norm(x_prime, axis=-1)
    ay = np.linalg.norm(y_prime, axis=-1)
    return _rho_from_parts(dp, ds, ax, ay)


def torus_wrap(delta: np.ndarray, half_period: float) -> np.ndarray:
    """Minimal-image representative of a difference on [-S, S) per axis."""
    span = 2.0 * half_period
    return (np.asarray(delta) + half_period) % span - half_period


def grushin_distance_field(grid: GrushinGrid, y_prime, y_second,
                           wrap: bool = True) -> np.ndarray:
    """Distance from every grid node to y, shaped like the grid.

    With wrap=True the difference x'' - y'' is taken on the torus axis
    (minimal image), matching the periodic discretization.
    """
    y_prime = np.atleast_1d(real_array(y_prime, "prime coordinate"))
    y_second = np.atleast_1d(real_array(y_second, "torus coordinate"))
    if y_prime.shape != (grid.prime.d1,) or y_second.shape != (grid.d2,):
        raise ContractViolation("point has wrong dimensions for this grid")
    xp = np.stack(np.meshgrid(*([grid.prime.axis] * grid.prime.d1),
                              indexing="ij"), axis=-1)
    dp = np.linalg.norm(xp - y_prime, axis=-1)[..., None]
    ax = np.linalg.norm(xp, axis=-1)[..., None]
    dsec = grid.second_axis - y_second[0]
    if wrap:
        dsec = torus_wrap(dsec, grid.torus_half_period)
    return _rho_from_parts(dp, np.abs(dsec), ax, np.linalg.norm(y_prime))


def ball_volume_model(x: MetricPoint, r: float) -> float:
    """Comparability representative r^{d1+d2} max{r, |x'|}^{d2}; one past
    about e^(+-700) raises DomainError."""
    check_real(r, "radius", 0.0, strict=True)
    outer = max(r, x.prime_norm)
    if abs((x.d1 + x.d2) * math.log(r) + x.d2 * math.log(outer)) > 700.0:
        raise DomainError(f"the model volume leaves the float range at "
                          f"r = {r:g}")
    return r ** (x.d1 + x.d2) * outer ** x.d2


@functools.cache
def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1], built
    once per n and shared, so no caller writes to them.

    Newton's method on the Legendre recurrence from Tricomi's starting
    values; at n = 32 the fourth of its 8 steps already moves no node by
    1e-16.  Unlike numpy's leggauss it calls no LAPACK, whose first use
    added 0.5 MB to the peak resident memory of a process that needs no
    LAPACK otherwise (a bochner_l1 benchmark round).
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp)


_RADIAL_NODES = 96  # ball_volume's Gauss-Legendre nodes per radial piece
_ANGLE_NODES = 256  # and its midpoint nodes on [0, pi], mirrored to [pi, 2 pi]


def ball_volume(x: MetricPoint, r: float) -> float:
    """|B(x, r)| for (d1, d2) = (2, 1), by quadrature; other pairs, and
    volumes past about e^(+-700), raise DomainError.

    Over z' with |z' - x'| <= r the z''-section of the ball is an interval
    of half length t max(t, A), t = r - |z' - x'|, A = |x'| + |z'|, so the
    volume is the disc integral of 2 t max(t, A).  With a = |x'|:
    - a <= 2^-53 r: (11 pi / 24) r^4, exact at a = 0, off by about 0.73 a / r;
    - r < a: polar coordinates about x'; the disc misses 0, so t <= A;
    - r >= a: elliptic coordinates with foci 0 and x', in which
      |z'| = (a/2)(cosh mu + cos nu), |z' - x'| = (a/2)(cosh mu - cos nu),
      the Jacobian is (a/2)^2 (cosh^2 mu - cos^2 nu), the disc is
      cosh mu <= 2r/a + cos nu, and the kink t = A is the line
      cosh mu = r/a - 1 when r >= 2a, where the radial rule splits.
    """
    check_real(r, "radius", 0.0, strict=True)
    if (x.d1, x.d2) != (2, 1):
        raise DomainError(f"ball_volume integrates (d1, d2) = (2, 1), got "
                          f"({x.d1}, {x.d2})")
    a = x.prime_norm
    if abs(3.0 * math.log(r) + math.log(r + a)) > 700.0:  # |B| < 13 r^3 (r+a)
        raise DomainError(f"|B(x, r)| leaves the float range at r = {r:g}")
    if a <= 2.0 ** -53 * r:
        return 11.0 * math.pi / 24.0 * r ** 4
    cos_nu = np.cos((np.arange(_ANGLE_NODES) + 0.5) * (math.pi / _ANGLE_NODES))
    if r < a:
        ends = (0.0, r)

        def parts(s):  # |z' - x'|, |z'| and the Jacobian
            return s, np.sqrt(a * a + s * s + 2.0 * a * s * cos_nu), s
    else:
        mu_max = np.arccosh(2.0 * r / a + cos_nu)
        ends = ((0.0, math.acosh(r / a - 1.0), mu_max) if r >= 2.0 * a
                else (0.0, mu_max))
        c_nu = 0.5 * a * cos_nu

        def parts(mu):
            c_mu = 0.5 * a * np.cosh(mu)
            return c_mu - c_nu, c_mu + c_nu, c_mu * c_mu - c_nu * c_nu
    g, w = _gauss_legendre(_RADIAL_NODES)
    total = 0.0
    for lo, hi in zip(ends, ends[1:]):
        dp, norm, jac = parts(lo + (hi - lo) * g[:, None])
        t = r - dp
        total += np.sum((hi - lo) * (w @ (t * np.maximum(t, a + norm) * jac)))
    return float(4.0 * math.pi / _ANGLE_NODES * total)


def doubling_ratio(x: MetricPoint, r: float, lam: float) -> float:
    """|B(x, lam r)| / |B(x, r)| by ball_volume."""
    check_real(r, "radius", 0.0, strict=True)
    check_real(lam, "doubling factor", 1.0)
    return ball_volume(x, lam * r) / ball_volume(x, r)
