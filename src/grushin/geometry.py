"""Quasi-distance, ball volumes and doubling ratios.

The anisotropic dilation structure (x', x'') -> (t x', t^2 x'') induces a
two-branch quasi-distance: near the degenerate set {x' = 0} the second layer
costs a square root, away from it the cost is graded by 1/(|x'| + |y'|).  All
geometric quantities here are comparability representatives: constants are
always fitted by the consumer, never asserted as exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateInputError,
    DomainError,
    check_integer,
    check_real,
    real_array,
)
from .fields import GrushinGrid


@dataclass(frozen=True)
class MetricPoint:
    """A point x = (x', x'') of the product space."""

    x_prime: Tuple[float, ...]
    x_second: Tuple[float, ...]

    def __post_init__(self):
        for part in ("x_prime", "x_second"):
            coords = real_array(getattr(self, part), "metric point coordinate")
            if coords.ndim != 1:
                raise DomainError(f"metric point {part} must be a flat list of "
                                  f"numbers, got {getattr(self, part)!r}")
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

    dp = |x'-y'|, ds = |x''-y''|, ax = |x'|, ay = |y'|.  The branches agree on
    the interface sqrt(ds) = ax + ay, where both give dp + sqrt(ds).  The
    graded branch meets ax + ay = 0 only where ds = 0, and there it gives dp.
    """
    sq = np.sqrt(ds)
    denom = ax + ay
    # an array even for grushin_distance's scalars, so it can be filled in place
    out = np.asarray(ds / np.where(denom > 0, denom, 1.0))
    out += dp
    np.copyto(out, dp + sq, where=sq > denom)
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

    With wrap=True the second-layer difference is taken on the torus
    (minimal image per axis), matching the periodic discretization.
    """
    y_prime = np.atleast_1d(real_array(y_prime, "prime coordinate"))
    y_second = np.atleast_1d(real_array(y_second, "torus coordinate"))
    if y_prime.shape != (grid.prime.d1,) or y_second.shape != (grid.d2,):
        raise ContractViolation("point has wrong dimensions for this grid")
    xp = np.stack(grid.meshgrid_prime(), axis=-1)
    dp = np.linalg.norm(xp - y_prime, axis=-1)
    ax = np.linalg.norm(xp, axis=-1)
    xs = np.stack(grid.meshgrid_second(), axis=-1)
    dsec = xs - y_second
    if wrap:
        dsec = torus_wrap(dsec, grid.torus_half_period)
    ds = np.linalg.norm(dsec, axis=-1)
    shape_p = dp.shape + (1,) * grid.d2
    shape_s = (1,) * grid.prime.d1 + ds.shape
    return _rho_from_parts(dp.reshape(shape_p), ds.reshape(shape_s),
                           ax.reshape(shape_p), np.float64(np.linalg.norm(y_prime)))


def ball_volume_model(x: MetricPoint, r: float) -> float:
    """Comparability representative r^{d1+d2} max{r, |x'|}^{d2}."""
    check_real(r, "radius", 0.0, strict=True)
    return r ** (x.d1 + x.d2) * max(r, x.prime_norm) ** x.d2


_N_SHARDS = 16  # fixed so results do not depend on worker count


def ball_volume_mc(x: MetricPoint, r: float, n_samples: int = 1_000_000,
                   seed: int = 0) -> Tuple[float, float]:
    """Hit-or-miss Monte-Carlo ball volume; returns (volume, stderr).

    The sampling box contains the ball: |z' - x'| <= r forces every prime
    coordinate within r, and the branch dichotomy bounds |z'' - x''| by
    max(r^2, r (2|x'| + r)).  Samples are drawn in a fixed number of
    deterministic shards so the result is reproducible regardless of any
    parallel scheduling.
    """
    check_real(r, "radius", 0.0, strict=True)
    if isinstance(n_samples, (int, np.integer)) and n_samples <= 0:
        raise DegenerateInputError("Monte-Carlo sample budget must be positive")
    check_integer(n_samples, "n_samples", minimum=1)
    check_integer(seed, "seed")
    d1, d2 = x.d1, x.d2
    a = max(r * r, r * (2.0 * x.prime_norm + r))
    box_vol = (2.0 * r) ** d1 * (2.0 * a) ** d2
    xp = np.asarray(x.x_prime)
    xs = np.asarray(x.x_second)
    per = int(np.ceil(n_samples / _N_SHARDS))
    hits = 0
    total = 0
    for child in np.random.SeedSequence(seed).spawn(_N_SHARDS):
        rng = np.random.default_rng(child)
        zp = xp + rng.uniform(-r, r, size=(per, d1))
        zs = xs + rng.uniform(-a, a, size=(per, d2))
        rho = grushin_distance_arrays(zp, zs, xp, xs)
        hits += int(np.count_nonzero(rho <= r))
        total += per
    p = hits / total
    vol = box_vol * p
    stderr = box_vol * math.sqrt(max(p * (1.0 - p), 1.0 / total) / total)
    return vol, stderr


def doubling_ratio(x: MetricPoint, r: float, lam: float,
                   n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Measured |B(x, lam r)| / |B(x, r)| by Monte Carlo."""
    check_real(r, "radius", 0.0, strict=True)
    check_real(lam, "doubling factor", 1.0)
    check_integer(seed, "seed")
    big, _ = ball_volume_mc(x, lam * r, n_samples, seed=seed * 2 + 1)
    small, _ = ball_volume_mc(x, r, n_samples, seed=seed * 2 + 2)
    return big / small
