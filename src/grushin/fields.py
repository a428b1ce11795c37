"""Grids, fields, multiplier profiles, and truncation policies.

The degenerate-elliptic operator acts on functions of (x', x'') where x' lives
in R^d1 and x'' on a flat torus [-S, S)^d2; grids sample d2 = 1.  A field
couples a real float64 value array to that product grid.  Multiplier
profiles wrap a real scalar function of the spectral parameter together with
an authoritative support interval and, where one is known, the closed form
of its planar kernel; a truncation policy records how far the discrete
spectral decomposition is trusted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import ContractViolation, DomainError, check_integer, check_real, real_array
from .hermite import PrimeGrid


@dataclass(frozen=True)
class Dims:
    """Dimension pair (d1, d2) with the derived homogeneous/topological dims."""

    d1: int
    d2: int

    def __post_init__(self):
        check_integer(self.d1, "d1", minimum=1)
        check_integer(self.d2, "d2", minimum=1)

    @property
    def homogeneous(self) -> int:
        return self.d1 + 2 * self.d2

    @property
    def critical(self) -> int:
        return max(self.d1 + self.d2, 2 * self.d2)


_MAX_NODES = 1 << 26  # 8x the default kernel_support grid (420 MB peak)


@dataclass(frozen=True)
class GrushinGrid:
    """Product grid: a symmetric x'-grid times a uniform torus grid in x''.

    The torus is one axis, [-S, S), sampled at n_second points, so the dual
    lattice has spacing pi/S.  d2 is kept as a field so that callers can
    pass it, but only d2 = 1 is built: the engine transforms one torus axis.
    More than _MAX_NODES nodes raise DomainError before any allocation.
    """

    prime: PrimeGrid
    torus_half_period: float
    n_second: int
    d2: int

    def __post_init__(self):
        check_real(self.torus_half_period, "torus half period", 0.0, strict=True)
        check_integer(self.n_second, "n_second", minimum=2)
        if self.n_second % 2:
            raise DomainError(f"n_second must be even, got {self.n_second!r}")
        if self.d2 != 1:
            raise DomainError(f"the torus has one axis: d2 must be 1, got {self.d2!r}")
        if self.prime.n_points ** self.prime.d1 * self.n_second > _MAX_NODES:
            raise DomainError(f"grid {self.shape} has over {_MAX_NODES} nodes")

    @property
    def d1(self) -> int:
        return self.prime.d1

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.prime.n_points,) * self.prime.d1 + (self.n_second,)

    @property
    def second_spacing(self) -> float:
        return 2.0 * self.torus_half_period / self.n_second

    @property
    def second_axis(self) -> np.ndarray:
        return -self.torus_half_period + self.second_spacing * np.arange(self.n_second)

    @property
    def xi_spacing(self) -> float:
        return np.pi / self.torus_half_period

    @property
    def cell_volume(self) -> float:
        return self.prime.cell * self.second_spacing

    def locate(self, x_prime, x_second) -> Tuple[int, ...]:
        """Index of a grid node; ContractViolation off-grid.

        The coordinates follow the number rule of grushin.errors.
        """
        x_prime = np.atleast_1d(real_array(x_prime, "prime coordinate"))
        x_second = np.atleast_1d(real_array(x_second, "torus coordinate"))
        if x_prime.shape != (self.prime.d1,) or x_second.shape != (self.d2,):
            raise ContractViolation(
                "point has wrong dimensions for this grid: got "
                f"({x_prime.shape[0]}, {x_second.shape[0]}), grid is "
                f"({self.prime.d1}, {self.d2})"
            )
        idx = []
        for value, name, axis, h in (
            *((v, "prime", self.prime.axis, self.prime.spacing)
              for v in x_prime),
            *((v, "torus", self.second_axis, self.second_spacing)
              for v in x_second),
        ):
            j = int(np.rint((value - axis[0]) / h))
            if j < 0 or j >= axis.size or abs(axis[j] - value) > 1e-9 * h:
                raise ContractViolation(f"{name} coordinate {float(value)!r} "
                                        "is not a grid node")
            idx.append(j)
        return tuple(idx)


@dataclass
class Field:
    """Real function sampled on a GrushinGrid; values are kept as float64.

    F(L) maps real functions to real functions, since profile values are
    real.  Complex values, and values that do not convert to float, raise
    DomainError.
    """

    grid: GrushinGrid
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise DomainError("field values must be real, got a complex array")
        try:
            self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"field values must be real numbers: {exc}") from None
        if self.values.shape != self.grid.shape:
            raise ContractViolation(
                f"value array shape {self.values.shape} does not match grid "
                f"shape {self.grid.shape}"
            )


class MultiplierProfile:
    """Real scalar spectral profile F with an authoritative support interval.

    evaluate must accept numpy arrays.  Values are float64 and hard-zeroed
    outside the declared support; at construction the evaluator is probed
    outside the support and must already vanish there to within 1e-14, so
    the mask is a guarantee rather than a modification.  A call where the
    evaluator returns a NaN, an infinity or a value with a nonzero imaginary
    part raises DomainError naming the label and a lambda where it happens.

    planar, if given, is the radial planar kernel of F(-Laplacian) on R^2,
    (2 pi)^{-1} int F(rho^2) J_0(rho r) rho drho, as a function of arrays of
    r >= 0; the L^1 column path takes its zero torus slab from it.
    """

    def __init__(self, evaluate: Callable[[np.ndarray], np.ndarray],
                 support: Tuple[float, float], label: str = "",
                 planar: Callable[[np.ndarray], np.ndarray] | None = None):
        if not isinstance(support, (tuple, list)) or len(support) != 2:
            raise DomainError(f"support must be a pair (lo, hi), got {support!r}")
        lo, hi = support
        check_real(lo, "support lower edge", 0.0)
        # inf, or an int past the float range, means no upper edge, as in
        # oscillator.eigenvalue_cap
        if not (isinstance(hi, (float, np.floating)) and hi == np.inf):
            check_real(hi, "support upper edge")
            if not hi <= sys.float_info.max:
                hi = np.inf
        if not (hi > lo and lo <= sys.float_info.max):
            raise DomainError("support must satisfy 0 <= lo < hi with lo in the "
                              "float range")
        self._evaluate = evaluate
        self.support = (float(lo), float(hi))
        self.label = label
        self.planar = planar
        self._validate_outside()

    def _validate_outside(self):
        lo, hi = self.support
        probes = []
        if lo > 0:
            probes += [0.0, 0.5 * lo, lo * (1 - 1e-9)]
        if np.isfinite(hi):
            probes += [hi * (1 + 1e-9), 1.5 * hi, 10.0 * hi]
        if not probes:
            return
        vals = np.asarray(self._evaluate(np.asarray(probes, dtype=float)))
        bad = ~(np.abs(vals) <= 1e-14)  # NaN counts as not vanishing
        if np.any(bad):
            where = float(np.asarray(probes)[bad][0])
            raise ContractViolation(
                f"profile {self.label or '<anon>'} does not vanish outside its "
                f"declared support {self.support}: |F({where:.6g})| = "
                f"{float(np.abs(vals[bad][0])):.3e} > 1e-14"
            )

    def __call__(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        lo, hi = self.support
        inside = (lam >= lo) & (lam <= hi)
        out = np.zeros(lam.shape)
        if np.any(inside):
            vals = self._evaluate(lam[inside])
            if np.iscomplexobj(vals):
                # before the assignment, which would drop the imaginary part
                turned = np.zeros(lam.shape, dtype=bool)
                turned[inside] = np.imag(vals) != 0
                self._refuse(lam, turned, "not real")
                vals = np.real(vals)
            out[inside] = vals
            self._refuse(lam, ~np.isfinite(out), "not finite")
        return out

    def _refuse(self, lam, bad, what: str):
        """DomainError naming the label and the first lambda where bad holds."""
        if np.any(bad):
            raise DomainError(f"profile {self.label or '<anon>'} is {what} at "
                              f"lambda = {float(lam[bad][0]):.6g}")

    def __repr__(self):
        return f"MultiplierProfile(label={self.label!r}, support={self.support})"

    # --- stock profiles -------------------------------------------------

    @classmethod
    def heat(cls, t: float) -> "MultiplierProfile":
        """exp(-t lam), supported where the value exceeds ~1e-14.

        The support edge is the natural decay edge log(1e14)/t; any harder
        spectral cap is the truncation policy's business, applied at use time.
        """
        check_real(t, "heat time", 0.0, strict=True)
        hi = np.log(1e14) / t
        return cls(lambda lam: np.exp(-t * lam), (0.0, hi), label=f"heat(t={t:g})",
                   planar=lambda r: (np.exp(-r ** 2 / (4.0 * t))
                                     / (4.0 * np.pi * t)))

    @classmethod
    def bochner_riesz(cls, t: float, delta: float) -> "MultiplierProfile":
        """(1 - t lam)_+^delta.  delta = 0 gives the sharp spectral cutoff.

        Its planar kernel is bochner_riesz_radial_kernel at scale 1/sqrt(t).
        """
        check_real(t, "scale parameter t", 0.0, strict=True)
        check_real(delta, "order delta", 0.0)
        if delta == 0:
            ev = lambda lam: (t * lam < 1.0).astype(float)
        else:
            ev = lambda lam: np.maximum(0.0, 1.0 - t * lam) ** delta
        scale = 1.0 / math.sqrt(t)
        return cls(ev, (0.0, 1.0 / t), label=f"bochner_riesz(t={t:g}, delta={delta:g})",
                   planar=lambda r: bochner_riesz_radial_kernel(scale, delta, r))


def bochner_riesz_radial_kernel(scale: float, delta: float,
                                r: np.ndarray) -> np.ndarray:
    """Radial kernel profile of (1 + Laplacian/scale^2)_+^delta in the plane.

    Closed form via the Bessel function of order delta + 1 (Stein, Harmonic
    Analysis, 1993, ch. IX); the removable r = 0 singularity is filled with
    its limit.
    """
    # imported here, so that importing grushin loads no scipy
    from scipy.special import gamma, jv

    check_real(scale, "scale", 0.0, strict=True)
    check_real(delta, "delta", 0.0)
    z = scale * real_array(r, "r")
    small = z < 1e-8
    zz = np.where(small, 1.0, z)
    vals = (scale ** 2 / (2.0 * np.pi) * 2.0 ** delta * gamma(delta + 1.0)
            * jv(delta + 1.0, zz) / zz ** (delta + 1.0))
    return np.where(small, scale ** 2 / (4.0 * np.pi * (delta + 1.0)), vals)


@dataclass(frozen=True)
class SpectralTruncation:
    """How far the discrete spectral decomposition is trusted.

    k_max, an integer >= 0, bounds the oscillator level used on every
    nonzero-frequency slice; lambda_max caps the spectral support of any
    profile applied under this policy on those slices.  The zero-frequency
    slice, where the operator degenerates to a Euclidean Laplacian in x'
    only, has no levels and keeps the profile's own support.
    """

    k_max: int
    lambda_max: float

    def __post_init__(self):
        check_integer(self.k_max, "k_max")
        check_real(self.lambda_max, "lambda_max", 0.0, strict=True)
