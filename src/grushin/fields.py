"""Grids, fields, multiplier profiles, and truncation policies.

The degenerate-elliptic operator acts on functions of (x', x'') where x' lives
in R^d1 and x'' on a flat torus [-S, S)^d2.  A field couples a complex value
array to that product grid.  Multiplier profiles wrap a scalar function of the
spectral parameter together with an authoritative support interval, and a
truncation policy records how far the discrete spectral decomposition is
trusted.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable, Tuple

import numpy as np

from .errors import ConfigError, ContractViolation, DomainError
from .hermite import PrimeGrid

_SNAPSHOT_MAGIC = b"GRUF0001"


@dataclass(frozen=True)
class Dims:
    """Dimension pair (d1, d2) with the derived homogeneous/topological dims."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise DomainError("both dimension counts must be >= 1")

    @property
    def homogeneous(self) -> int:
        return self.d1 + 2 * self.d2

    @property
    def critical(self) -> int:
        return max(self.d1 + self.d2, 2 * self.d2)


@dataclass(frozen=True)
class GrushinGrid:
    """Product grid: a symmetric x'-grid times a uniform torus grid in x''.

    The torus is [-S, S)^d2 sampled at n_second points per axis, so the dual
    lattice has spacing pi/S.  Frequencies are kept in FFT index order; use
    xi_axis / xi_index to pair transform slots with frequencies.
    """

    prime: PrimeGrid
    torus_half_period: float
    n_second: int
    d2: int

    def __post_init__(self):
        if not 0 < self.torus_half_period < math.inf:
            raise DomainError("torus half period must be positive and finite")
        if self.n_second < 2 or self.n_second % 2:
            raise DomainError("n_second must be even and >= 2")
        if self.d2 < 1 or self.d2 > 2:
            raise DomainError("second-layer grids implemented for d2 in {1, 2}")

    @property
    def d1(self) -> int:
        return self.prime.d1

    @property
    def dims(self) -> Dims:
        return Dims(self.prime.d1, self.d2)

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.prime.n_points,) * self.prime.d1 + (self.n_second,) * self.d2

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
    def xi_index(self) -> np.ndarray:
        """Integer frequency labels in FFT order (one axis)."""
        return np.rint(np.fft.fftfreq(self.n_second) * self.n_second).astype(int)

    @property
    def xi_axis(self) -> np.ndarray:
        """Frequency values in FFT order (one axis)."""
        return self.xi_index * self.xi_spacing

    @property
    def cell_volume(self) -> float:
        return self.prime.cell * self.second_spacing ** self.d2

    def meshgrid_prime(self) -> Tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.prime.axis] * self.prime.d1), indexing="ij")

    def meshgrid_second(self) -> Tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.second_axis] * self.d2), indexing="ij")

    def locate(self, x_prime, x_second) -> Tuple[int, ...]:
        """Index of a grid node, or ContractViolation if off-grid."""
        x_prime = np.atleast_1d(np.asarray(x_prime, dtype=float))
        x_second = np.atleast_1d(np.asarray(x_second, dtype=float))
        if x_prime.shape != (self.prime.d1,) or x_second.shape != (self.d2,):
            raise ContractViolation(
                "point has wrong dimensions for this grid: got "
                f"({x_prime.shape[0]}, {x_second.shape[0]}), grid is "
                f"({self.prime.d1}, {self.d2})"
            )
        idx = []
        for value, axis, h in (
            *((v, self.prime.axis, self.prime.spacing) for v in x_prime),
            *((v, self.second_axis, self.second_spacing) for v in x_second),
        ):
            j = int(np.rint((value - axis[0]) / h))
            if j < 0 or j >= axis.size or abs(axis[j] - value) > 1e-9 * h:
                raise ContractViolation(f"coordinate {value!r} is not a grid node")
            idx.append(j)
        return tuple(idx)


@dataclass
class Field:
    """Complex-valued function sampled on a GrushinGrid."""

    grid: GrushinGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ContractViolation(
                f"value array shape {self.values.shape} does not match grid "
                f"shape {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid: GrushinGrid) -> "Field":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def from_function(cls, grid: GrushinGrid, fn) -> "Field":
        """Sample fn(*x_prime_coords, *x_second_coords) on the grid."""
        xp = np.meshgrid(
            *([grid.prime.axis] * grid.prime.d1 + [grid.second_axis] * grid.d2),
            indexing="ij",
        )
        return cls(grid, np.asarray(fn(*xp), dtype=np.complex128))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def norm_lp(self, p: float) -> float:
        if p == np.inf:
            return float(np.max(np.abs(self.values)))
        if p <= 0:
            raise DomainError("p must be positive or inf")
        w = self.grid.cell_volume
        return float((np.sum(np.abs(self.values) ** p) * w) ** (1.0 / p))

    def inner(self, other: "Field") -> complex:
        if other.grid != self.grid:
            raise ContractViolation("fields live on different grids")
        return complex(np.vdot(other.values, self.values) * self.grid.cell_volume)

def delta_field(grid: GrushinGrid, x_prime, x_second) -> Field:
    """Unit-mass discrete delta: indicator of one node divided by cell volume."""
    out = Field.zeros(grid)
    out.values[grid.locate(x_prime, x_second)] = 1.0 / grid.cell_volume
    return out


class MultiplierProfile:
    """Scalar spectral profile F with an authoritative support interval.

    evaluate must accept numpy arrays.  Values are hard-zeroed outside the
    declared support; at construction the evaluator is probed outside the
    support and must already vanish there to within 1e-14, so the mask is a
    guarantee rather than a modification.
    """

    def __init__(self, evaluate: Callable[[np.ndarray], np.ndarray],
                 support: Tuple[float, float], label: str = ""):
        lo, hi = float(support[0]), float(support[1])
        if not (lo >= 0.0) or not (hi > lo):
            raise DomainError("support must satisfy 0 <= lo < hi")
        self._evaluate = evaluate
        self.support = (lo, hi)
        self.label = label
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
        bad = np.abs(vals) > 1e-14
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
        out = np.zeros(lam.shape, dtype=complex)
        if np.any(inside):
            out[inside] = self._evaluate(lam[inside])
            bad = ~np.isfinite(out)
            if np.any(bad):
                raise DomainError(
                    f"profile {self.label or '<anon>'} is not finite at "
                    f"lambda = {float(lam[bad][0]):.6g}")
        return out

    def __repr__(self):
        return f"MultiplierProfile(label={self.label!r}, support={self.support})"

    # --- stock profiles -------------------------------------------------

    @classmethod
    def heat(cls, t: float) -> "MultiplierProfile":
        """exp(-t lam), supported where the value exceeds ~1e-14.

        The support edge is the natural decay edge log(1e14)/t; any harder
        spectral cap is the truncation policy's business, applied at use time.
        """
        if t <= 0:
            raise DomainError("heat time must be positive")
        hi = np.log(1e14) / t
        return cls(lambda lam: np.exp(-t * lam), (0.0, hi), label=f"heat(t={t:g})")

    @classmethod
    def bochner_riesz(cls, t: float, delta: float) -> "MultiplierProfile":
        """(1 - t lam)_+^delta.  delta = 0 gives the sharp spectral cutoff."""
        if t <= 0:
            raise DomainError("scale parameter t must be positive")
        if not (np.isfinite(delta) and delta >= 0):
            raise DomainError("order delta must be finite and >= 0")
        if delta == 0:
            ev = lambda lam: (t * lam < 1.0).astype(float)
        else:
            ev = lambda lam: np.maximum(0.0, 1.0 - t * lam) ** delta
        return cls(ev, (0.0, 1.0 / t), label=f"bochner_riesz(t={t:g}, delta={delta:g})")

    @classmethod
    def wave_cosine(cls, s: float) -> "MultiplierProfile":
        """cos(s sqrt(lam)); unbounded support, band-limited only by policy."""
        if s < 0:
            raise DomainError("propagation time must be >= 0")
        return cls(lambda lam: np.cos(s * np.sqrt(np.maximum(lam, 0.0))),
                   (0.0, np.inf), label=f"wave_cosine(s={s:g})")

    @classmethod
    def indicator(cls, lo: float, hi: float) -> "MultiplierProfile":
        return cls(lambda lam: ((lam >= lo) & (lam <= hi)).astype(float), (lo, hi),
                   label=f"indicator[{lo:g},{hi:g}]")

    @classmethod
    def from_samples(cls, lam_nodes: np.ndarray, values: np.ndarray,
                     label: str = "sampled") -> "MultiplierProfile":
        """Linear interpolant through (lam_nodes, values), zero outside."""
        lam_nodes = np.asarray(lam_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if lam_nodes.ndim != 1 or lam_nodes.shape != values.shape:
            raise DomainError("need matching 1-d node and value arrays")
        if np.any(np.diff(lam_nodes) <= 0):
            raise DomainError("sample nodes must be strictly increasing")
        lo, hi = float(lam_nodes[0]), float(lam_nodes[-1])

        def ev(lam, _n=lam_nodes, _v=values):
            return np.interp(lam, _n, _v, left=0.0, right=0.0)

        return cls(ev, (max(lo, 0.0), hi), label=label)


_XI_ZERO_MODES = ("fourier_multiplier", "drop")


@dataclass(frozen=True)
class SpectralTruncation:
    """How far the discrete spectral decomposition is trusted.

    k_max bounds the oscillator level used on every nonzero-frequency slice;
    lambda_max caps the spectral support of any profile applied under this
    policy; xi_zero_mode selects the treatment of the zero-frequency slice,
    where the operator degenerates to a Euclidean Laplacian in x' only.
    """

    k_max: int
    lambda_max: float
    xi_zero_mode: str = "fourier_multiplier"

    def __post_init__(self):
        if self.k_max < 0:
            raise DomainError("k_max must be >= 0")
        if not 0 < self.lambda_max < math.inf:
            raise DomainError("lambda_max must be positive and finite")
        if self.xi_zero_mode not in _XI_ZERO_MODES:
            raise ConfigError(
                "xi_zero_mode",
                f"unknown mode {self.xi_zero_mode!r}; choose from {_XI_ZERO_MODES}",
            )


# --- binary snapshots ----------------------------------------------------

def save_field(f: Field, fh: BinaryIO) -> None:
    """Write a loss-free little-endian binary snapshot of a field.

    Layout: 8-byte magic, then <iiid i d> header (d1, d2, n_prime points,
    prime half width, n_second, torus half period), then the raw row-major
    complex128 value buffer.
    """
    g = f.grid
    fh.write(_SNAPSHOT_MAGIC)
    fh.write(struct.pack("<iiidid", g.prime.d1, g.d2, g.prime.n_points,
                         g.prime.half_width, g.n_second, g.torus_half_period))
    fh.write(np.ascontiguousarray(f.values, dtype="<c16").tobytes())


def load_field(fh: BinaryIO) -> Field:
    """Inverse of save_field; validates magic and buffer length."""
    magic = fh.read(8)
    if magic != _SNAPSHOT_MAGIC:
        raise ContractViolation(f"bad snapshot magic {magic!r}")
    header = fh.read(struct.calcsize("<iiidid"))
    d1, d2, n_prime, half_width, n_second, half_period = struct.unpack("<iiidid", header)
    grid = GrushinGrid(PrimeGrid(half_width, n_prime, d1), half_period, n_second, d2)
    count = n_prime ** d1 * n_second ** d2
    buf = fh.read(16 * count)
    if len(buf) != 16 * count:
        raise ContractViolation("snapshot truncated: value buffer too short")
    values = np.frombuffer(buf, dtype="<c16").reshape(grid.shape)
    return Field(grid, values.copy())
