"""Spectral calculus and estimate experiments for Grushin operators.

The operator family is L = -Laplacian_prime - |x'|^2 Laplacian_second on
functions of (x', x'') with the second layer on a torus.  A partial Fourier
transform in x'' turns L into scaled harmonic oscillators, so multipliers
F(L) act level-by-level through explicit Hermite eigenfunctions.  Subpackage
grushin.lab layers quantitative estimate experiments on top of that engine.
"""

from .engine import (
    apply_multiplier,
    inverse_partial_fourier,
    partial_fourier,
    schwartz_kernel_column,
)
from .errors import (
    AliasingError,
    ConfigError,
    ContractViolation,
    DegenerateInputError,
    DomainError,
    GrushinError,
    TruncationError,
    WindowingError,
)
from .fields import Field, GrushinGrid, MultiplierProfile, SpectralTruncation, delta_field
from .geometry import (
    MetricPoint,
    ball_volume_mc,
    ball_volume_model,
    doubling_ratio,
    grushin_distance,
    grushin_distance_arrays,
    grushin_distance_field,
)
from .hermite import PrimeGrid

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "ConfigError",
    "ContractViolation",
    "DegenerateInputError",
    "DomainError",
    "Field",
    "GrushinError",
    "GrushinGrid",
    "MetricPoint",
    "MultiplierProfile",
    "PrimeGrid",
    "SpectralTruncation",
    "TruncationError",
    "WindowingError",
    "apply_multiplier",
    "ball_volume_mc",
    "ball_volume_model",
    "delta_field",
    "doubling_ratio",
    "grushin_distance",
    "grushin_distance_arrays",
    "grushin_distance_field",
    "inverse_partial_fourier",
    "partial_fourier",
    "schwartz_kernel_column",
    "__version__",
]
