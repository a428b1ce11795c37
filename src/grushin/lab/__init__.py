"""Quantitative estimate laboratory: norms, decompositions, experiments."""

from .columns import (
    bochner_riesz_radial_kernel,
    heat_kernel_pointwise,
    l1_multiplier_norm,
    planar_radial_kernel,
)
from .experiments import (
    ExperimentResult,
    band_profile,
    bochner_riesz_sweep,
    distance_table,
    geometry_suite,
    heat_gaussian_check,
    kernel_support_check,
    kernel_support_suite,
    localized_restriction_experiment,
    multiplier_norm_experiment,
    weighted_restriction_experiment,
)
from .profiles import CutoffSpec, PieceProfile, dyadic_pieces, smoothstep, sobolev_norm
from .radial import (
    laguerre_radial_table,
    weighted_column_norms,
    weighted_operator_norm,
)
from .reports import rows_to_csv, sweep_report

__all__ = [
    "CutoffSpec",
    "ExperimentResult",
    "PieceProfile",
    "band_profile",
    "bochner_riesz_radial_kernel",
    "bochner_riesz_sweep",
    "distance_table",
    "dyadic_pieces",
    "geometry_suite",
    "heat_gaussian_check",
    "heat_kernel_pointwise",
    "kernel_support_check",
    "kernel_support_suite",
    "l1_multiplier_norm",
    "laguerre_radial_table",
    "localized_restriction_experiment",
    "multiplier_norm_experiment",
    "planar_radial_kernel",
    "rows_to_csv",
    "smoothstep",
    "sobolev_norm",
    "sweep_report",
    "weighted_column_norms",
    "weighted_operator_norm",
]
