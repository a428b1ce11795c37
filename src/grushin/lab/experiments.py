"""End-to-end scaling experiments with frozen, measured configurations.

The four norm experiments sweep one parameter of a spectral-multiplier
family, measure operator norms with an exact p = 1 estimator, and reduce each
swept axis to one reports.sweep_report: step and fitted log-log slopes,
max/min, and the slope the anisotropic dilation structure predicts where one
is known.  Defaults are desk-scale configurations whose truncation parameters
were chosen by convergence measurements; they run in seconds to a few minutes.

Every function returns an ExperimentResult: plot-ready CSV rows, the last
column naming each norm's certificate where a kind has one, plus a JSON-able
summary.  Results are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine import schwartz_kernel_column
from ..errors import (
    AliasingError,
    ContractViolation,
    DomainError,
    check_integer,
    check_real,
    real_array,
)
from ..fields import Dims, GrushinGrid, MultiplierProfile, SpectralTruncation
from ..geometry import (
    MetricPoint,
    ball_volume,
    ball_volume_model,
    doubling_ratio,
    grushin_distance,
    grushin_distance_arrays,
    grushin_distance_field,
)
from ..hermite import PrimeGrid
from .columns import (
    _reach,
    heat_kernel_pointwise,
    l1_multiplier_norm,
)
from .profiles import CutoffSpec, PieceProfile, dyadic_pieces, sobolev_norm
from .radial import _MAX_SCAN, weighted_column_norms, weighted_operator_norm
from .reports import _line_fit, sweep_report

__all__ = [
    "ExperimentResult",
    "band_profile",
    "weighted_restriction_experiment",
    "localized_restriction_experiment",
    "bochner_riesz_sweep",
    "multiplier_norm_experiment",
    "heat_gaussian_check",
    "kernel_support_check",
    "kernel_support_suite",
    "geometry_suite",
    "distance_table",
]


@dataclass(frozen=True)
class ExperimentResult:
    """Uniform experiment output: CSV rows plus a JSON-able summary."""

    kind: str
    header: List[str]
    rows: List[list]
    summary: dict


# The experiments measure the exact p = 1 endpoint (norms are exact column
# maxima) for (d1, d2) = (2, 1); no experiment computes p > 1.  The slope
# predictions keep the paper's general formulas.
_DIMS = Dims(2, 1)
_D1, _D2, _P = _DIMS.d1, _DIMS.d2, 1.0
_MAX_TRIPLES = 10 ** 7  # geometry_suite peaks at about 144 bytes a triple


def _restriction_precondition(gamma: float) -> None:
    slack = _D2 * (1.0 / _P - 0.5)
    check_real(gamma, "gamma", 0.0)
    if not gamma < slack:
        raise DomainError(
            f"gamma={gamma} must satisfy 0 <= gamma < d2 (1/p - 1/2) = {slack}")


def _numbers(values, name: str, strict: bool = True) -> List[float]:
    """values, a non-empty list of numbers > 0 (>= 0 if not strict), as floats."""
    vals = real_array(values, name, 0.0, strict)
    if vals.ndim != 1 or not vals.size:
        raise DomainError(f"{name} needs a non-empty list of numbers, got {values!r}")
    return vals.tolist()


def _keyed(values: List[float], name: str) -> List[float]:
    """values, refused if two that differ share the summary key f"{v:g}"."""
    keys = {}
    for v in values:
        if keys.setdefault(f"{v:g}", v) != v:
            raise DomainError(f"{name} {keys[f'{v:g}']!r} and {v!r} share the "
                              f"summary key {v:g}")
    return values


def _increasing(values, name: str, minimum: int = 3) -> List[float]:
    vals = _numbers(values, name)
    if len(vals) < minimum:
        raise DomainError(f"{name} needs at least {minimum} entries")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise DomainError(f"{name} must be strictly increasing")
    return vals


def band_profile(radius: float) -> MultiplierProfile:
    """Spectral band at scale R: eta(sqrt(lambda)/R), supported [R^2/16, R^2].

    eta is the standard dyadic cutoff, so the band family is a single profile
    dilated through R and the sweep isolates the R-exponent.
    """
    check_real(radius, "band radius", 0.0, strict=True)
    eta = CutoffSpec.standard().eta
    return MultiplierProfile(
        lambda lam, R=radius: eta(np.sqrt(np.maximum(lam, 0.0)) / R),
        (radius * radius / 16.0, radius * radius))


def weighted_restriction_experiment(
        gamma: float = 0.0,
        radii: Sequence[float] = (4.0, 8.0, 16.0, 32.0), *,
        n_scan: int = 97, torus_half_period: float = math.pi,
        k_max: int = 4000) -> ExperimentResult:
    """Fit the norm of |x'|^gamma-weighted band multipliers against R.

    For each R the exact 1 -> 2 norm of w_gamma F_R(sqrt(L)) is the supremum
    over column feet of the weighted column L^2 norm; the maximizer search
    scans the prime radius.  The fitted log-log slope is compared with the
    dilation prediction (2 d2 + d1)(1/p - 1/2) - gamma.
    """
    _restriction_precondition(gamma)
    radii = _increasing(radii, "radii")
    predicted = _DIMS.homogeneous * (1.0 / _P - 0.5) - gamma

    rows: List[list] = []
    norms: List[float] = []
    for radius in radii:
        norm, u_star = weighted_operator_norm(
            band_profile(radius), gamma, torus_half_period,
            k_max=k_max, lambda_max=radius * radius, n_scan=n_scan)
        norms.append(norm)
        rows.append([radius, norm, u_star, "exact"])
    return ExperimentResult(
        kind="weighted_restriction",
        header=["radius", "norm", "maximizer_u", "certificate"],
        rows=rows,
        summary={"p": _P, "radius": sweep_report(radii, norms, predicted)})


def localized_restriction_experiment(
        gamma: float = 0.25,
        radii: Sequence[float] = (8.0, 16.0, 32.0),
        y_values: Sequence[float] = (1.5, 3.0, 6.0),
        ball_radius: float = 0.1875, *,
        y_fix: Optional[float] = None, r_fix: Optional[float] = None,
        n_scan: int = 17, torus_half_period: float = math.pi,
        k_max: int = 4000) -> ExperimentResult:
    """Two slopes for band multipliers localized to a small metric ball.

    The input is restricted to the ball of the given radius around a foot at
    prime height y; the exact 1 -> 2 norm is then the maximum weighted column
    norm over feet inside the ball, scanned along the prime radius.  Fitted
    are the slope in R at fixed y (prediction (d2 + d1)(1/p - 1/2)) and the
    slope in y at fixed R (prediction gamma - d2 (1/p - 1/2)).  Every y,
    y_fix among them, must satisfy y > 4 ball_radius to keep the ball away
    from the degenerate axis.  n_scan is capped as in weighted_operator_norm.
    """
    _restriction_precondition(gamma)
    radii = _increasing(radii, "radii")
    y_values = _increasing(y_values, "y_values")
    check_real(ball_radius, "ball_radius", 0.0, strict=True)
    check_integer(n_scan, "n_scan", minimum=2)
    if n_scan > _MAX_SCAN:
        raise DomainError(f"n_scan = {n_scan} is above {_MAX_SCAN}")
    y_fix, r_fix = _numbers(
        [y_values[len(y_values) // 2] if y_fix is None else y_fix,
         radii[-1] if r_fix is None else r_fix], "y_fix and r_fix")
    bad = [y for y in (*y_values, y_fix) if not y > 4.0 * ball_radius]
    if bad:
        raise DomainError(
            f"every ball center must satisfy y > 4 ball_radius = "
            f"{4 * ball_radius}; violated by y={bad[0]}")

    def ball_norm(radius: float, y: float) -> float:
        feet = np.linspace(y - ball_radius, y + ball_radius, n_scan)
        vals = weighted_column_norms(
            band_profile(radius), feet, gamma, torus_half_period,
            k_max=k_max, lambda_max=radius * radius)
        return float(vals.max())

    rows: List[list] = []
    norms_r = []
    for radius in radii:
        norm = ball_norm(radius, y_fix)
        norms_r.append(norm)
        rows.append(["radius", radius, y_fix, norm, "exact"])
    norms_y = []
    for y in y_values:
        norm = ball_norm(r_fix, y)
        norms_y.append(norm)
        rows.append(["height", r_fix, y, norm, "exact"])

    return ExperimentResult(
        kind="localized_restriction",
        header=["scan", "radius", "center_height", "norm", "certificate"],
        rows=rows,
        summary={
            "p": _P, "y_fix": y_fix, "r_fix": r_fix,
            "radius": sweep_report(radii, norms_r,
                                   (_D2 + _D1) * (1.0 / _P - 0.5)),
            "height": sweep_report(y_values, norms_y,
                                   gamma - _D2 * (1.0 / _P - 0.5)),
        })


def _largest_foot(norm_at, feet: Sequence[float]) -> Tuple[float, float]:
    """The largest norm_at(u) over the feet, and the first foot that gives it."""
    return max(((norm_at(u), u) for u in feet), key=lambda pair: pair[0])


def bochner_riesz_sweep(
        deltas: Sequence[float] = (1.5, 0.2),
        radii: Sequence[float] = (4.0, 8.0, 16.0, 32.0, 64.0), *,
        points_per_wavelength: float = 4.0,
        torus_half_period: float = math.pi / 2.0) -> ExperimentResult:
    """Uniformity of (1 - L/R^2)_+^delta norms across R, per delta.

    The exact 1 -> 1 norm of each mean is the largest column L^1 norm; by
    symmetry the foot search reduces to prime radii, scanned over the
    candidates {0, 1/R, 4/R}.  The zero-frequency slab uses the profile's
    closed-form planar kernel.  The summary holds one sweep report over R per
    delta: max/min near 1 indicates a uniformly bounded family, steady growth
    a divergent one.
    """
    radii = _increasing(radii, "radii")
    deltas = _keyed(_numbers(deltas, "deltas", strict=False), "deltas")

    rows: List[list] = []
    reports = {}
    for delta in deltas:
        per_radius = []
        for radius in radii:
            profile = MultiplierProfile.bochner_riesz(1.0 / (radius * radius),
                                                      delta)
            best, best_u = _largest_foot(
                lambda u: l1_multiplier_norm(
                    profile, torus_half_period, u=u,
                    lambda_max=radius * radius,
                    points_per_wavelength=points_per_wavelength),
                (0.0, 1.0 / radius, 4.0 / radius))
            per_radius.append(best)
            rows.append([delta, radius, best, best_u, "exact"])
        reports[f"{delta:g}"] = sweep_report(radii, per_radius)
    return ExperimentResult(
        kind="bochner_riesz",
        header=["delta", "radius", "norm", "maximizer_u", "certificate"],
        rows=rows,
        summary={"p": _P, "radius": reports})


_PLANAR_EXTENT_FACTOR = 32.0  # kernel tail reach in units of sqrt(t)


def multiplier_norm_experiment(
        sobolev_orders: Sequence[float] = (2.0,),
        t_values: Sequence[float] = tuple(2.0 ** k for k in range(-4, 5)), *,
        torus_half_period: float = math.pi / 2.0) -> ExperimentResult:
    """Ratios of dilated-multiplier norms to a fixed smoothness norm.

    For the standard dyadic cutoff F, supported in [1/4, 1], the exact
    1 -> 1 norm of F(t L) is measured across increasing t; the rows give,
    per Sobolev order s, the ratio norm / ||F||_{W_2^s}, and the summary's
    sweep report over t the uniformity indicator max/min.
    """
    profile_fn = CutoffSpec.standard().eta
    t_values = _increasing(t_values, "t_values")
    orders = _keyed(_numbers(sobolev_orders, "sobolev_orders", strict=False),
                    "sobolev_orders")
    check_real(torus_half_period, "torus half period", 0.0, strict=True)

    lam_s = np.linspace(-2.0, 3.0, 4001)
    samples = np.asarray(profile_fn(lam_s), dtype=float)
    sob = {s: sobolev_norm(samples, lam_s[1] - lam_s[0], s) for s in orders}

    def norm_at(t: float) -> float:
        profile = MultiplierProfile(
            lambda lam: np.asarray(profile_fn(t * np.asarray(lam))),
            (0.25 / t, 1.0 / t))
        extent = max(_reach(1.0 / t, math.pi / torus_half_period),
                     _PLANAR_EXTENT_FACTOR * math.sqrt(t))
        return _largest_foot(
            lambda u: l1_multiplier_norm(profile, torus_half_period, u=u,
                                         lambda_max=1.0 / t, extent=extent),
            (0.0, math.sqrt(t), 2.0 * math.sqrt(t)))[0]

    norms = [norm_at(t) for t in t_values]

    rows: List[list] = []
    for t, norm in zip(t_values, norms):
        for s in orders:
            rows.append([t, s, norm, sob[s], norm / sob[s], "exact"])
    return ExperimentResult(
        kind="multiplier_norm",
        header=["t", "sobolev_order", "norm", "sobolev_norm", "ratio",
                "certificate"],
        rows=rows,
        summary={
            "p": _P, "t": sweep_report(t_values, norms),
            "sobolev_norms": {f"{s:g}": sob[s] for s in orders},
        })


_HEAT_PRIME_OFFSETS = (0.0, 0.4, 0.8, 1.2, 1.6)
_HEAT_SECOND_OFFSETS = (0.0, 0.1, 0.2)
_HEAT_FOOT_HEIGHTS = (0.0, 0.6, 1.5)


def _heat_pairs(d1: int) -> List[Tuple[MetricPoint, MetricPoint]]:
    pairs = []
    for y1 in _HEAT_FOOT_HEIGHTS:
        y = MetricPoint((y1,) + (0.0,) * (d1 - 1), (0.0,))
        for dp in _HEAT_PRIME_OFFSETS:
            for ds in _HEAT_SECOND_OFFSETS:
                x = MetricPoint((y1 + dp,) + (0.0,) * (d1 - 1), (ds,))
                pairs.append((x, y))
    return pairs


def heat_gaussian_check(
        d1: int = 2, times: Sequence[float] = (0.05, 0.1, 0.2), *,
        torus_half_period: float = 12.0) -> ExperimentResult:
    """Gaussian-type decay of the heat kernel in the quasi-distance.

    Pools log(p_t(x, y) V_model(y, sqrt(t))) against rho(x, y)^2 / t over all
    pairs and times and fits a line: slope -b with b > 0 and a high R^2 are
    the Gaussian signature.  The pairs mix prime-direction and second-layer
    offsets at three foot heights; the two-branch quasi-distance understates
    the control distance anisotropically, so heavily second-layer pair
    families lower R^2 by construction.  Also reported: the on-diagonal
    products p_t(y, y) V_model(y, sqrt(t)), whose spread across t and y is
    the two-sided comparability indicator.
    """
    check_integer(d1, "d1", minimum=1)
    times = _numbers(times, "times")
    check_real(torus_half_period, "torus half period", 0.0, strict=True)
    if max(_HEAT_SECOND_OFFSETS) > torus_half_period / 2.0:
        raise DomainError("pair outside the aliasing-safe half of the torus")
    pairs = _heat_pairs(d1)
    rhos = [grushin_distance(x, y) for x, y in pairs]
    # the (x', x'') arrays of the first and of the second points, one row
    # per pair, so each time takes one heat_kernel_pointwise call
    ends = [(np.array([p.x_prime for p in side]),
             np.array([p.x_second for p in side])) for side in zip(*pairs)]

    rows: List[list] = []
    abscissa, ordinate = [], []
    diag_vals = []
    min_kernel = math.inf
    max_kernel = 0.0
    for t in times:
        kernel = heat_kernel_pointwise(*ends, t, torus_half_period).tolist()
        for (x, y), rho, p_val in zip(pairs, rhos, kernel):
            v_model = ball_volume_model(y, math.sqrt(t))
            min_kernel = min(min_kernel, p_val)
            max_kernel = max(max_kernel, p_val)
            log_pv = math.log(p_val * v_model) if p_val > 0 else -math.inf
            rows.append([t, y.prime_norm, rho, p_val, v_model, log_pv])
            if p_val > 0:
                abscissa.append(rho * rho / t)
                ordinate.append(log_pv)
            if rho == 0.0:
                diag_vals.append(p_val * v_model)
    if min_kernel < -1e-6 * max_kernel:
        raise ContractViolation(
            f"kernel value {min_kernel:.3e} negative beyond ripple tolerance")
    if len(abscissa) < 3:
        raise DomainError("too few usable pairs for a decay fit")

    o = np.asarray(ordinate)
    slope, intercept, resid = _line_fit(np.asarray(abscissa), o)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((o - o.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    diag = np.asarray(diag_vals)
    return ExperimentResult(
        kind="heat_gaussian",
        header=["t", "foot_height", "rho", "kernel", "volume_model",
                "log_kernel_volume"],
        rows=rows,
        summary={
            "decay_rate_b": -slope,
            "log_constant": intercept,
            "r_squared": r_squared,
            "n_points": o.size,
            "on_diag_min": float(diag.min()),
            "on_diag_max": float(diag.max()),
            "on_diag_ratio": float(diag.max() / diag.min()),
            "min_kernel_value": float(min_kernel),
        })


def _kernel_support(
        runs: Sequence[Tuple[PieceProfile, float]], kappas: Sequence[float],
        grid: GrushinGrid,
        trunc: SpectralTruncation) -> Tuple[ExperimentResult, List[float]]:
    """Rows of the mass fractions of each (piece, scale_time) run, summary
    left empty, and each run's total column mass.

    Every run's column has its foot at the origin, so one distance field
    from it serves them all.
    """
    kappas = sorted(_keyed(_numbers(kappas, "kappas"), "kappas"))
    for piece, scale_time in runs:
        check_real(scale_time, "scale_time", 0.0, strict=True)
        support_radius = 2.0 ** piece.level * scale_time
        if support_radius ** 2 > 0.9 * grid.torus_half_period:
            raise AliasingError(
                f"support radius {support_radius:g} reaches second-layer "
                f"extent {support_radius ** 2:g}, too large for torus half "
                f"period {grid.torus_half_period:g}")
    rho = grushin_distance_field(grid, (0.0, 0.0), (0.0,), wrap=True)

    rows: List[list] = []
    totals = []
    for piece, scale_time in runs:
        support_radius = 2.0 ** piece.level * scale_time
        profile = MultiplierProfile(
            lambda lam: piece(scale_time * np.sqrt(np.maximum(lam, 0.0))),
            (0.0, np.inf))
        column = schwartz_kernel_column(profile, grid, (0.0, 0.0), (0.0,),
                                        trunc)
        mass = np.abs(column.values) ** 2
        total = float(mass.sum()) * grid.cell_volume
        totals.append(total)
        for kappa in kappas:
            # a masked sum: gathering the masked values copies up to 64 MB
            frac = (float(np.sum(mass, where=rho > kappa * support_radius))
                    * grid.cell_volume / total if total else 0.0)
            rows.append([piece.level, scale_time, kappa, support_radius, frac])
    return ExperimentResult(
        kind="kernel_support",
        header=["level", "scale_time", "kappa", "support_radius",
                "fraction_outside"],
        rows=rows, summary={}), totals


def kernel_support_check(
        piece: PieceProfile, scale_time: float, kappas: Sequence[float],
        grid: GrushinGrid, trunc: SpectralTruncation) -> ExperimentResult:
    """Column mass of a dyadic-piece multiplier outside its support radius.

    The piece at level l is a cosine combination with frequencies at most
    2^l, so the wave cone confines the kernel of piece(t sqrt(L)) within
    quasi-distance 2^l t of the column foot.  The engine column is computed
    on the given grid under the given spectral truncation (the piece's slow
    spectral tail is part of the truncated object by construction) and the
    reported fractions are the relative L^2 mass beyond kappa times the
    support radius.
    """
    res, (total,) = _kernel_support([(piece, scale_time)], kappas, grid, trunc)
    return replace(res, summary={
        "level": piece.level, "scale_time": scale_time, "total_mass": total,
        "fractions_outside": {f"{kappa:g}": frac
                              for _, _, kappa, _, frac in res.rows},
        "zero_kernel": total == 0.0})


def kernel_support_suite(
        levels: Sequence[int] = (0, 1, 2),
        times: Sequence[float] = (1.0, 1.0, 0.5),
        kappas: Sequence[float] = (1.1, 1.5, 2.0), *,
        prime_extent: float = 22.0, n_prime: int = 256,
        torus_half_period: float = 6.0, n_second: int = 128,
        k_max: int = 64, lambda_max: float = 64.0) -> ExperimentResult:
    """Run kernel_support_check at each (level, time) pair of the two lists.

    The time shrinks with the level so that the support radius 2^l t stays
    well inside the torus while the spectral reach t sqrt(lambda_max) stays
    large enough that the truncated piece tail cannot pollute the fractions.
    The keyword arguments set the engine grid and truncation of every check.
    """
    n_levels = len(_numbers(levels, "levels", strict=False))
    times = _numbers(times, "times")
    if n_levels != len(times):
        raise DomainError(f"levels and times must have equal length, got "
                          f"{len(levels)} and {len(times)}")
    for level in levels:
        check_integer(level, "level")
    grid = GrushinGrid(PrimeGrid(prime_extent, n_prime, 2),
                       torus_half_period, n_second, 1)
    trunc = SpectralTruncation(k_max=k_max, lambda_max=lambda_max)
    cutoffs = CutoffSpec.standard()
    pieces = dyadic_pieces(cutoffs.eta, cutoffs, n_levels=max(max(levels), 1))
    res, _ = _kernel_support([(pieces[level], t)
                              for level, t in zip(levels, times)],
                             kappas, grid, trunc)
    worst = {}
    for _, _, kappa, _, frac in res.rows:
        worst[f"{kappa:g}"] = max(worst.get(f"{kappa:g}", 0.0), frac)
    return replace(res, summary={
        "level_times": [[int(l), t] for l, t in zip(levels, times)],
        "worst_fraction_outside": worst})


def geometry_suite(n_triples: int = 100000,
                   seed: int = 0) -> ExperimentResult:
    """Bundle of quasi-metric measure checks at (d1, d2) = (2, 1).

    Four parts: exact equality of the two quasi-distance branches on the
    interface; the empirical quasi-triangle constant over n_triples (at most
    _MAX_TRIPLES) random triples drawn from seed; ball_volume's quadrature
    against the model r^{d1+d2} max(r, |x'|)^{d2} (two-sided comparability
    constant); and doubling ratios against the homogeneous-dimension growth
    (1 + lambda)^Q, one row per radius r, labelled "doubling r=<r>".
    """
    d1, d2 = _D1, _D2
    check_integer(n_triples, "n_triples", minimum=1)
    if n_triples > _MAX_TRIPLES:
        raise DomainError(f"n_triples = {n_triples} is above {_MAX_TRIPLES}")
    check_integer(seed, "seed")
    q_hom = _DIMS.homogeneous
    rng = np.random.default_rng(seed)
    rows: List[list] = []

    # branch interface: graded and rooted forms agree exactly when
    # sqrt(ds) == ax + ay and both are exactly representable
    interface_gap = 0.0
    for s in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        for ax, ay in ((s / 2.0, s / 2.0), (0.0, s)):
            x = MetricPoint((ax,) + (0.0,) * (d1 - 1), (0.0,))
            y = MetricPoint((ay,) + (0.0,) * (d1 - 1), (s * s,))
            dp = abs(ax - ay)
            graded = dp + (s * s) / s
            rooted = dp + math.sqrt(s * s)
            gap = abs(graded - rooted)
            via_fn = grushin_distance(x, y)
            gap = max(gap, abs(via_fn - graded))
            interface_gap = max(interface_gap, gap)
            rows.append(["interface", s, ax, gap])

    xp = rng.uniform(-3.0, 3.0, (n_triples, 3, d1))
    xs = rng.uniform(-4.0, 4.0, (n_triples, 3, d2))
    d_xy = grushin_distance_arrays(xp[:, 0], xs[:, 0], xp[:, 1], xs[:, 1])
    d_yz = grushin_distance_arrays(xp[:, 1], xs[:, 1], xp[:, 2], xs[:, 2])
    d_xz = grushin_distance_arrays(xp[:, 0], xs[:, 0], xp[:, 2], xs[:, 2])
    denom = d_xy + d_yz
    ok = denom > 0
    triangle_constant = float(np.max(d_xz[ok] / denom[ok]))
    rows.append(["quasi_triangle", float(n_triples), 0.0, triangle_constant])

    comparability = 0.0
    for height in (0.0, 0.5, 2.0):
        center = MetricPoint((height,) + (0.0,) * (d1 - 1), (0.0,))
        for radius in (0.25, 1.0, 3.0):
            vol = ball_volume(center, radius)
            model = ball_volume_model(center, radius)
            two_sided = max(vol / model, model / vol)
            comparability = max(comparability, two_sided)
            rows.append(["volume", height, radius, two_sided])

    doubling_excess = 0.0
    for height in (0.0, 1.0):
        center = MetricPoint((height,) + (0.0,) * (d1 - 1), (0.0,))
        for radius in (0.5, 1.0):
            for lam in (2.0, 4.0, 8.0):
                ratio = doubling_ratio(center, radius, lam)
                excess = ratio / (1.0 + lam) ** q_hom
                doubling_excess = max(doubling_excess, excess)
                rows.append([f"doubling r={radius:g}", height, lam, excess])

    return ExperimentResult(
        kind="geometry_suite",
        header=["check", "param_a", "param_b", "value"],
        rows=rows,
        summary={
            "interface_max_gap": interface_gap,
            "triangle_constant": triangle_constant,
            "volume_comparability": comparability,
            "doubling_excess": doubling_excess,
            "homogeneous_dimension": q_hom,
            "seed": seed,
        })


def distance_table(pairs) -> ExperimentResult:
    """Quasi-distance for a list of [x', x'', y', y''] quadruples."""
    if not isinstance(pairs, (list, tuple)) or not pairs:
        raise DomainError("need a non-empty list of [x', x'', y', y''] "
                          "quadruples")
    rows: List[list] = []
    for item in pairs:
        if (not isinstance(item, (list, tuple)) or len(item) != 4
                or not all(isinstance(part, (list, tuple)) and part
                           for part in item)
                or len(item[0]) != len(item[2]) or len(item[1]) != len(item[3])):
            raise DomainError("each pair must be [x', x'', y', y''] with "
                              "non-empty list-valued parts, x' and y' of one "
                              f"length and x'' and y'' of one, got {item!r}")
        x = MetricPoint(item[0], item[1])
        y = MetricPoint(item[2], item[3])
        rows.append([str(x.x_prime), str(x.x_second), str(y.x_prime),
                     str(y.x_second), grushin_distance(x, y)])
    return ExperimentResult(
        kind="distance_table",
        header=["x_prime", "x_second", "y_prime", "y_second", "rho"],
        rows=rows,
        summary={"n_pairs": len(rows)})
