"""The three workloads: their inputs, their operations and their checks.

`build(name, seed)` makes a workload's inputs and returns a `Workload`: the
operations of one round, in seeded order, and the check that judges their
outputs.  Operations call the program through module attributes looked up
at call time, so the tracer's wrappers see every call; the arguments are the
ones the experiment functions in `grushin.lab.experiments` pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref
from grushin import engine, geometry
from grushin.fields import GrushinGrid, MultiplierProfile, SpectralTruncation
from grushin.hermite import PrimeGrid
from grushin.lab import columns, radial
from grushin.lab.experiments import band_profile
from grushin.lab.profiles import CutoffSpec, dyadic_pieces

@dataclass
class Op:
    """One operation: `run` is timed, `summarize` reduces its output untimed.

    `known_fault` marks an operation that fails today because of a fault in
    the program (README.md names both); it counts in `failed` but does not
    make the run incorrect.
    """

    name: str
    run: Callable[[], object]
    summarize: Callable[[object], object] = lambda out: out
    known_fault: bool = False


@dataclass
class Workload:
    ops: list
    # outputs by op name -> (names of failed ops, round-level problems)
    check: Callable[[dict], tuple]
    meta: dict = field(default_factory=dict)


def fingerprint(value) -> str:
    """Exact digest of an op output, for comparing traced and untraced runs."""
    h = hashlib.blake2b(digest_size=16)

    def feed(v):
        if isinstance(v, dict):
            for k in sorted(v):
                h.update(k.encode())
                feed(v[k])
        elif isinstance(v, (tuple, list)):
            for item in v:
                feed(item)
        elif isinstance(v, str):
            h.update(v.encode())
        else:
            h.update(np.ascontiguousarray(np.asarray(v)).tobytes())

    feed(value)
    return h.hexdigest()


def _shuffled(ops, seed):
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------------------
# bochner_l1: L1 column norms (lab.columns)

BR_S = math.pi / 2.0
BR_RADII = (4.0, 8.0, 16.0, 32.0)
BR_DELTAS = (1.5, 0.2)
BR_POINTS_PER_WAVELENGTH = 4.0
HEAT_TIMES_L1 = (0.05, 0.1, 0.2)


def _br_profile(radius, delta):
    # as built by bochner_riesz_sweep
    return MultiplierProfile(
        lambda lam, R=radius, d=delta:
            np.maximum(0.0, 1.0 - np.asarray(lam) / (R * R)) ** d,
        (0.0, radius * radius))


def build_bochner_l1(seed: int) -> Workload:
    ops = []
    for delta in BR_DELTAS:
        for radius in BR_RADII:
            profile = _br_profile(radius, delta)
            for u in (0.0, 1.0 / radius, 4.0 / radius):
                ops.append(Op(
                    f"br delta={delta:g} R={radius:g} u={u:g}",
                    lambda p=profile, R=radius, d=delta, u=u:
                        columns.l1_multiplier_norm(
                            p, BR_S, u=u, lambda_max=R * R,
                            points_per_wavelength=BR_POINTS_PER_WAVELENGTH,
                            xi_zero_radial=lambda r, R=R, d=d:
                                columns.bochner_riesz_radial_kernel(R, d, r))))
    for t in HEAT_TIMES_L1:
        profile = MultiplierProfile.heat(t)
        ops.append(Op(f"heat t={t:g}",
                      lambda p=profile: columns.l1_multiplier_norm(p, BR_S),
                      known_fault=True))  # planar_radial_kernel endpoint bias

    def check(out):
        failed = {name for name, v in out.items() if name.startswith("br ")
                  and not ref.br_norm_ok(v)}
        failed |= {f"heat t={t:g}" for t in HEAT_TIMES_L1
                   if not ref.heat_l1_ok(out[f"heat t={t:g}"])}
        problems = []
        for delta in BR_DELTAS:
            per_r = [max(out[f"br delta={delta:g} R={R:g} u={u:g}"]
                         for u in (0.0, 1.0 / R, 4.0 / R)) for R in BR_RADII]
            if delta == ref.BR_DELTA_BOUNDED:
                ratio = max(per_r) / min(per_r)
                if not ratio < ref.BR_BOUNDED_RATIO:
                    problems.append(f"delta={delta:g}: max/min over R is "
                                    f"{ratio:.4g}, not < {ref.BR_BOUNDED_RATIO}")
            elif not all(b > a for a, b in zip(per_r, per_r[1:])):
                problems.append(f"delta={delta:g}: norms {per_r} do not "
                                "increase with R")
        return failed, problems

    return Workload(_shuffled(ops, seed), check)


# ---------------------------------------------------------------------------
# restriction_radial: weighted column norms on the Laguerre path (lab.radial)

RAD_S = math.pi
RAD_K_MAX = 4000
OPNORM_RADII = (4.0, 8.0, 16.0, 32.0)
OPNORM_N_SCAN = 97
BALL_RADII = (8.0, 16.0, 32.0)
BALL_CENTER = 3.0
BALL_RADIUS = 0.1875
BALL_FEET = 17
BALL_GAMMA = 0.25
BALL_FAULTY_RADII = (16.0, 32.0)


def build_restriction_radial(seed: int) -> Workload:
    feet = np.linspace(BALL_CENTER - BALL_RADIUS, BALL_CENTER + BALL_RADIUS,
                       BALL_FEET)
    profiles = {R: band_profile(R) for R in set(OPNORM_RADII + BALL_RADII)}
    ops = []
    for R in OPNORM_RADII:
        ops.append(Op(f"opnorm R={R:g}",
                      lambda p=profiles[R], R=R: radial.weighted_operator_norm(
                          p, 0.0, RAD_S, k_max=RAD_K_MAX, lambda_max=R * R,
                          n_scan=OPNORM_N_SCAN)))
    for R in BALL_RADII:
        for gamma in (BALL_GAMMA, 0.0):
            ops.append(Op(
                f"ball R={R:g} gamma={gamma:g}",
                lambda p=profiles[R], R=R, g=gamma: radial.weighted_column_norms(
                    p, feet, g, RAD_S, k_max=RAD_K_MAX, lambda_max=R * R),
                # _gauss_modes takes Golub-Welsch eigenvector weights
                known_fault=gamma > 0 and R in BALL_FAULTY_RADII))

    def check(out):
        failed, problems = set(), []
        norms = []
        for R in OPNORM_RADII:
            name = f"opnorm R={R:g}"
            norm, u_star = out[name]
            norms.append(norm)
            at_star, on_axis = ref.gamma0_column_norms(
                profiles[R], [u_star, 0.0], RAD_S, R * R)
            if not (ref.closed_form_ok(norm, at_star)
                    and norm >= on_axis * (1.0 - ref.CLOSED_FORM_RTOL)):
                failed.add(name)
        slope = ref.fitted_slope(OPNORM_RADII, norms)
        if not ref.slope_ok(slope):
            problems.append(f"fitted R-slope {slope:.4g} outside "
                            f"{ref.SLOPE_PREDICTED} +- {ref.SLOPE_BAND}")
        xi_min = math.pi / RAD_S
        for R in BALL_RADII:
            plain = f"ball R={R:g} gamma=0"
            weighted = f"ball R={R:g} gamma={BALL_GAMMA:g}"
            want = ref.gamma0_column_norms(profiles[R], feet, RAD_S, R * R)
            if not ref.closed_form_ok(out[plain], want):
                failed.add(plain)
            bound = ref.holder_factor(R * R, xi_min, BALL_GAMMA)
            if plain in failed or not ref.holder_ok(
                    np.max(out[weighted]), np.max(out[plain]), bound):
                failed.add(weighted)
        return failed, problems

    return Workload(_shuffled(ops, seed), check)


# ---------------------------------------------------------------------------
# engine_columns: kernel columns on the tensor grid (engine)

SUPPORT_GRID = dict(prime_extent=22.0, n_prime=256, torus_half_period=6.0,
                    n_second=128, k_max=64, lambda_max=64.0)
SUPPORT_LEVEL_TIMES = ((0, 1.0), (1, 1.0), (2, 0.5))
SUPPORT_KAPPAS = (1.1, 1.5, 2.0)
# heat columns: e^{-t lambda_max} <= e^{-28} and levels stay below k_max
HEAT_GRID = dict(prime_extent=8.0, n_prime=192, torus_half_period=1.0,
                 n_second=128, k_max=48, lambda_max=280.0)
HEAT_TIMES_ENGINE = (0.1, 0.2)
HEAT_FEET = 2
HEAT_FOOT_REACH = 1.5      # |y'_i| of a seeded foot
CHECK_NODES = 24
CHECK_NODE_REACH = 1.0     # |x'_i - y'_i| of a seeded check node


def _grid_and_trunc(cfg):
    grid = GrushinGrid(PrimeGrid(cfg["prime_extent"], cfg["n_prime"], 2),
                       cfg["torus_half_period"], cfg["n_second"], 1)
    return grid, SpectralTruncation(k_max=cfg["k_max"],
                                    lambda_max=cfg["lambda_max"])


def build_engine_columns(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    cutoffs = CutoffSpec.standard()
    pieces = dyadic_pieces(cutoffs.eta, cutoffs, n_levels=2)
    s_grid, s_trunc = _grid_and_trunc(SUPPORT_GRID)
    h_grid, h_trunc = _grid_and_trunc(HEAT_GRID)
    ops, expected_mass = [], {}

    for level, scale_time in SUPPORT_LEVEL_TIMES:
        piece = pieces[level]
        # as built by kernel_support_check
        profile = MultiplierProfile(
            lambda lam, p=piece, s=scale_time:
                p(s * np.sqrt(np.maximum(lam, 0.0))),
            (0.0, np.inf))
        radius = 2.0 ** level * scale_time

        def support_column(profile=profile, radius=radius):
            column = engine.schwartz_kernel_column(
                profile, s_grid, (0.0, 0.0), (0.0,), s_trunc)
            mass = np.abs(column.values) ** 2
            total = float(mass.sum()) * s_grid.cell_volume
            rho = geometry.grushin_distance_field(s_grid, (0.0, 0.0), (0.0,),
                                                  wrap=True)
            fractions = [float(mass[rho > k * radius].sum())
                         * s_grid.cell_volume / total for k in SUPPORT_KAPPAS]
            return column, fractions

        def summarize(out):
            column, fractions = out
            return {"digest": fingerprint(column.values),
                    "mass": complex(column.values.sum() * s_grid.cell_volume),
                    "fractions": fractions}

        name = f"support level={level} t={scale_time:g}"
        expected_mass[name] = ref.piece_value_at_zero(
            piece.weights, piece.amplitudes)
        ops.append(Op(name, support_column, summarize))

    ax, sec = h_grid.prime.axis, h_grid.second_axis
    near_axis = np.flatnonzero(np.abs(ax) <= HEAT_FOOT_REACH)
    nodes = {}
    for foot_i in range(HEAT_FEET):
        foot = (int(rng.choice(near_axis)), int(rng.choice(near_axis)),
                int(rng.integers(sec.size)))
        y_prime, y_second = (ax[foot[0]], ax[foot[1]]), (sec[foot[2]],)
        reach = int(round(CHECK_NODE_REACH / h_grid.prime.spacing))
        picks = np.column_stack([
            foot[0] + rng.integers(-reach, reach + 1, CHECK_NODES),
            foot[1] + rng.integers(-reach, reach + 1, CHECK_NODES),
            rng.integers(sec.size, size=CHECK_NODES)])
        picks = np.vstack([np.array(foot), picks])  # the foot carries the peak
        for t in HEAT_TIMES_ENGINE:
            name = f"heat t={t:g} foot={foot_i}"
            profile = MultiplierProfile.heat(t)
            nodes[name] = (t, y_prime, y_second, picks)
            expected_mass[name] = 1.0

            def summarize(column, picks=picks):
                return {"digest": fingerprint(column.values),
                        "mass": complex(column.values.sum()
                                        * h_grid.cell_volume),
                        "at_nodes": column.values[tuple(picks.T)]}

            ops.append(Op(name,
                          lambda p=profile, yp=y_prime, ys=y_second:
                              engine.schwartz_kernel_column(p, h_grid, yp, ys,
                                                            h_trunc),
                          summarize))

    def check(out):
        failed = set()
        for name, res in out.items():
            ok = ref.mass_ok(res["mass"], expected_mass[name])
            if name.startswith("support"):
                ok = ok and ref.fractions_ok(SUPPORT_KAPPAS, res["fractions"])
            else:
                t, y_prime, y_second, picks = nodes[name]
                want = ref.mehler_heat_kernel(
                    np.column_stack([ax[picks[:, 0]], ax[picks[:, 1]]]),
                    sec[picks[:, 2]], np.asarray(y_prime), y_second[0], t,
                    h_grid.torus_half_period)
                ok = ok and ref.mehler_ok(res["at_nodes"], want)
            if not ok:
                failed.add(name)
        return failed, []

    feet = {name: [float(v) for v in (*yp, *ys)]
            for name, (_, yp, ys, _) in nodes.items()}
    return Workload(_shuffled(ops, seed), check, {"heat_feet": feet})


BUILDERS = {
    "bochner_l1": build_bochner_l1,
    "restriction_radial": build_restriction_radial,
    "engine_columns": build_engine_columns,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
