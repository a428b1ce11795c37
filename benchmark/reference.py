"""Independent references and pass/fail predicates for the benchmark checks.

Nothing here calls the program under test: every reference is computed from
a closed form or a property the method must have, with plain numpy/scipy.
The tolerances are module constants; README.md says where each comes from.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import toeplitz

# bochner_l1
BR_DELTA_BOUNDED = 1.5        # above the critical index 1 for p=1, d1=2, d2=1
BR_BOUNDED_RATIO = 2.0        # max/min over R of the delta=1.5 norms
HEAT_L1_TOL = 1e-3            # |L1 norm - 1| for a heat column
# restriction_radial
CLOSED_FORM_RTOL = 1e-9       # gamma=0 column norms against the closed form
SLOPE_PREDICTED = 2.0         # (2 d2 + d1)(1/p - 1/2) at p=1, d1=2, d2=1
SLOPE_BAND = 0.1
# engine_columns
MEHLER_TOL = 1e-9             # |engine - Mehler| relative to the peak
MASS_TOL = 1e-6               # |sum K cell - F(0)|
# the wave cone confines a dyadic piece's kernel to quasi-distance 2^l t, so
# the mass beyond kappa times that radius is truncation leak only; bounds are
# about 1.5x the largest fraction of the three kernel_support columns
SUPPORT_LEAK = {1.1: 0.03, 1.5: 0.01, 2.0: 0.005}


# ---------------------------------------------------------------------------
# Hermite functions and the gamma=0 column norm of the radial path

def hermite_functions(nmax: int, x: np.ndarray) -> np.ndarray:
    """Rows n = 0..nmax of the L2-normalised Hermite functions at x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((nmax + 1,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(2, nmax + 1):
        out[n] = (math.sqrt(2.0 / n) * x * out[n - 1]
                  - math.sqrt((n - 1.0) / n) * out[n - 2])
    return out


def level_diagonal(kmax: int, r: np.ndarray) -> np.ndarray:
    """Q_k(r) = sum_{a+b=k} h_a(r)^2 h_b(0)^2 for k = 0..kmax.

    This is the diagonal of the level-k projection of the 2-D oscillator
    at the point (r, 0); by rotation invariance it depends on |y'| only.
    """
    h2 = hermite_functions(kmax, r) ** 2
    w = hermite_functions(kmax, np.zeros(1))[:, 0] ** 2
    lower = np.tril(toeplitz(w))  # lower[k, a] = w[k - a]
    return lower @ h2


def gamma0_column_norms(profile_fn, u, torus_half_period: float,
                        lambda_max: float) -> np.ndarray:
    """|| K_F(., y) ||_2 at |y'| = u, from the level diagonals, j != 0.

    norm^2 = (1/2S) sum_{j != 0} |xi_j| sum_k |F((2k+2)|xi_j|)|^2
    Q_k(sqrt|xi_j| u), with levels cut at (2k+2)|xi_j| <= lambda_max.
    At u = 0, Q_k(0) = 1/pi for even k and 0 for odd k.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    dxi = math.pi / torus_half_period
    total = np.zeros(u.shape)
    j = 1
    while 2.0 * j * dxi <= lambda_max * (1.0 + 1e-12):
        xi = j * dxi
        kmax = int(math.floor((lambda_max / xi - 2.0) / 2.0 + 1e-12))
        lam = (2.0 * np.arange(kmax + 1) + 2.0) * xi
        f2 = np.abs(np.asarray(profile_fn(lam), dtype=complex)) ** 2
        if f2.any():
            q = level_diagonal(kmax, math.sqrt(xi) * u)
            total += 2.0 * xi * (f2 @ q)  # +j and -j
        j += 1
    return np.sqrt(total / (2.0 * torus_half_period))


def fitted_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(np.asarray(x, dtype=float)),
                            np.log(np.asarray(y, dtype=float)), 1)[0])


def holder_factor(lambda_max: float, xi_min: float, gamma: float) -> float:
    """(sqrt(lambda_max) / xi_min)^gamma.

    On a band capped at lambda_max, xi^2 |x'|^2 <= L_xi gives
    ||x'| K_xi|^2 <= lambda_max / xi^2 ||K_xi||^2 per slab; Hoelder between
    the weights |x'|^0 and |x'|^1 then bounds the |x'|^gamma-weighted norm
    by this factor times the unweighted one.
    """
    return (math.sqrt(lambda_max) / xi_min) ** gamma


# ---------------------------------------------------------------------------
# heat kernel

def mehler_heat_kernel(x_prime, x_second, y_prime, y_second, t: float,
                       torus_half_period: float) -> np.ndarray:
    """Heat kernel of -Lap' - |x'|^2 Lap'' with x'' on [-S, S), closed form.

    Sum over the dual lattice xi_j = j pi/S of (1/2S) e^{i xi_j (x''-y'')}
    times the Mehler kernel of -Lap + xi^2|x|^2 at time t; the xi = 0 term
    is the free Gaussian.  x_prime and y_prime have the prime coordinates
    on their last axis; leading axes broadcast.
    """
    xp = np.asarray(x_prime, dtype=float)
    yp = np.asarray(y_prime, dtype=float)
    d1 = xp.shape[-1]
    ds = np.asarray(x_second, dtype=float) - np.asarray(y_second, dtype=float)
    a = np.sum(xp * xp, axis=-1) + np.sum(yp * yp, axis=-1)
    b = np.sum(xp * yp, axis=-1)
    diff2 = np.sum((xp - yp) ** 2, axis=-1)
    total = (4.0 * math.pi * t) ** (-d1 / 2.0) * np.exp(-diff2 / (4.0 * t))
    dxi = math.pi / torus_half_period
    # prefactor decays like xi^{d1/2} e^{-d1 xi t}: stop past e^{-60}
    j_max = int(math.ceil(60.0 / (d1 * t * dxi))) + 1
    for j in range(1, j_max + 1):
        xi = j * dxi
        rho = math.exp(-2.0 * xi * t)
        one_m = -math.expm1(-4.0 * xi * t)  # 1 - rho^2
        log_pre = 0.5 * d1 * (math.log(xi) - 2.0 * xi * t - math.log(math.pi)
                              - math.log(one_m))
        expo = -0.5 * xi * (a * (1.0 + rho * rho) - 4.0 * rho * b) / one_m
        total = total + 2.0 * np.cos(xi * ds) * np.exp(log_pre + expo)
    return total / (2.0 * torus_half_period)


def mehler_l1_grid_sum(t: float, torus_half_period: float,
                       y_prime=(0.0, 0.0), n_prime: int = 96,
                       n_second: int = 64) -> float:
    """Riemann sum of |K_t(., y)| over an x' window and the whole torus."""
    half = 12.0 * math.sqrt(t) + float(np.max(np.abs(y_prime)))
    ax = np.linspace(-half, half, n_prime, endpoint=False) + half / n_prime
    sec = (-torus_half_period
           + 2.0 * torus_half_period / n_second * np.arange(n_second))
    x1, x2, x3 = np.meshgrid(ax, ax, sec, indexing="ij")
    k = mehler_heat_kernel(np.stack([x1, x2], axis=-1), x3,
                           np.asarray(y_prime, dtype=float), 0.0,
                           t, torus_half_period)
    cell = (ax[1] - ax[0]) ** 2 * (2.0 * torus_half_period / n_second)
    return float(np.abs(k).sum() * cell)


# ---------------------------------------------------------------------------
# dyadic pieces

def piece_value_at_zero(weights, amplitudes) -> float:
    """sqrt(2/pi) sum_i w_i a_i cos(s_i 0): a dyadic piece's value at 0."""
    return math.sqrt(2.0 / math.pi) * float(np.sum(np.asarray(weights)
                                                   * np.asarray(amplitudes)))


# ---------------------------------------------------------------------------
# predicates

def heat_l1_ok(norm: float) -> bool:
    """A positive kernel with unit mass has L1 norm 1."""
    return math.isfinite(norm) and abs(norm - 1.0) <= HEAT_L1_TOL


def br_norm_ok(norm: float, f_at_zero: float = 1.0) -> bool:
    """int K(x, y) dx = F(0), so the L1 norm is at least |F(0)|."""
    return math.isfinite(norm) and norm >= abs(f_at_zero) * (1.0 - 1e-12)


def closed_form_ok(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return bool(np.all(np.isfinite(got))
                and np.all(np.abs(got - want) <= CLOSED_FORM_RTOL * np.abs(want)))


def holder_ok(weighted, unweighted, factor: float) -> bool:
    """Each gamma>0 ball norm is at most factor times the gamma=0 one."""
    w = float(weighted)
    return math.isfinite(w) and 0.0 <= w <= factor * float(unweighted) * (1.0 + 1e-12)


def slope_ok(slope: float) -> bool:
    return abs(slope - SLOPE_PREDICTED) <= SLOPE_BAND


def mehler_ok(values, reference) -> bool:
    values = np.asarray(values)
    reference = np.asarray(reference, dtype=float)
    peak = float(np.max(np.abs(reference)))
    return bool(np.all(np.isfinite(values))
                and np.max(np.abs(values - reference)) <= MEHLER_TOL * peak)


def mass_ok(mass: complex, f_at_zero: float) -> bool:
    return bool(np.isfinite(mass)) and abs(mass - f_at_zero) <= MASS_TOL


def fractions_ok(kappas, fractions) -> bool:
    """Mass outside kappa * radius never grows with kappa and stays under
    the leak bound of each kappa."""
    f = np.asarray(fractions, dtype=float)
    bound = np.array([SUPPORT_LEAK[k] for k in kappas])
    return bool(np.all(np.isfinite(f)) and np.all((f >= 0.0) & (f <= bound))
                and np.all(np.diff(f) <= 0.0))
