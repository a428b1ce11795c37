"""Hermite layer and the references built on it: recurrence accuracy,
combinatorics, projections."""

import math

import numpy as np
import pytest
from oracles import (
    gaussian_decay_fit,
    hermite_eval,
    level_sum_profile,
    multiindex_enum,
    phi_eval,
    project_onto_level,
    projection_kernel,
)
from scipy.integrate import simpson

from grushin.errors import ContractViolation, DomainError, TruncationError
from grushin.hermite import PrimeGrid, hermite_table

GRID = PrimeGrid(half_width=17.0, n_points=512, d1=1)


def test_ground_state_value():
    assert hermite_eval(0, 0.0) == pytest.approx(np.pi ** -0.25, abs=1e-15)
    assert hermite_eval(1, 0.0) == 0.0


def test_orthonormality_gram():
    # acceptance condition: |<h_m, h_n> - delta_mn| <= 1e-10 for m, n <= 60
    H = hermite_table(60, GRID.axis)
    gram = H @ H.T * GRID.spacing
    assert np.max(np.abs(gram - np.eye(61))) <= 1e-10


@pytest.mark.parametrize("m,n", [(0, 0), (7, 7), (60, 60), (3, 5), (59, 60)])
def test_orthonormality_against_simpson(m, n):
    # independent oracle: simpson quadrature on a finer, wider grid
    u = np.linspace(-19, 19, 6001)
    H = hermite_table(max(m, n), u)
    val = simpson(H[m] * H[n], x=u)
    assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)


@pytest.mark.parametrize("n", [0, 1, 5, 17, 40])
def test_eigen_residual_fd(n):
    # 4th order finite differences for -h'' + u^2 h = (2n+1) h, relative 1e-6
    N = 4096
    u = np.linspace(-15, 15, N)
    du = u[1] - u[0]
    h = hermite_table(n, u)[n]
    d2 = (
        -np.roll(h, 2) + 16 * np.roll(h, 1) - 30 * h + 16 * np.roll(h, -1) - np.roll(h, -2)
    ) / (12 * du * du)
    resid = -d2 + u * u * h - (2 * n + 1) * h
    inner = slice(2, -2)
    rel = np.linalg.norm(resid[inner]) / ((2 * n + 1) * np.linalg.norm(h[inner]))
    assert rel <= 1e-6


def test_hermite_rejects_nonfinite():
    with pytest.raises(DomainError):
        hermite_eval(3, np.nan)
    with pytest.raises(DomainError):
        hermite_table(-1, np.array([0.0]))


@pytest.mark.parametrize("nmax, u", [(2.5, [0.0]), (True, [0.0]), (2, ["a"])],
                         ids=["nmax-fractional", "nmax-bool", "u-string"])
def test_hermite_table_refuses_bad_numbers(nmax, u):
    # a fractional nmax or a string point failed inside numpy, a bool nmax
    # ran as 1
    with pytest.raises(DomainError):
        hermite_table(nmax, u)


def test_multiindex_examples():
    assert multiindex_enum(2, 3) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert multiindex_enum(1, 5) == [(5,)]
    assert len(multiindex_enum(3, 4)) == 15


@pytest.mark.parametrize("d1,k", [(1, 9), (2, 6), (3, 5)])
def test_multiindex_exhaustive_sorted_unique(d1, k):
    idx = multiindex_enum(d1, k)
    assert len(set(idx)) == len(idx) == math.comb(k + d1 - 1, d1 - 1)
    assert idx == sorted(idx)
    assert all(sum(nu) == k and len(nu) == d1 for nu in idx)


def test_phi_eval_examples():
    assert phi_eval((0, 0), (0.0, 0.0)) == pytest.approx(np.pi ** -0.5, abs=1e-15)
    assert phi_eval((1, 0), (0.0, 3.0)) == 0.0
    with pytest.raises(ContractViolation):
        phi_eval((1, 2, 0), (0.0, 1.0))


def test_phi_norm_under_quadrature():
    g = PrimeGrid(half_width=12.0, n_points=256, d1=2)
    x1, x2 = np.meshgrid(g.axis, g.axis, indexing="ij")
    H = hermite_table(7, g.axis)
    vals = H[3][:, None] * H[4][None, :]
    norm2 = np.sum(vals ** 2) * g.cell
    assert norm2 == pytest.approx(1.0, abs=1e-9)


def test_projection_kernel_examples():
    assert projection_kernel(0, (0.0, 0.0), (0.0, 0.0)) == pytest.approx(1 / np.pi, abs=1e-14)
    a = projection_kernel(4, (0.3, -1.2), (0.9, 0.4))
    b = projection_kernel(4, (0.9, 0.4), (0.3, -1.2))
    assert a == b  # symmetric by construction


def test_projection_kernel_matches_level_profile():
    # radial profile equals the kernel on the diagonal at (r, 0)
    for k in (0, 1, 5):
        r = np.array([0.0, 0.7, 2.1])
        prof = level_sum_profile(k, 2, r)
        direct = [projection_kernel(k, (ri, 0.0), (ri, 0.0)) for ri in r]
        assert np.allclose(prof, direct, rtol=1e-12, atol=1e-14)


@pytest.fixture(scope="module")
def grid2():
    return PrimeGrid(half_width=12.0, n_points=192, d1=2)


def test_project_reproduces_eigenfunction(grid2):
    H = hermite_table(6, grid2.axis)
    f = H[2][:, None] * H[4][None, :]  # level 6
    pf = project_onto_level(f, 6, grid2)
    err = np.sqrt(np.sum(np.abs(pf - f) ** 2) * grid2.cell)
    assert err <= 1e-8


def test_project_annihilates_other_levels(grid2):
    H = hermite_table(6, grid2.axis)
    f = H[2][:, None] * H[4][None, :]
    pf = project_onto_level(f, 5, grid2)
    assert np.sqrt(np.sum(np.abs(pf) ** 2) * grid2.cell) <= 1e-8


def test_project_contraction_idempotence(grid2):
    rng = np.random.default_rng(7)
    f = rng.standard_normal((grid2.n_points,) * 2)
    pf = project_onto_level(f, 4, grid2)
    ppf = project_onto_level(pf, 4, grid2)
    nf = np.sqrt(np.sum(f ** 2) * grid2.cell)
    npf = np.sqrt(np.sum(pf ** 2) * grid2.cell)
    assert npf <= nf
    assert np.sqrt(np.sum((ppf - pf) ** 2) * grid2.cell) <= 1e-9 * nf


def test_project_completeness(grid2):
    rng = np.random.default_rng(11)
    H = hermite_table(8, grid2.axis)
    f = np.zeros((grid2.n_points,) * 2)
    for m in range(5):
        for n in range(5):
            f += rng.standard_normal() * H[m][:, None] * H[n][None, :]
    total = sum(project_onto_level(f, k, grid2) for k in range(9))
    err = np.sqrt(np.sum((total - f) ** 2) * grid2.cell)
    assert err <= 1e-6 * np.sqrt(np.sum(f ** 2) * grid2.cell)


def test_project_truncation_signal():
    g = PrimeGrid(half_width=6.0, n_points=64, d1=1)
    with pytest.raises(TruncationError):
        project_onto_level(np.zeros(64), 40, g)


@pytest.mark.parametrize("k,d1", [(3, 2), (6, 2), (4, 3)])
def test_gaussian_tail_decay(k, d1):
    c, C = gaussian_decay_fit(k, d1)
    assert c > 0
    assert np.isfinite(C) and C > 0
    # the fitted bound actually dominates the profile on the tail
    lam = 2 * k + d1
    r = np.sqrt(np.linspace(2 * lam, 2 * lam + 8, 33))
    q = level_sum_profile(k, d1, r)
    assert np.all(q <= 1.05 * C * np.exp(-c * r ** 2) + 1e-300)


def test_prime_grid_properties():
    g = PrimeGrid(half_width=15.0, n_points=1024, d1=1)
    assert 0.0 in g.axis  # even n_points puts the origin on the grid
    # level 40 turns at sqrt(2 * 40 + 1) = 9, six units inside the box
    assert g.reliable_level_cap() >= 40
    with pytest.raises(DomainError):
        PrimeGrid(half_width=-1.0, n_points=64, d1=1)
