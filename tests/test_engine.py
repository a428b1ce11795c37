"""Spectral multiplier engine: transform algebra, kernel columns, contracts.

Grid sizing notes, determined by direct measurement:
- the smallest active |xi| needs sqrt(xi)*X >= sqrt(2k+d1) + 4 for every level
  the profile reaches there (reliable_level_cap), and sqrt(xi)*dx <= 0.65 at
  the LARGEST active slice, else trapezoid aliasing of the eigenfunction Gram
  pollutes slice algebra at the 1e-8 level;
- the zero-frequency slice samples its symbol up to the x' Nyquist, so
  composition tests use heat times large enough that the symbol has decayed
  there (t >= 0.12 on the 64-point window below).
"""

import tracemalloc

import numpy as np
import pytest
from oracles import (
    delta_field,
    field_from_function,
    full_lattice_apply,
    indicator,
    inner,
    level_weights,
    multiindex_enum,
    norm_lp,
    phi_xi_eval,
    wave_cosine,
)

from grushin import engine
from grushin.engine import (
    apply_multiplier,
    inverse_partial_fourier,
    partial_fourier,
    schwartz_kernel_column,
)
from grushin.errors import ContractViolation, TruncationError
from grushin.fields import (
    Field,
    GrushinGrid,
    MultiplierProfile,
    SpectralTruncation,
)
from grushin.hermite import PrimeGrid
from grushin.lab.profiles import CutoffSpec, dyadic_pieces
from grushin.oscillator import eigenvalue_cap, torus_slabs


@pytest.fixture(scope="module")
def grid():
    return GrushinGrid(PrimeGrid(7.0, 64, 2), np.pi / 2, 128, 1)


@pytest.fixture(scope="module")
def trunc():
    return SpectralTruncation(k_max=12, lambda_max=16.0)


@pytest.fixture(scope="module")
def rough_field(grid):
    """Random field localized in x' (boundary values ~1e-21)."""
    rng = np.random.default_rng(101)
    x1, x2 = np.meshgrid(grid.prime.axis, grid.prime.axis, indexing="ij")
    env = np.exp(-(x1 ** 2 + x2 ** 2))
    return Field(grid, env[:, :, None] * rng.standard_normal(grid.shape))


@pytest.fixture(scope="module")
def meanfree_field(grid, rough_field):
    """Same texture, but with the x''-mean removed so the zero slice is empty.

    Sharp spectral cutoffs (indicator, Bochner-Riesz at delta=0) ring on the
    zero-frequency slice against the window crop; algebraic identities for
    them are exact only away from that slice.
    """
    vals = rough_field.values - rough_field.values.mean(axis=2, keepdims=True)
    return Field(grid, vals)


def eigenfield(grid, nu, xi):
    """Phi_nu^xi(x') cos(xi x''): an exact eigenvector of the discretization.

    It is real, and still an eigenvector: the slices at +-xi share |xi|.
    """
    x1, x2 = np.meshgrid(grid.prime.axis, grid.prime.axis, indexing="ij")
    pts = np.stack([x1.ravel(), x2.ravel()], axis=1)
    phi = np.array([phi_xi_eval(nu, xi, p) for p in pts]).reshape(x1.shape)
    osc = np.cos(xi * grid.second_axis)
    return Field(grid, phi[:, :, None] * osc[None, None, :])


class TestPartialFourier:
    def test_round_trip(self, grid, rough_field):
        fh = partial_fourier(rough_field)
        back = inverse_partial_fourier(grid, fh)
        assert np.max(np.abs(back.values - rough_field.values)) < 1e-12

    def test_parseval(self, grid, rough_field):
        fh = partial_fourier(rough_field)
        # the bins 0 < m < n/2 stand for themselves and their conjugates at -m
        twice = np.r_[1.0, np.full(grid.n_second // 2 - 1, 2.0), 1.0]
        lhs = np.sqrt(np.sum(twice * np.abs(fh) ** 2)
                      * grid.prime.cell * grid.xi_spacing)
        assert abs(lhs - norm_lp(rough_field, 2)) < 1e-10 * norm_lp(rough_field, 2)

    def test_constant_in_second_variable_is_pure_zero_mode(self, grid):
        x1, x2 = np.meshgrid(grid.prime.axis, grid.prime.axis, indexing="ij")
        f = Field(grid, np.repeat(np.exp(-(x1 ** 2 + x2 ** 2))[:, :, None],
                                  grid.n_second, axis=2))
        fh = partial_fourier(f)
        assert np.max(np.abs(fh[:, :, 1:])) < 1e-13 * np.max(np.abs(fh[:, :, 0]))

    def test_single_oscillation_lands_on_lattice_node(self, grid):
        xi0 = 2.0 * grid.xi_spacing
        f = field_from_function(grid, lambda x1, x2, y: np.exp(-(x1**2 + x2**2)) *
                                np.cos(xi0 * y))
        fh = partial_fourier(f)
        m = np.argmax(np.abs(fh).max(axis=(0, 1)))
        assert m * grid.xi_spacing == pytest.approx(xi0)


class TestApplyMultiplier:
    def test_identity_on_eigen_span(self, grid, trunc):
        rng = np.random.default_rng(55)
        vals = np.zeros(grid.shape)
        for xi in (2.0, 4.0, 6.0, 8.0):
            k_top = int(np.floor((trunc.lambda_max / xi - 2) / 2))
            for k in range(k_top + 1):
                for nu in multiindex_enum(2, k):
                    c = rng.standard_normal()
                    vals += c * eigenfield(grid, nu, xi).values
        f = Field(grid, vals)
        out = apply_multiplier(indicator(0.0, trunc.lambda_max), f, trunc)
        assert (np.max(np.abs(out.values - f.values))
                < 1e-8 * np.max(np.abs(f.values)))

    def test_eigenvector_heat(self, grid, trunc):
        nu, xi0, t = (1, 2), 2.0, 0.1
        lam = (2 * 3 + 2) * xi0
        f = eigenfield(grid, nu, xi0)
        out = apply_multiplier(MultiplierProfile.heat(t), f, trunc)
        assert (np.max(np.abs(out.values - np.exp(-t * lam) * f.values))
                < 1e-8 * np.max(np.abs(f.values)))

    def test_linearity(self, grid, trunc, rough_field):
        g = Field(grid, rough_field.values[::-1, :, :].copy())
        a, b = 1.7, -0.4
        heat = MultiplierProfile.heat(0.2)
        lhs = apply_multiplier(heat, Field(grid, a * rough_field.values + b * g.values), trunc)
        rhs = a * apply_multiplier(heat, rough_field, trunc).values \
            + b * apply_multiplier(heat, g, trunc).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-10 * np.max(np.abs(rhs))

    def test_semigroup(self, grid, trunc, rough_field):
        h1 = apply_multiplier(MultiplierProfile.heat(0.12), rough_field, trunc)
        h2 = apply_multiplier(MultiplierProfile.heat(0.18), h1, trunc)
        h12 = apply_multiplier(MultiplierProfile.heat(0.30), rough_field, trunc)
        assert (np.max(np.abs(h2.values - h12.values))
                < 1e-8 * np.max(np.abs(h12.values)))

    def test_heat_contraction(self, grid, trunc, rough_field):
        out = apply_multiplier(MultiplierProfile.heat(0.12), rough_field, trunc)
        assert norm_lp(out, 2) <= norm_lp(rough_field, 2) * (1 + 1e-12)

    def test_self_adjoint(self, grid, trunc, rough_field):
        rng = np.random.default_rng(10)
        x1, x2 = np.meshgrid(grid.prime.axis, grid.prime.axis, indexing="ij")
        env = np.exp(-(x1 ** 2 + x2 ** 2))
        g = Field(grid, env[:, :, None] * rng.standard_normal(grid.shape))
        a = inner(apply_multiplier(MultiplierProfile.heat(0.15), rough_field, trunc), g)
        b = inner(rough_field, apply_multiplier(MultiplierProfile.heat(0.15), g, trunc))
        assert abs(a - b) < 1e-10 * abs(a)

    def test_multiplicativity(self, grid, trunc, rough_field):
        # composition of profiles == profile of the product, on every slice
        F = MultiplierProfile(lambda lam: np.exp(-0.3 * lam),
                              (0.0, np.log(1e14) / 0.3), "F")
        G = MultiplierProfile(lambda lam: lam * np.exp(-0.5 * lam), (0.0, 110.0), "G")
        FG = MultiplierProfile(lambda lam: lam * np.exp(-0.8 * lam), (0.0, 110.0), "FG")
        u1 = apply_multiplier(G, apply_multiplier(F, rough_field, trunc), trunc)
        u2 = apply_multiplier(FG, rough_field, trunc)
        assert np.max(np.abs(u1.values - u2.values)) < 1e-8 * np.max(np.abs(u2.values))

    def test_plancherel_sup_bound(self, grid, trunc, rough_field):
        out = apply_multiplier(MultiplierProfile.heat(0.3), rough_field, trunc)
        assert norm_lp(out, 2) <= np.exp(-0.3 * 0.0) * norm_lp(rough_field, 2) + 1e-12

    def test_unitarity_level_decomposition(self, grid, trunc):
        # sum over levels of the squared projection norms == squared norm,
        # for a field synthesized inside the represented span
        rng = np.random.default_rng(77)
        vals = np.zeros(grid.shape)
        for xi in (2.0, 4.0):
            k_top = int(np.floor((trunc.lambda_max / xi - 2) / 2))
            for k in range(k_top + 1):
                for nu in multiindex_enum(2, k):
                    c = rng.standard_normal()
                    vals += c * eigenfield(grid, nu, xi).values
        f = Field(grid, vals)
        total = 0.0
        for lam in (4.0, 8.0, 12.0, 16.0):
            # eigenvalue lattice on these slices: (2k+2)*xi
            band = indicator(lam - 1.0, lam + 1.0)
            total += norm_lp(apply_multiplier(band, f, trunc), 2) ** 2
        assert total == pytest.approx(norm_lp(f, 2) ** 2, rel=1e-8)

    def test_euclidean_heat_on_zero_slice(self, grid, trunc):
        # constant in x'': the operator degenerates to the Euclidean Laplacian,
        # and heat of a Gaussian is a Gaussian with fattened variance
        x1, x2 = np.meshgrid(grid.prime.axis, grid.prime.axis, indexing="ij")
        sig2, t = 1.0, 0.3
        prof = np.exp(-(x1 ** 2 + x2 ** 2) / (2 * sig2))
        f = Field(grid, np.repeat(prof[:, :, None], grid.n_second, axis=2))
        out = apply_multiplier(MultiplierProfile.heat(t), f, trunc)
        s2 = sig2 + 2 * t
        exact = (sig2 / s2) * np.exp(-(x1 ** 2 + x2 ** 2) / (2 * s2))
        assert np.max(np.abs(out.values[:, :, 0] - exact)) < 1e-10 * exact.max()

    def test_truncation_error_names_offender(self, grid):
        # lambda_max high enough that the smallest slice needs k > k_max
        tr = SpectralTruncation(k_max=3, lambda_max=26.0)
        f = Field(grid, np.zeros(grid.shape))
        f.values[32, 32, 3] = 1.0
        with pytest.raises(TruncationError) as err:
            apply_multiplier(MultiplierProfile.heat(0.1), f, tr)
        assert err.value.level > 3
        assert err.value.xi_mag == pytest.approx(2.0)
        assert err.value.k_max == 3

    def test_truncation_error_grid_cap(self):
        # wide profile on a narrow window: the grid cap trips first
        grid = GrushinGrid(PrimeGrid(5.0, 64, 2), np.pi / 2, 32, 1)
        tr = SpectralTruncation(k_max=40, lambda_max=60.0)
        with pytest.raises(TruncationError) as err:
            apply_multiplier(MultiplierProfile.heat(0.05), Field(grid, np.zeros(grid.shape)), tr)
        assert err.value.k_max < 40

    def test_levels_above_lambda_max_are_cut(self, grid):
        # an unbounded profile under the policy ceiling acts like the same
        # profile hard-cut at the ceiling: no level above lambda_max leaks in.
        # The xi = 0 slab keeps each profile's own support, so it is compared
        # without: taking out the torus mean removes exactly that slab
        tr = SpectralTruncation(k_max=12, lambda_max=40.0)
        wave = wave_cosine(1.0)
        cut = MultiplierProfile(lambda lam: np.cos(np.sqrt(lam)) * (lam <= 40.0),
                                (0.0, 40.0))

        def without_slab(profile):
            col = schwartz_kernel_column(profile, grid, (0.0, 0.0), (0.0,), tr)
            return col.values - col.values.mean(axis=2, keepdims=True)

        got, want = without_slab(wave), without_slab(cut)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_empty_support_slices_are_zeroed(self, grid, trunc, rough_field):
        # profile supported above every active eigenvalue: output is zero
        # on oscillator slices; xi=0 DFT band above the content does the rest
        band = indicator(1000.0, 2000.0)
        out = apply_multiplier(band, rough_field, trunc)
        assert np.max(np.abs(out.values)) < 1e-10 * np.max(np.abs(rough_field.values))


class TestStockOperators:
    def test_bochner_riesz_delta_zero_is_projection(self, grid, trunc, meanfree_field):
        sharp = MultiplierProfile.bochner_riesz(1.0 / 16.0, 0.0)
        once = apply_multiplier(sharp, meanfree_field, trunc)
        twice = apply_multiplier(sharp, once, trunc)
        assert (np.max(np.abs(twice.values - once.values))
                < 1e-8 * np.max(np.abs(once.values)))

    def test_bochner_riesz_damps_monotonically(self, grid, trunc, meanfree_field):
        n1, n2, n3 = (norm_lp(apply_multiplier(MultiplierProfile.bochner_riesz(
                                  1.0 / 16.0, delta), meanfree_field, trunc), 2)
                      for delta in (0.5, 1.5, 3.0))
        assert n1 >= n2 >= n3

    def test_wave_zero_time_is_bandlimit_projection(self, grid, trunc):
        nu, xi0 = (0, 1), 2.0
        f = eigenfield(grid, nu, xi0)
        out = apply_multiplier(wave_cosine(0.0), f, trunc)
        assert np.max(np.abs(out.values - f.values)) < 1e-8 * np.max(np.abs(f.values))

    def test_wave_l2_contraction(self, grid, trunc, rough_field):
        out = apply_multiplier(wave_cosine(0.7), rough_field, trunc)
        assert norm_lp(out, 2) <= norm_lp(rough_field, 2) * (1 + 1e-12)

    def test_wave_finite_speed(self):
        # shell transport: propagating the band-mollified delta for time s
        # may move mass outward by at most ~s in the metric.  (The absolute
        # "99% inside radius 1.1 s" form is unusable at desk-scale bands: the
        # band-projected delta itself has algebraically fat shoulders.)
        from grushin.geometry import grushin_distance_field

        grid = GrushinGrid(PrimeGrid(6.0, 96, 2), 1.5, 64, 1)
        tr = SpectralTruncation(k_max=10, lambda_max=40.0)
        y_prime, y_second = (1.0, 0.0), (0.0,)  # node: spacing is 1/8
        s, lam_c = 1.0, 80.0

        def band(lam):
            u = np.abs(lam) / lam_c
            # smooth descent from 1 below lam_c/4 to 0 at lam_c/2
            w = np.clip((u - 0.25) / 0.25, 0.0, 1.0)
            ramp = np.where((w > 0) & (w < 1),
                            _smooth01(np.clip(w, 1e-12, 1 - 1e-12)), np.where(w <= 0, 0.0, 1.0))
            return 1.0 - ramp

        def normalized_mass(sv):
            prof = MultiplierProfile(
                lambda lam: np.cos(sv * np.sqrt(lam)) * band(lam),
                (0.0, lam_c / 2), "mollified wave")
            col = apply_multiplier(prof, delta_field(grid, y_prime, y_second), tr)
            m = np.abs(col.values) ** 2
            return m / m.sum()

        rho = grushin_distance_field(grid, y_prime, y_second, wrap=True)
        m0, m1 = normalized_mass(0.0), normalized_mass(s)
        for radius in [0.3, 0.5, 1.1, 2.0]:
            before = float(m0[rho > radius].sum())
            after = float(m1[rho > radius + 1.05 * s].sum())
            assert after <= before + 0.01
        # and the front really leaves the core
        assert float(m1[rho <= 0.3].sum()) < 0.5 * float(m0[rho <= 0.3].sum())


def _smooth01(u):
    a = np.exp(-1.0 / u)
    b = np.exp(-1.0 / (1.0 - u))
    return a / (a + b)


@pytest.fixture(scope="module")
def col_setup():
    grid = GrushinGrid(PrimeGrid(8.0, 192, 2), 1.0, 128, 1)
    tr = SpectralTruncation(k_max=48, lambda_max=280.0)
    return grid, tr


class TestKernelColumns:

    def test_heat_column_mass(self, col_setup):
        grid, tr = col_setup
        col = schwartz_kernel_column(MultiplierProfile.heat(0.05), grid,
                                     (1.0, 0.0), (0.0,), tr)
        mass = np.sum(col.values) * grid.cell_volume
        assert abs(mass - 1.0) < 0.02

    def test_heat_column_positivity(self, col_setup):
        # floor is the spectral-truncation ringing e^{-t lambda_max} ~ 8e-7
        grid, tr = col_setup
        col = schwartz_kernel_column(MultiplierProfile.heat(0.05), grid,
                                     (1.0, 0.0), (0.0,), tr)
        assert col.values.min() > -3e-6 * col.values.max()

    def test_column_symmetry(self, col_setup):
        grid, tr = col_setup
        prof = MultiplierProfile.heat(0.05)
        ya = ((1.0, 0.0), (0.0,))
        yb = ((0.5, -0.25), (grid.second_spacing * 7,))
        ca = schwartz_kernel_column(prof, grid, *ya, tr)
        cb = schwartz_kernel_column(prof, grid, *yb, tr)
        scale = np.max(np.abs(ca.values))
        assert (abs(ca.values[grid.locate(*yb)] - cb.values[grid.locate(*ya)])
                < 1e-9 * scale)

    def test_column_reproduces_band_limited_functions(self, grid, trunc):
        # <phi, K_1(., y)> = phi(y) for phi in the represented span: the
        # identity-profile column acts as the reproducing kernel
        y = ((0.0, 0.0), (grid.second_spacing * 3,))
        col = apply_multiplier(indicator(0.0, trunc.lambda_max),
                               delta_field(grid, *y), trunc)
        for nu, xi in (((0, 0), 2.0), ((1, 2), 2.0), ((1, 0), 4.0)):
            phi = eigenfield(grid, nu, xi)
            got = inner(phi, col)
            want = phi.values[grid.locate(*y)]
            assert abs(got - want) < 1e-8 * np.max(np.abs(phi.values))

    def test_off_grid_point_rejected(self, grid, trunc):
        with pytest.raises(ContractViolation):
            schwartz_kernel_column(MultiplierProfile.heat(0.1), grid,
                                   (0.1234, 0.0), (0.0,), trunc)


def support_grid():
    """The default kernel_support grid and truncation."""
    return (GrushinGrid(PrimeGrid(22.0, 256, 2), 6.0, 128, 1),
            SpectralTruncation(k_max=64, lambda_max=64.0))


def rel_l2(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestHalfLatticeMatchesFullLattice:
    """The column path and the half-lattice engine against the full-lattice
    complex FFT path."""

    def test_default_kernel_support_column(self):
        grid, tr = support_grid()
        cutoffs = CutoffSpec.standard()
        piece = dyadic_pieces(cutoffs.eta, cutoffs, n_levels=2)[0]
        # as kernel_support_check builds it at level 0, t = 1
        profile = MultiplierProfile(
            lambda lam: piece(np.sqrt(np.maximum(lam, 0.0))), (0.0, np.inf))
        assert_column_matches(profile, grid, (0.0, 0.0), (0.0,), tr,
                              full_lattice=True)

    def test_benchmark_heat_column_off_axis(self, col_setup):
        grid, tr = col_setup
        ax = grid.prime.axis
        assert_column_matches(MultiplierProfile.heat(0.1), grid,
                              (ax[110], ax[83]), (grid.second_axis[37],), tr,
                              full_lattice=True)


    def test_bins_where_the_profile_vanishes_on_every_kept_level(self):
        grid, tr = support_grid()
        # 1 on [0, 8] and [40, 64]: bins with 32 < 2|xi| <= 40 keep level 0
        # alone (level 1 is past lambda_max), and its weight is 0
        gapped = MultiplierProfile(
            lambda lam: ((lam <= 8.0) | (lam >= 40.0) & (lam <= 64.0))
            .astype(float),
            (0.0, 64.0), "gapped band")
        silent = [not weights.any()
                  for _, _, weights in engine._kept_bins(gapped, grid, tr)]
        assert 0 < sum(silent) < len(silent)
        ax = grid.prime.axis
        assert_column_matches(gapped, grid, (ax[140], ax[97]), (0.0,), tr)


def assert_column_matches(profile, grid, y_prime, y_second, tr,
                          full_lattice=False):
    """The column path against apply_multiplier on the delta.

    Within 1e-12 in relative L^2, and within 1e-14 of the peak at every
    node, so an error confined to a few rows cannot hide in the average.
    Each side is real; with full_lattice, both also match full_lattice_apply.
    """
    delta = delta_field(grid, y_prime, y_second)
    col = schwartz_kernel_column(profile, grid, y_prime, y_second, tr).values
    via_fft = apply_multiplier(profile, delta, tr).values
    assert col.dtype == via_fft.dtype == np.float64
    assert rel_l2(col, via_fft) <= 1e-12
    assert np.max(np.abs(col - via_fft)) <= 1e-14 * np.max(np.abs(via_fft))
    if full_lattice:
        full = full_lattice_apply(profile, delta, tr)
        assert rel_l2(col, full) <= 1e-12
        assert rel_l2(via_fft, full) <= 1e-12


def nyquist_grid():
    """d1 = 2, 16 torus points: the Nyquist bin m = 8 (|xi| = 16) keeps level 0."""
    return (GrushinGrid(PrimeGrid(7.0, 64, 2), np.pi / 2, 16, 1),
            SpectralTruncation(k_max=12, lambda_max=40.0))


COLUMN_CASES = {
    # unbounded profile: every bin up to lambda_max / d1 is active
    "wave-off-axis": lambda: (wave_cosine(1.0), *support_grid(),
                              (140, 97), 5),
    "d1=1": lambda: (MultiplierProfile.heat(0.1),
                     GrushinGrid(PrimeGrid(8.0, 64, 1), np.pi / 2, 32, 1),
                     SpectralTruncation(k_max=30, lambda_max=40.0), (37,), 5),
    "d1=3": lambda: (MultiplierProfile.heat(0.05),
                     GrushinGrid(PrimeGrid(7.0, 32, 3), np.pi / 2, 16, 1),
                     SpectralTruncation(k_max=12, lambda_max=30.0),
                     (19, 14, 11), 3),
    "nyquist-active": lambda: (wave_cosine(0.5), *nyquist_grid(),
                               (40, 27), 11),
}


@pytest.mark.parametrize("case", COLUMN_CASES.values(), ids=COLUMN_CASES.keys())
def test_column_matches_apply_multiplier(case):
    profile, grid, tr, foot, k0 = case()
    y_prime = tuple(grid.prime.axis[i] for i in foot)
    assert_column_matches(profile, grid, y_prime, (grid.second_axis[k0],), tr)


def test_nyquist_case_keeps_the_nyquist_bin():
    grid, tr = nyquist_grid()
    kept = engine._kept_bins(wave_cosine(0.5), grid, tr)
    # the slabs run to bin 10 (lowest eigenvalue 2 |xi| <= 40); the list
    # stops at n/2 = 8
    assert kept[-1][0] == grid.n_second // 2


@pytest.mark.parametrize("grid, tr, want", [
    # lambda_max high enough that the smallest slice needs k = 5 > k_max
    (GrushinGrid(PrimeGrid(7.0, 64, 2), np.pi / 2, 128, 1),
     SpectralTruncation(k_max=3, lambda_max=26.0), (5, 2.0, 3)),
    # wide profile on a narrow window: the grid cap, 3 at |xi| = 2, trips
    # before k_max
    (GrushinGrid(PrimeGrid(5.0, 64, 2), np.pi / 2, 32, 1),
     SpectralTruncation(k_max=40, lambda_max=60.0), (14, 2.0, 3)),
], ids=["k-max", "grid-cap"])
def test_column_truncation_error_matches_apply_multiplier(grid, tr, want):
    # both paths raise the one refusal of _kept_bins: (level, |xi|, cap)
    foot = (grid.prime.axis[32], grid.prime.axis[32]), (grid.second_axis[3],)
    heat = MultiplierProfile.heat(0.05)
    with pytest.raises(TruncationError) as via_fft:
        apply_multiplier(heat, delta_field(grid, *foot), tr)
    with pytest.raises(TruncationError) as column:
        schwartz_kernel_column(heat, grid, *foot, tr)
    for err in (via_fft.value, column.value):
        assert (err.level, err.xi_mag, err.k_max) == want


def support_piece_case():
    """The level-1 kernel_support profile at t = 1 on its grid."""
    cutoffs = CutoffSpec.standard()
    piece = dyadic_pieces(cutoffs.eta, cutoffs, n_levels=2)[1]
    return (MultiplierProfile(lambda lam: piece(np.sqrt(np.maximum(lam, 0.0))),
                              (0.0, np.inf)), *support_grid())


KEPT_BIN_CASES = {
    # the benchmark's grids with profiles it applies there
    "support": support_piece_case,
    "heat": lambda: (MultiplierProfile.heat(0.1),
                     GrushinGrid(PrimeGrid(8.0, 192, 2), 1.0, 128, 1),
                     SpectralTruncation(k_max=48, lambda_max=280.0)),
    # slabs 9 and 10 lie past the Nyquist bin 8
    "nyquist": lambda: (wave_cosine(0.5), *nyquist_grid()),
}


@pytest.mark.parametrize("case", KEPT_BIN_CASES.values(),
                         ids=KEPT_BIN_CASES.keys())
def test_kept_bins_are_the_non_empty_slabs_up_to_nyquist(case):
    profile, grid, tr = case()
    xis, k_lo, k_hi = torus_slabs(profile, eigenvalue_cap(profile, tr.lambda_max),
                                  grid.xi_spacing, grid.d1, tr.k_max)
    want = [(m, xi, range(lo, hi + 1)) for m, xi, lo, hi
            in zip(range(1, xis.size + 1), xis.tolist(), k_lo.tolist(),
                   k_hi.tolist())
            if lo <= hi and m <= grid.n_second // 2]
    got = engine._kept_bins(profile, grid, tr)
    assert [(m, xi) for m, xi, _ in got] == [(m, xi) for m, xi, _ in want]
    for (_, xi, weights), (_, _, levels) in zip(got, want):
        np.testing.assert_allclose(
            weights, level_weights(profile, xi, grid.d1, levels), rtol=1e-15,
            atol=0.0)


class TestSharedWindow:
    # _kept_bins takes its levels and its k_max check from
    # oscillator.torus_slabs; only the Nyquist cut and the grid cap are its
    # own

    def test_cap_on_an_eigenvalue_keeps_its_level(self):
        grid = GrushinGrid(PrimeGrid(12.0, 128, 2), 1.3, 8, 1)
        xi = 3 * grid.xi_spacing
        for k in range(6):
            tr = SpectralTruncation(k_max=40, lambda_max=(2 * k + 2) * xi)
            kept = {m: weights for m, _, weights
                    in engine._kept_bins(indicator(0.0, 1e6), grid, tr)}
            assert kept[3].shape == (k + 1, k + 1)
            assert kept[3][k, 0] == 1.0 and kept[3].sum() == (k + 1) * (k + 2) / 2

    def test_support_floor_between_eigenvalues_gives_an_empty_range(self):
        # |xi| = 2, 4, 6, 8: the eigenvalues 8 and 16 at |xi| = 4 miss
        # [9, 13], so bin 2 is left out
        grid = GrushinGrid(PrimeGrid(7.0, 64, 2), np.pi / 2, 8, 1)
        kept = engine._kept_bins(indicator(9.0, 13.0), grid,
                                 SpectralTruncation(k_max=40, lambda_max=13.0))
        assert [m for m, _, _ in kept] == [1, 3]

    @pytest.mark.parametrize("path", ["apply_multiplier",
                                      "schwartz_kernel_column"])
    def test_k_max_error_names_the_first_non_empty_slab(self, path):
        # d1 = 1 and xi_m = m: eigenvalues (2k + 1) m; bin 1 has none in
        # [5.5, 6.5], bin 2 has 6 at k = 1, past k_max = 0
        grid = GrushinGrid(PrimeGrid(8.0, 64, 1), np.pi, 16, 1)
        tr = SpectralTruncation(k_max=0, lambda_max=100.0)
        foot = (grid.prime.axis[32],), (grid.second_axis[3],)
        band = indicator(5.5, 6.5)
        with pytest.raises(TruncationError) as err:
            if path == "apply_multiplier":
                apply_multiplier(band, delta_field(grid, *foot), tr)
            else:
                schwartz_kernel_column(band, grid, *foot, tr)
        assert (err.value.level, err.value.xi_mag, err.value.k_max) == (1, 2.0, 0)


class TestWorkAndMemory:
    def test_input_field_is_left_unchanged(self, grid, trunc, rough_field):
        before = rough_field.values.copy()
        apply_multiplier(MultiplierProfile.heat(0.2), rough_field, trunc)
        assert np.array_equal(rough_field.values, before)

    @pytest.mark.parametrize("value, transforms", [(1.0, 1), (0.0, 1)])
    def test_complex_field_transforms_each_nonzero_part(
            self, grid, trunc, monkeypatch, value, transforms):
        # fields are real: one transform and a real result; an all-zero field
        # still runs it, so that the truncation checks apply
        forward, transformed = engine.partial_fourier, []
        monkeypatch.setattr(engine, "partial_fourier",
                            lambda f: transformed.append(f) or forward(f))
        f = Field(grid, np.zeros(grid.shape))
        f.values[32, 32, 3] = value
        out = apply_multiplier(MultiplierProfile.heat(0.2), f, trunc)
        assert len(transformed) == transforms
        assert out.values.dtype == np.float64

    def test_xi_zero_evaluates_each_distinct_lambda_once(self):
        prime = support_grid()[0].prime
        n, pad = prime.n_points, 2 * prime.n_points
        sizes = []

        def evaluate(lam):
            sizes.append(lam.size)
            return np.cos(np.sqrt(lam))

        profile = MultiplierProfile(evaluate, (0.0, np.inf))
        rng = np.random.default_rng(5)
        slab = rng.standard_normal((n, n, 1))
        got = engine._apply_xi_zero(profile, slab, prime)
        # reference: the symbol evaluated at every point of the padded grid
        zeta2 = (2.0 * np.pi * np.fft.fftfreq(pad, d=prime.spacing)) ** 2
        lam = zeta2[:, None] + zeta2[None, :]
        assert sizes == [np.unique(lam).size]
        assert sizes[0] < lam.size / 8
        padded = np.zeros((pad, pad, 1))
        padded[:n, :n] = slab
        spec = np.fft.fftn(padded, axes=(0, 1)) * np.cos(np.sqrt(lam))[:, :, None]
        want = np.fft.ifftn(spec, axes=(0, 1))[:n, :n]
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_xi_zero_real_slab_takes_one_real_pair(self, monkeypatch):
        # the zero slice of a real field's transform is real: one rfftn /
        # irfftn pair, a real result, and the symbol grid built once per x'
        # grid
        prime = support_grid()[0].prime
        n, pad = prime.n_points, 2 * prime.n_points
        slab = np.random.default_rng(6).standard_normal((n, n, 1))
        profile = MultiplierProfile.heat(0.3)
        zeta2 = (2.0 * np.pi * np.fft.fftfreq(pad, d=prime.spacing)) ** 2
        symbol = profile(zeta2[:, None] + zeta2[None, :])[:, :, None]
        padded = np.zeros((pad, pad, 1))
        padded[:n, :n] = slab
        want = np.fft.ifftn(np.fft.fftn(padded, axes=(0, 1)) * symbol,
                            axes=(0, 1))[:n, :n].real
        forward, calls = np.fft.rfftn, []
        monkeypatch.setattr(np.fft, "rfftn",
                            lambda *a, **kw: calls.append(1) or forward(*a, **kw))
        got = engine._apply_xi_zero(profile, slab, prime)
        assert calls == [1]
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert engine._xi_zero_symbol(prime) is engine._xi_zero_symbol(prime)

    def test_real_column_holds_no_complex_grid_array(self):
        # the column is the only grid-sized array: no delta, no half
        # spectrum, and every other buffer at most 2 MiB
        grid, tr = support_grid()
        profile = wave_cosine(1.0)
        real_array_bytes = 8 * np.prod(grid.shape)
        tracemalloc.start()
        try:
            schwartz_kernel_column(profile, grid, (0.0, 0.0), (0.0,), tr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * real_array_bytes

    def test_column_takes_no_torus_transform(self, grid, trunc, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("torus transform called")

        monkeypatch.setattr(engine, "rfft", refuse)
        monkeypatch.setattr(engine, "irfft", refuse)
        col = schwartz_kernel_column(MultiplierProfile.heat(0.2), grid,
                                     (0.0, 0.0), (0.0,), trunc)
        assert col.values.dtype == np.float64

    def test_bins_without_a_kept_level_are_zeroed(self, grid, rough_field,
                                                  monkeypatch):
        # |xi| = 2m: [9, 13] holds the eigenvalue 12 of bins 1 and 3 only;
        # every other nonzero bin of the half spectrum goes back as zeros
        inverse, spectra = engine.inverse_partial_fourier, []
        monkeypatch.setattr(engine, "inverse_partial_fourier",
                            lambda g, fhat: spectra.append(fhat.copy())
                            or inverse(g, fhat))
        apply_multiplier(indicator(9.0, 13.0), rough_field,
                         SpectralTruncation(k_max=12, lambda_max=13.0))
        fhat, = spectra
        live = np.flatnonzero(np.abs(fhat).max(axis=(0, 1)))
        assert live.tolist() == [0, 1, 3]
