"""Tests for the scaled-oscillator spectral calculus on a single slice."""

import math

import numpy as np
import pytest

from oracles import (
    bump,
    indicator,
    phi_xi_eval,
    restriction_norm_level,
    wave_cosine,
    weighted_oscillator_check,
)

from grushin.engine import apply_slice_multiplier
from grushin.errors import DomainError, TruncationError
from grushin.fields import MultiplierProfile
from grushin.hermite import PrimeGrid, hermite_table
from grushin.lab.columns import l1_multiplier_norm, planar_radial_kernel
from grushin.lab.radial import weighted_column_norms, weighted_operator_norm
from grushin.oscillator import (
    active_level_range,
    eigenvalue_cap,
    oscillator_synthesis,
    oscillator_transform,
    torus_slabs,
)


class TestEigenfunctions:
    @pytest.mark.parametrize("xi", [0.5, 2.0, 8.0])
    def test_normalization_1d(self, xi):
        grid = PrimeGrid(15.0, 2048, 1)
        for nu in [(0,), (1,), (3,)]:
            phi = phi_xi_eval(nu, xi, grid.axis[:, None])
            assert np.sum(phi ** 2) * grid.cell == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("xi", [0.5, 2.0])
    def test_normalization_2d(self, xi):
        grid = PrimeGrid(10.0, 256, 2)
        x1, x2 = np.meshgrid(grid.axis, grid.axis, indexing="ij")
        phi = phi_xi_eval((1, 2), xi, np.stack([x1, x2], axis=-1))
        assert np.sum(phi ** 2) * grid.cell == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self):
        grid = PrimeGrid(12.0, 1024, 1)
        a = phi_xi_eval((2,), 1.5, grid.axis[:, None])
        b = phi_xi_eval((5,), 1.5, grid.axis[:, None])
        assert abs(np.sum(a * b) * grid.cell) < 1e-12

    def test_scaling_covariance(self):
        # Phi_nu^{s^2 xi}(x) = s^{d1/2} Phi_nu^xi(s x), exactly
        rng = np.random.default_rng(12)
        x = rng.uniform(-2.0, 2.0, size=(50, 2))
        s, xi = 1.7, 0.8
        left = phi_xi_eval((1, 3), s * s * xi, x)
        right = s ** (2 / 2.0) * phi_xi_eval((1, 3), xi, s * x)
        assert np.max(np.abs(left - right)) < 1e-7 * np.max(np.abs(right))

    def test_eigen_residual_against_fourier_laplacian(self):
        # independent oracle: differentiate by FFT (no Hermite recurrences)
        # and check (-Lap + xi^2 |x|^2) Phi = (2|nu| + d1) xi Phi
        grid = PrimeGrid(7.0, 256, 2)
        xi, nu = 2.0, (1, 2)
        x1, x2 = np.meshgrid(grid.axis, grid.axis, indexing="ij")
        phi = phi_xi_eval(nu, xi, np.stack([x1, x2], axis=-1))
        kappa = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
        phi_hat = np.fft.fft2(phi)
        lap = np.fft.ifft2(-(kappa[:, None] ** 2 + kappa[None, :] ** 2) * phi_hat).real
        lhs = -lap + xi ** 2 * (x1 ** 2 + x2 ** 2) * phi
        lam = (2 * (nu[0] + nu[1]) + 2) * xi
        resid = np.linalg.norm(lhs - lam * phi) / np.linalg.norm(lam * phi)
        assert resid < 1e-5


class TestActiveLevelRange:
    def test_interior_band(self):
        prof = indicator(3.0, 10.0)
        assert active_level_range(prof, 1.0, 1, 100.0) == (1, 4)

    def test_edge_eigenvalue_included(self):
        prof = indicator(3.0, 9.0)
        # eigenvalue (2*4+1)*1 = 9 sits exactly on the support edge
        assert active_level_range(prof, 1.0, 1, 100.0)[1] == 4

    def test_lambda_cap_shrinks_range(self):
        prof = indicator(3.0, 10.0)
        assert active_level_range(prof, 1.0, 1, 7.0) == (1, 3)

    def test_empty_when_support_above_cap(self):
        prof = indicator(1000.0, 2000.0)
        k_lo, k_hi = active_level_range(prof, 1.0, 1, 100.0)
        assert k_hi < k_lo


class TestEigenvalueCap:
    def test_none_and_inf_leave_the_support_edge(self):
        prof = indicator(3.0, 10.0)
        assert eigenvalue_cap(prof, None) == eigenvalue_cap(prof, np.inf) == 10.0
        assert eigenvalue_cap(prof, 7.0) == 7.0
        assert eigenvalue_cap(prof, 12) == 10.0

    @pytest.mark.parametrize("lambda_max", [np.nan, "16", True, 0.0, -1.0,
                                            np.array([16.0, 2.0])],
                             ids=["nan", "string", "bool", "zero", "negative",
                                  "array"])
    def test_refuses_a_bad_cap(self, lambda_max):
        with pytest.raises(DomainError):
            eigenvalue_cap(indicator(3.0, 10.0), lambda_max)

    @pytest.mark.parametrize("lambda_max", [None, np.inf, 10 ** 400])
    def test_refuses_no_cap_on_an_unbounded_support(self, lambda_max):
        with pytest.raises(DomainError, match="finite positive eigenvalue cap"):
            eigenvalue_cap(wave_cosine(1.0), lambda_max)


S_HALF = np.pi / 2.0  # torus slabs at xi_j = 2 j
LAMBDA_MAX_CALLERS = {
    "weighted_column_norms": lambda p, cap: weighted_column_norms(
        p, [0.0, 0.5], 0.25, S_HALF, 40, cap),
    "weighted_operator_norm": lambda p, cap: weighted_operator_norm(
        p, 0.25, S_HALF, 40, cap),
    "planar_radial_kernel": lambda p, cap: planar_radial_kernel(
        p, np.linspace(0.0, 3.0, 7), cap),
    "l1_multiplier_norm": lambda p, cap: l1_multiplier_norm(
        p, S_HALF, lambda_max=cap),
}


@pytest.mark.parametrize("call", LAMBDA_MAX_CALLERS.values(),
                         ids=LAMBDA_MAX_CALLERS.keys())
def test_every_path_reads_lambda_max_alike(call):
    # the one window: None is no cap, as inf is; NaN or a non-number is
    # refused up front, never a bare TypeError or a silent no-cap
    prof = bump(0.0, 16.0)
    assert np.array_equal(call(prof, None), call(prof, np.inf))
    for bad in (np.nan, "16"):
        with pytest.raises(DomainError, match="^lambda_max "):
            call(prof, bad)


def as_tuples(slabs):
    """The (xi_j, k_lo, k_hi) of each slab, from torus_slabs' three arrays."""
    return list(zip(*(a.tolist() for a in slabs)))


class TestTorusSlabs:
    @pytest.mark.parametrize("d1", [1, 2])
    @pytest.mark.parametrize("half_period", [1.0, 1.3, np.pi / 2.0])
    def test_cap_on_an_eigenvalue_keeps_its_level(self, d1, half_period):
        dxi = np.pi / half_period
        for j in range(1, 7):
            for k in range(13):
                top = (2 * k + d1) * (j * dxi)
                slabs = as_tuples(torus_slabs(indicator(0.0, 1e6), top, dxi,
                                              d1))
                assert slabs[j - 1] == (j * dxi, 0, k), (j, k)

    @pytest.mark.parametrize("d1", [1, 2])
    @pytest.mark.parametrize("half_period", [1.0, 1.3, np.pi / 2.0])
    def test_cap_on_the_lowest_eigenvalue_of_a_slab_ends_the_list(
            self, d1, half_period):
        dxi = np.pi / half_period
        for j in range(1, 41):
            slabs = as_tuples(torus_slabs(indicator(0.0, 1e6), d1 * j * dxi,
                                         dxi, d1))
            assert len(slabs) == j
            assert slabs[-1] == (j * dxi, 0, 0)

    def test_support_floor_between_eigenvalues_gives_an_empty_range(self):
        # eigenvalues 4j(k + 1) at xi_j = 2j: slab 2 has 8 and 16, both
        # outside [9, 13]
        slabs = as_tuples(torus_slabs(bump(9.0, 13.0), 13.0, 2.0, 2))
        assert slabs == [(2.0, 2, 2), (4.0, 1, 0), (6.0, 0, 0)]

    @staticmethod
    def scalar_rule(profile, top, dxi, d1, k_max):
        """The slabs one at a time, by the level rule in scalar form."""
        a, slabs = profile.support[0], []
        for j in range(1, math.floor(top / (d1 * dxi) + 1e-12) + 1):
            xi = j * dxi
            if top < a:
                k_lo, k_hi = 0, -1
            else:
                k_lo = max(0, math.ceil((a / xi - d1) / 2.0 - 1e-12))
                k_hi = math.floor((top / xi - d1) / 2.0 + 1e-12)
            if k_max is not None and k_lo <= k_hi and k_hi > k_max:
                raise TruncationError(k_hi, xi, k_max)
            slabs.append((xi, k_lo, k_hi))
        return slabs

    @pytest.mark.parametrize("k_max", [None, 0, 3, 40])
    @pytest.mark.parametrize("d1", [1, 2])
    @pytest.mark.parametrize("dxi", [1.0, 2.0, np.pi / 1.3])
    @pytest.mark.parametrize("lo,top", [
        (0.0, 30.0),           # from the bottom of the spectrum
        (0.0, 12.0),           # top on eigenvalues (2k + d1) j of d1 = 1, 2
        (6.0, 30.0),           # lower edge on eigenvalues too
        (5.5, 29.0),           # lower edge above 0, between eigenvalues
        (9.0, 13.0),           # slabs with no level in the band
        (20.0, 12.0),          # top below the lower edge: all empty
    ])
    def test_equals_the_scalar_rule(self, lo, top, dxi, d1, k_max):
        prof = indicator(lo, max(lo + 10.0, top))
        try:
            want = self.scalar_rule(prof, top, dxi, d1, k_max)
        except TruncationError as err:
            with pytest.raises(TruncationError) as got:
                torus_slabs(prof, top, dxi, d1, k_max)
            assert ((got.value.level, got.value.xi_mag, got.value.k_max)
                    == (err.level, err.xi_mag, err.k_max))
            return
        slabs = torus_slabs(prof, top, dxi, d1, k_max)
        assert [a.dtype.kind for a in slabs] == ["f", "i", "i"]
        assert as_tuples(slabs) == want
        # each slab as active_level_range reads it alone
        for xi, k_lo, k_hi in want:
            if k_max is None or k_lo > k_hi or k_hi <= k_max:
                assert active_level_range(prof, xi, d1, top) == (k_lo, k_hi)

    def test_k_max_names_the_first_non_empty_slab_past_it(self):
        # d1 = 1, xi_j = j: eigenvalues (2k + 1) j; slab 1 has none in
        # [5.5, 6.5], slab 2 has 6 at k = 1
        prof = indicator(5.5, 6.5)
        assert as_tuples(torus_slabs(prof, 6.5, 1.0, 1, k_max=1))[:2] == [
            (1.0, 3, 2), (2.0, 1, 1)]
        with pytest.raises(TruncationError) as err:
            torus_slabs(prof, 6.5, 1.0, 1, k_max=0)
        assert (err.value.level, err.value.xi_mag, err.value.k_max) == (1, 2.0, 0)


@pytest.fixture(scope="module")
def grid2d():
    return PrimeGrid(10.0, 128, 2)


def random_span_field(grid, xi, k_hi, seed):
    """Random element of span{Phi_nu^xi : all components <= k_hi}."""
    rng = np.random.default_rng(seed)
    shape = (k_hi + 1,) * grid.d1
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return oscillator_synthesis(coef, grid, xi), coef


class TestTransform:
    def test_round_trip_on_span(self, grid2d):
        f, coef = random_span_field(grid2d, 1.5, 6, seed=3)
        back = oscillator_transform(f, grid2d, 1.5, 6)
        assert np.max(np.abs(back - coef)) < 1e-10 * np.max(np.abs(coef))

    def test_parseval_on_span(self, grid2d):
        f, coef = random_span_field(grid2d, 2.0, 5, seed=4)
        nf2 = np.sum(np.abs(f) ** 2) * grid2d.cell
        assert nf2 == pytest.approx(float(np.sum(np.abs(coef) ** 2)), rel=1e-10)

    def test_linearity(self, grid2d):
        f, _ = random_span_field(grid2d, 1.0, 4, seed=5)
        g, _ = random_span_field(grid2d, 1.0, 4, seed=6)
        lhs = oscillator_transform(2.0 * f - 1j * g, grid2d, 1.0, 4)
        rhs = (2.0 * oscillator_transform(f, grid2d, 1.0, 4)
               - 1j * oscillator_transform(g, grid2d, 1.0, 4))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_batched_matches_loop(self, grid2d):
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((grid2d.n_points, grid2d.n_points, 3))
        all_at_once = oscillator_transform(batch, grid2d, 1.2, 4)
        for j in range(3):
            one = oscillator_transform(batch[..., j], grid2d, 1.2, 4)
            assert np.max(np.abs(all_at_once[..., j] - one)) \
                < 1e-13 * np.max(np.abs(one))


class TestApplyMultiplier:
    """The per-slice kernel the engine runs on every nonzero |xi| group."""

    def test_identity_on_span(self, grid2d):
        xi, k_hi = 1.5, 6
        f, _ = random_span_field(grid2d, xi, k_hi, seed=8)
        top = (2 * (2 * k_hi) + 2) * xi + 1.0
        ident = indicator(0.0, top)
        out = apply_slice_multiplier(ident, f, grid2d, xi, 12, lambda_max=39.0)
        assert np.max(np.abs(out - f)) < 1e-8 * np.max(np.abs(f))

    def test_indicator_projects_single_level(self, grid2d):
        xi = 2.0
        # f = sum of level-1 and level-4 eigenfields
        x1, x2 = np.meshgrid(grid2d.axis, grid2d.axis, indexing="ij")
        pts = np.stack([x1, x2], axis=-1)
        f1 = phi_xi_eval((1, 0), xi, pts)
        f4 = phi_xi_eval((2, 2), xi, pts)
        f = 2.0 * f1 + 3.0 * f4
        lam1 = (2 * 1 + 2) * xi
        band = indicator(lam1 - xi, lam1 + xi)
        out = apply_slice_multiplier(band, f, grid2d, xi, 10, lambda_max=44.0)
        assert np.max(np.abs(out - 2.0 * f1)) < 1e-9 * np.max(np.abs(f1))

    def test_multiplicativity(self, grid2d):
        xi = 1.0
        f, _ = random_span_field(grid2d, xi, 6, seed=9)
        top = 30.0  # == eigenvalue at the slice cap, so every level is legal
        fp = MultiplierProfile(lambda lam: np.exp(-0.3 * lam), (0.0, 110.0))
        gp = MultiplierProfile(lambda lam: lam / (1.0 + lam) * (lam <= top),
                               (0.0, top))
        fg = MultiplierProfile(
            lambda lam: np.exp(-0.3 * lam) * lam / (1.0 + lam) * (lam <= top),
            (0.0, top))
        kw = dict(k_max=14, lambda_max=top)
        once = apply_slice_multiplier(fg, f, grid2d, xi, **kw)
        twice = apply_slice_multiplier(
            fp, apply_slice_multiplier(gp, f, grid2d, xi, **kw), grid2d, xi, **kw)
        assert np.max(np.abs(once - twice)) < 1e-9 * np.max(np.abs(once))

    def test_truncation_error_names_offender(self, grid2d):
        f = np.zeros((grid2d.n_points,) * 2)
        wide = indicator(0.0, 30.0)
        with pytest.raises(TruncationError) as err:
            apply_slice_multiplier(wide, f, grid2d, 1.0, 3, lambda_max=30.0)
        assert err.value.level == 14
        assert err.value.k_max == 3

    def test_grid_cap_guards_unresolvable_levels(self):
        tiny = PrimeGrid(5.0, 64, 1)
        wide = indicator(0.0, 400.0)
        with pytest.raises(TruncationError) as err:
            apply_slice_multiplier(wide, np.zeros(64), tiny, 1.0, 500, lambda_max=1001.0)
        assert err.value.k_max == tiny.reliable_level_cap(1.0)

    def test_empty_band_returns_zero(self, grid2d):
        f, _ = random_span_field(grid2d, 1.0, 3, seed=10)
        high = indicator(500.0, 600.0)
        out = apply_slice_multiplier(high, f, grid2d, 1.0, 10, lambda_max=22.0)
        assert np.count_nonzero(out) == 0


class TestRestrictionNorm:
    def test_ground_level_closed_form(self):
        # level sum at k=0 peaks at the origin with value pi^{-d1/2}
        for d1 in (1, 2, 3):
            for xi in (1.0, 3.0):
                want = (xi / np.pi) ** (d1 / 4.0)
                got = restriction_norm_level(0, xi, 1.0, d1)
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("d1", [1, 2, 3])
    def test_xi_doubling_is_exact_quarter_power(self, d1):
        a = restriction_norm_level(5, 1.0, 1.0, d1)
        b = restriction_norm_level(5, 2.0, 1.0, d1)
        assert b / a == pytest.approx(2.0 ** (d1 / 4.0), rel=1e-14)

    def test_level_growth_rate_3d(self):
        # log-log slope of the norm against the eigenvalue, d1 = 3
        ks = np.array([4, 8, 16, 32, 64])
        norms = np.array([restriction_norm_level(int(k), 1.0, 1.0, 3) for k in ks])
        lam = 2.0 * ks + 3.0
        slope = np.polyfit(np.log(lam), np.log(norms), 1)[0]
        assert abs(slope - 0.25) < 0.15

    def test_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            restriction_norm_level(1, 1.0, 2.5, 1)
        with pytest.raises(DomainError) as err:
            restriction_norm_level(1, 1.0, 1.5, 1)
        assert "p = 1" in str(err.value)


class TestWeightedInequalities:
    def setup_method(self):
        self.grid = PrimeGrid(15.0, 2048, 1)
        self.table = hermite_table(40, self.grid.axis)

    def random_field(self, rng):
        c = rng.standard_normal(41)
        return c @ self.table

    def ratio(self, f, gamma):
        num, den = weighted_oscillator_check(f, 1.0, 40, 1, gamma, self.grid)
        return num / den

    def test_hardy_type_ratio_at_most_one(self):
        # || |x| f ||_2 <= xi^{-1} || L_xi^{1/2} f ||_2 on the oscillator span
        rng = np.random.default_rng(2024)
        worst = max(self.ratio(self.random_field(rng), 1.0) for _ in range(200))
        assert worst <= 1.0 + 1e-12

    def test_second_power_ratio_at_most_sqrt5(self):
        rng = np.random.default_rng(2025)
        worst = max(self.ratio(self.random_field(rng), 2.0) for _ in range(200))
        assert worst <= np.sqrt(5.0) + 1e-12

    def test_gamma_zero_ratio_is_one(self):
        rng = np.random.default_rng(2026)
        assert self.ratio(self.random_field(rng), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_field_rejected(self):
        with pytest.raises(DomainError, match="nonzero field"):
            weighted_oscillator_check(np.zeros(2048), 1.0, 10, 1, 1.0, self.grid)

    def test_report_exposes_both_sides(self):
        rng = np.random.default_rng(2027)
        num, den = weighted_oscillator_check(self.random_field(rng), 1.0, 40, 1, 1.0,
                                             self.grid)
        assert num > 0 and den > 0
