"""Tests for the L^1 column evaluator and the pointwise heat kernel."""

import tracemalloc

import numpy as np
import pytest
from oracles import bump
from scipy.interpolate import CubicSpline

from grushin.engine import schwartz_kernel_column
from grushin.errors import DomainError, GrushinError
from grushin import fields
from grushin.fields import GrushinGrid, MultiplierProfile, SpectralTruncation
from grushin.hermite import PrimeGrid, hermite_table
from grushin.lab import columns
from grushin.lab.columns import (
    bochner_riesz_radial_kernel,
    heat_kernel_pointwise,
    l1_multiplier_norm,
    planar_radial_kernel,
)

S = np.pi / 2.0


def br_profile(radius, delta):
    return MultiplierProfile(
        lambda lam: np.maximum(0.0, 1.0 - np.asarray(lam) / (radius * radius))
        ** delta,
        (0.0, radius * radius))


class TestRadialKernels:
    def test_closed_form_matches_quadrature(self):
        # the compactly-supported mean has an explicit Bessel form; the
        # generic Hankel quadrature must reproduce it (the edge error scales
        # with the smoothness of (1 - v)^delta at v = 1 and with the width of
        # the panel next to it, the smallest of the graded last panel)
        r = np.linspace(0.0, 6.0, 301)
        for radius, delta, tol in ((5.0, 0.7, 1e-10), (5.0, 2.0, 1e-12)):
            prof = br_profile(radius, delta)
            closed = bochner_riesz_radial_kernel(radius, delta, r)
            quad = planar_radial_kernel(prof, r, radius * radius)
            assert np.max(np.abs(closed - quad)) < tol * np.max(np.abs(closed))

    def test_heat_quadrature_matches_gaussian(self):
        # the integrand starts with slope F(0) = 1 at rho = 0; the
        # Gauss-Legendre panels have no node there, so unlike a trapezoid
        # rule (a constant offset of h^2 / (24 pi)) or Simpson's (an error
        # growing like h^4 r^2) they leave no endpoint bias.  A default
        # t = 0.05 call evaluates the zero slab out to r = 22 at u = 0 and
        # 28 at u = extent / 2
        for t, r_far in ((0.1, 4.0), (0.05, 45.0)):
            prof = MultiplierProfile.heat(t)
            r = np.linspace(0.0, r_far, 901)
            want = np.exp(-r ** 2 / (4.0 * t)) / (4.0 * np.pi * t)
            got = planar_radial_kernel(prof, r, prof.support[1])
            assert np.max(np.abs(got - want)) <= 1e-12

    @staticmethod
    def _l1_radii(profile, **kwargs):
        # the radii at which a default L^1 call evaluates the zero slab
        seen = []

        def record(r):
            seen.append(r)
            return profile.planar(r)

        l1_multiplier_norm(profile, S, xi_zero_radial=record, **kwargs)
        (r,) = seen
        return r

    @pytest.mark.parametrize("t", [0.05, 0.1, 0.2])
    def test_heat_planar_kernel_matches_quadrature(self, t):
        prof = MultiplierProfile.heat(t)
        r = self._l1_radii(prof)
        got = prof.planar(r)
        quad = planar_radial_kernel(prof, r, prof.support[1])
        assert np.max(np.abs(got - quad)) <= 1e-12

    @pytest.mark.parametrize("radius, delta, tol", [(5.0, 0.7, 1e-10),
                                                    (5.0, 2.0, 1e-12)])
    def test_bochner_riesz_planar_kernel_matches_quadrature(self, radius,
                                                            delta, tol):
        # the tolerances of test_closed_form_matches_quadrature
        prof = MultiplierProfile.bochner_riesz(1.0 / radius ** 2, delta)
        r = self._l1_radii(prof, lambda_max=radius ** 2)
        got = prof.planar(r)
        assert np.array_equal(got, bochner_riesz_radial_kernel(radius, delta, r))
        quad = planar_radial_kernel(prof, r, radius ** 2)
        assert np.max(np.abs(got - quad)) < tol * np.max(np.abs(got))

    def test_closed_form_is_importable_from_the_lab(self):
        assert bochner_riesz_radial_kernel is fields.bochner_riesz_radial_kernel

    def test_panel_rule_is_gauss_legendre(self):
        # numpy's rule, moved from [-1, 1] to [0, 1]
        x, w = np.polynomial.legendre.leggauss(32)
        assert np.allclose(columns._PANEL_NODES, 0.5 * (x + 1.0),
                           rtol=0.0, atol=1e-15)
        assert np.allclose(columns._PANEL_WEIGHTS, 0.5 * w, rtol=0.0,
                           atol=1e-15)

    def test_origin_value_is_total_symbol_mass(self):
        # K(0) = (1/2 pi) int_0^inf F(s^2) s ds in the planar normalization
        radius, delta = 3.0, 1.5
        val = bochner_riesz_radial_kernel(radius, delta, np.array([0.0]))[0]
        s = np.linspace(0.0, radius, 200001)
        f = np.maximum(0.0, 1.0 - (s / radius) ** 2) ** delta
        want = np.trapezoid(f * s, s) / (2.0 * np.pi)
        assert val == pytest.approx(want, rel=1e-10)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            bochner_riesz_radial_kernel(0.0, 1.0, np.array([0.5]))
        with pytest.raises(DomainError):
            bochner_riesz_radial_kernel(2.0, -0.5, np.array([0.5]))


BAD_COLUMN_INPUT = {
    "planar-r=nan": lambda: planar_radial_kernel(
        br_profile(4.0, 1.5), np.array([np.nan]), 16.0),
    "planar-r=inf": lambda: planar_radial_kernel(
        br_profile(4.0, 1.5), np.array([np.inf]), 16.0),
    "bochner-riesz-scale=nan": lambda: bochner_riesz_radial_kernel(
        np.nan, 1.5, np.array([0.5])),
    "bochner-riesz-delta=nan": lambda: bochner_riesz_radial_kernel(
        4.0, np.nan, np.array([0.5])),
    "bochner-riesz-r=nan": lambda: bochner_riesz_radial_kernel(
        4.0, 1.5, np.array([0.5, np.nan])),
    "heat-t=string": lambda: heat_kernel_pointwise(
        ((0.0,), (0.0,)), ((0.0,), (0.0,)), "a", 1.0),
    "heat-point=nan": lambda: heat_kernel_pointwise(
        ((np.nan,), (0.0,)), ((0.0,), (0.0,)), 0.1, 1.0),
    # one number given a list or an array
    "l1-u=list": lambda: l1_multiplier_norm(
        br_profile(4.0, 1.5), S, u=[0.0, 0.1]),
    "l1-points-per-wavelength=list": lambda: l1_multiplier_norm(
        br_profile(4.0, 1.5), S, points_per_wavelength=[4.0, 4.0]),
    "l1-torus-half-period=array": lambda: l1_multiplier_norm(
        br_profile(4.0, 1.5), np.array([np.pi / 2.0])),
    "bochner-riesz-scale=list": lambda: bochner_riesz_radial_kernel(
        [4.0, 2.0], 1.5, np.array([0.5])),
    "heat-t=list": lambda: heat_kernel_pointwise(
        ((0.0,), (0.0,)), ((0.0,), (0.0,)), [0.1, 0.2], 1.0),
    "l1-xi-zero-radial=nan": lambda: l1_multiplier_norm(
        br_profile(4.0, 1.5), S, xi_zero_radial=lambda r: np.full(r.shape,
                                                                  np.nan)),
}


@pytest.mark.parametrize("case", BAD_COLUMN_INPUT.values(),
                         ids=BAD_COLUMN_INPUT.keys())
def test_bad_column_input_raises_domain_error(case):
    # each was a bare error or a silent NaN
    with pytest.raises(DomainError):
        case()


class TestL1MultiplierNorm:
    def test_resolution_convergence(self):
        # doubling the second-layer bins moves the value at the 1e-3 level
        radius, delta, u = 4.0, 0.5, 0.1
        closed = lambda r: bochner_riesz_radial_kernel(radius, delta, r)
        base = l1_multiplier_norm(br_profile(radius, delta), S, u=u,
                                  lambda_max=radius ** 2, xi_zero_radial=closed)
        fine = l1_multiplier_norm(br_profile(radius, delta), S, u=u,
                                  lambda_max=radius ** 2, xi_zero_radial=closed,
                                  fft_oversample=4)
        assert abs(base - fine) / fine < 5e-3

    def test_heat_column_has_unit_mass(self):
        # the heat kernel is positive with unit mass, so its L^1 norm is 1
        norm = l1_multiplier_norm(MultiplierProfile.heat(0.1), S)
        assert norm == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("profile, closed", [
        *[(MultiplierProfile.heat(t), lambda r, t=t:
           np.exp(-r ** 2 / (4.0 * t)) / (4.0 * np.pi * t))
          for t in (0.05, 0.1, 0.2)],
        (br_profile(8.0, 1.5),
         lambda r: bochner_riesz_radial_kernel(8.0, 1.5, r)),
    ], ids=["heat-0.05", "heat-0.1", "heat-0.2", "br-1.5-R=8"])
    def test_quadrature_zero_slab_matches_its_closed_form(self, profile,
                                                          closed):
        # a zero slab by planar_radial_kernel, the route of a profile without
        # a planar kernel, must give the norm the closed form gives; the
        # stock heat profile carries its closed form, so the quadrature is
        # passed explicitly
        top = profile.support[1]
        quad = l1_multiplier_norm(
            profile, S, lambda_max=top,
            xi_zero_radial=lambda r: planar_radial_kernel(profile, r, top))
        want = l1_multiplier_norm(profile, S, lambda_max=top,
                                  xi_zero_radial=closed)
        assert quad == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("profile, cap", [
        (MultiplierProfile.heat(0.1), None),
        (MultiplierProfile.bochner_riesz(1.0 / 16.0, 1.5), 16.0),
    ], ids=["heat", "bochner-riesz"])
    def test_stock_profiles_skip_the_quadrature(self, profile, cap,
                                                monkeypatch):
        def refuse(*args):
            raise AssertionError("planar_radial_kernel was called")

        monkeypatch.setattr(columns, "planar_radial_kernel", refuse)
        assert np.isfinite(l1_multiplier_norm(profile, S, lambda_max=cap))

    def test_profile_without_planar_kernel_takes_the_quadrature(
            self, monkeypatch):
        calls = []
        quad = columns.planar_radial_kernel

        def spy(*args):
            calls.append(args)
            return quad(*args)

        monkeypatch.setattr(columns, "planar_radial_kernel", spy)
        l1_multiplier_norm(br_profile(4.0, 1.5), S, lambda_max=16.0)
        assert len(calls) == 1

    def test_foot_at_half_the_extent_stays_on_the_spline_grid(self):
        # the zero slab's spline never extrapolates, so a line past its grid
        # would raise; the farthest feet allowed give one finite norm
        extent = 6.0
        right, left = (l1_multiplier_norm(br_profile(4.0, 1.5), S, u=u,
                                          lambda_max=16.0, extent=extent)
                       for u in (extent / 2, -extent / 2))
        assert np.isfinite(right)
        assert left == pytest.approx(right, rel=1e-12)

    def test_line_past_the_spline_grid_raises(self, monkeypatch):
        # a spline cut to half its grid gives NaN past its end, which must
        # not leave as the norm
        build = columns._not_a_knot_spline
        monkeypatch.setattr(columns, "_not_a_knot_spline", lambda x, y:
                            build(x[:x.size // 2], y[:y.size // 2]))
        with pytest.raises(GrushinError, match="past the zero slab's spline"):
            l1_multiplier_norm(br_profile(4.0, 1.5), S, lambda_max=16.0)

    @staticmethod
    def _dense(monkeypatch):
        # one innermost square over the whole domain, carrying every slab
        monkeypatch.setattr(columns, "_frames", lambda reach, inner, extent:
                            [(0.0, extent, reach.size)])

    def test_zone_split_matches_dense_evaluation(self, monkeypatch):
        # the nested frames must agree with the dense reference (an innermost
        # square covering the whole domain) on the same discretization
        for radius, delta, u in ((4.0, 0.5, 0.1), (8.0, 0.2, 0.0)):
            closed = lambda r: bochner_riesz_radial_kernel(radius, delta, r)
            args = dict(u=u, lambda_max=radius ** 2, xi_zero_radial=closed)
            split = l1_multiplier_norm(br_profile(radius, delta), S, **args)
            with monkeypatch.context() as patch:
                self._dense(patch)
                dense = l1_multiplier_norm(br_profile(radius, delta), S,
                                           **args)
            assert abs(split - dense) / dense < 1e-4

    @pytest.mark.parametrize("radius", [4.0, 8.0, 16.0])
    @pytest.mark.parametrize("delta", [1.5, 0.2])
    @pytest.mark.parametrize("foot", [0.0, 1.0, 4.0], ids=["u=0", "u=1/R",
                                                          "u=4/R"])
    def test_frames_match_dense_evaluation(self, monkeypatch, radius, delta,
                                           foot):
        # a frame leaves out the slabs that have died inside its inner edge;
        # the dense reference keeps every slab everywhere, at the n_fft of
        # the whole spectrum
        args = dict(u=foot / radius, lambda_max=radius ** 2,
                    xi_zero_radial=lambda r: bochner_riesz_radial_kernel(
                        radius, delta, r))
        framed = l1_multiplier_norm(br_profile(radius, delta), S, **args)
        self._dense(monkeypatch)
        dense = l1_multiplier_norm(br_profile(radius, delta), S, **args)
        assert abs(framed - dense) / dense < 1e-4

    @pytest.mark.parametrize("delta", [1.5, 0.2])
    def test_dilation_identity(self, delta):
        # (x', x'') -> (r x', r^2 x'') maps L to L / r^2 and the torus of
        # half period S to r^2 S, so the norm at (R, S, u) is the norm at
        # (2R, S / 4, u / 2); the reaches, the grid step and the extent all
        # halve, so the frames map node for node
        def norm(radius, half_period, u):
            return l1_multiplier_norm(
                br_profile(radius, delta), half_period, u=u,
                lambda_max=radius ** 2, xi_zero_radial=lambda r:
                    bochner_riesz_radial_kernel(radius, delta, r))
        for radius in (4.0, 8.0):
            for foot in (0.0, 1.0):
                assert (norm(2.0 * radius, S / 4.0, foot / (2.0 * radius))
                        == pytest.approx(norm(radius, S, foot / radius),
                                         rel=1e-12))

    @staticmethod
    def _reach(radius, j):
        # r_j = sqrt(R^2 + 2 xi_j) / xi_j + 4 / sqrt(xi_j), xi_j = j pi / S
        xi = j * np.pi / S
        return np.sqrt(radius ** 2 + 2.0 * xi) / xi + 4.0 / np.sqrt(xi)

    def test_default_extent_is_the_reach_of_the_first_slab(self):
        prof = br_profile(8.0, 0.2)
        assert (l1_multiplier_norm(prof, S, u=0.5, extent=self._reach(8.0, 1))
                == l1_multiplier_norm(prof, S, u=0.5))

    @pytest.mark.parametrize("radius", [4.0, 32.0])
    def test_frame_bins_are_the_slabs_reaching_past_its_inner_edge(
            self, radius):
        # R^2 / (2 pi / S) = R^2 / 4 slabs; the innermost square, of half
        # width r_{j_max}, carries all of them, and the half widths double
        # out to r_1
        j_max = int(radius ** 2 / 4.0)
        reach = self._reach(radius, np.arange(1, j_max + 1))
        frames = columns._frames(reach, reach[-1], reach[0])
        assert frames[0] == (0.0, reach[-1], j_max)
        assert frames[-1][1] == reach[0]
        for (_, w_out, _), (w_in, _, bins) in zip(frames, frames[1:]):
            assert w_in == w_out
            assert bins == sum(r > w_in for r in reach)
        widths = [w_out for _, w_out, _ in frames[:-1]]
        assert widths == [reach[-1] * 2 ** k for k in range(len(widths))]
        assert widths[-1] < reach[0] <= 2.0 * widths[-1]

    def test_rejects_bad_arguments(self):
        prof = br_profile(4.0, 0.5)
        with pytest.raises(DomainError):
            l1_multiplier_norm(prof, -1.0)
        with pytest.raises(DomainError):
            l1_multiplier_norm(prof, S, points_per_wavelength=1.0)
        with pytest.raises(DomainError):
            l1_multiplier_norm(prof, S, fft_oversample=0)
        with pytest.raises(DomainError):
            l1_multiplier_norm(prof, S, extent=-3.0)
        with pytest.raises(DomainError):
            l1_multiplier_norm(prof, S, u=50.0)  # foot outside resolved region
        unbounded = MultiplierProfile(lambda lam: np.exp(-np.asarray(lam)),
                                      (0.0, np.inf))
        with pytest.raises(DomainError):
            l1_multiplier_norm(unbounded, S)  # no eigenvalue cap
        # grids no run could finish are refused before any allocation
        heat = MultiplierProfile.heat(0.2)
        with pytest.raises(DomainError, match="torus samples per line"):
            l1_multiplier_norm(heat, S, fft_oversample=2 ** 60)
        with pytest.raises(DomainError, match="lines"):
            l1_multiplier_norm(heat, S, points_per_wavelength=1e12)

    @pytest.mark.parametrize("kwargs", [
        {"torus_half_period": np.nan},
        {"torus_half_period": np.inf},
        {"u": np.nan},
        {"lambda_max": np.nan},
        {"points_per_wavelength": np.nan},
        {"points_per_wavelength": np.inf},
        {"fft_oversample": np.nan},
        {"u": None},
        {"torus_half_period": "a"},
        {"extent": "a"},
        # a torus sampling factor that is no power of 2 ran as the next one
        {"fft_oversample": 2.5},
        {"fft_oversample": 3},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_rejects_non_finite_arguments(self, kwargs):
        # checked up front, before any grid size is derived from them
        name = next(iter(kwargs))
        args = {"torus_half_period": S, **kwargs}
        with pytest.raises(DomainError, match=f"^{name} "):
            l1_multiplier_norm(br_profile(4.0, 0.5), **args)

    def test_infinite_lambda_max_means_no_cap(self):
        prof = br_profile(4.0, 0.5)
        assert (l1_multiplier_norm(prof, S, lambda_max=np.inf)
                == l1_multiplier_norm(prof, S))

    def test_cap_where_profile_does_not_vanish_is_refused(self):
        # cut at 3 < R^2 = 16, the zero slab's kernel decays like r^(-3/2)
        # and the result would grow with the window (2.46 at the default
        # extent, 7.86 at extent 40)
        with pytest.raises(DomainError, match=r"lambda_max = 3 .*\|F\(3\)\| = 9\.014e-01"):
            l1_multiplier_norm(br_profile(4.0, 0.5), S, lambda_max=3.0)
        # at the support edge the value is as without a cap
        assert (l1_multiplier_norm(br_profile(4.0, 0.5), S, lambda_max=16.0)
                == pytest.approx(3.4180919932642917, rel=1e-12))

    @staticmethod
    def _block_rows(monkeypatch, u):
        # a small budget splits every strip of every frame into several
        # tiles of x1 rows by x2 columns with short last ones, which write
        # into a prefix of the strip's spectrum buffer.  The innermost square
        # (16 slabs) goes by irfft, and a route threshold of 8 sends the next
        # frame (15 slabs) by irfft too.  Returns the unsplit and split norms
        # and, per tile, its bins and (x1 rows, x2 columns) (cosine sums) or
        # its lines (one irfft per tile: a tile's lines fit one chunk)
        radius, delta = 8.0, 0.2
        args = dict(u=u, lambda_max=radius ** 2, xi_zero_radial=lambda r:
                    bochner_riesz_radial_kernel(radius, delta, r))
        whole = l1_multiplier_norm(br_profile(radius, delta), S, **args)
        tiles = []
        irfft, cosine_sums = np.fft.irfft, columns._cosine_abs_sums

        def irfft_spy(spec, *a, **kw):
            tiles.append(spec.shape[::-1])
            return irfft(spec, *a, **kw)

        def cosine_spy(table, spec, out):
            tiles.append(spec.shape)
            return cosine_sums(table, spec, out)

        monkeypatch.setattr(np.fft, "irfft", irfft_spy)
        monkeypatch.setattr(columns, "_cosine_abs_sums", cosine_spy)
        monkeypatch.setattr(columns, "_BLOCK_BUDGET", 300.0)
        monkeypatch.setattr(columns, "_COSINE_MAX_BINS", 8)
        split = l1_multiplier_norm(br_profile(radius, delta), S, **args)
        return whole, split, tiles

    @staticmethod
    def _strip(n_bins, rows, cols, irfft):
        # the tiles of one strip, tiled rows first
        if irfft:
            return [(n_bins, r * c) for r in rows for c in cols]
        return [(n_bins, r, c) for r in rows for c in cols]

    def test_block_partition_only_regroups_the_sums(self, monkeypatch):
        # R = 8 has 16 slabs and four frames, of outer half widths 6, 11, 22
        # and 37 x2 nodes, carrying 16, 15, 5 and 1 slabs.  At u = 0 the
        # column is even in x1, and each frame keeps x1 >= 0: its top strip
        # (all x1 rows to its outer edge) and one side strip
        whole, split, tiles = self._block_rows(monkeypatch, 0.0)
        strip = self._strip
        assert tiles == (strip(17, (4, 2), (4, 2), True)
                         + strip(16, (4, 4, 3), (4, 1), True)
                         + strip(16, (4, 1), (4, 2), True)
                         + strip(6, (7, 7, 7, 1), (7, 4), False)
                         + strip(6, (7, 4), (7, 4), False)
                         + strip(2, (12, 12, 12, 1), (12, 3), False)
                         + strip(2, (12, 3), (12, 10), False))
        assert split == pytest.approx(whole, rel=1e-13)

    def test_block_partition_off_axis_only_regroups_the_sums(self,
                                                             monkeypatch):
        # off the axis each frame keeps the whole x1 range: its top strip and
        # two side strips, one on each side of the inner square
        whole, split, tiles = self._block_rows(monkeypatch, 1.0 / 8.0)
        strip = self._strip
        assert tiles == (strip(17, (4, 4, 3), (4, 2), True)
                         + strip(16, (4,) * 5 + (1,), (4, 1), True)
                         + 2 * strip(16, (4, 1), (4, 2), True)
                         + strip(6, (7,) * 6 + (1,), (7, 4), False)
                         + 2 * strip(6, (7, 4), (7, 4), False)
                         + strip(2, (12,) * 6 + (1,), (12, 3), False)
                         + 2 * strip(2, (12, 3), (12, 10), False))
        assert split == pytest.approx(whole, rel=1e-13)

    @pytest.mark.parametrize("n_bins, n_fft", [
        (18, 128), (17, 128), (15, 64), (32, 128), (30, 128)])
    def test_cosine_sums_match_full_period_irfft(self, n_bins, n_fft):
        # spectra of 15 to 32 bins, each at the n_fft a frame of that many
        # bins uses: the power of 2 at or above 4 bins
        rng = np.random.default_rng(n_bins * n_fft)
        spec = rng.standard_normal((n_bins, 5, 7))
        table = columns._half_period_cosines(n_bins, n_fft)
        want = np.abs(np.fft.irfft(np.moveaxis(spec, 0, -1), n=n_fft)).sum(-1)
        # a buffer of 40 lines takes all 35 at once; one of 8 takes them in
        # chunks, the last one short
        for lines in (40, 8):
            out = np.empty(table.shape[0] * lines)
            got = columns._cosine_abs_sums(table, spec, out)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("delta, u, want", [
        (1.5, 0.0, 2.312744052956305),
        (1.5, 1.0 / 32.0, 2.300867002226547),
        (1.5, 4.0 / 32.0, 2.220892552874158),
        (0.2, 0.0, 36.630236119739564),
        (0.2, 1.0 / 32.0, 37.18809506774524),
        (0.2, 4.0 / 32.0, 36.04367367678283),
    ], ids=["1.5-u=0", "1.5-u=1/32", "1.5-u=4/32", "0.2-u=0", "0.2-u=1/32",
            "0.2-u=4/32"])
    def test_norms_at_radius_32_are_pinned(self, delta, u, want):
        # the R = 32 column norms of the default bochner_riesz run, as the
        # nested frames give them
        radius = 32.0
        got = l1_multiplier_norm(
            br_profile(radius, delta), S, u=u, lambda_max=radius ** 2,
            xi_zero_radial=lambda r: bochner_riesz_radial_kernel(
                radius, delta, r))
        assert got == pytest.approx(want, rel=1e-12)

    def test_heat_norm_is_pinned(self):
        # the kernel is positive, so the torus sums of |K| are the zero
        # bin's and do not depend on which slabs a frame carries
        assert (l1_multiplier_norm(MultiplierProfile.heat(0.05), S)
                == pytest.approx(1.0000000118574321, rel=1e-12))

    def test_norm_at_radius_64_is_pinned(self):
        # the R = 64, delta = 0.2, u = 0 column norm of the default
        # bochner_riesz run
        radius, delta = 64.0, 0.2
        got = l1_multiplier_norm(
            br_profile(radius, delta), S, lambda_max=radius ** 2,
            xi_zero_radial=lambda r: bochner_riesz_radial_kernel(
                radius, delta, r))
        assert got == pytest.approx(70.45539883336819, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.2, 1.5])
    def test_axis_mirror_matches_the_full_x1_axis(self, delta):
        # at u = 0 only x1 >= 0 is summed, with the x2 weights; a foot of
        # 1e-300 moves nothing but takes the whole x1 axis
        radius = 8.0
        args = dict(lambda_max=radius ** 2, xi_zero_radial=lambda r:
                    bochner_riesz_radial_kernel(radius, delta, r))
        half = l1_multiplier_norm(br_profile(radius, delta), S, u=0.0, **args)
        full = l1_multiplier_norm(br_profile(radius, delta), S, u=1e-300,
                                  **args)
        assert half == pytest.approx(full, rel=1e-14)

    @staticmethod
    def _runs(monkeypatch, radius, u):
        """(k_caps, spans, ax1, runs): arguments of the call's _slab_tables,
        and its runs in turn as ((j0, j1), the run's table stack)."""
        tables, seen = columns._slab_tables, []

        def tables_spy(groups, k_caps, roots, ax1, spans):
            seen.extend((k_caps, spans, ax1))
            runs = [run for group in groups for run in group]
            for run, H1 in zip(runs, tables(groups, k_caps, roots, ax1,
                                            spans)):
                seen.append((run, H1))
                yield H1

        monkeypatch.setattr(columns, "_slab_tables", tables_spy)
        l1_multiplier_norm(br_profile(radius, 0.2), S, u=u,
                           lambda_max=radius ** 2)
        k_caps, spans, ax1, *runs = seen
        return k_caps, spans, ax1, runs

    @pytest.mark.parametrize("radius, u", [(8.0, 1.0 / 8.0),
                                          (32.0, 4.0 / 32.0)],
                             ids=["R=8", "R=32 u=4/32"])
    def test_lane_tables_are_the_per_slab_tables(self, monkeypatch, radius,
                                                 u):
        # the slabs' Hermite tables come from one recurrence per group of
        # slabs, stacked per run; slab j's is hermite_table(k_cap, sqrt(xi)
        # x1[rows]) bit for bit
        groups, lanes = [], columns.hermite_lanes
        monkeypatch.setattr(columns, "hermite_lanes", lambda *a: groups.append(
            len(a[0])) or lanes(*a))
        k_caps, spans, ax1, runs = self._runs(monkeypatch, radius, u)
        j_max = int(radius ** 2 / 4.0)
        assert len(runs) == sum(groups) and len(groups) < j_max / 4
        # the runs take the slabs in turn, each once
        bounds = [j for (j0, j1), _ in runs for j in (j0, j1)]
        assert bounds == [0, *np.repeat(bounds[1:-1:2], 2), j_max]
        for (j0, j1), H1 in runs:
            for j in range(j0, j1):
                want = hermite_table(k_caps[j], np.sqrt((j + 1) * (np.pi / S))
                                     * ax1[spans[j]])
                assert H1[:, j - j0].shape == want.shape
                assert np.array_equal(H1[:, j - j0], want)

    def test_runs_share_level_cap_and_rows(self, monkeypatch):
        # the R = 32 set-up goes by runs of slabs with one k_cap and one
        # x1 row span: 34 runs for 256 slabs
        k_caps, spans, _, runs = self._runs(monkeypatch, 32.0, 1.0 / 32.0)
        assert len(k_caps) == 256 and len(runs) <= 40
        for (j0, j1), _ in runs:
            assert len({int(k) for k in k_caps[j0:j1]}) == 1
            assert len({(rows.start, rows.stop) for rows in spans[j0:j1]}) == 1

    @pytest.mark.parametrize("delta, u, want", [
        (0.2, 1.0 / 32.0, 37.188095067745095),
        (0.2, 4.0 / 32.0, 36.04367367678291),
        (1.5, 1.0 / 32.0, 2.300867002226547),
        (1.5, 4.0 / 32.0, 2.220892552874158),
    ], ids=["0.2-u=1/32", "0.2-u=4/32", "1.5-u=1/32", "1.5-u=4/32"])
    def test_run_products_are_the_per_slab_products(self, delta, u, want):
        # the off-axis R = 32 norms as one product per slab gave them: a
        # stacked product is one BLAS call per slab on the same shapes and
        # strides, so the norm stays the same bit for bit
        radius = 32.0
        got = l1_multiplier_norm(
            br_profile(radius, delta), S, u=u, lambda_max=radius ** 2,
            xi_zero_radial=lambda r: bochner_riesz_radial_kernel(
                radius, delta, r))
        assert got == want

    def test_one_profile_call_for_the_torus_slabs(self, monkeypatch):
        # with the cap at the support edge and a closed-form zero slab, the
        # torus slabs' eigenvalues are the only ones F is evaluated at
        calls, call = [], MultiplierProfile.__call__
        monkeypatch.setattr(MultiplierProfile, "__call__", lambda self, lam:
                            calls.append(np.size(lam)) or call(self, lam))
        for radius in (8.0, 32.0):
            calls.clear()
            l1_multiplier_norm(br_profile(radius, 0.2), S, u=1.0 / radius,
                               lambda_max=radius ** 2, xi_zero_radial=lambda r:
                               bochner_riesz_radial_kernel(radius, 0.2, r))
            assert len(calls) == 1

    def test_profile_not_finite_at_a_slab_eigenvalue_is_named(self):
        # on S = pi/2 the slab eigenvalues are 4j(L + 1); 12 is slab 1's at
        # L = 2 and slab 3's at L = 0
        def nan_at_12(lam):
            return np.where(lam == 12.0, np.nan,
                            np.maximum(0.0, 1.0 - lam / 16.0))

        profile = MultiplierProfile(nan_at_12, (0.0, 16.0))
        with pytest.raises(DomainError, match=r"not finite at lambda = 12$"):
            l1_multiplier_norm(profile, S, lambda_max=16.0,
                               xi_zero_radial=lambda r: np.exp(-r * r))

    @pytest.mark.parametrize("radius, delta, u", [
        (32.0, 0.2, 4.0 / 32.0), (8.0, 1.5, 0.0), (4.0, 0.2, 0.25)])
    def test_direct_index_spline_matches_cubic_spline(self, radius, delta, u):
        # the in-module not-a-knot spline is scipy's CubicSpline bit for
        # bit, and on the radii of the frames' lines, on every knot and past
        # the last one, its direct-index Horner evaluation is
        # CubicSpline.__call__ to rounding (1e-15 of the largest value)
        dx = 2.0 * np.pi / (4.0 * radius)
        n_half = int(np.ceil(columns._reach(radius ** 2, np.pi / S) / dx))
        ax2 = dx * np.arange(n_half + 1)
        ax1 = dx * np.arange(-n_half, n_half + 1)
        r_far = np.hypot(np.max(np.abs(ax1 - u)), ax2[-1])
        grid = np.arange(0.0, r_far + 2.0 * dx, 0.25 * dx)
        values = bochner_riesz_radial_kernel(radius, delta, grid)
        spline = CubicSpline(grid, values, extrapolate=False)
        knots, coef = columns._not_a_knot_spline(grid, values)
        assert np.array_equal(knots, spline.x)
        assert np.array_equal(coef, spline.c)
        scale = np.abs(spline.c[-1]).max()
        got = np.empty((ax1.size, ax2.size))
        columns._spline_values(knots, coef, ax1, ax2, u, got)
        want = spline(np.sqrt((ax1[:, None] - u) ** 2 + ax2[None, :] ** 2))
        assert np.abs(got - want).max() <= 1e-15 * scale
        # sqrt(k * k) == k, so x1 = knots, x2 = 0 lands on the knots
        x1 = np.r_[grid, grid[-1] + 0.125 * dx]
        got = np.empty((x1.size, 1))
        columns._spline_values(knots, coef, x1, np.zeros(1), 0.0, got)
        want = spline(x1)
        assert np.abs(got[:-1, 0] - want[:-1]).max() <= 1e-15 * scale
        assert np.isnan(got[-1, 0]) and np.isnan(want[-1])

    @pytest.mark.parametrize("radius, u, bound_mib", [
        # closed-form zero slab: 8.2 MiB measured with the slabs set up as
        # lanes (8.0 one slab at a time), 10.7 with a core square and one
        # bulk zone carrying 17 slabs out to the extent; 33.0 with x1 blocks
        # of up to 48 MB, and 84.8 when the samples of a whole block of
        # lines went through one buffer
        (32.0, 4.0 / 32.0, 13.0),
        # heat t = 0.05: 3.5 MiB measured with the closed-form zero slab;
        # 4.0 with the quadrature's Bessel matrix in blocks of rows and the
        # slabs set up as lanes, as one slab at a time (5.5 with the core and
        # bulk zones), 11.4 with x1 blocks of up to 48 MB and 62.3 with the
        # whole matrix
        (None, 0.0, 7.0),
    ], ids=["br R=32 u=4/32", "heat t=0.05"])
    def test_peak_memory(self, radius, u, bound_mib):
        if radius is None:
            profile, args = MultiplierProfile.heat(0.05), {}
        else:
            profile = br_profile(radius, 0.2)
            args = dict(lambda_max=radius ** 2, xi_zero_radial=lambda r:
                        bochner_riesz_radial_kernel(radius, 0.2, r))
        tracemalloc.start()
        try:
            l1_multiplier_norm(profile, S, u=u, **args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20

    def test_slab_without_an_active_level_is_carried_with_a_zero_c(
            self, monkeypatch):
        # on S = pi/2 the slab eigenvalues are 4j(k + 1): those of slab 2,
        # 8 and 16, miss [9, 13], so its level range is empty, yet the slab
        # stays in the frames (oscillator.torus_slabs)
        coeff, slabs = columns._kernel_slab_coeff, []

        def spy(profile, xi, k_caps, h_u, h_0, runs):
            coeffs = coeff(profile, xi, k_caps, h_u, h_0, runs)
            for (j0, j1), C in zip(runs, coeffs):
                slabs.extend(zip(xi[j0:j1], C))
            return coeffs

        monkeypatch.setattr(columns, "_kernel_slab_coeff", spy)
        assert np.isfinite(l1_multiplier_norm(bump(9.0, 13.0), S, u=0.25))
        assert [xi for xi, _ in slabs] == [2.0, 4.0, 6.0]
        assert [bool(C.any()) for _, C in slabs] == [True, False, True]

    def test_cap_below_first_torus_slab(self):
        # a support edge of 3 < 2 dxi leaves no torus slab (j_max = 0): the
        # spectrum is the zero slab alone, and the norm still bounds
        # |F(0)| = 1
        norm = l1_multiplier_norm(br_profile(np.sqrt(3.0), 1.5), S)
        assert np.isfinite(norm) and norm >= 1.0


class TestHeatKernelPointwise:
    def test_matches_engine_column(self):
        # engine config with verified truncation margins; compare at a
        # handful of nodes spanning on/off axis and both layers
        grid = GrushinGrid(PrimeGrid(8.0, 192, 2), 1.0, 128, 1)
        trunc = SpectralTruncation(k_max=48, lambda_max=280.0)
        t = 0.1
        col = schwartz_kernel_column(MultiplierProfile.heat(t), grid,
                                     (1.0, 0.5), (0.0,), trunc)
        vals = col.values.real
        ax1 = grid.prime.axis
        ax3 = grid.second_axis
        worst = 0.0
        for tx1, tx2, tx3 in ((1.25, -0.5, 0.75), (0.0, 0.0, 0.0),
                              (1.25, 0.0, 0.0), (0.0, -0.5, 0.75),
                              (2.0, 1.0, -0.9)):
            a = int(np.argmin(np.abs(ax1 - tx1)))
            b = int(np.argmin(np.abs(ax1 - tx2)))
            c = int(np.argmin(np.abs(ax3 - tx3)))
            x = ((ax1[a], ax1[b]), (ax3[c],))
            mehler = heat_kernel_pointwise(x, ((1.0, 0.5), (0.0,)), t, 1.0)
            worst = max(worst, abs(vals[a, b, c] - mehler) / abs(mehler))
        assert worst < 1e-9

    def test_elliptic_limit_off_axis(self):
        # for |x'| = 2 and tiny t the operator looks like a Laplacian with
        # coefficient |x'|^2 in the second layer: the on-diagonal value is
        # (4 pi t)^{-3/2} / |x'|
        for t, tol in ((0.01, 2e-2), (0.002, 2e-4)):
            got = heat_kernel_pointwise(((2.0, 0.0), (0.0,)),
                                        ((2.0, 0.0), (0.0,)), t, 6.0)
            want = (4.0 * np.pi * t) ** -1.5 / 2.0
            assert abs(got - want) / want < tol

    def test_symmetric_and_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = rng.uniform(-2.0, 2.0, 3)
            q = rng.uniform(-2.0, 2.0, 3)
            a = heat_kernel_pointwise(((p[0], p[1]), (p[2],)),
                                      ((q[0], q[1]), (q[2],)), 0.2, 3.0)
            b = heat_kernel_pointwise(((q[0], q[1]), (q[2],)),
                                      ((p[0], p[1]), (p[2],)), 0.2, 3.0)
            assert a > 0.0
            assert abs(a - b) <= 1e-12 * a

    def test_one_prime_dimension_heat_mass(self):
        # integrating the kernel over the whole slab recovers total mass one;
        # check against a direct grid sum in d1 = 1
        t = 0.15
        half = 3.0
        n1, n2 = 400, 256
        x1 = np.linspace(-10.0, 10.0, n1)
        x2 = (np.arange(n2) - n2 // 2) * (2.0 * half / n2)
        vals = heat_kernel_pointwise((x1[:, None, None], x2[None, :, None]),
                                     ((0.5,), (0.0,)), t, half)
        assert vals.shape == (n1, n2)
        mass = vals.sum() * (x1[1] - x1[0]) * (2.0 * half / n2)
        assert mass == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("d1", [1, 2, 3])
    def test_arrays_of_points_match_scalar_points(self, d1):
        # one call over arrays of points, leading axes broadcast, gives each
        # point's scalar value
        rng = np.random.default_rng(d1)
        xp = rng.uniform(-2.0, 2.0, (3, 4, d1))
        xs = rng.uniform(-1.0, 1.0, (1, 4, 1))
        yp = rng.uniform(-2.0, 2.0, (3, 1, d1))
        ys = np.array([0.25])
        got = heat_kernel_pointwise((xp, xs), (yp, ys), 0.1, 2.0)
        assert got.shape == (3, 4)
        for i in range(3):
            for k in range(4):
                want = heat_kernel_pointwise(
                    (tuple(xp[i, k]), tuple(xs[0, k])),
                    (tuple(yp[i, 0]), tuple(ys)), 0.1, 2.0)
                assert isinstance(want, float)
                assert got[i, k] == pytest.approx(want, rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            heat_kernel_pointwise(((0.0,), (0.0,)), ((0.0,), (0.0,)), 0.0, 1.0)
        with pytest.raises(DomainError):
            heat_kernel_pointwise(((0.0,), (0.0,)), ((0.0, 0.0), (0.0,)),
                                  0.1, 1.0)
        with pytest.raises(DomainError):
            heat_kernel_pointwise(((0.0,), (0.0, 0.0)), ((0.0,), (0.0, 0.0)),
                                  0.1, 1.0)
        with pytest.raises(DomainError, match="broadcast"):
            heat_kernel_pointwise((np.zeros((3, 1)), np.zeros((3, 1))),
                                  (np.zeros((2, 1)), np.zeros((2, 1))),
                                  0.1, 1.0)

    @pytest.mark.parametrize("half_period,t", [(1e15, 0.05), (6.0, 1e-9)])
    def test_refuses_a_sum_past_the_term_cap(self, half_period, t):
        # 46 S / (2 pi t) terms: about 1.5e17 and 4.4e10 here
        with pytest.raises(DomainError, match=r"S=.* and time t=.*cap"):
            heat_kernel_pointwise(((0.0,), (0.0,)), ((0.0,), (0.0,)), t,
                                  half_period)

    @pytest.mark.parametrize("half_period", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_torus_half_period(self, half_period):
        with pytest.raises(DomainError, match="torus half period"):
            heat_kernel_pointwise(((0.0,), (0.0,)), ((0.0,), (0.0,)), 0.1,
                                  half_period)
