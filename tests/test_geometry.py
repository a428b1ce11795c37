"""Tests for the quasi-distance, ball volumes and doubling."""

import math

import numpy as np
import pytest

from grushin import geometry
from grushin.errors import ContractViolation, DomainError
from grushin.fields import GrushinGrid
from grushin.geometry import (
    MetricPoint,
    ball_volume,
    ball_volume_model,
    doubling_ratio,
    grushin_distance,
    grushin_distance_arrays,
    grushin_distance_field,
    torus_wrap,
)
from grushin.hermite import PrimeGrid


def small_grid():
    return GrushinGrid(PrimeGrid(2.0, 16, 2), 2.0, 16, 1)


@pytest.mark.parametrize("call", [
    lambda: ball_volume_model(MetricPoint((0.0, 0.0), (0.0,)), "a"),
    lambda: doubling_ratio(MetricPoint((0.0, 0.0), (0.0,)), 1.0, "a"),
    lambda: grushin_distance_arrays(np.array([np.nan, 0.0]), np.zeros(1),
                                    np.zeros(2), np.zeros(1)),
    lambda: grushin_distance_field(small_grid(), (np.nan, 0.0), (0.0,)),
    lambda: ball_volume_model(MetricPoint((0.0, 0.0), (0.0,)), [1.0, 2.0]),
    lambda: doubling_ratio(MetricPoint((0.0, 0.0), (0.0,)), 1.0, [2.0, 3.0]),
    lambda: ball_volume(MetricPoint((0.0, 0.0), (0.0,)), "a"),
    # volumes past the float range: a sampled volume of (nan, inf), and a
    # bare ZeroDivisionError from a volume that underflowed to 0
    lambda: ball_volume(MetricPoint((0.0, 0.0), (0.0,)), 1e100),
    lambda: doubling_ratio(MetricPoint((0.0, 0.0), (0.0,)), 1e-100, 2.0),
    # and model volumes past it: inf, a bare OverflowError, and 0
    lambda: ball_volume_model(MetricPoint((0.0, 0.0), (0.0,)), 1e100),
    lambda: ball_volume_model(MetricPoint((0.0, 0.0), (0.0,)), 1e200),
    lambda: ball_volume_model(MetricPoint((0.0, 0.0), (0.0,)), 1e-100),
], ids=["model-radius-string", "doubling-factor-string", "arrays-nan",
        "field-foot-nan", "model-radius-list", "doubling-factor-list",
        "volume-radius-string", "volume-overflow", "volume-underflow",
        "model-overflow-inf", "model-overflow-error", "model-underflow"])
def test_bad_numbers_raise_domain_error(call):
    # each was a bare TypeError or a silent NaN
    with pytest.raises(DomainError):
        call()


class TestDistance:
    def test_coincident_points(self):
        x = MetricPoint((1.0, -0.5), (0.25,))
        assert grushin_distance(x, x) == 0.0

    def test_rooted_branch_at_degenerate_set(self):
        # both prime parts vanish: cost of the second layer is a square root
        x = MetricPoint((0.0, 0.0), (0.0,))
        y = MetricPoint((0.0, 0.0), (4.0,))
        assert grushin_distance(x, y) == 2.0

    def test_rooted_branch_next_to_degenerate_set(self):
        # |x'| at the smallest normal float: ds / (|x'| + |y'|) overflows to
        # inf, which the square root branch passes over with no warning
        x = MetricPoint((2.2250738585072014e-308,), (0.0,))
        y = MetricPoint((0.0,), (10.0,))
        assert grushin_distance(x, y) == math.sqrt(10.0)

    def test_graded_branch_value(self):
        x = MetricPoint((1.0, 0.0), (0.0,))
        y = MetricPoint((1.0, 0.0), (0.08,))
        assert grushin_distance(x, y) == pytest.approx(0.04, abs=1e-15)

    def test_branch_interface_is_continuous_exactly(self):
        # sqrt(|dx''|) == |x'|+|y'| == 2: both branches give the same number
        x = MetricPoint((1.0,), (0.0,))
        y = MetricPoint((1.0,), (4.0,))
        graded = 4.0 / 2.0
        rooted = np.sqrt(4.0)
        assert graded == rooted
        assert grushin_distance(x, y) == graded

    @staticmethod
    def branch_form(dp, ds, ax, ay):
        # the quasi-distance as two branches, split where sqrt(ds) > ax + ay
        sq = np.sqrt(ds)
        denom = ax + ay
        out = np.asarray(ds / np.where(denom > 0, denom, 1.0))
        out += dp
        np.copyto(out, dp + sq, where=sq > denom)
        return out

    def test_minimum_is_the_branch_form(self):
        # exact on the interface sqrt(ds) = ax + ay, where both branches are
        # representable, and within one ulp elsewhere, where the branch that
        # is not taken may round below the other
        for s in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
            for ax in (0.0, s / 4.0, s / 2.0):
                parts = (np.float64(0.25), np.float64(s * s),
                         np.float64(ax), np.float64(s - ax))
                assert (geometry._rho_from_parts(*parts)
                        == self.branch_form(*parts))
        rng = np.random.default_rng(12)
        dp, ax, ay = rng.uniform(0.0, 3.0, (3, 100_000))
        ds = rng.uniform(0.0, 4.0, 100_000) ** 2
        ds[:1000] = (ax[:1000] + ay[:1000]) ** 2  # near the interface
        ax[-1000:] = ay[-1000:] = 0.0  # on the degenerate set
        got = geometry._rho_from_parts(dp, ds, ax, ay)
        want = self.branch_form(dp, ds, ax, ay)
        assert np.all(np.abs(got - want) <= np.spacing(want))

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = MetricPoint(tuple(rng.uniform(-3, 3, 2)), tuple(rng.uniform(-4, 4, 1)))
            y = MetricPoint(tuple(rng.uniform(-3, 3, 2)), tuple(rng.uniform(-4, 4, 1)))
            dxy = grushin_distance(x, y)
            assert dxy == grushin_distance(y, x)
            assert dxy > 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            grushin_distance(MetricPoint((1.0,), (0.0,)),
                             MetricPoint((1.0, 0.0), (0.0,)))

    def test_non_finite_point_rejected(self):
        with pytest.raises(DomainError):
            MetricPoint((np.inf, 0.0), (0.0,))

    @pytest.mark.parametrize("x_prime", [1.0, ((1.0, 0.0),), ("1.0",)],
                             ids=["scalar", "nested", "string"])
    def test_point_parts_are_flat_lists_of_numbers(self, x_prime):
        with pytest.raises(DomainError, match="^metric point"):
            MetricPoint(x_prime, (0.0,))

    @pytest.mark.parametrize("parts", [((), (0.0,)), ((0.0,), ())],
                             ids=["prime", "second"])
    def test_empty_point_parts_are_refused(self, parts):
        # they reached ball_volume_model and grushin_distance, which raised
        # a bare IndexError
        with pytest.raises(DomainError, match="^metric point"):
            MetricPoint(*parts)

    def test_quasi_triangle_constant_at_most_four(self):
        rng = np.random.default_rng(77)
        n = 100_000
        xp = rng.uniform(-3, 3, (n, 2))
        yp = rng.uniform(-3, 3, (n, 2))
        zp = rng.uniform(-3, 3, (n, 2))
        xs = rng.uniform(-5, 5, (n, 1))
        ys = rng.uniform(-5, 5, (n, 1))
        zs = rng.uniform(-5, 5, (n, 1))
        dxy = grushin_distance_arrays(xp, xs, yp, ys)
        through = (grushin_distance_arrays(xp, xs, zp, zs)
                   + grushin_distance_arrays(zp, zs, yp, ys))
        assert np.max(dxy / through) <= 4.0

    def test_array_form_matches_scalar(self):
        rng = np.random.default_rng(8)
        xp = rng.uniform(-2, 2, (5, 2))
        xs = rng.uniform(-2, 2, (5, 1))
        yp = rng.uniform(-2, 2, (5, 2))
        ys = rng.uniform(-2, 2, (5, 1))
        arr = grushin_distance_arrays(xp, xs, yp, ys)
        for i in range(5):
            one = grushin_distance(MetricPoint(tuple(xp[i]), tuple(xs[i])),
                                   MetricPoint(tuple(yp[i]), tuple(ys[i])))
            assert arr[i] == pytest.approx(one, rel=1e-14)


class TestDistanceField:
    def test_matches_pointwise_distance(self):
        grid = small_grid()
        y_prime = (0.25, -0.5)
        y_second = (0.75,)
        rho = grushin_distance_field(grid, y_prime, y_second, wrap=False)
        assert rho.shape == grid.shape
        y = MetricPoint(y_prime, y_second)
        rng = np.random.default_rng(4)
        for _ in range(20):
            idx = tuple(rng.integers(0, s) for s in grid.shape)
            xp = tuple(grid.prime.axis[i] for i in idx[:2])
            xs = (grid.second_axis[idx[2]],)
            assert rho[idx] == pytest.approx(
                grushin_distance(MetricPoint(xp, xs), y), rel=1e-13)

    @pytest.mark.parametrize("y_prime", [(0.0, 0.0), (1.375, -0.6875)],
                             ids=["on-axis", "off-axis"])
    def test_matches_pointwise_distance_on_default_grid(self, y_prime):
        # the kernel_support grid; a foot on the axis makes |x'| + |y'| = 0
        # on the line x' = 0, where only ds = 0 takes the graded branch
        grid = GrushinGrid(PrimeGrid(22.0, 256, 2), 6.0, 128, 1)
        y_second = (0.0,)
        rho = grushin_distance_field(grid, y_prime, y_second, wrap=False)
        y = MetricPoint(y_prime, y_second)
        axis_node = grid.locate((0.0, 0.0), y_second)
        rng = np.random.default_rng(8)
        nodes = [axis_node[:2] + (k,) for k in range(grid.n_second)]
        nodes += [tuple(rng.integers(0, s) for s in grid.shape)
                  for _ in range(500)]
        for idx in nodes:
            x = MetricPoint(tuple(grid.prime.axis[i] for i in idx[:2]),
                            (grid.second_axis[idx[2]],))
            assert rho[idx] == pytest.approx(grushin_distance(x, y), rel=1e-14)

    def test_wrap_uses_minimal_image(self):
        grid = small_grid()  # second axis [-2, 2), spacing 0.25
        rho = grushin_distance_field(grid, (1.0, 0.0), (1.75,), wrap=True)
        raw = grushin_distance_field(grid, (1.0, 0.0), (1.75,), wrap=False)
        i1 = grid.locate((1.0, 0.0), (-2.0,))
        # across the seam: wrapped gap 0.25, unwrapped 3.75
        assert rho[i1] == pytest.approx(0.25 / 2.0, abs=1e-14)
        assert raw[i1] == pytest.approx(3.75 / 2.0, abs=1e-14)

    def test_torus_wrap_identity_inside(self):
        d = np.array([-1.9, -0.3, 0.0, 0.4, 1.99])
        assert np.allclose(torus_wrap(d, 2.0), d)
        assert torus_wrap(3.75, 2.0) == pytest.approx(-0.25)

    def test_wrong_dims_rejected(self):
        with pytest.raises(ContractViolation):
            grushin_distance_field(small_grid(), (1.0,), (0.0,))


class TestBallVolume:
    def test_model_examples(self):
        assert ball_volume_model(MetricPoint((0.0, 0.0), (0.0,)), 2.0) == 16.0
        assert ball_volume_model(MetricPoint((8.0, 0.0), (0.0,)), 2.0) == 64.0
        # radii well inside the float range pass the e^(+-700) check
        for r in (1e40, 1e-40):
            assert ball_volume_model(MetricPoint((0.0, 0.0), (0.0,)), r) == r ** 4

    def test_model_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            ball_volume_model(MetricPoint((0.0,), (0.0,)), 0.0)

    def test_volume_within_single_comparability_constant(self):
        ratios = []
        for xv in [0.0, 0.5, 2.0, 8.0]:
            for r in [0.25, 1.0, 2.0]:
                p = MetricPoint((xv, 0.0), (0.0,))
                ratios.append(ball_volume(p, r) / ball_volume_model(p, r))
        ratios = np.array(ratios)
        c = max(np.max(ratios), np.max(1.0 / ratios))
        assert c <= 16.0

    @pytest.mark.parametrize("r", [0.25, 1.0, 3.0, 7.5])
    def test_closed_form_on_the_degenerate_set(self, r):
        vol = ball_volume(MetricPoint((0.0, 0.0), (0.0,)), r)
        assert vol == pytest.approx(11.0 * math.pi / 24.0 * r ** 4, rel=1e-14)

    @pytest.mark.parametrize("lam", [2.0, 3.7])
    def test_homogeneous_of_degree_four(self, lam):
        # |B(delta_lam x, lam r)| = lam^4 |B(x, r)|, delta_lam x = (lam x', lam^2 x'')
        for xv in (0.3, 1.0, 2.5):
            for r in (0.25, 1.0, 3.0):
                x = MetricPoint((xv, 0.0), (1.0,))
                dilated = MetricPoint((lam * xv, 0.0), (lam * lam,))
                assert (ball_volume(dilated, lam * r)
                        == pytest.approx(lam ** 4 * ball_volume(x, r),
                                         rel=1e-13))

    # the volume pairs of geometry_suite, the radii of its doubling pairs,
    # and radii at the switch r = |x'| between polar and elliptic coordinates
    DOUBLED = ([(h, r) for h in (0.0, 0.5, 2.0) for r in (0.25, 1.0, 3.0)]
               + [(h, lam * r) for h in (0.0, 1.0) for r in (0.5, 1.0)
                  for lam in (1.0, 2.0, 4.0, 8.0)]
               + [(h, h * f) for h in (0.5, 1.0, 2.0)
                  for f in (1.0 - 1e-9, 1.0 + 1e-9)])

    @pytest.mark.parametrize("height,r", DOUBLED)
    def test_node_doubling_moves_no_volume(self, monkeypatch, height, r):
        x = MetricPoint((height, 0.0), (0.0,))
        vol = ball_volume(x, r)
        monkeypatch.setattr(geometry, "_RADIAL_NODES",
                            2 * geometry._RADIAL_NODES)
        monkeypatch.setattr(geometry, "_ANGLE_NODES",
                            2 * geometry._ANGLE_NODES)
        assert ball_volume(x, r) == pytest.approx(vol, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("height,r", [(0.5, 1.0), (2.0, 1.0), (1.0, 3.0)])
    def test_agrees_with_hit_or_miss_sampling(self, height, r):
        # the box holds the ball: |z' - x'| <= r and, by the smaller branch,
        # |z'' - x''| <= r max(r, 2 |x'| + r)
        n = 400_000
        half = r * max(r, 2.0 * height + r)
        rng = np.random.default_rng(7)
        zp = np.array([height, 0.0]) + rng.uniform(-r, r, (n, 2))
        zs = rng.uniform(-half, half, (n, 1))
        rho = grushin_distance_arrays(zp, zs, np.array([height, 0.0]),
                                      np.zeros(1))
        p = np.mean(rho <= r)
        box = 4.0 * r * r * 2.0 * half
        vol = ball_volume(MetricPoint((height, 0.0), (0.0,)), r)
        assert abs(box * p - vol) < 3.0 * box * math.sqrt(p * (1 - p) / n)

    def test_radial_rule_is_exact_on_polynomials(self):
        # the 96-node rule on [0, 1] integrates x^k, k <= 191, within
        # 4.9e-15 relative; numpy's leggauss(96) reached 2.2e-13
        nodes, weights = geometry._gauss_legendre(geometry._RADIAL_NODES)
        k = np.arange(2 * geometry._RADIAL_NODES)
        np.testing.assert_allclose((nodes[:, None] ** k).T @ weights,
                                   1.0 / (k + 1), rtol=1e-14, atol=0.0)

    def test_other_dimension_pairs_are_refused(self):
        with pytest.raises(DomainError, match="\\(2, 1\\)"):
            ball_volume(MetricPoint((0.5,), (0.0,)), 1.0)


class TestDoubling:
    Q = 2 + 2 * 1  # homogeneous dimension for d1=2, d2=1

    def test_unit_factor_is_noise_level_one(self):
        ratio = doubling_ratio(MetricPoint((1.0, 0.0), (0.0,)), 0.5, 1.0)
        assert ratio == 1.0

    def test_degenerate_center_scales_homogeneously(self):
        x = MetricPoint((0.0, 0.0), (0.0,))
        for lam in [2.0, 4.0, 8.0]:
            ratio = doubling_ratio(x, 0.5, lam)
            assert ratio == pytest.approx(lam ** self.Q, rel=1e-13)

    def test_sweep_bounded_by_volume_growth(self):
        for xv in [0.0, 1.0, 4.0]:
            for r in [0.5, 1.0]:
                for lam in [1.0, 2.0, 4.0, 8.0]:
                    ratio = doubling_ratio(MetricPoint((xv, 0.0), (0.0,)),
                                           r, lam)
                    assert ratio <= 1.5 * (1.0 + lam) ** self.Q

    def test_rejects_factor_below_one(self):
        with pytest.raises(DomainError):
            doubling_ratio(MetricPoint((0.0,), (0.0,)), 1.0, 0.5)
