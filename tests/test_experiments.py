"""Tests for the experiment drivers: shapes, preconditions, cheap invariants."""

import math

import numpy as np
import pytest

from grushin.errors import AliasingError, DomainError
from grushin.fields import GrushinGrid, SpectralTruncation
from grushin.geometry import grushin_distance, grushin_distance_field
from grushin.hermite import PrimeGrid
from grushin.lab.experiments import (
    ExperimentResult,
    _increasing,
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
from grushin.lab.columns import l1_multiplier_norm
from grushin.lab.profiles import CutoffSpec, PieceProfile, dyadic_pieces


def assert_well_formed(res, kind):
    assert isinstance(res, ExperimentResult)
    assert res.kind == kind
    assert res.rows
    for row in res.rows:
        assert len(row) == len(res.header)


@pytest.mark.parametrize("values", [(np.nan, 4.0, 8.0), (2.0, np.nan, 8.0),
                                    (2.0, 4.0, np.inf)])
def test_increasing_rejects_non_finite_entries(values):
    with pytest.raises(DomainError):
        _increasing(values, "radii")


@pytest.mark.parametrize("call", [
    lambda: bochner_riesz_sweep(deltas=[None]),
    lambda: kernel_support_suite(levels=[1.5], times=[1.0]),
    lambda: kernel_support_suite(levels=["a"], times=[1.0]),
    lambda: weighted_restriction_experiment(gamma="a"),
    lambda: localized_restriction_experiment(y_fix="abc"),
    lambda: multiplier_norm_experiment(torus_half_period=0.0),
    lambda: localized_restriction_experiment(ball_radius=[0.1875, 0.2]),
    # one number where a list is asked for
    lambda: weighted_restriction_experiment(radii=5.0),
    lambda: bochner_riesz_sweep(deltas=1.5),
    lambda: heat_gaussian_check(times=0.1),
    lambda: multiplier_norm_experiment(t_values=0.5),
    lambda: kernel_support_suite(levels=0, times=1.0),
    # sizes no run could finish, refused before any allocation: each was a
    # bare numpy MemoryError
    lambda: geometry_suite(n_triples=10 ** 10),
    lambda: kernel_support_suite(n_prime=100_000),
    lambda: weighted_restriction_experiment(n_scan=10 ** 11),
    lambda: localized_restriction_experiment(n_scan=10 ** 11),
], ids=["deltas-none", "level-fractional", "level-string", "gamma-string",
        "y-fix-string", "multiplier-torus-half-period-zero", "ball-radius-list",
        "radii-scalar", "deltas-scalar", "times-scalar", "t-values-scalar",
        "levels-and-times-scalar", "triples-past-the-cap",
        "grid-past-the-node-cap", "weighted-scan-past-the-cap",
        "localized-scan-past-the-cap"])
def test_bad_numbers_raise_domain_error(call):
    # each was a bare TypeError, ValueError or ZeroDivisionError
    with pytest.raises(DomainError):
        call()


class TestBandProfile:
    def test_support_matches_scale(self):
        prof = band_profile(8.0)
        assert prof.support == (4.0, 64.0)
        lam = np.linspace(0.0, 64.0, 2001)
        vals = np.asarray(prof(lam)).real
        assert vals.max() > 0.9
        assert np.all(vals[lam < 4.0] == 0.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            band_profile(0.0)


class TestWeightedRestriction:
    def test_small_sweep_shape_and_monotone_norms(self):
        res = weighted_restriction_experiment(
            gamma=0.0, radii=(2.0, 4.0, 8.0), n_scan=21)
        assert_well_formed(res, "weighted_restriction")
        assert len(res.rows) == 3
        norms = [row[1] for row in res.rows]
        assert norms[0] < norms[1] < norms[2]
        report = res.summary["radius"]
        assert report["predicted_slope"] == 2.0
        assert abs(report["fitted_slope"] - 2.0) < 0.5
        assert report["abscissae"] == [2.0, 4.0, 8.0]
        assert report["norms"] == norms
        assert all(row[3] == "exact" for row in res.rows)

    def test_gamma_shifts_the_prediction(self):
        res = weighted_restriction_experiment(
            gamma=0.25, radii=(2.0, 4.0, 8.0), n_scan=21)
        assert res.summary["radius"]["predicted_slope"] == 1.75

    def test_preconditions(self):
        with pytest.raises(DomainError):
            weighted_restriction_experiment(gamma=-0.1)
        with pytest.raises(DomainError):
            weighted_restriction_experiment(gamma=0.5)  # needs < d2/2 at p=1
        with pytest.raises(DomainError):
            weighted_restriction_experiment(radii=(4.0, 2.0, 8.0))
        with pytest.raises(DomainError):
            weighted_restriction_experiment(radii=(4.0, 8.0))
        for n_scan in (5.5, 4):
            with pytest.raises(DomainError, match="n_scan"):
                weighted_restriction_experiment(n_scan=n_scan)


class TestLocalizedRestriction:
    def test_small_run_shape(self):
        res = localized_restriction_experiment(
            radii=(4.0, 8.0, 16.0), y_values=(1.5, 3.0, 6.0),
            ball_radius=0.1875, n_scan=5)
        assert_well_formed(res, "localized_restriction")
        assert len(res.rows) == 6  # one scan in R plus one in y
        assert res.summary["radius"]["predicted_slope"] == 1.5
        assert res.summary["height"]["predicted_slope"] == -0.25
        assert res.summary["height"]["abscissae"] == [1.5, 3.0, 6.0]
        assert res.summary["y_fix"] == 3.0
        assert res.summary["r_fix"] == 16.0

    def test_ball_must_stay_off_the_axis(self):
        with pytest.raises(DomainError):
            localized_restriction_experiment(y_values=(0.5, 3.0, 6.0),
                                             ball_radius=0.1875)
        with pytest.raises(DomainError):
            localized_restriction_experiment(ball_radius=0.0)

    @pytest.mark.parametrize("n_scan", [2.5, 1])
    def test_n_scan_must_be_an_integer_of_at_least_two(self, n_scan):
        with pytest.raises(DomainError, match="n_scan"):
            localized_restriction_experiment(n_scan=n_scan)

    def test_y_fix_must_stay_off_the_axis(self):
        # the rule of y_values: 0.5 is below 4 ball_radius = 0.75
        with pytest.raises(DomainError, match="violated by y=0.5"):
            localized_restriction_experiment(y_fix=0.5, ball_radius=0.1875)


class TestBochnerRiesz:
    def test_small_sweep_shape_and_ratio(self):
        res = bochner_riesz_sweep(deltas=(1.5,), radii=(4.0, 8.0, 16.0))
        assert_well_formed(res, "bochner_riesz")
        assert len(res.rows) == 3
        assert set(res.summary["radius"]) == {"1.5"}
        report = res.summary["radius"]["1.5"]
        assert report["max_over_min"] < 4.0
        assert report["norms"] == [row[2] for row in res.rows]
        assert "predicted_slope" not in report
        # a multiplier with F(0) = 1 has L1 norm at least 1 (mass bound)
        assert all(row[2] >= 1.0 for row in res.rows)

    def test_sharp_cutoff_runs_and_grows(self):
        # delta = 0 is the sharp spectral cutoff 1[lambda < R^2], whose
        # L1 norms grow without bound in R
        res = bochner_riesz_sweep(deltas=(0.0,), radii=(4.0, 8.0, 16.0))
        assert_well_formed(res, "bochner_riesz")
        norms = [row[2] for row in res.rows]
        assert all(b > 1.5 * a for a, b in zip(norms, norms[1:]))

    def test_rejects_negative_delta(self):
        with pytest.raises(DomainError):
            bochner_riesz_sweep(deltas=(-0.5,))

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(DomainError):
            bochner_riesz_sweep(deltas=(delta,), radii=(2.0, 4.0, 8.0))

    def test_rejects_deltas_that_share_a_summary_key(self):
        # both print as "1.5", so one report would replace the other
        with pytest.raises(DomainError, match="share the summary key 1.5"):
            bochner_riesz_sweep(deltas=(1.5, 1.5000001), radii=(2.0, 4.0, 8.0))


class TestMultiplierNorm:
    def test_uniformity(self):
        res = multiplier_norm_experiment(t_values=(0.25, 1.0, 4.0))
        assert_well_formed(res, "multiplier_norm")
        assert res.summary["t"]["max_over_min"] < 8.0
        assert res.summary["t"]["abscissae"] == [0.25, 1.0, 4.0]
        assert res.summary["sobolev_norms"]["2"] > 0.0

    def test_ratio_columns_consistent(self):
        res = multiplier_norm_experiment(t_values=(0.5, 1.0, 2.0),
                                         sobolev_orders=(1.0, 3.0))
        assert len(res.rows) == 6
        for t, s, norm, sob, ratio, cert in res.rows:
            assert ratio == pytest.approx(norm / sob, rel=1e-12)
            assert cert == "exact"

    def test_one_norm_per_foot(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["u"])
            return l1_multiplier_norm(*args, **kwargs)

        monkeypatch.setattr("grushin.lab.experiments.l1_multiplier_norm",
                            counting)
        t_values = (0.25, 1.0, 4.0)
        multiplier_norm_experiment(t_values=t_values)
        # three feet per t, and nothing else
        assert len(calls) == 3 * len(t_values)

    def test_rejects_bad_times_and_orders(self):
        with pytest.raises(DomainError):
            multiplier_norm_experiment(t_values=())
        with pytest.raises(DomainError):
            multiplier_norm_experiment(t_values=(0.0, 1.0))
        with pytest.raises(DomainError, match="strictly increasing"):
            multiplier_norm_experiment(t_values=(1.0, 0.5, 2.0))
        with pytest.raises(DomainError):
            multiplier_norm_experiment(sobolev_orders=())

    def test_rejects_orders_that_share_a_summary_key(self):
        with pytest.raises(DomainError, match="share the summary key 2"):
            multiplier_norm_experiment(sobolev_orders=(2.0, 2.0000001))


class TestHeatGaussian:
    def test_default_design_fits_a_line(self):
        res = heat_gaussian_check()
        assert_well_formed(res, "heat_gaussian")
        s = res.summary
        assert s["decay_rate_b"] > 0.0
        assert s["r_squared"] >= 0.9
        assert s["on_diag_ratio"] <= 4.0
        assert s["n_points"] == len(res.rows)
        assert s["min_kernel_value"] >= 0.0

    @pytest.mark.parametrize("d1", [1, 2, 3])
    def test_every_prime_dimension_fits_a_line(self, d1):
        s = heat_gaussian_check(d1=d1).summary
        assert s["decay_rate_b"] > 0.0
        assert s["r_squared"] >= 0.9
        assert s["on_diag_ratio"] <= 4.0

    def test_one_distance_per_pair(self, monkeypatch):
        calls = []

        def counting(x, y):
            calls.append((x, y))
            return grushin_distance(x, y)

        monkeypatch.setattr("grushin.lab.experiments.grushin_distance",
                            counting)
        res = heat_gaussian_check()
        # 45 pairs at each of the three times
        assert len(calls) == len(res.rows) // 3 == 45

    def test_single_time_still_fits(self):
        res = heat_gaussian_check(times=(0.1,))
        assert res.summary["decay_rate_b"] > 0.0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            heat_gaussian_check(times=(0.0,))
        with pytest.raises(DomainError):
            heat_gaussian_check(d1=4)
        # the second-layer offset 0.2 lies beyond the aliasing-safe half
        with pytest.raises(DomainError, match="aliasing-safe"):
            heat_gaussian_check(torus_half_period=0.3)

    @pytest.mark.parametrize("half_period", [math.nan, math.inf, 0.0])
    def test_rejects_bad_torus_half_period(self, half_period):
        with pytest.raises(DomainError, match="torus half period"):
            heat_gaussian_check(torus_half_period=half_period)


class TestKernelSupport:
    cs = CutoffSpec.standard()

    kappas = (1.1, 1.5, 2.0)
    # small_kwargs as kernel_support_suite turns them into a grid and policy
    small = (GrushinGrid(PrimeGrid(12.0, 96, 2), 4.0, 64, 1),
             SpectralTruncation(k_max=16, lambda_max=16.0))

    def small_kwargs(self):
        return dict(prime_extent=12.0, n_prime=96, torus_half_period=4.0,
                    n_second=64, k_max=16, lambda_max=16.0)

    def test_fractions_decrease_in_kappa(self):
        pieces = dyadic_pieces(self.cs.eta, self.cs, n_levels=1)
        res = kernel_support_check(pieces[0], 1.0, self.kappas, *self.small)
        assert_well_formed(res, "kernel_support")
        f = res.summary["fractions_outside"]
        assert f["1.1"] >= f["1.5"] >= f["2"]
        assert res.summary["total_mass"] > 0.0
        assert not res.summary["zero_kernel"]

    def test_zero_piece_flagged(self):
        nodes = np.linspace(0.0, 1.0, 33)
        weights = np.full(33, nodes[1] - nodes[0])
        zero = PieceProfile(level=0, nodes=nodes, weights=weights,
                            amplitudes=np.zeros(33))
        res = kernel_support_check(zero, 1.0, self.kappas, *self.small)
        assert res.summary["zero_kernel"]
        assert all(v == 0.0 for v in res.summary["fractions_outside"].values())

    def test_support_radius_guard(self):
        pieces = dyadic_pieces(self.cs.eta, self.cs, n_levels=2)
        with pytest.raises(AliasingError):
            kernel_support_check(pieces[2], 1.0, self.kappas, *self.small)
        with pytest.raises(DomainError):
            kernel_support_check(pieces[0], 0.0, self.kappas, *self.small)

    @pytest.mark.parametrize("scale_time, kappas", [
        (np.nan, (1.1, 1.5)), (1.0, (np.nan, 1.5)), (1.0, (1.1, np.inf))],
        ids=["nan-time", "nan-kappa", "inf-kappa"])
    def test_non_finite_time_or_kappa_is_refused(self, scale_time, kappas):
        piece = dyadic_pieces(self.cs.eta, self.cs, n_levels=1)[0]
        with pytest.raises(DomainError, match="finite"):
            kernel_support_check(piece, scale_time, kappas, *self.small)

    def test_rejects_kappas_that_share_a_summary_key(self):
        piece = dyadic_pieces(self.cs.eta, self.cs, n_levels=1)[0]
        with pytest.raises(DomainError, match="share the summary key 1.1"):
            kernel_support_check(piece, 1.0, (1.1, 1.1000001), *self.small)
        with pytest.raises(DomainError, match="share the summary key 1.1"):
            kernel_support_suite(levels=(0,), times=(0.5,),
                                 kappas=(1.1000001, 1.1),
                                 **self.small_kwargs())

    def test_suite_collects_worst_case(self):
        res = kernel_support_suite(levels=(0, 1), times=(0.5, 0.5),
                                   **self.small_kwargs())
        assert_well_formed(res, "kernel_support")
        assert len(res.rows) == 6
        worst = res.summary["worst_fraction_outside"]
        per_kappa = {}
        for level, t, kappa, radius, frac in res.rows:
            key = f"{kappa:g}"
            per_kappa[key] = max(per_kappa.get(key, 0.0), frac)
        assert worst == per_kappa

    def test_default_suite_builds_one_distance_field(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return grushin_distance_field(*args, **kwargs)

        monkeypatch.setattr("grushin.lab.experiments.grushin_distance_field",
                            counting)
        res = kernel_support_suite()
        assert len(res.rows) == 9  # three runs of three kappas
        assert len(calls) == 1

    def test_suite_rejects_missing_level(self):
        with pytest.raises(DomainError):
            kernel_support_suite(levels=(-1,), times=(0.5,),
                                 **self.small_kwargs())


class TestGeometrySuite:
    def test_reduced_budgets(self):
        res = geometry_suite(seed=0, n_triples=5000)
        assert_well_formed(res, "geometry_suite")
        s = res.summary
        assert s["interface_max_gap"] == 0.0
        assert s["triangle_constant"] <= 4.0
        assert s["volume_comparability"] <= 16.0
        assert s["doubling_excess"] <= 1.5
        assert s["homogeneous_dimension"] == 4

    def test_default_rows_have_distinct_keys(self):
        # a reader of report.csv tells rows apart by their first three
        # columns; the doubling rows at r = 0.5 and r = 1 differ by radius
        keys = [tuple(row[:3]) for row in geometry_suite().rows]
        assert len(set(keys)) == len(keys)
        assert {k[0] for k in keys if k[0].startswith("doubling")} == {
            "doubling r=0.5", "doubling r=1"}

    def test_deterministic(self):
        a = geometry_suite(seed=3, n_triples=2000)
        b = geometry_suite(seed=3, n_triples=2000)
        assert a.rows == b.rows

    def test_rejects_empty_budgets(self):
        with pytest.raises(DomainError):
            geometry_suite(n_triples=0)


class TestDistanceTable:
    def test_graded_branch_example(self):
        res = distance_table([[[1.0, 0.0], [0.0], [1.0, 0.0], [0.08]]])
        assert_well_formed(res, "distance_table")
        assert res.rows[0][-1] == pytest.approx(0.04, abs=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            distance_table([])

    @pytest.mark.parametrize("pairs", [
        5, [[[0.0], [0.0], [1.0]]], [[[0.0], [0.0], [1.0], 0.0]],
        [[[0.0], [0.0], [1.0], ["a"]]], [[[0.0, 0.0], [0.0], [1.0], [0.0]]],
        [[[0.0], [0.0, 1.0], [1.0], [0.0]]], [[[], [], [], []]],
    ], ids=["not-a-list", "three-parts", "scalar-part", "non-numeric-part",
            "prime-lengths-differ", "second-lengths-differ", "empty-parts"])
    def test_rejects_malformed_pairs(self, pairs):
        with pytest.raises(DomainError):
            distance_table(pairs)
