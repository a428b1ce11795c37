"""Tests of the benchmark's own checkers and tracer.

    PYTHONPATH=src python3 -m pytest benchmark -q

Each independent reference must accept correct program outputs on small
inputs and reject a known wrong value; the tracer must leave program outputs
bit-identical and restore every function it wrapped.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, targets  # noqa: E402

from grushin import engine, geometry  # noqa: E402
from grushin.fields import GrushinGrid, MultiplierProfile, SpectralTruncation  # noqa: E402
from grushin.hermite import PrimeGrid  # noqa: E402
from grushin.lab import columns, radial  # noqa: E402
from grushin.lab.experiments import band_profile  # noqa: E402
from grushin.lab.profiles import CutoffSpec, dyadic_pieces  # noqa: E402

# the grid and truncation of the engine_columns heat columns
HEAT_GRID = GrushinGrid(PrimeGrid(8.0, 192, 2), 1.0, 128, 1)
HEAT_TRUNC = SpectralTruncation(k_max=48, lambda_max=280.0)


@pytest.fixture(scope="module")
def heat_column():
    foot = (1.0, 0.5)
    col = engine.schwartz_kernel_column(MultiplierProfile.heat(0.1), HEAT_GRID,
                                        foot, (0.0,), HEAT_TRUNC)
    return foot, col.values


class TestMehler:
    def test_matches_pointwise_heat_kernel(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, (6, 3))
        for t in (0.05, 0.1, 0.2):
            got = ref.mehler_heat_kernel(pts[:, :2], pts[:, 2], (0.5, -0.25),
                                         0.3, t, 1.0)
            want = [columns.heat_kernel_pointwise(((a, b), (c,)),
                                                  ((0.5, -0.25), (0.3,)), t, 1.0)
                    for a, b, c in pts]
            # the pointwise sum stops where its terms reach machine noise
            scale = max(abs(w) for w in want)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * scale)

    def test_accepts_engine_column_and_rejects_perturbed(self, heat_column):
        foot, values = heat_column
        ax, sec = HEAT_GRID.prime.axis, HEAT_GRID.second_axis
        rng = np.random.default_rng(0)
        i0, j0 = (int(np.argmin(np.abs(ax - f))) for f in foot)
        picks = np.column_stack([i0 + rng.integers(-12, 13, 30),
                                 j0 + rng.integers(-12, 13, 30),
                                 rng.integers(sec.size, size=30)])
        picks[0] = (i0, j0, int(np.argmin(np.abs(sec))))
        want = ref.mehler_heat_kernel(
            np.column_stack([ax[picks[:, 0]], ax[picks[:, 1]]]),
            sec[picks[:, 2]], foot, 0.0, 0.1, 1.0)
        got = values[tuple(picks.T)]
        assert ref.mehler_ok(got, want)
        assert not ref.mehler_ok(got * (1.0 + 1e-7), want)

    def test_unit_heat_mass(self, heat_column):
        _, values = heat_column
        assert ref.mass_ok(values.sum() * HEAT_GRID.cell_volume, 1.0)
        assert not ref.mass_ok(1.0039, 1.0)


class TestHeatL1:
    @pytest.mark.parametrize("t", [0.05, 0.1, 0.2])
    def test_mehler_grid_sum_meets_tolerance(self, t):
        assert ref.heat_l1_ok(ref.mehler_l1_grid_sum(t, math.pi / 2.0))

    def test_rejects_biased_norm(self):
        # l1_multiplier_norm(heat(0.1), pi/2) with the endpoint-biased zero slab
        assert not ref.heat_l1_ok(1.0039)
        assert not ref.heat_l1_ok(float("nan"))


class TestGamma0ClosedForm:
    def test_matches_radial_path(self):
        profile = band_profile(8.0)
        u = np.array([0.0, 0.5, 3.0])
        got = radial.weighted_column_norms(profile, u, 0.0, math.pi,
                                           k_max=4000, lambda_max=64.0)
        want = ref.gamma0_column_norms(profile, u, math.pi, 64.0)
        assert ref.closed_form_ok(got, want)
        assert not ref.closed_form_ok(got * (1.0 + 1e-6), want)

    def test_on_axis_is_the_even_level_sum(self):
        # Q_k(0) = 1/pi for even k: sqrt((1/2S) sum_{j!=0} sum_{k even}
        # |F((2k+2)|xi_j|)|^2 |xi_j| / pi)
        profile, lam_max, s = band_profile(16.0), 256.0, math.pi
        total, j = 0.0, 1
        while 2.0 * j <= lam_max:
            k = np.arange(0, int((lam_max / j - 2.0) // 2) + 1, 2)
            total += 2.0 * j / math.pi * np.sum(
                np.abs(profile((2.0 * k + 2.0) * j)) ** 2)
            j += 1
        want = math.sqrt(total / (2.0 * s))
        got = ref.gamma0_column_norms(profile, [0.0], s, lam_max)[0]
        assert got == pytest.approx(want, rel=1e-12)


class TestHolder:
    def test_accepts_program_norms_below_the_fault(self):
        profile = band_profile(8.0)
        feet = np.linspace(2.8125, 3.1875, 17)
        kw = dict(k_max=4000, lambda_max=64.0)
        weighted = radial.weighted_column_norms(profile, feet, 0.25, math.pi, **kw)
        plain = radial.weighted_column_norms(profile, feet, 0.0, math.pi, **kw)
        assert ref.holder_ok(weighted.max(), plain.max(),
                             ref.holder_factor(64.0, 1.0, 0.25))

    def test_rejects_blown_up_norm(self):
        # the gamma=0.25 ball norm at R=16 against its gamma=0 partner
        assert not ref.holder_ok(2.6e12, 2.4674, ref.holder_factor(256.0, 1.0, 0.25))
        assert not ref.holder_ok(float("inf"), 2.4674, 2.0)

    def test_factor_is_one_without_weight(self):
        assert ref.holder_factor(1024.0, 1.0, 0.0) == 1.0


class TestOtherChecks:
    def test_piece_value_at_zero(self):
        cutoffs = CutoffSpec.standard()
        for piece in dyadic_pieces(cutoffs.eta, cutoffs, n_levels=2):
            want = float(piece(0.0)[0])
            got = ref.piece_value_at_zero(piece.weights, piece.amplitudes)
            assert got == pytest.approx(want, rel=1e-12)

    def test_fractions(self):
        kappas = workloads.SUPPORT_KAPPAS
        # the level-0 kernel_support column
        assert ref.fractions_ok(kappas, [0.0227, 0.0068, 0.0034])
        # level 1 evaluated at twice its scale time: mass leaves the cone
        assert not ref.fractions_ok(kappas, [0.0727, 0.0432, 0.0009])
        assert not ref.fractions_ok(kappas, [0.01, 0.02, 0.0])
        assert not ref.fractions_ok(kappas, [float("nan"), 0.0, 0.0])

    def test_slope(self):
        radii = [4.0, 8.0, 16.0, 32.0]
        assert ref.fitted_slope(radii, [3.0 * r ** 2 for r in radii]) == \
            pytest.approx(2.0)
        assert ref.slope_ok(2.05)
        assert not ref.slope_ok(170.0)

    def test_br_norm_floor(self):
        assert ref.br_norm_ok(1.46)
        assert not ref.br_norm_ok(0.9)
        assert not ref.br_norm_ok(float("nan"))


class TestWorkloadChecks:
    def test_radial_check_flags_only_the_blown_up_balls(self):
        wl = workloads.build_restriction_radial(0)
        out = {}
        for R in workloads.OPNORM_RADII:
            want = ref.gamma0_column_norms(band_profile(R), [0.0], math.pi, R * R)
            out[f"opnorm R={R:g}"] = (float(want[0]), 0.0)
        feet = np.linspace(2.8125, 3.1875, 17)
        for R, blown in ((8.0, 1.0), (16.0, 2.6e12), (32.0, 4.5e102)):
            plain = ref.gamma0_column_norms(band_profile(R), feet, math.pi, R * R)
            out[f"ball R={R:g} gamma=0"] = plain
            out[f"ball R={R:g} gamma=0.25"] = np.full(17, blown)
        failed, problems = wl.check(out)
        assert failed == {"ball R=16 gamma=0.25", "ball R=32 gamma=0.25"}
        assert problems == []
        known = {op.name for op in wl.ops if op.known_fault}
        assert known == failed

    def test_bochner_check_flags_heat_and_round_properties(self):
        wl = workloads.build_bochner_l1(0)
        out = {op.name: 2.0 for op in wl.ops}
        out.update({f"heat t={t:g}": 1.0039 for t in workloads.HEAT_TIMES_L1})
        failed, problems = wl.check(out)
        assert failed == {op.name for op in wl.ops if op.known_fault}
        # delta=0.2 norms that do not grow with R are flagged
        assert len(problems) == 1 and "delta=0.2" in problems[0]

    def test_seed_draws_the_inputs(self):
        a = workloads.build_engine_columns(1)
        b = workloads.build_engine_columns(1)
        c = workloads.build_engine_columns(2)
        assert a.meta == b.meta and a.meta != c.meta
        assert [op.name for op in a.ops] == [op.name for op in b.ops]


class TestTracer:
    def test_outputs_identical_and_wrappers_removed(self):
        originals = [owner.__dict__[name] for owner, name, _, _ in targets()]
        grid = GrushinGrid(PrimeGrid(8.0, 64, 2), 2.0, 16, 1)
        trunc = SpectralTruncation(k_max=16, lambda_max=30.0)
        br = workloads._br_profile(4.0, 0.5)

        def outputs():
            return [
                columns.l1_multiplier_norm(
                    br, math.pi / 2.0, u=0.25, lambda_max=16.0,
                    xi_zero_radial=lambda r: columns.bochner_riesz_radial_kernel(
                        4.0, 0.5, r)),
                columns.l1_multiplier_norm(MultiplierProfile.heat(0.2),
                                           math.pi / 2.0),
                radial.weighted_column_norms(band_profile(8.0), [0.0, 3.0],
                                             0.25, math.pi, 4000, 64.0),
                engine.schwartz_kernel_column(MultiplierProfile.heat(0.2), grid,
                                              (0.0, 0.0), (0.0,), trunc).values,
                geometry.grushin_distance_field(grid, (0.0, 0.0), (0.0,)),
            ]

        plain = outputs()
        tracer = Tracer()
        with tracer.installed():
            traced = outputs()
        for a, b in zip(plain, traced):
            assert workloads.fingerprint(a) == workloads.fingerprint(b)
        now = [owner.__dict__[name] for owner, name, _, _ in targets()]
        assert all(x is y for x, y in zip(originals, now))
        m = tracer.metrics()
        assert m["columns.l1_norm_calls"] == 2
        assert m["radial.feet"] == 2
        assert m["radial.gauss_modes_calls"] > 0
        assert m["engine.xi_groups"] > 0 and m["hermite.table_values"] > 0
        assert m["columns.irfft_values"] > 0
        # self times are non-negative and never exceed the enclosing span
        assert 0.0 <= m["columns.self_s"] <= m["columns.l1_norm_s"]
        assert 0.0 <= m["engine.self_s"] <= m["engine.apply_multiplier_s"]


def test_metric_names_match_benchmark_json():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(Tracer().metrics()) | {"trace.overhead_pct"}
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.BUILDERS) == list(run.WORKLOADS)


def test_round_count_is_fixed_and_traced_rounds_pair_up():
    for workload in run.WORKLOADS:
        for seconds in (1, 30, 60):
            assert run.round_count(workload, seconds, 0) >= 1
            traced = run.round_count(workload, seconds, 1)
            assert traced >= 2 and traced % 2 == 0


def test_traced_summary_weighs_both_pass_orders_alike():
    # round 0 runs the traced pass second, round 1 first
    rounds = [{"correct": True, "attempted": 1, "failed": 0, "wall_s": 1.0,
               "traced_wall_s": 1.0 + bias, "layers": {"engine.fft_s": 1.0 + bias}}
              for bias in (-0.05, 0.05)]
    args = run.argparse.Namespace(trace=1)
    metrics = run.summarize(args, rounds, [])["metrics"]
    assert metrics["trace.overhead_pct"]["value"] == pytest.approx(0.0, abs=1e-12)
    assert metrics["engine.fft_s"]["value"] == pytest.approx(1.0)
