"""Container types: grids, fields, profiles, truncation."""

import numpy as np
import pytest
from oracles import (
    delta_field,
    field_from_function,
    indicator,
    inner,
    norm_lp,
    wave_cosine,
    xi_index,
)

from grushin import engine
from grushin.engine import schwartz_kernel_column
from grushin.errors import ContractViolation, DomainError
from grushin.fields import (
    Dims,
    Field,
    GrushinGrid,
    MultiplierProfile,
    SpectralTruncation,
)
from grushin.geometry import MetricPoint, ball_volume, ball_volume_model
from grushin.hermite import PrimeGrid
from grushin.lab.columns import heat_kernel_pointwise, l1_multiplier_norm
from grushin.lab.experiments import geometry_suite, heat_gaussian_check
from grushin.lab.radial import weighted_column_norms
from grushin.lab.reports import sweep_report


def small_grid():
    return GrushinGrid(PrimeGrid(6.0, 32, 2), np.pi, 16, 1)


class TestDims:
    def test_homogeneous_dimension(self):
        assert Dims(2, 1).homogeneous == 4
        assert Dims(1, 1).homogeneous == 3
        assert Dims(3, 2).homogeneous == 7

    def test_critical_exponent_dimension(self):
        # max(d1+d2, 2 d2)
        assert Dims(2, 1).critical == 3
        assert Dims(1, 3).critical == 6
        assert Dims(2, 2).critical == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Dims(0, 1)
        with pytest.raises(DomainError):
            Dims(2, 0)


class TestGrushinGrid:
    def test_axes_and_spacings(self):
        g = small_grid()
        assert g.shape == (32, 32, 16)
        assert g.second_spacing == pytest.approx(2 * np.pi / 16)
        assert g.xi_spacing == pytest.approx(1.0)
        # second axis starts at -S and contains 0
        assert g.second_axis[0] == pytest.approx(-np.pi)
        assert 0.0 in g.second_axis

    def test_xi_axis_fft_order(self):
        g = small_grid()
        xi = xi_index(g) * g.xi_spacing
        assert xi[0] == 0.0
        assert xi[1] == pytest.approx(g.xi_spacing)
        assert xi[8] == pytest.approx(-8 * g.xi_spacing)

    def test_cell_volume(self):
        g = small_grid()
        dx = 12.0 / 32
        assert g.cell_volume == pytest.approx(dx * dx * (2 * np.pi / 16))

    def test_locate_exact_node(self):
        g = small_grid()
        i = g.locate((0.0, 0.0), (0.0,))
        assert g.prime.axis[i[0]] == 0.0
        assert g.second_axis[i[2]] == 0.0
        dx = g.prime.spacing
        i2 = g.locate((dx * 3, -dx * 5), (g.second_spacing * 2,))
        assert i2 == (i[0] + 3, i[1] - 5, i[2] + 2)

    def test_locate_off_grid_raises(self):
        g = small_grid()
        with pytest.raises(ContractViolation):
            g.locate((0.1234, 0.0), (0.0,))

    def test_locate_names_the_axis_of_an_off_grid_coordinate(self):
        g = small_grid()
        with pytest.raises(ContractViolation,
                           match=r"^torus coordinate 0\.1234 is not a grid node"):
            g.locate((0.0, 0.0), (np.float64(0.1234),))

    def test_locate_wrong_dims(self):
        g = small_grid()
        with pytest.raises(ContractViolation):
            g.locate((0.0,), (0.0,))

    def test_odd_n_second_rejected(self):
        with pytest.raises(DomainError):
            GrushinGrid(PrimeGrid(6.0, 32, 2), np.pi, 15, 1)


class TestField:
    def test_shape_mismatch(self):
        g = small_grid()
        with pytest.raises(ContractViolation):
            Field(g, np.zeros((4, 4, 4)))

    def test_l2_norm_constant(self):
        g = small_grid()
        f = Field(g, np.ones(g.shape))
        vol = (12.0 ** 2) * 2 * np.pi
        assert norm_lp(f, 2) == pytest.approx(np.sqrt(vol))
        assert norm_lp(f, 1) == pytest.approx(vol)
        assert norm_lp(f, np.inf) == 1.0

    def test_inner_matches_norm(self):
        g = small_grid()
        rng = np.random.default_rng(3)
        f = Field(g, rng.standard_normal(g.shape))
        assert inner(f, f) == pytest.approx(norm_lp(f, 2) ** 2)

    def test_delta_unit_mass(self):
        g = small_grid()
        d = delta_field(g, (0.0, 0.0), (0.0,))
        assert np.sum(d.values) * g.cell_volume == pytest.approx(1.0)
        assert norm_lp(d, 1) == pytest.approx(1.0)

    def test_from_function(self):
        g = small_grid()
        f = field_from_function(g, lambda x1, x2, y: x1 + 2 * x2 + 3 * y)
        i = g.locate((g.prime.spacing, 0.0), (g.second_spacing,))
        assert f.values[i] == pytest.approx(g.prime.spacing + 3 * g.second_spacing)


class TestMultiplierProfile:
    def test_vanishes_outside_support(self):
        # the raw evaluator has a tiny tail past the edge; the profile call
        # must return exact zeros there, and raw values inside
        p = MultiplierProfile.heat(1.0)
        edge = p.support[1]
        lam = np.array([0.0, 0.5 * edge, 1.1 * edge, 2.0 * edge])
        vals = p(lam)
        assert vals.dtype == np.float64
        assert np.exp(-lam[2]) > 0.0  # the unmasked tail is not zero
        assert vals[2] == 0.0 and vals[3] == 0.0
        assert vals[0] == 1.0  # lo = 0 leaves the bottom of the spectrum open
        assert vals[1] == np.exp(-0.5 * edge)

    def test_indicator_profile_masks_band(self):
        p = indicator(0.25, 1.0)
        lam = np.array([0.0, 0.2, 0.25, 0.5, 1.0, 1.1, 50.0])
        vals = p(lam)
        assert np.all(vals[[0, 1, 5, 6]] == 0)
        assert np.all(vals[[2, 3, 4]] == 1.0)

    def test_construction_probe_rejects_lying_support(self):
        # evaluator visibly nonzero below the claimed lower edge
        with pytest.raises(ContractViolation):
            MultiplierProfile(lambda lam: np.exp(-lam), (0.5, 2.0))

    def test_construction_probe_rejects_nan_outside_support(self):
        # NaN does not vanish: it fails the check as a large value would
        with pytest.raises(ContractViolation):
            MultiplierProfile(
                lambda lam: np.where((lam >= 1) & (lam <= 2), 1.0, np.nan),
                (1.0, 2.0))

    def test_heat_profile(self):
        p = MultiplierProfile.heat(0.5)
        assert p(np.array([2.0]))[0] == pytest.approx(np.exp(-1.0))
        # natural decay edge: value at the support edge is ~1e-14
        assert p.support[1] == pytest.approx(np.log(1e14) / 0.5)

    def test_bochner_riesz_profile(self):
        p = MultiplierProfile.bochner_riesz(0.25, 1.5)
        lam = np.array([0.0, 2.0, 4.0, 5.0])
        expect = np.array([1.0, 0.5 ** 1.5, 0.0, 0.0])
        assert np.allclose(p(lam), expect)
        sharp = MultiplierProfile.bochner_riesz(0.25, 0.0)
        assert np.allclose(sharp(lam), [1.0, 1.0, 0.0, 0.0])

    def test_wave_profile(self):
        p = wave_cosine(2.0)
        assert p(np.array([np.pi ** 2]))[0] == pytest.approx(np.cos(2 * np.pi))

    def test_rejects_bad_support(self):
        with pytest.raises(DomainError):
            MultiplierProfile(lambda lam: lam, (-1.0, 2.0))
        with pytest.raises(DomainError):
            MultiplierProfile(lambda lam: lam, (2.0, 1.0))

    def test_int_edge_past_the_float_range_means_no_upper_edge(self):
        # as in eigenvalue_cap; float(10 ** 400) would overflow
        p = MultiplierProfile(lambda lam: np.exp(-lam), (0.0, 10 ** 400))
        assert p.support == (0.0, np.inf)
        with pytest.raises(DomainError):
            MultiplierProfile(lambda lam: lam, (10 ** 400, 10 ** 401))


class TestSpectralTruncation:
    def test_bad_params(self):
        with pytest.raises(DomainError):
            SpectralTruncation(-1, 20.0)
        with pytest.raises(DomainError):
            SpectralTruncation(8, 0.0)


@pytest.mark.parametrize("build", [
    lambda: PrimeGrid(np.nan, 16, 2),
    lambda: GrushinGrid(PrimeGrid(6.0, 32, 2), np.inf, 16, 1),
    lambda: SpectralTruncation(8, np.inf),
    lambda: ball_volume(MetricPoint((0.0, 0.0), (0.0,)), np.nan),
    lambda: MultiplierProfile.bochner_riesz(0.1, np.nan),
    lambda: ball_volume_model(MetricPoint((0.0, 0.0), (0.0,)), np.nan),
    lambda: ball_volume_model(MetricPoint((0.0, 0.0), (0.0,)), np.inf),
    lambda: sweep_report([1.0, 2.0, 4.0], [1.0, np.nan, 4.0], 1.0),
    lambda: heat_kernel_pointwise(((0.0, 0.0), (0.0,)), ((0.0, 0.0), (0.0,)),
                                  np.nan, 12.0),
    lambda: heat_gaussian_check(times=[np.nan]),
    # out of domain, though finite
    lambda: GrushinGrid(PrimeGrid(6.0, 32, 2), np.pi, 16, 2),
    # a grid no run could finish, refused before any allocation
    lambda: GrushinGrid(PrimeGrid(22.0, 100_000, 2), 6.0, 128, 1),
    # k > nan is always false, so a NaN k_max would switch the level check off
    lambda: SpectralTruncation(np.nan, 26.0),
    lambda: SpectralTruncation(3.5, 26.0),
    lambda: wave_cosine(np.nan),
    # refused before the coordinate is rounded to an index
    lambda: small_grid().locate((np.nan, 0.0), (0.0,)),
    lambda: schwartz_kernel_column(
        MultiplierProfile.heat(0.1), GrushinGrid(PrimeGrid(7.0, 64, 2), np.pi / 2, 32, 1),
        (np.nan, 0.0), (0.0,), SpectralTruncation(3, 26.0)),
    # not a number: each was a bare TypeError
    lambda: MultiplierProfile.heat("a"),
    lambda: SpectralTruncation(4, "16"),
    lambda: SpectralTruncation(4, None),
    lambda: GrushinGrid(PrimeGrid(6.0, 32, 2), "a", 4, 1),
    # one number given a list or an array: a bare error or taken silently
    lambda: MultiplierProfile.heat(np.array([0.1, 0.2])),
    lambda: MultiplierProfile.heat([0.1]),
    lambda: PrimeGrid([4.0], 8, 2),
    lambda: GrushinGrid(PrimeGrid(4.0, 8, 2), [2.0, 3.0], 8, 1),
    lambda: SpectralTruncation(4, [16.0, 2.0]),
    # a support edge that is not a number, or a third edge
    lambda: MultiplierProfile(lambda lam: 0.0 * lam, (0.0, "a")),
    lambda: MultiplierProfile(lambda lam: 0.0 * lam, (0.0, "5")),
    lambda: MultiplierProfile(lambda lam: 0.0 * lam, (0.0, 1.0, 2.0)),
], ids=["prime-extent-nan", "torus-half-period-inf", "lambda-max-inf",
        "ball-radius-nan", "bochner-riesz-delta-nan", "ball-model-radius-nan",
        "ball-model-radius-inf", "scaling-fit-norm-nan",
        "heat-kernel-time-nan", "heat-check-time-nan",
        "grid-two-torus-axes", "grid-past-the-node-cap", "k-max-nan",
        "k-max-fractional", "wave-time-nan", "locate-foot-nan",
        "kernel-column-foot-nan", "heat-time-string", "lambda-max-string",
        "lambda-max-none", "torus-half-period-string", "heat-time-array",
        "heat-time-list", "prime-extent-list", "torus-half-period-list",
        "lambda-max-list", "support-edge-string", "support-edge-digits",
        "support-three-edges"])
def test_non_finite_parameters_raise_domain_error(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("name,build", [
    ("k_max", lambda: SpectralTruncation(True, 26.0)),
    ("k_max", lambda: SpectralTruncation(2.0, 26.0)),
    ("seed", lambda: geometry_suite(n_triples=10, seed=1.5)),
    ("seed", lambda: geometry_suite(n_triples=10, seed=True)),
    ("n_triples", lambda: geometry_suite(n_triples=2.5)),
    ("d1", lambda: heat_gaussian_check(d1=True)),
    ("d1", lambda: heat_gaussian_check(d1=2.0)),
    ("d1", lambda: heat_gaussian_check(d1=0)),
    ("n_points", lambda: PrimeGrid(4.0, 2.5, 2)),
    ("n_points", lambda: PrimeGrid(4.0, "a", 2)),
    ("d1", lambda: PrimeGrid(4.0, 8, 1.5)),
    ("n_second", lambda: GrushinGrid(PrimeGrid(6.0, 32, 2), np.pi, 4.0, 1)),
    ("d1", lambda: Dims(1.5, 1)),
    ("d1", lambda: Dims("a", 1)),
], ids=["k-max-bool", "k-max-float", "suite-seed-fractional", "suite-seed-bool",
        "suite-triples-fractional", "heat-d1-bool", "heat-d1-float",
        "heat-d1-zero", "prime-points-fractional", "prime-points-string", "prime-d1-fractional",
        "torus-points-float", "dims-d1-fractional", "dims-d1-string"])
def test_integer_parameters_refuse_other_values(name, build):
    with pytest.raises(DomainError, match=f"{name} must be an integer >= "):
        build()


def engine_grid():
    # inside the engine's grid cap for lambda_max = 12 (cap 7 at |xi| = 1),
    # so a refusal below comes from the profile check, not the cap
    return GrushinGrid(PrimeGrid(8.0, 32, 2), np.pi, 16, 1)


ENGINE_PATHS = [
    lambda prof: schwartz_kernel_column(prof, engine_grid(), (0.0, 0.0),
                                        (0.0,), SpectralTruncation(8, 12.0)),
    lambda prof: engine.apply_multiplier(
        prof, delta_field(engine_grid(), (0.0, 0.0), (0.0,)),
        SpectralTruncation(8, 12.0)),
]


@pytest.mark.parametrize("evaluate", ENGINE_PATHS,
                         ids=["schwartz_kernel_column", "apply_multiplier"])
def test_finite_profile_runs_on_the_engine_grid(evaluate):
    finite = MultiplierProfile(
        lambda lam: np.maximum(0.0, 1.0 - lam / 12.0) ** 1.5, (0.0, 12.0))
    values = evaluate(finite).values
    assert np.all(np.isfinite(values)) and np.any(values != 0.0)


def nan_inside_profile():
    # vanishes above its support, as the constructor demands, but is NaN on
    # part of it
    return MultiplierProfile(
        lambda lam: np.where(lam > 12.0, 0.0,
                             np.where(lam < 3.0, 1.0, np.nan)),
        (0.0, 12.0), label="nan-inside")


@pytest.mark.parametrize("evaluate", [
    ENGINE_PATHS[0],
    lambda prof: weighted_column_norms(prof, [0.0, 1.0], 0.0, np.pi, 40, 12.0),
    lambda prof: l1_multiplier_norm(prof, np.pi / 2.0, lambda_max=12.0),
], ids=["engine", "radial", "columns"])
def test_non_finite_profile_values_raise_domain_error(evaluate):
    with pytest.raises(DomainError, match="nan-inside"):
        evaluate(nan_inside_profile())


@pytest.mark.parametrize("evaluate", [
    ENGINE_PATHS[1],
    lambda prof: weighted_column_norms(prof, [0.0, 1.0], 0.25, np.pi, 40, 12.0),
    lambda prof: l1_multiplier_norm(prof, np.pi / 2.0, lambda_max=12.0),
], ids=["engine", "radial", "columns"])
def test_complex_profile_values_raise_domain_error(evaluate):
    # profile values are real: a constant phase is refused, not dropped
    turned = MultiplierProfile(
        lambda lam: np.exp(0.3j) * np.maximum(0.0, 1.0 - lam / 12.0) ** 1.5,
        (0.0, 12.0), label="turned")
    with pytest.raises(DomainError, match="turned is not real at lambda"):
        evaluate(turned)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_field_values_raise_domain_error(bad, monkeypatch):
    # one bad value would spread through the transform to every output
    grid = GrushinGrid(PrimeGrid(6.0, 48, 2), np.pi, 16, 1)
    field = Field(grid, np.zeros(grid.shape))
    field.values[20, 30, 5] = bad
    forward, transformed = engine.partial_fourier, []
    monkeypatch.setattr(engine, "partial_fourier",
                        lambda f: transformed.append(f) or forward(f))
    with pytest.raises(DomainError, match="NaN or infinite"):
        engine.apply_multiplier(MultiplierProfile.heat(0.2), field,
                                SpectralTruncation(8, 4.0))
    assert transformed == []  # refused before the transform


@pytest.mark.parametrize("values", [
    lambda shape: np.zeros(shape, dtype=complex),
    lambda shape: np.full(shape, "a"),
    lambda shape: np.full(shape, 1j, dtype=object),
], ids=["complex128", "string", "object-complex"])
def test_non_real_field_values_raise_domain_error(values):
    # F(L) maps real fields to real fields; no path takes a complex one
    grid = small_grid()
    with pytest.raises(DomainError, match="field values must be real"):
        Field(grid, values(grid.shape))
