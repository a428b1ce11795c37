"""Tests for sweep reports and deterministic CSV serialization."""

import json

import numpy as np
import pytest

from grushin.errors import DomainError
from grushin.lab.reports import rows_to_csv, sweep_report


class TestSweepReport:
    def test_recovers_exact_power_law(self):
        x = [2.0, 4.0, 8.0, 16.0]
        norms = [3.0 * v ** 1.75 for v in x]
        rep = sweep_report(x, norms, predicted_slope=1.75)
        assert rep["fitted_slope"] == pytest.approx(1.75, abs=1e-12)
        assert rep["slope_stderr"] == pytest.approx(0.0, abs=1e-12)
        assert rep["residual_max"] == pytest.approx(0.0, abs=1e-12)
        assert rep["fitted_slope"] - rep["predicted_slope"] == pytest.approx(0.0, abs=1e-12)

    def test_successive_slopes_of_a_power_law_are_its_exponent(self):
        x = [1.5, 2.0, 5.0, 11.0, 40.0]
        rep = sweep_report(x, [0.7 * v ** -0.3 for v in x])
        assert len(rep["successive_slopes"]) == len(x) - 1
        assert rep["successive_slopes"] == pytest.approx([-0.3] * 4, abs=1e-12)

    def test_max_over_min(self):
        rep = sweep_report([1.0, 2.0, 3.0, 4.0], [2.0, 5.0, 0.5, 1.0])
        assert rep["max_over_min"] == 10.0

    def test_no_predicted_slope_unless_given(self):
        rep = sweep_report([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
        assert "predicted_slope" not in rep
        assert set(rep) == {"abscissae", "norms", "successive_slopes",
                            "fitted_slope", "slope_stderr", "residual_max",
                            "max_over_min"}

    def test_slope_error_is_signed_gap(self):
        x = [1.0, 2.0, 4.0]
        norms = [v ** 2.0 for v in x]
        rep = sweep_report(x, norms, predicted_slope=1.5)
        assert rep["fitted_slope"] - rep["predicted_slope"] == pytest.approx(0.5, abs=1e-12)

    def test_noise_produces_stderr(self):
        rng = np.random.default_rng(0)
        x = [2.0 ** j for j in range(2, 8)]
        norms = [v ** 1.2 * float(np.exp(rng.normal(0.0, 0.05))) for v in x]
        rep = sweep_report(x, norms, predicted_slope=1.2)
        assert rep["slope_stderr"] > 0.0
        assert abs(rep["fitted_slope"] - 1.2) < 0.2

    def test_json_round_trip(self):
        rep = sweep_report([1.0, 2.0, 4.0], [1.0, 2.0, 4.0], 1.0)
        doc = json.loads(json.dumps(rep))
        assert doc == rep
        assert doc["abscissae"] == [1.0, 2.0, 4.0]

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(DomainError):
            sweep_report([1.0, 2.0], [1.0, 2.0], 1.0)
        with pytest.raises(DomainError):
            sweep_report([1.0, 2.0, 2.0], [1.0, 2.0, 3.0], 1.0)
        with pytest.raises(DomainError):
            sweep_report([1.0, 2.0, 4.0], [1.0, -2.0, 4.0], 1.0)
        with pytest.raises(DomainError, match="2 norms for 3 abscissae"):
            sweep_report([1.0, 2.0, 4.0], [1.0, 2.0])


class TestRowsToCsv:
    def test_exact_rendering(self):
        text = rows_to_csv(["a", "b"], [[1.0, "x"], [0.1, "y"]])
        assert text == "a,b\n1.0,x\n0.1,y\n"

    def test_repr_floats_survive_round_trip(self):
        vals = [1.0 / 3.0, np.float64(2.0) / 7.0, 1e-17]
        text = rows_to_csv(["v"], [[v] for v in vals])
        back = [float(line) for line in text.strip().splitlines()[1:]]
        assert back == [float(v) for v in vals]

    def test_numpy_scalars_render_as_plain_numbers(self):
        text = rows_to_csv(["v", "n"], [[np.float64(0.25), np.int64(3)]])
        assert text == "v,n\n0.25,3\n"

    def test_deterministic(self):
        rows = [[0.1, 2], [0.2, 3]]
        assert rows_to_csv(["x", "k"], rows) == rows_to_csv(["x", "k"], rows)

    def test_rejects_ragged_rows(self):
        with pytest.raises(DomainError):
            rows_to_csv(["a", "b"], [[1.0]])
