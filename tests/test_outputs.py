"""Default reports against frozen copies: a change that moves a default
number fails here, and updates the frozen file on purpose.

Each kind runs through the command line at its defaults.  The reports are
compared byte for byte, except geometry_suite's volume and doubling rows,
whose values are quadratures compared within a relative tolerance.  The
same runs pin the headline number of each default sweep in report.json.
"""

import csv
import json
from pathlib import Path

import pytest

from grushin import cli

FROZEN = Path(__file__).parent / "data" / "reports"
# geometry_suite's quadrature values; the frozen ones came from numpy's
# leggauss rule, and the package's own rule moved them by at most 3.7e-15
QUADRATURE_ROWS = ("volume", "doubling")
QUADRATURE_RTOL = 1e-12
# per kind, the key path of each default sweep's fitted_slope or
# max_over_min in report.json's summary, and its value, exact to the last bit
SWEEP_NUMBERS = {
    "weighted_restriction": {("radius", "fitted_slope"): 2.0206309294204834},
    "localized_restriction": {
        ("radius", "fitted_slope"): 1.60688422077445,
        ("height", "fitted_slope"): -0.3165682784070165},
    "bochner_riesz": {
        ("radius", "0.2", "max_over_min"): 13.43866467225391,
        ("radius", "1.5", "max_over_min"): 1.4990782035480115},
    "multiplier_norm": {("t", "max_over_min"): 1.5786784225418733},
}


def default_report(tmp_path, kind):
    config = tmp_path / "run.cfg"
    config.write_text(f"experiment.kind = {kind}\n", encoding="utf-8")
    assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    run_dir = tmp_path / "out" / "run-0001"
    summary = json.loads((run_dir / "report.json").read_text(
        encoding="utf-8"))["summary"]
    return (run_dir / "report.csv").read_text(encoding="utf-8"), summary


@pytest.mark.parametrize("kind", ["bochner_riesz", "multiplier_norm",
                                  "heat_gaussian", "kernel_support",
                                  "weighted_restriction",
                                  "localized_restriction"])
def test_default_report_is_frozen(tmp_path, kind):
    frozen = (FROZEN / f"{kind}.csv").read_text(encoding="utf-8")
    text, summary = default_report(tmp_path, kind)
    assert text == frozen
    for path, pinned in SWEEP_NUMBERS.get(kind, {}).items():
        value = summary
        for key in path:
            value = value[key]
        assert value == pinned, path


def test_geometry_suite_report_is_frozen(tmp_path):
    rows = list(csv.reader(default_report(tmp_path, "geometry_suite")[0]
                           .splitlines()))
    frozen = list(csv.reader((FROZEN / "geometry_suite.csv")
                             .read_text(encoding="utf-8").splitlines()))
    assert len(rows) == len(frozen)
    for row, pinned in zip(rows, frozen):
        if not row[0].startswith(QUADRATURE_ROWS):
            assert row == pinned
            continue
        assert row[:3] == pinned[:3]
        assert float(row[3]) == pytest.approx(float(pinned[3]),
                                              rel=QUADRATURE_RTOL, abs=0.0)
