"""The grushin-lab command line: exit codes, config errors, reports, catalog."""

import inspect
import json
from pathlib import Path

import pytest

from grushin import cli
from grushin.lab.experiments import ExperimentResult

GOLDEN_LIST = Path(__file__).parent / "data" / "cli_list.txt"

PAIRS = "[[[0.0, 0.0], [0.0], [1.0, 0.5], [0.25]], [[1.0, 0.0], [0.5], [0.0, 0.0], [0.0]]]"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def run(tmp_path, text):
    path = write_config(tmp_path, text)
    return cli.main(["run", str(path), "--out", str(tmp_path / "out")])


class TestExitCodes:
    def test_distance_table_succeeds(self, tmp_path):
        code = run(tmp_path, "experiment.kind = distance_table\n"
                             f"experiment.pairs = {PAIRS}\n")
        assert code == 0
        csv = (tmp_path / "out" / "run-0001" / "report.csv").read_text()
        assert csv.splitlines()[0] == "x_prime,x_second,y_prime,y_second,rho"
        assert len(csv.splitlines()) == 3

    def test_geometry_suite_succeeds_on_small_budgets(self, tmp_path):
        code = run(tmp_path, "experiment.kind = geometry_suite\n"
                             "experiment.n_triples = 2000\n"
                             "experiment.mc_samples = 5000\n")
        assert code == 0
        assert (tmp_path / "out" / "run-0001" / "report.json").is_file()

    @pytest.mark.parametrize("text", [
        "experiment.kind = no_such_kind\n",
        "experiment.kind = distance_table\nexperiment.pairs = [[[0], [0], [1], [0]]]\n"
        "experiment.bogus = 1\n",
        f"experiment.kind = distance_table\nexperiment.pairs = {PAIRS}\n"
        f"experiment.pairs = {PAIRS}\n",
        "experiment.kind = distance_table\n",
        "experiment.kind = distance_table\nthis line has no equals sign\n",
        "experiment.pairs = [[[0], [0], [1], [0]]]\n",
        "experiment.kind = kernel_support\nexperiment.levels = [0, 1]\n",
        "experiment.kind = geometry_suite\nseed = 1.5\n",
        "experiment.kind = multiplier_norm\nexperiment.sobolev_orders = [NaN, 1e400]\n",
        "experiment.kind = heat_gaussian\nexperiment.times = [NaN]\n",
        "experiment.kind = heat_gaussian\ngrid.S = NaN\n",
        "experiment.kind = heat_gaussian\ngrid.S = 1e15\n",
        "experiment.kind = weighted_restriction\nexperiment.n_scan = 20.5\n",
        "experiment.kind = geometry_suite\nexperiment.n_triples = 2.5\n",
        "experiment.kind = kernel_support\ngrid.n_prime = 100.5\n",
        "experiment.kind = weighted_restriction\nexperiment.gamma = abc\n",
        "experiment.kind = weighted_restriction\nexperiment.radii = 5\n",
        "experiment.kind = bochner_riesz\nexperiment.deltas = 1.5\n",
        "experiment.kind = kernel_support\nexperiment.kappas = 1.5\n",
        "experiment.kind = multiplier_norm\nexperiment.t_values = [1, \"a\"]\n",
        "experiment.kind = localized_restriction\nexperiment.y_fix = abc\n",
        "experiment.kind = weighted_restriction\ntruncation.k_max = true\n",
        "experiment.kind = kernel_support\nexperiment.levels = [0, 1.5, 2]\n",
        "experiment.kind = distance_table\nexperiment.pairs = 5\n",
        "experiment.kind = distance_table\nexperiment.pairs = [[[0], [0], [1]]]\n",
        "experiment.kind = kernel_support\nexperiment.kappas = [NaN, 1.5]\n",
        "experiment.kind = kernel_support\nexperiment.times = [1.0, Infinity, 0.5]\n",
    ], ids=["unknown-kind", "unknown-key", "duplicate-key", "missing-pairs",
            "malformed-line", "missing-kind", "levels-times-mismatch",
            "non-integer-seed", "non-finite-sobolev-order", "nan-heat-time",
            "nan-heat-half-period", "heat-sum-past-term-cap",
            "non-integer-n-scan", "non-integer-n-triples",
            "non-integer-n-prime", "string-gamma", "scalar-radii",
            "scalar-deltas", "scalar-kappas", "string-in-t-values",
            "string-y-fix", "bool-k-max", "non-integer-level",
            "scalar-pairs", "three-part-pair", "nan-kappa", "infinite-time"])
    def test_invalid_config_exits_2(self, tmp_path, capsys, text):
        assert run(tmp_path, text) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_number_names_its_key(self, tmp_path, capsys):
        assert run(tmp_path, "experiment.kind = kernel_support\n"
                             "experiment.kappas = [1.1, [NaN]]\n") == 2
        assert "experiment.kappas: non-finite number" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "absent.cfg")]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_truncation_violation_exits_3(self, tmp_path, capsys):
        code = run(tmp_path, "experiment.kind = weighted_restriction\n"
                             "truncation.k_max = 1\n")
        assert code == 3
        assert "TruncationError" in capsys.readouterr().err


def test_list_output_is_golden(capsys):
    assert cli.main(["list"]) == 0
    assert capsys.readouterr().out == GOLDEN_LIST.read_text(encoding="utf-8")


@pytest.mark.parametrize("text", [
    f"experiment.kind = distance_table\nexperiment.pairs = {PAIRS}\n",
    "experiment.kind = geometry_suite\nexperiment.n_triples = 2000\n"
    "experiment.mc_samples = 5000\nseed = 3\n",
], ids=["distance_table", "geometry_suite"])
def test_reports_are_byte_identical_across_runs(tmp_path, text):
    path = write_config(tmp_path, text)
    for _ in range(2):
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    first, second = tmp_path / "out" / "run-0001", tmp_path / "out" / "run-0002"
    for name in ("report.csv", "report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("kind", sorted(cli.CATALOG))
def test_every_declared_key_reaches_the_runner(tmp_path, monkeypatch, kind):
    entry = cli.CATALOG[kind]
    received = {}

    def stub(**kwargs):
        received.update(kwargs)
        return ExperimentResult(kind=kind, header=["a"], rows=[[1]], summary={})

    monkeypatch.setitem(entry, "run", stub)
    # a distinct value per key, of the type of its default, so a key that is
    # dropped or swapped shows
    values = {key: distinct_value(cli._DEFAULTS[kind][key], i)
              for i, key in enumerate(entry["params"])}
    text = f"experiment.kind = {kind}\n" + "".join(
        f"{key} = {json.dumps(value)}\n" for key, value in values.items())
    assert run(tmp_path, text) == 0
    assert received == {entry["params"][key]: value
                        for key, value in values.items()}


def distinct_value(default, i):
    if isinstance(default, list):
        return [distinct_value(default[0], i)]
    if isinstance(default, int):
        return 1000 + i
    return 1000.5 + i  # a float, null or required default


@pytest.mark.parametrize("kind", sorted(cli.CATALOG))
def test_catalog_keywords_are_the_runner_parameters(kind):
    entry = cli.CATALOG[kind]
    parameters = inspect.signature(entry["run"]).parameters
    assert sorted(entry["params"].values()) == sorted(parameters)


@pytest.mark.parametrize("kind,key", [
    ("weighted_restriction", "dims.d1 = 2"),
    ("bochner_riesz", "experiment.p = 1.0"),
    ("heat_gaussian", "dims.d2 = 1"),
    ("distance_table", "seed = 3"),
])
def test_keys_that_change_no_number_are_refused(tmp_path, capsys, kind, key):
    text = f"experiment.kind = {kind}\n{key}\n"
    if kind == "distance_table":
        text += f"experiment.pairs = {PAIRS}\n"
    assert run(tmp_path, text) == 2
    assert key.split(" = ")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_has_no_seed_override(tmp_path):
    path = write_config(tmp_path, "experiment.kind = distance_table\n"
                                  f"experiment.pairs = {PAIRS}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(path), "--seed", "3"])
    assert exc.value.code == 2
