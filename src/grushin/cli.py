"""Batch experiment runner behind flat, diff-friendly configuration files.

Config format: UTF-8 text, one ``section.key = value`` entry per line, blank
lines and ``#`` comment lines ignored.  Values are JSON fragments (numbers,
strings, booleans, lists); a bare word parses as a string, and each value
must have the type of its key's default.  The keys of a kind derive from its
runner's signature, one key per keyword parameter, and an unset key takes
the keyword's default.  Every run echoes the fully resolved configuration,
so a report is reproducible from its own header alone.

Each run writes report.csv, the kind's rows, and report.json: ``kind``,
``version``, the resolved ``config``, a ``summary`` that for the norm kinds
holds one sweep report per swept axis (lab.reports.sweep_report), and
``certificates``, the distinct values of the CSV's certificate column.

Exit codes: 0 success; 2 invalid configuration or any other library error
the configured values raise (the message names the cause); 3 truncation or
aliasing violation with diagnostics.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .errors import AliasingError, ConfigError, GrushinError, TruncationError
from .lab.experiments import (
    ExperimentResult,
    bochner_riesz_sweep,
    distance_table,
    geometry_suite,
    heat_gaussian_check,
    kernel_support_suite,
    localized_restriction_experiment,
    multiplier_norm_experiment,
    weighted_restriction_experiment,
)
from .lab.reports import rows_to_csv

__all__ = ["main", "run_config", "parse_config_text", "CATALOG"]


# ---------------------------------------------------------------------------
# catalog: every experiment kind, what it verifies, and its runner.  The
# config keys of a kind are its runner's keywords, in signature order: the
# keywords of _SECTION_KEYS take the key named there, every other keyword X
# the key experiment.X.  A key's default is its keyword's default; a keyword
# without one makes a required key.

_COMMON_KEYS = {
    "output.dir": "runs",
}

_SECTION_KEYS = {
    "torus_half_period": "grid.S", "prime_extent": "grid.X",
    "n_prime": "grid.n_prime", "n_second": "grid.n_second",
    "k_max": "truncation.k_max", "lambda_max": "truncation.lambda_max",
    "d1": "dims.d1", "seed": "seed",
}

CATALOG: Dict[str, dict] = {
    "weighted_restriction": {
        "verifies": "norms of |x'|^gamma-weighted spectral bands grow as "
                    "R^((2 d2 + d1)(1/p - 1/2) - gamma)",
        "run": weighted_restriction_experiment,
    },
    "localized_restriction": {
        "verifies": "band norms on inputs confined to a small metric ball "
                    "scale as R^((d2 + d1)(1/p - 1/2)) times "
                    "|y'|^(gamma - d2 (1/p - 1/2))",
        "run": localized_restriction_experiment,
    },
    "bochner_riesz": {
        "verifies": "uniform boundedness of the means (1 - L/R^2)_+^delta "
                    "above the critical exponent and blow-up below it",
        "run": bochner_riesz_sweep,
    },
    "multiplier_norm": {
        "verifies": "norms of the dilated family F(t L) stay within a fixed "
                    "multiple of a Sobolev norm of the profile, uniformly in t",
        "run": multiplier_norm_experiment,
    },
    "heat_gaussian": {
        "verifies": "Gaussian-type decay of the heat kernel in the "
                    "quasi-distance with volume-normalized on-diagonal values",
        "run": heat_gaussian_check,
    },
    "kernel_support": {
        "verifies": "kernel columns of dyadic wave pieces keep at least 99% "
                    "of their L^2 mass inside kappa = 1.5 times the "
                    "propagation radius",
        "run": kernel_support_suite,
    },
    "geometry_suite": {
        "verifies": "quasi-metric measure structure: branch-interface "
                    "continuity, quasi-triangle constant, ball-volume model "
                    "comparability, and doubling growth",
        "run": geometry_suite,
    },
    "distance_table": {
        "verifies": "explicit quasi-distance values for chosen point pairs",
        "run": distance_table,  # experiment.pairs = [[x', x'', y', y''], ...]
    },
}

# default of a key whose runner keyword has none
_REQUIRED = inspect.Parameter.empty


def _derive_keys() -> Dict[str, Dict[str, object]]:
    """Set each entry's "params", its config keys mapped to runner keywords,
    from the runner's signature, and return each kind's key defaults."""
    defaults: Dict[str, Dict[str, object]] = {}
    for kind, entry in CATALOG.items():
        entry["params"], defaults[kind] = {}, {}
        for arg, parameter in inspect.signature(entry["run"]).parameters.items():
            key = _SECTION_KEYS.get(arg, f"experiment.{arg}")
            entry["params"][key] = arg
            default = parameter.default
            defaults[kind][key] = list(default) if isinstance(default, tuple) else default
    return defaults


# read once, so that a runner replaced later keeps its kind's keys and defaults
_DEFAULTS = _derive_keys()


# ---------------------------------------------------------------------------
# configuration parsing and resolution

def parse_config_text(text: str) -> Dict[str, object]:
    """Parse ``key = value`` lines into a flat dict of dotted keys."""
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or any(not part.isidentifier() for part in key.split(".")):
            raise ConfigError(f"line {lineno}", f"malformed key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}", f"duplicate key {key!r}")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value  # bare word: a plain string
    return out


def _fits(value, default) -> bool:
    """Whether a value has the type of its key's default: an int takes an
    int, a float an int or a float, a list a list of its elements' type and
    null null or a number; bool is never a number.  A required key and the
    output directory take any value."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if default is None:
        return value is None or _fits(value, 0.0)
    if default is _REQUIRED or isinstance(default, str):
        return True
    kinds = int if isinstance(default, int) else (int, float)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _non_finite(value) -> bool:
    """Whether a NaN or an infinity sits in a value, at any list depth.
    json.loads reads NaN and Infinity, and 1e400 as inf."""
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    return isinstance(value, float) and not math.isfinite(value)


def _resolve(raw: Dict[str, object]) -> Dict[str, object]:
    """Fill defaults for the configured kind; reject unknown, missing or
    mistyped keys and non-finite numbers."""
    if "experiment.kind" not in raw:
        raise ConfigError("experiment.kind", "missing required field")
    kind = raw["experiment.kind"]
    if kind not in CATALOG:
        raise ConfigError(
            "experiment.kind",
            f"unknown kind {kind!r}; choose from {', '.join(CATALOG)}")
    defaults = {**_COMMON_KEYS, **_DEFAULTS[kind]}
    for key, value in raw.items():
        if key == "experiment.kind":
            continue
        if key not in defaults:
            raise ConfigError(key, f"not a parameter of kind {kind!r}")
        if _non_finite(value):
            raise ConfigError(key, f"non-finite number in {_format_value(value)}")
        if not _fits(value, defaults[key]):
            raise ConfigError(key, f"expected the type of its default "
                              f"{_format_value(defaults[key])}, got "
                              f"{_format_value(value)}")
    resolved: Dict[str, object] = {"experiment.kind": kind}
    for key, default in defaults.items():
        if key not in raw and default is _REQUIRED:
            raise ConfigError(key, "missing required field")
        resolved[key] = raw.get(key, default)
    return resolved


def _format_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return json.dumps(list(value))
    return str(value)


def config_lines(resolved: Dict[str, object]) -> List[str]:
    return [f"{key} = {_format_value(value)}"
            for key, value in sorted(resolved.items())]


def _run(resolved: Dict[str, object]) -> ExperimentResult:
    entry = CATALOG[resolved["experiment.kind"]]
    return entry["run"](**{arg: resolved[key]
                           for key, arg in entry["params"].items()})


# ---------------------------------------------------------------------------
# report writing

def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _next_run_dir(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    index = 1
    while True:
        candidate = base / f"run-{index:04d}"
        try:
            candidate.mkdir(exist_ok=False)
            return candidate
        except FileExistsError:
            index += 1


def run_config(resolved: Dict[str, object], out_dir: Path) -> Path:
    """Execute the resolved configuration; write report files; return the dir."""
    result = _run(resolved)
    run_dir = _next_run_dir(out_dir)
    csv_text = rows_to_csv(result.header, result.rows)
    (run_dir / "report.csv").write_text(csv_text, encoding="utf-8",
                                        newline="\n")
    certificates = sorted({str(row[-1]) for row in result.rows
                           if result.header and result.header[-1] == "certificate"})
    document = {
        "kind": result.kind,
        "version": __version__,
        "config": _jsonable(resolved),
        "summary": _jsonable(result.summary),
        "certificates": certificates,
    }
    (run_dir / "report.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8", newline="\n")
    return run_dir


# ---------------------------------------------------------------------------
# commands

def _cmd_list() -> int:
    for kind, entry in CATALOG.items():
        print(kind)
        print(f"  verifies: {entry['verifies']}")
        print("  parameters:")
        for key, default in {**_DEFAULTS[kind], **_COMMON_KEYS}.items():
            shown = "(required)" if default is _REQUIRED else _format_value(default)
            print(f"    {key} = {shown}")
        print()
    return 0


def _cmd_run(config_path: str, out: Optional[str]) -> int:
    path = Path(config_path)
    if not path.is_file():
        raise ConfigError("config", f"file not found: {config_path}")
    resolved = _resolve(parse_config_text(path.read_text(encoding="utf-8")))
    if out is not None:
        resolved["output.dir"] = out
    for line in config_lines(resolved):
        print(line)
    run_dir = run_config(resolved, Path(str(resolved["output.dir"])))
    print(f"report written to {run_dir}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="grushin-lab",
        description="run spectral-estimate experiments from config files")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to a flat key = value config file")
    run_p.add_argument("--out", default=None,
                       help="override the output directory")
    sub.add_parser("list", help="print the experiment catalog")
    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            return _cmd_list()
        return _cmd_run(args.config, args.out)
    except (TruncationError, AliasingError) as exc:
        print(f"resolution violation ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3
    except GrushinError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
