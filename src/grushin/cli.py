"""Batch experiment runner behind flat, diff-friendly configuration files.

Config format: UTF-8 text, one ``section.key = value`` entry per line, blank
lines and ``#`` comment lines ignored.  Values are JSON fragments (numbers,
strings, booleans, lists); a bare word parses as a string.  Every kind fills
unset keys from its defaults and echoes the fully resolved configuration, so
a report is reproducible from its own header alone.

Exit codes: 0 success; 2 invalid configuration (the message names the
offending field); 3 truncation or aliasing violation with diagnostics.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .errors import AliasingError, ConfigError, DomainError, TruncationError
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
# catalog: every experiment kind, what it verifies, its runner, and each key's
# runner keyword and default

_COMMON_KEYS = {
    "output.dir": "runs",
}

# default of a key that every config of its kind must set
_NO_DEFAULT = object()


def _run_kernel_support(levels, times, **kwargs) -> ExperimentResult:
    if (not isinstance(levels, list) or not isinstance(times, list)
            or len(levels) != len(times)):
        raise ConfigError("experiment.levels",
                          "levels and times must be lists of equal length")
    return kernel_support_suite(level_times=tuple(zip(levels, times)), **kwargs)


def _run_distance_table(pairs) -> ExperimentResult:
    if not isinstance(pairs, list) or not pairs:
        raise ConfigError("experiment.pairs", "expected a non-empty list "
                          "of [x', x'', y', y''] quadruples")
    points = []
    for item in pairs:
        if (not isinstance(item, list) or len(item) != 4
                or any(not isinstance(part, list) for part in item)):
            raise ConfigError("experiment.pairs", "each entry must be "
                              "[x', x'', y', y''] with list-valued parts")
        xp, xs, yp, ys = item
        points.append(((tuple(xp), tuple(xs)), (tuple(yp), tuple(ys))))
    return distance_table(points)


# "params" maps each key to (runner keyword, default)
CATALOG: Dict[str, dict] = {
    "weighted_restriction": {
        "verifies": "norms of |x'|^gamma-weighted spectral bands grow as "
                    "R^((2 d2 + d1)(1/p - 1/2) - gamma)",
        "run": weighted_restriction_experiment,
        "params": {
            "experiment.gamma": ("gamma", 0.0),
            "experiment.radii": ("radii", [4.0, 8.0, 16.0, 32.0]),
            "experiment.n_scan": ("n_scan", 97),
            "grid.S": ("torus_half_period", math.pi),
            "truncation.k_max": ("k_max", 4000),
        },
    },
    "localized_restriction": {
        "verifies": "band norms on inputs confined to a small metric ball "
                    "scale as R^((d2 + d1)(1/p - 1/2)) times "
                    "|y'|^(gamma - d2 (1/p - 1/2))",
        "run": localized_restriction_experiment,
        "params": {
            "experiment.gamma": ("gamma", 0.25),
            "experiment.radii": ("radii", [8.0, 16.0, 32.0]),
            "experiment.y_values": ("y_values", [1.5, 3.0, 6.0]),
            "experiment.ball_radius": ("ball_radius", 0.1875),
            "experiment.y_fix": ("y_fix", None), "experiment.r_fix": ("r_fix", None),
            "experiment.n_scan": ("n_scan", 17),
            "grid.S": ("torus_half_period", math.pi),
            "truncation.k_max": ("k_max", 4000),
        },
    },
    "bochner_riesz": {
        "verifies": "uniform boundedness of the means (1 - L/R^2)_+^delta "
                    "above the critical exponent and blow-up below it",
        "run": bochner_riesz_sweep,
        "params": {
            "experiment.deltas": ("deltas", [1.5, 0.2]),
            "experiment.radii": ("radii", [4.0, 8.0, 16.0, 32.0, 64.0]),
            "experiment.points_per_wavelength": ("points_per_wavelength", 4.0),
            "grid.S": ("torus_half_period", math.pi / 2.0),
        },
    },
    "multiplier_norm": {
        "verifies": "norms of the dilated family F(t L) stay within a fixed "
                    "multiple of a Sobolev norm of the profile, uniformly in t",
        "run": multiplier_norm_experiment,
        "params": {
            "experiment.sobolev_orders": ("sobolev_orders", [2.0]),
            "experiment.t_values": ("t_values", [2.0 ** k for k in range(-4, 5)]),
            "grid.S": ("torus_half_period", math.pi / 2.0),
        },
    },
    "heat_gaussian": {
        "verifies": "Gaussian-type decay of the heat kernel in the "
                    "quasi-distance with volume-normalized on-diagonal values",
        "run": heat_gaussian_check,
        "params": {
            "dims.d1": ("d1", 2),
            "experiment.times": ("times", [0.05, 0.1, 0.2]),
            "grid.S": ("torus_half_period", 12.0),
        },
    },
    "kernel_support": {
        "verifies": "kernel columns of dyadic wave pieces keep at least 99% "
                    "of their mass inside the propagation radius",
        "run": _run_kernel_support,
        "params": {
            "experiment.levels": ("levels", [0, 1, 2]),
            "experiment.times": ("times", [1.0, 1.0, 0.5]),
            "experiment.kappas": ("kappas", [1.1, 1.5, 2.0]),
            "grid.X": ("prime_extent", 22.0), "grid.n_prime": ("n_prime", 256),
            "grid.S": ("torus_half_period", 6.0), "grid.n_second": ("n_second", 128),
            "truncation.k_max": ("k_max", 64),
            "truncation.lambda_max": ("lambda_max", 64.0),
        },
    },
    "geometry_suite": {
        "verifies": "quasi-metric measure structure: branch-interface "
                    "continuity, quasi-triangle constant, ball-volume model "
                    "comparability, and doubling growth",
        "run": geometry_suite,
        "params": {
            "experiment.n_triples": ("n_triples", 100000),
            "experiment.mc_samples": ("mc_samples", 1000000),
            "seed": ("seed", 0),
        },
    },
    "distance_table": {
        "verifies": "explicit quasi-distance values for chosen point pairs",
        "run": _run_distance_table,
        "params": {
            "experiment.pairs": ("pairs", _NO_DEFAULT),  # [[x', x'', y', y''], ...]
        },
    },
}


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


def _resolve(raw: Dict[str, object]) -> Dict[str, object]:
    """Fill defaults for the configured kind; reject unknown or missing keys."""
    if "experiment.kind" not in raw:
        raise ConfigError("experiment.kind", "missing required field")
    kind = raw["experiment.kind"]
    if kind not in CATALOG:
        raise ConfigError(
            "experiment.kind",
            f"unknown kind {kind!r}; choose from {', '.join(CATALOG)}")
    resolved: Dict[str, object] = {"experiment.kind": kind}
    resolved.update(_COMMON_KEYS)
    resolved.update({key: default
                     for key, (_, default) in CATALOG[kind]["params"].items()})
    for key, value in raw.items():
        if key != "experiment.kind" and key not in resolved:
            raise ConfigError(key, f"not a parameter of kind {kind!r}")
        resolved[key] = value
    for key, value in resolved.items():
        if value is _NO_DEFAULT:
            raise ConfigError(key, "missing required field")
    seed = resolved.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed", "expected an integer")
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
                           for key, (arg, _) in entry["params"].items()})


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
        for key, (_, default) in entry["params"].items():
            shown = "(required)" if default is _NO_DEFAULT else _format_value(default)
            print(f"    {key} = {shown}")
        for key, default in _COMMON_KEYS.items():
            print(f"    {key} = {_format_value(default)}")
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
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
