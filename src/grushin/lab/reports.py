"""Sweep reports and deterministic report serialization."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import DomainError, real_array

__all__ = ["sweep_report", "rows_to_csv"]


def _line_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, np.ndarray]:
    """Least-squares line through (x, y): slope, intercept and the residuals
    y - (slope x + intercept)."""
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    return slope, intercept, y - (slope * x + intercept)


def sweep_report(abscissae: Sequence[float], norms: Sequence[float],
                 predicted_slope: Optional[float] = None) -> dict:
    """One swept axis as a JSON-able dict: the abscissae and positive norms,
    the log-log slope of each step, a log-log least-squares fit (slope, its
    standard error, largest residual), max/min of the norms, and the
    predicted slope when one is given."""
    x = real_array(abscissae, "abscissa", 0.0, strict=True)
    y = real_array(norms, "norm", 0.0, strict=True)
    if x.size < 3:
        raise DomainError("scaling fit needs at least 3 abscissae")
    if y.shape != x.shape:
        raise DomainError(f"{y.size} norms for {x.size} abscissae")
    if np.any(np.diff(x) <= 0):
        raise DomainError("abscissae must be strictly increasing")
    lx, ly = np.log(x), np.log(y)
    slope, _, resid = _line_fit(lx, ly)
    report = {
        "abscissae": x.tolist(),
        "norms": y.tolist(),
        "successive_slopes": (np.diff(ly) / np.diff(lx)).tolist(),
        "fitted_slope": slope,
        "slope_stderr": float(np.sqrt(np.sum(resid ** 2) / (x.size - 2)
                                      / np.sum((lx - lx.mean()) ** 2))),
        "residual_max": float(np.max(np.abs(resid))),
        "max_over_min": float(y.max() / y.min()),
    }
    if predicted_slope is not None:
        report["predicted_slope"] = float(predicted_slope)
    return report


def rows_to_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Deterministic CSV: repr floats, '.' decimal, no timestamps, \n endings."""
    def cell(v) -> str:
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, np.integer):
            return str(int(v))
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise DomainError("CSV row width does not match header")
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"
