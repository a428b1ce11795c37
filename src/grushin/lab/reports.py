"""Scaling-law fits and deterministic report serialization."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import DomainError, real_array

__all__ = ["ScalingReport", "rows_to_csv"]


def _line_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, np.ndarray]:
    """Least-squares line through (x, y): slope, intercept and the residuals
    y - (slope x + intercept)."""
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    return slope, intercept, y - (slope * x + intercept)


@dataclass(frozen=True)
class ScalingReport:
    """A measured power law: norms against abscissae with a log-log OLS fit."""

    abscissae: List[float]
    norms: List[float]
    fitted_slope: float
    slope_stderr: float
    predicted_slope: float
    residual_max: float

    @classmethod
    def fit(cls, abscissae: Sequence[float], norms: Sequence[float],
            predicted_slope: float) -> "ScalingReport":
        x = real_array(abscissae, "abscissa", 0.0, strict=True)
        y = real_array(norms, "norm", 0.0, strict=True)
        if x.size < 3:
            raise DomainError("scaling fit needs at least 3 abscissae")
        if np.any(np.diff(x) <= 0):
            raise DomainError("abscissae must be strictly increasing")
        lx, ly = np.log(x), np.log(y)
        slope, _, resid = _line_fit(lx, ly)
        dof = max(x.size - 2, 1)
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = float(np.sqrt(np.sum(resid ** 2) / dof / sxx)) if sxx > 0 else np.inf
        return cls(abscissae=x.tolist(),
                   norms=y.tolist(),
                   fitted_slope=slope,
                   slope_stderr=stderr,
                   predicted_slope=float(predicted_slope),
                   residual_max=float(np.max(np.abs(resid))))

    def to_dict(self) -> dict:
        return asdict(self)


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
