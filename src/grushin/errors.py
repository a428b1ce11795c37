"""Exception types shared across the package, and the domain rule for numbers.

Every numeric argument of an entry point is checked by one call, which
raises DomainError.  A number is an int (finite at any size), a float or a
numpy scalar, never a bool, and never NaN or infinite.  check_integer and
check_real take one number and refuse a list, tuple or array, a 0-d one
too; real_array takes an array of numbers (integer or float dtype) and
returns it as float64.  Checks that relate arguments, and shapes, stay with
their function.
"""

import math

import numpy as np


class GrushinError(Exception):
    """Base class for all library errors."""


class DomainError(GrushinError):
    """An argument is outside the mathematical domain of the operation."""


class ContractViolation(GrushinError):
    """Inconsistent inputs, e.g. a multi-index and point of different dimension."""


class TruncationError(GrushinError):
    """A spectrally active level exceeds the configured cap.

    Carries the offending level and |xi| so callers can enlarge the grid.
    """

    def __init__(self, level, xi_mag, k_max):
        self.level = level
        self.xi_mag = xi_mag
        self.k_max = k_max
        super().__init__(
            f"active level k={level} at |xi|={xi_mag:.6g} exceeds K_max={k_max}"
        )


class AliasingError(GrushinError):
    """The torus or box is too small for the requested computation."""


class WindowingError(GrushinError):
    """A sampled profile does not decay at its window edges."""


class DegenerateInputError(GrushinError):
    """A nonzero input is required (e.g. ratio with zero denominator)."""


class ConfigError(GrushinError):
    """Invalid experiment configuration; carries the offending field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


def check_integer(value, name: str, minimum: int = 0) -> None:
    """DomainError unless value is an integer >= minimum (a bool is not one).

    k > nan and k > inf are always false: a NaN or infinite k_max would
    switch the level checks off, and a fractional one would be printed as a
    level.  A fractional seed would fail inside numpy with a bare TypeError.
    """
    if (not isinstance(value, (int, np.integer))
            or isinstance(value, bool) or value < minimum):
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(value, name: str, minimum: float = -math.inf,
               strict: bool = False) -> None:
    """DomainError unless value is one finite real number at least minimum
    (above it, if strict)."""
    if (not isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(value, bool)
            # an int is finite at any size; math.isfinite would overflow on it
            or not (isinstance(value, (int, np.integer)) or math.isfinite(value))
            or not (value > minimum if strict else value >= minimum)):
        _refuse(value, name, minimum, strict)


def real_array(values, name: str, minimum: float = -math.inf,
               strict: bool = False) -> np.ndarray:
    """values as a float64 array, each entry under check_real's rule; the
    message names the first entry that fails."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nest of lists
        array = np.asarray(None)
    if array.dtype.kind not in "iuf":  # bools, strings, objects, complex
        _refuse(values, name, minimum, strict)
    ok = np.isfinite(array)
    if minimum > -math.inf:  # skips a pass on the hot unbounded calls
        ok &= array > minimum if strict else array >= minimum
    if not ok.all():
        _refuse(array[~ok][0].item(), name, minimum, strict)
    return np.asarray(array, dtype=float)


def _refuse(value, name: str, minimum: float, strict: bool):
    bound = "" if minimum == -math.inf else f" {'>' if strict else '>='} {minimum:g}"
    raise DomainError(f"{name} must be a real number{bound}, not NaN or "
                      f"infinite; got {value!r}")
