"""Exception types shared across the package, and the domain rule for numbers.

Every entry point states the domain of each numeric argument with one call
to check_integer or check_real, which raise DomainError.  A number is an
int (finite at any size), a float or a numpy scalar, never a bool, and never
NaN or infinite.  An array, list or tuple is checked elementwise and needs
an integer or float dtype.  Checks that relate two arguments stay with
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
    """DomainError unless value is a finite real number at least minimum
    (above it, if strict), or an array of them; the message names the first
    value that fails."""
    scalar = (int, float, np.integer, np.floating)
    if isinstance(value, scalar) and not isinstance(value, bool):
        # an int is finite at any size; math.isfinite would overflow on it
        bad = not ((isinstance(value, (int, np.integer)) or math.isfinite(value))
                   and (value > minimum if strict else value >= minimum))
    else:  # a bool goes here, and its dtype is refused
        try:
            array = np.asarray(value)
        except ValueError:  # a ragged nest of lists
            array = np.asarray(None)
        bad = array.dtype.kind not in "iuf"
        if not bad:
            ok = np.isfinite(array)
            if minimum > -math.inf:
                ok &= array > minimum if strict else array >= minimum
            bad = not ok.all()
            if bad:
                value = array[~ok][0].item()
    if bad:
        bound = ("" if minimum == -math.inf
                 else f" {'>' if strict else '>='} {minimum:g}")
        raise DomainError(f"{name} must be a real number{bound}, not NaN or "
                          f"infinite; got {value!r}")
