"""The domain rule for numbers: check_integer and check_real."""

import numpy as np
import pytest

from grushin.errors import DomainError, check_integer, check_real


@pytest.mark.parametrize("value", [0.5, 3, np.float32(2.0), np.int64(7),
                                   10 ** 400, [0.5, 2], np.arange(3.0),
                                   np.array(1.5), []])
def test_real_numbers_and_arrays_of_them_pass(value):
    check_real(value, "x", 0.0)


@pytest.mark.parametrize("value", [
    np.nan, np.inf, -np.inf, True, np.bool_(False), "1.0", None, 1 + 0j,
    [1.0, None], [[1.0], [1.0, 2.0]], np.array([True]), [1.0, np.nan],
    np.array([1.0, -np.inf])])
def test_other_values_are_refused(value):
    with pytest.raises(DomainError, match="^x must be a real number"):
        check_real(value, "x")


def test_bounds_and_the_first_failing_element():
    check_real(0.0, "x", 0.0)
    with pytest.raises(DomainError, match=r"^x must be a real number > 0, .* got 0\.0$"):
        check_real(0.0, "x", 0.0, strict=True)
    with pytest.raises(DomainError, match=r">= 2, .* got -1\.0$"):
        check_real(np.array([3.0, -1.0, np.nan]), "x", 2.0)


@pytest.mark.parametrize("value", [2.0, True, "2", -1])
def test_integers_refuse_other_values(value):
    with pytest.raises(DomainError, match="^k must be an integer >= 0"):
        check_integer(value, "k")
