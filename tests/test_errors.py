"""The domain rule for numbers: check_integer, check_real and real_array."""

import numpy as np
import pytest

from grushin.errors import DomainError, check_integer, check_real, real_array


@pytest.mark.parametrize("value", [0.5, 3, np.float32(2.0), np.int64(7),
                                   10 ** 400, [0.5, 2], np.arange(3.0),
                                   np.array(1.5), []])
def test_real_numbers_and_arrays_of_them_pass(value):
    # one number goes to check_real, an array of them to real_array
    if isinstance(value, (list, np.ndarray)):
        out = real_array(value, "x", 0.0)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.asarray(value, dtype=float))
    else:
        check_real(value, "x", 0.0)


@pytest.mark.parametrize("value", [
    np.nan, np.inf, -np.inf, True, np.bool_(False), "1.0", None, 1 + 0j,
    [1.0, None], [[1.0], [1.0, 2.0]], np.array([True]), [1.0, np.nan],
    np.array([1.0, -np.inf])])
def test_other_values_are_refused(value):
    for check in (check_real, real_array):
        with pytest.raises(DomainError, match="^x must be a real number"):
            check(value, "x")


@pytest.mark.parametrize("value", [[0.5], np.array(1.5), (2.0,)],
                         ids=["list", "0-d-array", "tuple"])
def test_check_real_takes_one_number(value):
    with pytest.raises(DomainError, match="^x must be a real number"):
        check_real(value, "x")


def test_bounds_and_the_first_failing_element():
    check_real(0.0, "x", 0.0)
    with pytest.raises(DomainError, match=r"^x must be a real number > 0, .* got 0\.0$"):
        check_real(0.0, "x", 0.0, strict=True)
    with pytest.raises(DomainError, match=r">= 2, .* got -1\.0$"):
        real_array(np.array([3.0, -1.0, np.nan]), "x", 2.0)


@pytest.mark.parametrize("value", [2.0, True, "2", -1])
def test_integers_refuse_other_values(value):
    with pytest.raises(DomainError, match="^k must be an integer >= 0"):
        check_integer(value, "k")
