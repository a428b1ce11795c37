"""Property tests over random small grids, fields and points (hypothesis)."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import delta_field

from grushin.engine import inverse_partial_fourier, partial_fourier
from grushin.fields import Field, GrushinGrid
from grushin.geometry import MetricPoint, grushin_distance, grushin_distance_arrays
from grushin.hermite import PrimeGrid

# no example database: a run leaves no files behind
SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def grids(draw):
    prime = PrimeGrid(draw(st.floats(0.5, 10.0)), draw(st.integers(2, 12)),
                      draw(st.integers(1, 2)))
    return GrushinGrid(prime, draw(st.floats(0.25, 10.0)),
                       2 * draw(st.integers(1, 6)), 1)


@st.composite
def real_fields(draw):
    grid = draw(grids())
    values = draw(arrays(float, grid.shape, elements=st.floats(
        -1e3, 1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False)))
    return Field(grid, values)


coords = st.floats(-10.0, 10.0, allow_subnormal=False)


@SETTINGS
@given(real_fields())
def test_partial_fourier_round_trip(field):
    back = inverse_partial_fourier(field.grid, partial_fourier(field)).values
    scale = np.max(np.abs(field.values))
    assert np.max(np.abs(back - field.values)) <= 1e-12 * scale


@SETTINGS
@given(real_fields())
def test_partial_fourier_parseval(field):
    g = field.grid
    # the half spectrum keeps the bins m = 0 ... n/2; each bin 0 < m < n/2
    # also stands for its conjugate at -m
    twice = np.r_[1.0, np.full(g.n_second // 2 - 1, 2.0), 1.0]
    # both sides are homogeneous of degree 2: dividing by the largest
    # modulus keeps tiny values from squaring into subnormals
    scale = np.max(np.abs(field.values)) or 1.0
    lattice = (np.sum(twice * np.abs(partial_fourier(field) / scale) ** 2)
               * g.prime.cell * g.xi_spacing)
    grid_side = np.sum(np.abs(field.values / scale) ** 2) * g.cell_volume
    assert abs(lattice - grid_side) <= 1e-12 * grid_side


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_quasi_distance_is_symmetric(d1, d2, data):
    x, y = (MetricPoint(data.draw(st.lists(coords, min_size=d1, max_size=d1)),
                        data.draw(st.lists(coords, min_size=d2, max_size=d2)))
            for _ in range(2))
    assert grushin_distance(x, y) == grushin_distance(y, x)


@SETTINGS
@given(st.lists(coords, min_size=2, max_size=2),
       st.lists(coords, min_size=2, max_size=2))
def test_quasi_distance_is_continuous_across_branch_interface(x_prime, y_prime):
    # sqrt(ds) = |x'| + |y'| = a: the graded branch just inside and the
    # rooted one just outside both tend to dp + a
    a = math.hypot(*x_prime) + math.hypot(*y_prime)
    assume(a >= 1e-3)
    eps = 1e-6
    dp = math.dist(x_prime, y_prime)
    seconds = np.array([[a * a * (1.0 - eps)], [a * a * (1.0 + eps)]])
    inside, outside = grushin_distance_arrays(
        np.array([x_prime] * 2), seconds, np.array([y_prime] * 2), np.zeros((2, 1)))
    tol = 1e-12 * (dp + a)
    assert abs(inside - (dp + a)) <= a * eps + tol
    assert abs(outside - (dp + a)) <= 0.5 * a * eps + tol


@SETTINGS
@given(grids(), st.data())
def test_delta_field_has_unit_mass(grid, data):
    node = [data.draw(st.integers(0, n - 1)) for n in grid.shape]
    d1 = grid.prime.d1
    delta = delta_field(grid, grid.prime.axis[node[:d1]],
                        grid.second_axis[node[d1:]])
    assert np.count_nonzero(delta.values) == 1
    assert delta.values[tuple(node)] != 0
    assert abs(delta.values.sum() * grid.cell_volume - 1.0) <= 1e-12
