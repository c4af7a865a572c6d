"""The sampling contract shared by every route that calls a user function on nodes.

One call per node; a 1-D rule hands f a Python float, an N-D route a 1-D
float array; a NaN or infinite value raises ValueError.
"""

import math

import numpy as np
import pytest

from calclab.diffcalc import (
    classify_critical,
    derivative_1d,
    gradient,
    hessian,
    jacobian,
    laplacian,
    mean_value_gap,
    spherical_laplacian,
    taylor1d,
    taylor2_multi,
    unity_root_average,
)
from calclab.dynamics import (
    dalembert,
    disk_map,
    divergence_check,
    green_check,
    simulate_heat,
    simulate_wave,
    stokes_check,
)
from calclab.prob import Law, bernoulli_law, convolve, moments
from calclab.quad import monte_carlo, riemann, simpson, trapezoid
from calclab.rng import RandomSource

_DISK = (lambda u, v: (u * math.cos(v), u * math.sin(v), 0.0), (0.0, 1.0), (0.0, 2 * math.pi))
_ZERO = lambda x: 0.0


def _value(c):
    """c, or c raised when it is an exception: what a user function returns or raises."""
    if isinstance(c, Exception):
        raise c
    return c


# each entry runs one public route with a user function built from a value c:
# c = 1.0 is a valid run, a non-finite c (or an f that overflows) must be rejected
_ROUTES = {
    "riemann": lambda c: riemann(lambda x: _value(c), 0.0, 1.0, 8),
    "trapezoid": lambda c: trapezoid(lambda x: _value(c), 0.0, 1.0, 8),
    "simpson": lambda c: simpson(lambda x: _value(c), 0.0, 1.0, 8),
    "monte_carlo": lambda c: monte_carlo(lambda x: _value(c), 0.0, 1.0, 8, RandomSource(1)),
    "moments": lambda c: moments(Law(density=lambda x: _value(c) / 2, support=(-1.0, 1.0)), 2, 16),
    "derivative_1d": lambda c: derivative_1d(lambda x: _value(c), 0.5, 2),
    "derivative_1d_k0": lambda c: derivative_1d(lambda x: _value(c), 0.5, 0),
    "taylor1d": lambda c: taylor1d(lambda x: _value(c), 0.5, 2, 0.1),
    "unity_root_average": lambda c: unity_root_average(lambda z: complex(_value(c), 0.0), 0.5, 0.1, 4),
    "dalembert": lambda c: dalembert(lambda x: _value(c), _ZERO, 1.0, 0.3, 0.2),
    "dalembert_velocity": lambda c: dalembert(_ZERO, lambda x: _value(c), 1.0, 0.3, 0.2),
    "gradient": lambda c: gradient(lambda p: _value(c), [0.3, 0.4]),
    "jacobian": lambda c: jacobian(lambda p: (_value(c), 1.0), [0.3, 0.4]),
    "hessian": lambda c: hessian(lambda p: _value(c), [0.3, 0.4]),
    "laplacian": lambda c: laplacian(lambda p: _value(c), [0.3, 0.4]),
    "classify_critical": lambda c: classify_critical(lambda p: _value(c), [0.3, 0.4]),
    "spherical_laplacian": lambda c: spherical_laplacian(lambda r, s, t: _value(c), 1.0, 1.0, 1.0),
    "taylor2_multi": lambda c: taylor2_multi(lambda p: _value(c), [0.3, 0.4], [0.1, 0.1]),
    "mean_value_gap": lambda c: mean_value_gap(lambda p: _value(c), [0.1, 0.2], 0.5, samples=8),
    "mean_value_gap_ball": lambda c: mean_value_gap(
        lambda p: _value(c), [0.1, 0.2, 0.3], 0.5, samples=4, surface=False
    ),
    "simulate_wave": lambda c: simulate_wave(lambda x: _value(c), _ZERO, 1.0, 0.0, 1.0, 0.1, 0.5, 0.2),
    "simulate_wave_velocity": lambda c: simulate_wave(
        _ZERO, lambda x: _value(c), 1.0, 0.0, 1.0, 0.1, 0.5, 0.2
    ),
    "simulate_heat": lambda c: simulate_heat(lambda x: _value(c), 1.0, 0.0, 1.0, 0.1, 0.25, 0.02),
    "green_check": lambda c: green_check(lambda x, y: _value(c), lambda x, y: x, disk_map(), n=4),
    "stokes_check": lambda c: stokes_check(lambda p: (_value(c), p[0], 0.0), _DISK, n=4),
    "convolved_density": lambda c: convolve(
        Law(density=lambda x: _value(c) / 2, support=(-1.0, 1.0)), bernoulli_law(0.5)
    ).density(0.3),
    "divergence_check": lambda c: divergence_check(
        lambda p: (_value(c), p[1], p[2]), order=2, radial_nodes=2
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_non_finite_values_raise(route, value):
    _ROUTES[route](1.0)
    with pytest.raises(ValueError):
        _ROUTES[route](value)


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_an_overflow_of_f_raises_value_error(route):
    with pytest.raises(ValueError, match="^the function produced NaN or infinite values$"):
        _ROUTES[route](OverflowError("math range error"))


def _recording(seen, value=1.0):
    def f(*args):
        seen.extend(args)
        return value

    return f


_SCALAR_ROUTES = {
    "riemann": lambda f: riemann(f, 0.0, 1.0, 8),
    "trapezoid": lambda f: trapezoid(f, 0.0, 1.0, 8),
    "simpson": lambda f: simpson(f, 0.0, 1.0, 8),
    "monte_carlo": lambda f: monte_carlo(f, 0.0, 1.0, 8, RandomSource(1)),
    "moments": lambda f: moments(Law(density=f, support=(-1.0, 1.0)), 2, 16),
    "derivative_1d": lambda f: derivative_1d(f, 0.5, 3),
    "taylor1d": lambda f: taylor1d(f, 0.5, 2, 0.1),
    "dalembert": lambda f: dalembert(f, f, 1.0, 0.3, 0.2),
    "simulate_wave": lambda f: simulate_wave(f, f, 1.0, 0.0, 1.0, 0.1, 0.5, 0.2),
    "simulate_heat": lambda f: simulate_heat(f, 1.0, 0.0, 1.0, 0.1, 0.25, 0.02),
}

_FIELD_ROUTES = {
    "gradient": lambda f: gradient(f, [0.3, 0.4]),
    "hessian": lambda f: hessian(f, [0.3, 0.4, 0.5]),
    "laplacian": lambda f: laplacian(f, [0.3, 0.4]),
    "classify_critical": lambda f: classify_critical(f, [0.3, 0.4]),
    "taylor2_multi": lambda f: taylor2_multi(f, [0.3, 0.4], [0.1, 0.1]),
    "mean_value_gap": lambda f: mean_value_gap(f, [0.1, 0.2], 0.5, samples=8),
    "mean_value_gap_ball": lambda f: mean_value_gap(
        f, [0.1, 0.2, 0.3], 0.5, samples=4, surface=False
    ),
}

_VECTOR_FIELD_ROUTES = {
    "jacobian": lambda F: jacobian(F, [0.3, 0.4, 0.5]),
    "stokes_check": lambda F: stokes_check(F, _DISK, n=4),
    "divergence_check": lambda F: divergence_check(F, order=2, radial_nodes=2),
}


@pytest.mark.parametrize("route", sorted(_SCALAR_ROUTES))
def test_one_dimensional_rules_pass_python_floats(route):
    seen = []
    _SCALAR_ROUTES[route](_recording(seen))
    assert seen and all(type(t) is float for t in seen)


# the routes on a block of points (gradient and jacobian take it at one point)
# pass each as a row of one float array; the other single-point stencils pass
# tuples of Python floats
_BLOCK_ROUTES = {
    "gradient",
    "jacobian",
    "mean_value_gap",
    "mean_value_gap_ball",
    "stokes_check",
    "divergence_check",
}


def _float_points(route, seen, d=None):
    if route in _BLOCK_ROUTES:
        return all(type(p) is np.ndarray and p.ndim == 1 and p.dtype == float and len(p) == (d or len(p)) for p in seen)
    return all(isinstance(p, tuple) and len(p) == (d or len(p)) and all(type(v) is float for v in p) for p in seen)


@pytest.mark.parametrize("route", sorted(_FIELD_ROUTES))
def test_multidimensional_routes_pass_float_rows(route):
    seen = []
    _FIELD_ROUTES[route](_recording(seen))
    assert seen and _float_points(route, seen)


@pytest.mark.parametrize("route", sorted(_VECTOR_FIELD_ROUTES))
def test_vector_field_routes_pass_float_rows(route):
    seen = []
    _VECTOR_FIELD_ROUTES[route](_recording(seen, (1.0, 2.0, 3.0)))
    assert seen and _float_points(route, seen, 3)
