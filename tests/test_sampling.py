"""The sampling contract shared by every route that calls a user function on nodes.

One call per node; a 1-D rule hands f a Python float, an N-D route a 1-D
float array; a NaN or infinite value raises ValueError.
"""

import math

import numpy as np
import pytest

from calclab.diffcalc import (
    classify_critical,
    gradient,
    hessian,
    jacobian,
    laplacian,
    mean_value_gap,
    spherical_laplacian,
    taylor2_multi,
)
from calclab.dynamics import (
    disk_map,
    divergence_check,
    green_check,
    simulate_heat,
    simulate_wave,
    stokes_check,
)
from calclab.prob import Law, moments
from calclab.quad import monte_carlo, riemann, simpson, trapezoid
from calclab.rng import RandomSource

_DISK = (lambda u, v: (u * math.cos(v), u * math.sin(v), 0.0), (0.0, 1.0), (0.0, 2 * math.pi))
_ZERO = lambda x: 0.0

# each entry runs one public route with a user function built from a value c:
# c = 1.0 is a valid run, a non-finite c must be rejected
_ROUTES = {
    "riemann": lambda c: riemann(lambda x: c, 0.0, 1.0, 8),
    "trapezoid": lambda c: trapezoid(lambda x: c, 0.0, 1.0, 8),
    "simpson": lambda c: simpson(lambda x: c, 0.0, 1.0, 8),
    "monte_carlo": lambda c: monte_carlo(lambda x: c, 0.0, 1.0, 8, RandomSource(1)),
    "moments": lambda c: moments(Law(density=lambda x: c / 2, support=(-1.0, 1.0)), 2, 16),
    "gradient": lambda c: gradient(lambda p: c, [0.3, 0.4]),
    "jacobian": lambda c: jacobian(lambda p: (c, 1.0), [0.3, 0.4]),
    "hessian": lambda c: hessian(lambda p: c, [0.3, 0.4]),
    "laplacian": lambda c: laplacian(lambda p: c, [0.3, 0.4]),
    "classify_critical": lambda c: classify_critical(lambda p: c, [0.3, 0.4]),
    "spherical_laplacian": lambda c: spherical_laplacian(lambda r, s, t: c, 1.0, 1.0, 1.0),
    "taylor2_multi": lambda c: taylor2_multi(lambda p: c, [0.3, 0.4], [0.1, 0.1]),
    "mean_value_gap": lambda c: mean_value_gap(lambda p: c, [0.1, 0.2], 0.5, samples=8),
    "mean_value_gap_ball": lambda c: mean_value_gap(
        lambda p: c, [0.1, 0.2, 0.3], 0.5, samples=4, surface=False
    ),
    "simulate_wave": lambda c: simulate_wave(lambda x: c, _ZERO, 1.0, 0.0, 1.0, 0.1, 0.5, 0.2),
    "simulate_wave_velocity": lambda c: simulate_wave(
        _ZERO, lambda x: c, 1.0, 0.0, 1.0, 0.1, 0.5, 0.2
    ),
    "simulate_heat": lambda c: simulate_heat(lambda x: c, 1.0, 0.0, 1.0, 0.1, 0.25, 0.02),
    "green_check": lambda c: green_check(lambda x, y: c, lambda x, y: x, disk_map(), n=4),
    "stokes_check": lambda c: stokes_check(lambda p: (c, p[0], 0.0), _DISK, n=4),
    "divergence_check": lambda c: divergence_check(
        lambda p: (c, p[1], p[2]), order=2, radial_nodes=2
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_non_finite_values_raise(route, value):
    _ROUTES[route](1.0)
    with pytest.raises(ValueError):
        _ROUTES[route](value)


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


@pytest.mark.parametrize("route", sorted(_FIELD_ROUTES))
def test_multidimensional_routes_pass_float_rows(route):
    seen = []
    _FIELD_ROUTES[route](_recording(seen))
    assert seen
    assert all(type(p) is np.ndarray and p.ndim == 1 and p.dtype == float for p in seen)


@pytest.mark.parametrize("route", sorted(_VECTOR_FIELD_ROUTES))
def test_vector_field_routes_pass_float_rows(route):
    seen = []
    _VECTOR_FIELD_ROUTES[route](_recording(seen, (1.0, 2.0, 3.0)))
    assert seen
    assert all(type(p) is np.ndarray and p.shape == (3,) and p.dtype == float for p in seen)
