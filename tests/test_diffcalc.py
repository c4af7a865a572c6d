import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from calclab import _codegen, diffcalc, linalg
from calclab.diffcalc import (
    _EPS,
    _Point,
    _central_differences,
    classify_critical,
    derivative_1d,
    gradient,
    hessian,
    holder_critical_check,
    jacobian,
    laplacian,
    mean_value_gap,
    onorm_criticality,
    spherical_laplacian,
    taylor1d,
    taylor2_multi,
    unity_root_average,
)


def test_gradient():
    f = lambda v: v[0] ** 2 + v[1] ** 2
    assert gradient(f, [1.0, 2.0]) == pytest.approx([2.0, 4.0], abs=1e-8)
    assert gradient(lambda v: 5.0, [0.3, -0.7]) == pytest.approx([0.0, 0.0], abs=1e-10)


def test_gradient_halving_h_improves_by_factor_four():
    f = lambda v: math.sin(v[0]) * math.exp(v[1])
    x = np.array([0.7, 0.2])
    exact = np.array([math.cos(0.7) * math.exp(0.2), math.sin(0.7) * math.exp(0.2)])
    h = 1e-3
    e1 = np.abs(gradient(f, x, h) - exact).max()
    e2 = np.abs(gradient(f, x, h / 2) - exact).max()
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_hessian():
    f = lambda v: v[0] * v[1]
    H = hessian(f, [0.4, -1.2])
    assert H == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]), abs=1e-6)
    # each mixed pair is evaluated once, so H is symmetric by construction
    g = lambda v: math.sin(v[0] * v[1]) + v[0] ** 3 * v[1]
    H = hessian(g, [0.5, 0.3])
    assert np.array_equal(H, H.T)


def test_jacobian_chain_rule():
    F = lambda v: [v[0] ** 2 + v[1], math.sin(v[1])]
    G = lambda v: [v[0] * v[1], v[0] - v[1]]
    x = np.array([0.6, 0.9])
    JG = jacobian(G, x)
    JF = jacobian(F, G(x))
    composed = jacobian(lambda v: F(G(v)), x)
    assert composed == pytest.approx(JF @ JG, abs=1e-4)


def test_derivative_1d_and_taylor():
    assert derivative_1d(math.sin, 0.0, 1) == pytest.approx(1.0, abs=1e-9)
    assert derivative_1d(math.exp, 0.0, 2) == pytest.approx(1.0, abs=1e-6)
    assert taylor1d(math.exp, 0.0, 0, 0.5) == pytest.approx(1.0)
    # polynomials of degree <= order reproduce exactly (up to fd noise)
    poly = lambda x: 2.0 - x + 3.0 * x**2 - 0.5 * x**3
    for t in (-0.7, 0.3, 1.1):
        assert taylor1d(poly, 0.2, 3, t) == pytest.approx(poly(0.2 + t), abs=1e-5)
    # classical remainder bound for sin at order 2
    t = 0.1
    assert abs(taylor1d(math.sin, 0.0, 2, t) - math.sin(t)) <= abs(t) ** 3 / 6 + 1e-9


def test_taylor2_multi():
    f = lambda v: v[0] ** 2 + 3.0 * v[0] * v[1] - v[1] ** 2
    x, t = [0.5, -0.3], [0.01, 0.02]
    exact = f(np.array(x) + np.array(t))
    assert taylor2_multi(f, x, t) == pytest.approx(exact, abs=1e-7)


def test_classify_critical():
    bowl = lambda v: v[0] ** 2 + v[1] ** 2
    report = classify_critical(bowl, [0.0, 0.0])
    assert report.classification == "minimum"
    assert report.gradient_norm < 1e-8
    saddle = lambda v: v[0] ** 2 - v[1] ** 2
    rep = classify_critical(saddle, [0.0, 0.0])
    assert rep.classification == "saddle"
    assert sorted(rep.eigenvalues) == pytest.approx([-2.0, 2.0], abs=1e-5)
    cubic = lambda v: v[0] ** 3
    assert classify_critical(cubic, [0.0]).classification == "degenerate"
    dome = lambda v: -(v[0] ** 2) - 2.0 * v[1] ** 2
    assert classify_critical(dome, [0.0, 0.0]).classification == "maximum"
    assert classify_critical(bowl, [1.0, 1.0]).classification == "not critical"


def test_laplacian_and_harmonic():
    re_z3 = lambda v: v[0] ** 3 - 3.0 * v[0] * v[1] ** 2
    pts = [[0.3, 0.4], [1.0, -0.5], [-0.8, 0.2]]
    assert all(abs(laplacian(re_z3, p)) <= 1e-5 for p in pts)
    assert laplacian(lambda v: 7.0, [0.1, 0.2]) == pytest.approx(0.0, abs=1e-10)
    inv_r = lambda v: 1.0 / math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    for p in ([1.0, 1.0, 1.0], [0.5, -1.0, 2.0]):
        assert abs(laplacian(inv_r, p)) <= 1e-4
    # log r is harmonic only in 2D
    log_r = lambda v: math.log(math.hypot(v[0], v[1]))
    assert all(abs(laplacian(log_r, p)) <= 1e-5 for p in [[1.0, 0.5], [-0.7, 1.1]])


def test_mean_value_property():
    log_r = lambda v: math.log(math.hypot(v[0], v[1]))
    # off-center circle staying away from the singularity at 0
    assert mean_value_gap(log_r, [3.0, 1.0], 0.8) <= 1e-4
    assert mean_value_gap(lambda v: 4.2, [0.0, 0.0], 1.0) <= 1e-12
    # x^2 on the unit circle has average 1/2 (a Wallis value), so gap 1/2
    sq = lambda v: v[0] ** 2
    assert mean_value_gap(sq, [0.0, 0.0], 1.0) == pytest.approx(0.5, abs=1e-6)
    # harmonic in 3D: 1/r about an off-center sphere, surface and ball
    inv_r = lambda v: 1.0 / math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    assert mean_value_gap(inv_r, [2.0, 1.0, 1.0], 0.7, samples=4096) <= 1e-4
    assert mean_value_gap(inv_r, [2.0, 1.0, 1.0], 0.7, samples=4096, surface=False) <= 1e-3


def test_mean_value_ball_is_exact_for_harmonic_fields():
    # the sphere average of a harmonic field is constant in the radius, so the
    # ball integrand avg(r) r^2 is a quadratic that the radial Gauss rule integrates exactly
    inv_r = lambda v: 1.0 / math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    assert mean_value_gap(inv_r, [2.0, 1.0, 1.0], 0.7, samples=4096, surface=False) <= 1e-12


def test_mean_value_ball_skips_the_centre_shell():
    center = np.array([0.1, 0.2, 0.3])
    f, calls = _counting(lambda v: float(v @ v))
    mean_value_gap(f, center, 0.5, samples=64, surface=False)
    # 16 Gauss-Legendre shells of 128 sphere nodes, none at r = 0, and f(center)
    assert len(calls) == 16 * 128 + 1
    assert sum(np.array_equal(args[0], center) for args in calls) == 1


@pytest.mark.parametrize("center", [[0.0, 0.0], [0.0, 0.0, 0.0]])
@pytest.mark.parametrize("samples", [0, -5])
def test_mean_value_gap_rejects_no_samples(center, samples):
    with pytest.raises(ValueError, match="samples"):
        mean_value_gap(lambda v: 1.0, center, 1.0, samples=samples)


@pytest.mark.parametrize("radius", [math.inf, math.nan])
def test_mean_value_gap_rejects_a_non_finite_radius(radius):
    f, calls = _counting(lambda v: float(v @ v))
    with pytest.raises(ValueError, match="radius"):
        mean_value_gap(f, [0.0, 0.0], radius)
    assert calls == []


def test_spherical_laplacian():
    # f = r^2 has laplacian 6 (2 per axis)
    f = lambda r, s, t: r * r
    assert spherical_laplacian(f, 1.3, 0.9, 0.4) == pytest.approx(6.0, abs=1e-4)
    # 1/r is harmonic away from 0
    g = lambda r, s, t: 1.0 / r
    assert abs(spherical_laplacian(g, 2.0, 1.1, 0.3)) <= 1e-4
    # z = r cos s is linear, hence harmonic
    z = lambda r, s, t: r * math.cos(s)
    assert abs(spherical_laplacian(z, 1.5, 0.7, 2.0)) <= 1e-4
    with pytest.raises(ValueError):
        spherical_laplacian(f, 1.0, 0.0, 0.0)


def test_spherical_matches_cartesian_laplacian():
    def cart(v):
        return math.exp(0.3 * v[0]) * math.cos(0.5 * v[1]) + v[2] ** 2

    def spher(r, s, t):
        x = r * math.cos(s)
        y = r * math.sin(s) * math.cos(t)
        z = r * math.sin(s) * math.sin(t)
        return cart([x, y, z])

    r, s, t = 1.4, 1.0, 0.6
    point = [
        r * math.cos(s),
        r * math.sin(s) * math.cos(t),
        r * math.sin(s) * math.sin(t),
    ]
    assert spherical_laplacian(spher, r, s, t) == pytest.approx(
        laplacian(cart, point), abs=1e-3
    )


def test_unity_root_average():
    f = lambda z: z * z * z + 2.0 * z - 1.0
    assert unity_root_average(f, 0.7, 0.0, 5) == pytest.approx(f(0.7))
    # polynomial of degree < n averages exactly to f(x)
    quad = lambda z: 1.0 + z + z * z
    assert unity_root_average(quad, 0.3, 0.2, 3) == pytest.approx(quad(0.3), abs=1e-12)
    # exp at order 3: the gap estimates f'''(0) t^3/6 = t^3/6
    import cmath

    gap = unity_root_average(cmath.exp, 0.0, 0.1, 3) - 1.0
    assert gap == pytest.approx(1e-3 / 6.0, rel=1e-2)


def test_unity_root_average_of_the_last_power_is_zero_to_1e_15():
    # z^(n-1) averages to exactly 0 over the n roots; w**s gave 1.7e-14 at n = 100
    n = 100
    assert abs(unity_root_average(lambda z: z ** (n - 1), 0.0, 1.0, n)) <= 1e-15


def test_unity_root_average_past_an_overflowing_sum():
    # every value is finite (the largest e^709.5), but their sum overflows before the division
    got = unity_root_average(cmath.exp, 709.0, 0.5, 4)
    want = unity_root_average(cmath.exp, 0.0, 0.5, 4) * math.exp(709.0)
    assert abs(got - want) <= 1e-14 * want


def test_holder_critical_check():
    x, value = holder_critical_check([1.0, 1e-9, 1e-9], 2.0)
    assert value == pytest.approx(1.0, abs=1e-6)
    assert x[0] == pytest.approx(1.0, abs=1e-6)
    # p = 2 is Cauchy-Schwarz: maximizer y/|y|, value |y|
    y = np.array([3.0, 4.0])
    x, value = holder_critical_check(y, 2.0)
    assert value == pytest.approx(5.0)
    assert x == pytest.approx(y / 5.0)
    # p = 3 gives the 3/2-norm
    rng = np.random.default_rng(2)
    for _ in range(5):
        y = rng.uniform(0.2, 2.0, size=4)
        _, value = holder_critical_check(y, 3.0)
        assert value == pytest.approx(float(np.sum(y ** 1.5) ** (2.0 / 3.0)), rel=1e-10)


def test_onorm_criticality():
    # exact zeros (permutation-like patterns) are fine: sign(I) I^T = I
    assert onorm_criticality(np.eye(3)) is True

    def rotation(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]])

    assert onorm_criticality(rotation(math.pi / 4)) is True
    assert onorm_criticality(rotation(math.pi / 6)) is False
    with pytest.raises(ValueError):
        onorm_criticality(np.array([[1.0, 1.0], [0.2, 0.3]]))  # not orthogonal


def test_onorm_critical_direction_derivative():
    # at the pi/4 rotation, the 1-norm is stationary along tangent curves
    def one_norm_along(theta):
        c, s = math.cos(theta), math.sin(theta)
        U = np.array([[c, -s], [s, c]])
        return float(np.abs(U).sum())

    h = 1e-6
    d = (one_norm_along(math.pi / 4 + h) - one_norm_along(math.pi / 4 - h)) / (2 * h)
    assert abs(d) <= 1e-6
    d6 = (one_norm_along(math.pi / 6 + h) - one_norm_along(math.pi / 6 - h)) / (2 * h)
    assert abs(d6) > 0.1


def test_jensen_midpoint_convexity():
    # convex functions satisfy the midpoint inequality
    f = lambda v: math.exp(v[0]) + v[1] ** 4
    rng = np.random.default_rng(8)
    for _ in range(30):
        a, b = rng.uniform(-1.5, 1.5, size=(2, 2))
        mid = f((a + b) / 2.0)
        assert mid <= (f(a) + f(b)) / 2.0 + 1e-12


def test_young_inequality():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b = rng.uniform(0.05, 4.0, size=2)
        p = rng.uniform(1.1, 5.0)
        q = p / (p - 1.0)
        assert a * b <= a**p / p + b**q / q + 1e-12


# --- the one axis stencil against the per-point routes it replaced ---------


def _counting(f):
    calls = []

    def counted(*args):
        calls.append(args)
        return f(*args)

    return counted, calls


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stencil_evaluates_each_point_once(d):
    f, calls = _counting(lambda v: float(np.sin(v).sum() + np.prod(v)))
    x = np.linspace(0.3, 0.9, d)
    n_hessian = 1 + 2 * d + 2 * d * (d - 1)  # 19 in 3-D, where (i, j) and (j, i) took 31
    for route, want in (
        (gradient, 2 * d),
        (laplacian, 2 * d + 1),
        (hessian, n_hessian),
        (classify_critical, 2 * d + n_hessian),  # 25 in 3-D: f(x) comes from the Hessian's centre
    ):
        calls.clear()
        route(f, x)
        assert len(calls) == want, route.__name__
        assert len({tuple(args[0]) for args in calls}) == len(calls)


def test_spherical_laplacian_evaluates_seven_points():
    f, calls = _counting(lambda r, s, t: r * r * math.cos(s) * math.sin(t))
    spherical_laplacian(f, 1.3, 0.9, 0.4)
    assert len(calls) == 7 and len(set(calls)) == 7  # 13 calls before, at the same 7 points
    assert all(type(v) is float for args in calls for v in args)


def _stepped(x, h, *moves):
    """x with coordinate i at x_i + h or x_i - h for each move (i, sign), every other coordinate x's own."""
    p = list(x)
    for i, sign in moves:
        p[i] = x[i] + h if sign > 0 else x[i] - h
    return tuple(p)


def _axes(d):
    return [((i, sign),) for sign in (1, -1) for i in range(d)]


def _corners(d):
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    return [((i, a), (j, b)) for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)) for i, j in pairs]


@pytest.mark.parametrize("d", range(1, 8))
def test_stencil_points_are_the_unit_offsets_added_coordinate_by_coordinate(d):
    # each point is x with only its stepped coordinates at x_i +/- h: every other coordinate is
    # x's own float, a -0.0 included
    x = tuple(np.random.default_rng(d).choice([0.0, -0.0, 0.7, -1.3], d).tolist())
    for h in (0.25, -0.25, 5e-324):
        hessian_moves = [()] + _axes(d) + _corners(d)
        # each route's points: the Hessian's whole stencil, the Laplacian's axes, the gradient's
        # axis points in front of the Hessian's
        for route, moves in (
            (hessian, hessian_moves),
            (laplacian, hessian_moves[: 2 * d + 1]),
            (classify_critical, _axes(d) + hessian_moves),
        ):
            got = []
            if h == 5e-324:  # h * h is 0: each route refuses the step before the first call
                with pytest.raises(ValueError, match="the step h = 5e-324"):
                    route(lambda v: got.append(v) or 0.0, x, h)
                assert got == []
                continue
            route(lambda v: got.append(v) or 0.0, x, h)
            want = [_stepped(x, h, *m) for m in moves]
            assert all(type(p) is _Point for p in got)
            assert [tuple(map(float.hex, p)) for p in got] == [tuple(map(float.hex, p)) for p in want]


@pytest.mark.parametrize(
    "f, x, dfdx",
    [
        (lambda v: math.copysign(1.0, v[1]) * v[0], (2.0, -0.0), -1.0),
        (lambda v: math.atan2(v[1], v[0]), (-1.0, -0.0), 0.0),
    ],
    ids=["copysign", "atan2"],
)
def test_an_unmoved_negative_zero_stays_on_its_side(f, x, dfdx):
    # the x-differences keep y at -0.0: none of their points crosses the sign change or the branch
    # cut along the x-axis
    assert abs(gradient(f, x)[0] - dfdx) <= 1e-9
    assert hessian(f, x)[0][0] == 0.0
    assert diffcalc._derivatives(2, "axes")(f, x, diffcalc._step(None, x, 2))[2][0] == 0.0  # the Laplacian's x-term
    assert classify_critical(f, x).gradient_norm > 1e3  # the y-differences cross it, as they must


def test_classify_critical_passes_negative_zero_on_every_unmoved_axis():
    x = (-0.0, 0.5, -0.0)
    got = []
    classify_critical(lambda v: got.append(v) or 0.0, x)
    assert len(got) == 25
    for i in (0, 2):
        unmoved = [p[i] for p in got if p[i] == 0.0]
        # 25 points, of which the gradient's 2, the axes' 2 and the corners' 8 move axis i
        assert len(unmoved) == 13 and all(math.copysign(1.0, v) == -1.0 for v in unmoved)


_HUGE = [1e300, 1.0]


@pytest.mark.parametrize(
    "route",
    [
        pytest.param(lambda f: laplacian(lambda p: f(p) or math.sin(p[0]), _HUGE), id="laplacian"),
        pytest.param(lambda f: hessian(lambda p: f(p) or math.sin(p[0]) * p[1], _HUGE), id="hessian"),
        pytest.param(lambda f: classify_critical(lambda p: f(p) or math.sin(p[0]) + math.cos(p[1]), [1e300, 1e300]),
                     id="classify_critical"),
        pytest.param(lambda f: taylor2_multi(lambda p: f(p) or math.sin(p[0]), _HUGE, [0.1, 0.1]), id="taylor2_multi"),
        pytest.param(lambda f: derivative_1d(lambda t: f(t) or t, 1e300, 2), id="derivative_1d"),
        pytest.param(lambda f: taylor1d(lambda t: f(t) or math.sin(t), 1e300, 3, 0.1), id="taylor1d"),
    ],
)
def test_a_default_step_that_does_not_fit_is_refused_before_calling_f(route):
    # at |x| = 1e300 the default step's h^2 (or h^k) overflows: the differences read 0 or overflowed
    f, calls = _counting(lambda p: None)
    with pytest.raises(ValueError, match="^the step h = .* does not fit the stencil"):
        route(f)
    assert calls == []


def test_each_generated_kernel_is_compiled_once(monkeypatch):
    names = []

    def counted(module, qualname, *args, **kwargs):
        names.append(qualname)
        return _codegen.compile_function(module, qualname, *args, **kwargs)

    monkeypatch.setattr(diffcalc, "_compile", counted)
    diffcalc._derivatives.cache_clear()
    rng = np.random.default_rng(35)
    for x in rng.uniform(-2.0, 2.0, (500, 3)).tolist():
        classify_critical(lambda v: v[0] * v[1] - v[2] ** 4 + math.sin(v[2]), x)
    for x in rng.uniform(-2.0, 2.0, (500, 2)).tolist():
        laplacian(_sin_cubic, x)
    # one kernel serves both signs of the step
    classify_critical(lambda v: v[0] * v[1] - v[2] ** 4, [0.1, 0.2, 0.3], -1e-3)
    laplacian(_sin_cubic, [0.4, -0.2], -1e-3)
    # no Jacobi is generated: not the eigenvectors, nor the eigenvalues at any order
    for n in (1, 2, 3):
        linalg.symmetric_eigen(np.eye(n) + 0.25)
    linalg.classify_definiteness([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    # the Laplacian's differences, and the gradient's and the Hessian's together
    assert sorted(names) == ["derivatives_2_axes", "derivatives_3_critical"]


def _hessian_calls(d):
    return 1 + 2 * d + 2 * d * (d - 1)


_FAILING_ROUTES = {  # each route and its full call count in d dimensions
    "classify_critical": (lambda f, x: classify_critical(f, x), lambda d: 2 * d + _hessian_calls(d)),
    "taylor2_multi": (lambda f, x: taylor2_multi(f, x, [0.1] * len(x)), lambda d: 2 * d + _hessian_calls(d)),
    "hessian": (lambda f, x: hessian(f, x), _hessian_calls),
    "laplacian": (lambda f, x: laplacian(f, x), lambda d: 2 * d + 1),
    "spherical_laplacian": (lambda f, x: spherical_laplacian(lambda *p: f(p), *x), lambda d: 7),
}


@pytest.mark.parametrize(
    "route, d", [(route, d) for route in _FAILING_ROUTES for d in range(1, 5) if route != "spherical_laplacian"]
    + [("spherical_laplacian", 3)],
)
def test_a_non_finite_or_overflowing_value_fails_as_samples_did(route, d):
    run, count = _FAILING_ROUTES[route]
    x = [1.3, 0.9, 0.4] if route == "spherical_laplacian" else np.linspace(0.3, 0.9, d).tolist()
    n = count(d)
    for k in range(n):
        # a NaN or infinite value raises after every call; an OverflowError of f, or of reading
        # its value as a float, stops the calls
        for bad, want in ((math.nan, n), (math.inf, n), (-math.inf, n), (OverflowError, k + 1), (10**400, k + 1)):
            calls = []

            def f(v):
                calls.append(v)
                if len(calls) != k + 1:
                    return 1.0
                if bad is OverflowError:
                    raise OverflowError("math range error")
                return bad

            with pytest.raises(ValueError, match=r"^the function produced NaN or infinite values$"):
                run(f, x)
            assert len(calls) == want, (k, bad)


_Q, _R = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
_Q = _Q * np.sign(np.diag(_R))


def _styblinski_tang(v):
    """The rotated, scaled Styblinski-Tang field of the benchmark's critical-point census."""
    w = _Q.T @ (np.asarray(v) - np.array([0.2, -0.4, 0.7]))
    return float(np.array([1.3, 0.6, 1.8]) @ (w**4 - 16.0 * w * w + 5.0 * w))


def _sin_cubic(v):
    return math.sin(v[0] * v[1]) + v[0] ** 3 * v[1]


def _close(got, want):
    return np.abs(np.asarray(got) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150)), max_size=8))
def test_stencil_point_matmul_is_the_dot_product_rounded_once(pairs):
    a, b = (tuple(v) for v in zip(*pairs)) if pairs else ((), ())
    # the products as floats, summed exactly and rounded once
    exact = float(sum(Fraction(x * y) for x, y in pairs))
    assert _Point(a) @ b == exact and a @ _Point(b) == exact and _Point(a) @ _Point(b) == exact
    with pytest.raises(ValueError):
        _Point(a) @ (b + (1.0,))
    with pytest.raises(ValueError):
        (a + (1.0,)) @ _Point(b)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(_styblinski_tang, 3), (_sin_cubic, 2)]),
    st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
)
def test_stencil_routes_match_per_point_oracles(field, coords):
    f, d = field
    x = np.array(coords[:d])
    H = hessian(f, x)
    assert np.array_equal(H, H.T)
    assert _close(H, oracles.hessian(f, x, diffcalc._step(None, x, 2)))
    assert _close(laplacian(f, x), oracles.laplacian(f, x, diffcalc._step(None, x, 2)))
    assert _close(gradient(f, x), oracles.gradient(f, x, diffcalc._step(None, x, 1)))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.2, 3.0),
    st.floats(0.1, math.pi - 0.1),
    st.floats(-math.pi, math.pi),
)
def test_spherical_laplacian_matches_per_point_oracle(r, s, t):
    def spher(r, s, t):
        return _styblinski_tang(
            [r * math.cos(s), r * math.sin(s) * math.cos(t), r * math.sin(s) * math.sin(t)]
        )

    h = min(diffcalc._step(None, (r, s, t), 2), 0.45 * r)  # the default step
    assert _close(spherical_laplacian(spher, r, s, t), oracles.spherical_laplacian(spher, r, s, t, h))


# --- classify_critical's one stencil block against the three-pass route -----


def _signed_field(v):
    """A smooth coupled field plus copysign terms: f differs at -0.0 and +0.0 coordinates."""
    t = [float(a) for a in v]
    out = math.cos(0.3 * sum(t))
    for k, a in enumerate(t):
        out += math.copysign(0.25 * (k + 1), a) + math.sin((k + 1.5) * a) * a + a**4 / (k + 2)
        if k:
            out += t[k - 1] * a
    return out


def _bits(report):
    return (
        tuple(map(float.hex, report.point)),
        float.hex(report.gradient_norm),
        tuple(map(float.hex, report.eigenvalues)),
        report.classification,
    )


def _oracle_bits(f, x, h=None):
    """The oracle's report, its gradient norm the square root of the exact sum of the squares of
    its gradient (numpy's norm sums in another order)."""
    point, _, eig, label = _bits(oracles.classify_critical(f, x, h))
    g = oracles.gradient_and_hessian(f, x, h)[0]
    return point, float.hex(math.sqrt(math.fsum(v * v for v in g.tolist()))), eig, label


_coordinate = st.one_of(st.just(-0.0), st.just(0.0), st.floats(-3.0, 3.0))
_step = st.one_of(st.none(), st.floats(1e-4, 1e-2), st.floats(-1e-2, -1e-4))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(_coordinate, min_size=d, max_size=d)), _step)
def test_classify_critical_matches_three_pass_oracle(coords, h):
    x = np.array(coords)
    rows = []

    def f(v):
        assert isinstance(v, tuple) and len(v) == len(x) and all(type(a) is float for a in v)
        rows.append(v)
        return _signed_field(v)

    assert _bits(classify_critical(f, x, h)) == _oracle_bits(_signed_field, x, h)
    d = len(x)
    assert len(rows) == 1 + 4 * d + 2 * d * (d - 1)
    # the same points, in the same order, as the oracle's three array passes
    want_rows = []
    g, fx, H = oracles.gradient_and_hessian(lambda v: want_rows.append(v.tolist()) or _signed_field(v), x, h)
    assert [tuple(map(float.hex, v)) for v in rows] == [tuple(map(float.hex, v)) for v in want_rows]
    assert hessian(_signed_field, x, h).tobytes() == H.tobytes()
    if h is None:
        assert gradient(_signed_field, x).tobytes() == g.tobytes()
        t = np.linspace(-0.01, 0.02, d)
        assert taylor2_multi(_signed_field, x, t) == float(fx + g @ t + 0.5 * t @ H @ t)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(_coordinate, min_size=d, max_size=d), min_size=1, max_size=4)
    ),
    st.one_of(st.floats(1e-4, 1e-2), st.floats(-1e-2, -1e-4)),
    st.booleans(),
)
def test_central_differences_step_one_coordinate_per_point(points, h, vector):
    # the (2d, M) block of the rows with coordinate i at x_i + h, then at x_i - h, every other
    # coordinate the row's own float
    x = np.array(points)
    M, d = x.shape
    block = np.array([_stepped(row, h, m) for (m,) in _axes(d) for row in points])
    field = (lambda v: (_signed_field(v), math.atan(v[0]) * v[-1])) if vector else _signed_field
    rows = []

    def F(v):
        rows.append(v.tobytes())
        return field(v)

    got = _central_differences(F, x, h)
    assert rows == [r.tobytes() for r in block]
    vals = np.array([field(r) for r in block])
    vals = vals.reshape((2, d, M) + vals.shape[1:])
    want = ((vals[0] - vals[1]) / (2.0 * h)).swapaxes(0, 1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_classify_critical_census_matches_three_pass_oracle():
    roots = np.sort(np.roots([4.0, 0.0, -32.0, 5.0]).real)  # critical points of t^4 - 16 t^2 + 5 t
    labels = []
    for i in range(27):
        w = np.array([roots[i % 3], roots[(i // 3) % 3], roots[i // 9]])
        x = _Q @ w + np.array([0.2, -0.4, 0.7])
        report = classify_critical(_styblinski_tang, x)
        assert _bits(report) == _oracle_bits(_styblinski_tang, x)
        labels.append(report.classification)
        assert labels[-1] == ("minimum", "saddle", "saddle", "maximum")[int((w * w < 8.0 / 3.0).sum())]
    assert len(set(labels)) == 3


@pytest.mark.parametrize(
    "route",
    [
        lambda f, x: gradient(f, x),
        lambda f, x: jacobian(lambda v: (f(v), f(v)), x),
        lambda f, x: hessian(f, x),
        lambda f, x: laplacian(f, x),
        lambda f, x: classify_critical(f, x),
        lambda f, x: taylor2_multi(f, x, [0.1, 0.1]),
        lambda f, x: mean_value_gap(f, x, 1.0),
        lambda f, x: mean_value_gap(f, x, 1.0, surface=False),
        lambda f, x: spherical_laplacian(lambda *p: f(np.array(p)), x[0], x[1], 1.0),
        lambda f, x: derivative_1d(lambda t: f(np.array([t, t])), x[0] + x[1], 1),
    ],
    ids=[
        "gradient",
        "jacobian",
        "hessian",
        "laplacian",
        "classify_critical",
        "taylor2_multi",
        "mean_value_gap",
        "mean_value_ball",
        "spherical_laplacian",
        "derivative_1d",
    ],
)
@pytest.mark.parametrize("x", [[0.0, math.inf], [math.nan, 1.0], [-math.inf, 2.0]])
def test_point_routes_reject_a_non_finite_point_before_calling_f(route, x):
    f, calls = _counting(lambda v: float(v @ v))
    with pytest.raises(ValueError, match=r"point \[.*\] has a NaN or infinite coordinate"):
        route(f, x)
    assert calls == []


@pytest.mark.parametrize(
    "route",
    [
        lambda f, x: gradient(f, x),
        lambda f, x: jacobian(lambda v: [f(v)], x),
        lambda f, x: hessian(f, x),
        lambda f, x: laplacian(f, x),
        lambda f, x: taylor2_multi(f, x, []),
        lambda f, x: classify_critical(f, x),
    ],
    ids=["gradient", "jacobian", "hessian", "laplacian", "taylor2_multi", "classify_critical"],
)
def test_point_routes_reject_a_point_without_coordinates(route):
    f, calls = _counting(lambda v: float(v @ v))
    with pytest.raises(ValueError, match="the point has no coordinates"):
        route(f, [])
    assert calls == []


@pytest.mark.parametrize(
    "values, dtype",
    [([-0.0, 0.1, -3.0, 1e300], np.float64), ([0, -3, 7, 2**40], np.int64), ([-0.0, 0.375, -3.0, 2.0**-130], np.float32)],
    ids=["float64", "int64", "float32"],
)
def test_an_array_point_reads_as_the_equal_list(values, dtype):
    # every value is exact in dtype, so the array and the list hold the same numbers
    got = diffcalc._point(np.array(values, dtype=dtype))
    assert [type(v) for v in got] == [float] * len(values)
    assert [v.hex() for v in got] == [v.hex() for v in diffcalc._point(values)]


# --- a caller's step that the stencil cannot use is refused by name --------------------------


def _field(v):
    return v[0] ** 2 + v[1]


_X = [0.5, 0.25]


def _derivative(f, k, h):
    """The k-th derivative of t -> f((t, 0)) = t^2 at t = 0.5 with step h."""
    return derivative_1d(lambda t: f((t, 0.0)), 0.5, k, h)


@pytest.mark.parametrize(
    "route, h",
    [
        # h * h (or h^3) underflows to 0: the differences divided by zero after every call of f
        pytest.param(laplacian, 1e-170, id="laplacian-h2-underflow"),
        pytest.param(hessian, 1e-170, id="hessian-h2-underflow"),
        pytest.param(classify_critical, 1e-170, id="classify_critical-h2-underflow"),
        pytest.param(lambda f, x, h: spherical_laplacian(lambda *p: f(p), 1.3, 0.9, 0.4, h), 1e-170,
                     id="spherical_laplacian-h2-underflow"),
        pytest.param(lambda f, x, h: _derivative(f, 3, h), 1e-120, id="derivative_1d-h3-underflow"),
        # x +/- h == x: the differences were a silent 0
        pytest.param(gradient, 1e-17, id="gradient-no-move"),
        pytest.param(gradient, 5e-324, id="gradient-subnormal"),
        pytest.param(jacobian, 1e-17, id="jacobian-no-move"),
        pytest.param(laplacian, 1e-17, id="laplacian-no-move"),
        pytest.param(lambda f, x, h: _derivative(f, 2, h), 1e-17, id="derivative_1d-no-move"),
        pytest.param(classify_critical, 1e-17, id="classify_critical-no-move"),
        # a NaN, infinite or overflowing step was blamed on f
        *(
            pytest.param(route, h, id=f"{name}-{h}")
            for name, route in [
                ("gradient", gradient),
                ("jacobian", jacobian),
                ("hessian", hessian),
                ("laplacian", laplacian),
                ("classify_critical", classify_critical),
                ("derivative_1d", lambda f, x, h: _derivative(f, 2, h)),
                ("derivative_1d_k1", lambda f, x, h: _derivative(f, 1, h)),
            ]
            for h in (math.nan, math.inf, -math.inf)
        ),
        pytest.param(lambda f, x, h: spherical_laplacian(lambda *p: f(p), 1.3, 0.9, 0.4, h), math.nan,
                     id="spherical_laplacian-nan"),
        pytest.param(hessian, 1e300, id="hessian-1e300"),
        pytest.param(laplacian, 1e300, id="laplacian-1e300"),
        pytest.param(classify_critical, 1e300, id="classify_critical-1e300"),
        pytest.param(lambda f, x, h: _derivative(f, 2, h), 1e300, id="derivative_1d-1e300"),
    ],
)
def test_an_unusable_step_is_refused_by_name_before_calling_f(route, h):
    f, calls = _counting(_field)
    with pytest.raises(ValueError, match=re.escape(f"the step h = {h!r} does not fit the stencil")):
        route(f, _X, h)
    assert calls == []


def test_spherical_laplacian_checks_its_capped_default_step():
    # the default step capped at 0.45 r = 4.5e-301: its square underflows
    f, calls = _counting(lambda r, s, t: r * r + s)
    with pytest.raises(ValueError, match="the step h = 4.5e-301"):
        spherical_laplacian(f, 1e-300, 0.9, 0.4)
    assert calls == []


def test_a_small_step_that_moves_every_coordinate_is_used():
    # 2h = 2e-170 is normal and 0 +/- h moves: the gradient's divisor needs no h * h
    assert gradient(_field, [0.0, 0.0], 1e-170).tolist() == [0.0, 1.0]
    assert jacobian(lambda v: [_field(v)], [0.0, 0.0], -1e-170).tolist() == [[0.0, 1.0]]
    # h^2 = 1e-300 is normal: the second differences of t^2 at 0 are exact
    assert laplacian(_field, [0.0, 0.0], 1e-150) == 2.0
    assert derivative_1d(lambda t: t * t, 0.0, 2, 1e-150) == 2.0


# --- one step rule for every stencil, the block route included ----------------------------------


@pytest.mark.parametrize(
    "route, x, h",
    [
        # x_0 + h overflowed: f was called at inf, and the gradient read [0, 0]
        (gradient, [1.797e308, 0.0], 1e305),
        (lambda f, x, h: jacobian(lambda v: [f(v)], x, h), [1.797e308, 0.0], 1e305),
        # the marginal steps: h subnormal while 2h is normal, and (2h)^2 past the float range while h^2 is not
        (gradient, [0.0, 0.0], 1.5e-308),
        (laplacian, _X, 1e154),
        (lambda f, x, h: _derivative(f, 2, h), _X, 1e154),
    ],
    ids=["gradient-point-overflows", "jacobian-point-overflows", "gradient-h-subnormal", "laplacian-4h2-overflows",
         "derivative_1d-4h2-overflows"],
)
def test_a_step_past_the_float_range_is_refused_before_calling_f(route, x, h):
    f, calls = _counting(_field)
    with pytest.raises(ValueError, match=re.escape(f"the step h = {h!r} does not fit the stencil")):
        route(f, x, h)
    assert calls == []


def test_the_block_route_checks_its_step_at_each_axis_largest_coordinate():
    F, calls = _counting(lambda v: float(v @ v))
    # 1e12 + 1e-5 == 1e12 on axis 0 of the second row only: the differences there read 0
    with pytest.raises(ValueError, match=re.escape("the step h = 1e-05 does not fit the stencil")):
        _central_differences(F, np.array([[0.5, 0.25], [1e12, -0.75], [-3.0, 2.0]]), 1e-5)
    assert calls == []
    # at unit scale the check changes no bit
    block = np.array([[0.5, 0.25], [-0.75, 1.5], [-3.0, 2.0]])
    want = [[(F(x + 1e-5 * e) - F(x - 1e-5 * e)) / (2.0 * 1e-5) for e in np.eye(2)] for x in block]
    assert _central_differences(F, block, 1e-5).tolist() == want


_MAX_CONSTANT = lambda p: 1e308  # a constant: every difference is exactly 0, but 2.0 * 1e308 overflows


@pytest.mark.parametrize(
    "route, what",
    [
        (lambda: laplacian(_MAX_CONSTANT, (0.0, 0.0)), "a second difference"),
        (lambda: hessian(_MAX_CONSTANT, (0.0, 0.0)), "a second difference"),
        (lambda: taylor2_multi(_MAX_CONSTANT, (0.0, 0.0), (0.1, 0.1)), "a second difference"),
        (lambda: classify_critical(_MAX_CONSTANT, (0.0, 0.0)), "a second difference"),
        (lambda: spherical_laplacian(lambda r, s, t: 1e308, 1.0, 0.9, 0.4), "a second difference"),
        (lambda: derivative_1d(lambda t: 1e308, 0.0, 2), "the difference of order 2"),
        (lambda: derivative_1d(lambda t: 1e308, 0.0, 4), "the difference of order 4"),
        (lambda: taylor1d(lambda t: 1e308, 0.0, 2, 0.1), "the difference of order 2"),
    ],
    ids=["laplacian", "hessian", "taylor2_multi", "classify_critical", "spherical_laplacian", "derivative_1d-2",
         "derivative_1d-4", "taylor1d"],
)
def test_a_difference_that_overflows_is_refused_not_inf(route, what):
    # each returned -inf (or, at order 4, fsum's "-inf + inf"), where the exact answer is 0
    with pytest.raises(ValueError, match=f"^{what} at the step h = .* leaves the float range$"):
        route()


def test_a_difference_of_a_constant_below_the_overflow_is_still_zero():
    f = lambda p: 8e307
    assert laplacian(f, (0.0, 0.0)) == 0.0
    assert hessian(f, (0.0, 0.0)).tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert derivative_1d(lambda t: 8e307, 0.0, 2) == 0.0
