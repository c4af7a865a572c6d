import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from calclab.dynamics import (
    ChargeConfig,
    Grid1D,
    OrbitState,
    classify_conic,
    conic_fit,
    cross,
    dalembert,
    disk_map,
    divergence_check,
    einstein_add_1d,
    einstein_add_3d,
    electric_field,
    ellipse_length,
    flux_through_sphere,
    gravity1d_time,
    green_check,
    heat_kernel,
    heat_lattice_step,
    heat_solve,
    kepler_integrate,
    ode2_solve,
    orbit_params,
    orbit_period,
    simulate_heat,
    simulate_wave,
    stereographic_to_plane,
    stereographic_to_sphere,
    stokes_check,
    wave_lattice_step,
)
from calclab.linalg import matrix_exp
from calclab.quad import simpson


def test_cross():
    assert np.allclose(cross([1, 0, 0], [0, 1, 0]), [0, 0, 1])
    rng = np.random.default_rng(3)
    for _ in range(20):
        u, v = rng.standard_normal((2, 3))
        assert np.allclose(cross(u, u), 0.0)
        w = cross(u, v)
        assert abs(w @ u) < 1e-12 and abs(w @ v) < 1e-12
        # triple product expansion
        assert np.allclose(cross(u, cross(u, v)), (u @ v) * u - (u @ u) * v)


def test_einstein_1d():
    assert einstein_add_1d(0.5, 0.5) == pytest.approx(0.8)
    assert einstein_add_1d(0.0, 0.73) == pytest.approx(0.73)
    for v in (-0.9, 0.0, 0.5, 1.0):
        assert einstein_add_1d(1.0, v) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        einstein_add_1d(1.0, -1.0)
    with pytest.raises(ValueError):
        einstein_add_1d(1.5, 0.0)


def test_einstein_3d_properties():
    rng = np.random.default_rng(7)
    for _ in range(500):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        u *= rng.uniform(0.0, 0.999) / np.linalg.norm(u)
        v *= rng.uniform(0.0, 0.999) / np.linalg.norm(v)
        s = einstein_add_3d(u, v)
        # norm contraction below the light cone
        assert np.linalg.norm(s) < 1.0
        # squared-norm identity
        dot = float(u @ v)
        expected = (
            np.linalg.norm(u + v) ** 2
            - np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2
            + dot * dot
        ) / (1.0 + dot) ** 2
        assert np.linalg.norm(s) ** 2 == pytest.approx(expected, abs=1e-12)
    # |u| = 1 absorbs v
    u = np.array([0.6, 0.8, 0.0])
    v = np.array([0.2, -0.1, 0.3])
    assert np.allclose(einstein_add_3d(u, v), u, atol=1e-12)
    # |v| = 1 keeps the light-speed norm (but generally not v itself)
    v1 = np.array([0.0, 1.0, 0.0])
    s = einstein_add_3d(np.array([0.5, 0.0, 0.0]), v1)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
    # collinear inputs reduce to the 1D rational formula
    s = einstein_add_3d([0.5, 0.0, 0.0], [0.25, 0.0, 0.0])
    assert s[0] == pytest.approx(einstein_add_1d(0.5, 0.25))
    assert abs(s[1]) < 1e-15 and abs(s[2]) < 1e-15
    # commutativity genuinely fails in 3D
    a = np.array([0.5, 0.0, 0.0])
    b = np.array([0.0, 0.5, 0.0])
    assert not np.allclose(einstein_add_3d(a, b), einstein_add_3d(b, a))


def test_rotating_acceleration():
    from calclab.dynamics import rotating_acceleration

    a = np.array([1.0, -2.0, 0.5])
    assert np.allclose(rotating_acceleration(a, [0, 0, 0], [1, 1, 1], [2, 0, 0]), a)
    # fixed point on a rotating body: centripetal acceleration w^2 r inward
    w = 3.0
    x = np.array([2.0, 0.0, 0.0])
    A = rotating_acceleration([0, 0, 0], [0, 0, w], [0, 0, 0], x)
    assert np.allclose(A, [-w * w * 2.0, 0.0, 0.0])
    # the velocity term doubles with speed
    A1 = rotating_acceleration([0, 0, 0], [0, 0, w], [0, 1.0, 0], [0, 0, 0])
    A2 = rotating_acceleration([0, 0, 0], [0, 0, w], [0, 2.0, 0], [0, 0, 0])
    assert np.allclose(A2, 2.0 * A1)


def test_gravity1d():
    assert gravity1d_time(2.0, 2.0, 1.0) == 0.0
    assert gravity1d_time(0.0, 2.0, 1.0) == pytest.approx(math.pi * math.sqrt(2.0**3 / 8.0))  # the whole fall
    with pytest.raises(ValueError):
        gravity1d_time(3.0, 2.0, 1.0)


def test_gravity1d_rk4_oracle():
    # integrate xdd = -k/x^2 from rest at x0 and compare crossing times
    x0, k = 2.0, 1.3
    dt = 1e-5
    x, v, t = x0, 0.0, 0.0
    targets = [1.5, 1.0, 0.5]
    idx = 0
    while idx < len(targets) and x > 0.05:
        def acc(xx):
            return -k / (xx * xx)

        k1x, k1v = v, acc(x)
        k2x, k2v = v + 0.5 * dt * k1v, acc(x + 0.5 * dt * k1x)
        k3x, k3v = v + 0.5 * dt * k2v, acc(x + 0.5 * dt * k2x)
        k4x, k4v = v + dt * k3v, acc(x + dt * k3x)
        x_new = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v_new = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t_new = t + dt
        if x_new <= targets[idx] < x:
            frac = (x - targets[idx]) / (x - x_new)
            t_cross = t + frac * dt
            closed = gravity1d_time(targets[idx], x0, k)
            assert t_cross == pytest.approx(closed, rel=1e-4)
            idx += 1
        x, v, t = x_new, v_new, t_new
    assert idx == len(targets)


def test_kepler_circular():
    s0 = OrbitState(1.0, 0.0, 0.0, 1.0, 1.0)
    T = orbit_period(s0)
    assert T == pytest.approx(2 * math.pi)
    traj = kepler_integrate(s0, T, T / 4000)
    assert max(abs(p.r - 1.0) for p in traj) < 1e-6
    assert max(abs(p.angular_momentum - 1.0) for p in traj) < 1e-9


def test_kepler_conservation_and_conic():
    s0 = OrbitState(2 / 3, 0.0, 0.0, 1.5, 1.0)  # eps = 0.5 ellipse
    c, eps, delta, lam = orbit_params(s0)
    assert (c, eps, delta) == pytest.approx((1.0, 0.5, 0.0))
    assert lam == pytest.approx(1.0)
    T = orbit_period(s0)
    traj = kepler_integrate(s0, T, T / 10**4)
    J0 = traj[0].angular_momentum
    assert max(abs(p.angular_momentum - J0) for p in traj) <= 1e-6 * abs(J0)
    E0 = traj[0].energy
    assert max(abs(p.energy - E0) for p in traj) <= 1e-6 * abs(E0)
    cf, ef, df, residual = conic_fit(traj)
    assert (cf, ef, df) == pytest.approx((1.0, 0.5, 0.0), abs=1e-6)
    assert residual <= 1e-5
    # theta_dot * r^2 is the constant lambda
    for p in traj[:: len(traj) // 7]:
        theta_dot = (p.x * p.vy - p.y * p.vx) / p.r**2
        assert theta_dot * p.r**2 == pytest.approx(lam, rel=1e-5)


def test_kepler_radial_start_delta():
    # nonzero initial radial speed maps to -delta sqrt(K/c)
    s0 = OrbitState(1.0, 0.0, -0.2, 1.1, 1.0)
    c, eps, delta, lam = orbit_params(s0)
    assert -delta * math.sqrt(s0.K) / math.sqrt(c) == pytest.approx(-0.2)
    T = orbit_period(s0)
    traj = kepler_integrate(s0, T, T / 8000)
    cf, ef, df, residual = conic_fit(traj)
    assert (cf, ef, df) == pytest.approx((c, eps, delta), abs=1e-5)
    assert residual < 1e-6


def test_orbit_params_requires_axis_start():
    with pytest.raises(ValueError):
        orbit_params(OrbitState(1.0, 0.5, 0.0, 1.0, 1.0))


def test_kepler_rejects_collision():
    s0 = OrbitState(1.0, 0.0, -10.0, 0.0, 1.0)  # plunging straight in
    with pytest.raises(ArithmeticError):
        kepler_integrate(s0, 1.0, 1e-3, r_min=0.05)


def test_classify_conic():
    assert classify_conic(1, 0, 1, 0, 0, -1) == "ellipse"
    assert classify_conic(0, 1, 0, 0, 0, -1) == "hyperbola"  # xy = 1
    assert classify_conic(1, 0, 0, 0, -1, 0) == "parabola"  # x^2 = y
    assert classify_conic(1, 0, 1, 0, 0, 1) == "empty"
    assert classify_conic(1, 0, 1, 0, 0, 0) == "point"
    assert classify_conic(1, 0, -1, 0, 0, 0) == "crossing_lines"
    assert classify_conic(1, 0, 0, 0, 0, -1) == "parallel_lines"
    assert classify_conic(1, 0, 0, 0, 0, 0) == "line"
    assert classify_conic(0, 0, 0, 1, 1, 0) == "line"
    assert classify_conic(0, 0, 0, 0, 0, 0) == "plane"
    # a quadratic part inside the tolerance band counts as zero:
    # 1e-12 x^2 + 1 = 0 is empty, 1e-12 x^2 + x = 0 the line x = 0
    assert classify_conic(1e-12, 0, 0, 0, 0, 1) == "empty"
    assert classify_conic(1e-12, 0, 0, 1, 0, 0) == "line"
    for tol in (-1e-9, 1.0, math.nan):
        with pytest.raises(ValueError, match="need 0 <= tol < 1"):
            classify_conic(1, 0, 1, 0, 0, -1, tol=tol)
    # rotated/scaled ellipse stays an ellipse
    assert classify_conic(5, 4, 5, -2, 1, -10) == "ellipse"
    # x^2 + 1e-5 y = 0 has |det3| = 2.5e-11, inside the tolerance band
    assert classify_conic(1, 0, 0, 0, 1e-5, 0) == "parabola"


def test_ellipse():
    assert ellipse_length(1.0, 1.0) == pytest.approx(2.0 * math.pi, abs=1e-10)
    assert ellipse_length(2.0, 1.0) == pytest.approx(9.6884, abs=1e-3)
    # the perimeter by the arithmetic-geometric mean: 2 pi (a^2 - sum 2^(k-1) c_k^2) / AGM(a, b)
    for a, b in ((2.0, 1.0), (1.0, 0.1), (3.0, 2.5)):
        x, y, c2, s = a, b, a * a - b * b, 0.5 * (a * a - b * b)
        for k in range(1, 8):
            x, y, c2 = 0.5 * (x + y), math.sqrt(x * y), 0.25 * (x - y) ** 2
            s += 2.0 ** (k - 1) * c2
        assert ellipse_length(a, b) == pytest.approx(2.0 * math.pi * (a * a - s) / x, rel=1e-13)


@pytest.mark.parametrize("b", [1e-4, 1e-6])
def test_ellipse_length_at_high_eccentricity_against_mpmath(b):
    # the settled trapezoid stopped at its cap 2.4e-8 and 4.9e-8 off
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = float(4 * mpmath.ellipe(1 - mpmath.mpf(b) ** 2))
    assert abs(ellipse_length(1.0, b) - want) <= 1e-14 * want


@pytest.mark.parametrize("a, b", [(1.5e-154, 1.5e-170), (0.4, 5e-324), (1e300, 1e-300)])
def test_ellipse_length_where_a_b_underflows(a, b):
    # the AGM's product a b underflowed to 0, and the perimeter divided by a zero mean
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        want = float(4 * mpmath.mpf(a) * mpmath.ellipe(1 - (mpmath.mpf(b) / a) ** 2))
    assert abs(ellipse_length(a, b) - want) <= 1e-14 * want
    assert abs(ellipse_length(b, a) - want) <= 1e-14 * want


def test_stereographic():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.standard_normal(int(rng.integers(1, 5)))
        p = stereographic_to_sphere(v)
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(stereographic_to_plane(p), v, atol=1e-10)
    assert np.allclose(stereographic_to_sphere(np.zeros(3)), [-1, 0, 0, 0])
    with pytest.raises(ValueError):
        stereographic_to_plane(np.array([1.0, 0.0, 0.0]))


def test_dalembert():
    g = lambda x: math.sin(x)
    zero = lambda x: 0.0
    assert dalembert(g, zero, 1.0, 0.7, 0.0) == pytest.approx(math.sin(0.7))
    for x, t in [(0.3, 0.4), (1.5, 2.0)]:
        assert dalembert(g, zero, 1.0, x, t) == pytest.approx(
            math.sin(x) * math.cos(t), abs=1e-12
        )
        assert dalembert(zero, math.cos, 1.0, x, t) == pytest.approx(
            math.cos(x) * math.sin(t), abs=1e-10
        )


def test_wave_lattice_matches_dalembert():
    sigma = 0.5
    g = lambda x: math.exp(-((x - 10.0) ** 2) / (2 * sigma**2))
    zero = lambda x: 0.0
    grid = simulate_wave(g, zero, 1.0, 0.0, 20.0, 0.01, 0.5, 5.0)
    exact = np.array([dalembert(g, zero, 1.0, float(x), grid.time, nodes=2) for x in grid.x])
    assert np.abs(grid.values - exact).max() <= 1e-2


def test_wave_lattice_gap_shrinks_with_resolution():
    sigma = 0.6
    g = lambda x: math.exp(-((x - 5.0) ** 2) / (2 * sigma**2))
    zero = lambda x: 0.0

    def gap(dx):
        grid = simulate_wave(g, zero, 1.0, 0.0, 10.0, dx, 0.5, 2.0)
        exact = np.array(
            [dalembert(g, zero, 1.0, float(x), grid.time, nodes=2) for x in grid.x]
        )
        return np.abs(grid.values - exact).max()

    # halving dx (and dt with it, fixed CFL) shrinks the sup gap >= 3x
    assert gap(0.02) / gap(0.01) >= 3.0


def test_lattice_stability_refusal():
    grid = Grid1D(np.zeros(11), 0.0, 1.0)
    with pytest.raises(ValueError):
        wave_lattice_step(grid, grid, v=1.0, dt=0.2)  # lam = 2
    with pytest.raises(ValueError):
        heat_lattice_step(grid, alpha=1.0, dt=0.01)  # mu = 1
    stepped = heat_lattice_step(grid, alpha=1.0, dt=0.004)
    assert np.all(stepped.values == 0.0)


_LATTICE = {"wave": dict(v=1.0, a=0.0, b=1.0, dx=0.05, cfl=0.5), "heat": dict(alpha=1.0, a=0.0, b=1.0, dx=0.05, cfl=0.25)}


@pytest.mark.parametrize(
    "kind, bad, message",
    [
        ("wave", {"v": -1.0}, "need v > 0"),
        ("wave", {"v": 0.0}, "need v > 0"),
        ("wave", {"dx": 0.0}, "need dx > 0"),
        ("wave", {"dx": -0.05}, "need dx > 0"),
        ("wave", {"a": 1.0, "b": 0.0}, "need a < b"),
        ("heat", {"alpha": 0.0}, "need alpha > 0"),
        ("heat", {"dx": 0.0}, "need dx > 0"),
        ("heat", {"dx": -0.05}, "need dx > 0"),
        ("heat", {"a": 1.0, "b": 0.0}, "need a < b"),
    ],
    ids=["wave-v-negative", "wave-v-0", "wave-dx-0", "wave-dx-negative", "wave-b-below-a",
         "heat-alpha-0", "heat-dx-0", "heat-dx-negative", "heat-b-below-a"],
)
def test_lattice_parameters_are_checked_before_sampling(kind, bad, message):
    calls = []
    g = lambda x: calls.append(x) or 0.0
    params = dict(_LATTICE[kind], **bad)
    with pytest.raises(ValueError, match=message):
        if kind == "wave":
            simulate_wave(g, g, t_final=0.1, **params)
        else:
            simulate_heat(g, t_final=0.1, **params)
    assert calls == []


def test_kepler_start_at_the_center_is_a_collision():
    s0 = OrbitState(0.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ArithmeticError, match="collision"):
        kepler_integrate(s0, 1.0, 0.1)


def test_zero_field_stays_zero():
    grid = Grid1D(np.zeros(51), 0.0, 1.0)
    out = wave_lattice_step(grid, grid, v=1.0, dt=0.005)
    assert np.all(out.values == 0.0)


def test_heat():
    const = simulate_heat(lambda x: 2.5, 1.0, 0.0, 1.0, 0.05, 0.25, 0.03)
    assert np.abs(const.values - 2.5).max() == 0.0
    # kernel integrates to 1
    mass = simpson(lambda x: heat_kernel(1.0, 0.5, x), -14.0, 14.0, 4000)
    assert mass == pytest.approx(1.0, abs=1e-6)
    # semigroup under convolution
    for x in (0.0, 0.8):
        conv = simpson(
            lambda y: heat_kernel(1.0, 0.3, x - y) * heat_kernel(1.0, 0.5, y),
            -15.0,
            15.0,
            4000,
        )
        assert conv == pytest.approx(heat_kernel(1.0, 0.8, x), abs=1e-5)
    # gaussian initial data spreads to variance sigma^2 + 2 alpha t
    sig2, alpha, t = 1.0, 1.0, 0.25
    for x in (0.0, 0.5, 1.5):
        got = heat_solve(lambda y: math.exp(-y * y / (2 * sig2)), alpha, t, x)
        var = sig2 + 2 * alpha * t
        assert got == pytest.approx(math.sqrt(sig2 / var) * math.exp(-x * x / (2 * var)), abs=1e-10)
    # a bump much narrower than the window, off the window's centre node x: grids of 16 and
    # 32 intervals both see only its zero tail there, so agreeing coarse sums prove nothing
    for s, rel in ((0.03, 1e-10), (0.01, 2e-3)):
        got = heat_solve(lambda y: math.exp(-((y / s) ** 2)), 1.0, 1.0, 0.5)
        var = 2.0 + 0.5 * s * s
        want = math.sqrt(math.pi) * s * math.exp(-0.25 / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert got == pytest.approx(want, rel=rel)


def test_lattice_solvers_take_int_valued_profiles():
    step = lambda x: 1 if 0.4 <= x <= 0.6 else 0
    float_step = lambda x: float(step(x))
    heat = simulate_heat(step, 1.0, 0.0, 1.0, 0.05, 0.25, 0.01)
    want = simulate_heat(float_step, 1.0, 0.0, 1.0, 0.05, 0.25, 0.01)
    assert heat.values.max() > 0.0 and np.array_equal(heat.values, want.values)
    wave = simulate_wave(step, lambda x: 0, 1.0, 0.0, 1.0, 0.05, 0.5, 0.1)
    want = simulate_wave(float_step, lambda x: 0.0, 1.0, 0.0, 1.0, 0.05, 0.5, 0.1)
    assert np.array_equal(wave.values, want.values)


def test_heat_lattice_matches_kernel_solution():
    g0 = lambda x: math.exp(-x * x / 2.0)
    grid = simulate_heat(g0, 1.0, -8.0, 8.0, 0.04, 0.25, 0.25)
    idx = range(len(grid.values) // 2 - 60, len(grid.values) // 2 + 60, 12)
    for i in idx:
        expect = heat_solve(g0, 1.0, grid.time, float(grid.x[i]))
        assert grid.values[i] == pytest.approx(expect, abs=1e-3)


def test_ode2():
    cosh = ode2_solve(1.0, 0.0, 1.0, 0.0)
    for x in (0.0, 0.5, 1.3):
        assert cosh(x) == pytest.approx(math.cosh(x), rel=1e-12)
    linear = ode2_solve(0.0, 0.0, 2.0, 3.0)
    assert linear(2.0) == pytest.approx(8.0)
    # oscillator: f'' = -f
    osc = ode2_solve(-1.0, 0.0, 0.0, 1.0)
    assert osc(math.pi / 2) == pytest.approx(1.0, abs=1e-12)
    # residual f'' - a f - b f' sampled
    a, b = 0.7, -0.4
    f = ode2_solve(a, b, 0.3, -0.8)
    h = 1e-5
    for x in np.linspace(-1.0, 2.0, 9):
        fpp = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
        fp = (f(x + h) - f(x - h)) / (2 * h)
        assert fpp - a * f(x) - b * fp == pytest.approx(0.0, abs=1e-5)
    # agreement with the companion-matrix exponential
    A = np.array([[0.0, 1.0], [a, b]])
    v0 = np.array([0.3, -0.8])
    for x in (0.4, 1.1):
        assert f(x) == pytest.approx((matrix_exp(A, x) @ v0)[0], abs=1e-8)


def test_flux_centered_charge_radius_independent():
    cfg = ChargeConfig(charges=((2.0, (0.0, 0.0, 0.0)),), k=1.0)
    target = 2.0 / cfg.epsilon0
    for R in (0.5, 1.0, 2.0):
        flux = flux_through_sphere(cfg, (0, 0, 0), R, order=32)
        assert flux == pytest.approx(target, rel=1e-10)


def test_flux_gauss_law_three_charges():
    cfg = ChargeConfig(
        charges=(
            (1.0, (0.2, 0.1, -0.3)),
            (-0.5, (-0.4, 0.2, 0.1)),
            (2.0, (1.8, 0.5, 0.2)),
        ),
        k=1.0,
    )
    flux = flux_through_sphere(cfg, (0, 0, 0), 1.0, order=64)
    expected = cfg.enclosed((0, 0, 0), 1.0) / cfg.epsilon0
    assert flux == pytest.approx(expected, rel=1e-3)


def test_flux_no_enclosed_charge():
    cfg = ChargeConfig(charges=((1.5, (3.0, 0.0, 0.0)),), k=1.0)
    assert flux_through_sphere(cfg, (0, 0, 0), 1.0, order=32) == pytest.approx(
        0.0, abs=1e-8
    )
    assert flux_through_sphere(ChargeConfig(charges=()), (0, 0, 0), 1.0, order=8) == 0.0
    with pytest.raises(ValueError):
        flux_through_sphere(cfg, (2.0, 0.0, 0.0), 1.0)  # charge on the surface


@pytest.mark.parametrize(
    "center, radius, name",
    [
        ((0, 0, 0), math.nan, "radius"),
        ((0, 0, 0), math.inf, "radius"),
        ((0, 0, 0), 0.0, "radius"),
        ((0, 0, 0), -1.0, "radius"),
        ((math.nan, 0, 0), 1.0, "center"),
        ((0, -math.inf, 0), 1.0, "center"),
    ],
)
def test_flux_refuses_a_sphere_that_is_not_finite(center, radius, name):
    cfg = ChargeConfig(((1.0, (0.0, 0.0, 0.0)),))
    with pytest.raises(ValueError, match=name):
        flux_through_sphere(cfg, center, radius)


@pytest.mark.parametrize(
    "charges, k, name",
    [
        (((math.nan, (0, 0, 0)),), 1.0, "charge"),
        (((-math.inf, (0, 0, 0)),), 1.0, "charge"),
        (((1.0, (math.nan, 0, 0)),), 1.0, "position"),
        (((1.0, (0, 0, math.inf)),), 1.0, "position"),
        (((1.0, (0, 0)),), 1.0, "position"),
        (((1.0, (0, 0, 0, 0)),), 1.0, "position"),
        ((), 0.0, "Coulomb constant"),
        ((), -1.0, "Coulomb constant"),
        ((), math.nan, "Coulomb constant"),
        ((), math.inf, "Coulomb constant"),
    ],
)
def test_charge_config_refuses_what_is_not_finite(charges, k, name):
    with pytest.raises(ValueError, match=name):
        ChargeConfig(charges, k)


def test_flux_past_the_float_range_is_named():
    cfg = ChargeConfig(((1e308, (0.0, 0.0, 0.0)), (1e308, (0.1, 0.0, 0.0))))
    with pytest.raises(ValueError, match="the flux leaves the float range"):
        flux_through_sphere(cfg, (0, 0, 0), 1.0)
    # 1e307 + 1e307 inside: each charge's flux is finite, their sum is not
    cfg = ChargeConfig(((1e307, (0.0, 0.0, 0.0)), (1e307, (0.1, 0.0, 0.0))))
    with pytest.raises(ValueError, match="the flux leaves the float range"):
        flux_through_sphere(cfg, (0, 0, 0), 1.0)
    # k q = 1e308 twice, cancelling; and q s past the float range with k small enough
    cfg = ChargeConfig(((1e307, (0.0, 0.0, 0.0)), (-1e307, (0.1, 0.0, 0.0))), k=10.0)
    assert abs(flux_through_sphere(cfg, (0, 0, 0), 1.0)) <= 1e-12 * 4.0 * math.pi * 1e308
    cfg = ChargeConfig(((1e308, (0.0, 0.0, 0.0)),), k=0.01)
    assert flux_through_sphere(cfg, (0, 0, 0), 1.0) == pytest.approx(4.0 * math.pi * 1e306, rel=1e-12)


@pytest.mark.parametrize("R", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_gauss_law_at_every_scale_of_the_radius(R):
    # one charge at the center, one inside off it, one outside; all in units of R
    center = (0.5 * R, -0.25 * R, 0.125 * R)
    at = lambda v: tuple(c + x * R for c, x in zip(center, v))
    cfg = ChargeConfig(((2.0, at((0, 0, 0))), (-0.5, at((0.25, 0.1, -0.2))), (1.5, at((2.5, 0.3, 0.0)))), k=1.3)
    assert cfg.enclosed(center, R) == 1.5
    want = 1.5 / cfg.epsilon0
    assert abs(flux_through_sphere(cfg, center, R) - want) <= 1e-12 * want


def test_a_charge_whose_offset_in_radii_overflows_adds_no_flux():
    cfg = ChargeConfig(((3.0, (0.0, 0.0, 0.0)), (1.0, (1e10, 0.0, 0.0))))
    assert flux_through_sphere(cfg, (0.0, 0.0, 0.0), 1e-300) == pytest.approx(3.0 / cfg.epsilon0, rel=1e-12)


@pytest.mark.parametrize(
    "x, want",
    [((1e200, 0.0, 0.0), 0.0), ((1e-110, 0.0, 0.0), 1.3e220), ((1e120, 0.0, 0.0), 1.3e-240)],
    ids=["underflow", "1e220", "1e-240"],
)
def test_electric_field_of_a_unit_charge_at_far_and_near_points(x, want):
    # k q/r/r times the unit vector: no r**3 or |d|^2 leaves the float range before the field does
    cfg = ChargeConfig(((1.0, (0.0, 0.0, 0.0)),), k=1.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = electric_field(cfg, x)
    assert type(E) is np.ndarray and E.tolist() == [pytest.approx(want, rel=1e-15, abs=0.0), 0.0, 0.0]


def test_charge_positions_are_distinct_unless_equal():
    ChargeConfig(((1.0, (0.0, 0.0, 0.0)), (1.0, (1e-9, 0.0, 0.0))))
    with pytest.raises(ValueError, match="distinct"):
        ChargeConfig(((1.0, (0.0, 0.0, 0.0)), (1.0, (-0.0, 0, 0.0))))


def test_green():
    lhs, rhs, gap = green_check(lambda x, y: -y, lambda x, y: x, disk_map(), n=64)
    assert lhs == pytest.approx(2 * math.pi, abs=1e-6)
    assert rhs == pytest.approx(2 * math.pi, abs=1e-6)
    assert gap <= 1e-4
    lhs, rhs, gap = green_check(lambda x, y: 3.0, lambda x, y: -2.0, disk_map(), n=32)
    assert abs(lhs) <= 1e-8 and abs(rhs) <= 1e-8
    P = lambda x, y: x * x * y - 0.3 * y**3 + x
    Q = lambda x, y: x * y + 2.0 * x * x - y
    lhs, rhs, gap = green_check(P, Q, disk_map(1.3, (0.2, -0.1)), n=128)
    assert gap <= 1e-4


def test_stokes():
    flat_disk = (
        lambda u, v: (u * math.cos(v), u * math.sin(v), 0.0),
        (0.0, 1.0),
        (0.0, 2 * math.pi),
    )
    F = lambda p: (-p[1], p[0], 0.0)
    lhs, rhs, gap = stokes_check(F, flat_disk, n=48)
    assert lhs == pytest.approx(2 * math.pi, abs=1e-4)
    assert rhs == pytest.approx(2 * math.pi, abs=1e-4)
    assert gap <= 1e-4
    # gradient fields circulate to zero
    grad = lambda p: (2 * p[0], 2 * p[1], 2 * p[2])
    lhs, rhs, gap = stokes_check(grad, flat_disk, n=32)
    assert abs(rhs) <= 1e-8 and gap <= 1e-8
    # curved surface with the same boundary gives the same circulation
    hemi = (
        lambda u, v: (
            math.sin(u) * math.cos(v),
            math.sin(u) * math.sin(v),
            math.cos(u),
        ),
        (0.0, math.pi / 2),
        (0.0, 2 * math.pi),
    )
    lhs, rhs, gap = stokes_check(F, hemi, n=48)
    assert lhs == pytest.approx(2 * math.pi, abs=1e-4)
    assert gap <= 1e-4


def test_divergence():
    lhs, rhs, gap = divergence_check(lambda p: (p[0], p[1], p[2]), order=24, radial_nodes=32)
    assert lhs == pytest.approx(4 * math.pi, abs=1e-4)
    assert rhs == pytest.approx(4 * math.pi, abs=1e-4)
    assert gap <= 1e-4


@pytest.mark.parametrize(
    "check",
    [
        # the chart step 1e-6 * span rounds to 0.0: the sides read (nan, nan, nan)
        lambda F: stokes_check(F, (lambda u, v: (u, v, 0.0), (0.0, 1e-320), (0.0, 1e-320))),
        lambda F: green_check(lambda x, y: F((x, y))[0], lambda x, y: F((x, y))[1],
                              (lambda u, v: (u, v), (0.0, 1e-320), (0.0, 1e-320))),
        # F's step 1e-5 does not move 1e300: the sides read (inf, inf, nan)
        lambda F: stokes_check(F, (lambda u, v: (u, v, 0.0), (0.0, 1e300), (0.0, 1e300))),
        # nor 1e12, whose half ulp is 6e-5: for F(q) = q the ball side read 8.378 against a flux of 4 pi
        lambda F: divergence_check(F, (1e12, 0.0, 0.0)),
    ],
    ids=["stokes-span-1e-320", "green-span-1e-320", "stokes-span-1e300", "divergence-center-1e12"],
)
def test_a_checker_whose_step_does_not_fit_is_refused_before_calling_f(check):
    calls = []

    def F(q):
        calls.append(q)
        return (-q[1], q[0], 0.0) if len(q) == 3 else (-q[1], q[0])

    with pytest.raises(ValueError, match="the step h = .* does not fit the stencil"):
        check(F)
    assert calls == []


# --- the batched routes against the per-point routes they replaced --------

from hypothesis import assume, given, settings, strategies as st

from calclab import cli, dynamics
from calclab.dynamics import _sphere_quadrature
from calclab.diffcalc import holder_critical_check
from calclab.poly import roots_of_unity
from calclab.quad import _legendre_rule, jacobian_spherical, verify_fresnel


def _partial(F, x, i, h):
    e = np.zeros(len(x))
    e[i] = h
    return (np.asarray(F(x + e), dtype=float) - np.asarray(F(x - e), dtype=float)) / (2 * h)


def _curl_oracle(F, x, h=1e-5):
    dx, dy, dz = (_partial(F, x, i, h) for i in range(3))
    return np.array([dy[2] - dz[1], dz[0] - dx[2], dx[1] - dy[0]])


def _divergence_oracle(F, x, h=1e-5):
    return float(sum(_partial(F, x, i, h)[i] for i in range(3)))


def _chart_oracle(mapping, u, v, h=1e-6):
    xu = (np.array(mapping(u + h, v)) - np.array(mapping(u - h, v))) / (2 * h)
    xv = (np.array(mapping(u, v + h)) - np.array(mapping(u, v - h))) / (2 * h)
    return xu, xv


def _line_oracle(G, curve, t0, t1, n, h):
    def f(t):
        xt = np.subtract(curve(t + h), curve(t - h)) / (2 * h)
        return float(np.asarray(G(np.asarray(curve(t), dtype=float)), dtype=float) @ xt)

    return simpson(f, t0, t1, n)


def _edges(mapping, u_span, v_span):
    (u0, u1), (v0, v1) = u_span, v_span
    edges = [
        (lambda t: mapping(t, v0), u0, u1),
        (lambda t: mapping(u1, t), v0, v1),
        (lambda t: mapping(t, v1), u1, u0),
        (lambda t: mapping(u0, t), v1, v0),
    ]
    return [edge for edge in edges if edge[1] != edge[2]]


def _tensor_oracle(g, u_span, v_span, n):
    return simpson(lambda u: simpson(lambda v: g(u, v), *v_span, n), *u_span, n)


def _sphere_oracle(order, azimuths=None):
    """The product rule node by node; the (cos, sin) of the 2 order azimuths pi i/order are given,
    or math.cos and math.sin of the float angle."""
    u, w = _legendre_rule(order)
    if azimuths is None:
        azimuths = [(math.cos(math.pi * i / order), math.sin(math.pi * i / order)) for i in range(2 * order)]
    dt = 2.0 * math.pi / (2 * order)
    nodes, weights = [], []
    for ui, wi in zip(u, w):
        sin_s = math.sqrt(max(0.0, 1.0 - ui * ui))
        for c, s in azimuths:
            nodes.append((sin_s * c, sin_s * s, ui))
            weights.append(wi * dt)
    return np.array(nodes), np.array(weights)


def _green_oracle(P, Q, region, n):
    mapping, u_span, v_span = region
    h = 1e-6 * max(u_span[1] - u_span[0], v_span[1] - v_span[0])
    lhs = sum(
        _line_oracle(lambda x: (P(*x), Q(*x)), *edge, 2 * n, h)
        for edge in _edges(mapping, u_span, v_span)
    )

    def curl_z(u, v):
        x, y = mapping(u, v)
        hh = 1e-5
        dQdx = (Q(x + hh, y) - Q(x - hh, y)) / (2 * hh)
        dPdy = (P(x, y + hh) - P(x, y - hh)) / (2 * hh)
        xu, xv = _chart_oracle(mapping, u, v, h)
        return (dQdx - dPdy) * (xu[0] * xv[1] - xu[1] * xv[0])

    return lhs, _tensor_oracle(curl_z, u_span, v_span, n)


def _stokes_oracle(F, surface, n):
    mapping, u_span, v_span = surface
    h = 1e-6 * max(u_span[1] - u_span[0], v_span[1] - v_span[0])

    def surf(u, v):
        xu, xv = _chart_oracle(mapping, u, v, h)
        x = np.asarray(mapping(u, v), dtype=float)
        return float(_curl_oracle(F, x) @ np.cross(xu, xv))

    lhs = _tensor_oracle(surf, u_span, v_span, n)
    rhs = sum(_line_oracle(F, *edge, 2 * n, h) for edge in _edges(mapping, u_span, v_span))
    return lhs, rhs


def _divergence_check_oracle(F, center, radius, order, radial_nodes):
    # node by node on the rule's azimuths: a 1-ulp move of a node moves a step-1e-5 central
    # difference by about 1e-12, so only the same azimuths compare at 1e-12
    nodes, weights = _sphere_oracle(order, [(z.real, z.imag) for z in roots_of_unity(2 * order)])

    def shell(r):
        return r * r * sum(
            w * _divergence_oracle(F, center + r * p) for p, w in zip(nodes, weights)
        )

    t, wt = _legendre_rule(radial_nodes)
    lhs = sum(0.5 * radius * wi * shell(0.5 * radius * (ti + 1.0)) for ti, wi in zip(t, wt))
    rhs = radius * radius * sum(
        w * float(np.asarray(F(center + radius * p), dtype=float) @ p)
        for p, w in zip(nodes, weights)
    )
    return lhs, rhs


def _close(got, want):
    # the fields below have coefficients of order one, so their integrals
    # are compared relative to max(1, |want|)
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


_coef = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(max_examples=8, deadline=None)
@given(st.lists(_coef, min_size=12, max_size=12), st.floats(0.5, 1.5), st.floats(-0.5, 0.5))
def test_theorem_checks_match_per_point_oracles(c, radius, shift):
    M = np.array(c[:9]).reshape(3, 3).tolist()
    g = c[9:]

    def F(q):
        x, y, z = q.tolist()
        return (
            M[0][0] * x + M[0][1] * y + M[0][2] * z + g[0] * x * x * x,
            M[1][0] * x + M[1][1] * y + M[1][2] * z + g[1] * y * y * y,
            M[2][0] * x + M[2][1] * y + M[2][2] * z + g[2] * z * z * z,
        )

    center = np.array([shift, -shift, 0.5 * shift])
    got = divergence_check(F, center, radius, order=5, radial_nodes=6)
    want = _divergence_check_oracle(F, center, radius, 5, 6)
    assert _close(got[0], want[0]) and _close(got[1], want[1])
    assert got[2] == abs(got[0] - got[1])

    hemi = (
        lambda u, v: (
            radius * math.sin(u) * math.cos(v),
            radius * math.sin(u) * math.sin(v),
            radius * math.cos(u) + shift,
        ),
        (0.0, math.pi / 2),
        (0.0, 2 * math.pi),
    )
    got = stokes_check(F, hemi, n=10)
    want = _stokes_oracle(F, hemi, 10)
    assert _close(got[0], want[0]) and _close(got[1], want[1])

    P = lambda x, y: M[0][0] * x + M[0][1] * y + g[0] * y**3
    Q = lambda x, y: M[1][0] * x + M[1][1] * y + g[1] * x**3
    region = disk_map(radius, (shift, 0.3))
    got = green_check(P, Q, region, n=12)
    want = _green_oracle(P, Q, region, 12)
    assert _close(got[0], want[0]) and _close(got[1], want[1])


@pytest.mark.parametrize("n", [12, None])
def test_green_is_stokes_on_the_lifted_chart(n):
    P = lambda x, y: x * x * y - 0.3 * y**3 + x
    Q = lambda x, y: x * y + 2.0 * x * x - y
    mapping, u_span, v_span = disk_map(1.3, (0.2, -0.1))
    lifted = (lambda u, v: (*mapping(u, v), 0.0), u_span, v_span)
    line, area, gap = green_check(P, Q, (mapping, u_span, v_span), n)
    surface, circulation, _ = stokes_check(lambda p: (P(p[0], p[1]), Q(p[0], p[1]), 0.0), lifted, n)
    assert _close(line, circulation) and _close(area, surface) and gap == abs(line - area)


def test_a_green_check_that_does_not_settle_says_so():
    # dQ/dx is a Gaussian bump of width 0.01 and both sides are pi w^2; the default stopped at
    # n = 256 with both 7-9% off, and returned them
    w = 0.01
    Q = lambda x, y: 0.5 * math.sqrt(math.pi) * w * math.erf((x - 0.37) / w) * math.exp(-(((y - 0.21) / w) ** 2))
    P = lambda x, y: 0.0
    with pytest.raises(ValueError, match=r"did not settle to 1e-09 by n = 256 \(last change 8\.1e-05\); pass n"):
        green_check(P, Q, disk_map())
    lhs, rhs, _ = green_check(P, Q, disk_map(), 512)
    assert abs(lhs - math.pi * w * w) <= 1e-7 and abs(rhs - math.pi * w * w) <= 1e-7


def test_a_divergence_check_that_does_not_settle_says_so():
    # F = g c with g a Gaussian bump of width 0.03 centred on the unit sphere at c, (theta, phi) = (1, 0.37):
    # the 2 order^2 sphere nodes resolve it only past the cap of order 32
    c = np.array([math.sin(1.0) * math.cos(0.37), math.sin(1.0) * math.sin(0.37), math.cos(1.0)])
    F = lambda p: math.exp(-float((p - c) @ (p - c)) / 0.03**2) * c
    with pytest.raises(ValueError, match=r"did not settle to 1e-09 by n = 32 \(last change 0\.0012\); pass n"):
        divergence_check(F)
    lhs, rhs, _ = divergence_check(F, order=64)
    assert abs(lhs - 0.0028793) <= 1e-7 and abs(rhs - 0.0028234) <= 1e-7


def test_default_theorem_checks_settle_within_a_few_thousand_calls():
    # the acceptance fields: unit disks, F = (-y, x, 0), F = identity
    calls = {"P": 0, "F": 0}

    def P(x, y):
        calls["P"] += 1
        return -y

    lhs, rhs, gap = green_check(P, lambda x, y: x, disk_map())
    assert abs(lhs - 2 * math.pi) < 1e-6 and abs(rhs - 2 * math.pi) < 1e-6 and gap <= 1e-4
    assert calls["P"] <= 4_000

    def F(p):
        calls["F"] += 1
        return (-p[1], p[0], 0.0)

    flat_disk = (lambda u, v: (u * math.cos(v), u * math.sin(v), 0.0), (0.0, 1.0), (0.0, 2 * math.pi))
    lhs, rhs, gap = stokes_check(F, flat_disk)
    assert abs(lhs - 2 * math.pi) < 1e-4 and abs(rhs - 2 * math.pi) < 1e-4 and gap <= 1e-4
    assert calls["F"] <= 4_000

    def identity(p):
        calls["F"] += 1
        return (p[0], p[1], p[2])

    calls["F"] = 0
    lhs, rhs, gap = divergence_check(identity)
    assert abs(lhs - 4 * math.pi) < 1e-4 and abs(rhs - 4 * math.pi) < 1e-4 and gap <= 1e-4
    assert calls["F"] <= 70_000


def test_divergence_check_calls_per_node():
    calls = []

    def F(q):
        calls.append((q, q.copy()))
        return (q[0] + q[1] * q[2], q[1] ** 3, -q[2])

    order, radial_nodes = 3, 4
    divergence_check(F, order=order, radial_nodes=radial_nodes)
    sphere = 2 * order * order
    shells = radial_nodes  # Gauss-Legendre radii, none at r = 0
    assert len(calls) == 6 * shells * sphere + sphere
    for q, copy in calls:
        assert isinstance(q, np.ndarray) and q.dtype == float and q.shape == (3,)
        assert np.array_equal(q, copy)  # no buffer handed to F was overwritten


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"radius": -1.0}, "radius"),
        ({"radius": 0.0}, "radius"),
        ({"radius": math.inf}, "radius"),
        ({"radius": math.nan}, "radius"),
        ({"center": (math.nan, 0.0, 0.0)}, "center"),
        ({"center": (0.0, -math.inf, 0.0)}, "center"),
    ],
)
def test_divergence_check_rejects_a_bad_ball_before_calling_F(kwargs, name):
    calls = []

    def F(q):
        calls.append(q)
        return (q[0], q[1], q[2])

    with pytest.raises(ValueError, match=name):
        divergence_check(F, order=4, radial_nodes=2, **kwargs)
    assert calls == []


def test_sphere_quadrature_matches_loop_order():
    mpmath = pytest.importorskip("mpmath")
    for order in (1, 4, 5, 9):
        nodes, weights = _sphere_quadrature(order)
        with mpmath.workdps(30):
            azimuths = [(float(mpmath.cospi(mpmath.mpf(i) / order)), float(mpmath.sinpi(mpmath.mpf(i) / order))) for i in range(2 * order)]
        want_nodes, want_weights = _sphere_oracle(order, azimuths)
        assert np.all(np.abs(nodes - want_nodes) <= 2 * np.spacing(1.0))  # 2 ulp of 1
        assert np.array_equal(weights, want_weights)


def _polar_oracle(axis, order, azimuths=5):
    """The order-node Gauss-Legendre rule in mu about the unit axis, times equal azimuths."""
    a = np.asarray(axis, dtype=float)
    e1 = np.cross(a, [1.0, 0.0, 0.0] if abs(a[0]) < 0.9 else [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(a, e1)
    u, w = _legendre_rule(order)
    dt = 2.0 * math.pi / azimuths
    return [
        (m * a + math.sqrt(1.0 - m * m) * (math.cos(j * dt) * e1 + math.sin(j * dt) * e2), wi * dt)
        for m, wi in zip(u, w)
        for j in range(azimuths)
    ]


@pytest.mark.parametrize("order", [8, 33])
def test_batched_flux_equals_summed_electric_field(order):
    # each charge's field summed over nodes whose polar axis runs through it: the same
    # order-node rule in mu that flux_through_sphere takes in closed form
    charges = (
        (1.0, (0.2, 0.1, -0.3)),
        (-0.5, (-0.4, 0.2, 0.1)),
        (2.0, (1.8, 0.5, 0.2)),
        (0.7, (0.1, -1.6, 0.3)),
    )
    k, center, radius = 1.3, np.array([0.1, 0.0, -0.2]), 1.2
    want = 0.0
    for q, p in charges:
        one = ChargeConfig(((q, p),), k)
        axis = (np.array(p) - center) / np.linalg.norm(np.array(p) - center)
        want += radius * radius * sum(
            w * float(electric_field(one, center + radius * n) @ n) for n, w in _polar_oracle(axis, order)
        )
    got = flux_through_sphere(ChargeConfig(charges, k), center, radius, order=order)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_flux_equals_summed_electric_field():
    # the product rule's sum of electric_field over the sphere is the independent route
    cfg = ChargeConfig(
        charges=(
            (1.0, (0.2, 0.1, -0.3)),
            (-0.5, (-0.4, 0.2, 0.1)),
            (2.0, (1.8, 0.5, 0.2)),
            (0.7, (0.1, -1.6, 0.3)),
        ),
        k=1.3,
    )
    center, radius = np.array([0.1, 0.0, -0.2]), 1.2
    nodes, weights = _sphere_oracle(64)
    want = radius * radius * sum(
        w * float(electric_field(cfg, center + radius * p) @ p) for p, w in zip(nodes, weights)
    )
    got = flux_through_sphere(cfg, center, radius, order=64)
    assert abs(got - want) <= 1e-13 * abs(want)


_direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)
# a charge's distance from the center in radii, at least 0.15 radii from the surface
_distance = st.one_of(st.floats(0.0, 0.85), st.floats(1.15, 4.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-3.0, 3.0), _distance, _direction), min_size=1, max_size=4),
    st.floats(0.5, 2.0),
    st.floats(1e-3, 1e3),
)
def test_gauss_law_for_charges_away_from_the_surface(charges, k, radius):
    center = (0.3, -0.2, 0.1)
    at = lambda c, v: tuple(x + radius * c * a / math.hypot(*v) for x, a in zip(center, v))
    charges = tuple((q, at(c, v)) for q, c, v in charges)
    assume(len({p for _, p in charges}) == len(charges))
    cfg = ChargeConfig(charges, k)
    want = 4.0 * math.pi * k * cfg.enclosed(center, radius)
    scale = 4.0 * math.pi * sum(abs(k * q) for q, _ in charges)
    assert abs(flux_through_sphere(cfg, center, radius) - want) <= 1e-13 * scale


def _kepler_step_numpy(s, dt):
    def rhs(state, K):
        x, y, vx, vy = state
        r3 = (x * x + y * y) ** 1.5
        return np.array([vx, vy, -K * x / r3, -K * y / r3])

    state = np.array([s.x, s.y, s.vx, s.vy])
    k1 = rhs(state, s.K)
    k2 = rhs(state + 0.5 * dt * k1, s.K)
    k3 = rhs(state + 0.5 * dt * k2, s.K)
    k4 = rhs(state + dt * k3, s.K)
    new = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return OrbitState(new[0], new[1], new[2], new[3], s.K, s.time + dt)


@pytest.mark.parametrize("e", [0.0, 0.3, 0.85])
def test_kepler_integrate_is_bitwise_the_numpy_rk4(e):
    s = OrbitState(1.0 / (1.0 + e), 0.0, -0.05, 1.0 + e, 1.3)
    T = orbit_period(s)
    traj = kepler_integrate(s, T, T / 1500)
    assert len(traj) == 1501
    for got in traj[1:]:
        s = _kepler_step_numpy(s, T / 1500)
        assert (got.x, got.y, got.vx, got.vy, got.time) == (s.x, s.y, s.vx, s.vy, s.time)


def test_kepler_integrate_clips_the_last_step():
    s0 = OrbitState(1.0, 0.0, 0.0, 1.1, 1.0)
    traj = kepler_integrate(s0, 1.0, 0.3)
    assert len(traj) == 5
    assert [p.time for p in traj[:4]] == [p.time for p in kepler_integrate(s0, 0.9, 0.3)]
    assert traj[-1].time == 1.0
    last = kepler_integrate(traj[3], 1.0 - traj[3].time, 1.0 - traj[3].time)[1]
    assert (traj[-1].x, traj[-1].y, traj[-1].vx, traj[-1].vy) == (last.x, last.y, last.vx, last.vy)
    # a duration shorter than dt is one step of that duration
    short = kepler_integrate(s0, 0.05, 0.1)
    one = kepler_integrate(s0, 0.05, 0.05)[1]
    assert len(short) == 2 and short[1].time == 0.05 and short[1].x == one.x
    # the end is s.time + T for a state that does not start at t = 0
    later = kepler_integrate(OrbitState(1.0, 0.0, 0.0, 1.1, 1.0, time=2.0), 1.0, 0.3)
    assert len(later) == 5 and later[-1].time == 3.0
    with pytest.raises(ValueError):
        kepler_integrate(s0, 1.0, 0.0)


@pytest.mark.parametrize("dt", [0.001, 0.0137, 0.3])
def test_kepler_step_is_one_step_of_kepler_integrate(dt):
    # one Kepler step is kepler_integrate(s, dt, dt)[1]: chained from each state, it retraces the trajectory
    s = OrbitState(0.8, 0.1, -0.2, 1.2, 1.3, time=0.25)
    traj = kepler_integrate(s, 400 * dt, dt)
    for got in traj[1:]:
        s = kepler_integrate(s, dt, dt)[1]
        assert got == s


def test_a_lattice_step_of_int_samples_is_the_step_of_their_floats():
    # the in-place kernels write into a float copy: the step is not truncated to ints
    ints, floats = Grid1D(np.array([0, 5, 9, 5, 0]), 0.0, 1.0), Grid1D(np.array([0.0, 5.0, 9.0, 5.0, 0.0]), 0.0, 1.0)
    assert heat_lattice_step(ints, 1.0, 0.01).values.tolist() == heat_lattice_step(floats, 1.0, 0.01).values.tolist()
    assert wave_lattice_step(ints, ints, 1.0, 0.1).values.tolist() == wave_lattice_step(floats, floats, 1.0, 0.1).values.tolist()
    f32 = Grid1D(np.array([0.0, 5.0, 9.0, 5.0, 0.0], np.float32), 0.0, 1.0)
    assert heat_lattice_step(f32, 1.0, 0.01).values.dtype == np.float32


@pytest.mark.parametrize("T", [1.0, 2.0 * math.pi, 9.7, 51.3])
def test_kepler_integrate_whole_step_counts(T):
    s0 = OrbitState(1.0, 0.0, 0.0, 1.0, 1.0)
    traj = kepler_integrate(s0, T, T / 2000)
    assert len(traj) == 2001
    assert traj[-1].time == pytest.approx(T, rel=1e-12)


def _wave_oracle(g, h, v, a, b, dx, cfl, t_final):
    n = int(round((b - a) / dx))
    xs = np.linspace(a, b, n + 1)
    dt = cfl * dx / v
    steps = max(1, int(round(t_final / dt)))
    u0 = np.array([g(x) for x in xs])
    hv = np.array([h(x) for x in xs])
    lam2 = (v * dt / dx) ** 2
    u1 = np.copy(u0)
    u1[1:-1] = u0[1:-1] + dt * hv[1:-1] + 0.5 * lam2 * (u0[2:] - 2.0 * u0[1:-1] + u0[:-2])
    prev, curr = Grid1D(u0, a, b, 0.0), Grid1D(u1, a, b, dt)
    for _ in range(steps - 1):
        prev, curr = curr, wave_lattice_step(prev, curr, v, dt)
    return curr


def _heat_oracle(g, alpha, a, b, dx, cfl, t_final):
    n = int(round((b - a) / dx))
    xs = np.linspace(a, b, n + 1)
    dt = cfl * dx * dx / alpha
    grid = Grid1D(np.array([g(x) for x in xs]), a, b, 0.0)
    for _ in range(max(1, int(round(t_final / dt)))):
        grid = heat_lattice_step(grid, alpha, dt)
    return grid


def test_simulate_wave_and_heat_equal_step_loops():
    g = lambda x: math.exp(-((x - 2.0) ** 2))
    h = lambda x: 0.3 * math.sin(x)
    for t in (0.0, 0.01, 0.37, 1.5):
        got = simulate_wave(g, h, 1.2, 0.0, 4.0, 0.05, 0.7, t)
        want = _wave_oracle(g, h, 1.2, 0.0, 4.0, 0.05, 0.7, t)
        assert got.time == want.time and np.array_equal(got.values, want.values)
        got = simulate_heat(g, 0.8, 0.0, 4.0, 0.1, 0.4, t)
        want = _heat_oracle(g, 0.8, 0.0, 4.0, 0.1, 0.4, t)
        assert got.time == want.time and np.array_equal(got.values, want.values)


def test_lattice_time_is_the_rounded_step_count():
    g = lambda x: math.sin(x)
    zero = lambda x: 0.0
    dt_wave = 0.5 * 0.1 / 2.0
    dt_heat = 0.25 * 0.1 * 0.1 / 0.5
    for t in (1e-4, 0.26, 0.3374, 1.0):
        wave = simulate_wave(g, zero, 2.0, 0.0, 3.0, 0.1, 0.5, t)
        heat = simulate_heat(g, 0.5, 0.0, 3.0, 0.1, 0.25, t)
        assert wave.time == pytest.approx(max(1, round(t / dt_wave)) * dt_wave, rel=1e-12)
        assert heat.time == pytest.approx(max(1, round(t / dt_heat)) * dt_heat, rel=1e-12)


def _frames_table(simulate, args, note):
    g = cli._PROFILES[args["profile"]](args["a"], args["b"])
    rows = []
    for frame, t in enumerate(np.linspace(0.0, args["t"], args["frames"] + 1)[1:]):
        grid = simulate(g, float(t))
        rows.extend((frame, grid.time, float(x), float(u)) for x, u in zip(grid.x, grid.values))
    return cli.ResultTable(["frame", "t", "x", "u"], rows, note=note)


def _csv(table):
    sink = io.StringIO()
    cli.emit(table, "csv", sink)
    return sink.getvalue()


@pytest.mark.parametrize("profile", ["gaussian", "step"])
def test_cli_lattice_frames_from_one_run(profile, monkeypatch):
    wave = dict(profile=profile, a=0.0, b=4.0, dx=0.1, cfl=0.5, v=1.0, t=3.0, frames=7)
    heat = dict(profile=profile, a=0.0, b=2.0, dx=0.1, cfl=0.25, alpha=1.0, t=0.3, frames=6)
    argv = lambda kind, d: [kind] + [f"--{k}={v}" for k, v in d.items()]
    zero = lambda x: 0.0
    want = _frames_table(
        lambda g, t: simulate_wave(g, zero, 1.0, 0.0, 4.0, 0.1, 0.5, t), wave,
        f"{profile} pulse, leapfrog lattice",
    )
    assert _csv(cli.run(argv("wave", wave))) == _csv(want)
    want = _frames_table(
        lambda g, t: simulate_heat(g, 1.0, 0.0, 2.0, 0.1, 0.25, t), heat,
        f"{profile} profile, forward-Euler lattice",
    )
    assert _csv(cli.run(argv("heat", heat))) == _csv(want)

    # one run: the steps taken are the last frame's count, not the sum over frames
    counts = {"wave": 0, "heat": 0}

    def counting(kind, step):
        def wrapped(*a, **k):
            counts[kind] += 1
            return step(*a, **k)

        return wrapped

    monkeypatch.setattr(dynamics, "_leapfrog_step", counting("wave", dynamics._leapfrog_step))
    monkeypatch.setattr(dynamics, "_heat_step", counting("heat", dynamics._heat_step))
    cli.run(argv("wave", wave))
    cli.run(argv("heat", heat))
    assert counts["wave"] + 1 == round(3.0 / (0.5 * 0.1))  # plus the Taylor start step
    assert counts["heat"] == round(0.3 / (0.25 * 0.1 * 0.1))


@pytest.mark.parametrize("a, b, dx", [(-1e308, 1e308, 0.05), (0.0, 1e308, 1e-10)], ids=["span", "count"])
def test_a_lattice_whose_point_count_overflows_is_refused(a, b, dx):
    calls = []
    g = lambda x: calls.append(x) or 0.0
    with pytest.raises(ValueError, match="overflows"):
        dynamics._lattice(g, a, b, dx)
    assert calls == []


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda g: kepler_integrate(OrbitState(1.0, 0.0, 0.0, 1.0, 1.0), 1e300, 0.1), f"{round(1e300 / 0.1):,} RK4 steps"),
        (lambda g: dynamics._heat_frames(g, 1.0, 0.0, 10.0, 1e-5, 0.25, [0.5, 1.0]), "1,000,001 points"),
        (lambda g: simulate_wave(g, g, 1.0, 0.0, 20.0, 1e-12, 0.5, 1.0), "20,000,000,000,001 points"),
        (lambda g: simulate_heat(g, 1.0, 0.0, 10.0, 0.05, 0.25, 1000.0), "1,600,000 steps"),
    ],
    ids=["kepler-steps", "heat-points", "wave-points", "heat-steps"],
)
def test_work_past_its_cap_is_refused_before_the_first_step(monkeypatch, run, message):
    steps = []
    for name in ("_rk4_steps", "_heat_step", "_leapfrog_step"):
        monkeypatch.setattr(dynamics, name, lambda *args, **kw: steps.append(args))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message) + ", past the cap"):
            run(lambda x: 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == [] and peak < 10**6  # the 201-point lattice of the step cap is 1.6 kB


_NAN = math.nan
# each call returned NaN or a wrong answer instead of refusing its input
_REFUSED = [
    (dynamics.einstein_add_1d, (_NAN, 0.5), "speeds must satisfy"),
    (dynamics.einstein_add_3d, ([_NAN, 0.0, 0.0], [0.0, 0.0, 0.0]), "speeds must satisfy"),
    (dynamics.gravity1d_time, (0.0, _NAN, 1.0), "a finite x0 > 0"),
    (dynamics.gravity1d_time, (0.5, 1.0, _NAN), "need k > 0"),
    (dynamics.gravity1d_time, (0.0, 0.0, 1.0), "x0 > 0"),  # a bare ZeroDivisionError
    (dynamics.heat_kernel, (1.0, _NAN, 0.0), "need alpha, t > 0"),
    (dynamics.heat_kernel, (_NAN, 1.0, 0.0), "need alpha, t > 0"),
    (dynamics.classify_conic, (_NAN, 0.0, 1.0, 0.0, 0.0, -1.0), "need finite coefficients"),  # "empty"
    (jacobian_spherical, (2, _NAN), "need r >= 0"),
    (jacobian_spherical, (3, _NAN, 1.0), "need r >= 0"),
    (holder_critical_check, ([1.0, 2.0], _NAN), "need a finite p > 1"),
    (verify_fresnel, (_NAN,), "need a finite T >= 5"),  # not "cannot convert float NaN to integer"
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f, args, message", _REFUSED, ids=[f"{f.__name__}{args}" for f, args, _ in _REFUSED])
def test_guards_refuse_nan_and_results_past_the_float_range(f, args, message):
    with pytest.raises(ValueError, match=message):
        f(*args)


# finite values past an intermediate power (references from 30-digit mpmath), values that
# leave the float range, and non-finite inputs
@pytest.mark.parametrize(
    "route, expected",
    [
        (lambda: gravity1d_time(0.0, 1e103, 1e10), 3.51240736552036320667113424322e149),
        (lambda: gravity1d_time(1e102, 1e103, 1e10), 3.46377164734116434041424258078e149),
        (lambda: jacobian_spherical(3, 1e200, 1e-150), 9.99999999999999945761602657194e249),
        (lambda: heat_kernel(1e-310, 1.0, [5.29e-154, 0.0, 0.0]), 3.29366881801503383876729484999e159),
        (lambda: heat_kernel(1e-320, 1.0, [0.0, 0.0, 0.0]), "the heat kernel leaves the float range"),
        (lambda: holder_critical_check([1e200, 1.0], 1.5)[1], 1e200),
        (lambda: holder_critical_check([1e200, 1.0], 1.5)[0].tolist(), [1.0, 0.0]),
        (lambda: ellipse_length(1e-200, 1e-200), 6.28318530717958636445791847011e-200),
        (lambda: ellipse_length(1e200, 1e200), 6.283185307179586286752884958e200),
        (lambda: ellipse_length(math.nan, 1.0), "need a, b > 0 and finite"),
        (lambda: ode2_solve(math.nan, 0.0, 1.0, 0.0), "need finite a, b, f(0) and f'(0)"),
        (lambda: ode2_solve(1.0, -math.inf, 1.0, 0.0), "need finite a, b, f(0) and f'(0)"),
        # b * b + 4a overflows: the roots 1e200 and 0 come from the scaled equation
        (lambda: ode2_solve(0.0, 1e200, 1.0, 0.0)(0.0), 1.0),
        (lambda: ode2_solve(1e6, 0.0, 1.0, 0.0)(1.0), "the solution leaves the float range at x = 1.0"),
    ],
    ids=[
        "stop-time",
        "fall-time",
        "jacobian",
        "heat-kernel",
        "heat-kernel-range",
        "holder-maximum",
        "holder-maximizer",
        "ellipse-small",
        "ellipse-large",
        "ellipse-nan",
        "ode2-nan",
        "ode2-inf",
        "ode2-roots",
        "ode2-solution",
    ],
)
def test_values_past_an_intermediate_power(route, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            route()
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert route() == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [0, -3])
def test_a_circulation_check_of_fewer_than_one_interval_is_refused(n):
    # n = 0 divided by zero and n = -3 asked numpy for a negative dimension
    calls = []
    field = lambda p: calls.append(p) or (0.0, 0.0)
    for call in (lambda: stokes_check(field, disk_map(), n), lambda: green_check(lambda x, y: 0.0, lambda x, y: 0.0, disk_map(), n)):
        with pytest.raises(ValueError, match="^need n >= 1$"):
            call()
    assert calls == []
