"""Mechanics, field theory and PDE solvers in low dimensions.

Vector products and rotating-frame kinematics, relativistic velocity
addition, the one-dimensional free-fall closed form, a fourth-order two-body
integrator with conic-fit verification, conic classification, ellipse
length, stereographic projection, the d'Alembert wave solution and its
lattice counterpart, forward-Euler heat stepping with the Gaussian kernel,
second-order linear ODEs, and numerical verification of Gauss's law (one
polar Gauss-Legendre rule per charge) and of the divergence and Stokes
(Green in the plane) theorems by product quadrature.

``np`` is the deferred binding of ``calclab._numpy``, so importing this module
(and the Kepler orbits and ``flux_through_sphere``, which need no arrays)
does not load numpy.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from typing import Callable, Sequence

from ._numpy import np
from ._record import Record, _refuse
from .combinat import _fsum, _rounded
from .diffcalc import _central_differences
from .linalg import determinant
from .quad import _gauss_rule, _legendre_rule, _samples, _settle, _simpson_rule, _sphere_quadrature, simpson

__all__ = [
    "cross",
    "einstein_add_1d",
    "einstein_add_3d",
    "rotating_acceleration",
    "gravity1d_time",
    "OrbitState",
    "kepler_integrate",
    "orbit_params",
    "orbit_period",
    "conic_fit",
    "classify_conic",
    "ellipse_length",
    "stereographic_to_sphere",
    "stereographic_to_plane",
    "dalembert",
    "Grid1D",
    "wave_lattice_step",
    "heat_lattice_step",
    "simulate_wave",
    "simulate_heat",
    "heat_kernel",
    "heat_solve",
    "ode2_solve",
    "ChargeConfig",
    "electric_field",
    "flux_through_sphere",
    "disk_map",
    "green_check",
    "stokes_check",
    "divergence_check",
]

def cross(u: Sequence[float], v: Sequence[float]) -> np.ndarray:
    """Vector product in R^3 by the 2x2-determinant rule (row by row for stacks of vectors)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.stack(
        [
            u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1],
            u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2],
            u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0],
        ],
        axis=-1,
    )


def einstein_add_1d(u: float, v: float) -> float:
    """Relativistic speed addition (u + v)/(1 + uv), in c = 1 units."""
    if not (abs(u) <= 1 + 1e-12 and abs(v) <= 1 + 1e-12):
        raise ValueError("speeds must satisfy |u|, |v| <= 1")
    denom = 1.0 + u * v
    if denom == 0.0:
        raise ValueError("antipodal light-speed inputs")
    return (u + v) / denom


def einstein_add_3d(u: Sequence[float], v: Sequence[float]) -> np.ndarray:
    """Relativistic velocity addition in 3D, in c = 1 units.

    (u + v + u x (u x v)/(1 + sqrt(1 - |u|^2)))/(1 + <u, v>).  Collinear
    inputs reduce to the 1D formula; |u| = 1 absorbs v; the result never
    exceeds the light cone.  Not commutative.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if not (nu <= 1 + 1e-12 and nv <= 1 + 1e-12):
        raise ValueError("speeds must satisfy |u|, |v| <= 1")
    dot = float(u @ v)
    if 1.0 + dot <= 1e-300:
        raise ValueError("antipodal light-speed inputs")
    gamma = 1.0 + math.sqrt(max(0.0, 1.0 - min(nu, 1.0) ** 2))
    return (u + v + cross(u, cross(u, v)) / gamma) / (1.0 + dot)


def rotating_acceleration(
    a: Sequence[float],
    omega: Sequence[float],
    v: Sequence[float],
    x: Sequence[float],
) -> np.ndarray:
    """Inertial-frame acceleration a + 2 omega x v + omega x (omega x x)."""
    a = np.asarray(a, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return a + 2.0 * cross(omega, v) + cross(omega, cross(omega, x))


def gravity1d_time(x: float, x0: float, k: float) -> float:
    """Fall time to height x from rest at x0 under xdd = -k/x^2 (see :func:`_fall_time`);
    at x = 0 it is the whole fall, pi sqrt(x0^3/(8k))."""
    if not 0 < k < math.inf:
        raise ValueError("need k > 0 and finite")
    if not (0.0 <= x <= x0 and 0 < x0 < math.inf):
        raise ValueError("need 0 <= x <= x0 and a finite x0 > 0")
    y = x / x0
    return _fall_time(x0, k, math.sqrt(max(0.0, y * (1.0 - y))) + math.acos(math.sqrt(y)))


def _fall_time(x0: float, k: float, factor: float) -> float:
    """sqrt(x0^3/(2k)) factor, by logarithms where x0^3/(2k) is not a normal float;
    ValueError where the fall time leaves the float range."""
    try:
        q = x0**3 / (2.0 * k)
        if 2.0**-1022 <= q < math.inf:
            return math.sqrt(q) * factor
    except OverflowError:  # x0^3
        pass
    if not factor:
        return 0.0
    try:
        return math.exp(0.5 * (3.0 * math.log(x0) - math.log(2.0) - math.log(k)) + math.log(factor))
    except OverflowError:
        raise ValueError("the fall time leaves the float range") from None


class OrbitState(Record):
    """Planar two-body state: position, velocity, attraction constant, time."""

    __slots__ = ("x", "y", "vx", "vy", "K", "time")

    def __init__(self, x: float, y: float, vx: float, vy: float, K: float, time: float = 0.0):
        self._set(x, y, vx, vy, K, time)

    @property
    def r(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def angular_momentum(self) -> float:
        """J_z = x v_y - y v_x (per unit mass)."""
        return self.x * self.vy - self.y * self.vx

    @property
    def energy(self) -> float:
        return 0.5 * (self.vx**2 + self.vy**2) - self.K / self.r


def _rk4_steps(s: OrbitState, dt: float, steps: int, r_min: float, out: list) -> list:
    """out with the states after 1, ..., steps RK4 steps of dt from s appended, their times
    accumulated as time + dt; the one RK4 body, on local floats.

    ValueError for dt <= 0 or where |z|^3 overflows, ArithmeticError where
    the radius is below r_min at the start or after a step.
    """
    if dt <= 0:
        raise ValueError("need dt > 0")
    x, y, vx, vy, K, time = s.x, s.y, s.vx, s.vy, s.K, s.time
    if math.hypot(x, y) < r_min:
        raise ArithmeticError("collision: the start radius is below the threshold")
    nK = -K
    half = 0.5 * dt
    c = dt / 6.0
    try:
        for _ in range(steps):
            r3 = (x * x + y * y) ** 1.5
            ax1, ay1 = nK * x / r3, nK * y / r3
            x2, y2, vx2, vy2 = x + half * vx, y + half * vy, vx + half * ax1, vy + half * ay1
            r3 = (x2 * x2 + y2 * y2) ** 1.5
            ax2, ay2 = nK * x2 / r3, nK * y2 / r3
            x3, y3, vx3, vy3 = x + half * vx2, y + half * vy2, vx + half * ax2, vy + half * ay2
            r3 = (x3 * x3 + y3 * y3) ** 1.5
            ax3, ay3 = nK * x3 / r3, nK * y3 / r3
            x4, y4, vx4, vy4 = x + dt * vx3, y + dt * vy3, vx + dt * ax3, vy + dt * ay3
            r3 = (x4 * x4 + y4 * y4) ** 1.5
            ax4, ay4 = nK * x4 / r3, nK * y4 / r3
            x = x + c * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4)
            y = y + c * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4)
            vx = vx + c * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
            vy = vy + c * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
            if math.hypot(x, y) < r_min:
                raise ArithmeticError("collision: radius fell below the threshold")
            time = time + dt
            out.append(OrbitState(x, y, vx, vy, K, time))
    except OverflowError:  # the float power |z|^3
        raise ValueError("the orbit leaves the float range (|z|^3 overflows)") from None
    return out


def kepler_integrate(
    s: OrbitState, T: float, dt: float, r_min: float = 1e-12
) -> list[OrbitState]:
    """Trajectory from s over duration T in RK4 steps of dt, ending at s.time + T.

    When T/dt is a whole number n up to rounding (|T/dt - n| <= 1e-9 T/dt,
    as for dt = T/n) the trajectory is n full steps.  Otherwise it is
    floor(T/dt) full steps plus one shorter step that ends at s.time + T, so
    T = 1, dt = 0.3 gives four steps and T < dt gives one step of T.  The
    steps are one loop on local floats, so a trajectory restarted from any
    of its states continues with the same bits.

    Pass a physically meaningful r_min when collisions are possible; the
    default only catches an exact fall onto the center.  More than 10^5
    steps raise ValueError before the first one.
    """
    if T <= 0:
        raise ValueError("need T > 0")
    if dt <= 0:
        raise ValueError("need dt > 0")
    ratio = T / dt
    if not math.isfinite(ratio):
        raise ValueError("the step count T/dt overflows")
    steps = round(ratio)
    clipped = abs(ratio - steps) > 1e-9 * ratio
    if clipped:
        steps = math.floor(ratio)
    _refuse(steps + clipped, "orbit steps", "the orbit needs")
    end = s.time + T
    out = [s]
    if steps:
        _rk4_steps(s, dt, steps, r_min, out)
    if clipped:
        s = out[-1]
        last = _rk4_steps(s, end - s.time, 1, r_min, [])[0]
        out.append(OrbitState(last.x, last.y, last.vx, last.vy, last.K, end))
    return out


def orbit_params(s0: OrbitState) -> tuple[float, float, float, float]:
    """(c, epsilon, delta, lambda) of r = c/(1 + eps cos th + delta sin th).

    The state must start on the positive x-axis (theta_0 = 0); lambda is
    the angular momentum sqrt(Kc), c comes from it, eps from the initial
    radius and delta from the initial radial speed.
    """
    if abs(s0.y) > 1e-9 * max(1.0, abs(s0.x)) or s0.x <= 0:
        raise ValueError("orbit parameters need a start on the positive x-axis")
    R = s0.x
    lam = R * s0.vy
    c = lam * lam / s0.K
    eps = c / R - 1.0
    delta = -s0.vx * math.sqrt(c / s0.K)
    return c, eps, delta, lam


def orbit_period(s0: OrbitState) -> float:
    """Period of a bound orbit: 2 pi sqrt(A^3/K), A = c/(1 - e^2)."""
    c, eps, delta, _ = orbit_params(s0)
    e2 = eps * eps + delta * delta
    if e2 >= 1.0:
        raise ValueError("orbit is not bound")
    A = c / (1.0 - e2)
    return 2.0 * math.pi * math.sqrt(A**3 / s0.K)


def conic_fit(traj: Sequence[OrbitState]) -> tuple[float, float, float, float]:
    """Least-squares (c, eps, delta) for the orbit conic, plus sup residual.

    Fits eps*x + delta*y - c = -r linearly over the trajectory and reports
    the worst value of |x^2 + y^2 - (eps x + delta y - c)^2|.  A trajectory
    with a non-finite point, or one whose x^2 + y^2 overflows, is refused.
    """
    xs = np.array([p.x for p in traj])
    ys = np.array([p.y for p in traj])
    rs = np.hypot(xs, ys)
    if not rs.max() <= math.sqrt(sys.float_info.max):  # NaN fails too
        raise ValueError("the orbit leaves the float range (x^2 + y^2 overflows)")
    design = np.stack([xs, ys, -np.ones_like(xs)], axis=1)
    sol, *_ = np.linalg.lstsq(design, -rs, rcond=None)
    eps, delta, c = float(sol[0]), float(sol[1]), float(sol[2])
    residual = float(np.abs(xs**2 + ys**2 - (eps * xs + delta * ys - c) ** 2).max())
    return c, eps, delta, residual


def classify_conic(
    a: float, b: float, c: float, d: float, e: float, f: float, tol: float = 1e-9
) -> str:
    """Classify the conic a x^2 + b xy + c y^2 + d x + e y + f = 0.

    Returns ellipse/parabola/hyperbola for the non-degenerate cases, and
    empty/point/line/parallel_lines/crossing_lines/plane for the rest.
    Classification uses the eigenvalue signs of the quadratic part plus the
    3x3 degeneracy determinant, with a relative tolerance band 0 <= tol < 1.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError("need 0 <= tol < 1")
    if not all(map(math.isfinite, (a, b, c, d, e, f))):
        raise ValueError("need finite coefficients")
    scale = max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f))
    if scale == 0.0:
        return "plane"
    a, b, c, d, e, f = (v / scale for v in (a, b, c, d, e, f))
    det3 = float(determinant([[a, b / 2.0, d / 2.0], [b / 2.0, c, e / 2.0], [d / 2.0, e / 2.0, f]]))
    detQ = a * c - b * b / 4.0
    trQ = a + c
    if abs(det3) > tol:
        if detQ > tol:
            # real only when the cubic invariant has the opposite sign
            return "ellipse" if trQ * det3 < 0 else "empty"
        if detQ < -tol:
            return "hyperbola"
        return "parabola"
    # degenerate cases
    if detQ > tol:
        return "point"
    if detQ < -tol:
        return "crossing_lines"
    if max(abs(a), abs(b), abs(c)) <= tol:
        # after scaling some coefficient has modulus 1 > tol; with a..e inside
        # the band it is f, a nonzero constant, so "plane" cannot occur here
        return "line" if max(abs(d), abs(e)) > tol else "empty"
    # rank-one quadratic part: (alpha x + beta y)^2 + linear = 0
    # rotate so the quadratic part is lambda X^2
    lam = trQ  # the nonzero eigenvalue (the other is ~0)
    theta = 0.5 * math.atan2(b, a - c) if (b != 0 or a != c) else 0.0
    ct, st = math.cos(theta), math.sin(theta)
    # coefficients in rotated coordinates (X along the eigenvector)
    dX = d * ct + e * st
    dY = -d * st + e * ct
    if abs(dY) > tol:
        # a parabola whose det3 = -lam dY^2/4 fell inside the tolerance band,
        # e.g. x^2 + 1e-5 y = 0, where |det3| = 2.5e-11
        return "parabola"
    # lam X^2 + dX X + f = 0: a quadratic in X only
    disc = dX * dX - 4.0 * lam * f
    if abs(disc) <= tol:
        return "line"
    return "parallel_lines" if disc * lam > 0 else "empty"


def ellipse_length(a: float, b: float) -> float:
    """Perimeter 4 int_0^{pi/2} sqrt(a^2 sin^2 t + b^2 cos^2 t) dt of the ellipse with semi-axes a, b.

    By the arithmetic-geometric mean M(a, b) (Borwein & Borwein, *Pi and the
    AGM*, ch. 1): 2 pi ((a^2 + b^2)/2 - sum_k 2^(k-1) c_k^2)/M(a, b), with
    c_k = (a_(k-1) - b_(k-1))/2, summed until c_k <= eps a_k; within 5e-15
    relative of 80-digit mpmath values from b/a = 1e-16 to 1.
    """
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError("need a, b > 0 and finite")
    # a and b scaled by an exact power of two to max(a, b) in [1/2, 1), and the perimeter by its
    # inverse
    e = math.frexp(max(a, b))[1]
    a, b = math.ldexp(a, -e), math.ldexp(b, -e)
    if min(a, b) < 2.0**-1000:
        # 4 max(a, b) to the last bit, the next term being of order (b/a)^2 log(a/b); here the
        # AGM's first product a b could underflow to 0, and its mean with it
        perimeter = 4.0 * max(a, b)
    else:
        s, weight = 0.5 * (a * a + b * b), 1.0
        while True:
            c, a, b = 0.5 * (a - b), 0.5 * (a + b), math.sqrt(a * b)
            s -= weight * c * c
            weight *= 2.0
            if abs(c) <= sys.float_info.epsilon * a:
                break
        perimeter = 2.0 * math.pi * s / a
    try:
        return math.ldexp(perimeter, e)
    except OverflowError:
        raise ValueError("the perimeter leaves the float range") from None


def stereographic_to_sphere(v: Sequence[float]) -> np.ndarray:
    """Map R^N to the unit sphere of R^(N+1) minus the pole (1, 0, ..., 0)."""
    v = np.asarray(v, dtype=float)
    t = 2.0 / (1.0 + float(v @ v))
    return np.concatenate([[1.0 - t], t * v])


def stereographic_to_plane(p: Sequence[float]) -> np.ndarray:
    """Inverse map (c, x) -> x/(1 - c); the pole c = 1 is excluded."""
    p = np.asarray(p, dtype=float)
    c = p[0]
    if abs(1.0 - c) < 1e-15:
        raise ValueError("the north pole has no stereographic image")
    return p[1:] / (1.0 - c)


def dalembert(
    g: Callable[[float], float],
    h: Callable[[float], float],
    v: float,
    x: float,
    t: float,
    nodes: int = 512,
) -> float:
    """Wave solution (g(x-vt) + g(x+vt))/2 + (1/2v) int_{x-vt}^{x+vt} h.

    Raises ValueError if g or h gives a NaN or infinite value.
    """
    if v <= 0:
        raise ValueError("need v > 0")
    g_left, g_right = _samples(g, np.array([x - v * t, x + v * t])).tolist()
    out = 0.5 * (g_left + g_right)
    if t != 0.0:
        out += simpson(h, x - v * t, x + v * t, nodes) / (2.0 * v)
    return out


class Grid1D(Record):
    """Uniform samples of a field on [a, b] with a time stamp."""

    __slots__ = ("values", "a", "b", "time")

    def __init__(self, values: np.ndarray, a: float, b: float, time: float = 0.0):
        if len(values) < 3:
            raise ValueError("need at least 3 samples")
        if not a < b:
            raise ValueError("need a < b")
        self._set(values, a, b, time)

    @property
    def dx(self) -> float:
        return (self.b - self.a) / (len(self.values) - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.a, self.b, len(self.values))


def wave_lattice_step(u_prev: Grid1D, u_curr: Grid1D, v: float, dt: float) -> Grid1D:
    """One leapfrog step of the wave equation, fixed boundary values: one call of the frames' kernel.

    Refuses unstable parameters: v dt/dx must not exceed 1.
    """
    lam = _wave_ratio(v, dt, u_curr.dx)
    new = u_curr.values.astype(np.result_type(u_curr.values, 1.0))  # a copy; ints step as floats
    _leapfrog_step(u_prev.values, u_curr.values, new, lam, np.empty(len(new) - 2, new.dtype))
    return Grid1D(new, u_curr.a, u_curr.b, u_curr.time + dt)


def _wave_ratio(v: float, dt: float, dx: float) -> float:
    """The leapfrog's v dt/dx; ValueError unless v, dt > 0 and it is at most 1."""
    if dt <= 0 or v <= 0:
        raise ValueError("need v, dt > 0")
    lam = v * dt / dx
    if lam > 1.0 + 1e-12:
        raise ValueError(f"unstable step: v*dt/dx = {lam:.4f} > 1")
    return lam


def _leapfrog_step(u0, u1, out, lam: float, t) -> None:
    """out[1:-1] = 2 u1[1:-1] - u0[1:-1] + lam lam (u1[2:] - 2 u1[1:-1] + u1[:-2]), in that order,
    by in-place ufuncs through the scratch row t; out may be u0."""
    inner = out[1:-1]
    np.multiply(2.0, u1[1:-1], out=t)
    np.subtract(t, u0[1:-1], out=inner)
    np.subtract(u1[2:], t, out=t)
    np.add(t, u1[:-2], out=t)
    np.multiply(lam * lam, t, out=t)
    np.add(inner, t, out=inner)


def heat_lattice_step(u: Grid1D, alpha: float, dt: float) -> Grid1D:
    """One forward-Euler step of the heat equation, fixed boundary values: one call of the
    frames' kernel.

    Refuses unstable parameters: alpha dt/dx^2 must not exceed 1/2.
    """
    if dt <= 0 or alpha <= 0:
        raise ValueError("need alpha, dt > 0")
    dx = u.dx
    mu = alpha * dt / (dx * dx)
    if mu > 0.5 + 1e-12:
        raise ValueError(f"unstable step: alpha*dt/dx^2 = {mu:.4f} > 1/2")
    new = u.values.astype(np.result_type(u.values, 1.0))  # a copy; ints step as floats
    _heat_step(u.values, new, mu)
    return Grid1D(new, u.a, u.b, u.time + dt)


def _heat_step(u, out, mu: float) -> None:
    """out[1:-1] = u[1:-1] + mu (u[2:] - 2 u[1:-1] + u[:-2]), in that order, by in-place ufuncs;
    out is not u."""
    inner = out[1:-1]
    np.multiply(2.0, u[1:-1], out=inner)
    np.subtract(u[2:], inner, out=inner)
    np.add(inner, u[:-2], out=inner)
    np.multiply(mu, inner, out=inner)
    np.add(u[1:-1], inner, out=inner)


def _lattice(g: Callable[[float], float], a: float, b: float, dx: float) -> np.ndarray:
    """g sampled at the round((b-a)/dx) + 1 points of the lattice on [a, b]; needs dx > 0, a < b
    and at most the "lattice points" cap, checked before g is called or the lattice allocated."""
    if not dx > 0:
        raise ValueError("need dx > 0")
    if not a < b:
        raise ValueError("need a < b")
    if not math.isfinite((b - a) / dx):
        raise ValueError("the lattice's (b - a)/dx overflows")
    n = int(round((b - a) / dx)) + 1
    _refuse(n, "lattice points", "the lattice has")
    return _samples(g, np.linspace(a, b, n))


def _lattice_steps(dt: float, times: Sequence[float], points: int) -> None:
    """ValueError, before the first step, unless the last of the nondecreasing times is at most
    the "lattice steps" cap of dt, and those steps times the points at most the "lattice point-steps" cap."""
    steps = times[-1] / dt if times else 0.0
    if not math.isfinite(steps):
        raise ValueError("the step count t/dt overflows")
    steps = round(steps)
    _refuse(steps, "lattice steps", "the lattice needs")
    _refuse(points * steps, "lattice point-steps", "the lattice needs", f" ({points:,} points by {steps:,} steps)")


def _frames(step, older, current, a: float, b: float, dt: float, times: Sequence[float]) -> list[Grid1D]:
    """The grids at max(1, round(t/dt)) steps for each of the nondecreasing times, from one run.

    ``current`` holds the values after one step of dt, and ``older`` is a
    buffer of the same shape; ``step(older, current)`` writes the next
    step's values into ``older``, and the two then swap.  Each frame is a
    copy, its time accumulated as time + dt per step.  The callers size the
    run by ``_lattice_steps`` first.
    """
    out = []
    done, time = 1, dt
    for t in times:
        target = max(1, int(round(t / dt)))
        for _ in range(target - done):
            step(older, current)
            older, current = current, older
            time += dt
        done = target
        out.append(Grid1D(current.copy(), a, b, time))
    return out


def _wave_frames(g, h, v, a, b, dx, cfl, times) -> list[Grid1D]:
    """Leapfrog states at each of the nondecreasing times, from one run.

    Frame by frame the same as :func:`simulate_wave`.  The first step is
    the standard Taylor start using the initial velocity h and the spatial
    second difference of the displacement g; the others are
    ``_leapfrog_step`` in place on two buffers and one scratch row.
    """
    if not 0 < cfl <= 1:
        raise ValueError("need 0 < cfl <= 1")
    if not v > 0:
        raise ValueError("need v > 0")
    dt = cfl * dx / v
    u0, hv = _lattice(g, a, b, dx), _lattice(h, a, b, dx)
    _lattice_steps(dt, times, len(u0))
    lam2 = (v * dt / dx) ** 2
    u1 = np.copy(u0)
    u1[1:-1] = u0[1:-1] + dt * hv[1:-1] + 0.5 * lam2 * (u0[2:] - 2.0 * u0[1:-1] + u0[:-2])
    grid_dx = Grid1D(u0, a, b, 0.0).dx
    t = np.empty(len(u0) - 2)

    def step(older, current):  # the ratio of the grid's dx, checked at each step as by wave_lattice_step
        _leapfrog_step(older, current, older, _wave_ratio(v, dt, grid_dx), t)

    return _frames(step, u0, u1, a, b, dt, times)


def _heat_frames(g, alpha, a, b, dx, cfl, times) -> list[Grid1D]:
    """Forward-Euler states at each of the nondecreasing times, from one run.

    Frame by frame the same as :func:`simulate_heat`: the first step is
    ``heat_lattice_step``, the others ``_heat_step`` on two buffers.
    """
    if not 0 < cfl <= 0.5:
        raise ValueError("need 0 < cfl <= 1/2")
    if not alpha > 0:
        raise ValueError("need alpha > 0")
    dt = cfl * dx * dx / alpha
    u0 = Grid1D(_lattice(g, a, b, dx), a, b, 0.0)
    _lattice_steps(dt, times, len(u0.values))
    start = heat_lattice_step(u0, alpha, dt)
    mu = alpha * dt / (u0.dx * u0.dx)  # heat_lattice_step's ratio, checked by it
    return _frames(lambda older, current: _heat_step(current, older, mu), u0.values, start.values, a, b, dt, times)


def simulate_wave(
    g: Callable[[float], float],
    h: Callable[[float], float],
    v: float,
    a: float,
    b: float,
    dx: float,
    cfl: float,
    t_final: float,
) -> Grid1D:
    """Leapfrog evolution from displacement g and velocity h, on round((b-a)/dx) + 1 samples.

    The time step dt = cfl dx/v stays constant, as leapfrog needs, so the
    result is the state after max(1, round(t_final/dt)) steps: its ``time``
    is that many steps of dt, which is t_final only to within dt/2.  The
    first step is the Taylor start from the initial velocity.
    """
    return _wave_frames(g, h, v, a, b, dx, cfl, [t_final])[0]


def simulate_heat(
    g: Callable[[float], float],
    alpha: float,
    a: float,
    b: float,
    dx: float,
    cfl: float,
    t_final: float,
) -> Grid1D:
    """Forward-Euler heat evolution from the profile g, on round((b-a)/dx) + 1 samples.

    The time step is dt = cfl dx^2/alpha, so the result is the state after
    max(1, round(t_final/dt)) steps: its ``time`` is that many steps of dt,
    which is t_final only to within dt/2.
    """
    return _heat_frames(g, alpha, a, b, dx, cfl, [t_final])[0]


def heat_kernel(alpha: float, t: float, x: Sequence[float] | float) -> float:
    """Gaussian fundamental solution (4 pi alpha t)^(-N/2) exp(-|x|^2/(4 alpha t)).

    Where a factor or |x|^2 leaves the normal floats, the kernel is taken by
    its logarithm, -(N/2) log(4 pi alpha t) - (|x| / (2 sqrt(alpha t)))^2;
    ValueError where the kernel itself leaves the float range.
    """
    if not (0 < t < math.inf and 0 < alpha < math.inf):
        raise ValueError("need alpha, t > 0 and finite")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xs = x.tolist()
    if not all(map(math.isfinite, xs)):
        raise ValueError("need a finite x")
    N = len(xs)
    try:
        if max(map(abs, xs), default=0.0) < 2.0**500:  # else x @ x may overflow
            value = float((4.0 * math.pi * alpha * t) ** (-N / 2.0) * math.exp(-float(x @ x) / (4.0 * alpha * t)))
            if value >= 2.0**-1022:
                return value
    except OverflowError:  # (4 pi alpha t)^(-N/2)
        pass
    ratio = math.hypot(*xs) / (2.0 * math.sqrt(alpha) * math.sqrt(t))
    try:
        return math.exp(-N / 2.0 * (math.log(4.0 * math.pi) + math.log(alpha) + math.log(t)) - ratio * ratio)
    except OverflowError:
        raise ValueError("the heat kernel leaves the float range") from None


def heat_solve(g: Callable[[float], float], alpha: float, t: float, x: float) -> float:
    """1D heat solution at (x, t) by truncated kernel convolution.

    The window x - w .. x + w, w = 14 kernel standard deviations, leaves a tail below 1e-40 for
    bounded g; Simpson's rule takes a fixed 4000 intervals, since g's scale is the caller's.
    """
    if t <= 0 or alpha <= 0:
        raise ValueError("need alpha, t > 0")
    w = 14.0 * math.sqrt(2.0 * alpha * t)
    return simpson(lambda y: heat_kernel(alpha, t, x - y) * g(y), x - w, x + w, 4000)


def ode2_solve(a: float, b: float, f0: float, f0p: float) -> Callable[[float], float]:
    """Closed-form solution of f'' = a f + b f' with f(0), f'(0) given.

    Uses the roots r, s of x^2 = a + bx: combinations of e^(rx), e^(sx) when
    they differ, (l x + m) e^(rx) for a double root, taken as one when
    |r - s| <= 1e-9 max(1, |r|, |s|).  Complex roots are handled in complex
    arithmetic; the returned callback is real.  Where b^2 + 4a overflows,
    the root of larger modulus comes from the equation scaled by a power of
    two and the other from r s = -a.  ValueError unless a, b, f(0) and
    f'(0) are finite, and from the callback where a term of the solution
    leaves the float range.
    """
    if not all(map(math.isfinite, (a, b, f0, f0p))):
        raise ValueError("need finite a, b, f(0) and f'(0)")
    disc = complex(b * b + 4.0 * a)
    if cmath.isfinite(disc):
        sq = cmath.sqrt(disc)
        r = (b + sq) / 2.0
        s = (b - sq) / 2.0
    else:  # the roots of y^2 = a/m^2 + (b/m) y, m = 2^e, are those of x^2 = a + bx over m
        e = max(math.frexp(b)[1], math.frexp(a)[1] // 2 + 1)
        bm = math.ldexp(b, -e)
        sq = cmath.sqrt(bm * bm + 4.0 * math.ldexp(a, -2 * e))
        r = (bm + math.copysign(1.0, bm) * sq) * math.ldexp(1.0, e - 1)
        s = -a / r
    scale = max(1.0, abs(r), abs(s))
    if abs(r - s) <= 1e-9 * scale:
        mu = complex(f0)
        lam = complex(f0p) - r * f0
        terms = lambda x: ((lam * x + mu) * cmath.exp(r * x)).real
    else:
        delta = (complex(f0p) - r * f0) / (s - r)
        gamma = complex(f0) - delta
        terms = lambda x: (gamma * cmath.exp(r * x) + delta * cmath.exp(s * x)).real

    def solution(x: float) -> float:
        try:
            value = terms(x)
        except OverflowError:  # cmath.exp(710)
            value = math.inf
        if math.isinf(value):
            raise ValueError(f"the solution leaves the float range at x = {x!r}")
        return value

    return solution


class ChargeConfig(Record):
    """Point charges (q_i, position_i) with a Coulomb constant.

    The vacuum permittivity used by the flux laws is 1/(4 pi k); the
    dimensionless test mode is k = 1.  ValueError for a charge that is not
    finite, a position that is not 3 finite coordinates, two charges at one
    position, or a k that is not finite and > 0.
    """

    __slots__ = ("charges", "k")

    def __init__(self, charges: tuple[tuple[float, tuple[float, float, float]], ...], k: float = 1.0):
        pts = [tuple(map(float, p)) for _, p in charges]
        if not all(math.isfinite(q) for q, _ in charges):
            raise ValueError(f"every charge must be finite, not {[q for q, _ in charges]}")
        if not all(len(p) == 3 and all(map(math.isfinite, p)) for p in pts):
            raise ValueError(f"every position must be 3 finite coordinates, not {pts}")
        if len(set(pts)) < len(pts):
            raise ValueError("charge positions must be distinct")
        if not 0 < k < math.inf:
            raise ValueError(f"need a finite Coulomb constant k > 0, not {k}")
        self._set(charges, k)

    @property
    def epsilon0(self) -> float:
        """1/(4 pi k): inf for k below about 4.4e-310, where 4 pi k is below 1/max float.

        No calclab route reads it; ``flux`` prints 4 pi k Q, finite wherever the flux is.
        """
        return 1.0 / (4.0 * math.pi * self.k)

    def enclosed(self, center: Sequence[float], radius: float) -> float:
        inside = [q for q, p in self.charges if math.dist(p, center) < radius]
        return _fsum(inside, "the enclosed charge")


def electric_field(cfg: ChargeConfig, x: Sequence[float]) -> np.ndarray:
    """k sum q_i (x - p_i)/|x - p_i|^3, each term the unit vector d/r times k q/r/r with
    r = |d| by ``math.hypot``, so no power of r leaves the float range before the field does."""
    x = tuple(map(float, x))
    terms = []
    for q, p in cfg.charges:
        d = [a - float(b) for a, b in zip(x, p)]
        r = math.hypot(*d)
        if r == 0.0:
            raise ZeroDivisionError("field evaluated at a charge location")
        scale = cfg.k * q / r / r
        terms.append([c / r * scale for c in d])
    return np.array([_fsum([term[i] for term in terms], "the electric field") for i in range(3)])


def _ball(center: Sequence[float], radius: float) -> list[float]:
    """center as a list of floats; ValueError for a radius that is not finite and > 0 or a NaN
    or infinite coordinate of center."""
    if not 0 < radius < math.inf:
        raise ValueError("need a finite radius > 0")
    center = list(map(float, center))
    if not all(map(math.isfinite, center)):
        raise ValueError(f"the center {center} has a NaN or infinite coordinate")
    return center


def flux_through_sphere(
    cfg: ChargeConfig,
    center: Sequence[float],
    radius: float,
    order: int = 128,
) -> float:
    """Outward flux of the electric field through the given sphere.

    With the polar axis through a charge the azimuthal integral is exact
    (Jackson, *Classical Electrodynamics*, 3rd ed., section 1.3), so each
    charge takes one ``order``-node Gauss-Legendre rule in mu on [-1, 1]:
    2 pi k q int (1 + c mu)/r^3 dmu, 4 pi k q for c < 1 and 0 for c > 1.  In
    units of the radius, c is the charge's distance from the center and
    r = sqrt((1 - c)^2 + 2c(1 + mu)) its distance from the node, a form that
    does not cancel near the surface; each term divides by r three times,
    so r^3 never overflows.  A charge whose offset in radii leaves the float
    range adds 0, and no charges give exactly 0.  ValueError for a charge on
    the surface, a radius that is not finite and > 0, a NaN or infinite
    center, or a flux past the float range.
    """
    center = _ball(center, radius)
    mu, w = _legendre_rule(order)
    total = Fraction(0)  # the exact sum of q s over the charges
    for q, p in cfg.charges:
        c = math.hypot(*[(a - b) / radius for a, b in zip(center, p)])
        if abs(c - 1.0) < 1e-9:
            raise ValueError("a charge lies on the sphere surface")
        if c < math.inf:
            r = [math.sqrt((1.0 - c) * (1.0 - c) + 2.0 * c * (1.0 + m)) for m in mu]
            # bounded: r >= |1 - c| >= 1e-9, so each term is below 2 w_i 1e27
            s = math.fsum([wi * (1.0 + c * m) / ri / ri / ri for m, wi, ri in zip(mu, w, r)])
            total += Fraction(q) * Fraction(s)
    return _rounded(Fraction(cfg.k) * total, "the flux", 2.0 * math.pi, 1)


def disk_map(radius: float = 1.0, center: tuple[float, float] = (0.0, 0.0)):
    """Polar parametrization of a disk, for the Green-theorem checker."""

    def mapping(rho: float, theta: float) -> tuple[float, float]:
        return (
            center[0] + radius * rho * math.cos(theta),
            center[1] + radius * rho * math.sin(theta),
        )

    return mapping, (0.0, 1.0), (0.0, 2.0 * math.pi)


def _boundary_edges(mapping, u_span, v_span):
    """The non-degenerate edges (curve, t0, t1) of the mapped rectangle, counterclockwise."""
    (u0, u1), (v0, v1) = u_span, v_span
    edges = [
        (lambda t: mapping(t, v0), u0, u1),
        (lambda t: mapping(u1, t), v0, v1),
        (lambda t: mapping(t, v1), u1, u0),
        (lambda t: mapping(u0, t), v1, v0),
    ]
    return [edge for edge in edges if edge[1] != edge[2]]


def _line_integral(G, curve, t0: float, t1: float, n: int, h: float) -> float:
    """Simpson integral of <G(x), dx/dt> along x = curve(t), dx/dt by central differences."""
    t, w = _simpson_rule(t0, t1, n)
    path = lambda p: curve(p[0])
    x = _samples(path, t[:, None])
    xt = _central_differences(path, t[:, None], h)[:, 0]
    return float(w @ np.einsum("ij,ij->i", _samples(G, x), xt))


def _tensor_simpson(g: Callable[[np.ndarray], np.ndarray], u_span, v_span, n: int) -> float:
    """Product Simpson rule over the rectangle u_span x v_span, n intervals per side.

    g maps an (M, 2) block of (u, v) nodes to M values; it is called once
    per u node, on the block of that node's row.
    """
    u, wu = _simpson_rule(*u_span, n)
    v, wv = _simpson_rule(*v_span, n)
    rows = [g(np.column_stack((np.full_like(v, a), v))) for a in u]
    return float(wu @ np.array(rows) @ wv)


def green_check(
    P: Callable[[float, float], float],
    Q: Callable[[float, float], float],
    region,
    n: int | None = None,
) -> tuple[float, float, float]:
    """Both sides of the plane circulation identity, and their gap: Stokes in the plane.

    ``region`` is (mapping, u_span, v_span) with mapping an
    orientation-preserving chart of the region (see :func:`disk_map`); the
    boundary curve is the mapped rectangle boundary, traversed
    counterclockwise, so degenerate or cancelling edges contribute nothing.
    P and Q get Python floats.  Returns (line integral of P dx + Q dy, area
    integral of (dQ/dx - dP/dy) det J, |difference|), with the steps, rules
    and settling of :func:`stokes_check`: ValueError where no two sizes
    agree by n = 256, and two agreeing coarse sizes trusted.
    """

    def field(p: np.ndarray) -> tuple[float, float]:
        x, y = p.tolist()
        return P(x, y), Q(x, y)

    area, line, gap = stokes_check(field, region, n)
    return line, area, gap


def stokes_check(
    F: Callable[[np.ndarray], Sequence[float]],
    surface,
    n: int | None = None,
) -> tuple[float, float, float]:
    """Surface integral of the curl 2-form of F vs the boundary line integral of F, and their gap.

    ``surface`` is (mapping, u_span, v_span) with mapping: (u, v) -> R^d for
    some d >= 2, and F: R^d -> R^d.  The integrand is sum_{i<j} (d_i F_j -
    d_j F_i)(S_u,i S_v,j - S_u,j S_v,i): <curl F, S_u x S_v> in R^3, (dQ/dx -
    dP/dy) det J in the plane.  The boundary is the mapped rectangle edge
    loop, so the orientations match.  F is differenced with step 1e-5, the
    chart and the edges with 1e-6 times the longer span, each refused
    before F is called where it does not fit its points (as over
    [0, 1e-320]^2 or [0, 1e300]^2; ``diffcalc._step``).  Simpson's rule
    takes n intervals per side, 2n per edge; n None settles
    (:func:`quad._settle`) both over 8, 16, ... 256 to 1e-9, and raises
    ValueError where no two sizes agree by 256.  Two agreeing coarse sizes
    are trusted, so pass n for a field with structure finer than the first
    grids.  An n below 1 raises ValueError.
    """
    if n is not None and n < 1:
        raise ValueError("need n >= 1")
    mapping, u_span, v_span = surface
    h = 1e-6 * max(u_span[1] - u_span[0], v_span[1] - v_span[0])
    chart = lambda p: mapping(*p.tolist())

    def surf_integrand(uv: np.ndarray) -> np.ndarray:
        J = _central_differences(chart, uv, h)
        D = _central_differences(F, _samples(chart, uv), 1e-5)
        return np.einsum("mi,mij,mj->m", J[:, 0], D - D.swapaxes(1, 2), J[:, 1])

    def sides(n: int) -> tuple[float, float]:
        lhs = _tensor_simpson(surf_integrand, u_span, v_span, n)
        edges = _boundary_edges(mapping, u_span, v_span)
        rhs = _fsum([_line_integral(F, *edge, 2 * n, h) for edge in edges], "the boundary integral")
        return lhs, rhs

    lhs, rhs = _settle(sides, n, 8, 256, 1e-9)
    return lhs, rhs, abs(lhs - rhs)


def divergence_check(
    F: Callable[[np.ndarray], Sequence[float]],
    center: Sequence[float] = (0.0, 0.0, 0.0),
    radius: float = 1.0,
    order: int | None = None,
    radial_nodes: int = 16,
) -> tuple[float, float, float]:
    """Ball integral of div F vs the outward flux of F through the sphere.

    The ball side is a ``radial_nodes``-node Gauss-Legendre rule in the
    radius (no node at r = 0) over shells of the 2 order^2 sphere nodes;
    div F is the sum of central differences of step 1e-5, six F calls per
    node, refused before F is called where it does not move a coordinate
    (as at center (1e12, 0, 0)).  The flux side evaluates F once per node
    of the outer sphere.
    F receives each point as a 1-D float array of shape (3,), and a NaN or
    infinite value raises ValueError, as does a radius that is not finite
    and positive or a NaN or infinite center, before F is called.  Returns
    (ball integral, flux, |difference|).  ``order`` None settles it
    (:func:`quad._settle`): 8, 16, 32, to 1e-9 relative on both sides, and
    raises ValueError where no two orders agree by 32.  Two agreeing coarse
    orders are trusted, so pass ``order`` for a field with structure finer
    than the first sphere grids.
    """
    if radial_nodes < 1:
        raise ValueError("need radial_nodes >= 1")
    center = np.array(_ball(center, radius))
    r, wr = _gauss_rule(0.0, radius, radial_nodes)

    def sides(order: int) -> tuple[float, float]:
        nodes, weights = _sphere_quadrature(order)
        shell = lambda ri, D: ri * ri * (weights @ (D[:, 0, 0] + D[:, 1, 1] + D[:, 2, 2]))
        lhs = float(wr @ np.array([shell(ri, _central_differences(F, center + ri * nodes, 1e-5)) for ri in r]))
        flux = np.einsum("ij,ij->i", _samples(F, center + radius * nodes), nodes)
        return lhs, radius * radius * float(weights @ flux)

    lhs, rhs = _settle(sides, order, 8, 32, 1e-9)
    return lhs, rhs, abs(lhs - rhs)
