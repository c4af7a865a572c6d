"""Finite-difference multivariable calculus.

Central differences with roundoff-balanced default steps: gradients,
Jacobians, Hessians (each mixed pair evaluated once, so symmetric by
construction), Taylor approximation, critical-point classification by Hessian
eigenvalue signs, Laplacians and harmonicity checks, spherical-coordinate
Laplacian, root-of-unity derivative averaging, and the constrained-extremum
verifiers (p-norm sphere maximizer, 1-norm criticality on the orthogonal
group).  The stencil sums (a k-th difference, a Taylor polynomial, a
Laplacian) are ``math.fsum``: the exact sum of the float terms, rounded once.

``np`` is the deferred binding of ``calclab._numpy``, so importing this module
does not load numpy.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import Callable, Sequence

from ._numpy import np
from ._record import Record
from .linalg import _jacobi
from .quad import _gauss_rule, _samples, _sphere_quadrature

__all__ = [
    "gradient",
    "jacobian",
    "hessian",
    "derivative_1d",
    "taylor1d",
    "taylor2_multi",
    "CriticalReport",
    "classify_critical",
    "laplacian",
    "is_harmonic",
    "mean_value_gap",
    "spherical_laplacian",
    "unity_root_average",
    "holder_critical_check",
    "onorm_criticality",
]

_EPS = sys.float_info.epsilon

ScalarField = Callable[["np.ndarray"], float]


def _step1(x: np.ndarray) -> float:
    return _EPS ** (1.0 / 3.0) * (1.0 + max(map(abs, x.ravel().tolist())))


def _step2(x: np.ndarray) -> float:
    return _EPS ** 0.25 * (1.0 + max(map(abs, x.ravel().tolist())))


def _central_differences(
    F: Callable[[np.ndarray], object], points: Sequence[Sequence[float]], h: float
) -> np.ndarray:
    """Central differences (F(x + h e_i) - F(x - h e_i))/(2h) at every row x of points.

    The first-difference stencil kernel (``_axis_differences`` adds the
    second differences at one point).  ``points`` is an (M, d)
    block; its 2dM stencil points are built with numpy and sampled by
    ``quad._samples``: F is called once per stencil point on a 1-D float
    row of a fresh array, and a NaN or infinite value raises ValueError.
    F returns a number or a sequence of k numbers; the result has shape
    (M, d) or (M, d, k), with [m, i] the difference along axis i at row m.
    """
    points = np.asarray(points, dtype=float)
    M, d = points.shape
    vals = _samples(F, (points + h * _unit_stencil(d, math.copysign(1.0, h))[1 : 2 * d + 1, None, :]).reshape(-1, d))
    vals = vals.reshape((2, d, M) + vals.shape[1:])
    return ((vals[0] - vals[1]) / (2.0 * h)).swapaxes(0, 1)


@functools.lru_cache(maxsize=16)  # an entry holds O(d^3) floats
def _unit_stencil(d: int, s: float) -> np.ndarray:
    """Unit offsets U of the second-order stencil in d dimensions, for steps of sign s.

    The rows of U are 0, then +e_i and -e_i for each axis i, then the
    corners +e_i+e_j, +e_i-e_j, -e_i+e_j, -e_i-e_j of each pair i < j.
    x + h*U is, bit for bit, the block x, x + h e_i, x - h e_i,
    (x + h e_i) + h e_j, ... written out, signed zeros included: an axis
    that does not move keeps the -0.0 of x only where every zero added to it
    is -0.0, so U is those sums evaluated at x = -0.0 with h = s, times s.
    """
    eye = np.eye(d)
    i = [a for a in range(d) for b in range(a + 1, d)]
    j = [b for a in range(d) for b in range(a + 1, d)]
    x = np.full(d, -0.0)
    ei, ej = s * eye[i], s * eye[j]
    block = [x[None, :], x + s * eye, x - s * eye, x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej]
    units = s * np.concatenate(block)
    units.flags.writeable = False
    return units


def _axis_differences(
    f: Callable[[np.ndarray], object], x: np.ndarray, h: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """f(x) and the first and pure second central differences of f at x along each axis.

    f is called once at x and once at each x +/- h e_i (2d + 1 calls); the
    first differences are (f(x + h e_i) - f(x - h e_i))/(2h) and the second
    (f(x + h e_i) - 2 f(x) + f(x - h e_i))/h^2.
    """
    d = len(x)
    vals = _samples(f, x + h * _unit_stencil(d, math.copysign(1.0, h))[: 2 * d + 1])
    fx, up, down = vals[0], vals[1 : d + 1], vals[d + 1 :]
    return float(fx), (up - down) / (2.0 * h), (up - 2.0 * fx + down) / (h * h)


def _point(x: Sequence[float]) -> np.ndarray:
    """x as a float array; ValueError, before any call of f, if it has no coordinates or one is NaN
    or infinite."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("the point has no coordinates")
    if not all(map(math.isfinite, x.ravel().tolist())):
        raise ValueError(f"the point {x.tolist()} has a NaN or infinite coordinate")
    return x


def gradient(f: ScalarField, x: Sequence[float], h: float | None = None) -> np.ndarray:
    """Central-difference gradient, O(h^2) on C^3 fields."""
    x = _point(x)
    h = h or _step1(x)
    return _central_differences(f, x[None, :], h)[0]


def jacobian(
    F: Callable[[np.ndarray], Sequence[float]], x: Sequence[float], h: float | None = None
) -> np.ndarray:
    """Central-difference Jacobian matrix (dF_i/dx_j)."""
    x = _point(x)
    h = h or _step1(x)
    return _central_differences(F, x[None, :], h)[0].T


def hessian(f: ScalarField, x: Sequence[float], h: float | None = None) -> np.ndarray:
    """Central-difference Hessian, O(h^2) on C^4 fields.

    The diagonal holds the pure second differences; each mixed entry
    (f(x+ei+ej) - f(x+ei-ej) - f(x-ei+ej) + f(x-ei-ej))/(4h^2) is evaluated
    once per pair i < j and written to both (i, j) and (j, i), so H is
    symmetric by construction: 1 + 2d + 2d(d - 1) calls of f, sampled in
    one block.
    """
    return np.array(_hessian(f, _point(x), h)[2])


def _hessian(
    f: ScalarField, x: np.ndarray, h: float | None, lead: np.ndarray | None = None
) -> tuple[list[float], float, list[list[float]]]:
    """f at the rows of ``lead``, f(x) and the Hessian of :func:`hessian`, as Python floats.

    The rows of ``lead`` (none by default) go in front of the Hessian's
    stencil, so that f is sampled once, in one block, for both.
    """
    h = h or _step2(x)
    d = len(x)
    rows = x + h * _unit_stencil(d, math.copysign(1.0, h))
    n = 0 if lead is None else len(lead)
    vals = _samples(f, rows if lead is None else np.concatenate([lead, rows])).tolist()
    fx, up, down = vals[n], vals[n + 1 : n + d + 1], vals[n + d + 1 : n + 2 * d + 1]
    H = [[0.0] * d for _ in range(d)]
    for i in range(d):
        H[i][i] = (up[i] - 2.0 * fx + down[i]) / (h * h)
    c, m = vals[n + 2 * d + 1 :], d * (d - 1) // 2  # the corners pp, pm, mp, mm of each pair
    for k, (i, j) in enumerate((i, j) for i in range(d) for j in range(i + 1, d)):
        H[i][j] = H[j][i] = (c[k] - c[m + k] - c[2 * m + k] + c[3 * m + k]) / (4.0 * h * h)
    return vals[:n], fx, H


def derivative_1d(f: Callable[[float], float], x: float, k: int, h: float | None = None) -> float:
    """k-th derivative by the central difference stencil of width k.

    Raises ValueError if x, or f at a stencil point, is NaN or infinite.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    x = _point([x]).item()
    if k == 0:
        return _samples(f, np.array([x], dtype=float)).item()
    h = h or _EPS ** (1.0 / (k + 2)) * (1.0 + abs(x))
    values = _samples(f, np.array([x + (k / 2.0 - j) * h for j in range(k + 1)]))
    return math.fsum((-1.0) ** j * math.comb(k, j) * v for j, v in enumerate(values.tolist())) / h**k


def taylor1d(f: Callable[[float], float], x: float, order: int, t: float) -> float:
    """Truncated Taylor value using finite-difference derivatives."""
    if order < 0:
        raise ValueError("need order >= 0")
    return math.fsum(derivative_1d(f, x, k) / math.factorial(k) * t**k for k in range(order + 1))


def taylor2_multi(f: ScalarField, x: Sequence[float], t: Sequence[float]) -> float:
    """Second-order multivariable Taylor value f(x) + <grad, t> + <Ht, t>/2."""
    x = _point(x)
    t = np.asarray(t, dtype=float)
    g, fx, H = _gradient_and_hessian(f, x, None)
    return float(fx + np.array(g) @ t + 0.5 * t @ np.array(H) @ t)


def _gradient_and_hessian(
    f: ScalarField, x: np.ndarray, h: float | None
) -> tuple[list[float], float, list[list[float]]]:
    """The gradient of :func:`gradient`, f(x) and the Hessian of :func:`hessian`.

    The gradient's 2d rows go in front of the Hessian's stencil, and f is
    sampled once, in one block of 1 + 4d + 2d(d - 1) points.
    """
    d = len(x)
    h1 = h or _step1(x)
    axes = _unit_stencil(d, math.copysign(1.0, h1))[1 : 2 * d + 1]
    lead, fx, H = _hessian(f, x, h, lead=x + h1 * axes)
    return [(up - down) / (2.0 * h1) for up, down in zip(lead[:d], lead[d:])], fx, H


class CriticalReport(Record):
    __slots__ = ("point", "gradient_norm", "eigenvalues", "classification")

    def __init__(self, point: tuple[float, ...], gradient_norm: float, eigenvalues: tuple[float, ...], classification: str):
        self._set(point, gradient_norm, eigenvalues, classification)


def classify_critical(
    f: ScalarField,
    x: Sequence[float],
    h: float | None = None,
    grad_tol: float = 1e-5,
    zero_band: float = 1e-4,
) -> CriticalReport:
    """Classify a candidate critical point by its Hessian eigenvalue signs.

    Eigenvalues within +/- zero_band * ||H|| count as zero; any zero makes
    the verdict "degenerate" (no higher-order analysis is attempted).  A
    gradient norm above grad_tol * scale reports "not critical", where
    scale = 1 + |f(x)|.  The gradient and Hessian stencils are sampled in
    one block: 1 + 4d + 2d(d - 1) calls of f, 25 in 3-D.  A NaN or infinite
    coordinate of x raises ValueError before f is called.
    """
    x = _point(x)
    g, fx, H = _gradient_and_hessian(f, x, h)
    gnorm = math.sqrt(np.dot(g, g))  # np.linalg.norm's sum, without its dispatch
    eig = _jacobi(H, 1e-12, vectors=False)[0]
    if gnorm > grad_tol * (1.0 + abs(fx)):
        label = "not critical"
    else:
        band = zero_band * max(max(map(abs, eig)), 1e-30)
        pos = sum(v > band for v in eig)
        neg = sum(v < -band for v in eig)
        if pos + neg < len(eig):
            label = "degenerate"
        elif neg == 0:
            label = "minimum"
        elif pos == 0:
            label = "maximum"
        else:
            label = "saddle"
    return CriticalReport(tuple(x.tolist()), gnorm, tuple(eig), label)


def laplacian(f: ScalarField, x: Sequence[float], h: float | None = None) -> float:
    """Sum of second central differences along the axes, rounded once."""
    x = _point(x)
    h = h or _step2(x)
    return math.fsum(_axis_differences(f, x, h)[2].tolist())


def is_harmonic(
    f: ScalarField, points: Sequence[Sequence[float]], tol: float = 1e-4
) -> bool:
    """True when |laplacian f| <= tol at every sample point."""
    return all(abs(laplacian(f, p)) <= tol for p in points)


def mean_value_gap(
    f: ScalarField,
    center: Sequence[float],
    radius: float,
    samples: int = 512,
    surface: bool = True,
) -> float:
    """|average of f over the sphere (or ball) - f(center)|.

    Dimensions 2 and 3 use product quadrature: the trapezoid rule in the
    angles (spectrally accurate) on ``samples`` circle points, or the sphere
    rule of ``quad`` with max(8, sqrt(samples)) Gauss-Legendre polar nodes,
    plus a 16-node Gauss-Legendre rule in the radius for balls.  A ball
    costs 16 sphere averages and f(center).  A NaN or infinite coordinate
    of center or radius raises ValueError before f is called.
    """
    center = _point(center)
    dim = len(center)
    if not 0 < radius < math.inf:
        raise ValueError("need a finite radius > 0")
    if samples < 1:
        raise ValueError("need samples >= 1")

    if dim == 2:
        ts = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        nodes = np.stack([np.cos(ts), np.sin(ts)], axis=1)
        weights = np.full(samples, 1.0 / samples)
    elif dim == 3:
        nodes, weights = _sphere_quadrature(max(8, int(math.sqrt(samples))))
        weights = weights / (4.0 * math.pi)
    else:
        raise ValueError("mean_value_gap supports dimensions 2 and 3")

    def average(r: float) -> float:
        return float(weights @ _samples(f, center + r * nodes))

    f_center = float(_samples(f, center[None, :])[0])
    if surface:
        return abs(average(radius) - f_center)
    # the ball average is d/R^d times the integral over [0, R] of r^(d-1) times the
    # sphere average
    rs, wr = _gauss_rule(0.0, radius, 16)
    shells = [average(r) * r ** (dim - 1) for r in rs]
    return abs(dim * float(wr @ np.array(shells)) / radius**dim - f_center)


def spherical_laplacian(
    f: Callable[[float, float, float], float],
    r: float,
    s: float,
    t: float,
    h: float | None = None,
) -> float:
    """Laplacian of f(r, s, t) in spherical coordinates (3D).

    Evaluates the radial, polar and azimuthal terms by central differences
    from the 7 values of f at (r, s, t) and its axis neighbours; the polar
    axis (sin s = 0) and a NaN or infinite coordinate are rejected.
    """
    r, s, t = _point([r, s, t]).tolist()
    if r <= 0:
        raise ValueError("need r > 0")
    sin_s = math.sin(s)
    if abs(sin_s) < 1e-9:
        raise ValueError("polar axis: the spherical form is singular there")
    h = h or _EPS ** 0.25 * (1.0 + abs(r) + abs(s) + abs(t))
    h = min(h, 0.45 * r)  # keep the radial stencil away from the origin
    _, first, second = _axis_differences(lambda p: f(*p.tolist()), np.array([r, s, t]), h)
    (f_r, f_s, _), (f_rr, f_ss, f_tt) = first.tolist(), second.tolist()
    radial = f_rr + 2.0 * f_r / r
    polar = (f_ss + (math.cos(s) / sin_s) * f_s) / (r * r)
    azimuthal = f_tt / (r * r * sin_s * sin_s)
    return radial + polar + azimuthal


def unity_root_average(
    f: Callable[[complex], complex], x: float, t: float, n: int
) -> float:
    """Average of f over the n rotated points x + t w^s, w = exp(2 pi i/n).

    For f analytic near x the gap to f(x) estimates f^(n)(x) t^n / n!.  The
    imaginary part of the average is discarded (it vanishes for
    real-coefficient f up to roundoff).  Raises ValueError if f is NaN or
    infinite at a rotated point.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    w = cmath.exp(2j * math.pi / n)
    values = [f(x + t * w**s) for s in range(n)]
    if not all(map(cmath.isfinite, values)):
        raise ValueError("the function produced NaN or infinite values")
    return (sum(values) / n).real


def holder_critical_check(y: Sequence[float], p: float) -> tuple[np.ndarray, float]:
    """Constrained maximizer of <x, y> on the unit p-norm sphere.

    For strictly positive y the maximizer is x_i proportional to
    y_i^(1/(p-1)), and the maximum is the q-norm of y (1/p + 1/q = 1).
    Verifies that y has no component tangential to the sphere at x.
    """
    y = np.asarray(y, dtype=float)
    if p <= 1:
        raise ValueError("need p > 1")
    if not np.all(y > 0):
        raise ValueError("need strictly positive entries")
    u = y ** (1.0 / (p - 1.0))
    x = u / (np.sum(u**p)) ** (1.0 / p)
    value = float(x @ y)
    q = p / (p - 1.0)
    expected = float(np.sum(y**q) ** (1.0 / q))
    normal = x ** (p - 1.0)
    tangential = y - (y @ normal) / (normal @ normal) * normal
    scale = float(np.linalg.norm(y))
    if np.linalg.norm(tangential) > 1e-8 * scale:
        raise ArithmeticError("maximizer is not critical to tolerance")
    if abs(value - expected) > 1e-8 * max(1.0, expected):
        raise ArithmeticError("maximum does not match the dual norm")
    return x, value


def onorm_criticality(U: np.ndarray, tol: float = 1e-9) -> bool:
    """1-norm criticality of an orthogonal matrix: is sign(U) U^T symmetric?

    Nonzero entries within tol of zero make the sign pattern ambiguous and
    are rejected; exact zeros (permutation-like patterns) get sign 0.
    """
    U = np.asarray(U, dtype=float)
    n = U.shape[0]
    if U.shape != (n, n):
        raise ValueError("matrix must be square")
    if np.abs(U.T @ U - np.eye(n)).max() > max(tol, 1e-9) * 10:
        raise ValueError("matrix is not orthogonal to tolerance")
    ambiguous = (U != 0.0) & (np.abs(U) <= max(tol, 1e-12))
    if ambiguous.any():
        raise ValueError("near-zero entry: the sign pattern is ambiguous")
    S = np.sign(U)
    M = S @ U.T
    return bool(np.abs(M - M.T).max() <= max(tol, 1e-9) * 10)
