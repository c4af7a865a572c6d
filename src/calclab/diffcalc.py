"""Finite-difference multivariable calculus.

Central differences with roundoff-balanced default steps: gradients,
Jacobians, Hessians (symmetrized, with the raw asymmetry available as a
diagnostic), Taylor approximation, critical-point classification by Hessian
eigenvalue signs, Laplacians and harmonicity checks, spherical-coordinate
Laplacian, root-of-unity derivative averaging, and the constrained-extremum
verifiers (p-norm sphere maximizer, 1-norm criticality on the orthogonal
group).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import symmetric_eigen

__all__ = [
    "gradient",
    "jacobian",
    "hessian",
    "hessian_asymmetry",
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

_EPS = float(np.finfo(float).eps)

ScalarField = Callable[[np.ndarray], float]


def _step1(x: np.ndarray) -> float:
    return _EPS ** (1.0 / 3.0) * (1.0 + float(np.abs(x).max()))


def _step2(x: np.ndarray) -> float:
    return _EPS ** 0.25 * (1.0 + float(np.abs(x).max()))


def gradient(f: ScalarField, x: Sequence[float], h: float | None = None) -> np.ndarray:
    """Central-difference gradient, O(h^2) on C^3 fields."""
    x = np.asarray(x, dtype=float)
    h = h or _step1(x)
    out = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def _values(F: Callable[[np.ndarray], object], points: np.ndarray) -> np.ndarray:
    """F at each row of the 2-D array ``points``, as one float array (one call per row)."""
    return np.array(list(map(F, points)), dtype=float)


def _central_differences(
    F: Callable[[np.ndarray], object], points: Sequence[Sequence[float]], h: float
) -> np.ndarray:
    """Central differences (F(x + h e_i) - F(x - h e_i))/(2h) at every row x of points.

    The one finite-difference stencil kernel.  ``points`` is an (M, d)
    block; its 2dM stencil points are built with numpy, and F is called once
    per stencil point on a 1-D float row of a fresh array.  F returns a
    number or a sequence of k numbers; the result has shape (M, d) or
    (M, d, k), with [m, i] the difference along axis i at row m.
    """
    points = np.asarray(points, dtype=float)
    M, d = points.shape
    step = h * np.eye(d)[:, None, :]
    vals = _values(F, np.stack([points + step, points - step]).reshape(-1, d))
    vals = vals.reshape((2, d, M) + vals.shape[1:])
    return np.moveaxis((vals[0] - vals[1]) / (2.0 * h), 0, 1)


def jacobian(
    F: Callable[[np.ndarray], Sequence[float]], x: Sequence[float], h: float | None = None
) -> np.ndarray:
    """Central-difference Jacobian matrix (dF_i/dx_j)."""
    x = np.asarray(x, dtype=float)
    h = h or _step1(x)
    return _central_differences(F, x[None, :], h)[0].T


def hessian(f: ScalarField, x: Sequence[float], h: float | None = None) -> np.ndarray:
    """Symmetrized central-difference Hessian, O(h^2) on C^4 fields."""
    x = np.asarray(x, dtype=float)
    h = h or _step2(x)
    H = _hessian_raw_unsym(f, x, h)
    return 0.5 * (H + H.T)


def _hessian_raw_unsym(f: ScalarField, x: np.ndarray, h: float) -> np.ndarray:
    # evaluate the (i, j) stencil independently of (j, i) so the raw
    # asymmetry is a meaningful roundoff/truncation diagnostic
    n = len(x)
    H = np.empty((n, n))
    fx = f(x)
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            if i == j:
                H[i, i] = (f(x + ei) - 2.0 * fx + f(x - ei)) / (h * h)
            else:
                H[i, j] = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4.0 * h * h)
    return H


def hessian_asymmetry(f: ScalarField, x: Sequence[float], h: float | None = None) -> float:
    """Max-norm of H - H^T before symmetrization (a mixed-partials diagnostic)."""
    x = np.asarray(x, dtype=float)
    h = h or _step2(x)
    H = _hessian_raw_unsym(f, x, h)
    return float(np.abs(H - H.T).max())


def derivative_1d(f: Callable[[float], float], x: float, k: int, h: float | None = None) -> float:
    """k-th derivative by the central difference stencil of width k."""
    if k < 0:
        raise ValueError("need k >= 0")
    if k == 0:
        return f(x)
    h = h or _EPS ** (1.0 / (k + 2)) * (1.0 + abs(x))
    total = 0.0
    for j in range(k + 1):
        total += (-1.0) ** j * math.comb(k, j) * f(x + (k / 2.0 - j) * h)
    return total / h**k


def taylor1d(f: Callable[[float], float], x: float, order: int, t: float) -> float:
    """Truncated Taylor value using finite-difference derivatives."""
    if order < 0:
        raise ValueError("need order >= 0")
    out = 0.0
    for k in range(order + 1):
        out += derivative_1d(f, x, k) / math.factorial(k) * t**k
    return out


def taylor2_multi(f: ScalarField, x: Sequence[float], t: Sequence[float]) -> float:
    """Second-order multivariable Taylor value f(x) + <grad, t> + <Ht, t>/2."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    g = gradient(f, x)
    H = hessian(f, x)
    return float(f(x) + g @ t + 0.5 * t @ H @ t)


@dataclass(frozen=True)
class CriticalReport:
    point: tuple[float, ...]
    gradient_norm: float
    eigenvalues: tuple[float, ...]
    classification: str


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
    gradient norm above grad_tol * scale reports "not critical".
    """
    x = np.asarray(x, dtype=float)
    g = gradient(f, x, h)
    gnorm = float(np.linalg.norm(g))
    scale = 1.0 + abs(f(x))
    H = hessian(f, x, h)
    _, eig = symmetric_eigen(H, tol=1e-12)
    if gnorm > grad_tol * scale:
        label = "not critical"
    else:
        band = zero_band * max(float(np.abs(eig).max()), 1e-30)
        pos = int(np.sum(eig > band))
        neg = int(np.sum(eig < -band))
        zero = len(eig) - pos - neg
        if zero > 0:
            label = "degenerate"
        elif neg == 0:
            label = "minimum"
        elif pos == 0:
            label = "maximum"
        else:
            label = "saddle"
    return CriticalReport(tuple(x), gnorm, tuple(float(v) for v in eig), label)


def laplacian(f: ScalarField, x: Sequence[float], h: float | None = None) -> float:
    """Sum of second central differences along the axes."""
    x = np.asarray(x, dtype=float)
    h = h or _step2(x)
    fx = f(x)
    out = 0.0
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out += (f(x + e) - 2.0 * fx + f(x - e)) / (h * h)
    return out


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

    Dimensions 2 and 3 use product quadrature (trapezoid in angles, which is
    spectrally accurate, plus Simpson radially for balls).
    """
    center = np.asarray(center, dtype=float)
    dim = len(center)
    if radius <= 0:
        raise ValueError("need radius > 0")

    if dim == 2:

        def circle_average(r: float) -> float:
            ts = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
            pts = center[None, :] + r * np.stack([np.cos(ts), np.sin(ts)], axis=1)
            return float(np.mean([f(p) for p in pts]))

        if surface:
            return abs(circle_average(radius) - f(center))
        rs = np.linspace(0.0, radius, 129)
        vals = np.array([circle_average(r) * r for r in rs])
        integral = float(np.trapezoid(vals, rs)) * 2.0 * math.pi
        return abs(integral / (math.pi * radius**2) - f(center))

    if dim == 3:
        m = max(8, int(math.sqrt(samples)))
        u, w = np.polynomial.legendre.leggauss(m)  # u = cos(polar)
        ts = np.linspace(0.0, 2.0 * math.pi, 2 * m, endpoint=False)

        def sphere_average(r: float) -> float:
            total = 0.0
            for ui, wi in zip(u, w):
                sin_s = math.sqrt(max(0.0, 1.0 - ui * ui))
                ring = np.stack(
                    [sin_s * np.cos(ts), sin_s * np.sin(ts), np.full_like(ts, ui)],
                    axis=1,
                )
                total += wi * np.mean([f(center + r * p) for p in ring])
            return total / 2.0  # weights sum to 2

        if surface:
            return abs(sphere_average(radius) - f(center))
        rs = np.linspace(0.0, radius, 65)
        vals = np.array([sphere_average(r) * r * r for r in rs])
        integral = float(np.trapezoid(vals, rs)) * 4.0 * math.pi
        return abs(integral / (4.0 / 3.0 * math.pi * radius**3) - f(center))

    raise ValueError("mean_value_gap supports dimensions 2 and 3")


def spherical_laplacian(
    f: Callable[[float, float, float], float],
    r: float,
    s: float,
    t: float,
    h: float | None = None,
) -> float:
    """Laplacian of f(r, s, t) in spherical coordinates (3D).

    Evaluates the radial, polar and azimuthal terms by central differences;
    the polar axis (sin s = 0) is rejected.
    """
    if r <= 0:
        raise ValueError("need r > 0")
    sin_s = math.sin(s)
    if abs(sin_s) < 1e-9:
        raise ValueError("polar axis: the spherical form is singular there")
    h = h or _EPS ** 0.25 * (1.0 + abs(r) + abs(s) + abs(t))
    h = min(h, 0.45 * r)  # keep the radial stencil away from the origin
    f_r = (f(r + h, s, t) - f(r - h, s, t)) / (2.0 * h)
    f_rr = (f(r + h, s, t) - 2.0 * f(r, s, t) + f(r - h, s, t)) / (h * h)
    f_s = (f(r, s + h, t) - f(r, s - h, t)) / (2.0 * h)
    f_ss = (f(r, s + h, t) - 2.0 * f(r, s, t) + f(r, s - h, t)) / (h * h)
    f_tt = (f(r, s, t + h) - 2.0 * f(r, s, t) + f(r, s, t - h)) / (h * h)
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
    real-coefficient f up to roundoff).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    w = cmath.exp(2j * math.pi / n)
    total = sum(f(x + t * w**s) for s in range(n))
    return (total / n).real


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
