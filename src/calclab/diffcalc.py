"""Finite-difference multivariable calculus.

Central differences with roundoff-balanced default steps: gradients,
Jacobians, Hessians (each mixed pair evaluated once, so symmetric by
construction), Taylor approximation, critical-point classification by Hessian
eigenvalue signs, Laplacians, the spherical-coordinate Laplacian,
root-of-unity derivative averaging, and the constrained-extremum verifiers
(p-norm sphere maximizer, 1-norm criticality on the orthogonal group).  The
stencil sums (a k-th difference, a Taylor polynomial, a Laplacian) and a
point's dot product are ``combinat._fsum``: the exact sum of the float terms,
rounded once, and ValueError past the float range, as is a difference that
overflows (``_finite``).  Every
stencil of k-th differences, the block route included, takes its step h,
or eps^(1/(k+2)) (1 + max |x_i|) if h is None or 0, by one rule:
``_step``.

``np`` is the deferred binding of ``calclab._numpy``, so importing this module
does not load numpy.  The single-point routes that return numbers
(``laplacian``, ``classify_critical``, ``spherical_laplacian``,
``derivative_1d``, and ``hessian`` and ``taylor2_multi`` up to their result)
pass f each point as a tuple of Python floats, so the first four run
without it; ``gradient`` and ``jacobian`` return arrays and sample the block
route ``_central_differences`` at one point.  Each multivariable tuple
stencil is one call of a straight-line kernel generated by
``calclab._codegen`` per (dimension, differences), which builds the
points, samples f through ``quad._samples`` and returns the differences;
compiling one takes 0.6-1.6 ms at d = 3, and its source grows as d^3.
``classify_critical`` then takes the Hessian's eigenvalues from
``linalg``'s numpy-free list sweeps, written out for d = 3.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from fractions import Fraction
from typing import Callable, Sequence

from ._codegen import compile_function as _compile
from ._numpy import np
from ._record import Record
from .combinat import _fsum
from .linalg import _jacobi
from .poly import roots_of_unity
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
    "mean_value_gap",
    "spherical_laplacian",
    "unity_root_average",
    "holder_critical_check",
    "onorm_criticality",
]

_EPS = sys.float_info.epsilon

ScalarField = Callable[[tuple], float]


class _Point(tuple):
    """A point of a single-point stencil as f gets it: a tuple of Python floats, on which
    ``v @ w`` is also the dot product, as on a 1-D array."""

    __slots__ = ()

    def __matmul__(self, other: Sequence[float]) -> float:
        return _fsum([a * b for a, b in zip(self, other, strict=True)], "the dot product")

    __rmatmul__ = __matmul__


def _usable(h: float, x: Sequence[float], k: int, offsets: Sequence[float] = (-1.0, 0.0, 1.0)) -> float:
    """h, if a stencil of k-th differences at x can use it as its step; else ValueError naming it, before f is called.

    h must be finite, the points c + u h (u in offsets) of each coordinate c
    of x must be finite and distinct, and h^k and (2h)^k, which bound every
    divisor the differences take (2h, h^2, 4h^2, h^k), must be normal floats.
    """
    try:
        if math.isfinite(h) and sys.float_info.min <= abs(h**k) and abs((2.0 * h) ** k) < math.inf:
            points = [{c + u * h for u in offsets} for c in x]
            if all(len(p) == len(offsets) and all(map(math.isfinite, p)) for p in points):
                return h
    except OverflowError:  # h ** k past the float range
        pass
    raise ValueError(f"the step h = {h!r} does not fit the stencil: it must be finite, keep the stencil's points "
                     "finite and apart and keep h^k and (2h)^k normal floats")


def _step(h: float | None, x: Sequence[float], k: int, offsets: Sequence[float] = (-1.0, 0.0, 1.0)) -> float:
    """The step of a stencil of k-th differences at x: h, or eps^(1/(k+2)) (1 + max |x_i|) if h is None or 0.

    Every step is checked by ``_usable`` but a default of order k <= 2 below
    1e150: over eps^(1/3) |x_i|, it moves each coordinate by offsets of at
    least 1/2 and keeps it finite, and h^k and (2h)^k are normal floats.
    """
    if not h:
        h = _EPS ** (1.0 / (k + 2)) * (1.0 + max(map(abs, x)))
        if k <= 2 and h < 1e150:
            return h
    return _usable(h, x, k, offsets)


def _finite(differences: list[float], what: str, h: float) -> list[float]:
    """The differences, if every one is finite; else ValueError naming ``what`` and the step h.

    f's values are finite, but u - 2.0 v + w overflows in 2.0 v once |v|
    passes about 9e307, and a difference over h^k may pass the float range.
    """
    if not all(map(math.isfinite, differences)):
        raise ValueError(f"{what} at the step h = {h!r} leaves the float range")
    return differences


def _central_differences(
    F: Callable[[np.ndarray], object], points: Sequence[Sequence[float]], h: float
) -> np.ndarray:
    """Central differences (F(x + h e_i) - F(x - h e_i))/(2h) at every row x of points.

    The block route of the first differences (``gradient`` and ``jacobian``
    take it at one point; the other single-point routes run a kernel of
    ``_derivatives``).  ``points`` is an (M, d) block; its 2dM stencil
    points are copies of the rows with coordinate i stepped to x_i + h, then
    to x_i - h, and are sampled by ``quad._samples``: F is called once per
    stencil point on a 1-D float row of a fresh array, and a NaN or
    infinite value raises ValueError.  h is checked first by ``_usable`` at
    each axis's largest |x_i|, where a step moves a coordinate least.
    F returns a number or a sequence of k numbers; the result has shape
    (M, d) or (M, d, k), with [m, i] the difference along axis i at row m.
    """
    points = np.asarray(points, dtype=float)
    M, d = points.shape
    _usable(h, np.abs(points).max(axis=0).tolist(), 1)
    block = np.tile(points, (2 * d, 1, 1))
    for i in range(d):
        block[i, :, i] += h
        block[d + i, :, i] -= h
    vals = _samples(F, block.reshape(-1, d))
    vals = vals.reshape((2, d, M) + vals.shape[1:])
    return ((vals[0] - vals[1]) / (2.0 * h)).swapaxes(0, 1)


@functools.lru_cache(maxsize=64)  # an entry's source holds O(d^3) names
def _derivatives(d: int, which: str) -> Callable:
    """The straight-line function (f, x, *steps) -> the differences ``which`` of f at x, d dimensions.

    ``which`` is "critical" (steps h1, h: the gradient's points x +/- h1 e_i
    in front of the Hessian's; returns the gradient, f(x) and the Hessian),
    "hessian" (step h: x, x + h e_i, x - h e_i, then the corners
    x + h e_i + h e_j, x + h e_i - h e_j, x - h e_i + h e_j, x - h e_i - h e_j
    of each pair i < j; returns f(x) and the Hessian) or "axes" (step h: x
    and x +/- h e_i; returns f(x), the first and the pure second
    differences), in lists.  A point is x with the coordinates it steps
    along at ``x_i + h`` or ``x_i - h``, each computed once per step, axis
    and sign, and every other coordinate x's own float, its sign of zero
    included.  f gets each point as a ``_Point``, in order, through
    ``quad._samples``.  The differences are those of ``gradient`` and
    ``hessian``, each mixed entry computed once.  Compiling one took 0.6
    ("axes"), 1.0 ("hessian") and 1.5 ms ("critical") at d = 3, and its
    source grows as d^3 (13-18 ms for "critical" at d = 10; 2-vCPU x86).
    """
    axes = [((i, sign),) for sign in "+-" for i in range(d)]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    corners = [((i, a), (j, b)) for a, b in ("++", "+-", "-+", "--") for i, j in pairs]
    stencil = [()] + axes + (corners if which != "axes" else [])
    blocks = [("h1", axes), ("h", stencil)] if which == "critical" else [("h", stencil)]
    body = "    " + "".join(f"x{i}, " for i in range(d)) + "= x\n"
    coords: dict[tuple[str, int, str], str] = {}  # (step, axis, sign) -> its local
    points = []
    for step, rows in blocks:
        for moves in rows:
            names = [f"x{i}" for i in range(d)]
            for i, sign in moves:
                if (step, i, sign) not in coords:
                    coords[step, i, sign] = f"c{len(coords)}"
                    body += f"    c{len(coords) - 1} = x{i} {sign} {step}\n"
                names[i] = coords[step, i, sign]
            points.append("_Point((" + "".join(f"{name}, " for name in names) + "))")
    body += "    " + "".join(f"v{k}, " for k in range(len(points))) + f"= _samples(f, [{', '.join(points)}])\n"
    n = 2 * d if which == "critical" else 0  # the index of f(x)
    up, down = [f"v{n + 1 + i}" for i in range(d)], [f"v{n + 1 + d + i}" for i in range(d)]
    second = [f"({u} - 2.0 * v{n} + {v}) / (h * h)" for u, v in zip(up, down)]
    if which == "axes":
        first = ", ".join(f"({u} - {v}) / (2.0 * h)" for u, v in zip(up, down))
        body += f"    return v0, [{first}], [{', '.join(second)}]\n"
    else:
        c = n + 2 * d + 1  # the corners pp, pm, mp, mm of each pair
        for k, (i, j) in enumerate(pairs):
            pp, pm, mp, mm = (f"v{c + r * len(pairs) + k}" for r in range(4))
            body += f"    m{i}_{j} = ({pp} - {pm} - {mp} + {mm}) / (4.0 * h * h)\n"
        entries = [[second[i] if i == j else f"m{min(i, j)}_{max(i, j)}" for j in range(d)] for i in range(d)]
        H = ", ".join(f"[{', '.join(row)}]" for row in entries)
        gradient = ", ".join(f"(v{i} - v{d + i}) / (2.0 * h1)" for i in range(d))
        body += "    return " + f"[{gradient}], " * (which == "critical") + f"v{n}, [{H}]\n"
    return _compile(
        __name__,
        f"derivatives_{d}_{which}",
        f"The {which} differences of f at a point of {d} dimensions, generated by _derivatives.",
        "f, x, h1, h" if which == "critical" else "f, x, h",
        body,
        _Point=_Point,
        _samples=_samples,
    )


def _point(x: Sequence[float]) -> tuple[float, ...]:
    """x as a tuple of Python floats, an array read by one ``tolist`` (duck-typed: numpy stays unloaded);
    ValueError, before any call of f, if it has no coordinates or one is NaN or infinite."""
    x = tuple(map(float, x.tolist() if hasattr(x, "tolist") else x))
    if not x:
        raise ValueError("the point has no coordinates")
    if not all(map(math.isfinite, x)):
        raise ValueError(f"the point {list(x)} has a NaN or infinite coordinate")
    return x


def gradient(f: Callable[[np.ndarray], float], x: Sequence[float], h: float | None = None) -> np.ndarray:
    """Central-difference gradient, O(h^2) on C^3 fields.

    A step h, given or default, that does not fit the stencil (``_step``)
    raises ValueError before f is called.
    """
    x = _point(x)
    return _central_differences(f, np.array([x]), h or _step(None, x, 1))[0]


def jacobian(
    F: Callable[[np.ndarray], Sequence[float]], x: Sequence[float], h: float | None = None
) -> np.ndarray:
    """Central-difference Jacobian matrix (dF_i/dx_j); a given step h is checked as in :func:`gradient`."""
    x = _point(x)
    return _central_differences(F, np.array([x]), h or _step(None, x, 1))[0].T


def hessian(f: ScalarField, x: Sequence[float], h: float | None = None) -> np.ndarray:
    """Central-difference Hessian, O(h^2) on C^4 fields.

    The diagonal holds the pure second differences; each mixed entry
    (f(x+ei+ej) - f(x+ei-ej) - f(x-ei+ej) + f(x-ei-ej))/(4h^2) is evaluated
    once per pair i < j and written to both (i, j) and (j, i), so H is
    symmetric by construction: 1 + 2d + 2d(d - 1) calls of f, sampled in
    one block.  A step h, given or default, that does not fit the stencil
    (``_step``) raises ValueError before f is called, the default past
    |x_i| ~ 5e157, where 4h^2 overflows, and an entry past the float range
    raises it after.
    """
    x = _point(x)
    h = _step(h, x, 2)
    H = _derivatives(len(x), "hessian")(f, x, h)[1]
    _finite([v for row in H for v in row], "a second difference", h)
    return np.array(H)


def derivative_1d(f: Callable[[float], float], x: float, k: int, h: float | None = None) -> float:
    """k-th derivative by the central difference stencil of width k.

    The default step is eps^(1/(k+2)) (1 + |x|), which balances roundoff
    against the O(h^2) truncation: the error is of order eps^(2/(k+2)),
    relative, times a constant that grows with k.  Measured for exp at 0 it
    is 1.3e-11 at k = 1, 3.8e-6 at k = 4 and 1.0e-2 at k = 8.  Raises
    ValueError if x, or f at a stencil point, is NaN or infinite, and,
    before f is called, if the step h, given or default, does not fit the
    stencil of k + 1 points (``_step``; the default does not from |x| ~
    5e157 at k = 2), and, after, if the difference leaves the float range.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    (x,) = _point([x])
    if k == 0:
        return _samples(f, [x])[0]
    offsets = [k / 2.0 - j for j in range(k + 1)]
    h = _step(h, [x], k, offsets)
    values = _samples(f, [x + u * h for u in offsets])
    what = f"the difference of order {k}"
    terms = _finite([(-1.0) ** j * math.comb(k, j) * v for j, v in enumerate(values)], what, h)
    return _finite([_fsum(terms, what) / h**k], what, h)[0]


def taylor1d(f: Callable[[float], float], x: float, order: int, t: float) -> float:
    """Truncated Taylor value using finite-difference derivatives.

    The highest derivative is taken first: its default step is the largest
    power, so a step that does not fit is refused before f is called.
    """
    if order < 0:
        raise ValueError("need order >= 0")
    terms = [derivative_1d(f, x, k) / math.factorial(k) * t**k for k in range(order, -1, -1)]
    return _fsum(terms, "the Taylor value")


def taylor2_multi(f: ScalarField, x: Sequence[float], t: Sequence[float]) -> float:
    """Second-order multivariable Taylor value f(x) + <grad, t> + <Ht, t>/2."""
    x = _point(x)
    t = np.asarray(t, dtype=float)
    g, fx, H = _gradient_and_hessian(f, x, None)
    return float(fx + np.array(g) @ t + 0.5 * t @ np.array(H) @ t)


def _gradient_and_hessian(
    f: ScalarField, x: tuple[float, ...], h: float | None
) -> tuple[list[float], float, list[list[float]]]:
    """The gradient of :func:`gradient`, f(x) and the Hessian of :func:`hessian`, as Python floats.

    The gradient's 2d points go in front of the Hessian's stencil, and f is
    sampled once, in one block of 1 + 4d + 2d(d - 1) points; a Hessian entry past the float
    range raises ValueError.
    """
    h2, h1 = _step(h, x, 2), _step(h, x, 1)
    g, fx, H = _derivatives(len(x), "critical")(f, x, h1, h2)
    _finite([v for row in H for v in row], "a second difference", h2)
    return g, fx, H


class CriticalReport(Record):
    __slots__ = ("point", "gradient_norm", "eigenvalues", "classification")

    def __init__(self, point: tuple[float, ...], gradient_norm: float, eigenvalues: tuple[float, ...], classification: str):
        self._set(point, gradient_norm, eigenvalues, classification)


def classify_critical(f: ScalarField, x: Sequence[float], h: float | None = None) -> CriticalReport:
    """Classify a candidate critical point by its Hessian eigenvalue signs.

    Eigenvalues within +/- 1e-4 ||H|| count as zero; any zero makes
    the verdict "degenerate" (no higher-order analysis is attempted).  A
    gradient norm above 1e-5 (1 + |f(x)|) reports "not critical".  The
    gradient and Hessian stencils are sampled in one block, 1 + 4d +
    2d(d - 1) calls of f (25 in 3-D), by one generated kernel, and the Hessian's eigenvalues come from the numpy-free Jacobi
    sweeps on lists (at d = 3 written out on locals).  A NaN or infinite
    coordinate of x, or a step h, given or default, that does not fit the
    gradient's or the Hessian's stencil, raises ValueError before f is called.
    """
    x = _point(x)
    g, fx, H = _gradient_and_hessian(f, x, h)
    gnorm = math.sqrt(_fsum([v * v for v in g], "the squared gradient norm"))
    eig = _jacobi(H, 1e-12, vectors=False)[0]
    if gnorm > 1e-5 * (1.0 + abs(fx)):
        label = "not critical"
    else:
        # the eigenvalues come sorted in descending order, so the largest |v| is at an end
        band = 1e-4 * max(abs(eig[0]), abs(eig[-1]), 1e-30)
        pos = neg = 0
        for v in eig:
            pos += v > band
            neg += v < -band
        if pos + neg < len(eig):
            label = "degenerate"
        elif neg == 0:
            label = "minimum"
        elif pos == 0:
            label = "maximum"
        else:
            label = "saddle"
    return CriticalReport(x, gnorm, tuple(eig), label)


def laplacian(f: ScalarField, x: Sequence[float], h: float | None = None) -> float:
    """Sum of second central differences along the axes, rounded once.

    A step h, given or default, that does not fit the stencil, and a
    difference or a sum past the float range, are refused as in
    :func:`hessian`.
    """
    x = _point(x)
    h = _step(h, x, 2)
    return _fsum(_finite(_derivatives(len(x), "axes")(f, x, h)[2], "a second difference", h), "the Laplacian")


def mean_value_gap(
    f: ScalarField,
    center: Sequence[float],
    radius: float,
    samples: int = 512,
    surface: bool = True,
) -> float:
    """|average of f over the sphere (or ball) - f(center)|.

    Dimensions 2 and 3 use product quadrature: the trapezoid rule in the
    angles (spectrally accurate) on the (Re, Im) of roots_of_unity(samples),
    or the sphere rule of ``quad`` with max(8, sqrt(samples)) Gauss-Legendre
    polar nodes, plus a 16-node Gauss-Legendre rule in the radius for balls.  A ball
    costs 16 sphere averages and f(center).  A NaN or infinite coordinate
    of center or radius raises ValueError before f is called.
    """
    center = np.array(_point(center))
    dim = len(center)
    if not 0 < radius < math.inf:
        raise ValueError("need a finite radius > 0")
    if samples < 1:
        raise ValueError("need samples >= 1")

    if dim == 2:
        nodes = np.array([(w.real, w.imag) for w in roots_of_unity(samples)])
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
    axis (sin s = 0) and a NaN or infinite coordinate are rejected.  The
    step, given or the default of ``_step`` at (r, s, t), is capped at
    0.45 r and then checked as in :func:`laplacian`.
    """
    r, s, t = _point([r, s, t])
    if r <= 0:
        raise ValueError("need r > 0")
    sin_s = math.sin(s)
    if abs(sin_s) < 1e-9:
        raise ValueError("polar axis: the spherical form is singular there")
    # keep the radial stencil away from the origin
    h = _usable(min(h or _step(None, (r, s, t), 2), 0.45 * r), (r, s, t), 2)
    differences = _derivatives(3, "axes")
    _, (f_r, f_s, _), second = differences(lambda p: f(*p), (r, s, t), h)
    f_rr, f_ss, f_tt = _finite(second, "a second difference", h)
    radial = f_rr + 2.0 * f_r / r
    polar = (f_ss + (math.cos(s) / sin_s) * f_s) / (r * r)
    azimuthal = f_tt / (r * r * sin_s * sin_s)
    return radial + polar + azimuthal


def unity_root_average(
    f: Callable[[complex], complex], x: float, t: float, n: int
) -> float:
    """Average of f over the n points x + t w, w the n-th roots of unity (:func:`poly.roots_of_unity`).

    For f analytic near x the gap to f(x) estimates f^(n)(x) t^n / n!.  The
    imaginary part of the average is discarded (it vanishes for
    real-coefficient f up to roundoff).  Raises ValueError if f is NaN or
    infinite at a rotated point, or leaves the float range (an OverflowError).
    Where the sum of the values overflows, the average is the exact mean of
    their real parts, rounded once: the mean of finite floats is finite.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    try:
        values = [f(x + t * w) for w in roots_of_unity(n)]
    except OverflowError:  # cmath.exp(801): a value past the float range
        values = [math.inf]
    if not all(map(cmath.isfinite, values)):
        raise ValueError("the function produced NaN or infinite values")
    average = sum(values) / n
    if not cmath.isfinite(average):  # the sum leaves the float range before the division
        return float(sum(Fraction(v.real) for v in values) / n)
    return average.real


def holder_critical_check(y: Sequence[float], p: float) -> tuple[np.ndarray, float]:
    """Constrained maximizer of <x, y> on the unit p-norm sphere.

    For strictly positive y the maximizer is x_i proportional to
    y_i^(1/(p-1)), and the maximum is the q-norm of y (1/p + 1/q = 1).
    Verifies that y has no component tangential to the sphere at x.  Where
    a power leaves the float range, the same steps run on y / max(y), which
    has the same maximizer, and the maximum and the q-norm scale back;
    ValueError where the maximum itself leaves the float range.
    """
    y = np.asarray(y, dtype=float)
    if not 1 < p < math.inf:
        raise ValueError("need a finite p > 1")
    if not np.all((y > 0) & (y < math.inf)):
        raise ValueError("need strictly positive finite entries")
    scale = 1.0
    with np.errstate(all="ignore"):  # an overflow or underflow shows as a non-finite x or value
        x, value, expected, critical = _holder_steps(y, p)
        if not (np.isfinite(x).all() and math.isfinite(value) and math.isfinite(expected)):
            scale = float(y.max())
            x, value, expected, critical = _holder_steps(y / scale, p)
    if not critical:
        raise ArithmeticError("maximizer is not critical to tolerance")
    value, expected = value * scale, expected * scale
    if not max(value, expected) < math.inf:
        raise ValueError("the maximum leaves the float range")
    if not abs(value - expected) <= 1e-8 * max(1.0, expected):
        raise ArithmeticError("maximum does not match the dual norm")
    return x, value


def _holder_steps(y: np.ndarray, p: float) -> tuple[np.ndarray, float, float, bool]:
    """The maximizer x, <x, y>, the q-norm of y, and whether y is normal to the sphere at x."""
    u = y ** (1.0 / (p - 1.0))
    x = u / (np.sum(u**p)) ** (1.0 / p)
    value = float(x @ y)
    q = p / (p - 1.0)
    expected = float(np.sum(y**q) ** (1.0 / q))
    normal = x ** (p - 1.0)
    tangential = y - (y @ normal) / (normal @ normal) * normal
    return x, value, expected, bool(np.linalg.norm(tangential) <= 1e-8 * float(np.linalg.norm(y)))


def onorm_criticality(U: np.ndarray) -> bool:
    """1-norm criticality of an orthogonal matrix: is sign(U) U^T symmetric, to 1e-8?

    Nonzero entries within 1e-9 of zero make the sign pattern ambiguous and
    are rejected; exact zeros (permutation-like patterns) get sign 0.
    """
    U = np.asarray(U, dtype=float)
    n = U.shape[0]
    if U.shape != (n, n):
        raise ValueError("matrix must be square")
    if np.abs(U.T @ U - np.eye(n)).max() > 1e-8:
        raise ValueError("matrix is not orthogonal to tolerance")
    ambiguous = (U != 0.0) & (np.abs(U) <= 1e-9)
    if ambiguous.any():
        raise ValueError("near-zero entry: the sign pattern is ambiguous")
    S = np.sign(U)
    M = S @ U.T
    return bool(np.abs(M - M.T).max() <= 1e-8)
