"""Complex polynomials, the quadratic and cubic formulas, and simultaneous root iteration.

Polynomials carry their coefficients as plain Python numbers (ascending
order), so exact types such as ``fractions.Fraction`` survive arithmetic;
the numeric root finder converts to complex when it needs to.  Every
point calclab places on a circle comes from ``roots_of_unity``.  Nothing
here needs numpy, so the exact commands and the hydrogen families that
build on these polynomials start without it.  ``calclab.linalg``
re-exports every public name.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

__all__ = ["Polynomial", "solve_quadratic", "cardano", "all_roots", "roots_of_unity"]


class Polynomial:
    """Dense polynomial with ascending coefficients.

    Coefficients may be ints, Fractions, floats or complex; arithmetic
    preserves the type, which keeps the orthogonal-polynomial families exact.
    """

    def __init__(self, coefficients: Sequence):
        coeffs = list(coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        self.coefficients = coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as degree 0."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def __call__(self, x):
        out = 0
        for c in reversed(self.coefficients):
            out = out * x + c
        return out

    def deriv(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0])
        return Polynomial([k * c for k, c in enumerate(self.coefficients)][1:])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        a = self.coefficients + [0] * (n - len(self.coefficients))
        b = other.coefficients + [0] * (n - len(other.coefficients))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def scale(self, factor) -> "Polynomial":
        return Polynomial([factor * c for c in self.coefficients])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        return f"Polynomial({self.coefficients})"


def solve_quadratic(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Both roots of ax^2 + bx + c, for complex coefficients."""
    if a == 0:
        raise ValueError("degree is not 2 (leading coefficient vanishes)")
    d = cmath.sqrt(b * b - 4 * a * c)
    # pick the sign that avoids cancellation in -b +/- d
    if (b.conjugate() * d).real > 0:
        d = -d
    x1 = (-b + d) / (2 * a)
    x2 = c / (a * x1) if x1 != 0 else (-b - d) / (2 * a)
    return x1, x2


def cardano(p: float, q: float) -> tuple[float, complex, complex]:
    """All roots of the normalized cubic x^3 + 3px + 2q.

    The radicals are cbrt(-q +/- sqrt(p^3 + q^2)); the three roots combine
    them with the cube roots of unity.  For a negative discriminant of the
    radicand the two cube roots are taken as a conjugate pair (principal
    branch), which keeps their product equal to -p; this is the branch
    convention used for the all-real-roots case.
    """
    _, w, w2 = roots_of_unity(3)
    d = p**3 + q**2
    if d >= 0:
        sq = math.sqrt(d)
        u = _real_cbrt(-q + sq)
        v = _real_cbrt(-q - sq)
        roots = [u + v, w * u + w2 * v, w2 * u + w * v]
        return roots[0].real if isinstance(roots[0], complex) else roots[0], roots[1], roots[2]
    sq = math.sqrt(-d)
    u = (complex(-q, sq)) ** (1.0 / 3.0)
    v = u.conjugate()
    roots = [(u + v).real, w * u + w2 * v, w2 * u + w * v]
    return roots[0], roots[1], roots[2]


def roots_of_unity(N: int) -> list[complex]:
    """The N-th roots of unity exp(2 pi i k/N), k = 0, ..., N - 1: the circle rule of calclab.

    cos and sin are taken only at angles in [0, pi/4], both sqrt(1/2) at pi/4, and every other
    point is an exact reflection or quarter turn of one of those: point N - k is the conjugate of
    point k, point k + N/2 is -(point k) for even N, and i, -1 and -i are exact where they are
    roots.  Each point is within 2.3e-16 of the exact one.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    points = []
    for k in range(N):
        turns, r = divmod(4 * k, N)  # quarter turns, then the angle (pi/2) r/N
        x = math.pi * (min(r, N - r) / (2 * N))  # the distance to the nearer of 0 and pi/2
        # cos(pi/4) and sin(pi/4) differ in the last bit: pi/4 takes one value for both
        c, s = (math.sqrt(0.5),) * 2 if 2 * r == N else (math.cos(x), math.sin(x))
        w = complex(c, s) if 2 * r <= N else complex(s, c)
        points.append(w * (1, 1j, -1, -1j)[turns])  # exact: each part is +-c or +-s
    return points


def _real_cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def all_roots(P: Polynomial, tol: float = 1e-12) -> list[complex]:
    """All deg(P) roots, by simultaneous Durand-Kerner iteration.

    Start points are roots of unity scaled to 1 + max |c_k/c_n| and rotated
    by 0.4 radians to break symmetric stagnation.  Roots closer than
    1e3 * tol * scale are merged (reported with multiplicity, as copies of
    their cluster mean).  Raises ArithmeticError after 1000 sweeps, and
    ValueError as soon as an iterate leaves the float range, as it does when
    P overflows at the start radius (coefficients 1, 1e160, 1).
    """
    n = P.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    lead = complex(P.coefficients[-1])
    monic = Polynomial([complex(c) / lead for c in P.coefficients])
    radius = 1.0 + max(abs(c) for c in monic.coefficients[:-1])
    xs = [
        radius * cmath.exp(1j * (0.4 + 2 * math.pi * k / n)) for k in range(n)
    ]
    scale = max(1.0, radius)
    for _ in range(1000):
        shift = 0.0
        for i in range(n):
            denom = 1.0 + 0j
            for j in range(n):
                if j != i:
                    denom *= xs[i] - xs[j]
            if denom == 0:
                denom = 1e-300
            delta = monic(xs[i]) / denom
            xs[i] -= delta
            if not cmath.isfinite(xs[i]):  # P or the product overflowed: max(shift, nan) would stop the loop
                raise ValueError("root iteration left the float range: the coefficients are too far apart in scale")
            shift = max(shift, abs(delta))
        if shift <= tol * scale:
            break
    else:
        raise ArithmeticError("root iteration did not converge")
    return _cluster_roots(xs, 1e3 * tol * scale)


def _cluster_roots(roots: list[complex], merge_tol: float) -> list[complex]:
    out: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        for cluster in out:
            mean = sum(cluster) / len(cluster)
            if abs(r - mean) <= merge_tol:
                cluster.append(r)
                break
        else:
            out.append([r])
    merged = []
    for cluster in out:
        mean = sum(cluster) / len(cluster)
        merged.extend([mean] * len(cluster))
    return merged
