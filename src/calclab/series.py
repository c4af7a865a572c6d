"""Power-series evaluation with honest truncation bounds, plus the classical
constants (e, pi via the odd-reciprocal alternating series, the Basel sum)
and fixed-point square roots.  Nothing here loads numpy.  Every partial sum
is ``math.fsum``: the exact sum of its float terms, rounded once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import cycle
from typing import Callable, Iterator, Sequence

from ._record import Record
from .combinat import _fsum, bernoulli, catalan, central_binomial, factorial

__all__ = [
    "PowerSeries",
    "eval_series",
    "convergence_radius",
    "pi_leibnitz",
    "basel_sum",
    "basel_sum_corrected",
    "babylonian_sqrt",
    "coth_series_coeff",
    "sqrt_one_minus_4t",
    "recip_sqrt_one_minus_4t",
    "exp_series",
    "sin_series",
    "cos_series",
]


class PowerSeries(Record):
    """A power series sum c_k x^k given by its coefficient callback.

    ``radius`` is the known convergence radius when there is one;
    evaluation refuses |x| >= radius.
    """

    __slots__ = ("coefficient", "radius")

    def __init__(self, coefficient: Callable[[int], float], radius: float = math.inf):
        self._set(coefficient, radius)


def eval_series(s: PowerSeries, x: float, terms: int) -> tuple[float, float]:
    """Partial sum of the first ``terms`` terms at x, plus a tail bound.

    The bound is the first omitted term for series that are (eventually)
    alternating with decreasing magnitude, a geometric bound when the recent
    term ratios stay below 1/2, and +inf when neither criterion applies.
    It bounds the truncation error only; the partial sum is the exact sum
    of the float terms, rounded once.  A term whose x^k leaves the float
    range is a ValueError naming its order: the float coefficients cannot
    give its value, and those that underflow to 0.0 would drop it silently.
    """
    if abs(x) >= s.radius:
        raise ValueError(f"|x|={abs(x)} is outside the convergence radius {s.radius}")
    if terms < 1:
        raise ValueError("need at least one term")
    computed = [_term(s, x, k) for k in range(terms)]
    return _fsum(computed, "the partial sum"), _tail_bound(s, x, terms, computed)


def _term(s: PowerSeries, x: float, k: int) -> float:
    # x**k can overflow long after c reached 0.0, and a +-0.0 term changes no sum
    if not (c := s.coefficient(k)):
        return 0.0
    try:
        return c * x**k
    except OverflowError:
        raise ValueError(f"the term of order {k} cannot be formed: {x!r}**{k} leaves the float range") from None


def _tail_bound(s: PowerSeries, x: float, terms: int, computed: list[float]) -> float:
    # look at the nonzero terms around the truncation point
    recent = [t for t in computed if t != 0.0][-4:]
    omitted = []
    for k in range(terms, terms + 8):
        t = _term(s, x, k)
        if t != 0.0:
            omitted.append(t)
        if len(omitted) == 2:
            break
    if not omitted:
        return 0.0
    window = recent + omitted
    mags = [abs(t) for t in window]
    alternating = all(a * b < 0 for a, b in zip(window, window[1:]))
    decreasing = all(a >= b for a, b in zip(mags, mags[1:]))
    if alternating and decreasing:
        return abs(omitted[0])
    ratios = [b / a for a, b in zip(mags, mags[1:])]
    if ratios and max(ratios) < 0.5:
        return 2.0 * abs(omitted[0])
    return math.inf


def convergence_radius(coeffs: Sequence[float], n: int) -> float:
    """Estimate 1/limsup |c_k|^{1/k} from the first n coefficients.

    The limsup is proxied by the max of |c_k|^{1/k} over the tail window
    k in [n/2, n), which is a documented heuristic.  A window of all-zero
    coefficients yields +inf (this is also how fast-decaying sequences such
    as 1/k! report an infinite radius, once the floats underflow).
    """
    if n < 8:
        raise ValueError("need n >= 8 coefficients")
    if len(coeffs) < n:
        raise ValueError("fewer coefficients than requested window")
    proxy = 0.0
    for k in range(n // 2, n):
        c = abs(coeffs[k])
        if c > 0.0:
            proxy = max(proxy, c ** (1.0 / k))
    return math.inf if proxy == 0.0 else 1.0 / proxy


def pi_leibnitz(terms: int) -> tuple[float, float]:
    """pi from 4(1 - 1/3 + 1/5 - ...); the bound is 4/(2*terms+1)."""
    if terms < 1:
        raise ValueError("need terms >= 1")
    value = 4.0 * math.fsum(s / d for s, d in zip(cycle((1.0, -1.0)), range(1, 2 * terms, 2)))
    return value, 4.0 / (2 * terms + 1)


def basel_sum(terms: int) -> float:
    """Partial sum of sum 1/k^2; the tail lies in (1/(terms+1), 1/terms)."""
    if terms < 1:
        raise ValueError("need terms >= 1")
    return math.fsum(1.0 / (k * k) for k in map(float, range(1, terms + 1)))


def basel_sum_corrected(terms: int) -> tuple[float, float]:
    """Partial sum plus the midpoint of the integral-comparison tail bracket.

    Returns (estimate, half-width of the bracket), so the true value is
    within the returned error of the estimate.
    """
    partial = basel_sum(terms)  # refuses terms < 1 before the bracket divides by terms
    lo, hi = 1.0 / (terms + 1), 1.0 / terms
    return partial + 0.5 * (lo + hi), 0.5 * (hi - lo)


def _babylonian_iterates(a: float) -> Iterator[float]:
    """Iterates of x -> (x + a/x)/2 from x0 = max(a, 1), for a finite a > 0."""
    if not 0 < a < math.inf:  # an infinite a iterates to nan, and a nan a is nan throughout
        raise ValueError("need a finite a > 0")
    x = max(a, 1.0)
    while True:
        yield x
        x = 0.5 * (x + a / x)


def babylonian_sqrt(a: float, tol: float) -> float:
    """Square root by the fixed-point iteration x -> (x + a/x)/2.

    Stops once |x^2 - a| <= tol, or at the iteration's float fixed point;
    the iteration is monotone decreasing after the first step, so it cannot
    stall.  Needs a finite a > 0 and tol > 0 (not nan).
    """
    if not (0 < a < math.inf and tol > 0):
        raise ValueError("need a finite a > 0 and tol > 0")
    for x in _babylonian_iterates(a):
        if abs(x * x - a) <= tol:
            return x
        if x == 0.5 * (x + a / x):  # fixed point at float precision
            return x


def coth_series_coeff(k: int) -> Fraction:
    """Coefficient of x^(2k-1) in the hyperbolic cotangent series: 4^k B_2k / (2k)!."""
    if k < 0:
        raise ValueError("need k >= 0")
    return Fraction(4**k) * bernoulli(2 * k) / factorial(2 * k)


def sqrt_one_minus_4t() -> PowerSeries:
    """The series of sqrt(1-4t): 1 - 2 sum_{k>=1} C_{k-1} t^k, radius 1/4."""

    def coeff(k: int) -> float:
        return 1.0 if k == 0 else -2.0 * catalan(k - 1)

    return PowerSeries(coeff, radius=0.25)


def recip_sqrt_one_minus_4t() -> PowerSeries:
    """The series of 1/sqrt(1-4t): sum D_k t^k, radius 1/4."""
    return PowerSeries(lambda k: float(central_binomial(k)), radius=0.25)


def _reciprocal_factorial(k: int) -> float:
    # 1/k! rounded once (int true division): subnormal from k = 171 to 177, and
    # 0.0 from 178 on, where k! is not computed
    return 1 / factorial(k) if k < 178 else 0.0


def exp_series() -> PowerSeries:
    return PowerSeries(_reciprocal_factorial)


def sin_series() -> PowerSeries:
    def coeff(k: int) -> float:
        if k % 2 == 0:
            return 0.0
        return (-1.0) ** ((k - 1) // 2) * _reciprocal_factorial(k)

    return PowerSeries(coeff)


def cos_series() -> PowerSeries:
    def coeff(k: int) -> float:
        if k % 2 == 1:
            return 0.0
        return (-1.0) ** (k // 2) * _reciprocal_factorial(k)

    return PowerSeries(coeff)
