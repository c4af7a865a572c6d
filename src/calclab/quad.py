"""Numerical integration and the sphere-integral closed forms.

One-dimensional rules (right-endpoint Riemann, trapezoid, composite Simpson)
and seeded Monte Carlo, the Gauss and Fresnel improper integrals with their
quadrature verifiers, Wallis trigonometric integrals, sphere volumes/areas
and polynomial moments over real and complex unit spheres, the product
quadrature rule on the unit 2-sphere, and the Jacobians of polar/spherical
coordinates.

Closed forms are evaluated in exact rational arithmetic and converted to
float at the end; factorial-type factors switch to log-domain once the
integers would exceed ~150!.  numpy is imported inside the functions that
use it, so the closed forms run without loading it.  Every route of the
package that calls a user function on a block of nodes does so through
``_samples``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Callable

from .combinat import factorial, semi_factorial

if TYPE_CHECKING:
    import numpy as np

    from .rng import RandomSource

__all__ = [
    "riemann",
    "trapezoid",
    "simpson",
    "monte_carlo",
    "gauss_integral",
    "verify_gauss",
    "fresnel",
    "verify_fresnel",
    "wallis",
    "wallis2",
    "sphere_volume",
    "sphere_area",
    "stirling",
    "stirling_ratio",
    "sphere_volume_estimate",
    "SphereMomentKey",
    "sphere_moment",
    "sphere_moment_abs",
    "sphere_moment_mc",
    "sample_real_sphere",
    "sample_complex_sphere",
    "jacobian_polar",
    "jacobian_spherical",
]

_LOG_DOMAIN_CUTOFF = 150


def riemann(f: Callable[[float], float], a: float, b: float, N: int) -> float:
    """Right-endpoint Riemann sum (b-a)/N * sum f(a + (b-a)k/N), k = 1..N."""
    if N < 1:
        raise ValueError("need N >= 1")
    _finite_interval(a, b)
    import numpy as np

    x = a + (b - a) * np.arange(1, N + 1) / N
    return float((b - a) / N * _samples(f, x).sum())


def trapezoid(f: Callable[[float], float], a: float, b: float, N: int) -> float:
    """Composite trapezoid rule with N subintervals."""
    if N < 1:
        raise ValueError("need N >= 1")
    _finite_interval(a, b)
    import numpy as np

    x = np.linspace(a, b, N + 1)
    return float(np.trapezoid(_samples(f, x), x))


def simpson(f: Callable[[float], float], a: float, b: float, N: int) -> float:
    """Composite Simpson rule with N subintervals (N made even if needed)."""
    if N < 2:
        raise ValueError("need N >= 2")
    _finite_interval(a, b)
    x, w = _simpson_rule(a, b, N)
    return float(w @ _samples(f, x))


def _finite_interval(a: float, b: float) -> None:
    """Raise ValueError unless both ends of the integration interval are finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("the integration interval must be finite")


def _simpson_rule(a: float, b: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Simpson rule on [a, b] (N made even if needed)."""
    import numpy as np

    N += N % 2
    return np.linspace(a, b, N + 1), _simpson_weights(N, (b - a) / N)


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n+1 samples at spacing h.

    For odd n the last interval is folded in by the trapezoid rule.
    """
    import numpy as np

    m = n - n % 2
    w = np.zeros(n + 1)
    if m:
        w[1:m:2] = 4.0
        w[2:m:2] = 2.0
        w[0] = w[m] = 1.0
        w *= h / 3.0
    if n % 2:
        w[-2:] += 0.5 * h
    return w


def _sphere_quadrature(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Product nodes/weights on the unit sphere: Gauss-Legendre in cos(polar),
    uniform in azimuth, polar-major order.  Weights sum to the sphere area 4 pi."""
    import numpy as np

    u, w = np.polynomial.legendre.leggauss(order)
    ts = np.linspace(0.0, 2.0 * math.pi, 2 * order, endpoint=False)
    dt = 2.0 * math.pi / (2 * order)
    sin_s = np.sqrt(np.maximum(0.0, 1.0 - u * u))[:, None]
    cos_t = np.array([math.cos(t) for t in ts])
    sin_t = np.array([math.sin(t) for t in ts])
    nodes = np.stack(np.broadcast_arrays(sin_s * cos_t, sin_s * sin_t, u[:, None]), axis=-1)
    return nodes.reshape(-1, 3), np.repeat(w * dt, len(ts))


def _samples(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """f at each node, one call per node, as one float array.

    f gets each node of a 1-D array as a Python float, and each row of a
    2-D array as a 1-D float array, in which case it may return a number or
    a sequence of k numbers (a row of the result); every row must have the
    same length k, and numbers and sequences do not mix.  Raises
    ValueError if any value is NaN or infinite, and for rows of different
    lengths.
    """
    import numpy as np

    if nodes.ndim == 1:
        values = np.fromiter(map(f, nodes.tolist()), float, count=len(nodes))
    else:
        rows = list(map(f, nodes))
        try:
            lengths = set(map(len, rows))
        except TypeError:  # numbers; np.array rejects numbers mixed with sequences
            lengths = set()
        if len(lengths) > 1:
            raise ValueError("the function returned rows of different lengths")
        if lengths:
            k = lengths.pop()
            values = np.fromiter(chain.from_iterable(rows), float, count=k * len(rows))
            values = values.reshape(len(rows), k)
        else:
            values = np.array(rows, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("the function produced NaN or infinite values")
    return values


def monte_carlo(
    f: Callable[[float], float], a: float, b: float, N: int, rng: RandomSource
) -> tuple[float, float]:
    """Monte Carlo estimate of the integral over [a, b], with standard error.

    Deterministic for a fixed RandomSource.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    _finite_interval(a, b)
    values = _samples(f, rng.generator().uniform(a, b, size=N))
    mean = float(values.mean())
    if N > 1:
        stderr = float(values.std(ddof=1) / math.sqrt(N))
    else:
        stderr = math.inf
    return (b - a) * mean, abs(b - a) * stderr


def gauss_integral() -> float:
    """The full-line integral of exp(-x^2): sqrt(pi)."""
    return math.sqrt(math.pi)


def verify_gauss(L: float = 8.0, nodes: int = 10_000) -> float:
    """|quadrature of exp(-x^2) on [-L, L] - sqrt(pi)|, Simpson with ``nodes``.

    The truncated tail is below exp(-L^2)/L, so L >= 6 makes it negligible.
    """
    if L < 6:
        raise ValueError("need L >= 6 for a negligible tail")
    approx = simpson(lambda x: math.exp(-x * x), -L, L, nodes)
    return abs(approx - gauss_integral())


def fresnel() -> float:
    """The half-line integral of sin(t^2) (equally of cos(t^2)): sqrt(pi/8)."""
    return math.sqrt(math.pi / 8.0)


def verify_fresnel(T: float = 20.0, averaging: int = 8) -> float:
    """|averaged truncation of the sine Fresnel integral - sqrt(pi/8)|.

    The partial integrals are evaluated at the first ``averaging`` zeros of
    sin(t^2) past T (the zeros t_k = sqrt(k pi) delimit half-periods) and
    averaged, which cancels the alternating truncation tail.
    """
    if T < 5:
        raise ValueError("need T >= 5")
    if averaging < 2:
        raise ValueError("need at least two half-periods")
    k0 = math.ceil(T * T / math.pi)
    zeros = [math.sqrt(k * math.pi) for k in range(k0, k0 + averaging)]
    # fine composite Simpson from 0 to the first zero, then per half-period
    f = lambda t: math.sin(t * t)
    n0 = max(2, int(zeros[0] * 2000))
    import numpy as np

    partials = [simpson(f, 0.0, zeros[0], n0)]
    for left, right in zip(zeros, zeros[1:]):
        partials.append(partials[-1] + simpson(f, left, right, 200))
    return abs(float(np.mean(partials)) - fresnel())


def _epsilon(p: int) -> int:
    return 1 if p % 2 == 0 else 0


def wallis(p: int) -> float:
    """Quarter-period integral of cos^p (or sin^p): (pi/2)^eps(p) p!!/(p+1)!!."""
    if p < 0:
        raise ValueError("need p >= 0")
    ratio = Fraction(semi_factorial(p), semi_factorial(p + 1))
    return float(ratio) * (math.pi / 2.0) ** _epsilon(p)


def wallis2(p: int, q: int) -> float:
    """Quarter-period integral of cos^p sin^q: (pi/2)^(eps(p)eps(q)) p!!q!!/(p+q+1)!!."""
    if p < 0 or q < 0:
        raise ValueError("need p, q >= 0")
    ratio = Fraction(semi_factorial(p) * semi_factorial(q), semi_factorial(p + q + 1))
    return float(ratio) * (math.pi / 2.0) ** (_epsilon(p) * _epsilon(q))


def _log_semi_factorial(m: int) -> float:
    """log of the double factorial (m-1)(m-3)..., for the log-domain path."""
    if m <= 1:
        return 0.0
    n = m - 1  # standard double factorial of n
    if n % 2 == 0:
        k = n // 2
        return k * math.log(2.0) + math.lgamma(k + 1)
    k = (n + 1) // 2
    return math.lgamma(n + 2) - k * math.log(2.0) - math.lgamma(k + 1)


def sphere_volume(N: int) -> float:
    """Volume of the unit ball in R^N: (pi/2)^floor(N/2) 2^N/(N+1)!!."""
    if N < 1:
        raise ValueError("need N >= 1")
    if N <= _LOG_DOMAIN_CUTOFF:
        return float(Fraction(2**N, semi_factorial(N + 1))) * (math.pi / 2.0) ** (N // 2)
    log_v = N * math.log(2.0) - _log_semi_factorial(N + 1) + (N // 2) * math.log(math.pi / 2.0)
    return math.exp(log_v)


def sphere_area(N: int) -> float:
    """Area of the unit sphere in R^N: N times the ball volume."""
    if N < 1:
        raise ValueError("need N >= 1")
    if N <= _LOG_DOMAIN_CUTOFF:
        return float(Fraction(2**N, semi_factorial(N - 1))) * (math.pi / 2.0) ** (N // 2)
    log_a = N * math.log(2.0) - _log_semi_factorial(N - 1) + (N // 2) * math.log(math.pi / 2.0)
    return math.exp(log_a)


def stirling(N: int) -> float:
    """The factorial approximation (N/e)^N sqrt(2 pi N)."""
    if N < 1:
        raise ValueError("need N >= 1")
    return math.exp(N * (math.log(N) - 1.0) + 0.5 * math.log(2.0 * math.pi * N))


def stirling_ratio(N: int) -> float:
    """N! divided by its Stirling approximation, computed in log-domain."""
    if N < 1:
        raise ValueError("need N >= 1")
    log_ratio = math.lgamma(N + 1) - (
        N * (math.log(N) - 1.0) + 0.5 * math.log(2.0 * math.pi * N)
    )
    return math.exp(log_ratio)


def sphere_volume_estimate(N: int) -> float:
    """Large-N ball volume estimate (2 pi e/N)^(N/2)/sqrt(pi N)."""
    if N < 1:
        raise ValueError("need N >= 1")
    log_v = 0.5 * N * math.log(2.0 * math.pi * math.e / N) - 0.5 * math.log(math.pi * N)
    return math.exp(log_v)


@dataclass(frozen=True)
class SphereMomentKey:
    """Exponent tuple for a sphere moment, over the real or complex sphere.

    Real field: the moment of x_1^k_1 ... x_N^k_N over the unit sphere of
    R^N.  Complex field: the moment of |z_1|^(2 k_1) ... |z_N|^(2 k_N) over
    the unit sphere of C^N.
    """

    exponents: tuple[int, ...]
    field: str = "real"

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise ValueError("field must be 'real' or 'complex'")
        if len(self.exponents) < 1 or any(k < 0 for k in self.exponents):
            raise ValueError("exponents must be a nonempty tuple of naturals")

    @property
    def dimension(self) -> int:
        return len(self.exponents)


def sphere_moment(key: SphereMomentKey) -> float:
    """Closed-form sphere moment for the normalized uniform measure.

    Real keys with any odd exponent integrate to zero by symmetry; even keys
    give (N-1)!! k_1!!...k_N!!/(N + sum k - 1)!! in the shifted double
    factorial convention.  Complex keys give (N-1)! k_1!...k_N!/(N + sum k - 1)!.
    """
    ks, N = key.exponents, key.dimension
    total = sum(ks)
    if key.field == "real":
        if any(k % 2 for k in ks):
            return 0.0
        num = semi_factorial(N - 1)
        for k in ks:
            num *= semi_factorial(k)
        return float(Fraction(num, semi_factorial(N + total - 1)))
    num = factorial(N - 1)
    for k in ks:
        num *= factorial(k)
    return float(Fraction(num, factorial(N + total - 1)))


def sphere_moment_abs(key: SphereMomentKey) -> float:
    """Moment of |x_1|^k_1 ... |x_N|^k_N over the real unit sphere.

    Multiplies the double-factorial ratio by (2/pi)^S, where S counts half
    the odd exponents, rounded down for odd N and up for even N.
    """
    if key.field != "real":
        raise ValueError("absolute moments are for the real sphere")
    ks, N = key.exponents, key.dimension
    total = sum(ks)
    odds = sum(1 for k in ks if k % 2)
    S = odds // 2 if N % 2 else (odds + 1) // 2
    num = semi_factorial(N - 1)
    for k in ks:
        num *= semi_factorial(k)
    return float(Fraction(num, semi_factorial(N + total - 1))) * (2.0 / math.pi) ** S


def sample_real_sphere(N: int, samples: int, rng: RandomSource) -> np.ndarray:
    """Uniform points on the unit sphere of R^N via normalized Gaussians."""
    import numpy as np

    g = rng.generator().standard_normal((samples, N))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def sample_complex_sphere(N: int, samples: int, rng: RandomSource) -> np.ndarray:
    """Uniform points on the unit sphere of C^N via normalized complex Gaussians."""
    import numpy as np

    g = rng.generator().standard_normal((samples, 2 * N))
    z = g[:, :N] + 1j * g[:, N:]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def sphere_moment_mc(
    key: SphereMomentKey, samples: int, rng: RandomSource
) -> tuple[float, float]:
    """Monte Carlo sphere moment with standard error, seeded and reproducible."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    values = _moment_values(key, _sphere_batch(key, samples, rng))
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(samples))


def _sphere_batch(key: SphereMomentKey, samples: int, rng: RandomSource) -> np.ndarray:
    if key.field == "real":
        return sample_real_sphere(key.dimension, samples, rng)
    return sample_complex_sphere(key.dimension, samples, rng)


def _moment_values(key: SphereMomentKey, points: np.ndarray) -> np.ndarray:
    import numpy as np

    values = np.ones(points.shape[0])
    for i, k in enumerate(key.exponents):
        if k == 0:
            continue
        col = np.abs(points[:, i]) ** 2 if key.field == "complex" else points[:, i]
        values = values * col**k
    return values


def jacobian_polar(r: float) -> float:
    """Polar-coordinate Jacobian: r."""
    if r < 0:
        raise ValueError("need r >= 0")
    return r


def jacobian_spherical(N: int, r: float, *angles: float) -> float:
    """Spherical Jacobian r^(N-1) sin^(N-2) t_1 ... sin t_(N-2).

    Takes the N-2 polar angles (the azimuth does not enter); at N = 2 this
    reduces to the polar Jacobian.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if r < 0:
        raise ValueError("need r >= 0")
    if len(angles) != N - 2:
        raise ValueError(f"expected {N - 2} polar angles, got {len(angles)}")
    out = r ** (N - 1)
    for i, t in enumerate(angles):
        out *= math.sin(t) ** (N - 2 - i)
    return out
