"""Numerical integration and the sphere-integral closed forms.

One-dimensional rules (right-endpoint Riemann, trapezoid, composite Simpson,
and the composite Gauss-Legendre that the package's smooth integrands take)
and seeded Monte Carlo, the Gauss and Fresnel improper integrals with their
quadrature verifiers, Wallis trigonometric integrals, sphere volumes/areas
and polynomial moments over real and complex unit spheres, the product
rule on the unit 2-sphere of the divergence and mean-value checks, and the
spherical-coordinate Jacobian (the polar one at N = 2).

Closed forms are evaluated in exact rational arithmetic and converted to
float at the end by ``combinat._rounded``, which rounds the exact value
once where a factor leaves the normal floats.  ``np`` is the deferred
binding of ``calclab._numpy``, so the closed forms, ``riemann`` and
``trapezoid`` run without loading numpy: their grids come from
``_linspace``, which copies ``numpy.linspace`` bit for bit, and their sums
from ``combinat._fsum``, the exact sum of the float terms rounded once.
The Gauss-Legendre rule is Python floats too; ``_gauss_rule`` and
``_sphere_quadrature`` (its product with the uniform rule in the azimuth)
are its array forms.
Every route of the package that calls a user function on a block of nodes
does so through ``_samples``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain
from typing import Callable

from ._numpy import np
from ._record import Record
from .combinat import _fsum, _rounded, factorial, semi_factorial
from .poly import roots_of_unity
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
    "jacobian_spherical",
]

# Work caps, each with at least 10x margin over every test, benchmark case and README example,
# checked before any node is built
_MAX_INTERVALS = 10**6  # riemann, trapezoid, simpson: a few seconds and about 100 MB of lists
_MAX_GAUSS_NODES = 8192  # _legendre_rule: O(n^2), about 35 s at the cap on a 2-vCPU x86
# monte_carlo, sphere_moment_mc, sn_fixed_point_law: 10x the 10^6 samples of the tests and of snchi; at the cap
# 1.2 s, 0.3-0.6 s and (N = 12) 1.8 s on a 2-vCPU x86
_MAX_SAMPLES = 10**7
_SPHERE_ZERO_N = 456  # sphere volumes round to 0.0 from N = 453 on, and areas from N = 456
_SPHERE_BLOCK = 16_384  # rows that the sphere samplers and sphere_moment_mc draw per substream


def riemann(f: Callable[[float], float], a: float, b: float, N: int) -> float:
    """Right-endpoint Riemann sum (b-a)/N * sum f(a + (b-a)k/N), k = 1..N; ValueError where it
    leaves the float range."""
    _intervals(N, 1, "riemann")
    _finite_interval(a, b)
    x = [a + (b - a) * k / N for k in range(1, N + 1)]
    return _finite_sum(_samples(f, x), "the riemann sum", (b - a) / N)


def trapezoid(f: Callable[[float], float], a: float, b: float, N: int) -> float:
    """Composite trapezoid rule with N subintervals; ValueError past the float range."""
    _intervals(N, 1, "trapezoid")
    _finite_interval(a, b)
    x = _linspace(a, b, N + 1)
    y = _samples(f, x)
    terms = [(x1 - x0) * (y1 + y0) / 2.0 for x0, x1, y0, y1 in zip(x, x[1:], y, y[1:])]
    return _finite_sum(terms, "the trapezoid sum")


def _finite_sum(terms: list[float], what: str, scale: float = 1.0) -> float:
    """scale times the exact sum of the terms rounded once, or ValueError where it is not finite."""
    value = scale * _fsum(terms, what)
    if not math.isfinite(value):
        raise ValueError(f"{what} leaves the float range")
    return value


def simpson(f: Callable[[float], float], a: float, b: float, N: int) -> float:
    """Composite Simpson rule with N subintervals (N made even if needed)."""
    _intervals(N, 2, "simpson")
    _finite_interval(a, b)
    x, w = _simpson_rule(a, b, N)
    return float(w @ _samples(f, x))


def _settle(value: Callable[[int], object], n: int | None, start: int, cap: int, rtol: float):
    """``value(n)``; for n None the first of value(start), value(2 start), ... value(cap) that agrees
    with the one before within rtol max(1, |v|) in every component (of a number, sequence or array).
    Where none agrees by the cap, ValueError names rtol, the cap and the last relative change."""
    if n is not None:
        return value(n)
    n, v, last = start, value(start), math.nan
    while n < cap:
        n, last = min(2 * n, cap), v
        v = value(n)
        if np.all(np.abs(np.subtract(v, last)) <= rtol * np.maximum(1.0, np.abs(v))):
            return v
    change = np.max(np.abs(np.subtract(v, last)) / np.maximum(1.0, np.abs(v)))
    raise ValueError(f"did not settle to {rtol:g} by n = {cap} (last change {change:.2g}); pass n to accept a fixed rule")


def _intervals(N: int, least: int, rule: str) -> None:
    """ValueError unless least <= N <= 10^6, before any node of the rule is built."""
    if N < least:
        raise ValueError(f"need N >= {least}")
    if N > _MAX_INTERVALS:
        raise ValueError(f"the {rule} rule has {N:.7g} subintervals, past the cap of {_MAX_INTERVALS:,}")


def _sample_cap(n: int, what: str) -> None:
    """ValueError naming ``what`` where n samples pass the cap of 10^7, before any draw."""
    if n > _MAX_SAMPLES:
        raise ValueError(f"{what} asks for {n:.7g} samples, past the cap of {_MAX_SAMPLES:,}")


def _finite_interval(a: float, b: float) -> None:
    """Raise ValueError unless both ends of the integration interval and its length are finite."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("the integration interval must be finite")
    if not math.isfinite(b - a):
        raise ValueError("the integration interval's length b - a overflows")


def _linspace(a: float, b: float, num: int) -> list[float]:
    """``numpy.linspace(a, b, num)`` (num >= 1) as a list of Python floats, bit for bit.

    The points are i*step + a with step = (b - a)/(num - 1), or
    (i/(num - 1))*(b - a) + a when the step rounds to 0; the last is b.
    A single point is 0*(b - a) + a.
    """
    div = num - 1
    delta = b - a
    if div == 0:
        return [0.0 * delta + a]
    step = delta / div
    if step == 0:
        x = [i / div * delta + a for i in range(num)]
    else:
        x = [i * step + a for i in range(num)]
    x[-1] = b
    return x


def _simpson_rule(a: float, b: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Simpson rule on [a, b] (N made even if needed)."""
    N += N % 2
    w = np.full(N + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[N] = 1.0
    return np.linspace(a, b, N + 1), w * ((b - a) / N / 3.0)


@functools.lru_cache(maxsize=32)  # an entry holds 2n floats
def _legendre_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-node Gauss-Legendre rule on [-1, 1], nodes ascending, as tuples of Python floats.

    Newton's method on the three-term recurrence (Press et al., *Numerical
    Recipes*, 3rd ed., section 4.6) from Tricomi's estimate of each root z
    in (0, 1), until a step is below an ulp, and then one more step; the
    weight is 2/((1 - z^2) P_n'(z)^2), corrected to first order in the
    distance from z to the root, which the weight's error at the nodes
    near 1 is most sensitive to.  The roots in (-1, 0) are the
    negatives, and odd n adds the root 0.  Nodes agree with 40-digit
    values to 1e-16, and weights to 2e-13 relative, up to n = 100 and at
    n = 128 (2.2e-13 at n = 192); each root costs a few O(n) recurrences,
    so large rules take panels, and n past 8192 is refused.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > _MAX_GAUSS_NODES:
        raise ValueError(f"the Gauss-Legendre rule has {n:.7g} nodes, past the cap of {_MAX_GAUSS_NODES:,}")
    roots, weights = [], []  # the roots in (0, 1), descending, and their weights
    shrink = 1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)
    for k in range(n // 2):
        z = shrink * math.cos(math.pi * (4 * k + 3) / (4 * n + 2))
        for _ in range(100):
            p, dp = _legendre(n, z)
            step = p / dp
            z -= step
            if abs(step) <= 5e-16 * z:
                break
        p, dp = _legendre(n, z)
        z -= p / dp
        # the weight at z, moved to first order by the sub-ulp step p/dp left to the root
        p, dp = _legendre(n, z)
        one_minus = (1.0 - z) * (1.0 + z)
        roots.append(z)
        weights.append(2.0 / (one_minus * dp * dp) * (1.0 + 2.0 * z * (p / dp) / one_minus))
    middle, middle_weight = ([0.0], [2.0 / _legendre(n, 0.0)[1] ** 2]) if n % 2 else ([], [])
    return tuple([-z for z in roots] + middle + roots[::-1]), tuple(weights + middle_weight + weights[::-1])


def _legendre(n: int, z: float) -> tuple[float, float]:
    """P_n(z) and P_n'(z) by the three-term recurrence, for |z| < 1."""
    p, prev = z, 1.0
    for j in range(2, n + 1):
        p, prev = ((2 * j - 1) * z * p - (j - 1) * prev) / j, p
    return p, n * (prev - z * p) / ((1.0 - z) * (1.0 + z))


def _gauss_rule(a: float, b: float, n: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Gauss-Legendre on [a, b]: ``panels`` equal panels of n nodes.

    Each panel is exact for polynomials of degree 2n - 1 and converges
    exponentially on analytic integrands; no node lies on a panel edge.
    """
    t, w = map(np.array, _legendre_rule(n))
    h = (b - a) / panels
    left = a + h * np.arange(panels)
    return (left[:, None] + 0.5 * h * (t + 1.0)).ravel(), np.tile(0.5 * h * w, panels)


def _sphere_quadrature(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The product rule on the unit sphere, polar-major: 2 order^2 nodes and weights.

    The rows are the ``order`` Gauss-Legendre nodes u in cos(polar),
    ascending, and the columns the 2 order azimuths i dt, dt = 2 pi/(2 order),
    of the uniform rule: node (s cos(i dt), s sin(i dt), u) with s = sqrt(1 - u^2),
    (cos, sin) from roots_of_unity(2 order), of weight w dt; the weights sum to 4 pi.
    """
    u, w = map(np.array, _legendre_rule(order))
    dt = 2.0 * math.pi / (2 * order)
    cos_t, sin_t = np.array([(z.real, z.imag) for z in roots_of_unity(2 * order)]).T
    s = np.sqrt(1.0 - u * u)[:, None]
    nodes = np.stack(np.broadcast_arrays(s * cos_t, s * sin_t, u[:, None]), axis=-1)
    return nodes.reshape(-1, 3), np.repeat(w * dt, 2 * order)


def _samples(f: Callable, nodes: list | np.ndarray) -> list[float] | np.ndarray:
    """f at each node, one call per node: a list of floats for a list, else one float array.

    f gets each node of a list as it is (a float, or a point of a
    ``diffcalc`` stencil), each node of a 1-D array as a Python float, and
    each row of a 2-D array as a 1-D float array, in which case it may return a
    number or a sequence of k numbers (a row of
    the result); every row must have the same length k, and numbers and
    sequences do not mix.  Raises ValueError if any value is NaN or
    infinite, or if f leaves the float range (an OverflowError of f), and
    for rows of different lengths.
    """
    try:
        if isinstance(nodes, list):
            values = list(map(float, map(f, nodes)))
            finite = all(map(math.isfinite, values))
        elif nodes.ndim == 1:
            # a memoryview of native doubles yields the Python floats of tolist() without the list
            items = memoryview(nodes) if nodes.dtype == np.float64 else nodes.tolist()
            values = np.fromiter(map(f, items), float, count=len(nodes))
            finite = np.isfinite(values).all()
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
            finite = np.isfinite(values).all()
    except OverflowError:  # math.exp(711), 1e200 ** 2
        finite = False
    if not finite:
        raise ValueError("the function produced NaN or infinite values")
    return values


def monte_carlo(
    f: Callable[[float], float], a: float, b: float, N: int, rng: RandomSource
) -> tuple[float, float]:
    """Monte Carlo estimate of the integral over [a, b], with standard error.

    Deterministic for a fixed RandomSource.  One sample (N = 1) gives a
    finite estimate and a standard error of inf, with no warning; N past
    10^7 raises ValueError before any draw.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    _sample_cap(N, "monte_carlo")
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


def verify_gauss(L: float = 8.0, nodes: int | None = None) -> float:
    """|quadrature of exp(-x^2) on [-L, L] - sqrt(pi)|, Simpson with ``nodes``, or settled 64 ... 10,000 to 1e-12.

    A settle where no two sizes agree by 10,000 raises ValueError; two
    agreeing coarse sizes are trusted.  The truncated tail is below
    exp(-L^2)/L, so L >= 6 makes it negligible.
    """
    if L < 6:
        raise ValueError("need L >= 6 for a negligible tail")
    approx = _settle(lambda n: simpson(lambda x: math.exp(-x * x), -L, L, n), nodes, 64, 10_000, 1e-12)
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
    if not 5 <= T < math.inf:
        raise ValueError("need a finite T >= 5")
    if averaging < 2:
        raise ValueError("need at least two half-periods")
    k0 = math.ceil(T * T / math.pi)
    zeros = [math.sqrt(k * math.pi) for k in range(k0, k0 + averaging)]
    # fine composite Simpson from 0 to the first zero, then per half-period
    f = lambda t: math.sin(t * t)
    n0 = max(2, int(zeros[0] * 2000))
    partials = [simpson(f, 0.0, zeros[0], n0)]
    for left, right in zip(zeros, zeros[1:]):
        partials.append(partials[-1] + simpson(f, left, right, 200))
    return abs(float(np.mean(partials)) - fresnel())


def _epsilon(p: int) -> int:
    return 1 if p % 2 == 0 else 0


def wallis2(p: int, q: int) -> float:
    """Quarter-period integral of cos^p sin^q: (pi/2)^(eps(p)eps(q)) p!!q!!/(p+q+1)!!; at q = 0
    the integral of cos^p (or sin^p), (pi/2)^eps(p) p!!/(p+1)!!."""
    if p < 0 or q < 0:
        raise ValueError("need p, q >= 0")
    ratio = Fraction(semi_factorial(p) * semi_factorial(q), semi_factorial(p + q + 1))
    return _rounded(ratio, "a Wallis integral", math.pi / 2.0, _epsilon(p) * _epsilon(q))


def sphere_volume(N: int) -> float:
    """Volume of the unit ball in R^N: (pi/2)^floor(N/2) 2^N/(N+1)!!, by ``_rounded``: 0.0 from N = 453."""
    if N < 1:
        raise ValueError("need N >= 1")
    if N >= _SPHERE_ZERO_N:
        return 0.0
    return _rounded(Fraction(2**N, semi_factorial(N + 1)), "a ball volume", math.pi / 2.0, N // 2)


def sphere_area(N: int) -> float:
    """Area of the unit sphere in R^N, N times the ball volume: 0.0 from N = 456."""
    if N < 1:
        raise ValueError("need N >= 1")
    if N >= _SPHERE_ZERO_N:
        return 0.0
    return _rounded(Fraction(2**N, semi_factorial(N - 1)), "a sphere area", math.pi / 2.0, N // 2)


def stirling(N: int) -> float:
    """The factorial approximation (N/e)^N sqrt(2 pi N); ValueError past the float range (N > 170)."""
    if N < 1:
        raise ValueError("need N >= 1")
    try:
        return math.exp(N * (math.log(N) - 1.0) + 0.5 * math.log(2.0 * math.pi * N))
    except OverflowError:
        raise ValueError(f"the Stirling approximation at N = {N} leaves the float range") from None


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


class SphereMomentKey(Record):
    """Exponent tuple for a sphere moment, over the real or complex sphere.

    Real field: the moment of x_1^k_1 ... x_N^k_N over the unit sphere of
    R^N.  Complex field: the moment of |z_1|^(2 k_1) ... |z_N|^(2 k_N) over
    the unit sphere of C^N.
    """

    __slots__ = ("exponents", "field")

    def __init__(self, exponents: tuple[int, ...], field: str = "real"):
        if field not in ("real", "complex"):
            raise ValueError("field must be 'real' or 'complex'")
        if len(exponents) < 1 or any(k < 0 for k in exponents):
            raise ValueError("exponents must be a nonempty tuple of naturals")
        self._set(exponents, field)

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
    if key.field == "real":
        # an even key's moment is its absolute moment, whose (2/pi)^S has S = 0
        return 0.0 if any(k % 2 for k in ks) else sphere_moment_abs(key)
    total = sum(ks)
    num = factorial(N - 1)
    for k in ks:
        num *= factorial(k)
    return _rounded(Fraction(num, factorial(N + total - 1)), "a complex sphere moment")


def sphere_moment_abs(key: SphereMomentKey) -> float:
    """Moment of |x_1|^k_1 ... |x_N|^k_N over the real unit sphere.

    Multiplies the double-factorial ratio by (2/pi)^S, where S counts half
    the odd exponents, rounded down for odd N and up for even N (``_rounded``).
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
    return _rounded(Fraction(num, semi_factorial(N + total - 1)), "an absolute sphere moment", 2.0 / math.pi, S)


def sample_real_sphere(N: int, samples: int, rng: RandomSource) -> np.ndarray:
    """Uniform points on the unit sphere of R^N via normalized Gaussians.

    Row block b (16,384 rows) takes its normals from substream b of rng.
    """
    _check_sphere_sampling(N, samples)
    points = np.empty((samples, N))

    def block(rows: slice, gen: np.random.Generator) -> None:
        g = points[rows]
        gen.standard_normal(g.shape, out=g)
        g /= np.linalg.norm(g, axis=1, keepdims=True)

    rng.map_blocks(samples, _SPHERE_BLOCK, block)
    return points


def sample_complex_sphere(N: int, samples: int, rng: RandomSource) -> np.ndarray:
    """Uniform points on the unit sphere of C^N via normalized complex Gaussians.

    Row block b (16,384 rows) takes its 2N normals per row from substream b
    of rng: the real parts, then the imaginary parts.
    """
    _check_sphere_sampling(N, samples)
    points = np.empty((samples, N), dtype=complex)

    def block(rows: slice, gen: np.random.Generator) -> None:
        out = points[rows]
        g = gen.standard_normal((len(out), 2 * N))
        z = g[:, :N] + 1j * g[:, N:]
        np.divide(z, np.linalg.norm(z, axis=1, keepdims=True), out=out)

    rng.map_blocks(samples, _SPHERE_BLOCK, block)
    return points


def _check_sphere_sampling(N: int, samples: int) -> None:
    if N < 1:
        raise ValueError("need N >= 1")
    if samples < 1:
        raise ValueError("need samples >= 1")


def sphere_moment_mc(
    key: SphereMomentKey, samples: int, rng: RandomSource
) -> tuple[float, float]:
    """Monte Carlo sphere moment with standard error, seeded and reproducible.

    A real key reads only its used coordinates x_i (nonzero exponent) and
    |x|^2, and for a Gaussian point of R^N the m unused coordinates'
    squares sum to one chi-square variate with m degrees of freedom
    (Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. IX).  So it
    draws one normal per used coordinate, in key order, then that variate:
    nothing for m = 0, a squared normal for m = 1, 2 Gamma(m/2) for m >= 2.
    A key that uses every coordinate takes the points of
    ``sample_real_sphere(N, samples, rng)``.
    Complex keys read only |z_j|^2, and for a Gaussian point of C^N those
    are independent, each twice a standard exponential, so they take
    (|z_1|^2, ..., |z_N|^2) as E/sum(E) for N standard exponentials E_j, a
    uniform point of the simplex (Devroye, ch. V): N draws per point, not
    2N normals.  Row block b (16,384 rows) draws from substream b of rng,
    as above; the blocks run on every CPU and write disjoint slices, so
    the bits do not depend on the CPU count.  The squares are summed left
    to right, the chi-square variate last, and integer powers are taken by
    multiplication (repeated squaring), never by ``**``.  An all-zero key
    returns (1.0, 0.0) without drawing.  Between 1000 and 10^7 samples, else
    ValueError before any draw.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    _sample_cap(samples, "sphere_moment_mc")
    used = [(i, k) for i, k in enumerate(key.exponents) if k]
    if not used:
        return 1.0, 0.0
    N, complex_field = key.dimension, key.field == "complex"
    rest = N - len(used)  # real keys: the unused coordinates, one chi-square variate
    values = np.ones(samples)

    def block(rows: slice, gen: np.random.Generator) -> None:
        out = values[rows]
        n = len(out)
        if complex_field:  # |z_j|^2 / |z|^2 as E_j / sum(E)
            g = gen.standard_exponential((n, N))
            cols = [g[:, j] for j in range(N)]
            tops = [cols[i] for i, _ in used]
        else:  # x_i / |x| for the used x_i
            g = gen.standard_normal((n, len(used)))
            tops = [g[:, j] for j in range(len(used))]
            cols = [x * x for x in tops]
            if rest == 1:
                x = gen.standard_normal(n)
                cols.append(x * x)
            elif rest:
                cols.append(2.0 * gen.standard_gamma(rest / 2, n))
        s = sum(cols[1:], cols[0])  # left to right, as np.linalg.norm sums
        denom = s if complex_field else np.sqrt(s)  # E_i / s, or x_i / sqrt(s)
        for x, (_, k) in zip(tops, used):
            x = x / denom
            while k:  # out *= x**k by repeated squaring
                if k & 1:
                    out *= x
                k >>= 1
                if k:
                    x = x * x

    rng.map_blocks(samples, _SPHERE_BLOCK, block)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(samples))


def jacobian_spherical(N: int, r: float, *angles: float) -> float:
    """Spherical Jacobian r^(N-1) sin^(N-2) t_1 ... sin t_(N-2).

    Takes the N-2 polar angles (the azimuth does not enter); at N = 2 this
    reduces to the polar Jacobian.  Where r^(N-1) leaves the float range the
    mantissas and the powers of two are multiplied apart; ValueError where
    the Jacobian leaves it too.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if not 0 <= r < math.inf:
        raise ValueError("need r >= 0 and finite")
    if len(angles) != N - 2:
        raise ValueError(f"expected {N - 2} polar angles, got {len(angles)}")
    if not all(map(math.isfinite, angles)):
        raise ValueError("need finite angles")
    try:
        out = r ** (N - 1)
    except OverflowError:  # the sines may bring the product back: mantissas and powers of two apart
        m, e = math.frexp(r)
        m, e = m ** (N - 1), e * (N - 1)
        for i, t in enumerate(angles):
            s, k = math.frexp(math.sin(t))
            m, j = math.frexp(m * s ** (N - 2 - i))
            e += j + k * (N - 2 - i)
        try:
            return math.ldexp(m, e)
        except OverflowError:
            raise ValueError("the spherical Jacobian leaves the float range") from None
    for i, t in enumerate(angles):
        out *= math.sin(t) ** (N - 2 - i)
    return out
