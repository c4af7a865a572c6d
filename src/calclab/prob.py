"""Classical probability laws and their moment calculus.

A Law is atoms plus an optional density, smooth between the breakpoints
of its support.  The module provides the discrete laws (Bernoulli, binomial,
Poisson), the real and complex Gaussian laws with their pairing/partition
moment formulas, convolution, the Poisson and central limit theorems as
moment-gap computations, the Cauchy transform with Stieltjes inversion for
the four combinatorial laws (semicircle, Marchenko-Pastur, arcsine, modified
arcsine), Hankel positivity, orthogonal polynomials from moments, and the
fixed-point statistics of random permutations.

``np`` is the deferred binding of ``calclab._numpy``, so the closed-form
moments and the exact permutation law (and the CLI commands built on them)
run without loading numpy.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Sequence

from ._numpy import np
from ._record import Record
from .combinat import (
    _fsum,
    _rounded,
    binomial as binom,
    catalan,
    central_binomial,
    count_matching_pairings,
    factorial,
    middle_binomial,
    semi_factorial,
)
from .linalg import determinant
from .poly import Polynomial
from .quad import SphereMomentKey, _gauss_rule, _sample_cap, _samples, _settle, sphere_moment, sphere_moment_mc
from .rng import RandomSource

__all__ = [
    "Law",
    "moments",
    "law_fourier",
    "bernoulli_law",
    "binomial_law",
    "poisson_law",
    "poisson_moments",
    "gaussian_law",
    "gaussian_moment",
    "complex_gaussian_moment",
    "wick",
    "convolve",
    "plt_distance",
    "clt_moment_gap",
    "cauchy_transform",
    "semicircle_law",
    "mp_law",
    "arcsine_law",
    "marcsine_law",
    "semicircle_transform",
    "mp_transform",
    "arcsine_transform",
    "marcsine_transform",
    "stieltjes_density",
    "hankel_check",
    "orthopoly_from_moments",
    "sn_fixed_point_counts",
    "sn_fixed_point_law",
    "SnFixedPointResult",
    "derangement_probability_exact",
    "su2_character_moment_mc",
    "BUILTIN_CONTINUOUS_LAWS",
    "BUILTIN_MOMENTS",
    "graph_loop_moment",
    "su2_character_moment",
]


class Law(Record):
    """A probability law: atoms (location, mass) plus an optional density.

    The density lives on [a, b] and is smooth between neighbours of the
    increasing breakpoints ``support`` = (a, ..., b); total mass (atoms +
    density integral) must be 1, which :meth:`total_mass` checks by
    quadrature.  Inverse-square-root singularities at breakpoints are fine:
    the sin^2 rule of :func:`_density_rule` absorbs them.  A :func:`convolve`
    result's density brings its own rule: the outer product of the two
    factors' rules of each part, where an explicit ``nodes`` means
    min(nodes, 256) per piece of each density factor of a product part.
    """

    __slots__ = ("atoms", "density", "support")

    def __init__(
        self,
        atoms: tuple[tuple[float, float], ...] = (),
        density: Callable[[float], float] | None = None,
        support: tuple[float, ...] | None = None,
    ):
        if not all(math.isfinite(loc) and math.isfinite(mass) and mass >= -1e-12 for loc, mass in atoms):
            raise ValueError("atoms need finite locations and finite nonnegative masses")
        if (density is None) != (support is None):
            raise ValueError("density and support come together")
        s = support  # increasing with a finite length b - a, so every breakpoint is finite
        if s is not None and not (len(s) > 1 and all(x < y for x, y in zip(s, s[1:])) and math.isfinite(s[-1] - s[0])):
            raise ValueError("support must be two or more increasing breakpoints with a finite length b - a")
        self._set(atoms, density, support)

    def total_mass(self, nodes: int | None = None) -> float:
        """M_0 by :func:`moments`: its rule settled or fixed by ``nodes``, and its ValueError."""
        return moments(self, 0, nodes)[0]


_PRODUCT_NODES = 256  # the most nodes per density factor of a density-density part


class _ConvolvedDensity:
    """The density of a convolution: a sum of product parts (law, other).

    ``other`` is either atoms (l_i, m_i), and the part is the mixture
    sum_i m_i f(x - l_i) of the law's density f shifted by the atoms, or a
    second law with density g, and the part is (f * g)(t) = int f(t - y) g(y) dy,
    the total mass of a law on the overlap [max(b0, t - a1), min(b1, t - a0)]
    whose breakpoints are g's and t minus f's inside it.
    """

    def __init__(self, parts: list[tuple[Law, list[tuple[float, float]] | Law]]):
        self.parts = parts

    def __call__(self, t: float) -> float:
        terms = []
        for law, other in self.parts:
            a0, a1 = law.support[0], law.support[-1]
            if isinstance(other, Law):
                lo, hi = max(other.support[0], t - a1), min(other.support[-1], t - a0)
                if lo < hi:
                    cuts = sorted(y for y in {*other.support, *(t - x for x in law.support)} if lo < y < hi)
                    product = lambda y: law.density(t - y) * other.density(y)
                    terms.append(Law(density=product, support=(lo, *cuts, hi)).total_mass())
            else:
                shifted = [(t - loc, mass) for loc, mass in other if a0 <= t - loc <= a1]
                values = _samples(law.density, [x for x, _ in shifted])
                terms += [mass * v for (_, mass), v in zip(shifted, values)]
        return _fsum(terms, "the convolved density")

    def rule(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Each part's outer product of two rules: the law's at every atom, or both densities' at min(nodes, 256)."""
        rules = []
        for law, other in self.parts:
            if isinstance(other, Law):
                n = min(nodes, _PRODUCT_NODES)
                y, v = _density_rule(other, n)
            else:
                n, (y, v) = nodes, np.array(other, dtype=float).reshape(-1, 2).T
            x, w = _density_rule(law, n)
            rules.append(((y[:, None] + x).ravel(), (v[:, None] * w).ravel()))
        return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])


def _density_rule(law: Law, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with sum w f(x) the integral of f against the density.

    A convolved law's density brings its own rule, the outer product of the
    rules of each of its parts (a density factor of a density-density part
    takes min(nodes, 256) nodes a piece).  Everything else goes, piece by
    piece between the support's breakpoints, through the substitution
    x = a + L sin^2(u/2) on [a, b], L = b - a, written b - L cos^2(u/2) past
    u = pi/2 so that neither end cancels.  Its Jacobian (L/2) sin(u) cancels
    inverse-square-root singularities at either end, and the u-integrand,
    smooth on [0, pi], takes composite Gauss-Legendre: ceil(nodes/8) panels
    of 8 nodes a piece.  The density is sampled once per node.
    """
    if isinstance(law.density, _ConvolvedDensity):
        return law.density.rule(nodes)
    a, b = np.array(law.support[:-1], dtype=float)[:, None], np.array(law.support[1:], dtype=float)[:, None]
    L = b - a
    u, wu = _gauss_rule(0.0, math.pi, 8, -(-nodes // 8))
    s, c = np.sin(0.5 * u), np.cos(0.5 * u)
    x = np.where(u <= 0.5 * math.pi, a + L * s * s, b - L * c * c).ravel()
    return x, (wu * L * s * c).ravel() * _samples(law.density, x)


def _density_sums(law: Law, g: Callable[[np.ndarray], np.ndarray], nodes: int | None):
    """sum_i w_i g(x_i) over the density rule, g mapping the nodes to one row per node.

    An explicit ``nodes`` fixes the rule; else it is settled (:func:`quad._settle`)
    over 16, 32, ... 8192 nodes to 1e-12 relative in every component.
    """

    def value(n: int):
        x, w = _density_rule(law, n)
        return w @ g(x)

    return _settle(value, nodes, 16, 8192, 1e-12)


def moments(law: Law, upto: int, nodes: int | None = None) -> list[float]:
    """The moment sequence M_0..M_upto of a law (atom sums + quadrature).

    The density takes composite Gauss-Legendre in u, x = a + (b-a) sin^2(u/2),
    doubled until every moment settles to 1e-12 relative (at most 240
    density calls for the builtin laws to order 10); ``nodes`` fixes it.
    Where no two sizes agree by 8,192 nodes, ValueError says so.  Two sizes
    that agree are trusted, so a density feature narrower than the first
    panels can go unseen: pass ``nodes`` for such a density.  A
    convolution of two densities takes the outer product of their rules,
    min(nodes, 256) per factor, so the doubling stops once both are capped.
    ValueError for ``nodes`` below 1.
    """
    if upto < 0:
        raise ValueError("need upto >= 0")
    if nodes is not None and nodes < 1:
        raise ValueError("need nodes >= 1")
    out = [_atom_moment(law.atoms, k) for k in range(upto + 1)]
    if law.density is not None:
        powers = lambda x: np.power.outer(x, np.arange(upto + 1))
        out = np.add(out, _density_sums(law, powers, nodes))
    return [float(m) for m in out]


def _atom_moment(atoms: tuple[tuple[float, float], ...], k: int) -> float:
    """sum m l^k over the atoms (l, m), rounded once; exact where l^k overflows, and ValueError
    naming the order past the float range.  The exact sum is taken in integers over one common
    denominator (a power of two for float atoms), with no gcd per term."""
    what = f"the atom moment of order {k}"
    try:
        return _fsum([mass * loc**k for loc, mass in atoms], what)
    except OverflowError:
        pass
    ratios = [(loc.as_integer_ratio(), mass.as_integer_ratio()) for loc, mass in atoms]
    terms = [(mn * ln**k, md * ld**k) for (ln, ld), (mn, md) in ratios]
    den = math.lcm(*(d for _, d in terms))
    return _rounded(Fraction(sum(n * (den // d) for n, d in terms), den), what)


def law_fourier(law: Law, y: float, nodes: int | None = None) -> complex:
    """E(exp(iyX)) for a finite y; the density takes the rule of :func:`moments`: settled to
    1e-12 over 16 ... 8,192 nodes with ValueError where no two sizes agree, two agreeing coarse
    sizes trusted, or fixed by ``nodes`` >= 1."""
    if not math.isfinite(y):
        raise ValueError("need a finite y")
    if nodes is not None and nodes < 1:
        raise ValueError("need nodes >= 1")
    out = sum(mass * cmath.exp(1j * y * loc) for loc, mass in law.atoms)
    if law.density is not None:
        out += complex(_density_sums(law, lambda x: np.exp(1j * y * x), nodes))
    return out


def bernoulli_law(x: float) -> Law:
    """(1-x) delta_0 + x delta_1."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("need x in [0, 1]")
    return Law(atoms=((0.0, 1.0 - x), (1.0, x)))


def binomial_law(x: float, n: int) -> Law:
    """Atoms binom(n, k) x^k (1-x)^(n-k) at k = 0..n.

    Each mass is that product of floats while binom(n, k) is a float, that
    is up to n = 1,029.  Past it the atoms are built outward from the mode
    min(n, floor((n+1)x)), whose mass is the exact product (with 1 - x
    exact) rounded once, by the ratios of neighbouring masses,
    (n-k)x / ((k+1)(1-x)) upward, each exact and rounded once; each side
    stops where a mass falls below the float range.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("need x in [0, 1]")
    if n < 1:
        raise ValueError("need n >= 1")
    try:
        return Law(atoms=tuple((float(k), binom(n, k) * x**k * (1.0 - x) ** (n - k)) for k in range(n + 1)))
    except OverflowError:  # int too large to convert to float
        pass
    # x = p/q and 1 - x = r/q exactly, q a power of two
    (p, q), mode = x.as_integer_ratio(), min(n, math.floor((n + 1) * x))
    r = q - p
    peak = binom(n, mode) * p**mode * r ** (n - mode) / (1 << (n * (q.bit_length() - 1)))
    upper, k, mass = [peak], mode, peak
    while k < n and (mass := mass * ((n - k) * p / ((k + 1) * r))) > 0.0:
        upper.append(mass)
        k += 1
    lower, k, mass = [], mode, peak
    while k > 0 and (mass := mass * (k * r / ((n - k + 1) * p))) > 0.0:
        lower.append(mass)
        k -= 1
    start = mode - len(lower)
    return Law(atoms=tuple((float(start + i), m) for i, m in enumerate(lower[::-1] + upper)))


def poisson_law(t: float, residual: float = 1e-12) -> Law:
    """Atoms e^-t t^k/k!, truncated so that the omitted mass is below ``residual``.

    The atoms are built outward from the mode floor(t), whose mass is taken
    in log space, so e^-t may underflow (t above ~745) without losing the
    law.  Each side stops once a geometric bound on its remaining tail is
    below residual/2.  High moments of heavily truncated laws are biased
    low; the default residual 1e-12 keeps moments up to order ~10 accurate
    for moderate t.
    """
    if not t > 0:
        raise ValueError("need t > 0")
    if residual <= 0:
        raise ValueError("need residual > 0")
    mode = math.floor(t)
    peak = math.exp(_poisson_log_mode_mass(t, mode))
    # past k >= mode every further ratio t/(j+1) is at most t/(k+2) < 1, so
    # the tail beyond k is at most p_{k+1} / (1 - t/(k+2))
    upper, k, mass = [peak], mode, peak
    while (nxt := mass * t / (k + 1)) / (1.0 - t / (k + 2)) >= residual / 2:
        upper.append(nxt)
        k, mass = k + 1, nxt
    # below k <= mode every further ratio j/t is at most (k-1)/t < 1, so
    # the tail below k is at most p_{k-1} / (1 - (k-1)/t)
    lower, k, mass = [], mode, peak
    while k > 0 and (prev := mass * k / t) / (1.0 - (k - 1) / t) >= residual / 2:
        lower.append(prev)
        k, mass = k - 1, prev
    masses = lower[::-1] + upper
    start = mode - len(lower)
    return Law(atoms=tuple((float(start + i), m) for i, m in enumerate(masses)))


def _poisson_log_mode_mass(t: float, mode: int) -> float:
    """log(e^-t t^mode / mode!) for mode = floor(t).

    For large modes, -t + mode log t - lgamma(mode+1) cancels terms of size
    t log t; Stirling's series for lgamma leaves only O(log t) terms.
    """
    if mode < 20:
        return mode * math.log(t) - t - math.lgamma(mode + 1)
    f = t - mode
    inv = 1.0 / mode
    inv2 = inv * inv
    stirling = inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680)))
    return mode * math.log1p(f / mode) - f - 0.5 * math.log(2.0 * math.pi * mode) - stirling


def poisson_moments(t: float, upto: int) -> list[float]:
    """Poisson moments M_0..M_upto, the Touchard polynomials sum_b S(k, b) t^b.

    M_0 = 1, M_{j+1} = t fsum_i C(j, i) M_i: about 1 ulp from exact at t = 0.3.
    An order whose float step overflows (the sum M_{j+1}/t, a term, or past
    j = 1,030 a binomial C(j, i) leaves the float range) is summed exactly
    from the float M_i and rounded once (``combinat._rounded``); ValueError
    names the first order whose moment itself leaves the float range.
    """
    if not t > 0 or upto < 0:
        raise ValueError("need t > 0 and upto >= 0")
    ms, row = [1.0], [1]  # row j of Pascal's triangle
    for j in range(upto):
        try:  # guarded: an overflow takes the exact step below
            m = t * math.fsum(c * x for c, x in zip(row, ms))
        except OverflowError:
            m = math.inf
        if m == math.inf:  # t sum_i C(j, i) M_i in integers over one power of two
            tn, td = t.as_integer_ratio()
            pairs = [x.as_integer_ratio() for x in ms]
            den = max(d for _, d in pairs)  # every float's denominator is a power of two, so d divides it
            total = tn * sum(c * n * (den // d) for c, (n, d) in zip(row, pairs))
            m = _rounded(Fraction(total, td * den), f"the Poisson moment of order {j + 1}")
        ms.append(m)
        row = [1, *(x + y for x, y in zip(row, row[1:])), 1]
    return ms


def gaussian_law(t: float) -> Law:
    """Centered Gaussian of variance t, truncated to [-12 sqrt(t), 12 sqrt(t)].

    The truncated mass is below 1e-30 and is not renormalized.
    """
    if not t > 0:
        raise ValueError("need t > 0")
    s = math.sqrt(t)
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)

    def density(x: float) -> float:
        return norm * math.exp(-x * x / (2.0 * t))

    return Law(density=density, support=(-12.0 * s, 12.0 * s))


def gaussian_moment(t: float, k: int) -> float:
    """t^(k/2) k!! for even k (shifted double factorial), 0 for odd k.

    The exact value rounded once where a float factor is not normal
    (``combinat._rounded``); ValueError names an order past the float range.
    """
    if not t > 0:
        raise ValueError("need t > 0")
    if k % 2:
        return 0.0
    return _rounded(semi_factorial(k), f"the Gaussian moment of order {k}", t, k // 2)


def complex_gaussian_moment(t: float, word: str) -> float:
    """Moment of the complex Gaussian for a colored word over {'o', 'b'}.

    Equals t^(|word|/2) times the number of matching pairings: t^p p! for a
    uniform word of length 2p, and 0 otherwise (Isserlis/Wick), rounded as
    :func:`gaussian_moment` is; past the float range ValueError names p.
    """
    if not t > 0:
        raise ValueError("need t > 0")
    count = count_matching_pairings(word)
    p = len(word) // 2
    return _rounded(count, f"the complex Gaussian moment of order {p}", t, p) if count else 0.0


def wick(t: float, factors: Sequence[tuple[int, str]]) -> float:
    """Joint moment of independent complex Gaussians f_i.

    ``factors`` lists (index, color) pairs, color 'o' for f_i and 'b' for
    its conjugate.  The value is t^(s/2) times the number of matching
    pairings whose blocks respect the index kernel (odd length gives 0).
    Such a pairing matches, for each index i, its p_i plain factors to its
    conjugate ones, so the count is prod_i p_i! when every index has as
    many 'o' as 'b' factors, and 0 otherwise; rounded as in
    :func:`gaussian_moment`, and past the float range ValueError names s.
    """
    if not t > 0:
        raise ValueError("need t > 0")
    bad = {color for _, color in factors} - {"o", "b"}
    if bad:
        raise ValueError(f"factor colors may only be 'o' and 'b', got {bad}")
    s = len(factors)
    if s == 0:
        return 1.0
    if s % 2:
        return 0.0
    plain = Counter(i for i, color in factors if color == "o")
    if plain != Counter(i for i, color in factors if color == "b"):
        return 0.0
    count = math.prod(math.factorial(p) for p in plain.values())
    return _rounded(count, f"the Wick moment of {s} factors", t, s // 2)


def _merge_atoms(atoms: list[tuple[float, float]], tol: float) -> tuple[tuple[float, float], ...]:
    atoms = sorted(atoms)
    merged: list[list[float]] = []
    for loc, mass in atoms:
        if merged and abs(loc - merged[-1][0]) <= tol:
            total = merged[-1][1] + mass
            if total > 0:
                merged[-1][0] = (merged[-1][0] * merged[-1][1] + loc * mass) / total
            merged[-1][1] = total
        else:
            merged.append([loc, mass])
    return tuple((loc, mass) for loc, mass in merged)


def convolve(a: Law, b: Law) -> Law:
    """The law of the sum of independent variables with laws a and b.

    Atom pairs convolve exactly.  A density convolves with atoms as a
    mixture of shifted copies, and two densities as the integral
    int f(t - y) g(y) dy; either part's rule is the outer product of its
    two factors' rules, each density factor of a density-density part
    capped at 256 nodes a piece; the result's breakpoints are the sums of
    its factors' (and atoms).  A convolved factor, at any depth, enters a
    density-density part through its pointwise density and the sin^2 rule
    on its pieces, so nested rules do not multiply; each of its pointwise
    values is an integral that settles like :func:`moments`.
    So the total mass is 1 up to the quadrature error of the input laws.
    """
    scale = max(
        [abs(loc) for loc, _ in a.atoms + b.atoms]
        + [abs(x) for law in (a, b) if law.support for x in law.support]
        + [1.0]
    )
    tol = 1e-12 * scale
    new_atoms = [
        (la + lb, ma * mb) for la, ma in a.atoms for lb, mb in b.atoms if ma * mb != 0.0
    ]

    if a.density is None and b.density is None:
        return Law(atoms=_merge_atoms(new_atoms, tol))

    # the density of the sum: shifted copies of each density by the other
    # law's atoms, plus the convolution of the two densities
    parts: list[tuple[Law, list[tuple[float, float]] | Law]] = []
    breaks: set[float] = set()
    for law_d, atom_law in ((a, b), (b, a)):
        atoms = [(loc, mass) for loc, mass in atom_law.atoms if mass != 0.0]
        if law_d.density is not None and atoms:
            parts.append((law_d, atoms))
            breaks.update(x + loc for x in law_d.support for loc, _ in atoms)
    if a.density is not None and b.density is not None:
        # a convolved factor enters by its pointwise density, keeping its breakpoints
        pointwise = lambda f: Law(density=f.density.__call__, support=f.support)
        parts.append(tuple(pointwise(f) if isinstance(f.density, _ConvolvedDensity) else f for f in (a, b)))
        breaks.update(x + y for x in a.support for y in b.support)
    return Law(atoms=_merge_atoms(new_atoms, tol), density=_ConvolvedDensity(parts), support=tuple(sorted(breaks)))


def plt_distance(t: float, n: int, upto: int = 4) -> float:
    """Relative moment gap between the n-fold convolved t/n-coin and Poisson(t).

    The coin law is convolved exactly (atoms), its moments are compared with
    :func:`poisson_moments`, and the largest discrepancy relative
    to max(1, |Poisson moment|) is returned.  (The absolute gap of the
    fourth moment is already ~0.06 at t=1, n=500; relative is the meaningful
    normalization for moments that grow like Bell numbers.)
    """
    if n < 1:
        raise ValueError("need n >= 1")
    coin = bernoulli_law(t / n)
    law = coin
    for _ in range(n - 1):
        law = convolve(law, coin)
    pairs = zip(moments(law, upto)[1:], poisson_moments(t, upto)[1:])
    return max((abs(got - target) / max(1.0, abs(target)) for got, target in pairs), default=0.0)


def clt_moment_gap(base: Law, n: int, upto: int = 4) -> float:
    """Largest absolute moment gap between the normalized n-fold sum and its Gaussian limit.

    ``base`` must be atomic and centered; the sum is rescaled by 1/sqrt(n)
    and compared against the Gaussian of the base variance, for moments up
    to ``upto``.
    """
    if base.density is not None:
        raise ValueError("clt_moment_gap needs an atomic base law")
    if n < 1:
        raise ValueError("need n >= 1")
    _, mean, var = moments(base, 2)
    if abs(mean) > 1e-9:
        raise ValueError("base law must be centered")
    law = base
    for _ in range(n - 1):
        law = convolve(law, base)
    root = math.sqrt(n)
    scaled = Law(atoms=tuple((loc / root, mass) for loc, mass in law.atoms))
    got = moments(scaled, upto)
    gap = 0.0
    for k in range(1, upto + 1):
        gap = max(gap, abs(got[k] - gaussian_moment(var, k)))
    return gap


def cauchy_transform(moment_seq: Sequence[float], xi: complex) -> complex:
    """Truncated Cauchy transform sum_k M_k xi^-(k+1) = M(1/xi)/xi of a moment sequence.

    M is the moment polynomial, of degree len(moment_seq) - 1; the series
    only makes sense for |xi| beyond the moment growth radius.
    """
    inv = 1.0 / xi
    return Polynomial(moment_seq)(inv) * inv


def semicircle_law() -> Law:
    """Wigner semicircle on [-2, 2]: density sqrt(4 - x^2)/(2 pi)."""
    return Law(
        density=lambda x: math.sqrt(max(0.0, 4.0 - x * x)) / (2.0 * math.pi),
        support=(-2.0, 2.0),
    )


def mp_law() -> Law:
    """Marchenko-Pastur on [0, 4]: density sqrt(4/x - 1)/(2 pi)."""
    return Law(
        density=lambda x: math.sqrt(max(0.0, 4.0 / x - 1.0)) / (2.0 * math.pi)
        if x > 0
        else 0.0,
        support=(0.0, 4.0),
    )


def arcsine_law() -> Law:
    """Arcsine law on [0, 4]: density 1/(pi sqrt(x(4-x)))."""

    def density(x: float) -> float:
        inside = x * (4.0 - x)
        return 1.0 / (math.pi * math.sqrt(inside)) if inside > 0 else 0.0

    return Law(density=density, support=(0.0, 4.0))


def marcsine_law() -> Law:
    """Modified arcsine law on [-2, 2]: density sqrt((2+x)/(2-x))/(2 pi)."""

    def density(x: float) -> float:
        if not -2.0 < x < 2.0:
            return 0.0
        return math.sqrt((2.0 + x) / (2.0 - x)) / (2.0 * math.pi)

    return Law(density=density, support=(-2.0, 2.0))


def semicircle_transform(xi: complex) -> complex:
    """(xi - sqrt(xi-2) sqrt(xi+2))/2, the branch with G ~ 1/xi at infinity."""
    return (xi - cmath.sqrt(xi - 2.0) * cmath.sqrt(xi + 2.0)) / 2.0


def mp_transform(xi: complex) -> complex:
    """1/2 - sqrt(1 - 4/xi)/2."""
    return 0.5 - 0.5 * cmath.sqrt(1.0 - 4.0 / xi)


def arcsine_transform(xi: complex) -> complex:
    """1/(sqrt(xi) sqrt(xi - 4))."""
    return 1.0 / (cmath.sqrt(xi) * cmath.sqrt(xi - 4.0))


def marcsine_transform(xi: complex) -> complex:
    """(sqrt(xi+2)/sqrt(xi-2) - 1)/2."""
    return 0.5 * (cmath.sqrt(xi + 2.0) / cmath.sqrt(xi - 2.0) - 1.0)


_BUILTIN_TRANSFORMS = {
    "semicircle": semicircle_transform,
    "mp": mp_transform,
    "arcsine": arcsine_transform,
    "marcsine": marcsine_transform,
}

# the k-th moments of the builtin laws, exact: the integer sequences that
# ``moments`` approximates by quadrature of the densities
BUILTIN_MOMENTS = {
    "semicircle": lambda k: 0 if k % 2 else catalan(k // 2),
    "mp": catalan,
    "arcsine": central_binomial,
    "marcsine": middle_binomial,
}

BUILTIN_CONTINUOUS_LAWS = {
    "semicircle": semicircle_law,
    "mp": mp_law,
    "arcsine": arcsine_law,
    "marcsine": marcsine_law,
}


def stieltjes_density(
    law: str | Sequence[float], x: float, t: float
) -> float:
    """Pointwise density estimate -Im(G(x + it))/pi at height t.

    ``law`` is a builtin transform name (semicircle, mp, arcsine, marcsine)
    or a moment sequence (truncated-series transform).  The estimator is
    biased O(t) near smooth density points; the t -> 0 limit is the exact
    density, realized in tests as a convergence check, never automatically.
    """
    if not t > 0:
        raise ValueError("need t > 0")
    xi = complex(x, t)
    if isinstance(law, str):
        try:
            transform = _BUILTIN_TRANSFORMS[law]
        except KeyError:
            raise ValueError(f"unknown builtin law {law!r}") from None
        g = transform(xi)
    else:
        g = cauchy_transform(law, xi)
    return -g.imag / math.pi


def hankel_check(moment_seq: Sequence[float], depth: int) -> list[float]:
    """Determinants of the nested Hankel matrices (M_{i+j}) of sizes 1..depth.

    All must be nonnegative (within tolerance, for float moments) for a
    genuine moment sequence.  Each is ``linalg.determinant`` of the moments
    as given: rational moments (ints, Fractions) give the exact determinant,
    rounded once (``combinat._rounded``, ValueError past the float range),
    float moments numpy's LU.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    if len(moment_seq) < 2 * depth - 1:
        raise ValueError("need moments up to order 2*(depth-1)")
    out = []
    for d in range(1, depth + 1):
        value = determinant([[moment_seq[i + j] for j in range(d)] for i in range(d)])
        out.append(float(value) if isinstance(value, float) else _rounded(value, f"the Hankel determinant of size {d}"))
    return out


def orthopoly_from_moments(moment_seq: Sequence[float], k: int) -> Polynomial:
    """Monic orthogonal polynomial of degree k for the given moments.

    Built from the bordered Hankel determinant with last row (1, x, ...,
    x^k), normalized by the leading Hankel minor, every minor by
    ``linalg.determinant`` of the moments as given.  Rational moments
    (ints, Fractions) give exact minors and Fraction coefficients, and the
    leading minor is degenerate only where it is 0; a float minor is
    degenerate within 1e-12 scale^k of 0, scale the largest |M_i| in it.
    A degenerate leading minor raises ValueError.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    if len(moment_seq) < 2 * k:
        raise ValueError("need moments up to order 2k - 1")
    if k == 0:
        return Polynomial([1.0])
    rows = [[moment_seq[i + j] for j in range(k + 1)] for i in range(k)]
    lead_minor = [row[:k] for row in rows]
    delta = determinant(lead_minor)
    if isinstance(delta, float):
        delta, scale = float(delta), float(np.abs(np.array(lead_minor, dtype=float)).max()) or 1.0
        degenerate = abs(delta) <= 1e-12 * scale**k
    else:
        degenerate = delta == 0
    if degenerate:
        raise ValueError("degenerate Hankel minor: orthogonal polynomial undefined")
    coeffs = []
    for j in range(k + 1):
        cof = determinant([row[:j] + row[j + 1 :] for row in rows])
        exact = not isinstance(cof, float) and not isinstance(delta, float)
        coeffs.append(Fraction((-1) ** (k + j) * cof, delta) if exact else (-1.0) ** (k + j) * float(cof) / delta)
    return Polynomial(coeffs)


class SnFixedPointResult(Record):
    __slots__ = ("law", "exact", "samples")

    def __init__(self, law: Law, exact: bool, samples: int):
        self._set(law, exact, samples)


def sn_fixed_point_counts(N: int, t: float = 1.0) -> dict[int, int]:
    """Exact counts of permutations of {1..N} by fixed points among 1..floor(tN).

    With m = floor(tN), exactly k fixed points among the first m occur in
    D(N, m, k) = C(m, k) sum_j (-1)^j C(m-k, j) (N-k-j)! permutations
    (choose the k, then inclusion-exclusion over the other m - k), computed
    in exact integers.  Only nonzero counts are returned.  N is capped at 9,
    the limit of the exact mode of :func:`sn_fixed_point_law`.
    """
    if not 1 <= N <= 9:
        raise ValueError("exact counts are for 1 <= N <= 9")
    if not 0.0 < t <= 1.0:
        raise ValueError("need t in (0, 1]")
    m = int(t * N)
    return {k: count for k in range(m + 1) if (count := _fixed_point_count(N, m, k))}


def _fixed_point_count(N: int, m: int, k: int) -> int:
    """D(N, m, k) of :func:`sn_fixed_point_counts`: the permutations of {1..N} with k fixed points among 1..m."""
    return binom(m, k) * sum((-1) ** j * binom(m - k, j) * factorial(N - k - j) for j in range(m - k + 1))


# entries per block of sampled permutations: at most 512 KiB of int64
_SAMPLE_BLOCK_ENTRIES = 2**16


def sn_fixed_point_law(
    N: int,
    t: float = 1.0,
    rng: RandomSource | None = None,
    samples: int = 10**6,
) -> SnFixedPointResult:
    """Law of the number of fixed points among 1..floor(tN) of a random permutation.

    Exact for N <= 9, from :func:`sn_fixed_point_counts`.  Beyond that, the
    law is estimated from ``samples`` >= 1 uniform permutations drawn from an
    explicit RandomSource (then required), shuffled in row blocks of at most
    2**16 entries, row block b from substream b of the source; the blocks
    run on every CPU, and their fixed-point counts are summed as integers,
    so the same source gives the same atoms on any CPU count.  ``samples``
    past 10^7 raises ValueError before any draw; the work grows as N
    samples (1.8 s at N = 12 and 15 s at N = 100 at the cap, 2-vCPU x86).
    Both modes give Python float masses.  The result reports which mode was
    used.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if not 0.0 < t <= 1.0:
        raise ValueError("need t in (0, 1]")
    if N <= 9:
        counts = sn_fixed_point_counts(N, t)
        total = factorial(N)
        atoms = tuple(
            (float(r), counts[r] / total) for r in sorted(counts)
        )
        return SnFixedPointResult(Law(atoms=atoms), exact=True, samples=0)
    if rng is None:
        raise ValueError("sampling mode needs an explicit RandomSource")
    if samples < 1:
        raise ValueError("need samples >= 1")
    _sample_cap(samples, "sn_fixed_point_law")
    m = int(t * N)
    identity = np.tile(np.arange(N), (max(1, _SAMPLE_BLOCK_ENTRIES // N), 1))

    def block(rows: slice, gen: np.random.Generator) -> np.ndarray:
        perms = gen.permuted(identity[: rows.stop - rows.start], axis=1)
        fixed = np.count_nonzero(perms[:, :m] == identity[0, :m], axis=1)
        return np.bincount(fixed, minlength=m + 1)

    hits = np.zeros(m + 1, dtype=np.int64)
    for counts in rng.map_blocks(samples, len(identity), block):
        hits += counts
    atoms = tuple(
        (float(r), int(hits[r]) / samples) for r in range(m + 1) if hits[r] > 0
    )
    return SnFixedPointResult(Law(atoms=atoms), exact=False, samples=samples)


def derangement_probability_exact(N: int, t: float = 1.0) -> Fraction:
    """Exact P(no fixed points among 1..floor(tN)): D(N, floor(tN), 0)/N!, D of :func:`sn_fixed_point_counts`."""
    if N < 1:
        raise ValueError("need N >= 1")
    if not 0.0 < t <= 1.0:
        raise ValueError("need t in (0, 1]")
    return Fraction(_fixed_point_count(N, int(t * N), 0), factorial(N))


def graph_loop_moment(adjacency: Sequence[Sequence[int]], base: int, k: int) -> int:
    """Number of length-k loops based at ``base``: the (base, base) entry of A^k.

    The adjacency matrix must be symmetric with 0/1 integer entries; the
    power is computed in exact integer arithmetic.
    """
    A = [[int(v) for v in row] for row in adjacency]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("adjacency matrix must be square")
    if any(A[i][j] not in (0, 1) or A[i][j] != A[j][i] for i in range(n) for j in range(n)):
        raise ValueError("adjacency matrix must be symmetric 0/1")
    if not 0 <= base < n:
        raise ValueError("base vertex out of range")
    if k < 0:
        raise ValueError("need k >= 0")
    M = np.array(A, dtype=object)
    out = np.eye(n, dtype=int).astype(object)
    for _ in range(k):
        out = out @ M
    return int(out[base, base])


def su2_character_moment(k: int) -> tuple[float, float]:
    """Even moments of twice the first coordinate of the 3-sphere.

    Returns (raw, rescaled): the raw moment of a^(2k) over the unit sphere
    of R^4 (which is C_k/4^k) and its 4^k rescaling (the Catalan number,
    i.e. the even moment of the semicircle law), exact: past the float range
    (k >= 520) it is a ValueError naming k.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    raw = sphere_moment(SphereMomentKey((2 * k, 0, 0, 0)))
    return raw, _rounded(Fraction(raw), f"the rescaled moment for k = {k}", 4.0, k)


def su2_character_moment_mc(
    k: int, samples: int, rng: RandomSource
) -> tuple[float, float]:
    """Monte Carlo version of the rescaled character moment, with stderr, both rescaled exactly."""
    est, se = sphere_moment_mc(SphereMomentKey((2 * k, 0, 0, 0)), samples, rng)
    return tuple(_rounded(Fraction(v), f"the rescaled moment for k = {k}", 4.0, k) for v in (est, se))
