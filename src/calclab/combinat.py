"""Exact integer and rational combinatorics.

Everything in this module is computed in exact arithmetic: counts are Python
ints (arbitrary precision), Bernoulli numbers are ``fractions.Fraction``.
These sequences feed the closed-form formulas used across the package
(Wallis integrals, sphere moments, moment laws, Faulhaber sums).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from ._record import Record

__all__ = [
    "factorial",
    "semi_factorial",
    "binomial",
    "generalized_binomial",
    "catalan",
    "central_binomial",
    "middle_binomial",
    "bell",
    "bell_numbers",
    "bernoulli",
    "power_sum",
    "Permutation",
    "signature",
    "set_partitions",
    "pairings",
    "count_pairings",
    "count_matching_pairings",
]


def factorial(n: int) -> int:
    """n! with 0! = 1."""
    if n < 0:
        raise ValueError("factorial needs n >= 0")
    return math.factorial(n)


def semi_factorial(m: int) -> int:
    """Double factorial m!! = (m-1)(m-3)(m-5)..., ending at 2 (m odd) or 1 (m even).

    This convention is shifted by one from the usual m(m-2)... double
    factorial; it is the one used by every Wallis/sphere formula here, so the
    usual convention is deliberately not provided.  Empty products (m <= 1)
    are 1; in particular 1!! = 1, which is forced by the quarter-period
    cosine integral being 1 at exponent 1.
    """
    if m < 0:
        raise ValueError("semi_factorial needs m >= 0")
    out = 1
    k = m - 1
    while k >= 2:
        out *= k
        k -= 2
    return out


def binomial(n: int, k: int) -> int:
    """Binomial coefficient; k > n gives 0 by convention."""
    if n < 0 or k < 0:
        raise ValueError("binomial needs n, k >= 0")
    if k > n:
        return 0
    return math.comb(n, k)


def _rounded(q: int | Fraction, what: str, base: float = 1.0, power: int = 0) -> float:
    """q base^power for an exact q: float(q) * base**power where both factors and the product
    are normal floats, else the exact value rounded once (int true division rounds correctly).
    Past the float range ValueError says that ``what`` leaves it."""
    try:
        x, y = float(q), base**power
        if min(abs(x), abs(y), abs(x * y)) >= 2.0**-1022 and abs(x * y) < math.inf:
            return x * y
    except OverflowError:
        pass
    try:
        return float(Fraction(q) * Fraction(base) ** power)
    except OverflowError:
        raise ValueError(f"{what} leaves the float range") from None


def _fsum(terms: list[float], what: str) -> float:
    """The exact sum of the float terms rounded once, as ``math.fsum`` gives it, also where
    fsum's partial sums overflow: then the sum of the inf and NaN terms if there are any, else
    ``_rounded`` of the exact sum.  ValueError where ``what`` adds inf to -inf or leaves the
    float range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        pass
    except ValueError:
        raise ValueError(f"{what} adds inf to -inf") from None
    special = [t for t in terms if not math.isfinite(t)]
    return _fsum(special, what) if special else _rounded(sum(map(Fraction, terms)), what)


def generalized_binomial(a: float, k: int) -> float:
    """a(a-1)...(a-k+1)/k! for finite real a and integer k >= 0.

    The exact product over k!, a ratio of integers since a float is one,
    rounded once; ValueError where the value leaves the float range.
    """
    if k < 0:
        raise ValueError("generalized_binomial needs k >= 0")
    if not math.isfinite(a):
        raise ValueError("generalized_binomial needs a finite a")
    n, d = a.as_integer_ratio()
    exact = Fraction(math.prod(n - j * d for j in range(k)), d**k * math.factorial(k))
    return _rounded(exact, f"the binomial coefficient C({a}, {k})")


def catalan(k: int) -> int:
    """Catalan number C_k = binom(2k, k)/(k+1)."""
    if k < 0:
        raise ValueError("catalan needs k >= 0")
    return math.comb(2 * k, k) // (k + 1)


def central_binomial(k: int) -> int:
    """Central binomial coefficient D_k = binom(2k, k)."""
    if k < 0:
        raise ValueError("central_binomial needs k >= 0")
    return math.comb(2 * k, k)


def middle_binomial(k: int) -> int:
    """Middle binomial coefficient E_k = binom(k, floor(k/2))."""
    if k < 0:
        raise ValueError("middle_binomial needs k >= 0")
    return math.comb(k, k // 2)


@lru_cache(maxsize=None)
def bell(k: int) -> int:
    """Number of set partitions of {1..k}, from the Bell triangle."""
    if k < 0:
        raise ValueError("bell needs k >= 0")
    return bell_numbers(k)[k]


def bell_numbers(n: int) -> list[int]:
    """The Bell numbers B_0..B_n, from one pass over the Bell triangle.

    Each row of the triangle starts with the last entry of the previous row
    and adds the entry above at every step; row k starts with B_k.  The rows
    are built iteratively, O(n^2) integer additions and no recursion.
    """
    if n < 0:
        raise ValueError("bell_numbers needs n >= 0")
    row = [1]
    out = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def _grow_bernoulli(
    column: list[int], table: tuple[Fraction, ...], m: int
) -> tuple[list[int], tuple[Fraction, ...]]:
    """Extend table = (B_0, B_2, ..., B_2j) to B_2m, with column the passes of T_j.

    The tangent numbers T_j = tan^(2j-1)(0) come from Brent and Harvey's
    recurrence ("Fast computation of Bernoulli, tangent and secant numbers",
    2013) one index at a time: T_j starts at (j-1)!, and its value after
    pass k = 2 ... j is (j-k) [T_(j-1) after pass k] + (j-k+2) [T_j after
    pass k-1].  column holds T_j after passes 1 ... j, and the column of
    T_(j+1) follows from it by O(j) products of an integer by a small one,
    without a gcd.  Then B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)).
    Returns the new column and table.
    """
    table = list(table)
    for j in range(len(column) + 1, m + 1):
        new = [(j - 1) * column[0]]
        for k in range(2, j):
            new.append((j - k) * column[k - 1] + (j - k + 2) * new[-1])
        new.append(2 * new[-1])
        column = new
        four = 4**j
        b = Fraction(2 * j * column[-1], four * (four - 1))
        table.append(b if j % 2 else -b)
    return column, tuple(table)


# the column of T_j and (B_0, B_2, ..., B_2j): replaced whole, never mutated, so a
# thread always reads a consistent pair (two racing calls may both extend it)
_BERNOULLI = ([1], (Fraction(1), Fraction(1, 6)))


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, exactly (B_1 = -1/2 convention).

    The even ones come from one memoized table that grows on demand from
    the tangent numbers, so B_0 ... B_N cost O(N^2) integer operations in
    all (:func:`_grow_bernoulli`).
    """
    global _BERNOULLI
    if n < 0:
        raise ValueError("bernoulli needs n >= 0")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    column, table = _BERNOULLI
    if n // 2 >= len(table):
        column, table = _BERNOULLI = _grow_bernoulli(column, table, n // 2)
    return table[n // 2]


def power_sum(p: int, N: int) -> int:
    """Faulhaber value 1^p + 2^p + ... + N^p, exactly, via Bernoulli numbers.

    The closed form is (1/(p+1)) sum_k (-1)^k binom(p+1, k) B_k N^{p+1-k};
    the sign factor only matters at k = 1.
    """
    if p < 0 or N < 0:
        raise ValueError("power_sum needs p, N >= 0")
    total = Fraction(0)
    for k in range(p + 1):
        term = Fraction(math.comb(p + 1, k)) * bernoulli(k) * Fraction(N) ** (p + 1 - k)
        total += -term if k % 2 else term
    total /= p + 1
    if total.denominator != 1:
        raise ArithmeticError("power sum did not reduce to an integer")
    return int(total)


class Permutation(Record):
    """A permutation of {1..N}, stored as its image tuple (sigma(1), ..., sigma(N))."""

    __slots__ = ("image",)

    def __init__(self, image: tuple[int, ...]):
        if sorted(image) != list(range(1, len(image) + 1)):
            raise ValueError("image is not a bijection of {1..N}")
        self._set(image)

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(i)) for i in range(1, self.size + 1)))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))


def signature(sigma: Permutation | Sequence[int]) -> int:
    """Sign (-1)^c of a permutation, with c the number of inversions."""
    image = sigma.image if isinstance(sigma, Permutation) else tuple(sigma)
    inversions = sum(
        1
        for i in range(len(image))
        for j in range(i + 1, len(image))
        if image[i] > image[j]
    )
    return -1 if inversions % 2 else 1


def set_partitions(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield all partitions of {1..k} as tuples of sorted blocks."""
    if k < 0:
        raise ValueError("set_partitions needs k >= 0")
    if k == 0:
        yield ()
        return
    for smaller in set_partitions(k - 1):
        for i, block in enumerate(smaller):
            yield smaller[:i] + (block + (k,),) + smaller[i + 1 :]
        yield smaller + ((k,),)


def pairings(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield all perfect pairings of {1..k}; nothing is yielded for odd k."""
    if k < 0:
        raise ValueError("pairings needs k >= 0")
    if k % 2:
        return
    yield from _pairings_of(tuple(range(1, k + 1)))


def _pairings_of(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, partner in enumerate(rest):
        for sub in _pairings_of(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + sub


def count_pairings(k: int) -> int:
    """|P_2(k)|, the number of pairings of {1..k}; 0 for odd k.

    For even k it is the double factorial (k-1)(k-3)...1, ``semi_factorial(k)``.
    """
    if k < 0:
        raise ValueError("count_pairings needs k >= 0")
    return 0 if k % 2 else semi_factorial(k)


def count_matching_pairings(word: str) -> int:
    """Number of pairings of a colored word that only pair 'o' with 'b'.

    The word is a string over {'o', 'b'}: 'o' for a plain symbol and 'b' for
    a conjugate one.  A matching pairing is a bijection from the plain
    symbols to the conjugate ones, so a word with p of each has p! of them
    and a non-uniform word (unequal counts) has none.
    """
    bad = set(word) - {"o", "b"}
    if bad:
        raise ValueError(f"colored word may only contain 'o' and 'b', got {bad}")
    p = word.count("o")
    return math.factorial(p) if 2 * p == len(word) else 0

