"""Exact integer and rational combinatorics.

Everything in this module is computed in exact arithmetic: counts are Python
ints (arbitrary precision), Bernoulli numbers are ``fractions.Fraction``.
These sequences feed the closed-form formulas used across the package
(Wallis integrals, sphere moments, moment laws, Faulhaber sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

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


def generalized_binomial(a: float, k: int) -> float:
    """a(a-1)...(a-k+1)/k! for real a and integer k >= 0."""
    if k < 0:
        raise ValueError("generalized_binomial needs k >= 0")
    num = 1.0
    for j in range(k):
        num *= a - j
    return num / math.factorial(k)


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


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, exactly (B_1 = -1/2 convention).

    Computed from the recurrence sum_{k<=m} binom(m+1, k) B_k = [m == 0].
    Memoized; the cache is observably pure.
    """
    if n < 0:
        raise ValueError("bernoulli needs n >= 0")
    if n == 0:
        return Fraction(1)
    if n >= 3 and n % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    for k in range(n):
        total += math.comb(n + 1, k) * bernoulli(k)
    return -total / (n + 1)


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


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..N}, stored as its image tuple (sigma(1), ..., sigma(N))."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError("image is not a bijection of {1..N}")

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

