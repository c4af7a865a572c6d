import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from calclab import combinat
from calclab.combinat import (
    Permutation,
    bell,
    bernoulli,
    binomial,
    catalan,
    central_binomial,
    count_matching_pairings,
    count_pairings,
    factorial,
    generalized_binomial,
    middle_binomial,
    pairings,
    power_sum,
    semi_factorial,
    set_partitions,
    signature,
)

import oracles
from oracles import matching_pairings


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    # iterated-product oracle
    prod = 1
    for i in range(1, 21):
        prod *= i
    assert factorial(20) == prod == 2432902008176640000


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_semi_factorial_book_convention():
    assert semi_factorial(0) == 1
    assert semi_factorial(1) == 1  # empty product, pinned by the Wallis integral
    assert semi_factorial(6) == 5 * 3 * 1
    assert semi_factorial(7) == 6 * 4 * 2


def test_binomial_basic():
    assert binomial(3, 2) == 3
    assert all(binomial(n, 0) == 1 for n in range(10))
    assert [binomial(5, k) for k in range(6)] == [1, 5, 10, 10, 5, 1]
    assert binomial(3, 7) == 0  # documented convention


def test_pascal_rule():
    for n in range(1, 61):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_generalized_binomial():
    for k in range(8):
        assert generalized_binomial(-1.0, k) == pytest.approx((-1.0) ** k)
    assert generalized_binomial(0.5, 1) == pytest.approx(0.5)
    assert generalized_binomial(-0.5, 2) == pytest.approx(3 / 8)
    # binom(-1/2, k) = (-1/4)^k D_k
    for k in range(8):
        expected = (-0.25) ** k * central_binomial(k)
        assert generalized_binomial(-0.5, k) == pytest.approx(expected)


def test_catalan_and_binomial_sequences():
    assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    assert central_binomial(0) == 1
    assert sum(central_binomial(r) * central_binomial(3 - r) for r in range(4)) == 64
    assert [middle_binomial(k) for k in range(6)] == [1, 1, 2, 3, 6, 10]


def test_catalan_recurrence():
    for k in range(21):
        assert catalan(k + 1) == sum(catalan(a) * catalan(k - a) for a in range(k + 1))


def test_central_binomial_convolution_is_power_of_four():
    for n in range(10):
        conv = sum(central_binomial(k) * central_binomial(n - k) for k in range(n + 1))
        assert conv == 4**n


def test_bell_numbers():
    assert bell(0) == 1
    assert bell(1) == 1
    assert bell(2) == 2
    # enumeration oracle
    assert bell(3) == len(list(set_partitions(3))) == 5
    for k in range(11):
        assert bell(k) == len(list(set_partitions(k)))


def test_bell_cold_cache_is_not_recursive():
    bell.cache_clear()
    big = bell(1500)
    # Touchard's congruence B_{n+p} = B_n + B_{n+1} (mod p), at n = 1, p = 1499 (prime)
    assert big % 1499 == (bell(1) + bell(2)) % 1499
    bell.cache_clear()
    for k in range(9):
        assert bell(k) == len(list(set_partitions(k)))


def test_bernoulli_table():
    table = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        5: Fraction(0),
        6: Fraction(1, 42),
    }
    for n, value in table.items():
        assert bernoulli(n) == value


def test_bernoulli_defining_recurrence():
    # sum_{k<=m} binom(m+1, k) B_k = [m == 0]
    from math import comb

    for m in range(0, 20):
        total = sum(comb(m + 1, k) * bernoulli(k) for k in range(m + 1))
        assert total == (1 if m == 0 else 0)


def test_bernoulli_equals_the_recurrence_through_600():
    for n in range(601):
        assert bernoulli(n) == oracles.bernoulli(n), n


def test_bernoulli_out_of_order_calls_grow_one_table(monkeypatch):
    # from the initial table: a high index first, then lower ones, then past the end
    monkeypatch.setattr(combinat, "_BERNOULLI", ([1], (Fraction(1), Fraction(1, 6))))
    for n in (300, 2, 1, 0, 7, 150, 302, 304):
        assert bernoulli(n) == oracles.bernoulli(n), n
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_power_sum():
    assert power_sum(1, 100) == 5050
    assert power_sum(0, 7) == 7
    assert power_sum(2, 4) == 30
    for p in range(9):
        for N in (0, 1, 2, 3, 10, 50):
            assert power_sum(p, N) == sum(i**p for i in range(1, N + 1))


def test_signature_basics():
    assert signature(Permutation.identity(5)) == 1
    assert signature(Permutation((2, 1, 3))) == -1
    assert signature(Permutation((2, 3, 1))) == 1  # 3-cycle = two transpositions


def test_signature_multiplicative():
    rng = random.Random(7)
    perms = [Permutation(tuple(rng.sample(range(1, 9), 8))) for _ in range(40)]
    for a, b in zip(perms[::2], perms[1::2]):
        assert signature(a.compose(b)) == signature(a) * signature(b)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


def test_count_pairings():
    assert count_pairings(0) == 1
    assert count_pairings(4) == len(list(pairings(4))) == 3
    assert count_pairings(5) == 0
    for k in range(1, 11):
        assert count_pairings(2 * k) == semi_factorial(2 * k)
    # enumeration oracle up to 8 points
    for k in (2, 6, 8):
        assert count_pairings(k) == len(list(pairings(k)))


def test_count_matching_pairings():
    assert count_matching_pairings("") == 1
    assert count_matching_pairings("obob") == 2
    assert count_matching_pairings("oo") == 0
    assert count_matching_pairings("ob") == 1
    # uniform word of length 2p has p! matching pairings
    assert count_matching_pairings("ooobbb") == 6
    with pytest.raises(ValueError):
        count_matching_pairings("xy")


@given(st.text(alphabet="ob", max_size=12))
def test_count_matching_pairings_against_enumeration(word):
    assert count_matching_pairings(word) == sum(1 for _ in matching_pairings(word))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=60))
def test_power_sum_against_direct_sum(p, N):
    assert power_sum(p, N) == sum(k**p for k in range(1, N + 1))


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_binomial_symmetry(n, k):
    if k <= n:
        assert binomial(n, k) == binomial(n, n - k)


@given(st.permutations(list(range(1, 7))))
def test_signature_squares_to_identity_sign(image):
    sigma = Permutation(tuple(image))
    assert signature(sigma.compose(sigma)) == 1
