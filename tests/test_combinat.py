import builtins
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from calclab import combinat
from calclab.combinat import (
    _fsum,
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


@pytest.mark.parametrize(
    "a, k",
    [(0.5, 3), (-0.5, 40), (0.1, 170), (1e3, 160), (0.5, 171), (-0.5, 400), (1e3, 200), (200.0, 201), (-2.75, 600), (0.5, 3000)],
)
def test_generalized_binomial_is_the_exact_ratio_rounded_once(a, k):
    exact = math.prod(Fraction(a) - j for j in range(k)) / math.factorial(k)
    assert generalized_binomial(a, k) == float(exact)


def test_generalized_binomial_range_errors():
    assert generalized_binomial(0.5, 171) == 1.2643146293890545e-04
    with pytest.raises(ValueError, match=r"C\(1000000.0, 5000\) leaves the float range"):
        generalized_binomial(1e6, 5000)
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite a"):
            generalized_binomial(a, 3)


def _nearest(got: float, exact: Fraction) -> bool:
    """got is a float nearest to exact, and on a tie the one with an even last bit."""
    err = abs(Fraction(got) - exact)
    for n in (math.nextafter(got, math.inf), math.nextafter(got, -math.inf)):
        if math.isfinite(n) and abs(Fraction(n) - exact) < err:
            return False
        if math.isfinite(n) and abs(Fraction(n) - exact) == err and (Fraction(got) / Fraction(math.ulp(got))) % 2:
            return False
    return True


_EXACT = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.builds(lambda m, e: m * Fraction(2) ** e, st.integers(-(2**60), 2**60), st.integers(-1300, 1300)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**340)),
)


@settings(max_examples=400, deadline=None)
@given(_EXACT, st.floats(allow_nan=False, allow_infinity=False), st.integers(min_value=0, max_value=400))
@example(10**200, 10.0, 150)  # normal factors whose product overflows
@example(Fraction(2531459847840006503, 5 * 10**154), 0.006967145696488241, 80)  # ... or is subnormal
def test_rounded_is_the_float_product_where_normal_and_one_rounding_elsewhere(q, base, power):
    exact = Fraction(q) * Fraction(base) ** power
    if abs(exact) >= 2**1024 - 2**970:  # rounds to an infinity
        with pytest.raises(ValueError, match="the test quantity leaves the float range"):
            combinat._rounded(q, "the test quantity", base, power)
        return
    got = combinat._rounded(q, "the test quantity", base, power)
    try:
        x, y = float(q), base**power
        normal = min(abs(x), abs(y), abs(x * y)) >= sys.float_info.min and abs(x * y) < math.inf
    except OverflowError:
        normal = False
    if normal:
        assert got.hex() == (x * y).hex()
    else:
        assert _nearest(got, exact)


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


# --- one summation rule -------------------------------------------------------

_huge = st.builds(lambda m, s: s * m, st.floats(1e306, sys.float_info.max), st.sampled_from([1.0, -1.0]))


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20),
        # partial sums that overflow, with an exact sum in the float range or past it
        st.lists(st.one_of(_huge, st.floats(-1e300, 1e300)), max_size=12),
    )
)
@example([1e308, 1e308, -1e308])
@example([sys.float_info.max, sys.float_info.max, -sys.float_info.max, 1e292])
@example([1e308, 1e308])
def test_fsum_is_the_exact_sum_rounded_once(terms):
    exact = sum(map(Fraction, terms), Fraction(0))
    try:
        want = float(exact)
    except OverflowError:
        with pytest.raises(ValueError, match="^the sum leaves the float range$"):
            _fsum(terms, "the sum")
    else:
        assert _fsum(terms, "the sum").hex() == want.hex()


def test_fsum_past_an_intermediate_overflow_and_at_infinities():
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    assert _fsum([1e308, 1e308, -1e308], "the sum") == 1e308
    assert _fsum([1e308, 1e308, math.inf], "the sum") == math.inf
    assert _fsum([1.0, -math.inf], "the sum") == -math.inf
    assert math.isnan(_fsum([1e308, 1e308, math.nan], "the sum"))
    for terms in ([math.inf, -math.inf], [1e308, 1e308, math.inf, -math.inf]):
        with pytest.raises(ValueError, match="^the sum adds inf to -inf$"):
            _fsum(terms, "the sum")


def test_no_float_goes_through_the_builtin_sum(monkeypatch):
    from calclab import diffcalc, dynamics, linalg, prob, quad, series

    real_sum, float_sums = builtins.sum, []

    def guarded_sum(iterable, /, start=0):
        terms, caller = list(iterable), sys._getframe(1)
        if caller.f_globals["__name__"].startswith("calclab") and any(isinstance(t, float) for t in [start, *terms]):
            float_sums.append(f"{caller.f_globals['__name__']}:{caller.f_lineno}")
        return real_sum(terms, start)

    monkeypatch.setattr(builtins, "sum", guarded_sum)
    quad.riemann(math.exp, 0.0, 1.0, 10)
    quad.trapezoid(math.sin, 0.0, 1.0, 10)
    series.pi_leibnitz(10)
    series.basel_sum(10)
    series.eval_series(series.exp_series(), 1.0, 20)
    bowl = lambda v: v[0] * v[0] + v[1] * v[1]
    diffcalc.laplacian(bowl, (0.3, 0.4))
    diffcalc.derivative_1d(math.exp, 0.5, 3)
    diffcalc.taylor1d(math.exp, 0.0, 3, 0.1)
    prob.moments(prob.binomial_law(0.3, 10), 6)
    prob.clt_moment_gap(prob.Law(atoms=((-1.0, 0.5), (1.0, 0.5))), 3)
    prob.convolve(prob.semicircle_law(), prob.bernoulli_law(0.3)).density(0.5)
    dynamics.ChargeConfig(((1.5, (0.0, 0.0, 0.0)), (-0.5, (3.0, 0.0, 0.0)))).enclosed((0.0, 0.0, 0.0), 1.0)
    dynamics.green_check(lambda x, y: -y, lambda x, y: x, dynamics.disk_map(), n=8)
    disk = (lambda u, v: (u * math.cos(v), u * math.sin(v), 0.0), (0.0, 1.0), (0.0, 2 * math.pi))
    dynamics.stokes_check(lambda p: (-p[1], p[0], 0.0), disk, n=8)
    linalg.symmetric_eigen([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    assert float_sums == []
