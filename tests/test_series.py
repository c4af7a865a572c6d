import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles

import calclab
from calclab.series import (
    babylonian_iterates,
    babylonian_sqrt,
    basel_sum,
    basel_sum_corrected,
    convergence_radius,
    cos_series,
    coth_series_coeff,
    eval_series,
    exp_series,
    pi_leibnitz,
    recip_sqrt_one_minus_4t,
    sin_series,
    sqrt_one_minus_4t,
    PowerSeries,
)


def long_divide_exp_series(n_terms):
    """Exact coefficients of x/(e^x - 1) by long division, as Fractions."""
    # divide 1 by (e^x - 1)/x = sum_{k>=0} x^k/(k+1)!
    denom = [Fraction(1, math.factorial(k + 1)) for k in range(n_terms)]
    out = []
    rem = [Fraction(1)] + [Fraction(0)] * (n_terms - 1)
    for k in range(n_terms):
        c = rem[k] / denom[0]
        out.append(c)
        for j in range(n_terms - k):
            rem[k + j] -= c * denom[j]
    return out


def test_eval_series_exp():
    value, bound = eval_series(exp_series(), 1.0, 30)
    assert value == pytest.approx(math.e, abs=1e-14)
    assert bound < 1e-12
    # bound covers truncation; allow a few ulps of summation roundoff
    assert abs(value - math.e) <= bound + 1e-15
    value_neg, _ = eval_series(exp_series(), -1.0, 40)
    assert value_neg == pytest.approx(1.0 / math.e, abs=1e-14)


def test_factorial_series_coefficients_past_the_float_range_of_k_factorial():
    # 1/k! rounded once: subnormal from k = 171 through 177, and then 0.0
    for k in range(200):
        want = float(Fraction(1, math.factorial(k)))
        assert exp_series().coefficient(k) == want
        assert sin_series().coefficient(k) == (0.0 if k % 2 == 0 else (-1) ** ((k - 1) // 2) * want)
        assert cos_series().coefficient(k) == (0.0 if k % 2 else (-1) ** (k // 2) * want)
    assert exp_series().coefficient(177) > 0.0 == exp_series().coefficient(178)
    for series, x in ((exp_series(), 1.0), (sin_series(), 2.0), (cos_series(), -3.0)):
        assert eval_series(series, x, 500)[0] == eval_series(series, x, 60)[0]
    # |x|^k leaves the float range here, long after the coefficients reached 0.0
    for series, x, terms in ((exp_series(), 2.0, 1017), (exp_series(), -3.0, 700), (sin_series(), 3.0, 700)):
        assert eval_series(series, x, terms) == eval_series(series, x, 200)


def test_eval_series_at_zero_gives_constant_term():
    s = PowerSeries(lambda k: float(k + 7))
    value, bound = eval_series(s, 0.0, 5)
    assert value == 7.0
    assert bound == 0.0


def test_eval_series_respects_radius():
    with pytest.raises(ValueError):
        eval_series(sqrt_one_minus_4t(), 0.3, 10)


def test_eval_series_tail_bound_is_honest_alternating():
    # Leibnitz-type series: arctan(1) coefficients
    s = PowerSeries(lambda k: ((-1.0) ** ((k - 1) // 2) / k) if k % 2 else 0.0)
    value, bound = eval_series(s, 1.0, 100)
    assert math.isfinite(bound)
    assert abs(value - math.pi / 4) <= bound


def test_convergence_radius():
    ones = [1.0] * 64
    assert convergence_radius(ones, 64) == pytest.approx(1.0)
    twos = [2.0**k for k in range(64)]
    assert convergence_radius(twos, 64) == pytest.approx(0.5, rel=1e-12)
    # 1/k! underflows to exactly 0.0 beyond k ~ 170, so a late window is all
    # zeros and the estimate must report the infinite-radius sentinel.
    inv_fact = [0.0] * 400
    acc = 1.0
    for k in range(400):
        inv_fact[k] = acc
        acc /= k + 1
    assert convergence_radius(inv_fact, 400) == math.inf
    with pytest.raises(ValueError):
        convergence_radius(ones, 4)


_TERMS = list(range(1, 300)) + [511, 1000, 1234, 4096, 4999, 10_000, 12_345, 99_999, 100_001, 250_000]


def test_pi_and_basel_give_the_numpy_routes_bits():
    # the exact sum of the same float terms, rounded once
    for n in _TERMS:
        (value, bound), (want, want_bound) = pi_leibnitz(n), oracles.pi_leibnitz(n)
        assert (value.hex(), bound) == (want.hex(), want_bound), n
        want = oracles.basel_sum(n)
        assert basel_sum(n).hex() == want.hex(), n
        lo, hi = 1.0 / (n + 1), 1.0 / n
        estimate, err = basel_sum_corrected(n)
        assert (estimate.hex(), err) == ((want + 0.5 * (lo + hi)).hex(), 0.5 * (hi - lo)), n


def test_pi_leibnitz():
    value, bound = pi_leibnitz(1)
    assert value == 4.0
    value, bound = pi_leibnitz(500)
    assert bound <= 4e-3
    assert abs(value - math.pi) <= bound
    value, _ = pi_leibnitz(200000)
    assert value == pytest.approx(math.pi, abs=1e-5)


def test_basel():
    assert basel_sum(1) == 1.0
    # integral-comparison bracket for the tail
    n = 1000
    tail = math.pi**2 / 6 - basel_sum(n)
    assert 1.0 / (n + 1) < tail < 1.0 / n
    estimate, err = basel_sum_corrected(10**6)
    assert abs(estimate - math.pi**2 / 6) < 1e-6


def test_babylonian_sqrt():
    assert babylonian_sqrt(4.0, 1e-12) == pytest.approx(2.0)
    assert babylonian_sqrt(3.0, 1e-12) == pytest.approx(1.7320508075688772)
    x = babylonian_sqrt(2.0, 1e-13)
    assert x * x == pytest.approx(2.0, abs=1e-13)
    with pytest.raises(ValueError):
        babylonian_sqrt(-1.0, 1e-6)


def test_babylonian_sqrt_returns_at_its_float_fixed_point():
    # no float x has |x^2 - 2| <= 1e-300, so the iteration stops where (x + 2/x)/2 == x
    x = babylonian_sqrt(2.0, 1e-300)
    assert abs(x * x - 2.0) > 1e-300 and x == 0.5 * (x + 2.0 / x)
    assert abs(x - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))


_BABYLONIAN_REFUSALS = """
import math
from calclab.series import babylonian_iterates, babylonian_sqrt

calls = [(babylonian_sqrt, a, tol) for a, tol in
         [(math.nan, 1e-12), (math.inf, 1e-12), (-math.inf, 1e-12), (2.0, math.nan), (2.0, 0.0), (2.0, -1.0)]]
calls += [(lambda a: next(babylonian_iterates(a)), a) for a in (math.nan, math.inf)]
for f, *args in calls:
    try:
        print("returned", f(*args))
    except ValueError as exc:
        print(exc)
"""


def test_babylonian_refuses_a_non_finite_a_and_a_tol_that_is_not_positive():
    # a child process with a timeout: a nan or infinite a once iterated nan forever
    proc = subprocess.run(
        [sys.executable, "-c", _BABYLONIAN_REFUSALS],
        env=dict(os.environ, PYTHONPATH=str(Path(calclab.__file__).resolve().parent.parent)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    sqrt_message, iterates_message = "need a finite a > 0 and tol > 0", "need a finite a > 0"
    assert proc.stdout.splitlines() == [sqrt_message] * 6 + [iterates_message] * 2


def test_babylonian_contraction():
    its = list(islice(babylonian_iterates(3.0), 12))
    # monotone decreasing once above sqrt(a)
    above = [x for x in its if x >= math.sqrt(3.0)]
    assert all(a >= b for a, b in zip(above, above[1:]))


def test_coth_series_coeff_against_long_division():
    # x/(e^x-1) = sum B_n/n! x^n gives the oracle for the 4^k B_2k/(2k)! form
    oracle = long_divide_exp_series(12)
    assert oracle[:5] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    ]
    assert coth_series_coeff(0) == 1
    for k in range(1, 6):
        assert coth_series_coeff(k) == Fraction(4**k) * oracle[2 * k]
    assert coth_series_coeff(1) == Fraction(1, 3)
    assert coth_series_coeff(2) == Fraction(-1, 45)


def test_sqrt_series():
    s = sqrt_one_minus_4t()
    assert s.coefficient(0) == 1.0
    assert s.coefficient(2) == -2.0  # -2*C_1
    value, _ = eval_series(s, 0.0, 4)
    assert value == 1.0
    # floating square-root oracle; tail at 60 terms is ~4e-9 by the
    # geometric comparison of the Catalan coefficients
    value, _ = eval_series(s, 0.2, 60)
    assert value == pytest.approx(math.sqrt(1 - 0.8), abs=1e-8)
    value, _ = eval_series(s, 0.2, 160)
    assert value == pytest.approx(math.sqrt(1 - 0.8), abs=1e-12)
    r, _ = eval_series(recip_sqrt_one_minus_4t(), 0.2, 160)
    assert r == pytest.approx(1.0 / math.sqrt(0.2), abs=1e-10)


def test_sqrt_series_square_identity():
    s = sqrt_one_minus_4t()
    for t in (-0.2, -0.1, 0.0, 0.05, 0.1, 0.15, 0.2):
        value, _ = eval_series(s, t, 200)
        assert value * value + 4 * t - 1 == pytest.approx(0.0, abs=1e-9)


def test_exp_functional_equation():
    s = exp_series()
    for x, y in [(0.5, 1.5), (-2.0, 3.0), (1.0, 1.0), (-3.0, -0.25)]:
        fx, _ = eval_series(s, x, 60)
        fy, _ = eval_series(s, y, 60)
        fxy, _ = eval_series(s, x + y, 60)
        assert fxy == pytest.approx(fx * fy, abs=1e-10 * abs(fxy))


def test_sin_cos_pythagoras():
    sin_s, cos_s = sin_series(), cos_series()
    for i in range(13):
        x = -math.pi + i * (2 * math.pi / 12)
        sx, _ = eval_series(sin_s, x, 40)
        cx, _ = eval_series(cos_s, x, 40)
        assert sx * sx + cx * cx == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["exp", "sin", "cos"]),
    st.floats(-8.0, 8.0, allow_nan=False),
    st.integers(1, 40),
)
def test_eval_series_tail_bound_covers_the_error(name, x, terms):
    make, reference = {"exp": (exp_series, math.exp), "sin": (sin_series, math.sin), "cos": (cos_series, math.cos)}[name]
    s = make()
    value, bound = eval_series(s, x, terms)
    want = reference(x)
    # the bound covers truncation only: allow the roundoff of forming and
    # summing the terms, (terms + 4) eps times the sum of their magnitudes
    magnitude = max(sum(abs(s.coefficient(k) * x**k) for k in range(terms)), abs(want))
    allowance = (terms + 4) * sys.float_info.epsilon * magnitude
    assert bound >= abs(value - want) - allowance


def test_pi_and_basel_are_within_an_ulp_of_the_exact_partial_sums():
    pi_exact = basel_exact = Fraction(0)
    for n in range(1, 1001):
        pi_exact += Fraction((-1) ** (n - 1), 2 * n - 1)
        basel_exact += Fraction(1, n * n)
        if n in _TERMS:
            value, basel = pi_leibnitz(n)[0], basel_sum(n)
            assert abs(Fraction(value) - 4 * pi_exact) <= math.ulp(value), n
            assert abs(Fraction(basel) - basel_exact) <= math.ulp(basel), n


def test_e_from_twenty_terms_is_math_e():
    assert eval_series(exp_series(), 1.0, 20)[0] == math.e


@pytest.mark.parametrize("x, terms, order", [(800.0, 200, 107), (1e10, 40, 31), (-800.0, 200, 107), (800.0, 106, 107)])
def test_eval_series_names_the_order_whose_power_overflows(x, terms, order):
    # the term itself is finite (800^107/107! is about 3e138), only x**k is not
    term = Fraction(x) ** order / math.factorial(order)
    assert abs(term) < sys.float_info.max
    with pytest.raises(ValueError, match=f"term of order {order} cannot be formed"):
        eval_series(exp_series(), x, terms)


def test_eval_series_keeps_powers_that_stay_in_range():
    # 50**k stays finite for every k whose 1/k! is nonzero, so nothing is refused or dropped
    value, _ = eval_series(exp_series(), 50.0, 200)
    exact = sum(Fraction(50) ** k / math.factorial(k) for k in range(200))
    assert abs(Fraction(value) - exact) <= 4 * math.ulp(value)
