import decimal
import itertools
import math
import re
import threading
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import oracles
from oracles import sphere_moment_values

from calclab.cli import _INTEGRANDS
from calclab.combinat import _fsum, _rounded, semi_factorial
from calclab.quad import (
    _SPHERE_BLOCK,
    _gauss_rule,
    _legendre_rule,
    _linspace,
    _samples,
    _settle,
    SphereMomentKey,
    fresnel,
    gauss_integral,
    jacobian_spherical,
    monte_carlo,
    riemann,
    sample_complex_sphere,
    sample_real_sphere,
    simpson,
    sphere_area,
    sphere_moment,
    sphere_moment_abs,
    sphere_moment_mc,
    sphere_volume,
    sphere_volume_estimate,
    stirling,
    stirling_ratio,
    trapezoid,
    verify_fresnel,
    verify_gauss,
    wallis2,
)
from calclab.rng import RandomSource


def test_riemann_constant_exact():
    assert riemann(lambda x: 3.0, 1.0, 4.0, 17) == pytest.approx(9.0, abs=1e-12)


def test_riemann_square():
    assert riemann(lambda x: x * x, 0.0, 1.0, 1000) == pytest.approx(1 / 3, abs=1e-3)


def test_riemann_exponential():
    assert riemann(lambda x: math.exp(x), 0.0, 1.0, 20000) == pytest.approx(
        math.e - 1.0, abs=1e-4
    )


def test_riemann_rejects_bad_input():
    with pytest.raises(ValueError):
        riemann(lambda x: x, 0.0, 1.0, 0)
    for rule in (riemann, trapezoid, simpson):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                rule(lambda x: bad if x > 0.5 else x, 0.0, 1.0, 10)


@pytest.mark.parametrize(
    "interval, message",
    [
        ((0.0, math.inf), "interval must be finite"),
        ((-math.inf, 0.0), "interval must be finite"),
        ((math.nan, 1.0), "interval must be finite"),
        ((-1e308, 1e308), "length b - a overflows"),
        ((1e308, -1e308), "length b - a overflows"),
    ],
    ids=["b=inf", "a=-inf", "a=nan", "b-a=inf", "b-a=-inf"],
)
@pytest.mark.parametrize(
    "rule",
    [
        riemann,
        trapezoid,
        simpson,
        lambda f, a, b, N: monte_carlo(f, a, b, N, RandomSource(1)),
    ],
    ids=["riemann", "trapezoid", "simpson", "monte_carlo"],
)
def test_rules_reject_non_finite_intervals(rule, interval, message):
    with pytest.raises(ValueError, match=message):
        rule(math.exp, *interval, 10)


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("panels", [1, 4])
def test_gauss_rule_is_exact_to_degree_2n_minus_1(n, panels):
    a, b = -0.5, 1.25
    x, w = _gauss_rule(a, b, n, panels)
    assert len(x) == n * panels and np.all((a < x) & (x < b)) and np.all(np.diff(x) > 0)
    for k in range(2 * n):
        want = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert abs(w @ x**k - want) <= 1e-14 * max(1.0, abs(want))


def test_legendre_rule_against_40_digits():
    # Newton on the same recurrence in 45-digit decimals from each float node: 1e-16, 1e-32, 1e-64;
    # n = 128 is flux_through_sphere's default order
    with decimal.localcontext() as ctx:
        ctx.prec = 45
        for n in (*range(1, 101), 128):
            for node, weight in zip(*_legendre_rule(n)):
                z = Decimal(node)
                for _ in range(3):
                    p, prev = z, Decimal(1)
                    for j in range(2, n + 1):
                        p, prev = ((2 * j - 1) * z * p - (j - 1) * prev) / j, p
                    dp = n * (prev - z * p) / (1 - z * z)
                    z -= p / dp
                assert abs(z - Decimal(node)) <= Decimal("1e-16"), (n, node)
                assert abs(Decimal(weight) * (1 - z * z) * dp * dp / 2 - 1) <= Decimal("2e-13"), (n, node)


def test_legendre_rule_against_numpy():
    for n in range(1, 101):
        t, w = _legendre_rule(n)
        want_t, want_w = np.polynomial.legendre.leggauss(n)
        assert type(t) is tuple and type(w) is tuple and all(type(v) is float for v in t + w)
        assert np.abs(np.array(t) - want_t).max() <= 1e-15 and np.abs(np.array(w) - want_w).max() <= 1e-12
        # ascending, symmetric about 0 bit for bit, and the odd rule's middle node exactly 0
        assert list(t) == sorted(t) and t == tuple(-v for v in reversed(t)) and w == w[::-1]
        assert n % 2 == 0 or math.copysign(1.0, t[n // 2]) == 1.0 and t[n // 2] == 0.0


def test_monte_carlo():
    est, se = monte_carlo(lambda x: 2.5, 0.0, 2.0, 1000, RandomSource(1))
    assert est == pytest.approx(5.0)
    assert se == 0.0
    est, se = monte_carlo(lambda x: x * x, 0.0, 1.0, 10**5, RandomSource(2))
    assert abs(est - 1 / 3) <= 3 * se
    # identical seeds give identical results
    again = monte_carlo(lambda x: x * x, 0.0, 1.0, 10**5, RandomSource(2))
    assert again == (est, se)


def test_monte_carlo_of_one_sample_has_an_infinite_stderr():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, se = monte_carlo(lambda x: x * x, 1.0, 3.0, 1, RandomSource(4))
    x = RandomSource(4).generator().uniform(1.0, 3.0, size=1)[0]
    assert (est, se) == (2.0 * (x * x), math.inf)


def test_monte_carlo_sees_what_riemann_misses():
    # |sin(120 x)| on [0, pi]: the uniform grid of the right-endpoint rule
    # can alias the oscillation; Monte Carlo cannot
    f = lambda x: abs(math.sin(120.0 * x))
    est, se = monte_carlo(f, 0.0, math.pi, 10**4, RandomSource(3))
    assert est > 1.5  # true value is 2
    assert abs(est - 2.0) <= 4 * se


def test_riemann_and_monte_carlo_agree_on_smooth():
    f = lambda x: math.sin(x) + 0.5 * x
    r = riemann(f, 0.0, 2.0, 20000)
    m, se = monte_carlo(f, 0.0, 2.0, 10**5, RandomSource(4))
    assert abs(r - m) <= 4 * se + 1e-3


def test_gauss():
    assert gauss_integral() == pytest.approx(1.7724538509055159, abs=1e-12)
    assert verify_gauss(8.0, 10_000) < 1e-8
    # half-line is half by symmetry
    half = simpson(lambda x: math.exp(-x * x), 0.0, 8.0, 10_000)
    assert half == pytest.approx(gauss_integral() / 2, abs=1e-8)
    # scaled version integrates to sqrt(2 pi t)
    t = 2.0
    scaled = simpson(lambda x: math.exp(-x * x / (2 * t)), -40.0, 40.0, 40_000)
    assert scaled == pytest.approx(math.sqrt(2 * math.pi * t), abs=1e-7)
    with pytest.raises(ValueError):
        verify_gauss(3.0)


def test_settle_contract():
    calls = []

    def counted(value):
        def f(n):
            calls.append(n)
            return value(n)

        return f

    # an explicit n is one call
    assert _settle(counted(float), 7, 4, 64, 1e-9) == 7.0 and calls == [7]
    # None doubles from start and stops at the first value that agrees with the one before
    calls.clear()
    assert _settle(counted(lambda n: 1.0 if n >= 16 else float(n)), None, 2, 1024, 1e-9) == 1.0
    assert calls == [2, 4, 8, 16, 32]
    # the tolerance is relative to max(1, |v|): absolute below 1, relative above
    calls.clear()
    assert _settle(counted(lambda n: 1e-3 / n), None, 1, 1024, 1e-4) == 1e-3 / 16 and calls == [1, 2, 4, 8, 16]
    calls.clear()
    assert _settle(counted(lambda n: 1e9 + n), None, 1, 1024, 1e-8) == 1e9 + 2 and calls == [1, 2]
    # nothing agrees: every size up to the cap, and then a ValueError that names the tolerance,
    # the cap and the last relative change
    calls.clear()
    with pytest.raises(ValueError, match=re.escape("did not settle to 1e-09 by n = 20 (last change 0.4)")):
        _settle(counted(float), None, 3, 20, 1e-9)
    assert calls == [3, 6, 12, 20]
    # a vector agrees only when every component does
    calls.clear()
    got = _settle(counted(lambda n: (1.0, 0.0 if n >= 8 else float(n))), None, 1, 1024, 1e-9)
    assert got == (1.0, 0.0) and calls == [1, 2, 4, 8, 16]
    calls.clear()
    got = _settle(counted(lambda n: np.array([1.0, 0.5 if n >= 4 else float(n)])), None, 1, 1024, 1e-9)
    assert got.tolist() == [1.0, 0.5] and calls == [1, 2, 4, 8]
    # verify_gauss at its default settles onto sqrt(pi)
    assert verify_gauss() < 1e-14


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda f: riemann(f, 0.0, 1.0, 10**15), "the riemann rule has 1e+15 subintervals"),
        (lambda f: trapezoid(f, 0.0, 1.0, 10**6 + 1), "the trapezoid rule has 1000001 subintervals"),
        (lambda f: simpson(f, 0.0, 1.0, 10**15), "the simpson rule has 1e+15 subintervals"),
        (lambda f: _gauss_rule(0.0, 1.0, 8193), "the Gauss-Legendre rule has 8193 nodes"),
    ],
    ids=["riemann", "trapezoid", "simpson", "gauss-legendre"],
)
def test_node_counts_past_their_cap_are_refused_before_any_node(run, message):
    calls = []
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message) + ", past the cap of "):
            run(lambda x: calls.append(x) or 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < 10**5


def test_a_verify_gauss_that_does_not_settle_says_so():
    # on [-1e4, 1e4] even 10,000 Simpson intervals are 20 wide, far coarser than the Gaussian
    with pytest.raises(ValueError, match=r"did not settle to 1e-12 by n = 10000 \(last change 0\.15\); pass n"):
        verify_gauss(1e4)
    assert math.isfinite(verify_gauss(1e4, 10_000))


def test_fresnel():
    assert fresnel() == pytest.approx(0.6266570686577501, abs=1e-12)
    assert verify_fresnel(20.0, 8) < 1e-3
    with pytest.raises(ValueError):
        verify_fresnel(1.0)


def test_wallis_values():
    assert wallis2(0, 0) == pytest.approx(math.pi / 2)
    assert wallis2(2, 0) == pytest.approx(math.pi / 4)
    assert wallis2(1, 0) == pytest.approx(1.0)
    assert wallis2(1, 1) == pytest.approx(0.5)
    assert wallis2(0, 0) == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("p", range(9))
def test_wallis_against_simpson(p):
    got = wallis2(p, 0)
    quad = simpson(lambda t: math.cos(t) ** p, 0.0, math.pi / 2, 2000)
    assert got == pytest.approx(quad, abs=1e-8)


@pytest.mark.parametrize("p,q", [(p, q) for p in range(0, 9, 2) for q in range(0, 9, 3)])
def test_wallis2_against_simpson(p, q):
    got = wallis2(p, q)
    quad = simpson(lambda t: math.cos(t) ** p * math.sin(t) ** q, 0.0, math.pi / 2, 2000)
    assert got == pytest.approx(quad, abs=1e-8)


def test_sphere_volume_and_area():
    assert sphere_volume(1) == pytest.approx(2.0)
    assert sphere_volume(2) == pytest.approx(math.pi)
    assert sphere_volume(3) == pytest.approx(4 * math.pi / 3)
    assert sphere_volume(4) == pytest.approx(math.pi**2 / 2)
    for n in range(1, 12):
        assert sphere_area(n) == pytest.approx(n * sphere_volume(n), rel=1e-12)
    # log-domain path agrees with the rational path around the cutoff
    assert sphere_volume(151) == pytest.approx(
        sphere_volume(150) * sphere_volume(152) / sphere_volume(151), rel=1e-6
    )


def test_sphere_log_domain_branch_matches_the_exact_route():
    # past N = 150 both take logs; the exact Fraction route underflows from N = 453
    def exact(N, m):
        return float(Fraction(2**N, semi_factorial(m)) * Fraction(math.pi / 2) ** (N // 2))

    for N in range(151, 453):
        for got, want in ((sphere_volume(N), exact(N, N + 1)), (sphere_area(N), exact(N, N - 1))):
            assert abs(got - want) <= 1e-12 * want


def test_sphere_volume_and_area_past_150_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for N in range(151, 436):
            volume = mpmath.pi ** (mpmath.mpf(N) / 2) / mpmath.gamma(mpmath.mpf(N) / 2 + 1)
            for got, want in ((sphere_volume(N), volume), (sphere_area(N), N * volume)):
                assert abs(got - want) <= 1e-14 * want


def test_sphere_values_are_zero_from_where_they_round_to_zero():
    assert sphere_volume(452) > 0 and sphere_area(455) > 0
    assert sphere_volume(453) == sphere_area(456) == 0.0
    assert sphere_volume(10**8) == sphere_area(10**8) == 0.0  # without forming (10^8 + 1)!!


def test_sphere_volume_by_spherical_quadrature():
    # iterated spherical-coordinate integral of 1 for N = 3
    def integrand(s):
        return math.sin(s)

    shell = simpson(integrand, 0.0, math.pi, 400) * 2 * math.pi / 3  # r^2 dr -> 1/3
    assert shell == pytest.approx(sphere_volume(3), abs=1e-4)
    # N = 4: volume = (2 pi) * int r^3 dr * int sin^2 s1 ds1 * int sin s2 ds2
    v4 = (2 * math.pi) * 0.25 * wallis2(2, 0) * 2 * wallis2(1, 0) * 2
    assert v4 == pytest.approx(sphere_volume(4), abs=1e-4)


def test_stirling():
    assert stirling_ratio(10) == pytest.approx(3628800.0 / stirling(10), rel=1e-12)
    assert stirling_ratio(1) == pytest.approx(math.e / math.sqrt(2 * math.pi), rel=1e-12)
    assert abs(stirling_ratio(100) - 1.0) < 1e-3
    ratios = [stirling_ratio(n) for n in (1, 5, 10, 50, 100, 500)]
    assert all(a > b > 1.0 for a, b in zip(ratios, ratios[1:]))


def test_stirling_past_the_float_range_is_a_value_error():
    assert stirling(170) == pytest.approx(7.25e306, rel=1e-3)
    for N in (171, 10**6):
        with pytest.raises(ValueError, match=f"N = {N} leaves the float range"):
            stirling(N)


def test_sphere_volume_estimate():
    assert sphere_volume_estimate(50) / sphere_volume(50) == pytest.approx(1.0, abs=0.01)
    vals = [sphere_volume_estimate(n) for n in range(6, 30)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sphere_moment_closed_forms():
    assert sphere_moment(SphereMomentKey((2, 0, 0))) == pytest.approx(1 / 3)
    assert sphere_moment(SphereMomentKey((2, 2))) == pytest.approx(1 / 8)
    assert sphere_moment(SphereMomentKey((2, 2, 0, 0))) == pytest.approx(1 / 24)
    assert sphere_moment(SphereMomentKey((1, 0, 0))) == 0.0
    assert sphere_moment(SphereMomentKey((2, 0), field="complex")) == pytest.approx(1 / 3)
    assert sphere_moment(SphereMomentKey((0, 0), field="complex")) == pytest.approx(1.0)
    # permutation invariance
    assert sphere_moment(SphereMomentKey((4, 2, 0))) == sphere_moment(
        SphereMomentKey((0, 4, 2))
    )


def test_one_closed_form_per_quantity_keeps_every_bit():
    # an even real key's moment is its absolute moment at (2/pi)^0, and wallis2(p, 0) has the
    # bits of the double-factorial ratio p!!/(p+1)!!
    for N in range(1, 6):
        for ks in itertools.product(range(0, 9, 2), repeat=N):
            num = semi_factorial(N - 1) * math.prod(map(semi_factorial, ks))
            want = float(Fraction(num, semi_factorial(N + sum(ks) - 1)))
            assert sphere_moment(SphereMomentKey(ks)).hex() == want.hex(), ks
    for p in range(300):
        want = _rounded(Fraction(semi_factorial(p), semi_factorial(p + 1)), "", math.pi / 2.0, 1 - p % 2)
        assert wallis2(p, 0).hex() == want.hex(), p


def test_complex_moment_beta_integral_oracle():
    # |z_1|^(2k) over the complex N-sphere equals the beta integral
    # int_0^1 u^k (1-u)^(N-2) du * (N-1), since |z_1|^2 ~ Beta(1, N-1)
    for N in (2, 3, 4):
        for k in (1, 2, 3):
            oracle = (N - 1) * simpson(
                lambda u: u**k * (1 - u) ** (N - 2), 0.0, 1.0, 4000
            )
            key = SphereMomentKey((k,) + (0,) * (N - 1), field="complex")
            assert sphere_moment(key) == pytest.approx(oracle, abs=1e-8)


def test_sphere_moment_abs():
    # all-even keys reduce to the plain moment
    key = SphereMomentKey((2, 2, 0))
    assert sphere_moment_abs(key) == pytest.approx(sphere_moment(key))
    # |x| over the circle: (2/pi) * 1!!/2!! with S = [(1+1)/2] = 1
    got = sphere_moment_abs(SphereMomentKey((1, 0)))
    quad_value = (
        1.0
        / (2 * math.pi)
        * simpson(lambda t: abs(math.cos(t)), 0.0, 2 * math.pi, 4000)
    )
    assert got == pytest.approx(quad_value, abs=1e-8)
    # |x| over the 2-sphere (N=3): S = [1/2] = 0, value 1/2
    got3 = sphere_moment_abs(SphereMomentKey((1, 0, 0)))
    assert got3 == pytest.approx(0.5)


def test_sphere_moment_abs_is_rounded_once_where_it_is_subnormal():
    key = SphereMomentKey((1, 1) + (2,) * 133)  # float(ratio) * (2/pi) rounds to 1.5e-323
    exact = Fraction(semi_factorial(134) * Fraction(2.0 / math.pi), semi_factorial(402))
    assert sphere_moment_abs(key) == float(exact) == 1e-323


def test_sphere_moment_abs_mc():
    rng = RandomSource(99)
    pts = sample_real_sphere(3, 200_000, rng)
    vals = np.abs(pts[:, 0]) * np.abs(pts[:, 1])
    est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(est - sphere_moment_abs(SphereMomentKey((1, 1, 0)))) <= 4 * se


def test_sphere_moment_mc_matches_closed_form():
    for key, seed in [
        (SphereMomentKey((2, 0, 0)), 11),
        (SphereMomentKey((2, 2, 0, 0)), 12),
        (SphereMomentKey((1, 1, 0)), 13),
        (SphereMomentKey((3, 0)), 14),
        (SphereMomentKey((2, 1), field="complex"), 15),
    ]:
        est, se = sphere_moment_mc(key, 10**5, RandomSource(seed))
        assert abs(est - sphere_moment(key)) <= 4 * se + 1e-12


def _criterion06_keys():
    """The criterion-06 keys: exponents sorted descending, total <= 6 real, <= 3 complex."""
    keys = []
    for N, total, field in [(N, 6, "real") for N in range(1, 6)] + [
        (N, 3, "complex") for N in range(1, 5)
    ]:
        found = {
            tuple(sorted(combo, reverse=True))
            for combo in itertools.combinations_with_replacement(range(total + 1), N)
            if sum(combo) <= total
        }
        keys += [SphereMomentKey(k, field) for k in sorted(found)]
    return keys


_SU2_KEYS = [SphereMomentKey((2 * k, 0, 0, 0)) for k in (1, 2, 3)]
_SPHERE_MC_KEYS = _criterion06_keys() + _SU2_KEYS


def _assert_matches_whole_sample_route(key, samples, seed):
    est, se = sphere_moment_mc(key, samples, RandomSource(seed))
    values = sphere_moment_values(key, samples, RandomSource(seed))
    want_est = float(values.mean())
    want_se = float(values.std(ddof=1) / math.sqrt(samples))
    scale = float(np.abs(values).mean())
    assert abs(est - want_est) <= 1e-12 * scale
    assert se == pytest.approx(want_se, rel=1e-12)
    if max(key.exponents) <= 2:
        # the same normalization and the same multiplications: the same bits
        assert (est, se) == (want_est, want_se)


@pytest.mark.parametrize("samples", [1000, _SPHERE_BLOCK + 1])
def test_sphere_moment_mc_matches_the_whole_sample_route(samples):
    for j, key in enumerate(_SPHERE_MC_KEYS):
        _assert_matches_whole_sample_route(key, samples, 300 + j)


def test_sphere_moment_mc_matches_the_whole_sample_route_at_200k():
    # the highest key of each criterion-06 class, and the su2 keys
    last = {}
    for key in _criterion06_keys():
        last[key.dimension, key.field] = key
    for j, key in enumerate(list(last.values()) + _SU2_KEYS):
        _assert_matches_whole_sample_route(key, 200_000, 500 + j)


@pytest.mark.parametrize(
    "key",
    [
        SphereMomentKey((400,)),
        SphereMomentKey((200, 0), field="complex"),
        SphereMomentKey((150, 0, 150)),
    ],
)
def test_sphere_moment_mc_high_exponents_stay_finite(key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, se = sphere_moment_mc(key, 20_000, RandomSource(8))
    assert math.isfinite(est) and math.isfinite(se)
    assert abs(est - sphere_moment(key)) <= 5 * se + 1e-12


def test_sphere_moment_mc_draws_in_blocks():
    # the whole draw of oracles.sphere_moment_values peaks near 16 MB traced, the blocks near 4 MB
    key = SphereMomentKey((1, 1, 1, 0), field="complex")
    tracemalloc.start()
    try:
        sphere_moment_mc(key, 200_000, RandomSource(21))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


class _CountingSource:
    """A RandomSource whose block generators count the variates each method draws."""

    def __init__(self, seed):
        self.source, self.counts, self.lock = RandomSource(seed), {}, threading.Lock()

    def map_blocks(self, rows, block_rows, work):
        return self.source.map_blocks(rows, block_rows, lambda part, gen: work(part, _Counting(gen, self)))


class _Counting:
    """A generator that adds the variates each method draws to its source's counts."""

    def __init__(self, gen, source):
        self.gen, self.source = gen, source

    def __getattr__(self, name):
        def draw(*args):  # (size) or (shape, size), size an int or a tuple
            with self.source.lock:
                self.source.counts[name] = self.source.counts.get(name, 0) + int(np.prod(args[-1]))
            return getattr(self.gen, name)(*args)

        return draw


@pytest.mark.parametrize(
    "key, method",
    [
        (SphereMomentKey((2, 1, 0), field="complex"), "standard_exponential"),
        (SphereMomentKey((1, 0, 0, 0), field="complex"), "standard_exponential"),
        (SphereMomentKey((2, 1, 0)), "standard_normal"),
    ],
)
def test_sphere_moment_mc_draws_N_variates_per_point(key, method):
    # complex keys draw N exponentials per point, not 2N normals
    samples = 2 * _SPHERE_BLOCK + 5
    rng = _CountingSource(40)
    sphere_moment_mc(key, samples, rng)
    assert rng.counts == {method: samples * key.dimension}


@pytest.mark.parametrize(
    "key, normals",
    [
        (SphereMomentKey((4, 0, 0, 0)), 1),  # the su2 key for k = 2
        (SphereMomentKey((2, 2, 0, 0, 0)), 2),
    ],
)
def test_sphere_moment_mc_real_keys_draw_the_used_coordinates_and_one_chi_square(key, normals):
    samples = 2 * _SPHERE_BLOCK + 5
    rng = _CountingSource(41)
    sphere_moment_mc(key, samples, rng)
    assert rng.counts == {"standard_normal": samples * normals, "standard_gamma": samples}


def test_sphere_moment_mc_real_keys_match_closed_form_at_200k():
    keys = [k for k in _criterion06_keys() if k.field == "real"] + _SU2_KEYS
    for j, key in enumerate(keys):
        est, se = sphere_moment_mc(key, 200_000, RandomSource(800 + j))
        want = sphere_moment(key)
        if se > 0:
            assert abs(est - want) <= 5 * se, key
        else:  # the all-zero keys, and even keys at N = 1, where every x_1 is +-1
            assert est == want == 1.0, key


def test_sphere_moment_mc_keys_using_every_coordinate_take_sample_real_sphere():
    samples = _SPHERE_BLOCK + 1
    keys = [k for k in _SPHERE_MC_KEYS if k.field == "real" and all(k.exponents)]
    assert len(keys) == 28
    for j, key in enumerate(keys):
        points = sample_real_sphere(key.dimension, samples, RandomSource(900 + j))
        values = np.ones(samples)
        for i, k in enumerate(key.exponents):
            x = points[:, i]
            while k:  # the library's repeated squaring, on the whole sample at once
                if k & 1:
                    values *= x
                k >>= 1
                if k:
                    x = x * x
        want = float(values.mean()), float(values.std(ddof=1) / math.sqrt(samples))
        assert sphere_moment_mc(key, samples, RandomSource(900 + j)) == want, key


def test_sphere_moment_mc_complex_keys_match_closed_form_at_200k():
    for j, key in enumerate(k for k in _criterion06_keys() if k.field == "complex"):
        est, se = sphere_moment_mc(key, 200_000, RandomSource(700 + j))
        want = sphere_moment(key)
        if se > 0:
            assert abs(est - want) <= 5 * se, key
        else:  # the all-zero keys, and N = 1, where every point has |z_1|^2 = 1
            assert est == want == 1.0, key


def test_sphere_moment_mc_all_zero_key_draws_nothing():
    class NoDraws:
        def generator(self):
            raise AssertionError("the all-zero key drew samples")

    for key in (SphereMomentKey((0,)), SphereMomentKey((0, 0, 0), field="complex")):
        assert sphere_moment_mc(key, 1000, NoDraws()) == (1.0, 0.0)
    with pytest.raises(ValueError, match="1000 samples"):
        sphere_moment_mc(SphereMomentKey((0,)), 999, NoDraws())


@pytest.mark.parametrize("sample", [sample_real_sphere, sample_complex_sphere])
@pytest.mark.parametrize(
    "N, samples, name", [(0, 10, "N"), (-1, 10, "N"), (3, 0, "samples"), (3, -1, "samples")]
)
def test_sphere_samplers_reject_bad_arguments(sample, N, samples, name):
    with pytest.raises(ValueError, match=f"need {name} >= 1"):
        sample(N, samples, RandomSource(1))


def test_jacobians():
    assert jacobian_spherical(2, 2.0) == 2.0  # the polar Jacobian r
    assert jacobian_spherical(3, 2.0, 0.5) == pytest.approx(4.0 * math.sin(0.5))
    with pytest.raises(ValueError):
        jacobian_spherical(3, 1.0)
    with pytest.raises(ValueError):
        jacobian_spherical(2, -1.0)


def test_polar_change_of_variables_consistency():
    # integral over the unit disk of a polynomial: iterated cartesian with
    # exact chord limits vs polar coordinates weighted by the Jacobian r
    def f(x, y):
        return 1.0 + x * y + 0.5 * x * x - 0.25 * y * y * x

    n = 400

    def chord(x):
        half = math.sqrt(max(0.0, 1.0 - x * x))
        if half == 0.0:
            return 0.0
        return simpson(lambda y: f(x, y), -half, half, n)

    # outer variable substituted x = sin(u): the sqrt boundary of the chord
    # length becomes smooth, so 400 nodes converge cleanly
    cartesian = simpson(
        lambda u: chord(math.sin(u)) * math.cos(u), -math.pi / 2, math.pi / 2, n
    )

    polar = simpson(
        lambda r: r
        * simpson(
            lambda t: f(r * math.cos(t), r * math.sin(t)), 0.0, 2.0 * math.pi, n
        ),
        0.0,
        1.0,
        n,
    )

    assert cartesian == pytest.approx(polar, abs=1e-4)
    # analytic value: pi (constant term) + 0.5 * pi/4 (the x^2 term)
    assert polar == pytest.approx(math.pi + 0.5 * math.pi / 4, abs=1e-6)


# --- the 2-D contract of the one sampler ------------------------------------

_NODES = np.arange(12.0).reshape(4, 3)


def test_samples_rows_of_numbers_and_sequences():
    seen = []

    def f(v):
        seen.append(v)
        return (v[0], v[1] + v[2])

    got = _samples(f, _NODES)
    assert got.dtype == np.float64 and got.shape == (4, 2)
    assert np.array_equal(got, np.stack([_NODES[:, 0], _NODES[:, 1] + _NODES[:, 2]], axis=1))
    assert all(type(v) is np.ndarray and v.shape == (3,) and v.dtype == np.float64 for v in seen)
    scalar = _samples(lambda v: float(v.sum()), _NODES)
    assert scalar.shape == (4,) and np.array_equal(scalar, _NODES.sum(axis=1))


@pytest.mark.parametrize(
    "f, want",
    [
        (lambda v: v * 2.0, _NODES * 2.0),  # ndarray rows
        (lambda v: [v[0]], _NODES[:, :1]),  # one-element sequences keep their column
        (lambda v: (int(v[0]), 7), np.stack([_NODES[:, 0], np.full(4, 7.0)], axis=1)),  # ints
        (lambda v: int(v[1]), _NODES[:, 1]),
    ],
    ids=["ndarray-rows", "one-element", "int-rows", "int-numbers"],
)
def test_samples_converts_rows_to_float(f, want):
    got = _samples(f, _NODES)
    assert got.dtype == np.float64 and got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize(
    "f",
    [
        lambda v: (1.0,) * (1 + int(v[0]) % 2),  # ragged rows
        lambda v: 1.0 if v[0] else (1.0, 2.0),  # a sequence, then numbers
        lambda v: (1.0, 2.0) if v[0] else 1.0,  # a number, then sequences
    ],
    ids=["ragged", "sequence-then-numbers", "number-then-sequences"],
)
def test_samples_rejects_mixed_row_shapes(f):
    with pytest.raises(ValueError):
        _samples(f, _NODES)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_samples_rejects_non_finite_rows(bad):
    with pytest.raises(ValueError, match="NaN or infinite"):
        _samples(lambda v: (1.0, bad if v[0] == 6.0 else 2.0), _NODES)
    with pytest.raises(ValueError, match="NaN or infinite"):
        _samples(lambda v: bad if v[0] == 6.0 else 2.0, _NODES)


def test_samples_takes_and_returns_a_list_for_list_nodes():
    seen = []
    got = _samples(lambda t: seen.append(t) or int(t) * 2, [0.5, 1.5, 2.5])
    assert got == [0.0, 2.0, 4.0] and type(got) is list
    assert all(type(v) is float for v in got) and seen == [0.5, 1.5, 2.5]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            _samples(lambda t: bad if t > 1.0 else t, [0.5, 1.5])


@pytest.mark.parametrize("nodes", [[709.0, 711.0], np.array([709.0, 711.0]), np.array([[709.0], [711.0]])], ids=["list", "array", "rows"])
def test_samples_reads_an_overflow_of_f_as_a_non_finite_value(nodes):
    f = lambda t: math.exp(t if type(t) is float else t[0])
    with pytest.raises(ValueError, match="NaN or infinite"):
        _samples(f, nodes)
    with pytest.raises(ValueError, match="NaN or infinite"):
        trapezoid(math.exp, 709.0, 711.0, 4)


# --- the exact sum rounded once, and numpy's linspace in Python, bit for bit ---

_MIXED = np.random.default_rng(20261018)


def _mixed_magnitudes(n):
    """n values with random signs and magnitudes spread over 1e-8 .. 1e8."""
    return _MIXED.standard_normal(n) * 10.0 ** _MIXED.uniform(-8.0, 8.0, n)


@pytest.mark.parametrize(
    "sizes",
    [range(0, 301), sorted(int(n) for n in np.random.default_rng(7).integers(301, 200_001, 24))],
    ids=["0-300", "random-to-2e5"],
)
def test_pairwise_sum_is_numpy_sum(sizes):
    # the sum that replaced numpy's pairwise one: the exact sum rounded once
    for n in sizes:
        a = _mixed_magnitudes(n).tolist()
        assert _fsum(a, "the sum").hex() == oracles.exact_sum(a).hex(), n


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 128, 129, 300])
def test_pairwise_sum_of_zeros_is_numpy_sum(n):
    # as numpy's reduction from the identity +0.0 did, all -0.0 sums to +0.0
    for zero in (0.0, -0.0):
        assert _fsum([zero] * n, "the sum").hex() == oracles.exact_sum([zero] * n).hex() == "0x0.0p+0"
    a = [1e-300 if k % 2 else -1e-300 for k in range(n)]
    assert _fsum(a, "the sum").hex() == oracles.exact_sum(a).hex()


_ENDS = [
    (0.7, 3.2),
    (3.2, 0.7),
    (-0.5, 1.25),
    (1.0, 1.0),
    (-0.0, 0.0),
    (0.0, -0.0),
    (0.0, 5e-324),  # a step that rounds to 0
    (1e-310, 3e-310),
    (-1e308, 1e308),  # a span that overflows
    (1e300, 1e301),
]


@pytest.mark.parametrize("ends", _ENDS, ids=str)
def test_linspace_is_numpy_linspace(ends):
    a, b = ends
    for num in [1, 2, 3, 5, 8, 9, 100, 1001]:
        with np.errstate(invalid="ignore", over="ignore"):
            want = [float(v).hex() for v in np.linspace(a, b, num)]
        assert [v.hex() for v in _linspace(a, b, num)] == want, num


def test_linspace_is_numpy_linspace_on_random_grids():
    for _ in range(300):
        a, b = (_MIXED.standard_normal(2) * 10.0 ** _MIXED.uniform(-300.0, 300.0, 2)).tolist()
        num = int(_MIXED.integers(1, 3000))
        with np.errstate(invalid="ignore", over="ignore"):
            want = [float(v).hex() for v in np.linspace(a, b, num)]
        assert [v.hex() for v in _linspace(a, b, num)] == want, (a, b, num)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(_finite, _finite),
        # subnormal spans, where the step (b - a)/(num - 1) can round to 0
        st.tuples(st.floats(-1e-300, 1e-300), st.integers(-50, 50)).map(lambda p: (p[0], p[0] + p[1] * 5e-324)),
    ),
    st.integers(1, 500),
)
def test_linspace_is_numpy_linspace_bit_for_bit(ends, num):
    a, b = ends
    with np.errstate(invalid="ignore", over="ignore"):
        want = [float(v).hex() for v in np.linspace(a, b, num)]
    assert [v.hex() for v in _linspace(a, b, num)] == want


_SIZES = [1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1000, 2000, 4097, 10_001]


@pytest.mark.parametrize(
    "ours, numpy_route",
    [(riemann, oracles.riemann), (trapezoid, oracles.trapezoid)],
    ids=["riemann", "trapezoid"],
)
@pytest.mark.parametrize("fn", sorted(_INTEGRANDS))
def test_rules_give_the_numpy_routes_bits(ours, numpy_route, fn):
    # numpy's grids, and the exact sum of the same float terms rounded once
    f = _INTEGRANDS[fn]
    for a, b in [(0.0, 1.0), (-0.5, 1.25), (-3.0, 2.0), (1.0, 1.0), (-0.0, -0.0), (2.0, -1.0)]:
        for N in _SIZES:
            assert ours(f, a, b, N).hex() == numpy_route(f, a, b, N).hex(), (a, b, N)


@pytest.mark.parametrize(
    "rule, f, a, b, N",
    [
        (riemann, math.exp, 709.0, 709.7, 8),  # the sum of the samples overflows
        (riemann, lambda x: 1e308, 0.0, 10.0, 4),  # the sum is finite, (b - a)/N times it is not
        (trapezoid, math.exp, 700.0, 709.0, 4),  # a term overflows
        (trapezoid, lambda x: 1e308, 0.0, 1.0, 3),  # the terms are finite, their sum is not
    ],
    ids=["riemann-sum", "riemann-scaled", "trapezoid-term", "trapezoid-sum"],
)
def test_rules_past_the_float_range_name_the_rule(rule, f, a, b, N):
    with pytest.raises(ValueError, match=f"^the {rule.__name__} sum leaves the float range$"):
        rule(f, a, b, N)


class _NoDraws:
    def generator(self):
        raise AssertionError("a sampler drew before refusing its count")

    def map_blocks(self, *args):
        raise AssertionError("a sampler drew before refusing its count")


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda n: monte_carlo(math.sin, 0.0, 1.0, n, _NoDraws()), "monte_carlo"),
        (lambda n: sphere_moment_mc(SphereMomentKey((2, 0)), n, _NoDraws()), "sphere_moment_mc"),
        (lambda n: sphere_moment_mc(SphereMomentKey((1, 1), field="complex"), n, _NoDraws()), "sphere_moment_mc"),
    ],
    ids=["monte_carlo", "sphere_moment_mc-real", "sphere_moment_mc-complex"],
)
def test_a_sample_count_past_the_cap_is_refused_before_any_draw(call, what):
    # 10^15 samples asked numpy for 8 PB
    for n, shown in ((10**7 + 1, "1e+07"), (10**15, "1e+15")):
        with pytest.raises(ValueError, match=f"^{what} asks for {re.escape(shown)} samples, past the cap of 10,000,000$"):
            call(n)


@pytest.mark.parametrize("ks", [(0, 0), (3, 1), (2, 2, 2), (10, 0, 5, 1), (40, 40)])
def test_complex_sphere_moments_are_the_exact_ratio_rounded_once(ks):
    N, total = len(ks), sum(ks)
    exact = Fraction(math.factorial(N - 1) * math.prod(map(math.factorial, ks)), math.factorial(N + total - 1))
    assert sphere_moment(SphereMomentKey(ks, field="complex")).hex() == float(exact).hex()
