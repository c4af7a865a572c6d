import ast
import cmath
import inspect
import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calclab import prob
from calclab._record import _CAPS

from calclab.combinat import (
    catalan,
    central_binomial,
    count_matching_pairings,
    factorial,
    middle_binomial,
    semi_factorial,
)
from calclab.prob import (
    BUILTIN_CONTINUOUS_LAWS,
    Law,
    arcsine_law,
    arcsine_transform,
    bernoulli_law,
    binomial_law,
    cauchy_transform,
    clt_moment_gap,
    complex_gaussian_moment,
    convolve,
    derangement_probability_exact,
    gaussian_law,
    gaussian_moment,
    graph_loop_moment,
    hankel_check,
    law_fourier,
    marcsine_law,
    marcsine_transform,
    moments,
    mp_law,
    mp_transform,
    orthopoly_from_moments,
    plt_distance,
    poisson_law,
    poisson_moments,
    semicircle_law,
    semicircle_transform,
    sn_fixed_point_counts,
    sn_fixed_point_law,
    stieltjes_density,
    su2_character_moment,
    su2_character_moment_mc,
    wick,
)
from calclab.poly import Polynomial
from calclab.rng import RandomSource

from oracles import (
    gaussian_fourier,
    matching_pairings,
    poisson_fourier,
    poisson_moment as partition_poisson_moment,
    set_partitions,
    simpson_density_rule,
    touchard_moments,
)


def test_law_validation():
    with pytest.raises(ValueError):
        Law(atoms=((0.0, -0.5),))
    with pytest.raises(ValueError):
        Law(density=lambda x: 1.0)  # support missing
    assert abs(gaussian_law(1.0).total_mass() - 1.0) < 1e-9


@pytest.mark.parametrize(
    "kwargs",
    [
        {"atoms": ((math.nan, 1.0),)},
        {"atoms": ((math.inf, 1.0),)},
        {"atoms": ((0.0, math.nan),)},
        {"atoms": ((0.0, math.inf),)},
        {"density": lambda x: 1.0, "support": (0.0, math.inf)},
        {"density": lambda x: 1.0, "support": (-1e308, 1e308)},  # b - a overflows
        {"density": lambda x: 1.0, "support": (0.0, 2.0, 1.0)},  # breakpoints out of order
        {"density": lambda x: 1.0, "support": (1.0,)},
    ],
    ids=["nan-loc", "inf-loc", "nan-mass", "inf-mass", "inf-end", "long", "unsorted", "one-point"],
)
def test_law_rejects_non_finite_atoms_and_bad_breakpoints(kwargs):
    with pytest.raises(ValueError):
        Law(**kwargs)


def test_moments_split_the_density_at_its_breakpoints():
    # |x - 1/4| on [-1, 1] has a kink at 1/4; as a breakpoint it is a piece end of the rule
    calls = []

    def density(x):
        calls.append(x)
        return abs(x - 0.25)

    c = Fraction(1, 4)

    def exact(k):
        F = lambda a, b: (b ** (k + 2) - a ** (k + 2)) / (k + 2) - c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        return float(F(c, Fraction(1)) - F(Fraction(-1), c))

    got = moments(Law(density=density, support=(-1.0, 0.25, 1.0)), 8)
    assert all(abs(m - exact(k)) <= 1e-14 for k, m in enumerate(got))
    assert len(calls) <= 256


def test_moments_dirac():
    delta = Law(atoms=((1.7, 1.0),))
    assert moments(delta, 4) == pytest.approx([1.7**k for k in range(5)])


def test_moments_uniform():
    uniform = Law(density=lambda x: 1.0, support=(0.0, 1.0))
    got = moments(uniform, 6)
    assert got == pytest.approx([1.0 / (k + 1) for k in range(7)], abs=1e-10)


def test_moments_sample_the_density_once():
    calls = []

    def density(x):
        calls.append(x)
        return math.sqrt(max(0.0, 4.0 - x * x)) / (2.0 * math.pi)

    law = Law(density=density, support=(-2.0, 2.0))
    N = 400
    got = moments(law, 10, nodes=N)
    assert len(calls) == N
    assert got == pytest.approx(moments(semicircle_law(), 10, nodes=N), rel=1e-12)


_EXACT_MOMENTS = {
    "semicircle": lambda k: 0 if k % 2 else catalan(k // 2),
    "mp": catalan,
    "arcsine": central_binomial,
    "marcsine": middle_binomial,
}


@pytest.mark.parametrize("name", sorted(BUILTIN_CONTINUOUS_LAWS))
def test_builtin_law_moments_are_exact_from_few_samples(name):
    law = BUILTIN_CONTINUOUS_LAWS[name]()
    calls = []

    def density(x):
        calls.append(x)
        return law.density(x)

    got = moments(Law(density=density, support=law.support), 10)
    assert len(calls) <= 256
    for k, m in enumerate(got):
        want = _EXACT_MOMENTS[name](k)
        assert abs(m - want) <= 1e-13 * max(1, want)


@pytest.mark.parametrize("name", sorted(BUILTIN_CONTINUOUS_LAWS))
def test_moments_match_the_simpson_density_rule(name):
    law = BUILTIN_CONTINUOUS_LAWS[name]()
    x, w = simpson_density_rule(law)
    want = w @ np.power.outer(x, np.arange(11))
    for got, m in zip(moments(law, 10), want.tolist()):
        assert abs(got - m) <= 1e-12 * max(1.0, abs(m))


@pytest.mark.parametrize(
    "density, support, exact",
    [
        (lambda x: 1.0, (0.0, 1.0), lambda k: 1 / (k + 1)),
        (lambda x: 2.0 * x, (0.0, 1.0), lambda k: 2 / (k + 2)),
        (lambda x: 0.75 * (1.0 - x * x), (-1.0, 1.0), lambda k: 0 if k % 2 else 3 / ((k + 1) * (k + 3))),
    ],
    ids=["uniform", "linear", "parabolic"],
)
def test_moments_of_densities_that_do_not_vanish_like_a_square_root(density, support, exact):
    # a rule in u must stay exponentially accurate when the u-integrand's ends
    # are not those of a square-root density (a midpoint rule is only O(n^-2) here)
    got = moments(Law(density=density, support=support), 10)
    assert max(abs(m - exact(k)) for k, m in enumerate(got)) <= 1e-14


@pytest.mark.parametrize("y", [0.5, 3.0, 10.0, 40.0])
def test_semicircle_fourier_matches_its_moment_series(y):
    # E exp(iyX) = sum_k (iy)^k M_k / k!, with M_2m = Catalan(m) and odd M_k = 0,
    # summed exactly; the tail past k = 400 is below 1e-100 for y <= 40
    y2 = Fraction(y) ** 2
    series = sum(Fraction((-1) ** m * catalan(m)) * y2**m / factorial(2 * m) for m in range(200))
    assert abs(law_fourier(semicircle_law(), y) - float(series)) <= 1e-14


def test_a_density_that_does_not_settle_says_so():
    # 1 + sin(2 pi 20000 x^2)/2 oscillates 20,000 times on [0, 1]: no two rule sizes up to 8,192 agree
    law = Law(density=lambda x: 1.0 + 0.5 * math.sin(2.0 * math.pi * 20000.0 * x * x), support=(0.0, 1.0))
    for call in (lambda: moments(law, 2), lambda: law_fourier(law, 1.0), law.total_mass):
        with pytest.raises(ValueError, match=r"did not settle to 1e-12 by n = 8192 \(last change .*\); pass n"):
            call()
    assert all(map(math.isfinite, moments(law, 2, 4096)))


@pytest.mark.parametrize("law", [semicircle_law(), bernoulli_law(0.3)])
@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_law_fourier_rejects_a_non_finite_y(law, y):
    with pytest.raises(ValueError, match="y"):
        law_fourier(law, y)


@pytest.mark.parametrize("nodes", [0, -3])
def test_a_rule_of_fewer_than_one_node_is_refused(nodes):
    # the rule took 8 nodes: the semicircle's M_2 came back as 1.0000037696
    for law in (semicircle_law(), bernoulli_law(0.3)):
        for call in (lambda: moments(law, 2, nodes), lambda: law_fourier(law, 1.0, nodes), lambda: law.total_mass(nodes)):
            with pytest.raises(ValueError, match="^need nodes >= 1$"):
                call()


def test_density_rule_rejects_non_finite_density():
    law = Law(density=lambda x: math.nan if x > 0.5 else 0.5, support=(-1.0, 1.0))
    with pytest.raises(ValueError):
        moments(law, 2)
    with pytest.raises(ValueError):
        law.total_mass()
    with pytest.raises(ValueError):
        law_fourier(law, 1.0)


def test_builtin_law_moment_sequences():
    # combinatorial moment sequences of the four continuous laws
    semi = moments(semicircle_law(), 6)
    assert semi == pytest.approx([1, 0, 1, 0, 2, 0, 5], abs=1e-6)
    mp = moments(mp_law(), 6)
    assert mp == pytest.approx([catalan(k) for k in range(7)], abs=1e-6)
    arc = moments(arcsine_law(), 6)
    assert arc == pytest.approx([central_binomial(k) for k in range(7)], abs=1e-6)
    marc = moments(marcsine_law(), 6)
    assert marc == pytest.approx([middle_binomial(k) for k in range(7)], abs=1e-6)


def test_bernoulli_binomial():
    assert bernoulli_law(0.0).atoms[1][1] == 0.0  # delta_0
    law = binomial_law(0.3, 10)
    # (mean, variance) = (nx, nx(1-x))
    m = moments(law, 2)
    assert m[1] == pytest.approx(3.0, abs=1e-12)
    assert m[2] - m[1] ** 2 == pytest.approx(2.1, abs=1e-12)
    with pytest.raises(ValueError):
        binomial_law(1.5, 3)


@pytest.mark.parametrize("x, n", [(0.0005, 2000), (0.3, 2000), (0.3, 10**5)])
def test_binomial_law_past_the_float_range_of_the_binomials(x, n):
    law = binomial_law(x, n)
    assert abs(math.fsum(m for _, m in law.atoms) - 1.0) <= 1e-12
    m = moments(law, 2)
    assert m[1] == pytest.approx(n * x, rel=1e-12)
    assert m[2] == pytest.approx(n * x * (1.0 - x) + (n * x) ** 2, rel=1e-12)


def test_poisson_law_and_moments():
    t = 1.5
    law = poisson_law(t)
    assert abs(law.total_mass() - 1.0) < 1e-11
    assert poisson_moments(t, 2)[1:] == pytest.approx([t, t + t * t])
    assert poisson_fourier(t, 0.0) == pytest.approx(1.0)
    for y in (0.0, 0.7, -2.5):
        assert abs(law_fourier(law, y) - poisson_fourier(t, y)) <= 1e-11
    with pytest.raises(ValueError):
        poisson_law(-1.0)
    with pytest.raises(ValueError):
        poisson_law(1.0, residual=0.0)


@pytest.mark.parametrize("t", [0.5, 30.5, 800.0, 5000.0])
def test_poisson_law_large_t(t):
    # e^-t underflows beyond t ~ 745; the law must still come out whole
    residual = 1e-12
    atoms = poisson_law(t, residual).atoms
    total = sum(mass for _, mass in atoms)
    assert abs(total - 1.0) <= residual
    assert sum(loc * mass for loc, mass in atoms) == pytest.approx(t, rel=1e-10)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_poisson_partition_vs_atom_moments(t):
    # the default 1e-12 residual truncation biases order-8 moments at the
    # ~1e-7 relative level; a tighter truncation meets 1e-8
    law = poisson_law(t, residual=1e-20)
    atom = moments(law, 8)
    pms = poisson_moments(t, 8)
    for k in range(9):
        assert abs(pms[k] - atom[k]) <= 1e-8 * max(1.0, pms[k])
    default_atom = moments(poisson_law(t), 8)
    assert abs(pms[8] - default_atom[8]) <= 1e-6 * pms[8]


@pytest.mark.parametrize("t", [0.5, 1.0, 1.5, 2.0, 7.5])
def test_poisson_moment_recurrence_is_the_partition_sum(t):
    pms = poisson_moments(t, 10)
    for k in range(11):
        want = partition_poisson_moment(t, k)
        assert abs(pms[k] - want) <= 1e-13 * want


def test_poisson_moment_is_within_an_ulp_of_the_exact_partition_sum():
    # at t = 0.3 the float partition sum drifts (3.8e-13 relative at k = 9); the recurrence does not
    pms = poisson_moments(0.3, 10)
    for k in range(11):
        exact = sum(n * Fraction(0.3) ** b for b, n in Counter(map(len, set_partitions(k))).items())
        assert abs(Fraction(pms[k]) - exact) <= Fraction(math.ulp(float(exact)))


def test_poisson_moments_past_the_partition_cap_and_the_float_range():
    # orders past 12 were refused; at t = 1 they are the Bell numbers up to the float range
    from calclab.combinat import bell

    got = poisson_moments(1.0, 218)
    assert all(abs(m - bell(k)) <= 1e-13 * bell(k) for k, m in enumerate(got))
    with pytest.raises(ValueError, match="order 219"):
        poisson_moments(1.0, 300)
    with pytest.raises(ValueError):
        poisson_moments(1.0, -1)


@pytest.mark.parametrize(
    "t, upto, orders",
    [(0.3, 234, range(235)), (0.01, 270, range(271)), (1e-300, 1100, [1030, 1031, 1032, 1100])],
)
def test_poisson_moments_whose_float_step_overflows_are_summed_exactly(t, upto, orders):
    # the float step overflows on the sum M_{j+1}/t (t < 1) or, past j = 1,030, on a binomial C(j, i)
    got = poisson_moments(t, upto)
    want = touchard_moments(t, set(orders))
    assert all(abs(got[k] - want[k]) <= 1e-13 * want[k] for k in orders)


@pytest.mark.parametrize("t, order", [(0.3, 235), (0.01, 271)])
def test_poisson_moments_raise_at_the_first_order_past_the_float_range(t, order):
    with pytest.raises(ValueError, match=f"order {order} leaves"):
        poisson_moments(t, order)


def test_poisson_moments_are_bell_numbers_at_t1():
    # M_k(p_1) = Bell_k
    from calclab.combinat import bell

    for k, m in enumerate(poisson_moments(1.0, 8)):
        assert m == pytest.approx(bell(k))


def test_gaussian():
    t = 1.3
    law = gaussian_law(t)
    m = moments(law, 4)
    assert m[2] == pytest.approx(t, abs=1e-9)
    assert m[1] == pytest.approx(0.0, abs=1e-12)
    assert m[3] == pytest.approx(0.0, abs=1e-10)
    assert gaussian_moment(t, 2) == pytest.approx(t)
    assert gaussian_moment(1.0, 4) == pytest.approx(3.0)
    assert gaussian_moment(t, 5) == 0.0
    # quadrature oracle for M4
    assert m[4] == pytest.approx(gaussian_moment(t, 4), rel=1e-8)
    assert gaussian_fourier(2.0, 0.5) == pytest.approx(math.exp(-0.25))
    for y in (0.0, 0.5, -1.7):
        assert abs(law_fourier(law, y) - gaussian_fourier(t, y)) <= 1e-11


def test_complex_gaussian_moment():
    assert complex_gaussian_moment(1.0, "") == 1.0
    assert complex_gaussian_moment(1.0, "ob") == pytest.approx(1.0)
    assert complex_gaussian_moment(1.0, "oo") == 0.0
    assert complex_gaussian_moment(2.0, "obob") == pytest.approx(2.0**2 * 2)
    # uniform word of length 2p gives t^p p!
    assert complex_gaussian_moment(0.5, "ooobbb") == pytest.approx(0.5**3 * 6)
    assert complex_gaussian_moment(1.0, "obb") == 0.0
    # colors are checked before the odd-length shortcut, as in wick
    for word in ("x", "obx", "xy"):
        with pytest.raises(ValueError):
            complex_gaussian_moment(1.0, word)


def test_wick():
    t = 1.7
    assert wick(t, [(3, "o"), (3, "b")]) == pytest.approx(t)
    assert wick(t, [(3, "o"), (4, "b")]) == 0.0
    assert wick(t, [(1, "o"), (1, "b"), (1, "o"), (1, "b")]) == pytest.approx(2 * t * t)
    assert wick(t, []) == 1.0
    assert wick(t, [(1, "o")]) == 0.0
    # all indices equal reduces to the single-variable colored moment
    for word in ("ob", "obob", "oobb", "obbo"):
        factors = [(7, c) for c in word]
        assert wick(t, factors) == pytest.approx(complex_gaussian_moment(t, word))
    with pytest.raises(ValueError):
        wick(t, [(1, "o"), (1, "x")])


def test_tiny_t_moments_are_the_exact_value_rounded_once():
    # the float factors overflow (799!! and 170! past 1e308) or underflow (1e-3^170)
    want = Fraction(semi_factorial(800)) * Fraction(0.01) ** 400
    assert gaussian_moment(0.01, 800) == float(want) == 4.663068490054487e187
    want = Fraction(math.factorial(170)) * Fraction(1e-3) ** 170
    assert complex_gaussian_moment(1e-3, "ob" * 170) == float(want) == 7.257415615308024e-204
    assert wick(1e-3, [(0, "o"), (0, "b")] * 170) == float(want)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: gaussian_moment(t, 2),
        lambda t: complex_gaussian_moment(t, "ob"),
        lambda t: wick(t, [(0, "o"), (0, "b")]),
        lambda t: poisson_moments(t, 3),
        lambda t: gaussian_fourier(t, 1.0),
        lambda t: poisson_fourier(t, 1.0),
    ],
    ids=["gaussian_moment", "complex_gaussian_moment", "wick", "poisson_moments", "gaussian_fourier", "poisson_fourier"],
)
def test_a_nan_t_is_rejected(call):
    with pytest.raises(ValueError, match=r"need t > 0"):
        call(math.nan)


def test_the_first_moment_past_the_float_range_names_its_order():
    assert math.isfinite(gaussian_moment(1.0, 300))
    with pytest.raises(ValueError, match="the Gaussian moment of order 302 leaves the float range"):
        gaussian_moment(1.0, 302)
    assert math.isfinite(complex_gaussian_moment(1.0, "ob" * 170))
    with pytest.raises(ValueError, match="the complex Gaussian moment of order 171 leaves the float range"):
        complex_gaussian_moment(1.0, "ob" * 171)
    with pytest.raises(ValueError, match="the Wick moment of 342 factors leaves the float range"):
        wick(1.0, [(0, "o"), (0, "b")] * 171)


@given(
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from("ob")), max_size=12),
    st.floats(0.25, 4.0),
)
def test_wick_against_enumeration(factors, t):
    word = "".join(color for _, color in factors)
    idx = [i for i, _ in factors]
    compatible = sum(
        1 for pairing in matching_pairings(word) if all(idx[a] == idx[b] for a, b in pairing)
    )
    assert wick(t, factors) == t ** (len(factors) // 2) * compatible


def test_convolve_atoms():
    a = Law(atoms=((1.0, 1.0),))
    b = Law(atoms=((2.5, 1.0),))
    c = convolve(a, b)
    assert c.atoms == ((3.5, 1.0),)
    assert c.density is None


def test_convolve_gaussian_semigroup():
    s, t = 1.0, 2.0
    c = convolve(gaussian_law(s), gaussian_law(t))
    got = moments(c, 4)
    expected = [gaussian_moment(s + t, k) if k % 2 == 0 else 0.0 for k in range(5)]
    assert got == pytest.approx(expected, abs=1e-6)


def test_convolve_poisson_semigroup():
    c = convolve(poisson_law(0.5), poisson_law(1.5))
    got = moments(c, 4)
    expected = moments(poisson_law(2.0), 4)
    assert got == pytest.approx(expected, abs=1e-6)


def test_convolve_mixed_atom_density():
    mix = convolve(gaussian_law(1.0), bernoulli_law(0.5))
    m = moments(mix, 2)
    # mean 1/2, variance 1 + 1/4
    assert m[1] == pytest.approx(0.5, abs=1e-8)
    assert m[2] - m[1] ** 2 == pytest.approx(1.25, abs=1e-8)


def _normal_density(x, var=1.0):
    return math.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def test_convolve_two_laws_with_atoms_and_densities():
    # X = 1/2 delta_2 + 1/2 N(0,1): X + X' = 1/4 delta_4 + 1/2 (2 + N(0,1)) + 1/4 N(0,2),
    # so the sum has both shifted copies and the convolution of the densities
    g = gaussian_law(1.0)
    X = Law(atoms=((2.0, 0.5),), density=lambda x: 0.5 * g.density(x), support=g.support)
    c = convolve(X, X)
    assert c.atoms == ((4.0, 0.25),)
    mx = [0.5 * 2.0**k + 0.5 * gaussian_moment(1.0, k) for k in range(5)]
    exact = [sum(math.comb(k, j) * mx[j] * mx[k - j] for j in range(k + 1)) for k in range(5)]
    assert moments(c, 4) == pytest.approx(exact, abs=1e-6)
    assert abs(c.total_mass() - 1.0) <= 1e-9
    # the density-density part carries weight 1/4 here; the bound dates from a
    # grid convolution whose masses rippled by up to 6.2e-5 of N(0,2) at x = 0
    for x in np.linspace(-6.0, 10.0, 81):
        closed = 0.5 * _normal_density(x - 2.0) + 0.25 * _normal_density(x, 2.0)
        assert abs(c.density(float(x)) - closed) <= 2e-5


def test_convolve_pointwise_density_of_one_part():
    def semicircle(x):
        return math.sqrt(max(0.0, 4.0 - x * x)) / (2.0 * math.pi)

    shifted = convolve(bernoulli_law(0.3), semicircle_law())  # shifted copies only
    for x in np.linspace(-3.0, 4.0, 71):
        closed = 0.7 * semicircle(x) + 0.3 * semicircle(x - 1.0)
        assert abs(shifted.density(float(x)) - closed) <= 1e-15
    # outside every part's support the density is the float 0.0
    assert type(shifted.density(10.0)) is float and shifted.density(10.0) == 0.0
    gridded = convolve(gaussian_law(1.0), gaussian_law(1.0))  # density-density part only
    for x in np.linspace(-8.0, 8.0, 81):
        assert abs(gridded.density(float(x)) - _normal_density(x, 2.0)) <= 1e-4


_CONVOLUTION_FACTORS = {
    **{name: (BUILTIN_CONTINUOUS_LAWS[name], _EXACT_MOMENTS[name]) for name in BUILTIN_CONTINUOUS_LAWS},
    "gauss": (lambda: gaussian_law(1.0), lambda k: gaussian_moment(1.0, k)),
}


@pytest.mark.parametrize(
    "a, b", list(itertools.combinations_with_replacement(sorted(_CONVOLUTION_FACTORS), 2))
)
def test_convolved_density_moments_are_the_binomial_convolution(a, b):
    # M_k(X + Y) = sum_j C(k, j) M_j(X) M_{k-j}(Y), from the exact moments of each factor
    (law_a, exact_a), (law_b, exact_b) = _CONVOLUTION_FACTORS[a], _CONVOLUTION_FACTORS[b]
    got = moments(convolve(law_a(), law_b()), 10)
    for k, m in enumerate(got):
        want = sum(math.comb(k, j) * exact_a(j) * exact_b(k - j) for j in range(k + 1))
        assert abs(m - want) <= 1e-11 * max(1, abs(want))


def test_convolved_gaussians_have_the_pointwise_gaussian_density():
    c = convolve(gaussian_law(1.0), gaussian_law(1.0))
    for x in np.linspace(-6.0, 6.0, 81):
        assert abs(c.density(float(x)) - _normal_density(x, 2.0)) <= 1e-12


def test_nested_density_convolution_is_the_gaussian_of_the_summed_variance():
    # N(0,1) * N(0,1) enters the second product through its pointwise density
    c = convolve(convolve(gaussian_law(1.0), gaussian_law(1.0)), gaussian_law(1.0))
    for k, m in enumerate(moments(c, 4)):
        want = gaussian_moment(3.0, k)
        assert abs(m - want) <= 1e-10 * max(1, want)
    for x in (-3.0, 0.0, 2.0):
        assert abs(c.density(x) - _normal_density(x, 3.0)) <= 1e-10


def test_density_of_a_convolution_with_a_shifted_factor_splits_at_its_kinks():
    # (0.7 s(.) + 0.3 s(. - 1)) * s = 0.7 (s*s)(.) + 0.3 (s*s)(. - 1); the factor
    # has square-root ends at -2, -1, 2 and 3 inside the overlap window
    s = semicircle_law()
    ss = convolve(s, s)
    c = convolve(convolve(bernoulli_law(0.3), s), s)
    for t in (0.0, 0.5, 2.0):
        assert abs(c.density(t) - (0.7 * ss.density(t) + 0.3 * ss.density(t - 1.0))) <= 1e-12


def _binomial_convolution(upto, *factors):
    out = [factors[0](k) for k in range(upto + 1)]
    for f in factors[1:]:
        out = [sum(math.comb(k, j) * out[j] * f(k - j) for j in range(k + 1)) for k in range(upto + 1)]
    return out


@pytest.mark.parametrize("coin", [False, True], ids=["s*s*s", "((b*s)*s)*s"])
def test_nested_convolutions_keep_their_breakpoints(coin):
    # each level enters the next by its pointwise density, split at its breakpoints
    # (the sums of its factors'), so the square-root kinks inside are piece ends
    s, semicircle = semicircle_law(), _EXACT_MOMENTS["semicircle"]
    law, factors = s, [semicircle] * 3
    if coin:
        law, factors = convolve(bernoulli_law(0.3), s), [lambda k: 1.0 if k == 0 else 0.3, *factors]
    law = convolve(convolve(law, s), s)
    want = _binomial_convolution(6, *factors)
    for m, w in zip(moments(law, 6), want):
        assert abs(m - w) <= 1e-12 * max(1, abs(w))


def test_a_density_product_nested_below_atoms_enters_by_its_pointwise_density():
    # ((N * N) * B(1/2)) * N = N(0, 3) + B(1/2); the inner product part sits below atoms
    n = lambda: gaussian_law(1.0)
    law = convolve(convolve(convolve(n(), n()), bernoulli_law(0.5)), n())
    assert len(prob._density_rule(law, 64)[0]) <= 32_768
    want = _binomial_convolution(4, lambda k: gaussian_moment(3.0, k), lambda k: 1.0 if k == 0 else 0.5)
    for m, w in zip(moments(law, 4), want):
        assert abs(m - w) <= 1e-11 * max(1, abs(w))


def test_density_convolution_samples_each_factor_at_most_1024_times():
    # each factor of the product rule is capped at 256 nodes, so the doubling
    # loop samples 16 + 32 + ... + 256 + 256 = 752 times before the sums repeat
    g = gaussian_law(1.0)
    calls = {"a": 0, "b": 0}

    def counted(name):
        def density(x):
            calls[name] += 1
            return g.density(x)

        return Law(density=density, support=g.support)

    moments(convolve(counted("a"), counted("b")), 10)
    assert 0 < calls["a"] <= 1024 and 0 < calls["b"] <= 1024


_BUILTIN_LAWS = st.one_of(
    st.floats(0.0, 1.0).map(bernoulli_law),
    st.builds(binomial_law, st.floats(0.0, 1.0), st.integers(1, 8)),
    st.floats(0.1, 4.0).map(poisson_law),
    st.floats(0.1, 4.0).map(gaussian_law),
    st.sampled_from([semicircle_law, mp_law, arcsine_law, marcsine_law]).map(lambda law: law()),
)


@settings(max_examples=15, deadline=None)
@given(_BUILTIN_LAWS, _BUILTIN_LAWS)
def test_convolve_keeps_total_mass(a, b):
    assert abs(convolve(a, b).total_mass() - 1.0) <= 1e-9


def test_fourier_linearizes_convolution():
    a = binomial_law(0.4, 3)
    b = bernoulli_law(0.7)
    c = convolve(a, b)
    for y in (0.1, 0.9, 2.3):
        lhs = law_fourier(c, y)
        rhs = law_fourier(a, y) * law_fourier(b, y)
        assert abs(lhs - rhs) < 1e-8


def test_plt():
    # n-fold convolved biased coin approaches the Poisson law in moments
    gap = plt_distance(1.0, 500, upto=4)
    assert gap <= 0.02
    assert plt_distance(1.0, 2000, upto=4) < gap


def test_clt_moment_gap():
    coin = Law(atoms=((-1.0, 0.5), (1.0, 0.5)))
    assert clt_moment_gap(coin, 1, upto=2) == pytest.approx(0.0, abs=1e-14)
    # fourth moment of the normalized coin sum is 3 - 2/n exactly
    for n in (10, 50, 100):
        assert clt_moment_gap(coin, n, upto=4) == pytest.approx(2.0 / n, abs=1e-12)
    gaps = [clt_moment_gap(coin, n, upto=4) for n in (10, 20, 40, 80)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    with pytest.raises(ValueError):
        clt_moment_gap(Law(atoms=((1.0, 1.0),)), 3)  # not centered


def test_cauchy_transform_series():
    # leading behavior 1/xi
    xi = 50.0 + 3.0j
    val = cauchy_transform([1.0, 0.0, 1.0, 0.0, 2.0], xi)
    assert abs(val - 1.0 / xi) < 1e-3
    # semicircle series vs closed form at a comfortably large point
    ms = [1.0 if k == 0 else (0.0 if k % 2 else float(catalan(k // 2))) for k in range(40)]
    xi = 3.0 + 0.5j
    assert abs(cauchy_transform(ms, xi) - semicircle_transform(xi)) < 1e-6


def test_closed_transforms():
    assert semicircle_transform(3.0 + 0j) == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0)
    # Marchenko-Pastur series identity
    ms = [float(catalan(k)) for k in range(40)]
    xi = 9.0 + 1.0j
    assert abs(cauchy_transform(ms, xi) - mp_transform(xi)) < 1e-8
    # arcsine series identity
    ds = [float(central_binomial(k)) for k in range(60)]
    xi = 9.0 + 1.0j
    assert abs(cauchy_transform(ds, xi) - arcsine_transform(xi)) < 1e-6
    # modified arcsine series identity
    es = [float(middle_binomial(k)) for k in range(60)]
    xi = 5.0 + 1.0j
    assert abs(cauchy_transform(es, xi) - marcsine_transform(xi)) < 1e-8


def test_stieltjes_density_semicircle():
    for x in (0.0, 1.0, -1.0):
        target = math.sqrt(4.0 - x * x) / (2.0 * math.pi)
        assert stieltjes_density("semicircle", x, 1e-3) == pytest.approx(target, abs=1e-2)
    assert stieltjes_density("semicircle", 3.0, 1e-4) == pytest.approx(0.0, abs=1e-3)


def test_mp_and_marcsine_densities_vanish_off_their_supports():
    # where the density formula divides by zero or takes a negative root, the density is 0.0, and
    # the Stieltjes inversion of the law's transform (an independent route) is ~0 at height 1e-9
    mp, marc = mp_law().density, marcsine_law().density
    for x in (0.0, -1e-300, -0.5, -1.0, -math.inf):
        assert mp(x) == 0.0
    for x in (-2.0, 2.0, -3.0, 2.5, 3.0, math.inf):
        assert marc(x) == 0.0
    for law, x in [("mp", -0.5), ("mp", -1.0), ("marcsine", -3.0), ("marcsine", 2.5), ("marcsine", 3.0)]:
        assert 0.0 <= stieltjes_density(law, x, 1e-9) < 1e-9


def test_stieltjes_density_other_laws():
    assert stieltjes_density("mp", 1.0, 1e-3) == pytest.approx(
        math.sqrt(3.0) / (2.0 * math.pi), abs=1e-2
    )
    assert stieltjes_density("mp", 2.0, 1e-3) == pytest.approx(
        mp_law().density(2.0), abs=1e-2
    )
    assert stieltjes_density("arcsine", 2.0, 1e-3) == pytest.approx(
        1.0 / (2.0 * math.pi), abs=1e-2
    )
    assert stieltjes_density("arcsine", 1.0, 1e-3) == pytest.approx(
        arcsine_law().density(1.0), abs=1e-2
    )
    assert stieltjes_density("marcsine", 1.0, 1e-3) == pytest.approx(
        marcsine_law().density(1.0), abs=1e-2
    )
    with pytest.raises(ValueError):
        stieltjes_density("nope", 0.0, 1e-3)


def test_stieltjes_halving_t_improves():
    target = 1.0 / math.pi
    e1 = abs(stieltjes_density("semicircle", 0.0, 1e-3) - target)
    e2 = abs(stieltjes_density("semicircle", 0.0, 5e-4) - target)
    assert e1 / e2 >= 1.5


def test_stieltjes_from_moment_sequence():
    ms = [1.0 if k == 0 else (0.0 if k % 2 else float(catalan(k // 2))) for k in range(60)]
    # at moderate height the truncated series is usable on the support edge
    got = stieltjes_density(ms, 2.5, 0.5)
    closed = stieltjes_density("semicircle", 2.5, 0.5)
    assert got == pytest.approx(closed, abs=1e-3)


def test_hankel_check():
    assert hankel_check([1.0, 0.0, 0.0, 0.0, 0.0], 3) == pytest.approx([1.0, 0.0, 0.0])
    dets = hankel_check([1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 5.0], 4)
    assert all(d >= -1e-9 for d in dets)
    # M2 < M1^2 is not a moment sequence: negative 2x2 determinant
    bad = hankel_check([1.0, 1.0, 0.5], 2)
    assert bad[1] < 0
    with pytest.raises(ValueError):
        hankel_check([1.0, 0.0], 3)


def test_orthopoly_from_moments():
    ms = [1.0, 0.25, 0.4, 0.1, 0.3, 0.05]
    assert orthopoly_from_moments(ms, 0).coefficients == [1.0]
    p1 = orthopoly_from_moments(ms, 1)
    assert p1.coefficients == pytest.approx([-0.25, 1.0])
    # uniform on [-1, 1]: P2 is proportional to 3x^2 - 1, monic (x^2 - 1/3)
    uniform = [1.0, 0.0, 1 / 3, 0.0, 1 / 5, 0.0]
    p2 = orthopoly_from_moments(uniform, 2)
    assert p2.coefficients == pytest.approx([-1 / 3, 0.0, 1.0], abs=1e-12)
    # orthogonality to all lower powers under the moment functional
    for k in (1, 2):
        p = orthopoly_from_moments(ms, k)
        for j in range(k):
            pairing = sum(c * ms[i + j] for i, c in enumerate(p.coefficients))
            assert abs(pairing) < 1e-8
    with pytest.raises(ValueError):
        orthopoly_from_moments([1.0, 0.0, 0.0, 0.0], 2)  # degenerate Hankel


@pytest.mark.parametrize("name", ["mp", "semicircle"])
def test_hankel_determinants_of_integer_moments_are_exact(name):
    # the Catalan moments' Hankel determinants are all 1; on floats LU read -0.68 at depth 14 and
    # 83,794.5 at depth 16 for the Marchenko-Pastur law
    ms = [prob.BUILTIN_MOMENTS[name](k) for k in range(31)]
    dets = hankel_check(ms, 16)
    assert dets == [1.0] * 16 and all(type(d) is float for d in dets)


def test_hankel_determinants_of_fraction_moments_are_rounded_once():
    # uniform on [-1, 1]: M_2k = 1/(2k + 1); the 3 x 3 determinant is 1/15 - 1/27 = 4/135
    ms = [Fraction(1), 0, Fraction(1, 3), 0, Fraction(1, 5)]
    assert hankel_check(ms, 3) == [1.0, 1 / 3, 4 / 135]
    with pytest.raises(ValueError, match="^the Hankel determinant of size 2 leaves the float range$"):
        hankel_check([1, 0, -(10**400)], 2)


def _monic_chebyshev_u(k):
    """U_k(x/2) by its three-term recurrence P_(j+1) = x P_j - P_(j-1), in integers."""
    polys = [Polynomial([1]), Polynomial([0, 1])]
    while len(polys) <= k:
        polys.append(Polynomial([0, 1]) * polys[-1] - polys[-2])
    return polys[k]


@pytest.mark.parametrize("k", range(1, 17))
def test_orthopoly_from_the_semicircles_integer_moments_is_exact(k):
    # the floats' LU called the leading minor degenerate from k = 8 on
    ms = [prob.BUILTIN_MOMENTS["semicircle"](j) for j in range(2 * k)]
    got = orthopoly_from_moments(ms, k)
    assert got.coefficients == _monic_chebyshev_u(k).coefficients
    assert all(type(c) is Fraction for c in got.coefficients)


def test_an_exact_leading_minor_is_degenerate_only_at_zero():
    with pytest.raises(ValueError, match="degenerate Hankel minor"):
        orthopoly_from_moments([1, 0, 0, 0], 2)
    # M_2 = 1e-20: a float minor of 1e-20 is degenerate, the exact one is not
    with pytest.raises(ValueError, match="degenerate Hankel minor"):
        orthopoly_from_moments([1.0, 0.0, 1e-20, 0.0], 2)
    got = orthopoly_from_moments([1, 0, Fraction(1, 10**20), 0], 2)
    assert got.coefficients == [-Fraction(1, 10**20), 0, 1]


def test_orthopoly_gram_schmidt_oracle():
    # Gram-Schmidt on 1, x, x^2 under the semicircle moments
    ms = [1.0, 0.0, 1.0, 0.0, 2.0, 0.0]

    def inner(c1, c2):
        return sum(
            a * b * ms[i + j] for i, a in enumerate(c1) for j, b in enumerate(c2)
        )

    e0 = [1.0]
    x1 = [0.0, 1.0]
    e1 = [x1[0] - inner(x1, e0) / inner(e0, e0), 1.0]
    x2 = [0.0, 0.0, 1.0]
    proj0 = inner(x2, e0) / inner(e0, e0)
    proj1 = inner(x2, e1 + [0.0]) / inner(e1, e1)
    e2 = [
        -proj0 - proj1 * e1[0],
        -proj1 * e1[1] + 0.0,
        1.0,
    ]
    got = orthopoly_from_moments(ms, 2)
    assert got.coefficients == pytest.approx(e2, abs=1e-10)


def test_sn_fixed_points_exact():
    counts = sn_fixed_point_counts(4, 1.0)
    assert counts[0] == 9  # the derangements of S_4
    assert sum(counts.values()) == factorial(4)
    res = sn_fixed_point_law(1, 1.0)
    assert res.exact
    assert dict(res.law.atoms).get(0.0, 0.0) == 0.0 or 0.0 not in dict(res.law.atoms)
    # mass at 0 equals the inclusion-exclusion value, exactly as rationals
    for N in range(1, 8):
        counts = sn_fixed_point_counts(N, 1.0)
        p0 = Fraction(counts.get(0, 0), factorial(N))
        assert p0 == derangement_probability_exact(N, 1.0)


def test_sn_fixed_points_truncated():
    # t < 1: no fixed points among the first m = floor(tN) positions
    N, t = 6, 0.5
    counts = sn_fixed_point_counts(N, t)
    p0 = Fraction(counts[0], factorial(N))
    assert p0 == derangement_probability_exact(N, t)


@pytest.mark.parametrize("t", [-1.0, 0.0, 1.5, math.nan])
def test_both_exact_permutation_laws_refuse_t_outside_the_unit_interval(t):
    # t = -1 gave probability 0 and t = 1.5 "factorial needs n >= 0"
    for call in (derangement_probability_exact, sn_fixed_point_counts):
        with pytest.raises(ValueError, match=r"^need t in \(0, 1\]$"):
            call(3, t)


def test_sn_fixed_points_sampled():
    res = sn_fixed_point_law(12, 1.0, rng=RandomSource(5), samples=20000)
    assert not res.exact
    p0 = dict(res.law.atoms)[0.0]
    assert p0 == pytest.approx(1.0 / math.e, abs=0.02)
    with pytest.raises(ValueError):
        sn_fixed_point_law(12, 1.0)  # sampling needs a seed


def test_sn_fixed_point_masses_are_python_floats_in_both_modes():
    for res in (sn_fixed_point_law(9, 1.0), sn_fixed_point_law(12, 1.0, rng=RandomSource(5), samples=20000)):
        assert all(type(loc) is float and type(mass) is float for loc, mass in res.law.atoms)


@pytest.mark.parametrize("samples", [0, -5])
def test_sn_fixed_point_law_refuses_no_samples(samples):
    with pytest.raises(ValueError, match="samples >= 1"):
        sn_fixed_point_law(12, 1.0, rng=RandomSource(1), samples=samples)
    with pytest.raises(TypeError):
        sn_fixed_point_law(12, 1.0, rng=RandomSource(1), samples=1.5)


def _fixed_point_counts_by_enumeration(N):
    """counts[m]: permutations of range(N) tallied by fixed points among the first m."""
    counts = [Counter() for _ in range(N + 1)]
    for perm in itertools.permutations(range(N)):
        fixed = 0
        counts[0][0] += 1
        for m in range(1, N + 1):
            fixed += perm[m - 1] == m - 1
            counts[m][fixed] += 1
    return counts


@pytest.mark.parametrize("N", range(1, 9))
def test_sn_fixed_point_counts_against_enumeration(N):
    oracle = _fixed_point_counts_by_enumeration(N)
    for m in range(N + 1):
        t = 1.0 if m == N else (m + 0.5) / N
        assert int(t * N) == m
        assert sn_fixed_point_counts(N, t) == dict(oracle[m])


def test_sn_fixed_points_sampled_reproducible_across_blocks():
    N = 12
    samples = _CAPS["permutation N"][0] // N + 1  # one full block and one row
    a = sn_fixed_point_law(N, 1.0, rng=RandomSource(9), samples=samples)
    b = sn_fixed_point_law(N, 1.0, rng=RandomSource(9), samples=samples)
    assert a.law.atoms == b.law.atoms
    assert a.samples == samples
    assert sum(mass for _, mass in a.law.atoms) == pytest.approx(1.0, abs=1e-12)
    assert sum(round(mass * samples) for _, mass in a.law.atoms) == samples


def _fixed_point_law(N, m):
    """Exact P(k fixed points among the first m of a uniform permutation of N), k = 0..m."""
    return [
        Fraction(
            math.comb(m, k)
            * sum((-1) ** j * math.comb(m - k, j) * math.factorial(N - k - j) for j in range(m - k + 1)),
            math.factorial(N),
        )
        for k in range(m + 1)
    ]


@pytest.mark.parametrize("t", [1.0, 0.5])
def test_sn_fixed_points_sampled_within_5_sigma(t):
    N, samples = 12, 50_000
    res = sn_fixed_point_law(N, t, rng=RandomSource(17), samples=samples)
    got = dict(res.law.atoms)
    m = int(t * N)
    assert set(got) <= {float(k) for k in range(m + 1)}
    for k, p in enumerate(_fixed_point_law(N, m)):
        p = float(p)
        seen = got.get(float(k), 0.0) * samples
        sigma = math.sqrt(samples * p * (1.0 - p))
        # one count of slack for the atoms expected less than once
        assert abs(seen - samples * p) <= 5.0 * sigma + 1.0, (k, seen, samples * p)


def test_graph_loop_moments():
    path = [[1 if abs(i - j) == 1 else 0 for j in range(12)] for i in range(12)]
    for m in range(5):
        assert graph_loop_moment(path, 0, 2 * m) == catalan(m)
    assert graph_loop_moment(path, 0, 5) == 0  # bipartite: odd loops vanish
    line = [[1 if abs(i - j) == 1 else 0 for j in range(21)] for i in range(21)]
    assert graph_loop_moment(line, 10, 4) == central_binomial(2)
    with pytest.raises(ValueError):
        graph_loop_moment([[0, 2], [2, 0]], 0, 2)


def test_su2_character_moments():
    raw, rescaled = su2_character_moment(0)
    assert raw == 1.0 and rescaled == 1.0
    raw, rescaled = su2_character_moment(1)
    assert raw == pytest.approx(0.25)
    assert rescaled == pytest.approx(1.0)
    # rescaled moments are the Catalan numbers = semicircle even moments
    semi = moments(semicircle_law(), 8)
    for k in range(5):
        _, rescaled = su2_character_moment(k)
        assert rescaled == pytest.approx(catalan(k), rel=1e-12)
        assert rescaled == pytest.approx(semi[2 * k], abs=1e-6)


def test_su2_character_moment_mc():
    for k in (1, 2):
        est, se = su2_character_moment_mc(k, 200_000, RandomSource(31))
        assert abs(est - catalan(k)) <= 4 * se


def test_su2_character_moments_to_the_end_of_the_float_range():
    # 4.0**k overflowed from k = 512, while the Catalan number is finite up to k = 519
    for k in range(505, 520):
        raw, rescaled = su2_character_moment(k)
        assert rescaled == math.ldexp(raw, 2 * k) == pytest.approx(catalan(k), rel=1e-12), k
    assert su2_character_moment(519)[1] == 1.4023904365091493e308
    est, se = su2_character_moment_mc(519, 20_000, RandomSource(7))
    assert math.isfinite(se) and abs(est - catalan(519)) <= 4 * se
    for call in (lambda: su2_character_moment(520), lambda: su2_character_moment_mc(600, 20_000, RandomSource(7))):
        with pytest.raises(ValueError, match=r"^the rescaled moment for k = (520|600) leaves the float range$"):
            call()


def test_atom_moments_past_the_float_range_of_the_powers():
    # 10.0**k overflows from k = 309 on; the atom sum is then exact, rounded once
    law = binomial_law(0.5, 10)
    got = moments(law, 311)
    for k in range(300, 312):
        want = float(sum(Fraction(m) * Fraction(loc) ** k for loc, m in law.atoms))
        assert got[k] == want if k >= 309 else got[k] == pytest.approx(want, rel=1e-15), k
    assert got[311] == 9.765625000000574e307
    with pytest.raises(ValueError, match="^the atom moment of order 312 leaves the float range$"):
        moments(law, 312)


def test_a_permutation_sample_count_past_the_cap_is_refused_before_any_draw():
    class NoDraws:
        def map_blocks(self, *args):
            raise AssertionError("drew before refusing the count")

    for samples in (10**7 + 1, 10**15):
        with pytest.raises(ValueError, match=f"^sn_fixed_point_law asks for {samples:,} samples, past the cap of 10,000,000$"):
            sn_fixed_point_law(12, 1.0, rng=NoDraws(), samples=samples)


class _NoPermutationDraws:
    def map_blocks(self, *args):
        raise AssertionError("drew the first block")


def test_a_permutation_size_past_its_cap_is_refused_before_any_draw():
    for N in (2**16 + 1, 10**9):  # one row of the identity tile would pass 512 KiB
        with pytest.raises(ValueError, match=f"^sn_fixed_point_law asks for N = {N:,} points, past the cap of 65,536$"):
            sn_fixed_point_law(N, 1.0, rng=_NoPermutationDraws(), samples=1)
    for N, samples in ((13, 10**7), (200, 10**6), (2**16, 1832)):
        entries = re.escape(f"{N * samples:,} entries ({samples:,} samples of N = {N:,})")
        with pytest.raises(ValueError, match=f"^sn_fixed_point_law asks for {entries}, past the cap of 120,000,000$"):
            sn_fixed_point_law(N, 1.0, rng=_NoPermutationDraws(), samples=samples)
    for N, samples in ((12, 10**7), (2**16, 1831)):  # at the caps: the first block is drawn
        with pytest.raises(AssertionError, match="^drew the first block$"):
            sn_fixed_point_law(N, 1.0, rng=_NoPermutationDraws(), samples=samples)


def _sampled_permutation_sizes(path):
    """(where, N, samples) of each sampled ``sn_fixed_point_law`` call and each seeded ``snchi`` argv
    in the file, read from its source without running it.  N and samples are evaluated from the
    literals and the assignments before the call in its function (a bench ``run_<kind>`` reads p
    from the dict literal that ``gen_<kind>`` returns); calls under ``pytest.raises`` are refusals
    and are left out; N <= 9 is exact and draws nothing, and snchi draws the default samples."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    default = inspect.signature(sn_fixed_point_law).parameters["samples"].default
    gens = {f.name[4:]: f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("gen_")}
    refused = {
        id(node)
        for w in ast.walk(tree)
        if isinstance(w, ast.With) and any("raises" in ast.unparse(item.context_expr) for item in w.items)
        for node in ast.walk(w)
    }
    scopes = [tree, *(f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    owner = {id(node): scope for scope in scopes for node in ast.walk(scope)}  # the innermost scope: walked last
    sizes = []
    for node in ast.walk(tree):
        if id(node) in refused:
            continue
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("sn_fixed_point_law"):
            args = dict(zip(["N", "t", "rng", "samples"], node.args)) | {k.arg: k.value for k in node.keywords}
            n_expr, samples_expr = args["N"], args.get("samples")
        elif isinstance(node, ast.List) and node.elts and ast.unparse(node.elts[0]) == "'snchi'":
            words = [ast.unparse(e) for e in node.elts]
            if not any(w.strip("'").startswith("--seed") for w in words):
                continue
            n_expr, samples_expr = node.elts[words.index("'--n'") + 1], None
        else:
            continue
        scope = owner[id(node)]
        space = {"prob": prob, "_CAPS": _CAPS}
        if isinstance(scope, ast.FunctionDef) and scope.name.startswith("run_") and scope.name[4:] in gens:
            [ret] = [r for r in ast.walk(gens[scope.name[4:]]) if isinstance(r, ast.Return)]
            space["p"] = ast.literal_eval(ret.value)
        for stmt in sorted((a for a in ast.walk(scope) if isinstance(a, ast.Assign)), key=lambda a: a.lineno):
            if stmt.lineno < node.lineno:
                try:
                    exec(compile(ast.Module([stmt], []), str(path), "exec"), space)
                except Exception:  # an assignment that needs the test's own values does not size a call
                    pass
        where = f"{path.name}:{node.lineno}"
        N = int(eval(compile(ast.Expression(n_expr), where, "eval"), space))
        if N > 9:
            samples = default if samples_expr is None else eval(compile(ast.Expression(samples_expr), where, "eval"), space)
            sizes.append((where, N, samples))
    return sizes


def test_every_sampled_permutation_law_of_the_tests_and_the_bench_is_10x_under_the_entry_cap():
    root = Path(__file__).resolve().parents[1]
    sizes = [s for path in [*sorted((root / "tests").glob("test_*.py")), root / "bench" / "cases.py"]
             for s in _sampled_permutation_sizes(path)]
    # a size past a cap is refused before any draw, and shuffles nothing
    used = [(w, N, s) for w, N, s in sizes if N <= 2**16 and s <= 10**7 and N * s <= _CAPS["permutation entries"][0]]
    where = {w.split(":")[0] for w, _, _ in used}
    assert {"test_prob.py", "test_rng.py", "test_seed_contract.py", "test_cli.py", "cases.py"} <= where, used
    assert ("cases.py", 12, 200_000) in {(w.split(":")[0], N, s) for w, N, s in used}  # gen_snlaw
    # the largest today is snchi --n 12 --seed 3 with the default 10^6 samples: exactly 10x under
    assert 10 * max(N * samples for _, N, samples in used) <= _CAPS["permutation entries"][0]
