import decimal
import inspect
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from oracles import legendre, ritz_combination_gap
from calclab import hydrogen
from calclab.combinat import semi_factorial
from calclab.diffcalc import spherical_laplacian
from calclab.hydrogen import (
    BOOK_CONSTANTS,
    DIMENSIONLESS_CONSTANTS,
    PhysicalConstants,
    QuantumNumbers,
    RYDBERG_HYDROGEN_MEASURED,
    assoc_laguerre,
    assoc_legendre,
    bohr_energy,
    bohr_radius,
    laguerre,
    line_wavelength,
    radial_wavefunction,
    rydberg_constant,
    spectral_series,
    spherical_harmonic,
    wavefunction,
)
from calclab.linalg import Polynomial
from calclab.quad import simpson


def test_quantum_numbers_validation():
    QuantumNumbers(3, 2, -2)
    with pytest.raises(ValueError):
        QuantumNumbers(1, 1, 0)
    with pytest.raises(ValueError):
        QuantumNumbers(2, 1, 2)
    with pytest.raises(ValueError):
        QuantumNumbers(0, 0, 0)


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(k=1, e=1, h=1, m=1, c=1, h0=1)  # h0 far from 2 pi h
    with pytest.raises(ValueError):
        PhysicalConstants(k=-1, e=1, h=1, m=1, c=1, h0=2 * math.pi)


def test_legendre_polynomials():
    assert legendre(0).coefficients == [Fraction(1)]
    assert legendre(2).coefficients == [Fraction(-1, 2), Fraction(0), Fraction(3, 2)]
    assert legendre(3)(1) == 1
    # standard normalization P_l(1) = 1 for all l
    for l in range(9):
        assert legendre(l)(1) == 1


def test_legendre_equation_exact():
    one_minus_x2 = Polynomial([Fraction(1), Fraction(0), Fraction(-1)])
    two_x = Polynomial([Fraction(0), Fraction(2)])
    for l in range(9):
        P = legendre(l)
        residual = one_minus_x2 * P.deriv().deriv() - two_x * P.deriv() + P.scale(
            Fraction(l * (l + 1))
        )
        assert residual.is_zero()


def test_legendre_orthogonality():
    for k in range(7):
        for l in range(7):
            val = simpson(
                lambda x: float(legendre(k)(x)) * float(legendre(l)(x)), -1.0, 1.0, 2000
            )
            if k != l:
                assert abs(val) < 1e-9
            else:
                assert val == pytest.approx(2.0 / (2 * l + 1), abs=1e-9)


def test_assoc_legendre():
    # P_l^0 is P_l itself
    for l in range(4):
        f = assoc_legendre(l, 0)
        for x in (-0.7, 0.0, 0.4):
            assert f(x) == pytest.approx(float(legendre(l)(x)))
    # P_1^1 = -sqrt(1 - x^2)
    f = assoc_legendre(1, 1)
    for x in (-0.5, 0.0, 0.8):
        assert f(x) == pytest.approx(-math.sqrt(1 - x * x))
    with pytest.raises(ValueError):
        assoc_legendre(1, 2)


def _bits(f, x):
    """f(x) as hex; where exp or pow overflows, the exception type, or the named ValueError's text,
    which both routes must share."""
    try:
        return f(x).hex()
    except OverflowError:
        return "OverflowError"
    except ValueError as exc:
        return str(exc)


# x at which 1 - x^2 is a rational square, so that P_l^m(x) is rational
_RATIONAL_ROOT_XS = [Fraction(0), *(s * Fraction(p, q) for p, q in [(3, 5), (5, 13), (8, 17), (20, 29)] for s in (1, -1))]


def _assoc_legendre_error(l, m):
    """max |P_l^m(x) - exact| / max |exact| over _RATIONAL_ROOT_XS, the exact value from legendre(l)'s
    coefficients differentiated |m| times in Fractions."""
    m, exact = abs(m), []
    for x in _RATIONAL_ROOT_XS:
        y = 1 - x * x
        root = Fraction(math.isqrt(y.numerator), math.isqrt(y.denominator))
        assert root * root == y
        derivative = sum(c * math.perm(j, m) * x ** (j - m) for j, c in enumerate(legendre(l).coefficients) if j >= m)
        exact.append((-1) ** m * root**m * derivative)
    plm = assoc_legendre(l, m)
    return max(abs(Fraction(plm(float(x))) - e) for x, e in zip(_RATIONAL_ROOT_XS, exact)) / max(map(abs, exact))


def test_assoc_legendre_matches_the_polynomial_route():
    for l in range(41):
        for m in range(-l, l + 1):
            assert _assoc_legendre_error(l, m) <= 1e-13, (l, m)
            plm = assoc_legendre(l, m)
            # outside [-1, 1] the factor (1 - x^2)^(m/2) is 0 and P_l^0 is the polynomial P_l
            for x in (1.0000001, -1.5, 3.0, -1e3, 1e200):
                try:
                    want = 0.0 if m else float(legendre(l)(Fraction(x)))
                except OverflowError:
                    with pytest.raises(ValueError, match=re.escape(f"P_l^m(x) for l = {l}, m = 0, x = {x!r} leaves")):
                        plm(x)
                else:
                    assert plm(x) == pytest.approx(want, rel=1e-13), (l, m, x)
            # the factor (1 - x^2)^(m/2) keeps a NaN x, also where P_l^m has degree 0
            assert m == 0 or math.isnan(plm(math.nan)), (l, m)


def test_general_legendre_equation_residual():
    # (1-x^2) f'' - 2x f' + (l(l+1) - m^2/(1-x^2)) f = 0 on an interior grid
    h = 1e-4
    for l, m in [(2, 1), (3, 2), (4, 1)]:
        f = assoc_legendre(l, m)
        for x in np.linspace(-0.8, 0.8, 9):
            fpp = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
            fp = (f(x + h) - f(x - h)) / (2 * h)
            residual = (1 - x * x) * fpp - 2 * x * fp + (
                l * (l + 1) - m * m / (1 - x * x)
            ) * f(x)
            assert abs(residual) < 1e-6 * max(1.0, l * (l + 1) * abs(f(x)))


def test_laguerre_polynomials():
    assert laguerre(0).coefficients == [Fraction(1)]
    assert laguerre(1).coefficients == [Fraction(1), Fraction(-1)]
    # closed-form oracle sum_j binom(q, j)(-1)^j x^j/j!
    for q in range(7):
        closed = [
            Fraction((-1) ** j * math.comb(q, j), math.factorial(j))
            for j in range(q + 1)
        ]
        assert laguerre(q).coefficients == closed
    # orthogonality under the exponential weight
    val = simpson(
        lambda x: float(laguerre(2)(x)) * float(laguerre(3)(x)) * math.exp(-x),
        0.0,
        80.0,
        8000,
    )
    assert abs(val) < 1e-8


def _exact(poly):
    """The coefficients as (type, value) pairs, so that equal values of other types differ."""
    return [(type(c), c) for c in poly.coefficients]


def test_explicit_sums_are_the_rodrigues_polynomials():
    # the exact coefficients of Rodrigues' formula, by repeated differentiation
    cases = [(laguerre, (q,), oracles.laguerre) for q in range(31)]
    pq = [(p, q) for p in range(31) for q in range(31)]
    # the degrees of rho_nl at (n, l) = (150, 96), (200, 3), (200, 98), which the suite and CI print
    pq += [(2 * l + 1, n - l - 1) for n, l in [(150, 96), (200, 3), (200, 98)]]
    cases += [(assoc_laguerre, args, oracles.assoc_laguerre) for args in pq]
    for family, args, oracle in cases:
        got = family(*args)
        assert all(type(c) is Fraction for c in got.coefficients), (family.__name__, args)
        assert _exact(got) == _exact(oracle(*args)), (family.__name__, args)


def test_assoc_legendre_is_the_differentiated_polynomial_to_degree_250():
    cases = [(l, m) for l in (60, 100, 150) for m in sorted({0, 1, 3, l // 2, l - 1, l})]
    for l, m in cases + [(250, 0), (250, 1), (250, 3), (250, 60)]:
        assert _assoc_legendre_error(l, m) <= 1e-13, (l, m)
    for m in (249, 250):  # (2m-1)!! is about 1e563 and 1e566
        with pytest.raises(ValueError, match=rf"^\(2m-1\)!! for m = {m} leaves the float range$"):
            assoc_legendre(250, m)


def test_the_polynomial_families_return_a_new_value_each_call():
    # a caller's edit of one returned coefficient list reaches no later call, nor rho_nl
    rho = radial_wavefunction(3, 0)(1.0)
    for family, args in [(laguerre, (2,)), (assoc_laguerre, (1, 2))]:
        want = list(family(*args).coefficients)
        family(*args).coefficients[0] = 0
        assert family(*args).coefficients == want, family.__name__
    assert radial_wavefunction(3, 0)(1.0) == rho == 0.11236012334489626


def test_assoc_legendre_sectoral_near_the_poles():
    # for even m, P_m^m(x) = (2m-1)!! (1-x^2)^(m/2) is rational at the float x.  The float 1 - x*x
    # cancels near |x| = 1 (P_140^140(0.9999) was 1.8e-11 off), and (1-x^2)^(m/2) underflowed
    # before (2m-1)!! multiplied it (P_150^150(sqrt(1 - 1e-5)) = 3.8e-69 and P_120^120(0.99999999)
    # = 5.3e-229 were 0) or was subnormal where P_m^m is not (4.5e-48 at m = 136, x = 0.99999)
    probes = [(150, math.sqrt(1 - 1e-5)), (120, 0.99999999), (140, 0.9999), (60, 0.999)]
    xs = (0.51, 0.6, 0.7, 0.8, 0.9, 0.97, 0.99, 0.999, 0.99999, 1 - 2**-20, 1 - 2**-40)
    for m, x in probes + [(m, x) for m in range(2, 151, 2) for x in xs]:
        want = semi_factorial(2 * m) * (1 - Fraction(x) ** 2) ** (m // 2)
        if want >= 2.0**-1022:
            for y in (x, -x):
                assert abs(Fraction(assoc_legendre(m, m)(y)) - want) <= 1e-14 * want, (m, y)


def test_assoc_laguerre_termination_recurrence():
    # the bound-state power-series recurrence terminates at j = n - l - 1
    # and reproduces the associated Laguerre coefficients up to a constant
    for n, l in [(1, 0), (2, 0), (2, 1), (3, 1), (4, 2)]:
        S = 2 * n
        coeffs = [Fraction(1)]
        j = 0
        while True:
            c_next = coeffs[-1] * Fraction(2 * (j + l + 1) - S, (j + 1) * (j + 2 * l + 2))
            if c_next == 0:
                break
            coeffs.append(c_next)
            j += 1
        assert len(coeffs) - 1 == n - l - 1
        # the recurrence runs in the variable p; the Laguerre polynomial of
        # the bound state takes 2p, so coefficient j carries a factor 2^j
        lag = assoc_laguerre(2 * l + 1, n - l - 1).coefficients
        rescaled = [Fraction(c) * 2**j for j, c in enumerate(lag)]
        assert len(rescaled) == len(coeffs)
        ratio = rescaled[0] / coeffs[0]
        assert all(a == ratio * b for a, b in zip(rescaled, coeffs))


def test_spherical_harmonics():
    Y00 = spherical_harmonic(0, 0)
    assert Y00(0.7, 1.3) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))
    # normalization over the sphere for l <= 4
    for l in range(5):
        for m in range(-l, l + 1):
            Y = spherical_harmonic(l, m)
            val = simpson(
                lambda s: abs(Y(s, 0.0)) ** 2 * 2.0 * math.pi * math.sin(s),
                0.0,
                math.pi,
                600,
            )
            assert val == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        spherical_harmonic(1, 2)


def test_spherical_harmonic_orthogonality():
    # different m: the azimuthal integral vanishes exactly (uniform nodes
    # sum a nontrivial character to zero); same m: quadrature in s
    pairs = [(l, m) for l in range(4) for m in range(-l, l + 1)]
    ts = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    for i, (l1, m1) in enumerate(pairs):
        Y1 = spherical_harmonic(l1, m1)
        for l2, m2 in pairs[i + 1 :]:
            Y2 = spherical_harmonic(l2, m2)
            if m1 != m2:
                total = sum(
                    Y1(1.1, t) * np.conj(Y2(1.1, t)) for t in ts
                ) * (2 * math.pi / len(ts))
                assert abs(total) < 1e-12
            else:
                val = simpson(
                    lambda s: (Y1(s, 0.0) * np.conj(Y2(s, 0.0))).real * math.sin(s),
                    0.0,
                    math.pi,
                    400,
                )
                assert abs(2.0 * math.pi * val) < 1e-6


def test_angular_equation_residual():
    # sin s d/ds(sin s dY/ds) + d2Y/dt2 = -l(l+1) sin^2 s Y
    h = 1e-5
    for l, m in [(1, 0), (2, 1), (3, 2)]:
        Y = spherical_harmonic(l, m)
        for s in (0.6, 1.1, 2.0):
            for t in (0.3, 2.1):
                def g(sv, tv):
                    return Y(sv, tv).real

                ds = (g(s + h, t) - g(s - h, t)) / (2 * h)
                dss = (g(s + h, t) - 2 * g(s, t) + g(s - h, t)) / h**2
                dtt = (g(s, t + h) - 2 * g(s, t) + g(s, t - h)) / h**2
                lhs = math.sin(s) * (math.cos(s) * ds + math.sin(s) * dss) + dtt
                rhs = -l * (l + 1) * math.sin(s) ** 2 * g(s, t)
                assert lhs == pytest.approx(rhs, abs=1e-5 * max(1.0, abs(rhs)))


def test_bohr_energy():
    e1 = bohr_energy(1)
    assert e1.joules == pytest.approx(-2.177e-18, abs=5e-21)
    assert e1.ev == pytest.approx(-13.591, abs=0.005)
    assert bohr_energy(2).ev == pytest.approx(e1.ev / 4.0)
    for n in (2, 3, 5):
        assert bohr_energy(n).joules / e1.joules == pytest.approx(1.0 / n**2)


def test_rydberg_constant_and_lines():
    R = rydberg_constant()
    assert R == pytest.approx(1.096e7, rel=1e-3)
    assert R == pytest.approx(1.0968e7, rel=1e-3)
    # reference Balmer lines (standard air)
    assert line_wavelength(2, 3) * 1e9 == pytest.approx(656.279, abs=0.1)
    assert line_wavelength(2, 4) * 1e9 == pytest.approx(486.135, abs=0.1)
    assert line_wavelength(2, 5) * 1e9 == pytest.approx(434.047, abs=0.1)
    assert line_wavelength(2, 6) * 1e9 == pytest.approx(410.173, abs=0.1)
    # Lyman alpha and limit (vacuum UV)
    assert line_wavelength(1, 2) * 1e9 == pytest.approx(121.567, abs=0.1)
    with pytest.raises(ValueError):
        line_wavelength(3, 2)


def test_energy_line_consistency():
    # 1/lambda = (E_n2 - E_n1)/(h0 c) with the same constants everywhere
    c = BOOK_CONSTANTS
    for n1, n2 in [(1, 2), (2, 3), (3, 7)]:
        lam = line_wavelength(n1, n2, constants=c, medium="vacuum")
        planck = (bohr_energy(n2, c).joules - bohr_energy(n1, c).joules) / (c.h0 * c.c)
        assert 1.0 / lam == pytest.approx(planck, rel=1e-9)


def test_ritz_combination():
    R = RYDBERG_HYDROGEN_MEASURED
    assert ritz_combination_gap(1, 2, 3) <= 1e-6 * R
    assert ritz_combination_gap(2, 5, 9) <= 1e-6 * R


def test_spectral_series_tables():
    balmer = spectral_series("balmer", 6)
    waves = [row[2] for row in balmer[:-1]]
    assert waves == pytest.approx([656.279, 486.135, 434.047, 410.173], abs=0.1)
    assert balmer[-1][1] is None
    lyman = spectral_series("lyman", 4)
    assert lyman[0][2] == pytest.approx(121.567, abs=0.1)
    assert lyman[-1][2] == pytest.approx(91.175, abs=0.1)
    with pytest.raises(ValueError):
        spectral_series("nope", 5)
    with pytest.raises(ValueError):
        spectral_series("balmer", 2)


def test_bohr_radius():
    assert bohr_radius() == pytest.approx(5.297e-11, rel=5e-3)
    assert bohr_radius() == pytest.approx(5.29e-11, rel=5e-3)
    # a = 1/gamma with gamma = sqrt(-2 m E_1)/h
    c = BOOK_CONSTANTS
    gamma = math.sqrt(-2.0 * c.m * bohr_energy(1, c).joules) / c.h
    assert bohr_radius(c) == pytest.approx(1.0 / gamma, rel=1e-12)
    assert bohr_radius(DIMENSIONLESS_CONSTANTS) == 1.0


def test_radial_wavefunction():
    rho10 = radial_wavefunction(1, 0)
    for r in (0.2, 1.0, 3.0):
        assert rho10(r) == pytest.approx(2.0 * math.exp(-r))
    # normalization of the radial density for n <= 3
    for n in range(1, 4):
        for l in range(n):
            rho = radial_wavefunction(n, l)
            norm = simpson(lambda r: rho(r) ** 2 * r * r, 0.0, 40.0 * n, 4000)
            assert norm == pytest.approx(1.0, abs=1e-5)
    # past the underflow of e^(-r/(na)) rho is a zero with the sign of the
    # Laguerre factor, whose leading coefficient has the sign (-1)^(n-l-1)
    for n, l in [(1, 0), (3, 0), (3, 1), (3, 2), (16, 3)]:
        for r in (1e200, 1e300, math.inf):
            got = radial_wavefunction(n, l)(r)
            assert got == 0.0 and math.copysign(1.0, got) == (-1.0) ** (n - l - 1), (n, l, r)
    # n + l <= 170 caps l at 84, and 1490**84 is finite: before e^(-r/(na)) underflows near
    # 2r/(na) = 1490, (2r/(na))^l does not overflow
    rho = radial_wavefunction(85, 84)
    assert all(math.isfinite(rho(p * 85 / 2.0)) for p in (137.0, 1000.0, 1489.0, 1491.0, 1e6, 1e300))
    # the radial density r^2 rho_10^2 peaks at r = a
    rs = np.linspace(0.5, 1.5, 401)
    dens = [r * r * rho10(r) ** 2 for r in rs]
    assert rs[int(np.argmax(dens))] == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize(
    "n, l, constants, rs",
    [
        (160, 10, DIMENSIONLESS_CONSTANTS, (0.5, 2.0, 5.0)),
        (170, 0, DIMENSIONLESS_CONSTANTS, (0.5, 2.0, 5.0)),
        (200, 3, DIMENSIONLESS_CONSTANTS, (0.5, 2.0, 5.0)),
        (300, 2, DIMENSIONLESS_CONSTANTS, (0.5, 2.0, 5.0)),
        (90, 84, DIMENSIONLESS_CONSTANTS, (4.5, 22.5, 90.0)),
        (150, 96, DIMENSIONLESS_CONSTANTS, (7.5, 37.5, 150.0)),
        (150, 97, DIMENSIONLESS_CONSTANTS, (7.5, 37.5, 150.0)),
        (170, 0, BOOK_CONSTANTS, (0.5, 2.0, 5.0)),
    ],
)
def test_radial_wavefunction_normalization_past_the_float_range_of_factorials(n, l, constants, rs):
    # the float square of the normalization is inf, nan (inf/inf with the book's Bohr radius),
    # subnormal (90, 84) or 0 (150, 96): its root is still an ordinary float.  The radii, in
    # units of a, keep 2r/(na) small enough that the Laguerre factor has no cancellation.
    mpmath = pytest.importorskip("mpmath")
    a = bohr_radius(constants)
    rho = radial_wavefunction(n, l, constants)
    with mpmath.workdps(50):
        norm = mpmath.sqrt((2 / mpmath.mpf(n * a)) ** 3 * mpmath.factorial(n - l - 1) / (2 * n * mpmath.factorial(n + l)))
        for r in (x * a for x in rs):
            p = 2 * mpmath.mpf(r) / (n * a)
            want = norm * mpmath.exp(-p / 2) * p**l * mpmath.laguerre(n - l - 1, 2 * l + 1, p)
            assert abs(rho(r) - want) <= 1e-14 * abs(want), (n, l, r)


@pytest.mark.parametrize("n, l, r", [(200, 98, 140000.0), (150, 120, 1e5), (120, 119, 5e4)])
def test_a_power_past_the_float_range_names_rho_the_power_and_r(n, l, r):
    # (2r/(na))^l overflows before e^(-r/(na)) underflows: a ValueError, not the bare
    # OverflowError "(34, 'Numerical result out of range')"
    rho = radial_wavefunction(n, l)
    with pytest.raises(ValueError, match=re.escape(f"rho_{n}_{l}: (2r/(na))**{l} overflows the float range at r = {r!r}")):
        rho(r)
    assert math.isfinite(rho(5.0))


@pytest.mark.parametrize("n, l", [(100, 99), (3, 2), (3, 1), (1, 0)])
def test_an_exponential_past_the_float_range_names_rho_and_r(n, l):
    # at r < 0, e^(-r/(na)) overflows: for every l a ValueError, not the bare "math range error"
    r = -1e5
    with pytest.raises(ValueError, match=re.escape(f"rho_{n}_{l}: e^(-r/(na)) overflows the float range at r = {r!r}")):
        radial_wavefunction(n, l)(r)


def test_radial_wavefunction_normalization_below_the_float_range_raises():
    # sqrt((2/n)^3 / (2n perm(n + l, 2l + 1))) is about 1e-494 here
    with pytest.raises(ValueError, match="normalization of rho_300_200 is below the float range"):
        radial_wavefunction(300, 200)


def test_radial_wavefunction_norms_to_40_digits(monkeypatch):
    # every norm with n + l <= 170, as the generated source writes it, against
    # sqrt((2/n)^3 (n-l-1)!/(2n (n+l)!)) in 40-digit decimal (a = 1)
    norms = {}

    def record(module, qualname, doc, args, body, **names):
        norms[qualname] = float(re.search(r"return (\S+) \* e", body).group(1))

    monkeypatch.setattr(hydrogen, "_compile", record)
    with decimal.localcontext(prec=40):
        for n in range(1, 171):
            for l in range(min(n, 171 - n)):
                radial_wavefunction(n, l)
                norm = norms[f"radial_wavefunction.<locals>.rho_{n}_{l}"]
                want = ((decimal.Decimal(2) / n) ** 3 * math.factorial(n - l - 1) / (2 * n * math.factorial(n + l))).sqrt()
                assert abs(decimal.Decimal(norm) - want) <= decimal.Decimal(3e-16) * want, (n, l)


def test_radial_wavefunction_matches_the_polynomial_route():
    for constants in (DIMENSIONLESS_CONSTANTS, BOOK_CONSTANTS):
        a = bohr_radius(constants)
        for n in range(1, 17):
            grid = np.linspace(0.0, 40.0 * n + 4.0 * n * n, 801).tolist()
            extra = [0.0, -0.0, 1e-300, 5e-324, 700.0, 1e5, -1.0, -50.0]
            rs = [r * a for r in extra + grid]
            for l in range(n):
                rho, old = radial_wavefunction(n, l, constants), oracles.radial_wavefunction(n, l, constants)
                assert [rho(r).hex() for r in rs] == [old(r).hex() for r in rs], (n, l, constants)
    # constants whose Bohr radius overflows: n*a is written as the name inf
    huge = PhysicalConstants(k=1e-200, e=1e-50, h=1e10, m=1e-10, c=1.0, h0=2e10 * math.pi)
    assert bohr_radius(huge) == math.inf
    rho, old = radial_wavefunction(2, 1, huge), oracles.radial_wavefunction(2, 1, huge)
    assert [rho(r).hex() for r in (0.0, 3.0, 1e300)] == [old(r).hex() for r in (0.0, 3.0, 1e300)]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 16),
    data=st.data(),
    r=st.floats(allow_nan=False, allow_infinity=False),
    x=st.floats(allow_nan=False, allow_infinity=False),
)
def test_generated_code_matches_the_polynomial_route_on_any_finite_input(n, data, r, x):
    l = data.draw(st.integers(0, n - 1))
    m = data.draw(st.integers(-l, l))
    constants = data.draw(st.sampled_from([DIMENSIONLESS_CONSTANTS, BOOK_CONSTANTS]))
    # where 2r/(na) overflows the Polynomial route's first step is 0 * inf
    assume(math.isfinite(2.0 * r / (n * bohr_radius(constants))))
    rho, old_rho = radial_wavefunction(n, l, constants), oracles.radial_wavefunction(n, l, constants)
    assert _bits(rho, r) == _bits(old_rho, r)
    # P_l^m: a finite x gives a finite value or a ValueError naming l, m and x; a NaN x gives NaN for m != 0
    plm = assoc_legendre(l, m)
    try:
        assert math.isfinite(plm(x))
    except ValueError as exc:
        assert str(exc) == f"P_l^m(x) for l = {l}, m = {abs(m)}, x = {x!r} leaves the float range"
    assert m == 0 or math.isnan(plm(math.nan))


def test_generated_functions_are_named_plain_functions():
    rho, plm = radial_wavefunction(3, 1), assoc_legendre(4, -2)
    assert (rho.__name__, rho.__qualname__) == ("rho_3_1", "radial_wavefunction.<locals>.rho_3_1")
    assert rho.__module__ == plm.__module__ == "calclab.hydrogen"
    assert "n = 3, l = 1" in rho.__doc__
    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(rho)
    with pytest.raises(OSError):
        inspect.getsource(rho)
    # P_l^m is no generated code: a closure on its recurrence, with source
    assert plm.__qualname__ == "assoc_legendre.<locals>.plm"
    assert "def plm(x: float) -> float:" in inspect.getsource(plm)


def test_legendre_functions_and_harmonics_generate_no_code(monkeypatch):
    def no_code(*args, **kwargs):
        raise AssertionError("P_l^m and Y_l^m run on their recurrence")

    monkeypatch.setattr(hydrogen, "_compile", no_code)
    for l in range(7):
        for m in range(-l, l + 1):
            assert math.isfinite(assoc_legendre(l, m)(0.3))
            assert math.isfinite(abs(spherical_harmonic(l, m)(0.7, 1.1)))


@pytest.mark.parametrize(
    "l, m, s", [(60, 0, 0.3), (100, 71, math.pi / 2.0), (100, 72, math.pi / 2.0), (172, 0, 1.2), (200, 3, 1.2)]
)
def test_spherical_harmonic_against_50_digits(l, m, s):
    # a Horner over rounded coefficients cancelled past l = 30, and float factorials in the norm
    # overflowed once l + |m| > 170; the bound is 1e-13 of sqrt((2l+1)/(4 pi)), which bounds |Y|
    mpmath = pytest.importorskip("mpmath")
    Y = spherical_harmonic(l, m)
    with mpmath.workdps(50):
        for t in (0.0, 0.4):
            want = complex(mpmath.spherharm(l, m, s, t))
            assert abs(Y(s, t) - want) <= 1e-13 * math.sqrt((2 * l + 1) / (4 * math.pi)), t


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: PhysicalConstants(1, 1, -1, 1, 1, 1), "constant h must be positive", id="constant"),
        pytest.param(lambda: PhysicalConstants(1, 1, 1, 1, 1, 1), "h and h0 disagree", id="h-h0"),
        pytest.param(lambda: QuantumNumbers(0, 0, 0), "need n >= 1", id="qn-n"),
        pytest.param(lambda: QuantumNumbers(2, 2, 0), "need 0 <= l <= n-1", id="qn-l"),
        pytest.param(lambda: QuantumNumbers(3, 1, -2), r"need \|m\| <= l", id="qn-m"),
        pytest.param(lambda: QuantumNumbers(2.5, 0.5, 0), "need integer n, l and m, got n = 2.5", id="qn-float-n"),
        pytest.param(lambda: QuantumNumbers(2.0, 1, 0), "need integer n, l and m, got n = 2.0", id="qn-integral-float-n"),
        pytest.param(lambda: QuantumNumbers(3, 1.0, 0), "need integer n, l and m, got l = 1.0", id="qn-float-l"),
        pytest.param(lambda: QuantumNumbers(3, 1, 0.5), "need integer n, l and m, got m = 0.5", id="qn-float-m"),
        pytest.param(lambda: radial_wavefunction(2.0, 1.0), "need integer n, l and m", id="qn-radial-float"),
        pytest.param(lambda: legendre(-1), "need l >= 0", id="legendre"),
        pytest.param(lambda: assoc_legendre(-1, 0), "need l >= 0", id="assoc_legendre-l"),
        pytest.param(lambda: assoc_legendre(2, -3), r"need \|m\| <= l", id="assoc_legendre-m"),
        pytest.param(lambda: laguerre(-1), "need q >= 0", id="laguerre"),
        pytest.param(lambda: assoc_laguerre(1, -1), "need p, q >= 0", id="assoc_laguerre"),
        pytest.param(lambda: bohr_energy(0), "need n >= 1", id="bohr_energy"),
        pytest.param(lambda: line_wavelength(2, 2), "need 1 <= n1 < n2", id="line-levels"),
        pytest.param(lambda: line_wavelength(2, 3, medium="water"), "medium must be 'air' or 'vacuum'", id="line-medium"),
        pytest.param(lambda: ritz_combination_gap(1, 3, 2), "need n1 < n2 < n3", id="ritz"),
        pytest.param(lambda: spectral_series("nope", 5), "unknown series 'nope'", id="series-name"),
        pytest.param(lambda: spectral_series("balmer", 2), "need upto > the series base level", id="series-upto"),
        pytest.param(lambda: radial_wavefunction(0, 0), "need n >= 1", id="radial-n"),
        pytest.param(lambda: radial_wavefunction(2, 2), "need 0 <= l <= n-1", id="radial-l"),
        pytest.param(lambda: radial_wavefunction(3, -1), "need 0 <= l <= n-1", id="radial-negative-l"),
    ],
)
def test_every_rejection_says_what_it_needs(monkeypatch, call, message):
    def no_code(*args):
        raise AssertionError("code was generated for rejected quantum numbers")

    monkeypatch.setattr(hydrogen, "_compile", no_code)
    with pytest.raises(ValueError, match=message):
        call()


def test_modified_radial_equation_residual():
    # E u = -u''/2 + (-1/r + l(l+1)/(2 r^2)) u with u = r rho (dimensionless);
    # the residual is measured against the sup of |E u| over the range, since
    # pointwise-relative comparison is meaningless on the decaying tail
    h = 2e-4
    for n, l in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        rho = radial_wavefunction(n, l)
        E = -1.0 / (2.0 * n * n)
        u = lambda r: r * rho(r)
        rs = np.linspace(0.1, 20.0, 40)
        scale = max(abs(E * u(r)) for r in rs)
        for r in rs:
            upp = (u(r + h) - 2 * u(r) + u(r - h)) / h**2
            lhs = -0.5 * upp + (-1.0 / r + l * (l + 1) / (2 * r * r)) * u(r)
            assert abs(lhs - E * u(r)) <= 1e-4 * scale


def test_wavefunction():
    phi100 = wavefunction(QuantumNumbers(1, 0, 0))
    for r in (0.3, 1.0, 2.5):
        expected = math.exp(-r) / math.sqrt(math.pi)
        assert phi100(r, 0.7, 1.1).real == pytest.approx(expected)
        assert phi100(r, 0.7, 1.1).imag == 0.0
    # full 3D normalization by the exact product factorization
    for n in range(1, 4):
        for l in range(n):
            rho = radial_wavefunction(n, l)
            radial = simpson(lambda r: rho(r) ** 2 * r * r, 0.0, 40.0 * n, 4000)
            for m in range(-l, l + 1):
                Y = spherical_harmonic(l, m)
                angular = simpson(
                    lambda s: abs(Y(s, 0.0)) ** 2 * 2.0 * math.pi * math.sin(s),
                    0.0,
                    math.pi,
                    600,
                )
                assert radial * angular == pytest.approx(1.0, abs=1e-4)


def test_separated_schrodinger_residual():
    # -(1/2) laplacian(phi) - phi/r = E_n phi, checked pointwise in
    # spherical coordinates on the real part (dimensionless constants)
    for n, l, m in [(1, 0, 0), (2, 1, 0), (3, 2, 1)]:
        phi = wavefunction(QuantumNumbers(n, l, m))
        E = -1.0 / (2.0 * n * n)

        def re_phi(r, s, t):
            return phi(r, s, t).real

        for r, s, t in [(0.8, 1.0, 0.5), (2.0, 0.7, 1.9), (4.0, 1.9, 3.0)]:
            lap = spherical_laplacian(re_phi, r, s, t, h=1e-4 * (1 + r))
            lhs = -0.5 * lap - re_phi(r, s, t) / r
            rhs = E * re_phi(r, s, t)
            assert lhs == pytest.approx(rhs, abs=1e-4 * max(1e-3, abs(rhs)))
