"""Orthogonal polynomial families and the hydrogen atom.

Laguerre polynomials are built from their explicit sums (DLMF 18.5(iv))
in exact rational arithmetic; P_l^m comes from its recurrence in l
(DLMF 14.10.3; Press et al., *Numerical Recipes*, 3rd ed., 6.7), accurate at
degrees where a polynomial over rounded coefficients of alternating sign
cancels (past l = 30), and Y_l^m and rho_nl take their norms as exact
ratios, rooted once.  The energy levels, Rydberg lines and wavefunctions
follow from a pluggable physical-constants object.

``radial_wavefunction``, which workloads call in loops, rounds the exact
Laguerre coefficients to float once per (n, l) and generates one
straight-line function: an unrolled Horner evaluation (Knuth, TAOCP vol. 2,
4.6.4) on ``repr`` literals, compiled by ``calclab._codegen``.  Building one
costs about 0.1 ms where a closure costs 0.01 ms, and pays back after about
500 calls.  Its steps are ``Polynomial.__call__``'s operations in its order,
so every r whose p = 2r/(na) is finite gives the Polynomial route's bits on
the rounded coefficients.  The functions stay scalar: an array route would
evaluate ``exp`` and powers through numpy, whose results differ from
``math``'s in the last bit on some inputs, and would change the printed
tables.

Two Rydberg values coexist deliberately: the one derived from the 4-digit
constants (~1.0960e7) and the measured hydrogen constant 1.0967758e7 that
the spectral-line tables are built from.  Wavelength tables additionally
convert to standard air above 200 nm, which is the convention the tabulated
reference lines (e.g. the 656.279 nm red line) use.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import Callable

from ._codegen import compile_function as _compile
from ._record import Record
from .combinat import _rounded, factorial, semi_factorial
from .poly import Polynomial

__all__ = [
    "PhysicalConstants",
    "BOOK_CONSTANTS",
    "DIMENSIONLESS_CONSTANTS",
    "RYDBERG_HYDROGEN_MEASURED",
    "QuantumNumbers",
    "assoc_legendre",
    "spherical_harmonic",
    "laguerre",
    "assoc_laguerre",
    "BohrEnergy",
    "bohr_energy",
    "rydberg_constant",
    "line_wavelength",
    "bohr_radius",
    "radial_wavefunction",
    "wavefunction",
    "spectral_series",
    "SPECTRAL_SERIES_NAMES",
]


class PhysicalConstants(Record):
    """Coulomb constant, electron charge/mass, Planck constants, light speed.

    ``h`` is the reduced Planck constant and ``h0`` the unreduced one.  The
    two are checked for consistency only to 1e-3: the 4-digit tabulated
    values used as the default preset satisfy h = h0/(2 pi) to ~4e-4, and
    the energy formulas deliberately use each value where the source
    formulas do.
    """

    __slots__ = ("k", "e", "h", "m", "c", "h0")

    def __init__(self, k: float, e: float, h: float, m: float, c: float, h0: float):
        for name, value in zip(self.__slots__, (k, e, h, m, c, h0)):
            if value <= 0:
                raise ValueError(f"constant {name} must be positive")
        if abs(h - h0 / (2.0 * math.pi)) > 1e-3 * h:
            raise ValueError("h and h0 disagree beyond tabulation accuracy")
        self._set(k, e, h, m, c, h0)


BOOK_CONSTANTS = PhysicalConstants(
    k=8.988e9, e=1.602e-19, h=1.055e-34, m=9.109e-31, c=2.998e8, h0=6.626e-34
)

# all mechanical constants 1; h0 keeps the exact 2 pi relation
DIMENSIONLESS_CONSTANTS = PhysicalConstants(
    k=1.0, e=1.0, h=1.0, m=1.0, c=1.0, h0=2.0 * math.pi
)

RYDBERG_HYDROGEN_MEASURED = 1.0967758e7  # m^-1


class QuantumNumbers(Record):
    """Principal, azimuthal and magnetic quantum numbers: integers with 0 <= l < n, |m| <= l."""

    __slots__ = ("n", "l", "m")

    def __init__(self, n: int, l: int, m: int):
        for name, value in zip(self.__slots__, (n, l, m)):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"need integer n, l and m, got {name} = {value!r}") from None
        if n < 1:
            raise ValueError("need n >= 1")
        if not 0 <= l <= n - 1:
            raise ValueError("need 0 <= l <= n-1")
        if abs(m) > l:
            raise ValueError("need |m| <= l")
        self._set(n, l, m)


def _horner(coefficients: list[Fraction], x: str) -> str:
    """Statements leaving ``acc = ((lead * x + c1) * x + c2) ...`` for ascending coefficients.

    Each exact coefficient is rounded to float once and written as its
    ``repr``, which reads back as the same float; the statements perform
    ``Polynomial.__call__``'s operations in its order.  One statement takes
    at most 64 steps, as the parser allows 200 nested parentheses.
    """
    lead, *rest = (repr(float(c)) for c in reversed(coefficients))
    source = f"    acc = {lead}\n"
    for i in range(0, len(rest), 64):
        steps = rest[i : i + 64]
        source += "    acc = " + "(" * len(steps) + "acc" + "".join(f" * {x} + {c})" for c in steps) + "\n"
    return source


def assoc_legendre(l: int, m: int) -> Callable[[float], float]:
    """Legendre function P_l^m(x) = (-1)^m (1-x^2)^(m/2) (d/dx)^m P_l(x) by its recurrence in l:
    P_m^m = (-1)^m (2m-1)!! (1-x^2)^(m/2), (k-m+1) P_{k+1}^m = (2k+1) x P_k^m - (k+m) P_{k-1}^m.

    Negative m uses |m|, its phase absorbed into the spherical-harmonic normalization.  Outside
    [-1, 1] P_l^m is 0 for m > 0 and the polynomial P_l for m = 0; a NaN x gives NaN for m > 0.
    Toward the poles, 1/2 < |x| < 1, where the float 1 - x*x would lose digits, 1 - x^2 is
    rounded once from the exact (d-k)(d+k)/d^2 of |x| = k/d; (1-x^2)^(m/2) is taken scaled by a
    power of two, so that it cannot underflow before (2m-1)!! multiplies it, and P_m^m is 0 or
    subnormal only where its value is.  ValueError names m where (2m-1)!! leaves the float range
    (m > 150), and l, m and x where a value P_l^m(x) does.
    """
    if l < 0:
        raise ValueError("need l >= 0")
    m = abs(m)
    if m > l:
        raise ValueError("need |m| <= l")
    start = (-1) ** m * _rounded(semi_factorial(2 * m), f"(2m-1)!! for m = {m}")

    def plm(x: float) -> float:
        # max(y, 0.0) keeps a NaN y, which max(0.0, y) would turn into 0.0; x * p first keeps
        # a zero P_m^m (outside [-1, 1]) zero at every finite x
        below, p = 0.0, start * max(1.0 - x * x, 0.0) ** (m / 2.0)
        if 0.5 < abs(x) < 1.0:  # y = 1 - x^2 rounded once, y 4^-j in [1/4, 1)
            num, den = abs(x).as_integer_ratio()
            y = (den - num) * (den + num) / (den * den)
            j = (math.frexp(y)[1] + 1) // 2
            p = math.ldexp(start * math.ldexp(y, -2 * j) ** (m / 2.0), j * m)
        for k in range(m, l):
            below, p = p, ((2 * k + 1) * (x * p) - (k + m) * below) / (k - m + 1)
        if math.isfinite(p) or math.isnan(x):
            return p
        raise ValueError(f"P_l^m(x) for l = {l}, m = {m}, x = {x!r} leaves the float range")

    return plm


def _root(q: Fraction, what: str) -> float:
    """sqrt(q) of an exact q >= 0; ValueError naming ``what`` where a nonzero root is not normal."""
    # sqrt(q 4^k) 2^-k rounds q 4^k, not q
    k = (q.denominator.bit_length() - q.numerator.bit_length()) // 2
    norm = math.ldexp(math.sqrt(q * Fraction(4) ** k), -k)
    if q and norm < sys.float_info.min:
        raise ValueError(f"the normalization of {what} is below the float range")
    return norm


def spherical_harmonic(l: int, m: int) -> Callable[[float, float], complex]:
    """Unit-normalized separated angular eigenfunction (s, t) -> C.

    Y(s, t) = N P_l^|m|(cos s) e^(imt), N^2 = (2l+1)/(4 pi perm(l+|m|, 2|m|)) exactly, so that
    |Y|^2 integrates to 1 against sin(s) ds dt over the full sphere and |Y| <= sqrt((2l+1)/(4 pi)).
    Raises :func:`assoc_legendre`'s ValueErrors.
    """
    QuantumNumbers(l + 1, l, m)  # validates the (l, m) pair
    plm = assoc_legendre(l, m)
    norm = _root(Fraction(2 * l + 1) / (Fraction(4.0 * math.pi) * math.perm(l + abs(m), 2 * abs(m))), f"Y_{l}^{m}")

    def Y(s: float, t: float) -> complex:
        return norm * plm(math.cos(s)) * complex(math.cos(m * t), math.sin(m * t))

    return Y


def laguerre(q: int) -> Polynomial:
    """Laguerre polynomial L_q = L_q^0 with exact rational coefficients (see :func:`assoc_laguerre`)."""
    if q < 0:
        raise ValueError("need q >= 0")
    return assoc_laguerre(0, q)


def assoc_laguerre(p: int, q: int) -> Polynomial:
    """Associated Laguerre polynomial L_q^p = (-1)^p (d/dx)^p L_{p+q}, with exact rational
    coefficients from its explicit sum: L_q^p = sum_k (-1)^k C(p+q, q-k) x^k/k!."""
    if p < 0 or q < 0:
        raise ValueError("need p, q >= 0")
    return Polynomial([Fraction((-1) ** k * math.comb(p + q, q - k), factorial(k)) for k in range(q + 1)])


class BohrEnergy(Record):
    __slots__ = ("joules", "ev")

    def __init__(self, joules: float, ev: float):
        self._set(joules, ev)


def bohr_energy(n: int, constants: PhysicalConstants = BOOK_CONSTANTS) -> BohrEnergy:
    """Allowed energy E_n = -(m/2)(K e^2/h)^2 / n^2, in joules and eV."""
    if n < 1:
        raise ValueError("need n >= 1")
    base = constants.m / 2.0 * (constants.k * constants.e**2 / constants.h) ** 2
    joules = -base / (n * n)
    return BohrEnergy(joules, joules / constants.e)


def rydberg_constant(constants: PhysicalConstants = BOOK_CONSTANTS) -> float:
    """R = -E_1/(h0 c), derived from the given constants."""
    return -bohr_energy(1, constants).joules / (constants.h0 * constants.c)


def _air_refractive_index(wavelength_vacuum_m: float) -> float:
    """Standard-air refractive index at the given vacuum wavelength."""
    s = 1e-6 / wavelength_vacuum_m  # inverse microns
    return (
        1.0
        + 0.0000834254
        + 0.02406147 / (130.0 - s * s)
        + 0.00015998 / (38.9 - s * s)
    )


def line_wavelength(
    n1: int,
    n2: int,
    constants: PhysicalConstants | None = None,
    medium: str = "air",
) -> float:
    """Emission wavelength (meters) for the n2 -> n1 transition.

    Without a constants object the measured hydrogen Rydberg constant is
    used, which is what reference line tables are based on.  ``medium`` is
    "air" (the tabulation convention: conversion applies above 200 nm) or
    "vacuum".
    """
    if not 1 <= n1 < n2:
        raise ValueError("need 1 <= n1 < n2")
    if medium not in ("air", "vacuum"):
        raise ValueError("medium must be 'air' or 'vacuum'")
    R = RYDBERG_HYDROGEN_MEASURED if constants is None else rydberg_constant(constants)
    lam = 1.0 / (R * (1.0 / n1**2 - 1.0 / n2**2))
    if medium == "air" and lam > 200e-9:
        lam /= _air_refractive_index(lam)
    return lam


def bohr_radius(constants: PhysicalConstants = BOOK_CONSTANTS) -> float:
    """Ground-state length scale a = h^2/(m K e^2).

    This is the mode (most probable radius) of the ground-state radial
    density r^2 rho_10(r)^2; the literal mean of r is 3a/2.
    """
    return constants.h**2 / (constants.m * constants.k * constants.e**2)


def radial_wavefunction(
    n: int, l: int, constants: PhysicalConstants = DIMENSIONLESS_CONSTANTS
) -> Callable[[float], float]:
    """Normalized radial factor rho_nl(r).

    rho_nl(r) = N e^(-r/(na)) (2r/(na))^l L_{n-l-1}^{2l+1}(2r/(na)), normalized
    so that the radial density rho^2 r^2 integrates to 1.  For every (n, l),
    N^2 = (2/(na))^3 (n-l-1)!/(2n (n+l)!) = (2/(na))^3/(2n perm(n+l, 2l+1)) is
    that exact ratio, rooted once; a nonzero N below the normal range raises
    ValueError.  Where e^(-r/(na)) underflows rho is 0 signed as the Laguerre
    factor; before, 2r/(na) < 1491 and (2r/(na))^l is finite for l <= 97.
    Beyond, a power past the float range raises ValueError naming rho_nl,
    the power and r; so does e^(-r/(na)) past the float range, at r < 0.
    e^(-r/(na)) is taken as exp(p * -0.5) with p = 2r/(na), which rounds the
    same exact -p/2 once as exp(-p / 2.0).
    """
    QuantumNumbers(n, l, 0)
    a = bohr_radius(constants)
    na = n * a
    norm = _root(Fraction((2.0 / na) ** 3) / (2 * n * math.perm(n + l, 2 * l + 1)), f"rho_{n}_{l}")
    # p**0 == 1.0 and y * 1.0 == y, p**1 == p: both folds keep every bit
    power = {0: "", 1: " * p"}.get(l, f" * p**{l:d}")

    def guarded(statement: str, what: str) -> str:
        # only exp and a float power raise OverflowError; a try block costs nothing until they do
        text = f"rho_{n:d}_{l:d}: {what} overflows the float range at r = {{r!r}}"
        return f"    try:\n        {statement}\n    except OverflowError:\n        raise ValueError(f{text!r}) from None\n"

    value = f"return {norm!r} * e{power} * acc if e else copysign(0.0, acc)"
    return _compile(
        __name__,
        f"radial_wavefunction.<locals>.rho_{n:d}_{l:d}",
        f"rho_nl(r) for n = {n:d}, l = {l:d}, a = {a!r}; generated by radial_wavefunction.",
        "r",
        f"    p = 2.0 * r / {na!r}\n"
        + guarded("e = exp(p * -0.5)", "e^(-r/(na))")
        + _horner(assoc_laguerre(2 * l + 1, n - l - 1).coefficients, "p")
        + (guarded(value, f"(2r/(na))**{l:d}") if l > 1 else f"    {value}\n"),
        copysign=math.copysign,
        exp=math.exp,
        inf=math.inf,  # a constants object can make n*a overflow: its repr is inf
    )


def wavefunction(qn: QuantumNumbers) -> Callable[[float, float, float], complex]:
    """Full bound-state wavefunction (r, s, t) -> rho_nl(r) Y_l^m(s, t), in the dimensionless constants."""
    rho = radial_wavefunction(qn.n, qn.l)
    Y = spherical_harmonic(qn.l, qn.m)

    def phi(r: float, s: float, t: float) -> complex:
        return rho(r) * Y(s, t)

    return phi


SPECTRAL_SERIES_NAMES = {
    "lyman": 1,
    "balmer": 2,
    "paschen": 3,
    "brackett": 4,
    "pfund": 5,
    "humphreys": 6,
}


def spectral_series(name: str, upto: int) -> list[tuple[int, float | None, float]]:
    """Wavelength table (n1, n2, lambda_nm) for a named series, plus the limit, by the measured Rydberg constant.

    Rows run n2 = n1+1 .. upto; the final row has n2 = None and carries the
    series limit n1^2/R.  Wavelengths above 200 nm are standard-air values.
    """
    key = name.lower()
    if key not in SPECTRAL_SERIES_NAMES:
        raise ValueError(f"unknown series {name!r}")
    n1 = SPECTRAL_SERIES_NAMES[key]
    if upto <= n1:
        raise ValueError("need upto > the series base level")
    rows: list[tuple[int, float | None, float]] = []
    for n2 in range(n1 + 1, upto + 1):
        rows.append((n1, n2, line_wavelength(n1, n2) * 1e9))
    lam_limit = n1 * n1 / RYDBERG_HYDROGEN_MEASURED
    if lam_limit > 200e-9:
        lam_limit /= _air_refractive_index(lam_limit)
    rows.append((n1, None, lam_limit * 1e9))
    return rows
