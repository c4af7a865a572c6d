"""Orthogonal polynomial families and the hydrogen atom.

Legendre and Laguerre polynomials are built from their explicit sums (DLMF
18.5(iv)) in exact rational arithmetic, spherical harmonics carry explicit
quadrature-validated normalization, and the energy levels, Rydberg lines and
wavefunctions follow from a pluggable physical-constants object.

The float functions ``assoc_legendre`` and ``radial_wavefunction`` round
the exact coefficients to float once per (l, m) or (n, l) and generate one
straight-line function from them: an unrolled Horner evaluation (Knuth,
TAOCP vol. 2, 4.6.4) whose coefficients and prefactors are ``repr``
literals, compiled by ``calclab._codegen``, the generator that also builds
``diffcalc``'s derivatives kernels and ``linalg``'s n <= 3 Jacobi.  Building
one costs about 0.1 ms where a closure over a loop costs 0.01 ms, and pays back
after about 500 calls, as no call runs a loop.  The Horner steps are
``Polynomial.__call__``'s operations in its order and the prefactors are
applied in the order of the formulas below, so every finite x, and every
finite r whose p = 2r/(na) is finite, gives the same bits as the Polynomial
route on the rounded coefficients.  The result is a plain function: it
cannot be pickled, and ``inspect.getsource`` finds no source for it.  The
functions stay scalar: an array route would evaluate ``exp`` and powers
through numpy, whose results differ from ``math``'s in the last bit on some
inputs, and would change the printed tables.

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
from functools import lru_cache
from typing import Callable

from ._codegen import compile_function as _compile
from ._record import Record
from .combinat import factorial
from .poly import Polynomial

__all__ = [
    "PhysicalConstants",
    "BOOK_CONSTANTS",
    "DIMENSIONLESS_CONSTANTS",
    "RYDBERG_HYDROGEN_MEASURED",
    "QuantumNumbers",
    "legendre",
    "assoc_legendre",
    "spherical_harmonic",
    "laguerre",
    "assoc_laguerre",
    "BohrEnergy",
    "bohr_energy",
    "rydberg_constant",
    "line_wavelength",
    "ritz_combination_gap",
    "bohr_radius",
    "radial_wavefunction",
    "wavefunction",
    "spectral_series",
    "air_refractive_index",
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


@lru_cache(maxsize=None)
def legendre(l: int) -> Polynomial:
    """Legendre polynomial P_l with exact rational coefficients.

    Explicit sum: P_l = 2^-l sum_k (-1)^k C(l, k) C(2l-2k, l) x^(l-2k), with
    the standard normalization P_l(1) = 1.  (The unit-L^2-norm normalization
    is a different convention; spherical harmonics carry their own explicit
    constant.)
    """
    if l < 0:
        raise ValueError("need l >= 0")
    coeffs = [Fraction(0)] * (l + 1)
    for k in range(l // 2 + 1):
        coeffs[l - 2 * k] = Fraction((-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l), 2**l)
    return Polynomial(coeffs)


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
    """Legendre function P_l^m(x) = (-1)^m (1-x^2)^(m/2) (d/dx)^m P_l(x).

    (d/dx)^m takes c_j x^j to c_j j!/(j-m)! x^(j-m).  Negative m uses |m| with
    the phase absorbed into the spherical-harmonic normalization.
    """
    if l < 0:
        raise ValueError("need l >= 0")
    m = abs(m)
    if m > l:
        raise ValueError("need |m| <= l")
    dpl = [c * math.perm(j, m) for j, c in enumerate(legendre(l).coefficients)][m:]
    return _compile(
        __name__,
        f"assoc_legendre.<locals>.plm_{l:d}_{m:d}",
        f"P_l^m(x) for l = {l:d}, m = {m:d}; generated by assoc_legendre.",
        "x",
        _horner(dpl, "x")
        # max(y, 0.0) keeps a NaN y, which max(0.0, y) would turn into 0.0
        + f"    return {(-1.0) ** m!r} * max(1.0 - x * x, 0.0) ** {m / 2.0!r} * acc\n",
    )


def spherical_harmonic(l: int, m: int) -> Callable[[float, float], complex]:
    """Unit-normalized separated angular eigenfunction (s, t) -> C.

    Y(s, t) = N P_l^|m|(cos s) e^(imt) with N chosen so that the squared
    modulus integrates to 1 against sin(s) ds dt over the full sphere.
    """
    qn = QuantumNumbers(l + 1, l, m)  # validates the (l, m) pair
    plm = assoc_legendre(l, abs(m))
    norm = math.sqrt(
        (2 * l + 1)
        / (4.0 * math.pi)
        * factorial(l - abs(m))
        / factorial(l + abs(m))
    )

    def Y(s: float, t: float) -> complex:
        return norm * plm(math.cos(s)) * complex(math.cos(m * t), math.sin(m * t))

    return Y


@lru_cache(maxsize=None)
def laguerre(q: int) -> Polynomial:
    """Laguerre polynomial L_q = L_q^0 with exact rational coefficients (see :func:`assoc_laguerre`)."""
    if q < 0:
        raise ValueError("need q >= 0")
    return assoc_laguerre(0, q)


@lru_cache(maxsize=None)
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


def air_refractive_index(wavelength_vacuum_m: float) -> float:
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
        lam /= air_refractive_index(lam)
    return lam


def ritz_combination_gap(n1: int, n2: int, n3: int) -> float:
    """|1/lambda_12 + 1/lambda_23 - 1/lambda_13| on vacuum wavelengths.

    Algebraically zero by the additivity of the inverse-wavelength law.
    """
    if not n1 < n2 < n3:
        raise ValueError("need n1 < n2 < n3")
    l12 = line_wavelength(n1, n2, medium="vacuum")
    l23 = line_wavelength(n2, n3, medium="vacuum")
    l13 = line_wavelength(n1, n3, medium="vacuum")
    return abs(1.0 / l12 + 1.0 / l23 - 1.0 / l13)


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

    rho_nl(r) = sqrt((2/(na))^3 (n-l-1)!/(2n (n+l)!)) e^(-r/(na))
    (2r/(na))^l L_{n-l-1}^{2l+1}(2r/(na)), normalized so that the radial
    density rho^2 r^2 integrates to 1.  Where the float square of the norm is
    not normal (n + l >= 170, large l) the square is an exact ratio; a nonzero
    root below the normal range raises ValueError.  Where e^(-r/(na)) underflows
    rho is 0 signed as the Laguerre factor; before, 2r/(na) < 1491 and
    (2r/(na))^l is finite for l <= 97 (OverflowError may come beyond).
    """
    QuantumNumbers(n, l, 0)
    a = bohr_radius(constants)
    na = n * a
    norm2 = (2.0 / na) ** 3 * factorial(n - l - 1) / (2.0 * n * factorial(n + l)) if n + l <= 170 else 0.0
    if sys.float_info.min <= norm2 < math.inf:
        norm = math.sqrt(norm2)
    else:  # (n-l-1)!/(n+l)! = 1/perm(n+l, 2l+1); sqrt(q 4^k) 2^-k rounds q 4^k, not q
        q = Fraction((2.0 / na) ** 3) / (2 * n * math.perm(n + l, 2 * l + 1))
        k = (q.denominator.bit_length() - q.numerator.bit_length()) // 2
        norm = math.ldexp(math.sqrt(q * Fraction(4) ** k), -k)
        if q and norm < sys.float_info.min:
            raise ValueError(f"the normalization of rho_{n}_{l} is below the float range")
    # p**0 == 1.0 and y * 1.0 == y, p**1 == p: both folds keep every bit
    power = {0: "", 1: " * p"}.get(l, f" * p**{l:d}")
    return _compile(
        __name__,
        f"radial_wavefunction.<locals>.rho_{n:d}_{l:d}",
        f"rho_nl(r) for n = {n:d}, l = {l:d}, a = {a!r}; generated by radial_wavefunction.",
        "r",
        f"    p = 2.0 * r / {na!r}\n    e = exp(-p / 2.0)\n"
        + _horner(assoc_laguerre(2 * l + 1, n - l - 1).coefficients, "p")
        + f"    return {norm!r} * e{power} * acc if e else copysign(0.0, acc)\n",
        copysign=math.copysign,
        exp=math.exp,
        inf=math.inf,  # a constants object can make n*a overflow: its repr is inf
    )


def wavefunction(
    qn: QuantumNumbers, constants: PhysicalConstants = DIMENSIONLESS_CONSTANTS
) -> Callable[[float, float, float], complex]:
    """Full bound-state wavefunction (r, s, t) -> rho_nl(r) Y_l^m(s, t)."""
    rho = radial_wavefunction(qn.n, qn.l, constants)
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


def spectral_series(
    name: str, upto: int, constants: PhysicalConstants | None = None
) -> list[tuple[int, float | None, float]]:
    """Wavelength table (n1, n2, lambda_nm) for a named series, plus the limit.

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
        rows.append((n1, n2, line_wavelength(n1, n2, constants) * 1e9))
    R = RYDBERG_HYDROGEN_MEASURED if constants is None else rydberg_constant(constants)
    lam_limit = n1 * n1 / R
    if lam_limit > 200e-9:
        lam_limit /= air_refractive_index(lam_limit)
    rows.append((n1, None, lam_limit * 1e9))
    return rows
