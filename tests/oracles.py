"""Slow or superseded routes kept as test oracles.

- ``matching_pairings`` enumerates the pairings that the closed-form counts
  of ``combinat.count_matching_pairings`` and ``prob.wick`` count.
- ``bernoulli`` is ``combinat.bernoulli`` before its tangent numbers: the
  memoized recurrence sum_{k<=m} binom(m+1, k) B_k = [m == 0] in
  ``Fraction`` arithmetic, a gcd at every step.  The tests hold the tangent
  route to it.
- ``format_value``, ``json_value`` and ``emit`` are the CLI table writer as
  it was before the typed writer: one isinstance chain per value, with
  numpy's scalar types named, and every CSV row through ``csv.writer``.
  The tests hold the current writer to these bytes.
- ``gradient``, ``hessian``, ``laplacian`` and ``spherical_laplacian`` are
  the per-point finite-difference routes of ``diffcalc`` before its one axis
  stencil: every stencil value is a separate call of f, and the Hessian
  evaluates the (i, j) and (j, i) mixed stencils separately
  (``hessian_raw_unsym``) and then symmetrizes.
- ``gradient_and_hessian`` and ``classify_critical`` are ``diffcalc``'s
  critical-point route before its one stencil block: the gradient from the
  first-difference kernel, then the Hessian from the axis stencil and the
  corners, three separate sampling passes, each point x with only its
  stepped coordinates set to x_i + h or x_i - h.  The tests hold the
  current route to these bits, signed zeros included.
- ``symmetric_eigen`` is ``linalg.symmetric_eigen`` as it was before its
  list kernel: the checks, the power-of-two scaling, the norm and the sort
  on numpy arrays.  With ``vectors`` (the default) it sweeps by the batched
  round-robin steps on arrays at every n >= 2, U^T rotated alongside (their
  pair order and rotation step are the library's ``_round_robin`` and
  ``_rotate``); without, by the scalar sweeps on lists, with no U, and
  returns None in its place.
  It sorts by numpy's stable argsort, where it used the default kind,
  whose order among equal eigenvalues depends on the sort kernel numpy
  picks for the CPU.  The tests hold both library routes to its bits, and
  ``classify_critical`` here takes its eigenvalues alone from it.
- ``legendre`` is the exact P_l by Rodrigues' formula, l-fold
  differentiation of (x^2 - 1)^l on ``Fraction`` polynomials: the reference
  for ``hydrogen.assoc_legendre``.
- ``laguerre`` and ``assoc_laguerre`` are the ``hydrogen`` families before
  their explicit sums: q applications of p -> p' - p to x^q, and the p-fold
  derivative of L_{p+q}, on ``Fraction`` polynomials.  The tests hold the
  explicit sums to these exact coefficients.
- ``radial_wavefunction`` is the ``hydrogen`` float function as it was
  before its inlined Horner loop: the rounded coefficients wrapped in a
  ``Polynomial`` and evaluated by its ``__call__``, times the library's one
  normalization (``hydrogen._root`` of the exact ratio).  The tests hold the
  generated function to these bits; the norm itself is held to 40 digits.
- ``simpson_density_rule`` is ``prob._density_rule`` before its Gauss
  rule: x = mid - half cos(u) with composite Simpson in u, the density
  sampled on the interior nodes and its endpoint values extrapolated
  quadratically.  The tests hold the current moments to it.
- ``sphere_moment_values`` is ``quad.sphere_moment_mc`` with each power by
  ``**`` on whole arrays.  It draws each block of 16,384 rows on one thread,
  block b from numpy's own ``Generator(Philox(seed).jumped(b))``: complex
  keys take ``standard_exponential((rows, N))``, with |z_i|^2 as
  E_i/E.sum() over the whole sample at once, and real keys make each
  block's draws with the library's calls (the used coordinates' normals,
  then the unused ones' chi-square variate) but normalize all of them at
  once.  It returns the per-sample values; the tests compare their mean and
  standard error.
- ``exact_sum`` is the exact sum of float terms rounded once, in integer
  arithmetic.  ``pi_leibnitz``, ``basel_sum``, ``riemann`` and ``trapezoid``
  build the terms of the ``series`` and ``quad`` routes on their own (the
  grids by ``np.linspace`` and numpy's array arithmetic, the series terms
  from integers) and sum them with it.  The tests hold the routes' sums,
  and ``combinat._fsum``, to these bits.
- ``set_partitions`` enumerates the partitions of {1..k} that
  ``combinat.bell`` counts.  ``poisson_moment`` is the k-th Poisson moment
  before the Touchard recurrence of ``prob.poisson_moments``: the sum of
  t^(number of blocks) over all Bell(k) set partitions of k, enumerated
  (4.2M partitions at k = 12).  The tests hold the recurrence to it.
- ``touchard_moments`` is the exact Poisson moment sum_b S(k, b) t^b in
  integers: the Stirling numbers from their own recurrence and t as its exact
  binary fraction, rounded to a float once.  It shares no step with
  ``prob.poisson_moments``' binomial recurrence, and holds it to 1e-13
  where its float route overflows.
- ``gaussian_fourier`` and ``poisson_fourier`` are the closed-form Fourier
  transforms that ``prob.law_fourier`` of the Gaussian and Poisson laws is
  held to.
- ``det_permutation_sum`` is the determinant by its definition, the signed
  sum over all n! permutations, that ``linalg.determinant`` is held to.
- ``ritz_combination_gap`` is |1/lambda_12 + 1/lambda_23 - 1/lambda_13| of
  ``hydrogen.line_wavelength`` in vacuum, algebraically zero.
"""

import cmath
import csv
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from calclab import hydrogen
from calclab.combinat import factorial, pairings, signature
from calclab.diffcalc import CriticalReport
from calclab.linalg import _rotate, _round_robin
from calclab.poly import Polynomial
from calclab.quad import _SPHERE_BLOCK


def matching_pairings(word: str):
    """Yield the pairings of a colored word that pair only 'o' with 'b' (0-based)."""
    for pairing in pairings(len(word)):
        if all(word[a - 1] != word[b - 1] for a, b in pairing):
            yield tuple((a - 1, b - 1) for a, b in pairing)


@lru_cache(maxsize=None)
def bernoulli(n):
    if n == 0:
        return Fraction(1)
    if n >= 3 and n % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    for k in range(n):
        total += math.comb(n + 1, k) * bernoulli(k)
    return -total / (n + 1)


def format_value(v, digits):
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (complex, np.complexfloating)):
        re = format_value(float(v.real), digits)
        im = format_value(abs(float(v.imag)), digits)
        sign = "+" if v.imag >= 0 else "-"
        return f"{re}{sign}{im}i"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.{17 if digits is None else digits}g}"
    return str(v)


def json_value(v, digits):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, Fraction):
        return format_value(v, digits)
    if isinstance(v, (complex, np.complexfloating)) and not isinstance(v, (float, np.floating)):
        return format_value(v, digits)
    if isinstance(v, (float, np.floating)):
        return float(v) if digits is None else float(f"{float(v):.{digits}g}")
    return str(v)


def emit(table, fmt, sink, digits=None):
    if fmt == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([format_value(v, digits) for v in row])
    else:
        payload = {
            "columns": table.columns,
            "rows": [[json_value(v, digits) for v in row] for row in table.rows],
            "note": table.note,
        }
        json.dump(payload, sink, indent=2)
        sink.write("\n")


def gradient(f, x, h):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def hessian_raw_unsym(f, x, h):
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.empty((n, n))
    fx = f(x)
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            if i == j:
                H[i, i] = (f(x + ei) - 2.0 * fx + f(x - ei)) / (h * h)
            else:
                H[i, j] = (
                    f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
                ) / (4.0 * h * h)
    return H


def hessian(f, x, h):
    H = hessian_raw_unsym(f, x, h)
    return 0.5 * (H + H.T)


def laplacian(f, x, h):
    x = np.asarray(x, dtype=float)
    fx = f(x)
    out = 0.0
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out += (f(x + e) - 2.0 * fx + f(x - e)) / (h * h)
    return out


def spherical_laplacian(f, r, s, t, h):
    """The spherical Laplacian with the step h as given (no 0.45 r cap)."""
    sin_s = math.sin(s)
    f_r = (f(r + h, s, t) - f(r - h, s, t)) / (2.0 * h)
    f_rr = (f(r + h, s, t) - 2.0 * f(r, s, t) + f(r - h, s, t)) / (h * h)
    f_s = (f(r, s + h, t) - f(r, s - h, t)) / (2.0 * h)
    f_ss = (f(r, s + h, t) - 2.0 * f(r, s, t) + f(r, s - h, t)) / (h * h)
    f_tt = (f(r, s, t + h) - 2.0 * f(r, s, t) + f(r, s, t - h)) / (h * h)
    radial = f_rr + 2.0 * f_r / r
    polar = (f_ss + (math.cos(s) / sin_s) * f_s) / (r * r)
    azimuthal = f_tt / (r * r * sin_s * sin_s)
    return radial + polar + azimuthal


def _sample(f, rows):
    return np.array([f(r) for r in rows], dtype=float)


def gradient_and_hessian(f, x, h=None):
    """(gradient, f(x), Hessian) with the default steps of diffcalc when h is None."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    eps = float(np.finfo(float).eps)
    h1 = h or eps ** (1.0 / 3.0) * (1.0 + float(np.abs(x).max()))
    h2 = h or eps**0.25 * (1.0 + float(np.abs(x).max()))

    def stepped(h, *moves):  # x with coordinate a at x_a + s h for each move (a, s)
        p = x.copy()
        for a, s in moves:
            p[a] = x[a] + h if s > 0 else x[a] - h
        return p

    vals = _sample(f, [stepped(h1, (a, s)) for s in (1, -1) for a in range(d)])
    g = (vals[:d] - vals[d:]) / (2.0 * h1)
    vals = _sample(f, [x] + [stepped(h2, (a, s)) for s in (1, -1) for a in range(d)])
    fx, up, down = vals[0], vals[1 : d + 1], vals[d + 1 :]
    H = np.diag((up - 2.0 * fx + down) / (h2 * h2))
    i = [a for a in range(d) for b in range(a + 1, d)]
    j = [b for a in range(d) for b in range(a + 1, d)]
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    corners = _sample(f, [stepped(h2, (a, s), (b, t)) for s, t in signs for a, b in zip(i, j)])
    pp, pm, mp, mm = corners.reshape(4, len(i))
    H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4.0 * h2 * h2)
    return g, float(fx), H


def classify_critical(f, x, h=None, grad_tol=1e-5, zero_band=1e-4):
    x = np.asarray(x, dtype=float)
    g, fx, H = gradient_and_hessian(f, x, h)
    gnorm = float(np.linalg.norm(g))
    _, eig = symmetric_eigen(H, tol=1e-12, vectors=False)
    if gnorm > grad_tol * (1.0 + abs(fx)):
        label = "not critical"
    else:
        band = zero_band * max(float(np.abs(eig).max()), 1e-30)
        pos = int(np.sum(eig > band))
        neg = int(np.sum(eig < -band))
        if pos + neg < len(eig):
            label = "degenerate"
        elif neg == 0:
            label = "minimum"
        elif pos == 0:
            label = "maximum"
        else:
            label = "saddle"
    return CriticalReport(tuple(x), gnorm, tuple(float(v) for v in eig), label)


def symmetric_eigen(A, tol=1e-12, vectors=True):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 0:
        return np.empty((0, 0)) if vectors else None, np.empty(0)
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    exponent = math.frexp(float(np.abs(A).max()))[1]
    A = np.ldexp(A, -exponent)
    norm = float(np.linalg.norm(A)) or 1.0
    if float(np.abs(A - A.T).max()) > tol * norm:
        raise ValueError("matrix is not symmetric to the working tolerance")
    work, bound = 0.5 * (A + A.T), 0.5 * (tol * norm) ** 2
    if not vectors:
        d, V = _scalar_sweeps(work, bound), None
    elif n > 1:
        d, V = _batched_sweeps(work, bound)
    else:
        d, V = work.diagonal().copy(), np.eye(n)
    order = np.argsort(-d, kind="stable")
    with np.errstate(over="ignore"):
        d = np.ldexp(d[order], exponent)
    if not np.isfinite(d).all():
        raise ArithmeticError("an eigenvalue overflows the float range")
    return V[order].T if vectors else None, d


def _scalar_sweeps(work, bound):
    n = work.shape[0]
    a = work.tolist()
    for _ in range(100):
        if sum(x * x for p in range(n - 1) for x in a[p][p + 1 :]) <= bound:
            break
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if apq == 0.0:
                    continue
                aq = a[q]
                app, aqq = ap[p], aq[q]
                e = aqq - app
                t = 2.0 * apq / (e + math.copysign(math.hypot(e, 2.0 * apq), e))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    ak = a[k]
                    akp, akq = ak[p], ak[q]
                    ak[p] = ap[k] = c * akp - s * akq
                    ak[q] = aq[k] = s * akp + c * akq
                ap[p], aq[q] = app - t * apq, aqq + t * apq
                ap[q] = aq[p] = 0.0
    else:
        raise ArithmeticError("Jacobi sweeps did not converge")
    return np.array([a[i][i] for i in range(n)])


def _batched_sweeps(work, bound):
    n = work.shape[0]
    steps = _round_robin(n)
    upper = np.triu_indices(n, 1)
    diag = work.diagonal()
    V = np.eye(n)
    k = len(steps[0][0])
    rows, cols = (np.empty((k, n)), np.empty((k, n))), (np.empty((n, k)), np.empty((n, k)))
    for _ in range(100):
        off = work[upper]
        if off @ off <= bound:
            break
        for PQ, QP, PP, QQ, signs in steps:
            apq = work[PP, QQ]
            e = signs * (diag[QQ] - diag[PP])
            den = e + np.copysign(np.hypot(e, 2.0 * apq), e)
            t = np.divide(2.0 * apq, den, out=np.zeros_like(apq), where=apq != 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            _rotate(work, 0, PQ, QP, c[:, None], s[:, None], *rows)
            _rotate(work, 1, PQ, QP, c, s, *cols)
            _rotate(V, 0, PQ, QP, c[:, None], s[:, None], *rows)
    else:
        raise ArithmeticError("Jacobi sweeps did not converge")
    return diag.copy(), V


@lru_cache(maxsize=None)
def legendre(l: int) -> Polynomial:
    """Legendre polynomial P_l with exact rational coefficients.

    Differentiation formula: P_l = ((d/dx)^l (x^2 - 1)^l)/(2^l l!), with the
    standard normalization P_l(1) = 1.
    """
    if l < 0:
        raise ValueError("need l >= 0")
    coeffs = [Fraction(0)] * (2 * l + 1)
    for j in range(l + 1):
        coeffs[2 * j] = Fraction((-1) ** (l - j) * math.comb(l, j))
    p = Polynomial(coeffs)
    for _ in range(l):
        p = p.deriv()
    return p.scale(Fraction(1, 2**l * factorial(l)))


@lru_cache(maxsize=None)
def laguerre(q: int) -> Polynomial:
    """Laguerre polynomial L_q with exact rational coefficients.

    Differentiation formula: L_q = e^x/q! (d/dx)^q (e^{-x} x^q); the
    exponential factors cancel through the product rule, realized here as q
    applications of p -> p' - p to the polynomial factor.
    """
    if q < 0:
        raise ValueError("need q >= 0")
    p = Polynomial([Fraction(0)] * q + [Fraction(1)])  # x^q
    for _ in range(q):
        p = p.deriv() - p  # d/dx (e^-x p) = e^-x (p' - p)
    return p.scale(Fraction(1, factorial(q)))


@lru_cache(maxsize=None)
def assoc_laguerre(p: int, q: int) -> Polynomial:
    """Associated Laguerre polynomial L_q^p = (-1)^p (d/dx)^p L_{p+q}."""
    if p < 0 or q < 0:
        raise ValueError("need p, q >= 0")
    out = laguerre(p + q)
    for _ in range(p):
        out = out.deriv()
    return out.scale(Fraction((-1) ** p))


def radial_wavefunction(n, l, constants=hydrogen.DIMENSIONLESS_CONSTANTS):
    a = hydrogen.bohr_radius(constants)
    lag = Polynomial([float(c) for c in hydrogen.assoc_laguerre(2 * l + 1, n - l - 1).coefficients])
    norm = hydrogen._root(Fraction((2.0 / (n * a)) ** 3) / (2 * n * math.perm(n + l, 2 * l + 1)), "rho")

    def rho(r):
        p = 2.0 * r / (n * a)
        try:
            e = math.exp(-p / 2.0)
        except OverflowError:  # at r < 0 only: the named error of the contract
            raise ValueError(f"rho_{n}_{l}: e^(-r/(na)) overflows the float range at r = {r!r}") from None
        try:
            value = norm * e * p**l * lag(p)
        except OverflowError:
            if e != 0.0:
                raise
            value = math.nan
        # The one place the generated code may differ: where e underflows to 0 and p**l or lag(p)
        # overflows, this formula raises or gives 0 * inf = nan, and the generated code returns 0
        # signed as the Laguerre factor.  That sign is checked in test_radial_wavefunction, not
        # here; everywhere else this formula is the independent reference.
        if e == 0.0 and math.isnan(value):
            return math.copysign(0.0, lag(p))
        return value

    return rho


def simpson_density_rule(law, nodes=8000):
    a, b = law.support
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = max(nodes + nodes % 2, 8)
    u = np.linspace(0.0, math.pi, nodes + 1)
    s = np.full(nodes + 1, 2.0)
    s[1::2] = 4.0
    s[0] = s[-1] = 1.0
    s *= math.pi / nodes / 3.0
    # v_0 = 3 (v_1 - v_2) + v_3 at either end, folded into the interior weights
    c = s[1:-1].copy()
    c[:3] += s[0] * np.array([3.0, -3.0, 1.0])
    c[-3:] += s[-1] * np.array([1.0, -3.0, 3.0])
    x = mid - half * np.cos(u[1:-1])
    density = np.array([law.density(t) for t in x.tolist()])
    return x, c * half * np.sin(u[1:-1]) * density


def set_partitions(k):
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


def poisson_moment(t, k):
    return float(sum(t ** len(p) for p in set_partitions(k)))


def touchard_moments(t, orders):
    """{k: sum_b S(k, b) t^b rounded once} for each k in orders."""
    p, q = t.as_integer_ratio()  # q = 2^e
    e = q.bit_length() - 1
    row, out = [1], {}  # S(j, 0..j), from S(j + 1, b) = b S(j, b) + S(j, b - 1)
    for k in range(max(orders) + 1):
        if k in orders:  # t^b = p^b / 2^(e b), over the common denominator 2^(e k)
            total = sum((s * p**b) << (e * (k - b)) for b, s in enumerate(row))
            out[k] = total / (1 << (e * k))
        row = [b * s + prev for b, (s, prev) in enumerate(zip(row + [0], [0] + row))]
    return out


def sphere_moment_values(key, samples, rng):
    used = [i for i, k in enumerate(key.exponents) if k]
    rest = key.dimension - len(used)
    draws, normals, chi2 = [], [], []
    for b, start in enumerate(range(0, samples, _SPHERE_BLOCK)):
        rows = min(_SPHERE_BLOCK, samples - start)
        gen = np.random.Generator(np.random.Philox(rng.seed).jumped(b))
        if key.field == "complex":
            draws.append(gen.standard_exponential((rows, key.dimension)))
            continue
        normals.append(gen.standard_normal((rows, len(used))))
        if rest == 1:
            chi2.append(gen.standard_normal(rows) ** 2)
        elif rest:
            chi2.append(2.0 * gen.standard_gamma(rest / 2, rows))
    if key.field == "complex":
        e = np.concatenate(draws)
        points = e / e.sum(axis=1, keepdims=True)
    else:
        g = np.concatenate(normals)
        s = (g**2).sum(axis=1)
        if rest:
            s = s + np.concatenate(chi2)
        points = np.zeros((samples, key.dimension))
        points[:, used] = g / np.sqrt(s)[:, None]
    values = np.ones(samples)
    for i, k in enumerate(key.exponents):
        if k:
            values = values * points[:, i] ** k
    return values


def exact_sum(terms):
    """The exact sum of finite float terms, rounded once: a float n/d has d = 2^j with j <= 1074,
    so it is n 2^(1074 - j) / 2^1074, and the sum is one Fraction over 2^1074."""
    return float(Fraction(sum(n << 1075 - d.bit_length() for n, d in map(float.as_integer_ratio, terms)), 1 << 1074))


def pi_leibnitz(terms):
    return 4.0 * exact_sum([(-1) ** k / (2 * k + 1) for k in range(terms)]), 4.0 / (2 * terms + 1)


def basel_sum(terms):
    return exact_sum([1 / k**2 for k in range(1, terms + 1)])


def _values(f, x):
    return np.fromiter(map(f, x.tolist()), float, count=len(x))


def riemann(f, a, b, N):
    x = a + (b - a) * np.arange(1, N + 1) / N
    return (b - a) / N * exact_sum(_values(f, x).tolist())


def trapezoid(f, a, b, N):
    x = np.linspace(a, b, N + 1)
    y = _values(f, x)
    return exact_sum((np.diff(x) * (y[1:] + y[:-1]) / 2.0).tolist())


def gaussian_fourier(t, x):
    """exp(-t x^2/2)."""
    if not t > 0:
        raise ValueError("need t > 0")
    return math.exp(-t * x * x / 2.0)


def poisson_fourier(t, y):
    """exp((e^{iy} - 1) t)."""
    if not t > 0:
        raise ValueError("need t > 0")
    return cmath.exp((cmath.exp(1j * y) - 1.0) * t)


def det_permutation_sum(A):
    """The signed sum over all n! permutations."""
    A = np.asarray(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    total = 0
    for perm in itertools.permutations(range(1, n + 1)):
        term = signature(perm)
        for i in range(n):
            term = term * A[i, perm[i] - 1]
        total += term
    return total


def ritz_combination_gap(n1, n2, n3):
    """|1/lambda_12 + 1/lambda_23 - 1/lambda_13| on vacuum wavelengths."""
    if not n1 < n2 < n3:
        raise ValueError("need n1 < n2 < n3")
    l12 = hydrogen.line_wavelength(n1, n2, medium="vacuum")
    l23 = hydrogen.line_wavelength(n2, n3, medium="vacuum")
    l13 = hydrogen.line_wavelength(n1, n3, medium="vacuum")
    return abs(1.0 / l12 + 1.0 / l23 - 1.0 / l13)
