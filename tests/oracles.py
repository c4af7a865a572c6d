"""Slow or superseded routes kept as test oracles.

- ``matching_pairings`` enumerates the pairings that the closed-form counts
  of ``combinat.count_matching_pairings`` and ``prob.wick`` count.
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
  corners, three separate sampling passes built with ``np.eye``.  The tests
  hold the current route to these bits, signed zeros included.
- ``assoc_legendre`` and ``radial_wavefunction`` are the ``hydrogen`` float
  functions as they were before their inlined Horner loops: the rounded
  coefficients wrapped in a ``Polynomial`` and evaluated by its
  ``__call__``.  The tests hold the current closures to these bits.
- ``simpson_density_rule`` is ``prob._density_rule`` before its Gauss
  rule: x = mid - half cos(u) with composite Simpson in u, the density
  sampled on the interior nodes and its endpoint values extrapolated
  quadratically.  The tests hold the current moments to it.
- ``sphere_moment_values`` is ``quad.sphere_moment_mc`` before its blocked
  draws: the whole sample of ``sample_real_sphere`` or
  ``sample_complex_sphere`` at once, |z_i|^2 as ``abs()**2`` of the
  normalized complex points, and each power by ``**``.  It returns the
  per-sample values; the tests compare their mean and standard error.
- ``pi_leibnitz``, ``basel_sum``, ``riemann`` and ``trapezoid`` are the
  ``series`` and ``quad`` routes as they were on numpy: the terms as an
  array, ``np.sum``, ``np.linspace`` and ``np.trapezoid``.  The tests hold
  the Python routes, with their pairwise sum and linspace, to these bits.
- ``poisson_moment`` is ``prob.poisson_moment`` before the Touchard
  recurrence: the sum of t^(number of blocks) over all Bell(k) set
  partitions of k, enumerated (4.2M partitions at k = 12).  The tests hold
  the recurrence to it.
"""

import csv
import json
import math
from fractions import Fraction

import numpy as np

from calclab import hydrogen
from calclab.combinat import factorial, pairings, set_partitions
from calclab.diffcalc import CriticalReport
from calclab.linalg import symmetric_eigen
from calclab.poly import Polynomial
from calclab.quad import sample_complex_sphere, sample_real_sphere


def matching_pairings(word: str):
    """Yield the pairings of a colored word that pair only 'o' with 'b' (0-based)."""
    for pairing in pairings(len(word)):
        if all(word[a - 1] != word[b - 1] for a, b in pairing):
            yield tuple((a - 1, b - 1) for a, b in pairing)


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
    step = h1 * np.eye(d)[:, None, :]
    vals = _sample(f, np.concatenate([x[None, :] + step, x[None, :] - step]).reshape(-1, d))
    g = (vals[:d] - vals[d:]) / (2.0 * h1)
    step = h2 * np.eye(d)
    vals = _sample(f, np.concatenate([x[None, :], x + step, x - step]))
    fx, up, down = vals[0], vals[1 : d + 1], vals[d + 1 :]
    H = np.diag((up - 2.0 * fx + down) / (h2 * h2))
    i = [a for a in range(d) for b in range(a + 1, d)]
    j = [b for a in range(d) for b in range(a + 1, d)]
    ei, ej = step[i], step[j]
    corners = _sample(f, np.concatenate([x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej]))
    pp, pm, mp, mm = corners.reshape(4, len(i))
    H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4.0 * h2 * h2)
    return g, float(fx), H


def classify_critical(f, x, h=None, grad_tol=1e-5, zero_band=1e-4):
    x = np.asarray(x, dtype=float)
    g, fx, H = gradient_and_hessian(f, x, h)
    gnorm = float(np.linalg.norm(g))
    _, eig = symmetric_eigen(H, tol=1e-12)
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


def assoc_legendre(l, m):
    m = abs(m)
    dpl = hydrogen.legendre(l)
    for _ in range(m):
        dpl = dpl.deriv()
    dpl_f = Polynomial([float(c) for c in dpl.coefficients])
    sign = (-1.0) ** m

    def plm(x):
        return sign * (max(0.0, 1.0 - x * x)) ** (m / 2.0) * dpl_f(x)

    return plm


def radial_wavefunction(n, l, constants=hydrogen.DIMENSIONLESS_CONSTANTS):
    a = hydrogen.bohr_radius(constants)
    lag = Polynomial([float(c) for c in hydrogen.assoc_laguerre(2 * l + 1, n - l - 1).coefficients])
    norm = math.sqrt(
        (2.0 / (n * a)) ** 3 * factorial(n - l - 1) / (2.0 * n * factorial(n + l))
    )

    def rho(r):
        p = 2.0 * r / (n * a)
        e = math.exp(-p / 2.0)
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


def poisson_moment(t, k):
    return float(sum(t ** len(p) for p in set_partitions(k)))


def sphere_moment_values(key, samples, rng):
    if key.field == "real":
        points = sample_real_sphere(key.dimension, samples, rng)
    else:
        points = sample_complex_sphere(key.dimension, samples, rng)
    values = np.ones(points.shape[0])
    for i, k in enumerate(key.exponents):
        if k == 0:
            continue
        col = np.abs(points[:, i]) ** 2 if key.field == "complex" else points[:, i]
        values = values * col**k
    return values


def pi_leibnitz(terms):
    signs = np.ones(terms)
    signs[1::2] = -1.0
    return 4.0 * float(np.sum(signs / np.arange(1, 2 * terms, 2))), 4.0 / (2 * terms + 1)


def basel_sum(terms):
    k = np.arange(terms, 0, -1, dtype=np.float64)
    return float(np.sum(1.0 / (k * k)))


def _values(f, x):
    return np.fromiter(map(f, x.tolist()), float, count=len(x))


def riemann(f, a, b, N):
    x = a + (b - a) * np.arange(1, N + 1) / N
    return float((b - a) / N * _values(f, x).sum())


def trapezoid(f, a, b, N):
    x = np.linspace(a, b, N + 1)
    return float(np.trapezoid(_values(f, x), x))
