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
"""

import csv
import json
import math
from fractions import Fraction

import numpy as np

from calclab.combinat import pairings


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
