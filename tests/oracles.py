"""Slow or superseded routes kept as test oracles.

- ``matching_pairings`` enumerates the pairings that the closed-form counts
  of ``combinat.count_matching_pairings`` and ``prob.wick`` count.
- ``format_value``, ``json_value`` and ``emit`` are the CLI table writer as
  it was before the typed writer: one isinstance chain per value, with
  numpy's scalar types named, and every CSV row through ``csv.writer``.
  The tests hold the current writer to these bytes.
"""

import csv
import json
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
