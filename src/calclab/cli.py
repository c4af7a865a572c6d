"""Unified command-line front end.

One binary with verb-style subcommands dispatching into the library and
emitting CSV (default) or JSON tables.  Numbers are written with full
round-trip precision unless --digits is given; exact rationals print as
p/q, and numpy scalars as the Python numbers they stand for.  Exit codes:
0 success, 1 usage error (out-of-range counts and input files that cannot
be read included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import math
import numbers
import sys
from fractions import Fraction
from typing import Sequence

from ._record import Record, _refuse

# Each subcommand imports the modules it uses inside its _cmd_* function, so a
# process pays only for its own command: the exact ones never load numpy.

__all__ = ["main", "ResultTable", "run"]


class ResultTable(Record):
    __slots__ = ("columns", "rows", "note")

    def __init__(self, columns: list[str], rows: list[tuple], note: str = ""):
        if set(map(len, rows)) - {len(columns)}:
            raise ValueError("rows must match the column count")
        self._set(columns, rows, note)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


# characters that make some Python version's csv module quote a field or
# reject it; text holding none of them is written as it is
_CSV_SPECIAL = frozenset(',"\r\n\x00')


def _csv_text(text: str) -> str:
    """A text cell, quoted as the csv module quotes it."""
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    if "\r" not in text and "\x00" not in text:
        # ',', '"' and "\n" make every version quote the field and double its quotes
        return '"' + text.replace('"', '""') + '"'
    import csv  # versions differ on "\r" and NUL

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


# A value of a type the formatter tables lack is converted by the first entry
# whose class it is an instance of, or else by str.  numpy registers its
# scalars with the numbers ABCs (np.int64 is Integral, np.float32 Real,
# np.complex128 Complex), so they print as the Python numbers do without
# numpy being imported here.
_PLAIN = ((Fraction, Fraction), (numbers.Integral, int), (numbers.Real, float), (numbers.Complex, complex))


def _formatters(fmt: str, digits: int | None):
    """The format's formatters by exact type, the fallback for every other type, and the
    ``%``-template of one float cell, which is also the float formatter."""
    cell = "%%.%dg" % (17 if digits is None else digits)
    real = cell.__mod__

    def complex_text(z: complex) -> str:
        return f"{real(z.real)}{'+' if z.imag >= 0 else '-'}{real(abs(z.imag))}i"

    if fmt == "csv":
        by_type = {
            type(None): lambda v: "",
            bool: {True: "true", False: "false"}.__getitem__,
            int: str,
            float: real,
            str: _csv_text,
        }
    else:
        same = lambda v: v
        by_type = {type(None): same, bool: same, int: same, str: same}
        by_type[float] = same if digits is None else lambda v: float(real(v))
    by_type.update({Fraction: str, complex: complex_text})

    def other(v):
        plain = next((plain for kind, plain in _PLAIN if isinstance(v, kind)), str)
        return by_type[plain](plain(v))

    return by_type, other, cell


def emit(table: ResultTable, fmt: str, sink, digits: int | None = None) -> None:
    """Write the table as CSV or JSON; any other format is a ValueError.

    A CSV row whose cells are all exact floats and ints is written by one
    ``%``-template per type signature (``%.17g``, or ``%.<digits>g``, and
    ``%d``), built once per table, and the lines go to the sink in chunks
    of at most 512.  Every other value's formatter is looked up by its exact
    type in one table per format; a value of any other type (numpy scalars,
    subclasses) is turned once into the Python number or text it stands for
    and looked up again.  Exact integers print in full: the interpreter's
    limit on int-to-string digits is lifted while the table is written.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    formatters, other, real_cell = _formatters(fmt, digits)
    get = formatters.get
    # 0 where the interpreter has no such limit (before 3.10.7) or it is already off
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "csv":
            lone = len(table.columns) == 1
            write = sink.write
            # the csv module quotes a lone empty field, so that the row is not blank
            header = ",".join(map(_csv_text, table.columns))
            write('""\n' if lone and not header else header + "\n")
            cell = {float: real_cell, int: "%d"}
            templates = {}  # a row's cell types -> its %-template, or None for the formatters
            lines = []
            for row in table.rows:
                # exact-size: tuple(map(...)) shrinks a 10-slot tuple per row, and the shrunk
                # tuples fill the interpreter's free list (+0.3 MB peak RSS on the benchmark)
                kinds = (*map(type, row),)
                try:
                    template = templates[kinds]
                except KeyError:
                    known = cell.keys() >= set(kinds)
                    template = templates[kinds] = ",".join(map(cell.get, kinds)) + "\n" if known else None
                if template:
                    lines.append(template % tuple(row))
                else:
                    line = ",".join([get(type(v), other)(v) for v in row])
                    lines.append('""\n' if lone and not line else line + "\n")
                if len(lines) == 512:
                    write("".join(lines))
                    lines.clear()
            write("".join(lines))
        else:
            import json

            payload = {
                "columns": table.columns,
                "rows": [[get(type(v), other)(v) for v in row] for row in table.rows],
                "note": table.note,
            }
            json.dump(payload, sink, indent=2)
            sink.write("\n")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _finite_float(text: str) -> float:
    """The parse type of every float option and coordinate: NaN and +/-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _floats(text: str) -> list[float]:
    """A comma list of finite numbers (also parsed by _cmd_critical, where the count depends on --fn)."""
    try:
        return [_finite_float(v) for v in text.split(",") if v.strip() != ""]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of finite numbers") from None


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError:
        raise _UsageError(f"{text!r} is not a number like 1+2i") from None


def _point(text: str) -> tuple[float, ...]:
    """The parse type of --center: three finite coordinates x,y,z."""
    point = tuple(_floats(text))
    if len(point) != 3:
        raise argparse.ArgumentTypeError("needs 3 coordinates x,y,z")
    return point


def _grid(text: str) -> list[float] | tuple[float, float, int]:
    """The parse type of stieltjes --x: a comma list, or (start, stop, count) of start:stop:count with count
    >= 1 and a finite span, unbuilt (a _UsageError, which argparse passes on as it is, names the option)."""
    if ":" not in text:
        return _floats(text)
    try:
        a, b, n = text.split(":")
        a, b, n = _finite_float(a), _finite_float(b), int(n)
    except (ValueError, argparse.ArgumentTypeError):
        raise _UsageError(f"--x grid {text!r} is not start:stop:count with finite ends") from None
    if n < 1:
        raise _UsageError("--x grid count must be at least 1")
    if not math.isfinite(b - a):
        raise _UsageError(f"--x grid {text!r} spans more than the largest float")
    return a, b, n


def _radial_grid(text: str) -> tuple[float, int]:
    """The parse type of --grid: rmax,steps with a finite rmax > 0 and steps >= 1."""
    try:
        rmax, steps = text.split(",")
        rmax, steps = float(rmax), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not rmax,steps") from None
    if not (0 < rmax < math.inf) or steps < 1:
        raise argparse.ArgumentTypeError("needs a finite rmax > 0 and steps >= 1")
    return rmax, steps


def _int(text: str) -> int:
    """int(text), refused in argparse's words for int, which would name this type's function."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _natural(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is below 0")
    return value


def _exponents(text: str) -> tuple[int, ...]:
    """The parse type of sphere --key: a comma list of exponents >= 0."""
    try:
        return tuple(map(_natural, text.split(",")))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of exponents >= 0") from None


def _check_span(args) -> None:
    """Usage error naming --a and --b where the interval's length b - a overflows."""
    if not math.isfinite(args.b - args.a):
        raise _UsageError(f"--a {args.a!r} to --b {args.b!r} spans more than the largest float")


def _read_csv(path: str, option: str) -> list[list[str]]:
    """The nonblank rows of a CSV file; a file that cannot be read is a usage error naming the option."""
    import csv

    try:
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise _UsageError(f"cannot read {option} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {option} {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# ---------------------------------------------------------------- builtins

_INTEGRANDS = {
    "square": lambda x: x * x,
    "cube": lambda x: x**3,
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "gauss": lambda x: math.exp(-x * x),
    "abs_sin_120": lambda x: abs(math.sin(120.0 * x)),
    "runge": lambda x: 1.0 / (1.0 + 25.0 * x * x),
}


def _log_r(v) -> float:
    if not (r := math.hypot(v[0], v[1])):
        raise ValueError(f"log_r = log r has no value at {tuple(v)}, where r = 0")
    return math.log(r)


def _inv_r(v) -> float:
    if not (r2 := v[0] ** 2 + v[1] ** 2 + v[2] ** 2):  # also where the squares underflow
        raise ValueError(f"inv_r = 1/r has no value at {tuple(v)}, where r^2 rounds to 0")
    return 1.0 / math.sqrt(r2)


_FIELDS = {
    "bowl": (lambda v: v[0] * v[0] + v[1] * v[1], 2),
    "saddle": (lambda v: v[0] ** 2 - v[1] ** 2, 2),
    "cubic": (lambda v: v[0] ** 3, 1),
    "xy": (lambda v: v[0] * v[1], 2),
    "re_z3": (lambda v: v[0] ** 3 - 3.0 * v[0] * v[1] ** 2, 2),
    "log_r": (_log_r, 2),
    "inv_r": (_inv_r, 3),
}

_PROFILES = {
    "gaussian": lambda a, b: (lambda x: math.exp(-(((x - (a + b) / 2) / ((b - a) / 20.0)) ** 2) / 2.0)),
    "sine": lambda a, b: (lambda x: math.sin(2.0 * math.pi * (x - a) / (b - a))),
    "step": lambda a, b: (
        lambda x: 1.0 if (a + (b - a) / 3.0) <= x <= (a + 2.0 * (b - a) / 3.0) else 0.0
    ),
}


# ------------------------------------------------------------- subcommands


def _cmd_sequence(args) -> ResultTable:
    from . import combinat

    makers = {
        "factorial": combinat.factorial,
        "catalan": combinat.catalan,
        "central": combinat.central_binomial,
        "middle": combinat.middle_binomial,
        "bernoulli": combinat.bernoulli,
    }
    if args.kind == "bell":
        rows = list(enumerate(combinat.bell_numbers(args.n)))
    else:
        rows = [(k, makers[args.kind](k)) for k in range(args.n + 1)]
    return ResultTable(["index", "value"], rows, note=f"{args.kind} sequence")


def _cmd_constants(args) -> ResultTable:
    from . import series

    if args.which == "e":
        value, bound = series.eval_series(series.exp_series(), 1.0, args.terms)
    elif args.which == "pi":
        value, bound = series.pi_leibnitz(args.terms)
    else:
        value, bound = series.basel_sum_corrected(args.terms)
    return ResultTable(
        ["constant", "value", "error_bound"],
        [(args.which, value, bound)],
        note="series evaluation with truncation bound",
    )


def _cmd_roots(args) -> ResultTable:
    from .poly import Polynomial, all_roots

    coeffs = [_parse_complex(c) for c in args.coeffs.split(",")]
    poly = Polynomial(coeffs)
    roots = all_roots(poly, tol=1e-12)
    rows = [(i, r, abs(poly(r))) for i, r in enumerate(roots)]
    return ResultTable(["index", "root", "residual"], rows, note="simultaneous-iteration roots")


def _cmd_eig(args) -> ResultTable:
    from . import linalg

    rows = [[_parse_complex(v) for v in line] for line in _read_csv(args.matrix, "--matrix")]
    if len({len(row) for row in rows}) != 1:
        problem = "its rows differ in length" if rows else "it has no rows"
        raise _UsageError(f"cannot read --matrix {args.matrix}: {problem}")
    if any(v.imag for row in rows for v in row):
        raise ValueError("eig handles real symmetric matrices only")
    d = linalg._jacobi([[v.real for v in row] for row in rows], 1e-10, vectors=False)[0]
    return ResultTable(["index", "eigenvalue"], list(enumerate(d)), note="cyclic Jacobi diagonalization")


def _cmd_integrate(args) -> ResultTable:
    from . import quad
    from .rng import RandomSource

    _check_span(args)
    f = _INTEGRANDS[args.fn]
    if args.method != "mc":
        value, err = getattr(quad, args.method)(f, args.a, args.b, args.n), None
    elif args.seed is None:
        raise _UsageError("--seed is required for Monte Carlo integration")
    else:
        value, err = quad.monte_carlo(f, args.a, args.b, args.n, RandomSource(args.seed))
    return ResultTable(
        ["quantity", "value", "error"],
        [(f"integral[{args.fn}]", value, err)],
        note=f"{args.method} rule on [{args.a}, {args.b}]",
    )


def _cmd_sphere(args) -> ResultTable:
    from . import quad

    if args.what != "moment":
        closed_form, note = {
            "volume": (quad.sphere_volume, "unit-ball volume closed form"),
            "area": (quad.sphere_area, "unit-sphere area closed form"),
        }[args.what]
        row = (f"{args.what}[{args.dim}]", closed_form(args.dim), None)
    elif args.key is None:
        raise _UsageError("--key is required for sphere moments")
    elif len(args.key) != args.dim:
        raise _UsageError("--key length must equal --dim")
    else:
        key = quad.SphereMomentKey(args.key, field="complex" if args.complex else "real")
        row = (f"moment{args.key}", quad.sphere_moment(key), None)
        note = "polynomial sphere moment closed form"
    return ResultTable(["quantity", "value", "error"], [row], note=note)


def _cmd_law(args) -> ResultTable:
    from . import prob

    name = args.name
    K = args.moments
    note = f"moments of the {name} law"
    if name in ("bernoulli", "binomial"):
        law = prob.bernoulli_law(args.x) if name == "bernoulli" else prob.binomial_law(args.x, args.count)
        ms = prob.moments(law, K)
    elif name == "poisson":
        ms = prob.poisson_moments(args.t, K)
    elif name == "gauss":
        ms = [prob.gaussian_moment(args.t, k) for k in range(K + 1)]
    elif name == "cgauss":
        ms = [prob.complex_gaussian_moment(args.t, "ob" * k) for k in range(K + 1)]
        note = "complex normal moments of the uniform word (ob)^k"
    else:
        ms = [prob.BUILTIN_MOMENTS[name](k) for k in range(K + 1)]
    rows = [(k, m) for k, m in enumerate(ms)]
    return ResultTable(["order", "moment"], rows, note=note)


def _cmd_stieltjes(args) -> ResultTable:
    from . import prob, quad

    xs = quad._linspace(*args.x) if isinstance(args.x, tuple) else args.x
    rows = [(x, prob.stieltjes_density(args.law, x, args.t)) for x in xs]
    return ResultTable(["x", "density"], rows, note=f"pointwise inversion at height t={args.t}")


def _cmd_snchi(args) -> ResultTable:
    from . import prob
    from .rng import RandomSource

    rng = RandomSource(args.seed) if args.seed is not None else None
    if args.n > 9 and rng is None:
        raise _UsageError("--seed is required for sampled permutation statistics (n > 9)")
    result = prob.sn_fixed_point_law(args.n, args.t, rng=rng)
    rows = [(int(loc), mass) for loc, mass in result.law.atoms]
    mode = "exact" if result.exact else f"{result.samples} seeded samples"
    return ResultTable(["fixed_points", "probability"], rows, note=mode)


def _cmd_critical(args) -> ResultTable:
    from . import diffcalc

    f, dim = _FIELDS[args.fn]
    x = _floats(args.x)
    if len(x) != dim:
        raise _UsageError(f"--x needs {dim} coordinates for {args.fn}")
    try:
        report = diffcalc.classify_critical(f, x)
    except (ValueError, ArithmeticError) as exc:  # e.g. the stencil's step, or log_r or inv_r at r = 0
        raise ValueError(f"the field {args.fn} cannot be classified at x = {args.x}: {exc}") from None
    rows = [
        ("classification", report.classification),
        ("gradient_norm", report.gradient_norm),
    ]
    rows += [(f"eigenvalue_{i}", v) for i, v in enumerate(report.eigenvalues)]
    return ResultTable(["quantity", "value"], rows, note=f"critical-point report for {args.fn}")


def _cmd_harmonic(args) -> ResultTable:
    from . import diffcalc
    from .rng import RandomSource

    f, dim = _FIELDS[args.fn]
    coords = [0.4 + u for u in RandomSource(args.seed).uniforms(args.samples * dim, 0.0, 1.0)]
    rows = []
    for i in range(0, len(coords), dim):
        p = tuple(coords[i : i + dim])
        rows.append(p + (diffcalc.laplacian(f, p),))
    cols = [f"x{i+1}" for i in range(dim)] + ["laplacian"]
    return ResultTable(cols, rows, note=f"laplacian residuals of {args.fn}")


def _cmd_orbit(args) -> ResultTable:
    from . import dynamics

    s0 = dynamics.OrbitState(args.r0, 0.0, args.vr0, args.vt0, args.K)
    traj = dynamics.kepler_integrate(s0, args.T, args.dt)
    c, eps, delta, residual = dynamics.conic_fit(traj)
    rows = []
    for p in traj:
        point_res = abs(p.x**2 + p.y**2 - (eps * p.x + delta * p.y - c) ** 2)
        rows.append((p.time, p.x, p.y, p.angular_momentum, point_res))
    return ResultTable(
        ["t", "x", "y", "Jz", "conic_residual"],
        rows,
        note=f"fitted conic c={c:.6g} eps={eps:.6g} delta={delta:.6g}",
    )


def _cmd_lattice(args) -> ResultTable:
    from . import dynamics
    from .quad import _linspace

    _check_span(args)
    g = _PROFILES[args.profile](args.a, args.b)
    times = _linspace(0.0, args.t, args.frames + 1)[1:]
    if args.command == "wave":
        grids = dynamics._wave_frames(g, lambda x: 0.0, args.v, args.a, args.b, args.dx, args.cfl, times)
        note = f"{args.profile} pulse, leapfrog lattice"
    else:
        grids = dynamics._heat_frames(g, args.alpha, args.a, args.b, args.dx, args.cfl, times)
        note = f"{args.profile} profile, forward-Euler lattice"
    rows = [
        (frame, grid.time, x, u)
        for frame, grid in enumerate(grids)
        for x, u in zip(grid.x.tolist(), grid.values.tolist())
    ]
    return ResultTable(["frame", "t", "x", "u"], rows, note=note)


def _cmd_flux(args) -> ResultTable:
    from . import dynamics

    raw = [row for row in _read_csv(args.charges, "--charges") if not row[0].startswith("#")]
    if raw and raw[0][0].strip().lower() == "q":
        raw = raw[1:]
    try:
        charges = tuple(
            (_finite_float(r[0]), (_finite_float(r[1]), _finite_float(r[2]), _finite_float(r[3])))
            for r in raw
        )
    except (argparse.ArgumentTypeError, IndexError):
        raise _UsageError(
            f"--charges {args.charges}: every row must be four finite numbers q,x,y,z"
        ) from None
    cfg = dynamics.ChargeConfig(charges=charges, k=args.k)
    flux = dynamics.flux_through_sphere(cfg, args.center, args.radius, order=args.order)
    enclosed = cfg.enclosed(args.center, args.radius)
    rows = [
        ("flux", flux),
        ("enclosed_charge", enclosed),
        ("enclosed_over_eps0", 4.0 * math.pi * cfg.k * enclosed),
    ]
    return ResultTable(["quantity", "value"], rows, note="flux through a sphere, one polar rule per charge")


def _cmd_hydrogen(args) -> ResultTable:
    from . import hydrogen

    if args.hydrogen_cmd == "lines":
        base = hydrogen.SPECTRAL_SERIES_NAMES[args.series]
        if args.upto <= base:
            raise _UsageError(f"need --upto > {base}, the {args.series} series base level")
        rows = hydrogen.spectral_series(args.series, args.upto)
        return ResultTable(
            ["n1", "n2", "lambda_nm"],
            [tuple(r) for r in rows],
            note=f"{args.series} series, standard air above 200 nm; last row is the limit",
        )
    if args.hydrogen_cmd == "energy":
        e = hydrogen.bohr_energy(args.n)
        return ResultTable(
            ["n", "energy_joules", "energy_ev"],
            [(args.n, e.joules, e.ev)],
            note="bound-state energy",
        )
    rmax, steps = args.grid
    from .quad import _linspace

    try:  # l and m out of range for n are malformed arguments
        qn = hydrogen.QuantumNumbers(args.n, args.l, args.m)
    except ValueError as exc:
        raise _UsageError(f"{exc} (--n {args.n}, --l {args.l}, --m {args.m})") from None
    rho = hydrogen.radial_wavefunction(qn.n, qn.l)
    s_fixed, t_fixed = math.pi / 2.0, 0.0
    # the angles are fixed, so Y is one number; rho(r) * y is wavefunction(qn)'s product
    y = hydrogen.spherical_harmonic(qn.l, qn.m)(s_fixed, t_fixed)
    rows = []
    for r in _linspace(rmax / steps, rmax, steps):
        v = rho(r) * y
        rows.append((r, s_fixed, t_fixed, v.real, v.imag, abs(v) ** 2))
    return ResultTable(
        ["r", "s", "t", "re", "im", "density"],
        rows,
        note=f"radial profile of |{qn.n},{qn.l},{qn.m}> at s=pi/2, t=0 (dimensionless a=1)",
    )


# ------------------------------------------------------------------ parser

# sorted(hydrogen.SPECTRAL_SERIES_NAMES), written out so that building the
# parser imports no calclab module
_SPECTRAL_SERIES = ["balmer", "brackett", "humphreys", "lyman", "paschen", "pfund"]


def _build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The parser of the subcommand argv[0] names, or, when it names none (--help,
    a typo, nothing), of all of them, so top-level help and errors list every one."""
    command = argv[0] if argv else None
    parser = _Parser(prog="calclab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--digits", type=_positive_int, default=None, help="significant digits for floats (>= 1)")
    common.add_argument("--output", default=None, help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, fn_impl, help):
        if command in (None, name):
            p = sub.add_parser(name, parents=[common], help=help)
            p.set_defaults(fn_impl=fn_impl, caps=())
            return p

    if p := add_parser("sequence", _cmd_sequence, "exact combinatorial sequences"):
        p.add_argument("--kind", required=True, choices=["factorial", "catalan", "central", "middle", "bell", "bernoulli"])
        p.add_argument("--n", type=_natural, required=True)
        p.set_defaults(caps=[("--n", "sequence terms")])

    if p := add_parser("constants", _cmd_constants, "classical constants with error bounds"):
        p.add_argument("--which", required=True, choices=["e", "pi", "basel"])
        p.add_argument("--terms", type=_positive_int, required=True)
        p.set_defaults(caps=[("--terms", "series terms")])

    if p := add_parser("roots", _cmd_roots, "all roots of a complex polynomial"):
        p.add_argument("--coeffs", required=True, help="c0,c1,... ascending, entries like 1+2i")

    if p := add_parser("eig", _cmd_eig, "symmetric eigendecomposition from a CSV matrix"):
        p.add_argument("--matrix", required=True)

    if p := add_parser("integrate", _cmd_integrate, "one-dimensional quadrature"):
        p.add_argument("--method", required=True, choices=["riemann", "trapezoid", "mc"])
        p.add_argument("--fn", required=True, choices=sorted(_INTEGRANDS))
        p.add_argument("--a", type=_finite_float, required=True)
        p.add_argument("--b", type=_finite_float, required=True)
        p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--seed", type=_natural, default=None)

    if p := add_parser("sphere", _cmd_sphere, "sphere volumes, areas and moments"):
        p.add_argument("--what", required=True, choices=["volume", "area", "moment"])
        p.add_argument("--dim", type=_positive_int, required=True)
        p.add_argument("--key", type=_exponents, default=None, help="k1,k2,... exponents")
        p.add_argument("--complex", action="store_true")

    if p := add_parser("law", _cmd_law, "moment sequences of the builtin laws"):
        p.add_argument("--name", required=True, choices=["bernoulli", "binomial", "poisson", "gauss", "cgauss", "semicircle", "mp", "arcsine", "marcsine"])
        p.add_argument("--moments", type=_natural, required=True)
        p.add_argument("--x", type=_finite_float, default=0.5, help="coin bias for bernoulli/binomial")
        p.add_argument("--count", type=_positive_int, default=10, help="binomial trial count")
        p.set_defaults(caps=[("--moments", "moment orders"), ("--count", "binomial trials")])
        p.add_argument("--t", type=_finite_float, default=1.0, help="semigroup parameter for poisson/gauss/cgauss")

    if p := add_parser("stieltjes", _cmd_stieltjes, "pointwise density recovery"):
        p.add_argument("--law", required=True, choices=["semicircle", "mp", "arcsine", "marcsine"])
        p.add_argument("--x", type=_grid, required=True, help="comma list or start:stop:count")
        p.set_defaults(caps=[("--x", "grid points")])
        p.add_argument("--t", type=_finite_float, required=True)

    if p := add_parser("snchi", _cmd_snchi, "fixed-point law of random permutations"):
        p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--t", type=_finite_float, default=1.0)
        p.add_argument("--seed", type=_natural, default=None)

    if p := add_parser("critical", _cmd_critical, "critical-point classification"):
        p.add_argument("--fn", required=True, choices=sorted(_FIELDS))
        p.add_argument("--x", required=True, help="x1,...,xN")

    if p := add_parser("harmonic", _cmd_harmonic, "laplacian residual samples"):
        p.add_argument("--fn", required=True, choices=sorted(_FIELDS))
        p.add_argument("--samples", type=_positive_int, required=True)
        p.set_defaults(caps=[("--samples", "grid points")])
        p.add_argument("--seed", type=_natural, required=True)

    if p := add_parser("orbit", _cmd_orbit, "two-body trajectory with conservation columns"):
        p.add_argument("--r0", type=_finite_float, required=True)
        p.add_argument("--vt0", type=_finite_float, required=True)
        p.add_argument("--vr0", type=_finite_float, default=0.0)
        p.add_argument("--K", type=_finite_float, required=True)
        p.add_argument("--T", type=_finite_float, required=True)
        p.add_argument("--dt", type=_finite_float, required=True)

    for name, summary, b, cfl, rate, t in (
        ("wave", "leapfrog wave lattice frames", 20.0, 0.5, "--v", 5.0),
        ("heat", "forward-Euler heat lattice frames", 10.0, 0.25, "--alpha", 0.5),
    ):
        if p := add_parser(name, _cmd_lattice, summary):
            p.add_argument("--profile", required=True, choices=sorted(_PROFILES))
            p.add_argument("--a", type=_finite_float, default=0.0)
            p.add_argument("--b", type=_finite_float, default=b)
            p.add_argument("--dx", type=_finite_float, default=0.05)
            p.add_argument("--cfl", type=_finite_float, default=cfl)
            p.add_argument(rate, type=_finite_float, default=1.0)
            p.add_argument("--t", type=_finite_float, default=t)
            p.add_argument("--frames", type=_positive_int, default=5)

    if p := add_parser("flux", _cmd_flux, "electric flux through a sphere"):
        p.add_argument("--charges", required=True, help="CSV file with rows q,x,y,z")
        p.add_argument("--center", type=_point, required=True, help="x,y,z")
        p.add_argument("--radius", type=_finite_float, required=True)
        p.add_argument("--order", type=_positive_int, default=128)
        p.add_argument("--k", type=_finite_float, default=1.0, help="Coulomb constant")

    if p := add_parser("hydrogen", _cmd_hydrogen, "spectral lines, energies, wavefunctions"):
        hsub = p.add_subparsers(dest="hydrogen_cmd", required=True, parser_class=_Parser)
        ph = hsub.add_parser("lines", parents=[common])
        ph.add_argument("--series", required=True, choices=_SPECTRAL_SERIES)
        ph.add_argument("--upto", type=_int, required=True)
        ph.set_defaults(caps=[("--upto", "series levels")])
        ph = hsub.add_parser("energy", parents=[common])
        ph.add_argument("--n", type=_positive_int, required=True)
        ph = hsub.add_parser("wavefunction", parents=[common])
        ph.add_argument("--n", type=_positive_int, required=True)
        ph.add_argument("--l", type=int, required=True)
        ph.add_argument("--m", type=int, required=True)
        ph.add_argument("--grid", type=_radial_grid, required=True, help="rmax,steps")
        ph.set_defaults(caps=[("--grid", "grid points")])

    return parser if sub.choices else _build_parser()


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed, and each count its subcommand caps (``caps``: option, the name of its cap) handed to
    _refuse, before any grid, node or draw is made: an int, a comma list's length, or the last field of
    rmax,steps or start:stop:count."""
    args = _build_parser(argv).parse_args(argv)
    for option, name in args.caps:
        count = getattr(args, option[2:])
        count = len(count) if isinstance(count, list) else count[-1] if isinstance(count, tuple) else count
        _refuse(count, name, f"{option} has")
    return args


def run(argv: Sequence[str]) -> ResultTable:
    """Parse argv, refuse its counts past their caps and execute the subcommand, returning the result table."""
    args = _parse(argv)
    return args.fn_impl(args)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        table = args.fn_impl(args)
    except (_UsageError, argparse.ArgumentTypeError) as exc:  # the latter from a parse type a command applies
        print(f"calclab: usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:  # numpy's allocation error is a MemoryError
        # Python's own MemoryError carries no text; no error line is left empty
        text = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else type(exc).__name__)
        print(f"calclab: {text}", file=sys.stderr)
        return 2
    buffer = io.StringIO()
    emit(table, args.format, buffer, digits=args.digits)
    text = buffer.getvalue()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"calclab: usage error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
