"""The CLI's start-up and table writer: exact commands load no numpy, and
every table prints the bytes of the writer it replaced (``oracles.emit``)."""

import ast
import io
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import calclab
from calclab import cli, hydrogen, linalg, poly
from calclab.cli import ResultTable, emit, run
from calclab.diffcalc import laplacian
from calclab.rng import RandomSource

import oracles

SRC = str(Path(calclab.__file__).resolve().parent.parent)

NUMPY_FREE = [
    ["sequence", "--kind", "catalan", "--n", "10"],
    ["sequence", "--kind", "bernoulli", "--n", "12"],
    ["sequence", "--kind", "bell", "--n", "15"],
    ["constants", "--which", "e", "--terms", "18"],
    ["constants", "--which", "pi", "--terms", "1234"],
    ["constants", "--which", "basel", "--terms", "12345"],
    ["integrate", "--method", "trapezoid", "--fn", "runge", "--a", "-0.5", "--b", "1.25", "--n", "2000"],
    ["integrate", "--method", "riemann", "--fn", "sin", "--a", "0", "--b", "1", "--n", "2000"],
    ["stieltjes", "--law", "mp", "--x=0.7:3.2:5", "--t", "0.001"],
    ["roots", "--coeffs=-6,11,-6,1"],
    ["roots", "--coeffs=1,-4,6,-4,1"],
    ["sphere", "--what", "volume", "--dim", "7"],
    ["sphere", "--what", "moment", "--dim", "4", "--key", "2,0,1,1", "--complex"],
    ["law", "--name", "gauss", "--moments", "5", "--t", "2"],
    ["law", "--name", "cgauss", "--moments", "5", "--t", "0.5"],
    ["snchi", "--n", "9"],
    ["hydrogen", "lines", "--series", "balmer", "--upto", "8"],
    ["hydrogen", "energy", "--n", "3"],
    # --grid first: the test ids of COMMANDS' wavefunction argv stay as they were
    ["hydrogen", "wavefunction", "--grid", "20,200", "--n", "2", "--l", "1", "--m", "0"],
    ["hydrogen", "wavefunction", "--grid", "1e200,2", "--n", "3", "--l", "2", "--m", "0"],
    ["hydrogen", "wavefunction", "--grid", "7,1", "--n", "2", "--l", "0", "--m", "0"],
    # the first three words differ from COMMANDS' law and critical argvs, so that their ids stay
    # as they were
    ["law", "--moments", "60", "--name", "semicircle"],
    ["law", "--name", "mp", "--moments", "12"],
    ["law", "--name", "arcsine", "--moments", "8"],
    ["law", "--name", "marcsine", "--moments", "12"],
    ["critical", "--fn", "bowl", "--x", "0.5,-0.25"],
    ["critical", "--x", "0,0", "--fn", "saddle"],
    ["critical", "--fn", "xy", "--x", "0,0"],
    ["critical", "--fn", "cubic", "--x", "0"],
    ["critical", "--fn", "re_z3", "--x", "0.3,0.2"],
    ["critical", "--fn", "log_r", "--x", "1,1"],
    ["critical", "--fn", "inv_r", "--x", "1,1,1"],
    ["harmonic", "--fn", "bowl", "--samples", "10", "--seed", "1"],
    ["harmonic", "--fn", "saddle", "--samples", "10", "--seed", "2"],
    ["harmonic", "--fn", "cubic", "--samples", "10", "--seed", "3"],
    ["harmonic", "--fn", "xy", "--samples", "10", "--seed", "4"],
    ["harmonic", "--fn", "re_z3", "--samples", "10", "--seed", "5"],
    # --samples first: the test ids of COMMANDS' log_r argv stay as they were
    ["harmonic", "--samples", "10", "--fn", "log_r", "--seed", "6"],
    ["harmonic", "--fn", "inv_r", "--samples", "10", "--seed", "1180591620717411303424"],
]

# runs calclab.cli as `python -m` does, then lists which of the stdlib modules
# that only some commands or formats need are loaded, and last the numpy modules
_RUN_AND_LIST_NUMPY = """
import runpy, sys
sys.argv = ["calclab", *sys.argv[1:]]
try:
    runpy.run_module("calclab.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(sorted(m for m in ("csv", "dataclasses", "inspect", "json") if m in sys.modules), file=sys.stderr)
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")), file=sys.stderr)
sys.exit(code)
"""


def _probe(argv):
    return subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_NUMPY, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=lambda a: "-".join(a[:3]).lstrip("-"))
def test_exact_commands_never_import_numpy(argv):
    proc = _probe(argv)
    # the repeated quartic root is a known numerical failure (exit 2)
    assert proc.returncode == (2 if argv[1] == "--coeffs=1,-4,6,-4,1" else 0)
    assert proc.stderr.splitlines()[-1] == "[]", proc.stderr
    # CSV output, a quoted cell included, needs neither the csv nor the json module
    assert proc.stderr.splitlines()[-2] == "[]", proc.stderr


def test_flux_of_a_charges_file_loads_no_numpy(tmp_path):
    (tmp_path / "q.csv").write_text(_CHARGES)
    proc = _probe(["flux", "--charges", str(tmp_path / "q.csv"), "--center", "0,0,0", "--radius", "1"])
    assert proc.returncode == 0 and proc.stdout.startswith("quantity,value\nflux,")
    # the charges file is read with the csv module; the table is written without it
    assert proc.stderr.splitlines()[-2:] == ["['csv']", "[]"], proc.stderr


def test_importing_every_module_loads_no_numpy():
    code = (
        "import importlib, pkgutil, sys, calclab\n"
        "names = [m.name for m in pkgutil.iter_modules(calclab.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('calclab.' + name)\n"
        "print(len(names), sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    count, loaded = proc.stdout.split(" ", 1)
    assert int(count) >= 12 and loaded.strip() == "[]", proc.stdout


def test_one_array_call_binds_numpy_in_every_calclab_module():
    code = (
        "import math, sys, calclab.quad\n"
        "assert 'numpy' not in sys.modules\n"
        "calclab.quad.simpson(math.sin, 0.0, 1.0, 8)\n"
        "import numpy, calclab.diffcalc, calclab.dynamics, calclab.prob\n"
        "holders = sorted(n for n, m in sys.modules.items() if n.startswith('calclab') and 'np' in vars(m))\n"
        "print(holders, all(vars(sys.modules[n])['np'] is numpy for n in holders))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    modules = ["_numpy", "diffcalc", "dynamics", "linalg", "prob", "quad", "rng"]
    assert proc.stdout == f"{['calclab.' + m for m in modules]} True\n"


def _numpy_imports(node, where="module"):
    """Where each import of numpy below node sits: its function's name, TYPE_CHECKING, or module."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _numpy_imports(child, child.name)
        elif isinstance(child, ast.If) and "TYPE_CHECKING" in ast.unparse(child.test):
            found += _numpy_imports(child, "TYPE_CHECKING")
        else:
            if isinstance(child, ast.Import):
                found += [where for alias in child.names if alias.name.split(".")[0] == "numpy"]
            elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "numpy":
                found.append(where)
            found += _numpy_imports(child, where)
    return found


def test_numpy_is_imported_in_one_place():
    package = Path(calclab.__file__).parent
    found = {path.name: _numpy_imports(ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {"_numpy.py": ["__getattr__"]}


def test_json_output_imports_json_and_only_then():
    proc = _probe(["sequence", "--kind", "catalan", "--n", "10", "--format", "json"])
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[-2:] == ["['json']", "[]"], proc.stderr


def test_spectral_series_choices_match_hydrogen():
    assert cli._SPECTRAL_SERIES == sorted(hydrogen.SPECTRAL_SERIES_NAMES)


def test_linalg_reexports_the_polynomial_module():
    assert linalg.Polynomial is poly.Polynomial
    for name in poly.__all__:
        assert getattr(linalg, name) is getattr(poly, name)
        assert name in linalg.__all__


# ---------------------------------------------------------- byte oracle

@pytest.mark.parametrize("n", [3, 18, 19, 40])
def test_eig_loads_no_numpy_at_any_size(tmp_path, n):
    A = np.random.default_rng(n).standard_normal((n, n))
    A = A + A.T
    matrix = tmp_path / "m.csv"
    matrix.write_text("".join(",".join(map(repr, row)) + "\n" for row in A.tolist()))
    proc = _probe(["eig", "--matrix", str(matrix)])
    assert proc.returncode == 0
    assert proc.stderr.splitlines()[-1] == "[]", proc.stderr
    # the bytes of the eigenvalues alone as they were on numpy arrays
    _, d = oracles.symmetric_eigen(A, tol=1e-10, vectors=False)
    assert np.abs(d - np.linalg.eigvalsh(A)[::-1]).max() <= 1e-9 * np.linalg.norm(A)
    table = ResultTable(["index", "eigenvalue"], [(i, float(v)) for i, v in enumerate(d)])
    assert proc.stdout == _written(oracles.emit, table, "csv", None)


_MATRIX = "2,1,0\n1,3,1\n0,1,4\n"
_CHARGES = "q,x,y,z\n1.5,0.1,0,0\n-2.0,2,0,0\n"

# the benchmark's one-shot shapes, then its in-process tables
COMMANDS = [
    ["sequence", "--kind", "catalan", "--n", "12"],
    ["sequence", "--kind", "bernoulli", "--n", "16"],
    ["sequence", "--kind", "bell", "--n", "20"],
    ["constants", "--which", "e", "--terms", "17"],
    ["constants", "--which", "pi", "--terms", "1234"],
    ["constants", "--which", "basel", "--terms", "12345"],
    ["roots", "--coeffs=3.0,-5.5,-0.5,1.0"],
    ["roots", "--coeffs=-1,0,0,0,1"],
    ["sphere", "--what", "volume", "--dim", "9"],
    ["sphere", "--what", "moment", "--dim", "4", "--key", "2,0,4,2"],
    ["law", "--name", "gauss", "--moments", "5", "--t", "0.5"],
    ["law", "--name", "cgauss", "--moments", "5", "--t", "2"],
    ["law", "--name", "semicircle", "--moments", "8"],
    ["stieltjes", "--law", "mp", "--x=0.7:3.2:5", "--t", "0.001"],
    ["snchi", "--n", "7"],
    ["critical", "--fn", "saddle", "--x", "0,0"],
    ["harmonic", "--fn", "log_r", "--samples", "10", "--seed", "11"],
    ["eig", "--matrix", "{matrix}"],
    ["integrate", "--method", "trapezoid", "--fn", "runge", "--a", "-0.5", "--b", "1.25", "--n", "2000"],
    ["integrate", "--method", "mc", "--fn", "gauss", "--a", "-0.5", "--b", "1", "--n", "1000", "--seed", "5"],
    ["flux", "--charges", "{charges}", "--center", "0,0,0", "--radius", "1"],
    ["hydrogen", "lines", "--series", "balmer", "--upto", "9"],
    ["hydrogen", "energy", "--n", "4"],
    ["orbit", "--r0", "0.66", "--vt0", "1.5", "--K", "1", "--T", "2", "--dt", "0.001"],
    ["wave", "--profile", "gaussian", "--t", "4", "--frames", "8"],
    ["heat", "--profile", "step", "--t", "0.4", "--frames", "4"],
    ["hydrogen", "wavefunction", "--n", "3", "--l", "1", "--m", "-1", "--grid", "30,400"],
]


def _written(writer, table, fmt, digits):
    sink = io.StringIO()
    writer(table, fmt, sink, digits=digits)
    return sink.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join(a[:3]).lstrip("-"))
def test_every_command_prints_the_old_bytes(tmp_path, argv):
    files = {"matrix": tmp_path / "m.csv", "charges": tmp_path / "q.csv"}
    files["matrix"].write_text(_MATRIX)
    files["charges"].write_text(_CHARGES)
    table = run([a.format(**files) for a in argv])
    for fmt in ("csv", "json"):
        for digits in (None, 1, 4, 17):
            assert _written(emit, table, fmt, digits) == _written(oracles.emit, table, fmt, digits)


# a -0.0 coordinate: the stencil keeps it on every axis it does not step along, and the tables
# print the bytes they printed when the stencil turned some of them into +0.0
NEGATIVE_ZERO = {
    ("critical", "--fn", "saddle", "--x=-0.0,0"): (
        "quantity,value\nclassification,saddle\ngradient_norm,0\neigenvalue_0,2\neigenvalue_1,-2\n",
        '{\n  "columns": [\n    "quantity",\n    "value"\n  ],\n  "rows": [\n    [\n      "classification",\n'
        '      "saddle"\n    ],\n    [\n      "gradient_norm",\n      0.0\n    ],\n    [\n      "eigenvalue_0",\n'
        '      2.0\n    ],\n    [\n      "eigenvalue_1",\n      -2.0\n    ]\n  ],\n'
        '  "note": "critical-point report for saddle"\n}\n',
    ),
    ("critical", "--fn", "inv_r", "--x=-0.0,1,-0.0"): (
        "quantity,value\nclassification,not critical\ngradient_norm,1.0000000001473095\n"
        "eigenvalue_0,2.0000001192092896\neigenvalue_1,-0.99999995529651642\neigenvalue_2,-0.99999995529651642\n",
        '{\n  "columns": [\n    "quantity",\n    "value"\n  ],\n  "rows": [\n    [\n      "classification",\n'
        '      "not critical"\n    ],\n    [\n      "gradient_norm",\n      1.0000000001473095\n    ],\n'
        '    [\n      "eigenvalue_0",\n      2.0000001192092896\n    ],\n    [\n      "eigenvalue_1",\n'
        '      -0.9999999552965164\n    ],\n    [\n      "eigenvalue_2",\n      -0.9999999552965164\n    ]\n  ],\n'
        '  "note": "critical-point report for inv_r"\n}\n',
    ),
    ("critical", "--fn", "log_r", "--x=-0.0,1"): (
        "quantity,value\nclassification,not critical\ngradient_norm,1.0000000000495268\n"
        "eigenvalue_0,0.99999997019767839\neigenvalue_1,-1.0000000298027771\n",
        '{\n  "columns": [\n    "quantity",\n    "value"\n  ],\n  "rows": [\n    [\n      "classification",\n'
        '      "not critical"\n    ],\n    [\n      "gradient_norm",\n      1.0000000000495268\n    ],\n'
        '    [\n      "eigenvalue_0",\n      0.9999999701976784\n    ],\n    [\n      "eigenvalue_1",\n'
        '      -1.0000000298027771\n    ]\n  ],\n  "note": "critical-point report for log_r"\n}\n',
    ),
}


@pytest.mark.parametrize("argv", sorted(NEGATIVE_ZERO), ids=lambda a: "-".join(a[2:]).lstrip("-"))
def test_negative_zero_coordinates_print_the_old_bytes(argv):
    table = run(list(argv))
    assert [_written(emit, table, fmt, None) for fmt in ("csv", "json")] == list(NEGATIVE_ZERO[argv])


def _subcommands(parser):
    (choices,) = [action.choices for action in parser._actions if action.dest == "command"]
    return choices


@pytest.mark.parametrize("argv", NUMPY_FREE + COMMANDS, ids=lambda a: "-".join(a[:3]).lstrip("-"))
def test_the_one_subcommand_parser_parses_as_the_full_parser(argv):
    argv = [a.format(matrix="m.csv", charges="q.csv") for a in argv]
    one, full = cli._build_parser(argv), cli._build_parser()
    assert list(_subcommands(one)) == [argv[0]]
    assert one.parse_args(argv) == full.parse_args(argv)
    assert _subcommands(one)[argv[0]].format_help() == _subcommands(full)[argv[0]].format_help()


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    names = out[out.index("{") + 1 : out.index("}")].split(",")
    assert len(names) == 16 and list(_subcommands(cli._build_parser())) == names
    # an argv[0] that names no subcommand builds them all
    assert cli._build_parser(["no-such-command"]).format_help() == cli._build_parser().format_help()


@pytest.mark.parametrize("n, l, m, rmax, steps", [(1, 0, 0, 5, 10), (3, 1, -1, 30, 400), (4, 3, 2, 30, 2000)])
def test_wavefunction_table_is_the_wavefunction(n, l, m, rmax, steps):
    argv = ["hydrogen", "wavefunction", "--n", n, "--l", l, "--m", m, "--grid", f"{rmax},{steps}"]
    table = run([str(a) for a in argv])
    phi = hydrogen.wavefunction(hydrogen.QuantumNumbers(n, l, m))
    rows = []
    for r in np.linspace(rmax / steps, rmax, steps):
        v = phi(float(r), math.pi / 2.0, 0.0)
        rows.append((float(r), math.pi / 2.0, 0.0, v.real, v.imag, abs(v) ** 2))
    expected = ResultTable(["r", "s", "t", "re", "im", "density"], rows, note=table.note)
    for fmt in ("csv", "json"):
        assert _written(emit, table, fmt, None) == _written(emit, expected, fmt, None)


@pytest.mark.parametrize("seed", [0, 11, 2**64 + 5])
@pytest.mark.parametrize("fn", sorted(cli._FIELDS))
def test_harmonic_table_is_numpys_seeded_stream(fn, seed):
    f, dim = cli._FIELDS[fn]
    table = run(["harmonic", "--fn", fn, "--samples", "7", "--seed", str(seed)])
    pts = 0.4 + RandomSource(seed).generator().uniform(0.0, 1.0, (7, dim))
    rows = [tuple(p.tolist()) + (laplacian(f, p),) for p in pts]
    expected = ResultTable([f"x{i + 1}" for i in range(dim)] + ["laplacian"], rows, note=table.note)
    for fmt in ("csv", "json"):
        for digits in (None, 4):
            assert _written(emit, table, fmt, digits) == _written(emit, expected, fmt, digits)


MIXED = ResultTable(
    ["a", "b", "c"],
    [
        (np.int64(-7), np.float32(0.1), np.complex128(1.5 - 2.25j)),
        (np.bool_(True), Fraction(-3, 8), None),
        (-0.0, math.nan, "x, y"),
        (math.inf, -math.inf, 'say "hi"\nthere'),
        (np.float64(1 / 3), np.uint8(200), complex(0.0, -0.0)),
        (True, False, Fraction(6, 3)),
        (np.float16(2.5), np.longdouble(0.2), np.str_("p,q")),
        (Decimal("1.10"), (1, 2), "a\rb"),
        (2**70, -(2**70), complex(math.nan, 1.0)),
    ],
    note="mixed types",
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("digits", [None, 1, 4])
def test_mixed_types_print_the_old_bytes(fmt, digits):
    assert _written(emit, MIXED, fmt, digits) == _written(oracles.emit, MIXED, fmt, digits)


# rows of exact floats and ints, which take a %-template, among rows that take the
# formatters, past the 512 lines of one chunk
TEMPLATED = ResultTable(
    ["a", "b", "c"],
    [
        row
        for k in range(700)
        for row in (
            (k, k / 7.0, -k * 1e-310),
            (0.1 * k, -(10**4400) - k, math.inf if k % 2 else -0.0),
            (math.nan, 5e-324, 1.7976931348623157e308),
            (True, None, k),
            (np.float64(k / 3.0), 2**70, "x, y"),
            (Fraction(k, 3), complex(k, -0.5), np.int64(-k)),
            (k, k, k),
        )[k % 7 : k % 7 + 2]
    ],
    note="templated rows",
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("digits", [None, 1, 4, 17])
def test_templated_rows_print_the_old_bytes(fmt, digits):
    got = _written(emit, TEMPLATED, fmt, digits)
    # the oracle prints the 4401-digit ints only with the interpreter's digit limit lifted
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        want = _written(oracles.emit, TEMPLATED, fmt, digits)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert got == want


@pytest.mark.parametrize(
    "table",
    [
        ResultTable(["only"], [(None,), ("",), ("x",), (0.5,)]),
        ResultTable([], [(), ()]),
        ResultTable(["a", "b"], []),
        ResultTable(["a,b", ""], [("", None)]),
    ],
    ids=["one-column", "no-columns", "no-rows", "odd-header"],
)
def test_table_edges_print_the_old_bytes(table):
    for fmt in ("csv", "json"):
        assert _written(emit, table, fmt, None) == _written(oracles.emit, table, fmt, None)


@pytest.mark.parametrize("columns", [[""], ['say "hi"'], ["a\rb", "c\nd", ""], ["x, y", "z"]])
def test_header_cells_print_the_old_bytes(columns):
    # the header goes through the cell quoting, not the csv module
    table = ResultTable(columns, [("",) * len(columns)])
    assert _written(emit, table, "csv", None) == _written(oracles.emit, table, "csv", None)


_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.complex_numbers(),
    st.fractions(),
    st.text(alphabet=st.sampled_from('ab, "\n\r1.-')),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_cells, min_size=2, max_size=2).map(tuple), max_size=6), st.sampled_from([None, 3]))
def test_random_tables_print_the_old_bytes(rows, digits):
    table = ResultTable(["x", "y"], rows)
    for fmt in ("csv", "json"):
        assert _written(emit, table, fmt, digits) == _written(oracles.emit, table, fmt, digits)
