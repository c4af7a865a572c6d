import ast
import csv
import decimal
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest

from calclab import cli
from calclab._record import _CAPS
from calclab.cli import ResultTable, emit, main, run
from calclab.combinat import bell
from calclab.quad import sphere_volume

import calclab

SRC = str(Path(calclab.__file__).resolve().parent.parent)


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sequence_catalan(capsys):
    code, out, err = invoke(["sequence", "--kind", "catalan", "--n", "5"], capsys)
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "value"]
    assert [r[1] for r in rows[1:]] == ["1", "1", "2", "5", "14", "42"]


def test_sequence_bernoulli_rationals(capsys):
    code, out, _ = invoke(["sequence", "--kind", "bernoulli", "--n", "6"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    values = [r[1] for r in rows[1:]]
    assert values == ["1", "-1/2", "1/6", "0", "-1/30", "0", "1/42"]


def test_sequence_bell_matches_bell(capsys):
    code, out, _ = invoke(["sequence", "--kind", "bell", "--n", "30"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [int(r[1]) for r in rows[1:]] == [bell(k) for k in range(31)]


def test_sequence_prints_integers_past_the_str_digits_limit(capsys):
    # 1700! has 4756 digits, past the interpreter's default limit of 4300
    digits = decimal.Decimal(math.factorial(1700)).adjusted() + 1
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = invoke(["sequence", "--kind", "factorial", "--n", "1700"], capsys)
    assert code == 0 and err == ""
    assert len(out.splitlines()[-1].split(",")[1]) == digits
    code, out, err = invoke(["sequence", "--kind", "factorial", "--n", "1700", "--format", "json"], capsys)
    assert code == 0 and err == ""
    assert len(json.loads(out, parse_int=str)["rows"][-1][1]) == digits
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored after writing


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = invoke(["sequence", "--kind", "catalan", "--n", "3", "--bogus"], capsys)
    assert code == 1
    assert "usage error" in err


def test_unknown_subcommand(capsys):
    code, _, err = invoke(["frobnicate"], capsys)
    assert code == 1


def test_mc_requires_seed(capsys):
    code, _, err = invoke(
        ["integrate", "--method", "mc", "--fn", "square", "--a", "0", "--b", "1", "--n", "100"],
        capsys,
    )
    assert code == 1
    assert "seed" in err


def test_numerical_failure_exit_2(capsys):
    code, _, err = invoke(["law", "--name", "gauss", "--moments", "400", "--t", "1"], capsys)
    assert code == 2
    assert err.startswith("calclab:")
    assert err.count("\n") == 1  # single-line diagnostic


def test_an_allocation_numpy_refuses_is_one_line_and_exit_2(capsys, monkeypatch):
    # np.linspace refuses 146 TiB before it allocates anything; with the point cap lifted, the
    # MemoryError backstop in main is what answers
    monkeypatch.setitem(_CAPS, "lattice points", (math.inf, *_CAPS["lattice points"][1:]))
    code, out, err = invoke(["wave", "--profile", "gaussian", "--t", "1", "--frames", "2", "--dx", "1e-12"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("calclab: Unable to allocate") and err.count("\n") == 1, err


def test_a_memory_error_without_text_is_one_nonempty_line_and_exit_2(capsys, monkeypatch):
    # Python's own MemoryError carries no text; main names it
    from calclab import cli

    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_sequence", out_of_memory)
    code, out, err = invoke(["sequence", "--kind", "catalan", "--n", "5"], capsys)
    assert (code, out, err) == (2, "", "calclab: out of memory\n")


def test_a_radial_power_past_the_float_range_is_one_line_naming_rho(capsys):
    code, out, err = invoke(["hydrogen", "wavefunction", "--n", "200", "--l", "98", "--m", "0", "--grid", "140000,2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("calclab: rho_200_98: (2r/(na))**98 overflows the float range") and err.count("\n") == 1, err
    assert "Numerical result out of range" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["orbit", "--r0", "1", "--vt0", "1", "--K", "1", "--T", "1e300", "--dt", "0.1"],
         f"the orbit needs {round(1e300 / 0.1):,} RK4 steps, past the cap of 100,000"),
        (["orbit", "--r0", "1", "--vt0", "1", "--K", "1", "--T", "100.001", "--dt", "0.001"],
         "the orbit needs 100,001 RK4 steps, past the cap of 100,000"),
        (["heat", "--profile", "gaussian", "--t", "1", "--frames", "2", "--dx", "1e-5"],
         "the lattice has 1,000,001 points, past the cap of 100,000"),
        (["wave", "--profile", "gaussian", "--t", "1", "--frames", "2", "--dx", "1e-12"],
         "the lattice has 20,000,000,000,001 points, past the cap of 100,000"),
        (["heat", "--profile", "gaussian", "--t", "1000", "--frames", "2"],
         "the lattice needs 1,600,000 steps, past the cap of 32,000"),
        (["heat", "--profile", "gaussian", "--a", "0", "--b", "9.9999", "--dx", "0.0001", "--t", "0.00025", "--frames", "1"],
         "the lattice needs 100,000 steps, past the cap of 32,000"),
        (["heat", "--profile", "gaussian", "--a", "0", "--b", "9.9999", "--dx", "0.0001", "--t", "0.00008", "--frames", "1"],
         "the lattice needs 3,200,000,000 point-steps (100,000 points by 32,000 steps), past the cap of 1,000,000,000"),
    ],
    ids=["orbit-T-1e300", "orbit-one-past", "heat-dx-1e-5", "wave-dx-1e-12", "heat-t-1000", "heat-both-caps", "heat-point-steps"],
)
def test_work_past_its_cap_is_refused_by_count_before_it_starts(capsys, argv, message):
    # orbit-T-1e300 and heat-dx-1e-5 ran until killed, wave-dx-1e-12 ended in numpy's allocation refusal;
    # orbit-one-past, heat-both-caps and heat-point-steps ran 1.0 s, 15 s and 5.8 s under the old caps of 10^6
    # orbit and 10^5 lattice steps
    start = time.perf_counter()
    code, out, err = invoke(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"calclab: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["integrate", "--method", "riemann", "--fn", "sin", "--a", "0", "--b", "1", "--n", "1000000000000000"],
         "the riemann rule has 1,000,000,000,000,000 subintervals, past the cap of 1,000,000"),
        (["integrate", "--method", "trapezoid", "--fn", "sin", "--a", "0", "--b", "1", "--n", "1000001"],
         "the trapezoid rule has 1,000,001 subintervals, past the cap of 1,000,000"),
        (["stieltjes", "--law", "mp", "--x=0.7:3.2:1000000000000000", "--t", "0.1"],
         "--x has 1,000,000,000,000,000 points, past the cap of 100,000"),
        (["hydrogen", "wavefunction", "--n", "3", "--l", "1", "--m", "1", "--grid", "5,1000000000000000"],
         "--grid has 1,000,000,000,000,000 points, past the cap of 100,000"),
        (["flux", "--charges", "{charges}", "--center", "0,0,0", "--radius", "1", "--order", "100000000"],
         "the Gauss-Legendre rule has 100,000,000 nodes, past the cap of 8,192"),
    ],
    ids=["riemann-n", "trapezoid-n", "stieltjes-x", "hydrogen-grid", "flux-order"],
)
def test_node_counts_past_their_cap_are_refused_before_any_node(capsys, tmp_path, argv, message):
    # the first four ran until killed or out of memory, the last one until killed
    charges = tmp_path / "charges.csv"
    charges.write_text("q,x,y,z\n1,0,0,0\n")
    start = time.perf_counter()
    code, out, err = invoke([arg.format(charges=charges) for arg in argv], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"calclab: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["constants", "--which", "pi", "--terms", "1000000000000000"], "--terms has 1,000,000,000,000,000 terms, past the cap of 10,000,000"),
        (["constants", "--which", "e", "--terms", "20000000"], "--terms has 20,000,000 terms, past the cap of 10,000,000"),
        (["constants", "--which", "basel", "--terms", "10000001"], "--terms has 10,000,001 terms, past the cap of 10,000,000"),
        (["sequence", "--kind", "catalan", "--n", "1000000000000000"], "--n has 1,000,000,000,000,000 terms, past the cap of 3,000"),
        (["law", "--name", "semicircle", "--moments", "1000000000000000"], "--moments has 1,000,000,000,000,000 orders, past the cap of 4,000"),
        (["law", "--name", "bernoulli", "--moments", "4001"], "--moments has 4,001 orders, past the cap of 4,000"),
        (["law", "--name", "binomial", "--count", "1000000000000000", "--moments", "2"],
         "--count has 1,000,000,000,000,000 trials, past the cap of 100,000"),
        (["hydrogen", "lines", "--series", "balmer", "--upto", "1000000000000000"],
         "--upto has 1,000,000,000,000,000 levels, past the cap of 100,000"),
        (["harmonic", "--fn", "inv_r", "--samples", "1000000000000000", "--seed", "1"],
         "--samples has 1,000,000,000,000,000 points, past the cap of 100,000"),
    ],
    ids=["constants-pi", "constants-e", "constants-basel-one-past", "sequence-catalan", "law-semicircle", "law-bernoulli", "law-binomial-count",
         "hydrogen-lines", "harmonic-samples"],
)
def test_counts_past_their_cap_are_refused_by_their_parse_type(capsys, argv, message):
    # each 1e+15 count ran until killed: the terms or rows one by one, the exact moments, the atoms.
    # cli._parse refuses them once argv is parsed; their parse types did before
    start = time.perf_counter()
    code, out, err = invoke(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"calclab: {message}\n")


def _documented_argvs():
    """(where, argv) of every argv in tests/test_cli_output.py, every `calclab ...` line of README's code blocks and
    every CLI case of the benchmark's decks at seeds 1-10 (5 rounds each), none of them run."""
    import test_cli_output

    root = Path(__file__).resolve().parents[1]
    own = test_cli_output.NUMPY_FREE + test_cli_output.COMMANDS + list(map(list, test_cli_output.NEGATIVE_ZERO))
    argvs = [("test_cli_output.py", argv) for argv in own]
    blocks = (root / "README.md").read_text(encoding="utf-8").split("```")[1::2]
    argvs += [("README.md", shlex.split(line)[1:]) for b in blocks for line in b.splitlines() if line.startswith("calclab ")]
    spec = importlib.util.spec_from_file_location("bench_cases", root / "bench" / "cases.py")
    cases = sys.modules["bench_cases"] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(cases)
    for name, workload in cases.WORKLOADS.items():
        for seed in range(1, 11):
            argvs += [(f"bench {name} seed {seed}", p["argv"]) for _, p in workload.build(seed, 5) if "argv" in p]
    return argvs


def test_every_documented_cli_count_is_10x_under_its_cap(monkeypatch):
    # the counts as run() checks them: cli._parse hands each capped count to _refuse
    checked = []
    monkeypatch.setattr(cli, "_refuse", lambda count, name, what: checked.append((what, count, _CAPS[name][0])))
    largest, where = {}, set()
    for place, argv in _documented_argvs():
        checked.clear()
        cli._parse(argv)
        where.add(place.split(" seed ")[0])
        for what, count, cap in checked:
            key = (argv[0], what)
            largest[key] = max(largest.get(key, (0, cap, place)), (count, cap, place))
    assert where == {"test_cli_output.py", "README.md", "bench cli-oneshot", "bench numerics"}
    # every capped CLI count is used somewhere
    assert set(largest) == {
        ("sequence", "--n has"), ("constants", "--terms has"), ("law", "--moments has"), ("law", "--count has"),
        ("stieltjes", "--x has"), ("harmonic", "--samples has"), ("hydrogen", "--upto has"), ("hydrogen", "--grid has"),
    }
    # the one exception: sequence --n is held under its cap of 3,000 alone, since
    # test_sequence_prints_integers_past_the_str_digits_limit prints 1700!
    allowed = {key: cap if key == ("sequence", "--n has") else cap / 10 for key, (_, cap, _) in largest.items()}
    assert {key: v for key, v in largest.items() if v[0] > allowed[key]} == {}
    cli._parse(["sequence", "--kind", "factorial", "--n", "1700"])
    assert checked[-1] == ("--n has", 1700, 3000)


def test_every_refusal_names_a_cap_of_the_table_and_every_cap_is_refused():
    # _refuse's name argument is a literal at every site but cli._parse, which reads it from the caps defaults
    named, variable = set(), []
    for path in Path(calclab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_refuse":
                name = node.args[1]
                if isinstance(name, ast.Constant):
                    named.add(name.value)
                else:
                    variable.append((path.name, name.id))
            elif isinstance(node, ast.keyword) and node.arg == "caps" and isinstance(node.value, ast.List):
                named |= {pair.elts[1].value for pair in node.value.elts}
    assert variable == [("cli.py", "name")]
    assert named == set(_CAPS)


def _readme_caps_paragraph():
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    start = text.index("The work is sized before it starts")
    return text[start : text.index("Explicit counts below 1", start)]


def test_readme_states_every_cap_of_the_table_and_every_run_past_5_s():
    paragraph = _readme_caps_paragraph()
    sup = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
    for name, (cap, _, seconds, why) in _CAPS.items():
        # README writes a cap as 3,000, 10⁵, 2¹⁶ or 1.2·10⁸
        mantissa, exponent = f"{cap:e}".split("e")
        power = str(int(exponent)).translate(sup)
        written = {f"{cap:,}", f"{float(mantissa):g}·10{power}", f"10{power}" if float(mantissa) == 1 else None}
        if cap & (cap - 1) == 0:
            written.add("2" + str(cap.bit_length() - 1).translate(sup))
        assert any(form and form in paragraph for form in written), (name, written)
        # a run past about 5 s at its cap says why, and README names its time and its ROADMAP item; bell at the
        # sequence cap, 5.3 s, is about 5 s
        assert bool(why) == (seconds > 6), name
        if why:
            item = why.split(":")[0]
            assert item.startswith("ROADMAP item ") and item in paragraph and f"{seconds:.0f} s" in paragraph, name
    past = sum(seconds > 6 for _, _, seconds, _ in _CAPS.values())
    assert f"with {('no', 'one', 'two', 'three', 'four')[past]} exception" in paragraph


def test_roots_past_the_float_range_exit_2_without_nan(capsys):
    code, out, err = invoke(["roots", "--coeffs=1,1e160,1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("calclab: root iteration left the float range") and err.count("\n") == 1, err


def test_mc_determinism(capsys):
    argv = ["integrate", "--method", "mc", "--fn", "square", "--a", "0", "--b", "1", "--n", "5000", "--seed", "42"]
    code1, out1, _ = invoke(argv, capsys)
    code2, out2, _ = invoke(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_round_trip(capsys):
    code, out, _ = invoke(
        ["constants", "--which", "basel", "--terms", "1000", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["constant", "value", "error_bound"]
    table = run(["constants", "--which", "basel", "--terms", "1000"])
    assert doc["rows"][0][0] == table.rows[0][0]
    assert doc["rows"][0][1] == table.rows[0][1]  # floats survive exactly
    assert doc["rows"][0][2] == table.rows[0][2]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = invoke(
        ["sequence", "--kind", "factorial", "--n", "4", "--output", str(target)], capsys
    )
    assert code == 0
    assert out == ""  # nothing on stdout when a sink is given
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert rows[-1] == ["4", "24"]


def test_empty_table_header_only(capsys):
    buffer = io.StringIO()
    emit(ResultTable(["a", "b"], []), "csv", buffer)
    assert buffer.getvalue() == "a,b\n"


def test_roots_cli(capsys):
    code, out, _ = invoke(["roots", "--coeffs=-1,0,1"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    values = sorted(float(complex(r[1].replace("i", "j")).real) for r in rows)
    assert values == pytest.approx([-1.0, 1.0], abs=1e-9)


def test_eig_cli(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text("2,1\n1,2\n")
    code, out, _ = invoke(["eig", "--matrix", str(matrix)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [float(r[1]) for r in rows] == pytest.approx([3.0, 1.0])


def test_eig_cli_exits_2_on_an_eigenvalue_past_the_float_range(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text("1.7e308,1e308\n1e308,1.7e308\n")
    code, out, err = invoke(["eig", "--matrix", str(matrix)], capsys)
    assert (code, out) == (2, "")
    assert err == "calclab: an eigenvalue overflows the float range\n"


def test_integrate_riemann(capsys):
    code, out, _ = invoke(
        ["integrate", "--method", "riemann", "--fn", "square", "--a", "0", "--b", "1", "--n", "2000"],
        capsys,
    )
    assert code == 0
    value = float(list(csv.reader(io.StringIO(out)))[1][1])
    assert value == pytest.approx(1 / 3, abs=1e-3)


def test_sphere_cli(capsys):
    code, out, _ = invoke(["sphere", "--what", "volume", "--dim", "3"], capsys)
    assert float(list(csv.reader(io.StringIO(out)))[1][1]) == pytest.approx(4 * math.pi / 3)
    code, out, _ = invoke(
        ["sphere", "--what", "moment", "--dim", "2", "--key", "2,0", "--complex"], capsys
    )
    assert float(list(csv.reader(io.StringIO(out)))[1][1]) == pytest.approx(1 / 3)
    code, _, err = invoke(["sphere", "--what", "moment", "--dim", "3", "--key", "2,0"], capsys)
    assert code == 1


def test_law_cli(capsys):
    code, out, _ = invoke(["law", "--name", "mp", "--moments", "4"], capsys)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [round(float(r[1])) for r in rows] == [1, 1, 2, 5, 14]
    code, out, _ = invoke(["law", "--name", "poisson", "--moments", "3", "--t", "1"], capsys)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [float(r[1]) for r in rows] == pytest.approx([1, 1, 2, 5])


def test_law_cli_poisson_prints_every_order(capsys):
    # the partition sum stopped at order 12 and left the cells above it empty
    code, out, _ = invoke(["law", "--name", "poisson", "--moments", "14", "--t", "2"], capsys)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert code == 0 and len(rows) == 15 and all(r[1] for r in rows)
    assert float(rows[14][1]) == pytest.approx(float(sum(s * 2**b for b, s in enumerate(_stirling_row(14)))), rel=1e-14)
    # an order past the float range is a numerical failure naming the order
    code, _, err = invoke(["law", "--name", "poisson", "--moments", "300", "--t", "1"], capsys)
    assert code == 2 and "order 219" in err


def test_constants_e_past_170_terms_prints_the_converged_value(capsys):
    # 1.0/k! overflowed on k! from k = 171, which --terms 170 already reaches in the tail bound
    _, want, _ = invoke(["constants", "--which", "e", "--terms", "30"], capsys)
    for terms in ("170", "200", "100000"):
        start = time.perf_counter()
        code, out, err = invoke(["constants", "--which", "e", "--terms", terms], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[1].split(",")[1] == want.splitlines()[1].split(",")[1]
    assert time.perf_counter() - start < 1.0


def test_law_cli_poisson_moment_just_below_the_float_max(capsys):
    # the sum M_234/0.3 overflows although M_234 is about 1.0157e308
    code, out, err = invoke(["law", "--name", "poisson", "--moments", "234", "--t", "0.3"], capsys)
    assert code == 0 and err == ""
    assert float(out.splitlines()[-1].split(",")[1]) == pytest.approx(1.0156569278224272e308, rel=1e-13)


def _stirling_row(k):
    row = [1]  # S(j, 0..j), from S(j + 1, b) = b S(j, b) + S(j, b - 1)
    for _ in range(k):
        row = [b * s + p for b, (s, p) in enumerate(zip(row + [0], [0] + row))]
    return row


@pytest.mark.parametrize("name, x, count", [("bernoulli", 0.3, 1), ("binomial", 0.3, 7), ("binomial", 0.85, 12)])
def test_law_cli_discrete_moments_are_the_exact_sums(name, x, count):
    argv = ["law", "--name", name, "--moments", "8", "--x", str(x)]
    table = run(argv + (["--count", str(count)] if name == "binomial" else []))
    p = Fraction(x)
    for k, moment in table.rows:
        exact = sum(math.comb(count, j) * p**j * (1 - p) ** (count - j) * j**k for j in range(count + 1))
        assert moment == pytest.approx(float(exact), rel=1e-12)


def test_sphere_area_cli_is_n_times_the_volume():
    for n in range(1, 151):
        area = run(["sphere", "--what", "area", "--dim", str(n)]).rows[0][1]
        assert abs(area - n * sphere_volume(n)) <= 1e-15 * n * sphere_volume(n)


def test_stieltjes_cli(capsys):
    code, out, _ = invoke(
        ["stieltjes", "--law", "semicircle", "--x=-2:2:5", "--t", "0.001"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 5
    mid = float(rows[2][1])
    assert mid == pytest.approx(1 / math.pi, abs=1e-2)


def test_snchi_cli(capsys):
    code, out, _ = invoke(["snchi", "--n", "4"], capsys)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert float(rows[0][1]) == pytest.approx(9 / 24)
    # sampling without a seed is a usage error
    code, _, err = invoke(["snchi", "--n", "12"], capsys)
    assert code == 1 and "seed" in err
    code, out, _ = invoke(["snchi", "--n", "12", "--seed", "3"], capsys)
    assert code == 0


def test_critical_cli(capsys):
    code, out, _ = invoke(["critical", "--fn", "bowl", "--x", "0,0"], capsys)
    rows = dict((r[0], r[1]) for r in list(csv.reader(io.StringIO(out)))[1:])
    assert rows["classification"] == "minimum"


@pytest.mark.parametrize(
    "fn, x, cause",
    [("log_r", "0,0", "math domain error"), ("inv_r", "0,0,0", "float division by zero"),
     ("inv_r", "1e-320,0,0", "float division by zero")],  # r^2 underflows to 0
)
def test_critical_at_a_singularity_names_the_field_and_the_point(capsys, fn, x, cause):
    # cause: Python's own text, which the line carried before the field named its singular point
    code, out, err = invoke(["critical", "--fn", fn, "--x", x], capsys)
    point = tuple(map(float, x.split(",")))  # the stencil's first call, at x itself
    why = {"log_r": "log r has no value at {}, where r = 0", "inv_r": "1/r has no value at {}, where r^2 rounds to 0"}
    assert (code, out) == (2, "")
    assert err == f"calclab: the field {fn} cannot be classified at x = {x}: {fn} = {why[fn].format(point)}\n"
    assert cause not in err


@pytest.mark.parametrize(
    "argv, message, cause",
    [
        (
            ["integrate", "--method", "trapezoid", "--fn", "exp", "--a", "709", "--b", "711", "--n", "4"],
            "the function produced NaN or infinite values",
            "NaN or infinite",
        ),
        # past |x| ~ 1e150 the default step's h^2 overflows: it is refused before the field is called
        (["critical", "--fn", "cubic", "--x", "1e200"], "the field cubic cannot be classified at x = 1e200",
         "does not fit the stencil"),
        (["critical", "--fn", "saddle", "--x", "1e308,1e308"], "the field saddle cannot be classified at x = 1e308,1e308",
         "does not fit the stencil"),
        # below, the step fits and the field overflows
        (["critical", "--fn", "cubic", "--x", "1e155"], "the field cubic cannot be classified at x = 1e155",
         "NaN or infinite"),
        (["critical", "--fn", "saddle", "--x", "1e155,1e155"], "the field saddle cannot be classified at x = 1e155,1e155",
         "NaN or infinite"),
    ],
    ids=["exp-past-709", "cubic-1e200", "saddle-1e308", "cubic-1e155", "saddle-1e155"],
)
def test_a_function_past_the_float_range_is_one_clear_message(argv, message, cause):
    # an OverflowError of the sampled function is a non-finite value: one line on stderr, no
    # bare "math range error" or "(34, 'Numerical result out of range')", and no numpy warning
    proc = subprocess.run(
        [sys.executable, "-m", "calclab.cli", *argv], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"calclab: {message}") and proc.stderr.count("\n") == 1, proc.stderr
    assert cause in proc.stderr


def test_law_prints_the_exact_moments_of_the_builtin_laws(capsys):
    code, out, _ = invoke(["law", "--name", "semicircle", "--moments", "60"], capsys)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert code == 0 and len(rows) == 61
    assert all(r[1] == "0" for r in rows[1::2]) and rows[60] == ["60", "3814986502092304"]
    code, out, _ = invoke(["law", "--name", "arcsine", "--moments", "8"], capsys)
    assert code == 0 and out.splitlines()[-1] == "8,12870"
    for name, want in (("mp", ["1", "1", "2", "5", "14"]), ("marcsine", ["1", "1", "2", "3", "6"])):
        code, out, _ = invoke(["law", "--name", name, "--moments", "4"], capsys)
        assert code == 0 and [r[1] for r in list(csv.reader(io.StringIO(out)))[1:]] == want


@pytest.mark.parametrize("name, order", [("gauss", "order 302"), ("cgauss", "order 171")])
def test_law_moments_past_the_float_range_name_the_order(capsys, name, order):
    code, out, err = invoke(["law", "--name", name, "--moments", "400", "--t", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == f"calclab: the {'complex ' * (name == 'cgauss')}Gaussian moment of {order} leaves the float range\n"


def test_harmonic_cli(capsys):
    code, out, _ = invoke(["harmonic", "--fn", "re_z3", "--samples", "5", "--seed", "1"], capsys)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 5
    assert all(abs(float(r[-1])) < 1e-4 for r in rows)


def test_harmonic_requires_seed(capsys):
    code, _, err = invoke(["harmonic", "--fn", "re_z3", "--samples", "5"], capsys)
    assert code == 1 and "seed" in err
    # the sample points are the seed's Philox stream, shifted by 0.4
    code, out, _ = invoke(["harmonic", "--fn", "re_z3", "--samples", "5", "--seed", "7"], capsys)
    assert code == 0
    pts = 0.4 + np.random.Generator(np.random.Philox(7)).uniform(0.0, 1.0, size=(5, 2))
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [[float(v) for v in r[:2]] for r in rows] == pts.tolist()


def test_orbit_cli(capsys):
    code, out, _ = invoke(
        ["orbit", "--r0", "1", "--vt0", "1", "--K", "1", "--T", "1", "--dt", "0.01"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "x", "y", "Jz", "conic_residual"]
    assert all(float(r[3]) == pytest.approx(1.0, abs=1e-9) for r in rows[1:])


def test_wave_heat_cli(capsys):
    code, out, _ = invoke(
        ["wave", "--profile", "gaussian", "--t", "0.5", "--frames", "2", "--dx", "0.1"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["frame", "t", "x", "u"]
    code, out, _ = invoke(
        ["heat", "--profile", "step", "--t", "0.05", "--frames", "1", "--dx", "0.1"],
        capsys,
    )
    assert code == 0


def test_flux_cli(tmp_path, capsys):
    charges = tmp_path / "charges.csv"
    charges.write_text("q,x,y,z\n1.0,0,0,0\n-2.0,3,0,0\n")
    code, out, _ = invoke(
        ["flux", "--charges", str(charges), "--center", "0,0,0", "--radius", "1", "--order", "16"],
        capsys,
    )
    assert code == 0
    rows = dict((r[0], float(r[1])) for r in list(csv.reader(io.StringIO(out)))[1:])
    assert rows["flux"] == pytest.approx(rows["enclosed_over_eps0"], rel=1e-6)
    assert rows["enclosed_charge"] == 1.0


@pytest.mark.parametrize(
    "k, message",
    [
        ("0", "need a finite Coulomb constant k > 0, not 0.0"),
        ("-1", "need a finite Coulomb constant k > 0, not -1.0"),
        ("-0.0", "need a finite Coulomb constant k > 0, not -0.0"),
        ("1e308", "the flux leaves the float range"),
    ],
)
def test_flux_cli_numerical_failures_name_the_cause(tmp_path, capsys, k, message):
    charges = tmp_path / "charges.csv"
    charges.write_text("1.0,0,0,0\n")
    argv = ["flux", "--charges", str(charges), "--center", "0,0,0", "--radius", "1", f"--k={k}"]
    code, out, err = invoke(argv, capsys)
    assert (code, out, err) == (2, "", f"calclab: {message}\n")


@pytest.mark.parametrize("k", ["1e307", "1e-320", "1e-300"])
def test_flux_cli_at_the_ends_of_the_float_range(tmp_path, capsys, k):
    # 4 pi k Q is finite here, though 1/(4 pi k) overflows at 1e-320
    charges = tmp_path / "charges.csv"
    charges.write_text("1.0,0,0,0\n")
    argv = ["flux", "--charges", str(charges), "--center", "0,0,0", "--radius", "1", "--k", k]
    code, out, err = invoke(argv, capsys)
    assert (code, err) == (0, "")
    rows = dict((r[0], float(r[1])) for r in list(csv.reader(io.StringIO(out)))[1:])
    want = 4.0 * math.pi * float(k)
    assert rows["enclosed_over_eps0"] == want
    assert abs(rows["flux"] - want) <= 1e-12 * want + 2.0 * 5e-324


@pytest.mark.parametrize(
    "text",
    ["q,x,y,z\n1.0,0,abc,0\n", "q,x,y,z\n1.0,0,0\n", "q,x,y,z\n1.0,inf,0,0\n", "nan,0,0,0\n"],
    ids=["non-numeric", "short-row", "infinite-coordinate", "nan-charge"],
)
def test_flux_cli_malformed_charges_are_usage_errors(tmp_path, capsys, text):
    charges = tmp_path / "charges.csv"
    charges.write_text(text)
    code, out, err = invoke(
        ["flux", "--charges", str(charges), "--center", "0,0,0", "--radius", "1"], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("calclab: usage error:")


def test_hydrogen_cli(capsys):
    code, out, _ = invoke(["hydrogen", "lines", "--series", "balmer", "--upto", "7"], capsys)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert float(rows[0][2]) == pytest.approx(656.279, abs=0.1)
    assert rows[-1][1] == ""  # the series limit row
    code, out, _ = invoke(["hydrogen", "energy", "--n", "2"], capsys)
    assert float(list(csv.reader(io.StringIO(out)))[1][2]) == pytest.approx(-3.398, abs=0.01)
    code, out, _ = invoke(
        ["hydrogen", "wavefunction", "--n", "1", "--l", "0", "--m", "0", "--grid", "5,10"],
        capsys,
    )
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 10
    r, dens = float(rows[1][0]), float(rows[1][5])
    assert dens == pytest.approx((math.exp(-r) / math.sqrt(math.pi)) ** 2, rel=1e-9)
    code, _, err = invoke(
        ["hydrogen", "wavefunction", "--n", "1", "--l", "1", "--m", "0", "--grid", "5,10"],
        capsys,
    )
    assert code == 1 and err == "calclab: usage error: need 0 <= l <= n-1 (--n 1, --l 1, --m 0)\n"
    code, out, _ = invoke(
        ["hydrogen", "wavefunction", "--n", "3", "--l", "2", "--m", "0", "--grid", "1e200,2"],
        capsys,
    )
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert code == 0 and [float(row[5]) for row in rows] == [0.0, 0.0]


def test_digits_flag(capsys):
    code, out, _ = invoke(
        ["constants", "--which", "e", "--terms", "30", "--digits", "4"], capsys
    )
    value = list(csv.reader(io.StringIO(out)))[1][1]
    assert value == "2.718"


@pytest.mark.parametrize("digits", ["0", "-2"])
def test_digits_below_one_is_usage_error(capsys, digits):
    code, out, err = invoke(
        ["constants", "--which", "e", "--terms", "30", "--digits", digits], capsys
    )
    assert code == 1 and out == ""
    assert "usage error" in err


def test_emit_digits_zero_is_not_full_precision():
    buffer = io.StringIO()
    emit(ResultTable(["x"], [(math.pi,)]), "csv", buffer, digits=0)
    assert buffer.getvalue() == "x\n3\n"
    buffer = io.StringIO()
    emit(ResultTable(["x"], [(math.pi,)]), "json", buffer, digits=0)
    assert json.loads(buffer.getvalue())["rows"] == [[3.0]]


@pytest.mark.parametrize(
    "argv",
    [
        ["stieltjes", "--law", "semicircle", "--t", "0.1", "--x=1:2:0"],
        ["stieltjes", "--law", "semicircle", "--t", "0.1", "--x=1:2"],
        ["stieltjes", "--law", "semicircle", "--x=1e308:-1e308:4", "--t", "0.001"],
        ["sphere", "--what", "area", "--dim", "0"],
        ["sphere", "--what", "volume", "--dim", "-1"],
        ["law", "--name", "semicircle", "--moments", "-1"],
        ["law", "--name", "poisson", "--moments", "-1"],
        ["hydrogen", "wavefunction", "--n", "1", "--l", "0", "--m", "0", "--grid", "10"],
        ["hydrogen", "wavefunction", "--n", "1", "--l", "0", "--m", "0", "--grid", "5,0"],
        ["critical", "--fn", "bowl", "--x", "a,b"],
        ["roots", "--coeffs=1,x"],
        ["integrate", "--method", "riemann", "--fn", "exp", "--a", "0", "--b", "inf", "--n", "10"],
        ["integrate", "--method", "trapezoid", "--fn", "exp", "--a=-inf", "--b", "0", "--n", "10"],
        ["integrate", "--method", "mc", "--fn", "exp", "--a", "nan", "--b", "1", "--n", "10", "--seed", "1"],
        ["hydrogen", "wavefunction", "--n", "1", "--l", "0", "--m", "0", "--grid", "inf,3"],
        ["sphere", "--what", "moment", "--dim", "2", "--key", "1,x"],
        ["sphere", "--what", "moment", "--dim", "2", "--key", "1,-1"],
    ],
)
def test_malformed_arguments_are_usage_errors(capsys, argv):
    code, out, err = invoke(argv, capsys)
    assert code == 1 and out == ""
    assert "usage error" in err


@pytest.mark.parametrize("grid", ["1e308:-1e308:4", "-1e308:1e308:1", "-1.7e308:1.7e308:2"])
def test_overflowing_grid_span_names_the_option(capsys, grid):
    code, out, err = invoke(["stieltjes", "--law", "semicircle", f"--x={grid}", "--t", "0.001"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("calclab: usage error: --x ") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["riemann", "trapezoid", "mc"])
@pytest.mark.parametrize("interval", [["--a=-1e308", "--b", "1e308"], ["--a", "1.7e308", "--b=-1e308"]])
def test_overflowing_integration_interval_names_the_options(capsys, method, interval):
    argv = ["integrate", "--method", method, "--fn", "square", *interval, "--n", "4", "--seed", "1"]
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("calclab: usage error: --a ") and "--b" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["law", "--name", "gauss", "--moments", "3", "--t", "nan"],
        ["stieltjes", "--law", "mp", "--x=0.7:3.2:5", "--t", "inf"],
        ["stieltjes", "--law", "mp", "--x=0.7:inf:5", "--t", "0.1"],
        ["stieltjes", "--law", "mp", "--x=0.7,nan", "--t", "0.1"],
        ["flux", "--charges", "CHARGES", "--center", "0,0,0", "--radius", "inf"],
        ["flux", "--charges", "CHARGES", "--center", "0,-inf,0", "--radius", "1"],
        ["orbit", "--r0", "1", "--vt0", "1", "--K", "1", "--T", "inf", "--dt", "0.01"],
        ["wave", "--profile", "sine", "--t", "inf"],
        ["heat", "--profile", "step", "--alpha", "nan"],
        ["critical", "--fn", "bowl", "--x", "0,inf"],
    ],
)
def test_non_finite_float_options_are_usage_errors(tmp_path, capsys, argv):
    charges = tmp_path / "charges.csv"
    charges.write_text("1.0,0,0,0\n")
    argv = [str(charges) if a == "CHARGES" else a for a in argv]
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("calclab: usage error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, option",
    [
        (["sequence", "--kind", "catalan", "--n", "-1"], "--n"),
        (["wave", "--profile", "gaussian", "--frames", "0"], "--frames"),
        (["heat", "--profile", "step", "--frames", "0"], "--frames"),
        (["harmonic", "--fn", "re_z3", "--samples", "0", "--seed", "1"], "--samples"),
        (["flux", "--charges", "q.csv", "--center", "0,0,0", "--radius", "1", "--order", "0"], "--order"),
        (["constants", "--which", "basel", "--terms", "0"], "--terms"),
        (["constants", "--which", "e", "--terms", "0"], "--terms"),
        (["constants", "--which", "pi", "--terms", "0"], "--terms"),
        (["law", "--name", "binomial", "--moments", "3", "--count", "0"], "--count"),
        (["snchi", "--n", "0"], "--n"),
        (["hydrogen", "energy", "--n", "0"], "--n"),
        (["hydrogen", "wavefunction", "--n", "0", "--l", "0", "--m", "0", "--grid", "5,3"], "--n"),
        (["hydrogen", "lines", "--series", "balmer", "--upto", "2"], "--upto"),
        (["hydrogen", "wavefunction", "--n", "1", "--l", "5", "--m", "0", "--grid", "5,2"], "--l 5"),
        (["hydrogen", "wavefunction", "--n", "2", "--l", "1", "--m", "9", "--grid", "5,2"], "--m 9"),
        (["flux", "--charges", "q.csv", "--center", "0,0", "--radius", "1"], "--center"),
        (["flux", "--charges", "q.csv", "--center", "0,0,0,0", "--radius", "1"], "--center"),
        (["harmonic", "--fn", "bowl", "--samples", "2", "--seed=-1"], "--seed"),
        (["integrate", "--method", "mc", "--fn", "sin", "--a", "0", "--b", "1", "--n", "10", "--seed=-1"], "--seed"),
        (["snchi", "--n", "12", "--seed=-1"], "--seed"),
        (["integrate", "--method", "riemann", "--fn", "exp", "--a", "0", "--b", "1", "--n", "0"], "--n"),
    ],
    ids=[
        "sequence-n",
        "wave-frames",
        "heat-frames",
        "harmonic-samples",
        "flux-order",
        "basel-terms",
        "e-terms",
        "pi-terms",
        "binomial-count",
        "snchi-n",
        "energy-n",
        "wavefunction-n",
        "lines-upto",
        "wavefunction-l",
        "wavefunction-m",
        "flux-center-2",
        "flux-center-4",
        "harmonic-seed",
        "mc-seed",
        "snchi-seed",
        "integrate-n",
    ],
)
def test_out_of_range_counts_are_usage_errors(capsys, argv, option):
    code, out, err = invoke(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("calclab: usage error:") and option in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wave", "--profile", "sine", "--v=-1"], "need v > 0"),
        (["wave", "--profile", "sine", "--v", "0"], "need v > 0"),
        (["wave", "--profile", "sine", "--dx", "0"], "need dx > 0"),
        (["wave", "--profile", "sine", "--dx=-0.05"], "need dx > 0"),
        (["wave", "--profile", "sine", "--a", "1", "--b", "0"], "need a < b"),
        (["heat", "--profile", "sine", "--dx", "0"], "need dx > 0"),
        (["heat", "--profile", "sine", "--alpha", "0"], "need alpha > 0"),
        (["orbit", "--r0", "0", "--vt0", "1", "--K", "1", "--T", "1", "--dt", "0.1"], "collision"),
        (["orbit", "--r0", "1", "--vt0", "1", "--K", "1", "--T", "1e308", "--dt", "0.1"], "T/dt overflows"),
        (["orbit", "--r0", "1", "--vt0", "1", "--K", "1", "--T", "1", "--dt", "1e-320"], "T/dt overflows"),
        (["wave", "--profile", "sine", "--t", "1e308"], "t/dt overflows"),
        (["heat", "--profile", "sine", "--t", "1e308"], "t/dt overflows"),
        (["orbit", "--r0", "1", "--vt0", "1e308", "--K", "1", "--T", "1", "--dt", "0.01"], "orbit leaves the float range"),
        (["orbit", "--r0", "1", "--vt0", "1", "--K", "1e308", "--T", "1", "--dt", "0.01"], "orbit leaves the float range"),
        (["orbit", "--r0", "1e308", "--vt0", "1", "--K", "1", "--T", "1", "--dt", "0.01"], "orbit leaves the float range"),
        (["orbit", "--r0", "1e120", "--vt0", "1", "--K", "1", "--T", "1", "--dt", "0.01"], "orbit leaves the float range"),
    ],
    ids=[
        "wave-v-negative", "wave-v-0", "wave-dx-0", "wave-dx-negative", "wave-b-below-a", "heat-dx-0", "heat-alpha-0",
        "orbit-at-center", "orbit-T-over-dt", "orbit-tiny-dt", "wave-t-over-dt", "heat-t-over-dt",
        "orbit-vt0-huge", "orbit-K-huge", "orbit-r0-huge", "orbit-r0-cubed-overflows",
    ],
)
def test_bad_lattice_and_orbit_parameters_are_numerical_failures(capsys, argv, message):
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("calclab: ") and message in err and err.count("\n") == 1


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = invoke(
        ["sequence", "--kind", "factorial", "--n", "4", "--output", str(target)], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("calclab: usage error:") and err.count("\n") == 1
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["eig", "--matrix", "DIR"], "--matrix"),
        (["flux", "--charges", "MISSING", "--center", "0,0,0", "--radius", "1"], "--charges"),
        (["eig", "--matrix", "BINARY"], "--matrix"),
        (["flux", "--charges", "BINARY", "--center", "0,0,0", "--radius", "1"], "--charges"),
        (["eig", "--matrix", "EMPTY"], "--matrix"),
        (["eig", "--matrix", "RAGGED"], "--matrix"),
    ],
    ids=["matrix-is-a-directory", "missing-charges", "matrix-not-utf8", "charges-not-utf8", "matrix-empty", "matrix-ragged"],
)
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, argv, option):
    binary = tmp_path / "binary.csv"
    binary.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x01]))
    (tmp_path / "empty.csv").write_text("\n")
    (tmp_path / "ragged.csv").write_text("2,1\n1\n")
    paths = {"DIR": str(tmp_path), "MISSING": str(tmp_path / "missing.csv"), "BINARY": str(binary)}
    paths.update(EMPTY=str(tmp_path / "empty.csv"), RAGGED=str(tmp_path / "ragged.csv"))
    code, out, err = invoke([paths.get(a, a) for a in argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"calclab: usage error: cannot read {option} ") and err.count("\n") == 1


def test_emit_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="yaml"):
        emit(ResultTable(["a"], [(1,)]), "yaml", io.StringIO())


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--method", "trapezoid", "--fn", "square", "--a=-1e308", "--b", "1e308", "--n", "4"],
        ["wave", "--profile", "sine", "--a=-1e308", "--b", "1e308"],
        ["heat", "--profile", "gaussian", "--a=-1e308", "--b", "1e308"],
    ],
    ids=["integrate", "wave", "heat"],
)
def test_an_overflowing_span_is_a_usage_error(capsys, argv):
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "calclab: usage error: --a -1e+308 to --b 1e+308 spans more than the largest float\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["integrate", "--method", "riemann", "--fn", "exp", "--a", "709", "--b", "709.7", "--n", "8"], "the riemann sum"),
        (["integrate", "--method", "trapezoid", "--fn", "exp", "--a", "700", "--b", "709", "--n", "4"], "the trapezoid sum"),
        (["law", "--name", "binomial", "--count", "10", "--moments", "320"], "the atom moment of order 312"),
    ],
    ids=["riemann", "trapezoid", "binomial"],
)
def test_sums_past_the_float_range_are_numerical_failures(capsys, argv, message):
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"calclab: {message} leaves the float range\n"


def test_binomial_law_prints_past_the_float_range_of_the_binomials(capsys):
    code, out, err = invoke(["law", "--name", "binomial", "--count", "2000", "--x", "0.0005", "--moments", "3"], capsys)
    assert (code, err) == (0, "")
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["order", "0", "1", "2", "3"]


def test_binomial_atom_moments_print_past_the_float_range_of_the_powers(capsys):
    code, out, _ = invoke(["law", "--name", "binomial", "--count", "10", "--moments", "311"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and [r[0] for r in rows[-3:]] == ["309", "310", "311"]
    assert float(rows[-1][1]) == 9.765625000000574e307


@pytest.mark.parametrize(
    "argv, shown",
    [(["snchi", "--n", "1000000000", "--seed", "1"], "N = 1,000,000,000 points, past the cap of 65,536"),
     (["snchi", "--n", "200", "--seed", "1"], "200,000,000 entries (1,000,000 samples of N = 200), past the cap of 120,000,000")],
    ids=["n-past-2-16", "n-times-samples"],
)
def test_snchi_past_its_size_caps_is_one_line_and_exit_2(capsys, argv, shown):
    start = time.perf_counter()
    code, out, err = invoke(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"calclab: sn_fixed_point_law asks for {shown}\n"
