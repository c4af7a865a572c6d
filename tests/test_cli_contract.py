"""The CLI's parse layer: every count and float option refuses what its type refuses, as one
usage-error line (exit 1) that names the option, before any command computes."""

import argparse

import pytest

from calclab import cli

from test_cli_output import _CHARGES, _MATRIX, COMMANDS

# the texts each parse type refuses
REFUSED = {
    cli._positive_int: ["0", "-1", "1.5", "nan", "inf", "abc"],
    cli._natural: ["-1", "1.5", "nan", "inf", "abc"],
    cli._finite_float: ["nan", "inf", "-inf", "abc"],
}


def _leaves(parser, path=()):
    """(argv prefix, parser) of every subcommand that runs a command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaves(sub, path + (name,))


def _splice(argv, option, text):
    """argv with option given as text, in place of any value it had."""
    kept, words = [], iter(argv)
    for word in words:
        if word == option:
            next(words)
        elif not word.startswith(option + "="):
            kept.append(word)
    return kept + [f"{option}={text}"]


def test_every_typed_option_refuses_what_its_type_refuses(tmp_path, capsys):
    files = {"matrix": tmp_path / "m.csv", "charges": tmp_path / "q.csv"}
    files["matrix"].write_text(_MATRIX)
    files["charges"].write_text(_CHARGES)
    leaves = dict(_leaves(cli._build_parser()))
    assert len(leaves) == 18
    wrong, types, plain = [], set(), set()
    for path, parser in leaves.items():
        base = [a.format(**files) for a in next(a for a in COMMANDS if tuple(a[: len(path)]) == path)]
        cli._build_parser(base).parse_args(base)  # the baseline parses
        for action in parser._actions:
            if action.type in (int, float):
                plain.add((path[-1], *action.option_strings))
            for text in REFUSED.get(action.type, ()):
                (option,) = action.option_strings
                types.add(action.type)
                argv = _splice(base, option, text)
                code = cli.main(argv)
                out, err = capsys.readouterr()
                one_line = err.startswith(f"calclab: usage error: argument {option}: ") and err.count("\n") == 1
                if (code, out) != (1, "") or not one_line:
                    wrong.append((argv, code, err))
    assert types == set(REFUSED)
    # the only bare int options are checked against another option or by the library
    assert plain == {("lines", "--upto"), ("wavefunction", "--l"), ("wavefunction", "--m")}
    assert not wrong


@pytest.mark.parametrize("what", ["volume", "area", "moment"])
def test_sphere_key_is_checked_for_every_what(capsys, what):
    code = cli.main(["sphere", "--what", what, "--dim", "3", "--key=-1"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "calclab: usage error: argument --key: '-1' is not a comma list of exponents >= 0\n"
