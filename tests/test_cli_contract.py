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
    cli._int: ["1.5", "nan", "inf", "abc"],
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


def _baselines(tmp_path):
    """(subcommand path, its parser, its COMMANDS argv) of the 18 subcommands that run a command."""
    files = {"matrix": tmp_path / "m.csv", "charges": tmp_path / "q.csv"}
    files["matrix"].write_text(_MATRIX)
    files["charges"].write_text(_CHARGES)
    leaves = list(_leaves(cli._build_parser()))
    assert len(leaves) == 18
    for path, parser in leaves:
        yield path, parser, [a.format(**files) for a in next(a for a in COMMANDS if tuple(a[: len(path)]) == path)]


def test_every_typed_option_refuses_what_its_type_refuses(tmp_path, capsys):
    wrong, types, plain = [], set(), set()
    for path, parser, base in _baselines(tmp_path):
        cli._build_parser(base).parse_args(base)  # the baseline parses
        for action in parser._actions:
            kind = action.type
            if kind in (int, float):
                plain.add((path[-1], *action.option_strings))
            for text in REFUSED.get(kind, ()):
                (option,) = action.option_strings
                types.add(kind)
                argv = _splice(base, option, text)
                code = cli.main(argv)
                out, err = capsys.readouterr()
                one_line = err.startswith(f"calclab: usage error: argument {option}: ") and err.count("\n") == 1
                if (code, out) != (1, "") or not one_line:
                    wrong.append((argv, code, err))
    assert types == set(REFUSED)
    # the only bare int options are checked against another option or by the library
    assert plain == {("wavefunction", "--l"), ("wavefunction", "--m")}
    assert not wrong


@pytest.mark.parametrize("what", ["volume", "area", "moment"])
def test_sphere_key_is_checked_for_every_what(capsys, what):
    code = cli.main(["sphere", "--what", what, "--dim", "3", "--key=-1"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "calclab: usage error: argument --key: '-1' is not a comma list of exponents >= 0\n"


def test_every_int_option_refuses_a_non_integer_in_argparse_words(tmp_path, capsys):
    # the parse types _positive_int, _natural and _int say what argparse says for int, not their own names
    wrong, seen = [], set()
    for _, parser, base in _baselines(tmp_path):
        for action in parser._actions:
            kind = action.type
            if kind in (int, cli._positive_int, cli._natural, cli._int):
                (option,) = action.option_strings
                seen.add(kind)
                argv = _splice(base, option, "1.5")
                code = cli.main(argv)
                out, err = capsys.readouterr()
                if (code, out, err) != (1, "", f"calclab: usage error: argument {option}: invalid int value: '1.5'\n"):
                    wrong.append((argv, code, err))
    assert seen == {int, cli._positive_int, cli._natural, cli._int}
    assert not wrong
