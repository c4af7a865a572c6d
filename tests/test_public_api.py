"""Every public name earns its place.

A name in a module's ``__all__`` is defined there, and something outside
its own unit tests reaches it: another src module or a benchmark file names
it as a word, an acceptance test does, another top-level definition of its
own module refers to it, or its module's README Layout row names it in
backticks.  A name that none of these reaches is deleted, moved into
``tests/oracles.py`` or made private.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = {path.stem: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "calclab").glob("*.py"))}
OUTSIDE = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))]
OUTSIDE.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _public(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _used_by_own_definitions(tree, name):
    """Whether a top-level statement of the module other than the name's own definition and
    ``__all__`` refers to the name."""
    for node in tree.body:
        if _defined_names(node) & {name, "__all__"}:
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id == name) or (isinstance(sub, ast.Attribute) and sub.attr == name):
                return True
    return False


def _layout_row(module):
    prefix = f"| `calclab.{module}` |"
    return next((line for line in README.splitlines() if line.startswith(prefix)), "")


MODULES = [module for module, text in SRC.items() if _public(ast.parse(text))]


def test_every_module_with_public_names_is_scanned():
    assert {"combinat", "diffcalc", "dynamics", "hydrogen", "linalg", "prob", "quad", "series"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_defined_and_reached(module):
    tree = ast.parse(SRC[module])
    loaded = importlib.import_module(f"calclab.{module}")
    others = [text for other, text in SRC.items() if other != module] + OUTSIDE
    row = _layout_row(module)
    undefined, unreached = [], []
    for name in _public(tree):
        if not hasattr(loaded, name):
            undefined.append(name)
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not (
            any(word.search(text) for text in others)
            or _used_by_own_definitions(tree, name)
            or f"`{name}`" in row
        ):
            unreached.append(name)
    assert undefined == [], f"calclab.{module}.__all__ names what the module does not define"
    assert unreached == [], (
        f"calclab.{module}: no caller outside the unit tests and no clause in README's Layout row; "
        "document, delete, move to tests/oracles.py or make private"
    )
