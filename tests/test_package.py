"""Rules that hold across the package's source and its README: every figure
is an int or a ``Fraction``, and README names the error codes and the
commands that the package has."""

import ast
import importlib
import re
from pathlib import Path

import brauer_kit
from brauer_kit import cli

SOURCES = sorted(Path(brauer_kit.__file__).parent.glob("*.py"))
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _float_uses(tree: ast.AST, scope: str):
    """(scope, line, form) of each float literal, ``/`` and ``float(`` call."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield inner, node.lineno, "literal"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield inner, node.lineno, "/"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield inner, node.lineno, "float("
        yield from _float_uses(node, inner)


def test_the_package_computes_no_float():
    # decimals appear only when the report is rendered: cli._round's float(
    found = []
    for path in SOURCES:
        found.extend(_float_uses(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert [(scope, form) for scope, _, form in found] == [("cli._round", "float(")], found


def _error_codes() -> set:
    """The ``code`` of each error class that a module of the package defines."""
    codes = set()
    for path in SOURCES:
        module = importlib.import_module(f"brauer_kit.{path.stem}")
        codes.update(value.code for value in vars(module).values()
                     if isinstance(value, type) and issubclass(value, Exception)
                     and value.__module__ == module.__name__ and hasattr(value, "code"))
    return codes


def test_readme_lists_every_error_code():
    # the CLI prints a class's code, E_IO for an OSError and E_INTERNAL for
    # any other exception; README names no other code anywhere
    listed = re.search(r"with stable\s+codes \(([^)]*)\)", README).group(1)
    codes = _error_codes() | {"E_IO", "E_INTERNAL"}
    assert len(codes) == 7
    assert sorted(re.findall(r"E_[A-Z_]+", listed)) == sorted(codes)
    assert set(re.findall(r"\bE_[A-Z_]+", README)) == codes


def test_readme_cli_block_runs_every_command():
    block = README.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"\bbrauer-kit ([a-z-]+)", block)) == set(cli._COMMANDS)
