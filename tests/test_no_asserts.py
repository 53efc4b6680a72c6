"""Invariants in the package are raised errors, not ``assert`` statements,
which ``python -O`` strips."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hornkit"


def test_package_has_no_assert_statements():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
