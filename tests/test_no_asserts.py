"""The library states its invariants as explicit raises: `python -O` strips
`assert` statements, so a certificate or an invariant that rests on one is
not checked at all under it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sheafforms"


def test_no_module_of_the_library_uses_assert():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
