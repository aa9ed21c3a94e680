"""Scans of the library's source. It states its invariants as explicit
raises: `python -O` strips `assert` statements, so a certificate or an
invariant that rests on one is not checked at all under it. A failed
self-check raises `SelfCheckFailed`, a coded error that a report shows,
never `AssertionError`, which no caller catches. And it sets no
field of a frozen object behind its back: what a form keeps lives in its
memo (`bilinear._kept`), never in a field set through
`object.__setattr__`. And every private helper it defines has a caller."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sheafforms"


def found(match):
    """`path:line` of every node of the library's modules that `match`
    accepts."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    return [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if match(node)
    ]


def test_no_module_of_the_library_uses_assert():
    assert found(lambda node: isinstance(node, ast.Assert)) == []


def test_no_module_of_the_library_names_assertion_error():
    assert found(lambda node: isinstance(node, ast.Name) and node.id == "AssertionError") == []


def test_no_module_of_the_library_calls_object_setattr():
    def setattr_of_object(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        )

    assert found(setattr_of_object) == []


def _named(node) -> set:
    """The identifiers `node` names: variables, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(filter(None, (sub.name, sub.asname)))
    return out


def test_every_private_helper_has_a_caller():
    # a module-level `_private` function or class that nothing in the
    # library names outside its own definition is a leftover of a refactor
    defined, named = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _named(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.endswith("__"):
                    defined[stmt.name] = f"{path.relative_to(PACKAGE)}:{stmt.lineno}"
                names.discard(stmt.name)
            named |= names
    assert defined
    assert sorted(where for name, where in defined.items() if name not in named) == []
