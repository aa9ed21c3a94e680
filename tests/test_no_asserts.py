"""Scans of the library's source. It states its invariants as explicit
raises: `python -O` strips `assert` statements, so a certificate or an
invariant that rests on one is not checked at all under it. A failed
self-check raises `SelfCheckFailed`, a coded error that a report shows,
never `AssertionError`, which no caller catches. And it sets no
field of a frozen object behind its back: what a form keeps lives in its
memo (`bilinear._kept`), never in a field set through
`object.__setattr__`. And every private helper it defines has a caller.
And the forms pair on the held Gram matrices they keep: `bilinear` and
`symplectic` name the field-less products of `linalg` only where they work
on field elements by design."""

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


# the field-less products of `linalg`, and the only places of `bilinear` and
# `symplectic` that may name them: they act on field elements, not on a Gram
# matrix the form keeps held
FIELD_LESS = {"matmul", "mat_vec", "vec_mat"}
FIELD_ELEMENT_CODE = {"Isometry.apply", "compose_isometries", "_asymmetry_pair"}


def _scoped_names(node, scope=()):
    """(the enclosing definitions, joined by dots, and the line) of every
    name, attribute or import below `node` that names a field-less
    product."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            out += _scoped_names(child, scope + (child.name,))
            continue
        own = {getattr(child, key, None) for key in ("id", "attr", "name", "asname")}
        if own & FIELD_LESS:
            out.append((".".join(scope), child.lineno))
        out += _scoped_names(child, scope)
    return out


def test_forms_pair_on_their_held_gram_matrices():
    planted = "from .linalg import vec_mat\nclass A:\n    def f(self):\n        linalg.matmul(a, b)\n"
    assert _scoped_names(ast.parse(planted)) == [("", 1), ("A.f", 4)]
    hits = []
    for name in ("bilinear.py", "symplectic.py"):
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        hits += [(name, scope, line) for scope, line in _scoped_names(tree)]
    allowed = [
        hit for hit in hits
        if any(".".join(hit[1].split(".")[:k]) in FIELD_ELEMENT_CODE for k in (1, 2))
    ]
    assert allowed  # the scan sees the field-element code
    assert [hit for hit in hits if hit not in allowed] == []
