"""Scans of the library's source. It states its invariants as explicit
raises: `python -O` strips `assert` statements, so a certificate or an
invariant that rests on one is not checked at all under it. A failed
self-check raises `SelfCheckFailed`, a coded error that a report shows,
never `AssertionError`, which no caller catches. And it sets no
field of a frozen object behind its back: what a form keeps lives in its
memo (`bilinear._kept`), never in a field set through
`object.__setattr__`. And every private helper it defines has a caller.
And it reaches `linalg` only through held rows: no module but `linalg`
names its routines on field elements or its field-less products."""

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


# the routines of `linalg` on field elements and its field-less products:
# the library reaches `linalg` only through held rows, so no module but
# `linalg` itself names one. Bare names are not matched, since `module.rank`
# or a local `inverse` is no call of `linalg`.
FIELD_ELEMENT = {
    "rref", "rank", "nullspace", "solve", "inverse", "reduce_against",
    "complement_rows", "matmul", "mat_vec", "vec_mat",
}


def _field_element_lines(tree) -> list:
    """The lines of `tree` that name a field-element routine of `linalg`:
    `X.<name>` for each X that an import binds `linalg` to (`from . import
    linalg as la`, `import sheafforms.linalg`, ...), or `from .linalg
    import <name>`."""
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names if alias.name.split(".")[-1] == "linalg"
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = node.attr in FIELD_ELEMENT and ast.unparse(node.value) in bound
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[-1] == "linalg" and any(
                alias.name in FIELD_ELEMENT for alias in node.names
            )
        else:
            hit = False
        if hit:
            out.append(node.lineno)
    return sorted(out)


def test_forms_pair_on_their_held_gram_matrices():
    planted = (
        "from .linalg import vec_mat, hold\n"
        "from . import linalg\n"
        "from . import linalg as la\n"
        "import sheafforms.linalg\n"
        "class A:\n"
        "    def f(self, module):\n"
        "        inverse = module.rank\n"
        "        linalg.matmul(a, linalg.held_rank(b, field))\n"
        "        la.inverse(la.hold(m, field), field)\n"
        "        sheafforms.linalg.mat_vec(m, v)\n"
    )
    assert _field_element_lines(ast.parse(planted)) == [1, 8, 9, 10]
    modules = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "linalg.py"]
    assert len(modules) > 1
    hits = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in modules
        for line in _field_element_lines(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert hits == []
