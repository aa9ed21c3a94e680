"""Every function the benchmark tracer wraps exists in the library.

`bench/spans.py` names its targets as (layer module, owning class or None,
attribute). A rename in `sheafforms` that leaves a target behind fails here,
not only when the benchmark runs. The file is read, never imported.

A traced `linalg` routine must not reach another traced `linalg` routine, so
that each of their call counts means one call a caller made.
"""

import ast
import importlib
from pathlib import Path

import pytest

from sheafforms import PrimeField, RationalField, linalg


SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _assigned(name):
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {SPANS}")


def test_every_traced_target_resolves_to_a_callable():
    assert _assigned("PACKAGE") == "sheafforms"
    targets = _assigned("TARGETS")
    missing = []
    for layer, owner, attr in targets:
        module = importlib.import_module(f"sheafforms.{layer}")
        home = module if owner is None else getattr(module, owner, None)
        if not callable(getattr(home, attr, None)):
            missing.append(".".join(part for part in (layer, owner, attr) if part))
    assert targets and not missing


def _linalg_calls(field):
    """One small call of each traced `linalg` routine, by name."""
    one, zero = field.one, field.zero
    rows = ((one, 2 * one, zero), (zero, one, 3 * one))
    square = rows + ((one, zero, one),)
    echelon = linalg.rref(rows, field)[0]
    v = (one, 3 * one, 3 * one)
    return {
        "rref": lambda: linalg.rref(rows, field),
        "nullspace": lambda: linalg.nullspace(rows, 3, field),
        "inverse": lambda: linalg.inverse(square, field),
        "matmul": lambda: linalg.matmul(rows, square),
        "mat_vec": lambda: linalg.mat_vec(rows, v),
        "vec_mat": lambda: linalg.vec_mat(v, square),
        "solve": lambda: linalg.solve(rows, (one, zero), field),
        "reduce_against": lambda: linalg.reduce_against(echelon, v, field),
        "complement_rows": lambda: linalg.complement_rows(echelon, square, field),
    }


@pytest.mark.parametrize("order", ["rationals", 7])
def test_a_traced_linalg_call_enters_no_other_traced_linalg_call(order, monkeypatch):
    # the tracer patches module globals, so a traced `linalg` routine that
    # reached another through them would count work no caller asked for in
    # that routine's `calls`
    field = RationalField() if order == "rationals" else PrimeField(order)
    names = [attr for layer, owner, attr in _assigned("TARGETS") if layer == "linalg"]
    calls = _linalg_calls(field)
    assert sorted(names) == sorted(calls)
    entered = []

    def wrap(name, fn):
        def traced(*args, **kwargs):
            entered.append(name)
            return fn(*args, **kwargs)
        return traced

    for name in names:
        monkeypatch.setattr(linalg, name, wrap(name, getattr(linalg, name)))
    for name in names:
        entered.clear()
        calls[name]()
        assert entered == [name], f"{name} entered {entered[1:]}"
