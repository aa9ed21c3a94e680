"""Every function the benchmark tracer wraps exists in the library.

`bench/spans.py` names its targets as (layer module, owning class or None,
attribute). A rename in `sheafforms` that leaves a target behind fails here,
not only when the benchmark runs. The file is read, never imported.
"""

import ast
import importlib
from pathlib import Path


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
