"""Fuzz test of the scenario boundary: every document, however malformed,
yields a report from `run_scenario_dict` or a `ParseError`, and the `run`
subcommand ends with exit code 0, 1 or 2, never an exception.

Documents are the demo scenarios with one or two values replaced, dropped or
duplicated, demo scenarios whose top-level values are dropped or replaced by
arbitrary JSON, and arbitrary JSON. A mutated demo keeps at most one of its
tasks, so each example costs at most one task's run. The document limits
keep every case small, so no example has a time bound.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheafforms import ParseError, cli
from sheafforms.scenario import TASK_OPS, report_to_json, run_scenario_dict

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos" / "scenarios").glob("*.json"))
DOCS = [json.loads(path.read_text()) for path in DEMOS]

KEYS = ["space", "points", "opens", "field", "rank", "gram", "tasks", "op", "suite",
        "bounds", "cases", "max_rank", "seed", "submodule", "generators", "bases",
        "open", "vectors", "section", "partial", "r", "s", "side", "target_gram", "sigma"]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    # above the document and oracle limits
    st.sampled_from([65, 401, 1025, 10**6, 2**31 + 1, 10**30]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.sampled_from(["rationals", "gf:3", "gf:4", "gf:1000000000000000003", "1/2", "0/1",
                     "2 mod 3", "a", "b", "p", "left", "right", *TASK_OPS]),
    # scalars of 5,000 digits, above the interpreter's default digit limit
    st.sampled_from(["7" * 5000, "-" + "3" * 5000 + "/7", "1/" + "9" * 5000,
                     "4" * 5000 + " mod 3"]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

PARTS = ("space", "field", "rank", "gram", "tasks")

FUZZ = settings(deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _slots(node, out):
    """Every (container, key) pair below node, parents first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            _slots(node[key], out)
    return out


@st.composite
def mutated_demos(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    keep = draw(st.none() | st.integers(0, len(doc["tasks"]) - 1))
    doc["tasks"] = [] if keep is None else [doc["tasks"][keep]]
    for _ in range(draw(st.integers(1, 2))):
        # one part of the document, then one slot inside it
        part = draw(st.sampled_from([key for key in PARTS if key in doc]))
        slots = [(doc, part)]
        if isinstance(doc[part], (dict, list)):
            _slots(doc[part], slots)
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if action == "replace":
            container[key] = draw(SCALARS | JSON)
        elif action == "drop":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[draw(st.sampled_from(KEYS))] = copy.deepcopy(container[key])
    return doc


@st.composite
def shaped(draw):
    """A demo document with its first task, whose top-level values are kept
    but for one or two, each dropped or replaced by arbitrary JSON."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    doc["tasks"] = doc["tasks"][:1]
    for key in draw(st.sets(st.sampled_from(PARTS), min_size=1, max_size=2)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(JSON)
    return doc


def _report_or_parse_error(doc):
    try:
        report = run_scenario_dict(doc)
    except ParseError:
        return
    assert set(report) == {"header", "tasks", "ok"}
    assert len(report["tasks"]) == len(doc["tasks"] if "tasks" in doc else [])
    for entry in report["tasks"]:
        assert entry["status"] in ("ok", "error"), entry
    json.loads(report_to_json(report))


@FUZZ
@given(mutated_demos())
def test_mutated_demo_documents(doc):
    _report_or_parse_error(doc)


@FUZZ
@given(JSON)
def test_arbitrary_json(doc):
    _report_or_parse_error(doc)


@FUZZ
@given(shaped())
def test_demo_keys_with_arbitrary_values(doc):
    _report_or_parse_error(doc)


@settings(FUZZ, max_examples=60)
@given(mutated_demos(), st.none() | st.integers(0, 400))
def test_cli_run_on_mutated_documents(doc, cut):
    """The document goes through a file and `cli.main(["run", path])`; `cut`
    truncates the text, so some files are not JSON at all."""
    text = json.dumps(doc)
    if cut is not None:
        text = text[:cut]
    handle, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            out.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2)
