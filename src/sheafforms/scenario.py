"""Scenario files and reports.

A scenario is a JSON document fixing one space, one field, one free module
with a bilinear form, and an ordered list of tasks. Reports mirror the task
list. Each op has one handler (`_HANDLERS`, whose keys are `TASK_OPS`),
which returns the task's payload and its certificate. A task's status is
"ok" only when every certificate value is true; otherwise it is
"certificate_failed", with payload and certificate kept to show which check
failed, and the report is not ok (exit code 1 from `sheafforms run`).

Each certificate value is decided once, by the library:
- where a construction certifies its own result, the value is that
  verdict: `classify` (`classify_orthosymmetry` re-checks its witness with
  `certify_witness`), and `symplectic_basis`, `normal_form` and
  `decomposition` (the completion checks P^T G P = A_2n);
- the others are recomputed from the result by one certificate function:
  `radical` (`certify_radical`), `orthogonal` (`certify_orthogonal`) and
  `project` (`certify_projection`) in `bilinear`, `envelope`
  (`certify_envelope`) and `witt` (`certify_witt`) in `symplectic`.
A construction that fails its own check raises `SelfCheckFailed`, which,
like every `SheafFormsError` of a task, becomes an error entry with its
code. One that fails while the document's space is validated is raised as
it is, not as a `ParseError`: the document is not at fault.

Scalar encoding is the field's own string format, so parsing a serialized
payload yields equal values.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction

from .bilinear import (
    BilinearForm,
    certify_orthogonal,
    certify_projection,
    certify_radical,
    classify_orthosymmetry,
)
from .errors import EmptyOpen, ParseError, SelfCheckFailed, SheafFormsError
from .fields import FpElement, field_from_name
from .modules import (
    FreeModule,
    ModuleSection,
    Submodule,
    from_rows,
    full_submodule,
    span,
)
from .oracles import SUITES, run_suite
from .symplectic import (
    PartialFamily,
    certify_envelope,
    certify_witt,
    gram_schmidt_extend,
    hyperbolic_decomposition,
    hyperbolic_envelope,
    normal_form,
    witt_extend,
)
from .topology import validate_topology

ENV_FIELD = "SHEAFFORMS_FIELD"

# Size limits on a document, which is untrusted input. They admit every
# shipped document (at most 10 points, 243 opens, rank 4, 11 tasks) and bound
# the work a document can ask for: a new space's closure check is quadratic in
# its opens, and every task runs in turn. A scalar has at most
# MAX_SCALAR_DIGITS digits in all (numerator and denominator, or value and
# modulus: "k mod p" has at most 20 for p <= fields.MAX_PRIME), counted before
# it is converted, so no conversion of a document meets the interpreter's digit
# limit. At MAX_RANK, integer Gram entries of that many digits give isometries
# of about 3,500 digits, under the interpreter's default limit of 4,300; a
# longer result entry is an `EntryTooLong` error entry (see `fields`).
MAX_POINTS = 64
MAX_OPENS = 1024
MAX_RANK = 16
MAX_TASKS = 64
MAX_SCALAR_DIGITS = 20


@dataclass(frozen=True)
class Scenario:
    space: object
    field: object
    module: FreeModule
    form: BilinearForm
    tasks: tuple


# -- parsing ------------------------------------------------------------------

def _expect(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    value = doc[key]
    # bool is a subclass of int, yet true is not a rank
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ParseError(f"{where}: {key!r} has the wrong type")
    return value


def _points(value, where: str) -> tuple:
    """A JSON list of points; a point is a string or an integer. The exact
    type test rejects bool, a subclass of int."""
    if not isinstance(value, list) or not set(map(type, value)) <= {str, int}:
        raise ParseError(f"{where}: expected a list of points (strings or integers)")
    return tuple(value)


def _scalar(field, text, where: str):
    """One scalar of the document, refused before the field converts it when
    it has more than `MAX_SCALAR_DIGITS` digits."""
    if isinstance(text, str) and len(text) > MAX_SCALAR_DIGITS:
        if sum(map(str.isdigit, text)) > MAX_SCALAR_DIGITS:
            raise ParseError(f"{where}: a scalar has more than {MAX_SCALAR_DIGITS} digits")
    return field.parse(text)


def _rows(doc, field, n: int, where: str) -> tuple:
    """A JSON list of rows of n scalars each, as tuples of field elements:
    the matrices, section vectors and submodule bases of a document."""
    if not isinstance(doc, list):
        raise ParseError(f"{where}: expected a list of rows")
    for row in doc:
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}: expected rows of length {n}")
    return tuple(tuple(_scalar(field, x, where) for x in row) for row in doc)


def parse_matrix(doc, field, n: int, where: str):
    if not isinstance(doc, list) or len(doc) != n:
        raise ParseError(f"{where}: expected {n} rows")
    return _rows(doc, field, n, where)


def format_matrix(m, field):
    return [[field.format(x) for x in row] for row in m]


def parse_section(doc, module: FreeModule, where: str) -> ModuleSection:
    u_ref = module.space.ref(_points(_expect(doc, "open", None, where), f"{where}.open"))
    comps = module.space.components_of(u_ref)
    vecs = _expect(doc, "vectors", list, where)
    if len(vecs) != len(comps):
        raise ParseError(
            f"{where}: open has {len(comps)} components, got {len(vecs)} vectors"
        )
    return ModuleSection(module, u_ref, _rows(vecs, module.field, module.rank, where))


def open_points(space, ref) -> list:
    """Points of an open in the space's declared point order, so serialized
    reports are stable (opens are stored as sets)."""
    members = space.opens[ref]
    return [p for p in space.points if p in members]


def format_section(sec: ModuleSection) -> dict:
    field = sec.module.field
    return {
        "open": open_points(sec.module.space, sec.open),
        "vectors": [[field.format(x) for x in vec] for vec in sec.vectors],
    }


def parse_submodule(doc, module: FreeModule, where: str) -> Submodule:
    """Either {"generators": [section...]} or {"bases": per-component rows}."""
    if isinstance(doc, dict) and "bases" in doc:
        ncomp = len(module.x_components())
        bases = _expect(doc, "bases", list, where)
        if len(bases) != ncomp:
            raise ParseError(f"{where}: expected {ncomp} component bases")
        return from_rows(
            module, tuple(_rows(rows, module.field, module.rank, where) for rows in bases)
        )
    if isinstance(doc, dict) and "generators" in doc:
        gens = _expect(doc, "generators", list, where)
    elif isinstance(doc, list):
        gens = doc
    else:
        raise ParseError(f"{where}: expected generators or bases")
    return span(
        module, [parse_section(g, module, f"{where}.generators") for g in gens]
    )


def format_submodule(sub: Submodule) -> dict:
    field = sub.module.field
    return {
        "dims": list(sub.dims),
        "bases": [
            [[field.format(x) for x in row] for row in rows] for rows in sub.bases
        ],
    }


def parse_partial(doc, module: FreeModule, where: str) -> PartialFamily:
    """Null, absent or {"r": {index: section}, "s": {...}}, each index the
    ASCII decimal of its int, so that no two keys name one index."""
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    for key in doc:
        if key not in ("r", "s"):
            raise ParseError(f"{where}: unknown side {key!r}, expected 'r' or 's'")
    out = {"r": {}, "s": {}}
    for key, entries in doc.items():
        if entries is None:
            continue
        if not isinstance(entries, dict):
            raise ParseError(f"{where}.{key}: expected an object")
        for idx_str, sec_doc in entries.items():
            try:
                idx = int(idx_str)
            except (TypeError, ValueError):
                raise ParseError(f"{where}.{key}: bad index {idx_str!r}")
            if str(idx) != idx_str:
                raise ParseError(f"{where}.{key}: index {idx_str!r} is not written {str(idx)!r}")
            out[key][idx] = parse_section(sec_doc, module, f"{where}.{key}[{idx_str}]")
    return PartialFamily.of(out["r"], out["s"])


def _parse_grams(doc, module: FreeModule, where: str) -> tuple:
    """One Gram matrix per X-component of the module; the count is checked
    before any matrix is parsed."""
    ncomp = len(module.x_components())
    if len(doc) != ncomp:
        raise ParseError(f"{where}: expected {ncomp} component matrices, got {len(doc)}")
    return tuple(
        parse_matrix(g, module.field, module.rank, f"{where}[{i}]") for i, g in enumerate(doc)
    )


def scenario_from_dict(doc: dict) -> Scenario:
    where = "scenario"
    space_doc = _expect(doc, "space", dict, where)
    points = _points(_expect(space_doc, "points", None, "space"), "space.points")
    if len(points) > MAX_POINTS:
        raise ParseError(f"space: at most {MAX_POINTS} points are allowed, got {len(points)}")
    opens = _expect(space_doc, "opens", list, "space")
    if len(opens) > MAX_OPENS:
        raise ParseError(f"space: at most {MAX_OPENS} opens are allowed, got {len(opens)}")
    opens = [_points(u, "space.opens") for u in opens]
    try:
        space = validate_topology(points, opens)
    except SelfCheckFailed:
        raise  # a defect of the library, not of the document
    except SheafFormsError as exc:
        raise ParseError(f"space: {exc.code}: {exc.message}") from exc

    field_name = doc.get("field")
    if field_name is None:
        field_name = os.environ.get(ENV_FIELD, "rationals")
    field = field_from_name(field_name)

    rank = _expect(doc, "rank", int, where)
    if rank < 0:
        raise ParseError("scenario: rank must be non-negative")
    if rank > MAX_RANK:
        raise ParseError(f"scenario: rank must be at most {MAX_RANK}, got {rank}")
    module = FreeModule(space, field, rank)

    gram = _parse_grams(_expect(doc, "gram", list, where), module, "gram")
    try:
        form = BilinearForm(module, gram)
    except SheafFormsError as exc:
        raise ParseError(f"gram: {exc.code}: {exc.message}") from exc

    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list):
        raise ParseError("scenario: tasks must be a list")
    if len(tasks) > MAX_TASKS:
        raise ParseError(f"scenario: at most {MAX_TASKS} tasks are allowed, got {len(tasks)}")
    for i, task in enumerate(tasks):
        op = _expect(task, "op", str, f"tasks[{i}]")
        if op not in TASK_OPS:
            raise ParseError(f"tasks[{i}]: unknown op {op!r}")
        if op == "oracle":
            suite = _expect(task, "suite", str, f"tasks[{i}]")
            if suite not in SUITES:
                raise ParseError(f"tasks[{i}]: unknown oracle suite {suite!r}")
    return Scenario(space, field, module, form, tuple(tasks))


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read scenario: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario root must be an object")
    return scenario_from_dict(doc)


# -- report helpers ------------------------------------------------------------------

def _jsonable(value):
    """Best-effort JSON view of witness data for diagnostics."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, FpElement):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, ModuleSection):
        return format_section(value)
    return str(value)


def _require_nonempty(sec: ModuleSection, what: str) -> ModuleSection:
    if not sec.module.space.opens[sec.open]:
        raise EmptyOpen(f"{what} is a section over the empty open")
    return sec


def _plane_payload(plane) -> dict:
    return {
        "r": format_section(plane.r),
        "s": format_section(plane.s),
        "span": format_submodule(plane.span),
    }


# -- task handlers -------------------------------------------------------------
#
# One per op: handler(scenario, task, default_seed) -> (payload, certificate).
# A certificate value written True is the verdict of a check the library has
# made on its own result: the result it returned passed it, and a failure
# would have raised `SelfCheckFailed` instead.

def _classify_task(scenario, task, default_seed):
    cls = classify_orthosymmetry(scenario.form)
    witness = cls.witness
    payload = {
        "orthosymmetric": cls.orthosymmetric,
        "per_component": [
            {"symmetric": c.symmetric, "alternating": c.alternating}
            for c in cls.per_component
        ],
        "witness": None
        if witness is None
        else {
            "open": open_points(scenario.space, witness.open),
            "r": format_section(witness.r),
            "s": format_section(witness.s),
        },
    }
    # classify_orthosymmetry re-checks its witness with certify_witness
    return payload, {"witness_rechecked": True}


def _radical_task(scenario, task, default_seed):
    form, module = scenario.form, scenario.module
    inside = _task_submodule(task, module, "radical") if "submodule" in task else None
    rad = form.radical(inside)
    carrier = inside if inside is not None else full_submodule(module)
    return (
        {"radical": format_submodule(rad)},
        {"pairs_to_zero_inside_carrier": certify_radical(form, rad, carrier)},
    )


def _orthogonal_task(scenario, task, default_seed):
    side = task.get("side", "left")
    if side not in ("left", "right"):
        raise ParseError(f"orthogonal: bad side {side!r}")
    f = _task_submodule(task, scenario.module, "orthogonal")
    perp = scenario.form.orthogonal(f, side=side)
    annihilates, dimension_formula = certify_orthogonal(scenario.form, perp, f, side)
    return (
        {"orthogonal": format_submodule(perp), "side": side},
        {"annihilates_carrier": annihilates, "dimension_formula": dimension_formula},
    )


def _project_task(scenario, task, default_seed):
    module = scenario.module
    f = _task_submodule(task, module, "project")
    t = _require_nonempty(
        parse_section(_expect(task, "section", None, "project"), module, "project.section"),
        "project target",
    )
    p = scenario.form.project(f, t)
    return {"projection": format_section(p)}, certify_projection(scenario.form, f, t, p)


def _symplectic_basis_task(scenario, task, default_seed):
    partial = parse_partial(task.get("partial"), scenario.module, "symplectic_basis.partial")
    for _, sec in partial.r + partial.s:
        _require_nonempty(sec, "partial family section")
    basis = gram_schmidt_extend(scenario.form, partial)
    # the completion checks its congruence and keeps the given sections
    # verbatim at their indices
    return (
        {
            "r": [format_section(sec) for sec in basis.r],
            "s": [format_section(sec) for sec in basis.s],
        },
        {"relations_and_partial": True},
    )


def _normal_form_task(scenario, task, default_seed):
    mats = normal_form(scenario.form)
    # the matrices are the completion that checked its congruence
    return (
        {"matrices": [format_matrix(p, scenario.field) for p in mats]},
        {"congruent_to_standard": True},
    )


def _decomposition_task(scenario, task, default_seed):
    planes = hyperbolic_decomposition(scenario.form)
    # the planes are the pairs of the completion that checked its congruence
    return (
        {"planes": [_plane_payload(pl) for pl in planes]},
        {"pairwise_orthogonal_nondegenerate": True},
    )


def _envelope_task(scenario, task, default_seed):
    f = _task_submodule(task, scenario.module, "envelope")
    planes = hyperbolic_envelope(scenario.form, f)
    return (
        {"planes": [_plane_payload(pl) for pl in planes]},
        {"envelope_equations": certify_envelope(scenario.form, f, planes)},
    )


def _witt_task(scenario, task, default_seed):
    module = scenario.module
    grams = _parse_grams(_expect(task, "target_gram", list, "witt"), module, "witt.target_gram")
    target = BilinearForm(module, grams)
    f = _task_submodule(task, module, "witt")
    images = [
        _require_nonempty(parse_section(sec, module, f"witt.sigma[{i}]"), "sigma image")
        for i, sec in enumerate(_expect(task, "sigma", list, "witt"))
    ]
    iso = witt_extend(scenario.form, target, f, images)
    return (
        {"matrices": [format_matrix(m, module.field) for m in iso.matrices]},
        {"isometry_and_agreement": certify_witt(iso, f, images)},
    )


def _oracle_task(scenario, task, default_seed):
    if "seed" in task:
        seed = _expect(task, "seed", int, "oracle")
    else:
        seed = default_seed if default_seed is not None else 0
    bounds = dict(_expect(task, "bounds", dict, "oracle")) if "bounds" in task else {}
    if "max_rank" in task:
        bounds["max_rank"] = task["max_rank"]
    field = field_from_name(task["field"]) if "field" in task else scenario.field
    payload = run_suite(task["suite"], seed, field, bounds)
    return payload, {"deterministic_given_seed": True}


_HANDLERS = {
    "classify": _classify_task,
    "radical": _radical_task,
    "orthogonal": _orthogonal_task,
    "project": _project_task,
    "symplectic_basis": _symplectic_basis_task,
    "normal_form": _normal_form_task,
    "decomposition": _decomposition_task,
    "envelope": _envelope_task,
    "witt": _witt_task,
    "oracle": _oracle_task,
}
TASK_OPS = tuple(_HANDLERS)


def _run_task(scenario: Scenario, task: dict, default_seed) -> dict:
    """The report entry of one task: its payload and certificate, or the
    code, message and witness of the `SheafFormsError` it raised."""
    op = task["op"]
    started = time.perf_counter()
    try:
        payload, certificate = _HANDLERS[op](scenario, task, default_seed)
        entry = {
            "status": "ok" if all(certificate.values()) else "certificate_failed",
            "payload": payload,
            "certificate": certificate,
        }
    except SheafFormsError as exc:
        entry = {
            "status": "error",
            "error": {"code": exc.code, "message": exc.message, "witness": _jsonable(exc.witness)},
        }
    return {"op": op, **entry, "time_ms": round((time.perf_counter() - started) * 1000.0, 3)}

def _task_submodule(task: dict, module: FreeModule, op: str) -> Submodule:
    return parse_submodule(_expect(task, "submodule", None, op), module, f"{op}.submodule")


# -- report assembly ----------------------------------------------------------

def run_scenario_dict(doc: dict, seed=None) -> dict:
    return run_scenario(scenario_from_dict(doc), seed)


def run_scenario(scenario: Scenario, seed=None) -> dict:
    header = {
        "field": scenario.field.name,
        "rank": scenario.module.rank,
        "points": list(scenario.space.points),
        "seed": seed,
    }
    env = os.environ.get(ENV_FIELD)
    if env is not None:
        header["env_field"] = env
    entries = [_run_task(scenario, task, seed) for task in scenario.tasks]
    ok = all(e["status"] == "ok" for e in entries) and all(
        e.get("payload", {}).get("status", "ok") != "counterexample"
        for e in entries
    )
    return {"header": header, "tasks": entries, "ok": ok}


def oracle_report(suite: str, seed: int, field, bounds=None) -> dict:
    """Standalone oracle report. No timing: the whole report is a pure
    function of (suite, seed, field, bounds) and must be bit-identical
    across runs."""
    header = {"field": field.name, "seed": seed}
    env = os.environ.get(ENV_FIELD)
    if env is not None:
        header["env_field"] = env
    payload = run_suite(suite, seed, field, bounds)
    return {
        "header": header,
        "suite": payload,
        "ok": payload["status"] == "ok",
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
