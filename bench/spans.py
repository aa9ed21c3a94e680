"""Span tracing for the benchmark, built only from the benchmark's own files.

`Tracer.install` wraps the public functions of `sheafforms` named in
`TARGETS` so that every call records a span (name, start, end, parent span,
item id) in memory; `Tracer.uninstall` puts every original binding back.
A function taken into another module with `from .x import f` is bound there
too, so each module-level target is patched at every binding site in the
package: a module that looks the name up in its own namespace must see the
wrapper as well.

`linalg.dot` runs tens of thousands of times per item, so it is only counted
(the sum of vector lengths per item, `linalg.scalar_mults`), never timed.

Self time of a span is its duration minus the time covered by its child
spans. The benchmark opens one `bench.item` span per item, so the self times
of all spans inside it add up to the item's wall time exactly, and the
`bench.item` self time is the part no library span covers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "sheafforms"
ITEM_SPAN = "bench.item"

# (layer module, owning class or None for a module-level function, attribute)
TARGETS = (
    ("topology", None, "validate_topology"),
    ("topology", "FiniteSpace", "component_refinement"),
    ("fields", "RationalField", "parse"),
    ("fields", "PrimeField", "parse"),
    ("fields", "RationalField", "format"),
    ("fields", "PrimeField", "format"),
    ("linalg", None, "rref"),
    ("linalg", None, "nullspace"),
    ("linalg", None, "inverse"),
    ("linalg", None, "matmul"),
    ("linalg", None, "mat_vec"),
    ("linalg", None, "vec_mat"),
    ("linalg", None, "solve"),
    ("linalg", None, "reduce_against"),
    ("linalg", None, "complement_rows"),
    ("algebra", "AlgebraSection", "invert"),
    ("algebra", "AlgebraSection", "restrict"),
    ("modules", None, "from_rows"),
    ("modules", None, "span"),
    ("modules", None, "sum_submodules"),
    ("modules", None, "intersect_submodules"),
    ("modules", "Submodule", "contains"),
    ("modules", "Submodule", "global_basis"),
    ("modules", "ModuleSection", "restrict"),
    ("bilinear", None, "classify_orthosymmetry"),
    ("bilinear", "BilinearForm", "evaluate"),
    ("bilinear", "BilinearForm", "orthogonal"),
    ("bilinear", "BilinearForm", "radical"),
    ("bilinear", "BilinearForm", "project"),
    ("bilinear", "BilinearForm", "orthogonal_split"),
    ("symplectic", None, "validate_symplectic"),
    ("symplectic", None, "gram_schmidt_extend"),
    ("symplectic", None, "certify_basis"),
    ("symplectic", None, "normal_form"),
    ("symplectic", None, "standard_isometry"),
    ("symplectic", None, "hyperbolic_decomposition"),
    ("symplectic", None, "hyperbolic_envelope"),
    ("symplectic", None, "certify_envelope"),
    ("symplectic", None, "witt_extend"),
    ("symplectic", "Isometry", "holds"),
    ("symplectic", "Isometry", "apply"),
    ("oracles", None, "run_suite"),
    ("scenario", None, "scenario_from_dict"),
    ("scenario", None, "run_scenario_dict"),
    ("scenario", None, "report_to_json"),
    ("scenario", None, "parse_matrix"),
    ("scenario", None, "parse_section"),
    ("scenario", None, "parse_submodule"),
    ("scenario", None, "format_section"),
    ("scenario", None, "format_submodule"),
    ("scenario", None, "format_matrix"),
)

LAYERS = (
    "topology", "fields", "linalg", "algebra", "modules",
    "bilinear", "symplectic", "oracles", "scenario",
)


def package_modules():
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def binding_snapshot():
    """Identity of every value bound in the package's module namespaces and in
    the namespaces of the traced classes; equal snapshots mean no residue."""
    mods = package_modules()
    snap = {}
    for name, mod in mods.items():
        for key, value in vars(mod).items():
            snap[(name, key)] = id(value)
    for layer, owner, _ in TARGETS:
        if owner is not None:
            cls = getattr(mods[f"{PACKAGE}.{layer}"], owner)
            for key, value in vars(cls).items():
                snap[(f"{layer}.{owner}", key)] = id(value)
    return snap


class Tracer:
    """In-memory span recorder. Spans are five parallel lists indexed by span
    id; `state` is [recording, current item id]."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self.span_item = []
        self.stack = [-1]
        self.state = [False, -1]
        self.mults = [0]  # of the open item
        self.item_mults = {}  # item id -> sum of dot vector lengths
        self.validations = []  # (item id, (points, opens)) per validate_topology
        self._patches = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_item.append(self.state[1])
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def begin_item(self, item_id: int) -> int:
        self.state[0] = True
        self.state[1] = item_id
        self.mults[0] = 0
        return self._open(self._name_id(ITEM_SPAN))

    def end_item(self, idx: int) -> int:
        """Close the item span; returns its duration in nanoseconds."""
        self._close(idx)
        self.state[0] = False
        self.item_mults[self.state[1]] = self.mults[0]
        return self.span_end[idx] - self.span_start[idx]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        state = self.state
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not state[0]:
                return fn(*args, **kwargs)
            idx = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)

        return traced

    def _wrap_validate_topology(self, fn, name: str):
        traced = self._wrap(fn, name)
        state = self.state

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            space = traced(*args, **kwargs)
            if state[0]:
                self.validations.append((state[1], (space.points, space.opens)))
            return space

        return counted

    def _wrap_dot(self, fn):
        state = self.state
        mults = self.mults

        @functools.wraps(fn)
        def counted(u, v):
            if state[0]:
                mults[0] += len(u)
            return fn(u, v)

        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, mods, original, value) -> None:
        for mod in mods.values():
            for key, bound in list(vars(mod).items()):
                if bound is original:
                    self._patch(mod, key, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = package_modules()
        for layer, owner, attr in TARGETS:
            home = mods[f"{PACKAGE}.{layer}"]
            # span names drop the class: `BilinearForm.evaluate` is
            # `bilinear.evaluate`, and both fields' `parse` share `fields.parse`
            name = f"{layer}.{attr}"
            if owner is None:
                original = getattr(home, attr)
                if attr == "validate_topology":
                    wrapper = self._wrap_validate_topology(original, name)
                else:
                    wrapper = self._wrap(original, name)
                self._patch_everywhere(mods, original, wrapper)
            else:
                cls = getattr(home, owner)
                self._patch(cls, attr, self._wrap(vars(cls)[attr], name))
        linalg = mods[f"{PACKAGE}.linalg"]
        self._patch_everywhere(mods, linalg.dot, self._wrap_dot(linalg.dot))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.state[0] = False

    # -- analysis ------------------------------------------------------------

    def span_totals(self, items: range):
        """Per span name, over the spans of the given item ids: number of
        calls and self time in nanoseconds."""
        n = len(self.span_start)
        child = [0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for i in range(n):
            if self.span_item[i] not in items:
                continue
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_ns[name] += dur[i] - child[i]
        return calls, self_ns

    def scalar_mults(self, items: range) -> int:
        return sum(self.item_mults.get(k, 0) for k in items)

    def validated_spaces(self, items: range):
        """The space validated by each validate_topology call of the items."""
        return [space for k, space in self.validations if k in items]

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, item id, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,parent,item,name,start_ns,end_ns\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i},{self.span_parent[i]},{self.span_item[i]},"
                    f"{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]},{self.span_end[i]}\n"
                )
