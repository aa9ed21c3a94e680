"""The benchmark's three workloads.

Each workload makes item k of a seed's sequence from that seed and k alone
(`make`, untimed), runs one item through the public API (`execute`, the
timed part) and checks the output afterwards (`check`, untimed). Items are
made fresh, library objects and input values alike, and each item is run
once: no form, submodule or document reaches the library twice, so a cache
can only gain from what repeats by design (the space pool of
`scenario_wide`). The library is reached only through the `lib` namespace
built at set-up, and every function is looked up on its module at call time,
so the tracer's wrappers are seen.

Items follow a fixed schedule of shapes (space, rank, document kind) that
repeats every `cycle` items, and the seed draws only the entries. Every seed
therefore gives the same mix of item sizes, and any run of `cycle`
consecutive items holds each shape once.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from random import Random


class ItemSource:
    """Item k of the sequence for one workload and seed, made on demand.
    Per-seed context shared by all items (the space pool of `scenario_wide`)
    is built once, here."""

    def __init__(self, workload, lib, seed: int):
        self.workload = workload
        self.lib = lib
        self.seed = seed
        self.context = workload.context(lib, seed)

    def item(self, k: int):
        rng = Random(f"{self.workload.name}:{self.seed}:{k}")
        return self.workload.make(self.lib, self.context, rng, k)


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    entry_bits: int = 0  # largest numerator/denominator bit length seen
    error_task_ms: float = 0.0  # scenario: report time of planned-error tasks
    task_ms: float = 0.0  # scenario: report time of all tasks


def _fail(detail: str) -> Outcome:
    return Outcome(False, detail)


def _entry_bits(matrices) -> int:
    bits = 0
    for m in matrices:
        for row in m:
            for x in row:
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


# -- symplectic_q -------------------------------------------------------------


@dataclass
class SymplecticItem:
    form: object
    target: object
    partial: object
    witt_submodule: object
    witt_images: tuple


class SymplecticQ:
    """Rationals; Sierpinski, discrete-pair and three-point spaces; ranks 4,
    6 and 8. Gram-Schmidt completion of a partial family, normal form, an
    isometry to a second form and a Witt extension, per item.

    Forms are drawn as the library's oracles draw them, G = P^T A P with A
    the standard alternating matrix and P random invertible. Keeping P makes
    inputs cheap to build: the rows of P^-T are a symplectic basis of G, and
    Q^-1 S P is an isometry from G to Q^T A Q for any symplectic S, so an
    item costs a small share of its run time to make."""

    name = "symplectic_q"
    # (space, rank): the discrete pair has two components and costs about
    # twice as much at a given rank. It is left out at rank 8, where it
    # would put the 90th percentile on the edge between the two slowest
    # groups of items; without it the median and the 90th percentile each
    # fall inside a group, so they do not jump between groups from run to run.
    shape_names = (
        ("sierpinski", 4), ("discrete_pair", 4), ("three_point", 4),
        ("sierpinski", 6), ("discrete_pair", 6), ("three_point", 6),
        ("sierpinski", 8), ("three_point", 8),
    )
    cycle = len(shape_names)
    # (|I|, |J|) of the partial family handed to gram_schmidt_extend
    partial_sizes = ((0, 0), (1, 1), (2, 0), (1, 2), (2, 2), (0, 1))

    @staticmethod
    def _mix(lib, rng, rows, field):
        """Random row operations that keep interleaved rows r_1, s_1, r_2,
        s_2, ... a symplectic basis: r_i += t s_i, s_i += t r_i, and
        (r_i += t r_j, s_j -= t s_i) for i != j."""
        add, scale = lib.linalg.add_vec, lib.linalg.scale
        rows = list(rows)
        n = len(rows) // 2
        for _ in range(2 * n):
            t = field.random_nonzero(rng)
            i = rng.randrange(n)
            kind = rng.randrange(3 if n > 1 else 2)
            if kind == 0:
                rows[2 * i] = add(rows[2 * i], scale(t, rows[2 * i + 1]))
            elif kind == 1:
                rows[2 * i + 1] = add(rows[2 * i + 1], scale(t, rows[2 * i]))
            else:
                j = rng.choice([k for k in range(n) if k != i])
                rows[2 * i] = add(rows[2 * i], scale(t, rows[2 * j]))
                rows[2 * j + 1] = add(rows[2 * j + 1], scale(-t, rows[2 * i + 1]))
        return tuple(rows)

    def context(self, lib, seed: int):
        return None

    def make(self, lib, context, rng: Random, k: int) -> SymplecticItem:
        sf, o, la = lib.sf, lib.oracles, lib.linalg
        field = sf.RationalField()
        space_name, rank = self.shape_names[k % self.cycle]
        space = getattr(o, f"{space_name}_space")()
        module = sf.FreeModule(space, field, rank)
        n = rank // 2
        a = sf.standard_alternating(rank, field)
        ident = la.identity(rank, field)
        grams, target_grams, bases, carriers = [], [], [], []
        for _ in module.x_components():
            p = o.random_invertible(rng, rank, field)
            q = o.random_invertible(rng, rank, field)
            grams.append(la.matmul(la.transpose(p), la.matmul(a, p)))
            target_grams.append(la.matmul(la.transpose(q), la.matmul(a, q)))
            bases.append(self._mix(lib, rng, la.transpose(la.inverse(p, field)), field))
            s = la.transpose(self._mix(lib, rng, ident, field))
            carriers.append(la.matmul(la.inverse(q, field), la.matmul(s, p)))
        form = sf.BilinearForm(module, tuple(grams))
        target = sf.BilinearForm(module, tuple(target_grams))
        x = space.x_ref
        r = {i: sf.ModuleSection(module, x, tuple(b[2 * i - 2] for b in bases))
             for i in range(1, n + 1)}
        s = {i: sf.ModuleSection(module, x, tuple(b[2 * i - 1] for b in bases))
             for i in range(1, n + 1)}
        # the sizes of the partial family and of the Witt submodule's
        # isotropic and hyperbolic parts follow the schedule too; the seed
        # picks the indices
        variant = k // self.cycle
        idx = list(range(1, n + 1))
        i_size, j_size = self.partial_sizes[variant % len(self.partial_sizes)]
        i_set = rng.sample(idx, i_size)
        j_set = rng.sample(idx, j_size)
        partial = sf.PartialFamily.of({i: r[i] for i in i_set}, {j: s[j] for j in j_set})
        # Witt submodule: iso >= 1 isotropic sections, hyp >= 1 pairs
        witt_shapes = [(iso, hyp) for iso in range(1, n) for hyp in range(1, n - iso + 1)]
        iso_count, hyp_count = witt_shapes[variant % len(witt_shapes)]
        picks = rng.sample(idx, iso_count + hyp_count)
        sections = [r[i] for i in picks[:iso_count]]
        for i in picks[iso_count:]:
            sections += [r[i], s[i]]
        f = sf.span(module, sections)
        carrier = sf.Isometry(form, target, tuple(carriers))
        images = tuple(carrier.apply(sec) for sec in f.global_basis())
        return SymplecticItem(form, target, partial, f, images)

    def execute(self, lib, item):
        sf = lib.sf
        basis = sf.gram_schmidt_extend(item.form, item.partial)
        mats = sf.normal_form(item.form)
        iso = sf.standard_isometry(item.form, item.target)
        witt = sf.witt_extend(item.form, item.target, item.witt_submodule, item.witt_images)
        return basis, mats, iso, witt

    def check(self, lib, item, output) -> Outcome:
        sf, linalg = lib.sf, lib.linalg
        basis, mats, iso, witt = output
        form = item.form
        if not sf.certify_basis(form, basis, item.partial):
            return _fail("certify_basis rejected the completed basis")
        std = sf.standard_alternating(form.module.rank, form.module.field)
        for p, g in zip(mats, form.gram):
            if linalg.matmul(linalg.transpose(p), linalg.matmul(g, p)) != std:
                return _fail("normal form: P^T G P is not the standard matrix")
        if iso.source != form or iso.target != item.target or not iso.holds():
            return _fail("standard_isometry does not carry form to target")
        if not witt.holds():
            return _fail("witt_extend result is not an isometry")
        for sec, image in zip(item.witt_submodule.global_basis(), item.witt_images):
            if witt.apply(sec) != image:
                return _fail("witt_extend result disagrees with sigma")
        bits = _entry_bits(
            list(mats) + list(iso.matrices) + list(witt.matrices)
            + [[v for sec in basis.interleaved() for v in sec.vectors]]
        )
        return Outcome(True, entry_bits=bits)

    def describe(self, lib, item) -> str:
        return repr((
            item.form.gram, item.target.gram, item.partial,
            item.witt_submodule.bases, [im.vectors for im in item.witt_images],
        ))


# -- calculus_gf ---------------------------------------------------------------


def discrete_space(lib, npoints: int):
    points = tuple(f"p{i}" for i in range(npoints))
    opens = [c for k in range(npoints + 1) for c in itertools.combinations(points, k)]
    return lib.sf.validate_topology(points, opens)


@dataclass
class CalculusItem:
    form: object
    f: object
    g: object
    sym: object
    h: object
    sections: tuple


class CalculusGF:
    """GF(10007); discrete spaces on 3 and 4 points; ranks 8 to 12.
    The orthogonal-calculus identities on a random orthosymmetric form, then
    an orthogonal split and projections onto a non-isotropic submodule of a
    symmetric form."""

    name = "calculus_gf"
    prime = 10007
    ranks = (8, 9, 10, 11, 12)
    points = (3, 4)
    shapes = tuple(itertools.product(ranks, points))  # (rank, points)
    cycle = len(shapes)
    quarters = (1, 2, 3)
    projections = 3

    def context(self, lib, seed: int):
        return None

    def make(self, lib, context, rng: Random, k: int) -> CalculusItem:
        sf, o = lib.sf, lib.oracles
        field = sf.PrimeField(self.prime)
        rank, npoints = self.shapes[k % self.cycle]
        module = sf.FreeModule(discrete_space(lib, npoints), field, rank)
        # submodule dimensions (quarters of the rank) rotate with the
        # schedule, so every shape sees each combination
        variant = k // self.cycle
        f_dim, g_dim, r = (
            rank * self.quarters[(variant + j) % len(self.quarters)] // 4 for j in range(3)
        )
        form = o.random_orthosymmetric_form(rng, module)
        f = o.random_free_submodule(rng, module, f_dim)
        g = o.random_free_submodule(rng, module, g_dim)
        sym = o.random_orthosymmetric_form(rng, module, symmetric_only=True)
        h = o.random_nonisotropic_submodule(rng, sym, r)
        while h is None:
            r -= 1
            h = o.random_nonisotropic_submodule(rng, sym, r)
        sections = tuple(o.random_global_section(rng, module) for _ in range(self.projections))
        return CalculusItem(form, f, g, sym, h, sections)

    def execute(self, lib, item):
        sf = lib.sf
        form, f, g = item.form, item.f, item.g
        perp_f = form.orthogonal(f)
        perp_g = form.orthogonal(g)
        return {
            "perp_of_sum": form.orthogonal(sf.sum_submodules(f, g)),
            "meet_of_perps": sf.intersect_submodules(perp_f, perp_g),
            "perp_of_meet": form.orthogonal(sf.intersect_submodules(f, g)),
            "sum_of_perps": sf.sum_submodules(perp_f, perp_g),
            "perp_perp": form.orthogonal(perp_f),
            "split": item.sym.orthogonal_split(item.h),
            "projections": [item.sym.project(item.h, t) for t in item.sections],
        }

    def check(self, lib, item, out) -> Outcome:
        if out["perp_of_sum"] != out["meet_of_perps"]:
            return _fail("(F+G)^perp != F^perp meet G^perp")
        if out["perp_of_meet"] != out["sum_of_perps"]:
            return _fail("(F meet G)^perp != F^perp + G^perp")
        if out["perp_perp"] != item.f:
            return _fail("F^perp^perp != F")
        split, sym, h = out["split"], item.sym, item.h
        if not split.certificate.ok or split.submodule != h:
            return _fail("orthogonal split certificate failed")
        if split.complement != sym.orthogonal(h):
            return _fail("split complement is not the orthogonal of the submodule")
        basis = h.global_basis()
        for t, p in zip(item.sections, out["projections"]):
            if not h.contains(p):
                return _fail("projection lies outside the submodule")
            residual = t - p
            for b in basis:
                if not sym.evaluate(residual, b).is_zero():
                    return _fail("projection residual is not orthogonal")
        return Outcome(True)

    def describe(self, lib, item) -> str:
        return repr((
            item.form.gram, item.f.bases, item.g.bases, item.sym.gram,
            item.h.bases, [t.vectors for t in item.sections],
        ))


# -- scenario_wide ---------------------------------------------------------------


def sierpinski_union_doc(copies: int, tag: str, rng: Random):
    """Points and opens of a disjoint union of Sierpinski spaces {a, b} with
    opens {}, {a}, {a, b}; 3**copies opens, listed in a seeded order."""
    points = [f"{tag}{c}{p}" for c in range(copies) for p in ("a", "b")]
    choices = [([], [f"{tag}{c}a"], [f"{tag}{c}a", f"{tag}{c}b"]) for c in range(copies)]
    opens = [sum(parts, []) for parts in itertools.product(*choices)]
    rng.shuffle(opens)
    return {"points": points, "opens": opens}


@dataclass
class ScenarioItem:
    text: str  # the scenario document, as the run subcommand would read it
    expected: tuple  # per task: None for success, else the expected error code
    field: str
    rank: int


class ScenarioWide:
    """JSON scenario documents through run_scenario_dict and report_to_json.
    Spaces are unions of 4 or 5 Sierpinski spaces (81 or 243 opens) from a
    pool of four, so spaces repeat across documents. Three document kinds
    (symplectic, symmetric, asymmetric form) cover all ten ops, one oracle
    task each, and a fixed share of tasks planned to fail with a known code."""

    name = "scenario_wide"
    # (kind, field, rank); many graded shapes keep the cost distribution
    # dense, so its percentiles do not sit on a gap between groups of items
    templates = (
        ("symplectic", "gf:101", 4),
        ("symmetric", "rationals", 3),
        ("asymmetric", "gf:101", 4),
        ("symplectic", "rationals", 2),
        ("symmetric", "gf:101", 4),
        ("asymmetric", "rationals", 2),
        ("symmetric", "gf:101", 2),
        ("symmetric", "gf:101", 3),
        ("asymmetric", "rationals", 3),
        ("symplectic", "gf:101", 2),
        ("symmetric", "rationals", 2),
        ("asymmetric", "gf:101", 2),
    )
    # one small space to three large ones: the median falls inside the group
    # of 243-open documents, not on the gap between the two sizes
    space_pool = ((4, "u"), (5, "u"), (5, "v"), (5, "w"))
    cycle = len(templates) * len(space_pool)
    oracle_tasks = {
        "symplectic": (
            {"suite": "gram_schmidt", "bounds": {"cases": 1, "max_rank": 2}},
            {"suite": "witt", "bounds": {"cases": 1, "max_rank": 2}},
        ),
        "symmetric": (
            {"suite": "splitting", "bounds": {"cases": 2, "max_rank": 2}},
            {"suite": "reflexivity", "bounds": {"cases": 3, "max_rank": 2}},
        ),
        "asymmetric": (
            {"suite": "orthosymmetry_dichotomy", "field": "gf:5",
             "bounds": {"cases": 4, "max_rank": 2}},
            {"suite": "orthogonal_calculus", "bounds": {"cases": 2, "max_rank": 2}},
            {"suite": "scholium_invertibility", "field": "gf:3",
             "bounds": {"cases": 20}},
        ),
    }

    def context(self, lib, seed: int):
        """The seed's space pool: (document, validated space) per entry."""
        rng = Random(seed)
        pool = []
        for copies, tag in self.space_pool:
            doc = sierpinski_union_doc(copies, tag, rng)
            pool.append((doc, lib.sf.validate_topology(doc["points"], doc["opens"])))
        return pool

    def make(self, lib, pool, rng: Random, k: int) -> ScenarioItem:
        sf = lib.sf
        kind, field_name, rank = self.templates[k % len(self.templates)]
        s = (k % self.cycle) // len(self.templates)
        space_doc, space = pool[s]
        module = sf.FreeModule(space, sf.field_from_name(field_name), rank)
        build = _DocBuilder(lib, rng, module)
        # the oracle suite follows the space, so every cycle holds the same
        # (template, space, suite) triples
        suites = self.oracle_tasks[kind]
        oracle = dict(suites[s % len(suites)])
        tasks = getattr(build, kind)(oracle)
        doc = {
            "space": space_doc,
            "field": field_name,
            "rank": rank,
            "gram": build.gram_doc,
            "tasks": [task for task, _ in tasks],
        }
        return ScenarioItem(json.dumps(doc), tuple(code for _, code in tasks), field_name, rank)

    def execute(self, lib, item):
        report = lib.scenario.run_scenario_dict(json.loads(item.text))
        return report, lib.scenario.report_to_json(report)

    def check(self, lib, item, output) -> Outcome:
        report, text = output
        if json.loads(text) != report:
            return _fail("report_to_json does not round-trip the report")
        header = report["header"]
        if header["field"] != item.field or header["rank"] != item.rank:
            return _fail("report header does not match the document")
        entries = report["tasks"]
        if len(entries) != len(item.expected):
            return _fail("report has the wrong number of tasks")
        error_ms = task_ms = 0.0
        for i, (entry, code) in enumerate(zip(entries, item.expected)):
            task_ms += entry["time_ms"]
            if code is not None:
                error_ms += entry["time_ms"]
                got = entry.get("error", {}).get("code")
                if entry["status"] != "error" or got != code:
                    return _fail(f"task {i} ({entry['op']}): expected {code}, got {got}")
                continue
            if entry["status"] != "ok":
                got = entry["error"]["code"]
                return _fail(f"task {i} ({entry['op']}) failed unexpectedly: {got}")
            if not all(entry["certificate"].values()):
                return _fail(f"task {i} ({entry['op']}) has a false certificate")
            if entry["op"] == "oracle" and entry["payload"]["status"] != "ok":
                return _fail(f"task {i}: oracle found a counterexample")
        if report["ok"] != all(code is None for code in item.expected):
            return _fail("report ok flag disagrees with the task outcomes")
        return Outcome(True, error_task_ms=error_ms, task_ms=task_ms)

    def describe(self, lib, item) -> str:
        return item.text


class _DocBuilder:
    """Form and task documents for one scenario, in the field's string format.
    Each task comes with its expected error code (None: must succeed)."""

    def __init__(self, lib, rng: Random, module):
        self.lib = lib
        self.rng = rng
        self.module = module
        self.field = module.field
        self.points = list(module.space.points)
        self.ncomp = len(module.x_components())
        self.gram_doc = None

    # -- encoding --

    def _fmt_vec(self, v):
        return [self.field.format(x) for x in v]

    def _fmt_matrix(self, m):
        return [self._fmt_vec(row) for row in m]

    def _global(self, vectors):
        return {"open": self.points, "vectors": [self._fmt_vec(v) for v in vectors]}

    def _section_doc(self, sec):
        return self._global(sec.vectors)

    def _random_vectors(self):
        f, n = self.field, self.module.rank
        return [tuple(f.random_nonzero(self.rng) for _ in range(n)) for _ in range(self.ncomp)]

    def _first_open(self):
        """The open {a} of the first Sierpinski copy: one component."""
        return {"open": [self.points[0]], "vectors": [self._fmt_vec(self._random_vectors()[0])]}

    def _non_free(self):
        unit = tuple(
            self.field.one if j == 0 else self.field.zero for j in range(self.module.rank)
        )
        bases = [[self._fmt_vec(unit)]] + [[] for _ in range(self.ncomp - 1)]
        return {"bases": bases}

    def _set_gram(self, grams):
        self.grams = tuple(grams)
        self.gram_doc = [self._fmt_matrix(g) for g in grams]

    def _oracle(self, oracle):
        task = {"op": "oracle", "seed": self.rng.randrange(10**6)}
        task.update(oracle)
        return task

    # -- document kinds --

    def symplectic(self, oracle):
        sf, o = self.lib.sf, self.lib.oracles
        rng, module = self.rng, self.module
        n = module.rank // 2
        form = o.random_alternating_form(rng, module)
        self._set_gram(form.gram)
        target = o.random_alternating_form(rng, module)
        every = set(range(1, n + 1))
        basis = o.random_partial_family(rng, form, config=(every, every))
        r, s = basis.r_dict, basis.s_dict
        # a matched pair at rank 4, one side of a pair at rank 2
        partial = {"r": {"1": self._section_doc(r[1])}}
        if n >= 2:
            partial["s"] = {"1": self._section_doc(s[1])}
        e1 = tuple(self.field.one if j == 0 else self.field.zero for j in range(module.rank))
        bad = {"r": {"1": self._global([e1] * self.ncomp)},
               "s": {"1": self._global([e1] * self.ncomp)}}
        witt_secs = [r[1]] + ([r[2], s[2]] if n >= 2 else [])
        f = sf.span(module, witt_secs)
        carrier = o.random_symplectic_isometry(rng, form, target)
        images = [self._section_doc(carrier.apply(sec)) for sec in f.global_basis()]
        return [
            ({"op": "classify"}, None),
            ({"op": "radical"}, None),
            ({"op": "orthogonal", "side": "left",
              "submodule": {"generators": [self._global(self._random_vectors())]}}, None),
            ({"op": "symplectic_basis", "partial": partial}, None),
            ({"op": "symplectic_basis", "partial": bad}, "PartialRelationsViolated"),
            ({"op": "normal_form"}, None),
            ({"op": "decomposition"}, None),
            ({"op": "envelope",
              "submodule": {"generators": [self._section_doc(r[1])]}}, None),
            ({"op": "envelope", "submodule": self._non_free()}, "FreenessViolated"),
            ({"op": "witt", "target_gram": [self._fmt_matrix(g) for g in target.gram],
              "submodule": {"generators": [self._section_doc(x) for x in witt_secs]},
              "sigma": images}, None),
            (self._oracle(oracle), None),
        ]

    def symmetric(self, oracle):
        """G = P^T D P with D = diag(1, -1, d...), so u (P^T)^-1 with
        u = e1 + e2 is an isotropic vector on every component."""
        linalg, o = self.lib.linalg, self.lib.oracles
        rng, field, rank = self.rng, self.field, self.module.rank
        grams, isotropic = [], []
        for _ in range(self.ncomp):
            diag = [field.one, -field.one] + [field.random_nonzero(rng) for _ in range(rank - 2)]
            d = tuple(
                tuple(diag[i] if i == j else field.zero for j in range(rank))
                for i in range(rank)
            )
            p = o.random_invertible(rng, rank, field)
            grams.append(linalg.matmul(linalg.transpose(p), linalg.matmul(d, p)))
            u = tuple(field.one if j < 2 else field.zero for j in range(rank))
            isotropic.append(linalg.vec_mat(u, linalg.transpose(linalg.inverse(p, field))))
        self._set_gram(grams)
        while True:  # a non-isotropic line: v G v^T != 0 on every component
            line = self._random_vectors()
            if all(
                linalg.dot(v, linalg.mat_vec(g, v)) != field.zero
                for v, g in zip(line, grams)
            ):
                break
        line_doc = {"generators": [self._global(line)]}
        return [
            ({"op": "classify"}, None),
            ({"op": "radical",
              "submodule": {"generators": [self._global(self._random_vectors())]}}, None),
            ({"op": "orthogonal", "side": "right",
              "submodule": {"generators": [self._global(self._random_vectors())]}}, None),
            ({"op": "project", "submodule": line_doc,
              "section": self._global(self._random_vectors())}, None),
            ({"op": "project", "submodule": line_doc, "section": self._first_open()}, None),
            ({"op": "project", "submodule": {"generators": [self._global(isotropic)]},
              "section": self._global(self._random_vectors())}, "IsotropicSubmodule"),
            ({"op": "project", "submodule": self._non_free(),
              "section": self._global(self._random_vectors())}, "NotFree"),
            (self._oracle(oracle), None),
        ]

    def asymmetric(self, oracle):
        rng, field, rank = self.rng, self.field, self.module.rank
        grams = []
        for _ in range(self.ncomp):
            while True:
                g = tuple(
                    tuple(field.random_scalar(rng) for _ in range(rank)) for _ in range(rank)
                )
                gt = tuple(zip(*g))
                skew = tuple(tuple(-x for x in row) for row in gt)
                if g != gt and g != skew:
                    break
            grams.append(g)
        self._set_gram(grams)
        # no `orthogonal` task here: at this commit the report certificate of
        # that op checks the opposite side, which fails on forms that are not
        # orthosymmetric
        return [
            ({"op": "classify"}, None),
            ({"op": "radical"}, "NotOrthosymmetric"),
            ({"op": "project",
              "submodule": {"generators": [self._global(self._random_vectors())]},
              "section": self._global(self._random_vectors())}, "NotOrthosymmetric"),
            (self._oracle(oracle), None),
        ]


WORKLOADS = {w.name: w for w in (SymplecticQ(), CalculusGF(), ScenarioWide())}
