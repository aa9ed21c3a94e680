"""Randomized and exhaustive oracles.

Generators build seeded random instances (forms, submodules, partial
families, isometries); the oracle suites check the library's answers against
independent routes: definitions evaluated by enumeration or counting, and
defining equations re-verified on the output. Every suite is a pure function
of (seed, bounds), which is what makes oracle reports reproducible.
"""

from __future__ import annotations

import itertools
from random import Random

from . import linalg
from .algebra import AlgebraSection
from .bilinear import BilinearForm, classify_orthosymmetry
from .errors import FreenessViolated, NotNowhereZero, UnknownSuite
from .fields import PrimeField, RationalField
from .modules import (
    FreeModule,
    ModuleSection,
    full_submodule,
    intersect_submodules,
    span,
    sum_submodules,
)
from .symplectic import (
    Isometry,
    PartialFamily,
    certify_basis,
    certify_envelope,
    gram_schmidt_extend,
    hyperbolic_envelope,
    normal_form,
    standard_alternating,
    standard_isometry,
    standard_symplectic_form,
    witt_extend,
)
from .topology import validate_topology


# -- fixture spaces -----------------------------------------------------------

def point_space():
    return validate_topology(("a",), [(), ("a",)])


def sierpinski_space():
    return validate_topology(("a", "b"), [(), ("a",), ("a", "b")])


def discrete_pair_space():
    return validate_topology(("a", "b"), [(), ("a",), ("b",), ("a", "b")])


def three_point_space():
    return validate_topology(
        ("a", "b", "c"), [(), ("a",), ("b",), ("a", "b"), ("a", "b", "c")]
    )


def fixture_spaces():
    return (point_space(), sierpinski_space(), discrete_pair_space())


# -- seeded generators ----------------------------------------------------------

def random_invertible(rng: Random, n: int, field):
    while True:
        m = tuple(
            tuple(field.random_scalar(rng) for _ in range(n)) for _ in range(n)
        )
        if linalg.inverse(m, field) is not None:
            return m


def random_alternating_form(rng: Random, module: FreeModule) -> BilinearForm:
    """Non-degenerate alternating form: congruate the standard one by a
    random invertible matrix on each component."""
    a = standard_alternating(module.rank, module.field)
    gram = []
    for _ in module.x_components():
        p = random_invertible(rng, module.rank, module.field)
        gram.append(linalg.matmul(linalg.transpose(p), linalg.matmul(a, p)))
    return BilinearForm(module, tuple(gram))


def random_orthosymmetric_form(
    rng: Random, module: FreeModule, symmetric_only: bool = False
) -> BilinearForm:
    """Non-degenerate and componentwise symmetric or alternating (mixed
    across components; alternating only when the rank is even)."""
    n = module.rank
    field = module.field
    gram = []
    for _ in module.x_components():
        if not symmetric_only and n % 2 == 0 and rng.random() < 0.5:
            base = standard_alternating(n, field)
        else:
            base = tuple(
                tuple(
                    field.random_nonzero(rng) if i == j else field.zero
                    for j in range(n)
                )
                for i in range(n)
            )
        p = random_invertible(rng, n, field)
        gram.append(linalg.matmul(linalg.transpose(p), linalg.matmul(base, p)))
    return BilinearForm(module, tuple(gram))


def random_global_section(rng: Random, module: FreeModule) -> ModuleSection:
    return ModuleSection(
        module,
        module.space.x_ref,
        tuple(
            tuple(module.field.random_scalar(rng) for _ in range(module.rank))
            for _ in module.x_components()
        ),
    )


def random_free_submodule(rng: Random, module: FreeModule, r: int):
    """Span of r random global sections, resampled until the span has
    dimension r on every component."""
    assert 0 <= r <= module.rank
    while True:
        f = span(module, [random_global_section(rng, module) for _ in range(r)])
        if f.is_free() == r:
            return f


def random_nonisotropic_submodule(
    rng: Random, form: BilinearForm, r: int, max_tries: int = 200
):
    """None when no draw succeeds within the budget; alternating components
    admit no odd-rank non-isotropic subspaces at all, so callers must be
    prepared to lower r."""
    for _ in range(max_tries):
        f = random_free_submodule(rng, form.module, r)
        rad = form.radical(f)
        if all(d == 0 for d in rad.dims):
            return f
    return None


def _random_block_symplectic(rng: Random, n: int, field):
    """Random symplectic matrix for the block form [[0,I],[-I,0]]: a short
    product of shear and GL-conjugation generators."""
    half = n // 2

    def sym(rnd):
        m = [[field.zero] * half for _ in range(half)]
        for i in range(half):
            for j in range(i, half):
                v = field.random_scalar(rnd)
                m[i][j] = v
                m[j][i] = v
        return m

    def embed(tl, tr, bl, br):
        rows = []
        for i in range(half):
            rows.append(tuple(tl[i]) + tuple(tr[i]))
        for i in range(half):
            rows.append(tuple(bl[i]) + tuple(br[i]))
        return tuple(rows)

    ident = [
        [field.one if i == j else field.zero for j in range(half)]
        for i in range(half)
    ]
    zero = [[field.zero] * half for _ in range(half)]
    out = linalg.identity(n, field)
    for _ in range(3):
        kind = rng.randrange(3)
        if kind == 0:
            gen = embed(ident, sym(rng), zero, ident)
        elif kind == 1:
            gen = embed(ident, zero, sym(rng), ident)
        else:
            q = random_invertible(rng, half, field)
            qinv_t = linalg.transpose(linalg.inverse(q, field))
            gen = embed(q, zero, zero, qinv_t)
        out = linalg.matmul(out, gen)
    return out


def _interleave_permutation(n: int, field):
    """Permutation matrix carrying block coordinates (r..., s...) to the
    interleaved order (r_1, s_1, r_2, s_2, ...)."""
    half = n // 2
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(half):
        rows[2 * i][i] = field.one
        rows[2 * i + 1][half + i] = field.one
    return tuple(tuple(r) for r in rows)


def random_symplectic_isometry(
    rng: Random, source: BilinearForm, target: BilinearForm
) -> Isometry:
    """A random exact isometry source -> target: normal forms on both sides
    with a random standard symplectic matrix in between."""
    n = source.module.rank
    field = source.module.field
    p = normal_form(source)
    p2 = normal_form(target)
    pi = _interleave_permutation(n, field)
    mats = []
    for a, b in zip(p, p2):
        w = _random_block_symplectic(rng, n, field)
        w_interleaved = linalg.matmul(pi, linalg.matmul(w, linalg.transpose(pi)))
        mats.append(
            linalg.matmul(b, linalg.matmul(w_interleaved, linalg.inverse(a, field)))
        )
    iso = Isometry(source, target, tuple(mats))
    assert iso.holds()
    return iso


def random_partial_family(rng: Random, form: BilinearForm, config=None):
    """A partial family satisfying the pairing relations exactly: images of
    canonical index sections under a random isometry from the standard form.

    config is an optional pair of index sets (I, J); when omitted both are
    random subsets of size at most 2."""
    n = form.module.rank // 2
    std = standard_symplectic_form(form.module)
    iso = random_symplectic_isometry(rng, std, form)
    basis = form.module.canonical_basis()
    if config is None:
        idx = list(range(1, n + 1))
        i_set = set(rng.sample(idx, k=min(rng.randrange(3), n)))
        j_set = set(rng.sample(idx, k=min(rng.randrange(3), n)))
    else:
        i_set, j_set = config
    r = {i: iso.apply(basis[2 * (i - 1)]) for i in i_set}
    s = {j: iso.apply(basis[2 * (j - 1) + 1]) for j in j_set}
    return PartialFamily.of(r, s)


def random_totally_isotropic(rng: Random, form: BilinearForm, k: int):
    """Rank-k totally isotropic free submodule: the span of k distinct
    r-sections of a random symplectic basis, lightly recombined."""
    n = form.module.rank // 2
    assert 0 <= k <= n
    basis = gram_schmidt_extend(form, PartialFamily.of())
    picks = [basis.r[i] for i in sorted(rng.sample(range(n), k))]
    if k > 1:
        mix = random_invertible(rng, k, form.module.field)
        mixed = []
        for row in mix:
            acc = row[0] * picks[0]
            for c, sec in zip(row[1:], picks[1:]):
                acc = acc + c * sec
            mixed.append(acc)
        picks = mixed
    return span(form.module, picks)


# -- enumeration oracles ---------------------------------------------------------

def all_fiber_vectors(field, rank: int):
    return list(itertools.product(field.elements(), repeat=rank))


def _zero_pair_counts(g, vectors, field):
    """Exhaustive fiber pairing table: how many ordered vector pairs vanish
    forward, and how many vanish in both directions; plus a pair vanishing
    forward but not backward, if any."""
    table = {}
    for u in vectors:
        gu = linalg.vec_mat(u, g)  # phi(u, v) = (u G) . v
        for v in vectors:
            table[(u, v)] = linalg.dot(gu, v)
    forward = 0
    both = 0
    witness = None
    for (u, v), val in table.items():
        if val == field.zero:
            forward += 1
            if table[(v, u)] == field.zero:
                both += 1
            elif witness is None:
                witness = (u, v)
    return forward, both, witness


def orthosymmetric_by_counting(form: BilinearForm):
    """Brute-force orthosymmetry over an enumerable field.

    Sections over an open are exactly one fiber vector per component, so the
    set of pairs with phi_U(r, s) = 0 is the product of the per-component
    zero-pair sets, and the sectionwise biconditional over U holds iff on
    every component the both-directions count equals the forward count.
    Returns (verdict, witness) with the witness a (open, r, s) triple over an
    offending component, re-verified by evaluation."""
    module = form.module
    field = module.field
    vectors = all_fiber_vectors(field, module.rank)
    stats = [_zero_pair_counts(g, vectors, field) for g in form.gram]

    space = module.space
    for u_ref in range(len(space.opens)):
        refinement = space.component_refinement(u_ref, space.x_ref)
        for local, xc in enumerate(refinement):
            forward, both, witness = stats[xc]
            if both < forward:
                comp = space.components_of(u_ref)[local]
                comp_ref = space.ref(comp)
                u_vec, v_vec = witness
                r = ModuleSection(module, comp_ref, (u_vec,))
                s = ModuleSection(module, comp_ref, (v_vec,))
                assert form.evaluate(r, s).is_zero()
                assert not form.evaluate(s, r).is_zero()
                return False, (comp_ref, r, s)
    return True, None


def orthosymmetric_by_literal_enumeration(form: BilinearForm):
    """The definition verbatim: every open, every ordered pair of sections.
    Exponential in the number of components; only for tiny instances."""
    module = form.module
    space = module.space
    field = module.field
    vectors = all_fiber_vectors(field, module.rank)
    for u_ref in range(len(space.opens)):
        ncomp = len(space.components_of(u_ref))
        for r_vecs in itertools.product(vectors, repeat=ncomp):
            r = ModuleSection(module, u_ref, r_vecs)
            for s_vecs in itertools.product(vectors, repeat=ncomp):
                s = ModuleSection(module, u_ref, s_vecs)
                if form.evaluate(r, s).is_zero() != form.evaluate(s, r).is_zero():
                    return False, (u_ref, r, s)
    return True, None


def orthosymmetry_counterexample_search(form: BilinearForm, rng: Random, tries: int):
    """Sampling route for non-enumerable fields: look for a pair violating
    the biconditional over random opens."""
    module = form.module
    space = module.space
    for _ in range(tries):
        u_ref = rng.randrange(len(space.opens))
        ncomp = len(space.components_of(u_ref))
        if ncomp == 0:
            continue
        r = random_section_over(rng, module, u_ref)
        s = random_section_over(rng, module, u_ref)
        if form.evaluate(r, s).is_zero() != form.evaluate(s, r).is_zero():
            return (u_ref, r, s)
    return None


def random_section_over(rng: Random, module: FreeModule, u_ref: int) -> ModuleSection:
    return ModuleSection(
        module,
        u_ref,
        tuple(
            tuple(module.field.random_scalar(rng) for _ in range(module.rank))
            for _ in module.space.components_of(u_ref)
        ),
    )


def enumerate_algebra_sections(space, field, u_ref: int):
    ncomp = len(space.components_of(u_ref))
    for values in itertools.product(field.elements(), repeat=ncomp):
        yield AlgebraSection(space, field, u_ref, values)


def scholium_check(section: AlgebraSection):
    """The three routes that must coincide: nowhere-zero by enumeration,
    nowhere-zero by the component criterion, and invertibility."""
    enumerated = section.is_nowhere_zero_enumerated()
    fast = section.is_nowhere_zero()
    try:
        inv = section.invert()
        invertible = True
        product_is_one = (inv * section).values == tuple(
            section.field.one for _ in section.values
        )
    except NotNowhereZero:
        invertible = False
        product_is_one = True  # nothing to check
    return enumerated == fast == invertible and product_is_one


# -- oracle suites -----------------------------------------------------------------

def _suite_scholium(seed: int, field, bounds):
    cases = 0
    fail = None
    for space in fixture_spaces():
        if hasattr(field, "p"):
            for u_ref in range(len(space.opens)):
                for sec in enumerate_algebra_sections(space, field, u_ref):
                    cases += 1
                    if not scholium_check(sec) and fail is None:
                        fail = {"open": u_ref, "values": [field.format(v) for v in sec.values]}
    rng = Random(seed)
    n_random = bounds.get("cases", 400)
    spaces = fixture_spaces()
    for _ in range(n_random):
        space = spaces[rng.randrange(len(spaces))]
        u_ref = rng.randrange(len(space.opens))
        ncomp = len(space.components_of(u_ref))
        values = tuple(
            field.random_scalar(rng) if rng.random() < 0.8 else field.zero
            for _ in range(ncomp)
        )
        sec = AlgebraSection(space, field, u_ref, values)
        cases += 1
        if not scholium_check(sec) and fail is None:
            fail = {"open": u_ref, "values": [field.format(v) for v in values]}
    return cases, fail


def _suite_dichotomy(seed: int, field, bounds):
    rng = Random(seed)
    max_rank = bounds.get("max_rank", 3)
    cases = 0
    fail = None
    spaces = fixture_spaces()

    if hasattr(field, "p") and field.p == 3:
        # exhaustive at rank <= 2 on every fixture, uniform across components
        for space in spaces:
            ncomp = len(space.components_of(space.x_ref))
            for rank in (1, 2):
                module = FreeModule(space, field, rank)
                entries = list(itertools.product(field.elements(), repeat=rank * rank))
                for flat in entries:
                    g = tuple(
                        tuple(flat[i * rank + j] for j in range(rank))
                        for i in range(rank)
                    )
                    form = BilinearForm(module, (g,) * ncomp)
                    cases += 1
                    verdict = classify_orthosymmetry(form).orthosymmetric
                    brute, _ = orthosymmetric_by_counting(form)
                    if verdict != brute and fail is None:
                        fail = {"gram": [[field.format(x) for x in row] for row in g]}

    n_random = bounds.get("cases", 200)
    for _ in range(n_random):
        space = spaces[rng.randrange(len(spaces))]
        ncomp = len(space.components_of(space.x_ref))
        rank = rng.randrange(1, max_rank + 1)
        module = FreeModule(space, field, rank)
        gram = tuple(
            tuple(
                tuple(field.random_scalar(rng) for _ in range(rank))
                for _ in range(rank)
            )
            for _ in range(ncomp)
        )
        form = BilinearForm(module, gram)
        cases += 1
        cls = classify_orthosymmetry(form)
        if hasattr(field, "p"):
            brute, _ = orthosymmetric_by_counting(form)
            agreed = cls.orthosymmetric == brute
        else:
            found = orthosymmetry_counterexample_search(form, rng, 40)
            agreed = not (cls.orthosymmetric and found is not None)
        if cls.witness is not None:
            w = cls.witness
            agreed = agreed and form.evaluate(w.r, w.s).is_zero()
            agreed = agreed and form.evaluate(w.s, w.r).is_nowhere_zero()
        if not agreed and fail is None:
            fail = {"rank": rank, "component_grams": len(gram)}
    return cases, fail


def _random_form_and_submodules(rng, field, max_rank, spaces):
    space = spaces[rng.randrange(len(spaces))]
    rank = rng.randrange(1, max_rank + 1)
    module = FreeModule(space, field, rank)
    form = random_orthosymmetric_form(rng, module)
    f = random_free_submodule(rng, module, rng.randrange(rank + 1))
    g = random_free_submodule(rng, module, rng.randrange(rank + 1))
    return form, f, g


def _suite_calculus(seed: int, field, bounds):
    rng = Random(seed)
    max_rank = bounds.get("max_rank", 5)
    cases = 0
    fail = None
    spaces = fixture_spaces()
    for _ in range(bounds.get("cases", 150)):
        form, f, g = _random_form_and_submodules(rng, field, max_rank, spaces)
        cases += 1
        ok = (
            form.orthogonal(sum_submodules(f, g))
            == intersect_submodules(form.orthogonal(f), form.orthogonal(g))
        )
        ok = ok and (
            form.orthogonal(intersect_submodules(f, g))
            == sum_submodules(form.orthogonal(f), form.orthogonal(g))
        )
        if not ok and fail is None:
            fail = {"rank": form.module.rank, "dims_f": f.dims, "dims_g": g.dims}
    return cases, fail


def _suite_reflexivity(seed: int, field, bounds):
    rng = Random(seed)
    max_rank = bounds.get("max_rank", 5)
    cases = 0
    fail = None
    spaces = fixture_spaces()
    for _ in range(bounds.get("cases", 150)):
        form, f, _ = _random_form_and_submodules(rng, field, max_rank, spaces)
        cases += 1
        if form.orthogonal(form.orthogonal(f)) != f and fail is None:
            fail = {"rank": form.module.rank, "dims": f.dims}
    return cases, fail


def _suite_splitting(seed: int, field, bounds):
    rng = Random(seed)
    max_rank = bounds.get("max_rank", 5)
    cases = 0
    fail = None
    spaces = fixture_spaces()
    for _ in range(bounds.get("cases", 100)):
        space = spaces[rng.randrange(len(spaces))]
        rank = rng.randrange(1, max_rank + 1)
        module = FreeModule(space, field, rank)
        form = random_orthosymmetric_form(rng, module, symmetric_only=True)
        r = rng.randrange(rank + 1)
        f = random_nonisotropic_submodule(rng, form, r)
        while f is None:
            r -= 1
            f = random_nonisotropic_submodule(rng, form, r)
        cases += 1
        split = form.orthogonal_split(f)
        ok = split.certificate.ok
        for _ in range(5):
            t = random_global_section(rng, module)
            p = form.project(f, t)
            ok = ok and form.project(f, p) == p and f.contains(p)
            residual = t - p
            for b in f.global_basis():
                ok = ok and form.evaluate(residual, b).is_zero()
        if not ok and fail is None:
            fail = {"rank": rank, "dims": f.dims}
    return cases, fail


def _suite_gram_schmidt(seed: int, field, bounds):
    rng = Random(seed)
    max_rank = bounds.get("max_rank", 6)
    cases = 0
    fail = None
    spaces = fixture_spaces()
    for _ in range(bounds.get("cases", 60)):
        space = spaces[rng.randrange(len(spaces))]
        rank = 2 * rng.randrange(1, max_rank // 2 + 1)
        module = FreeModule(space, field, rank)
        form = random_alternating_form(rng, module)
        partial = random_partial_family(rng, form)
        cases += 1
        basis = gram_schmidt_extend(form, partial)
        ok = certify_basis(form, basis, partial)
        mats = normal_form(form)
        target = standard_alternating(rank, field)
        for p, g in zip(mats, form.gram):
            ok = ok and linalg.matmul(
                linalg.transpose(p), linalg.matmul(g, p)
            ) == target
        other = random_alternating_form(rng, module)
        iso = standard_isometry(form, other)
        ok = ok and iso.holds()
        if not ok and fail is None:
            fail = {"rank": rank}
    return cases, fail


def _suite_witt(seed: int, field, bounds):
    rng = Random(seed)
    max_rank = bounds.get("max_rank", 6)
    cases = 0
    gated = 0
    fail = None
    spaces = fixture_spaces()
    for _ in range(bounds.get("cases", 40)):
        space = spaces[rng.randrange(len(spaces))]
        rank = 2 * rng.randrange(1, max_rank // 2 + 1)
        module = FreeModule(space, field, rank)
        source = random_alternating_form(rng, module)
        target = random_alternating_form(rng, module)
        basis = gram_schmidt_extend(source, PartialFamily.of())
        n = rank // 2
        iso_count = rng.randrange(n + 1)
        hyp_count = rng.randrange(n - iso_count + 1)
        picks = rng.sample(range(n), iso_count + hyp_count)
        sections = [basis.r[i] for i in picks[:iso_count]]
        for i in picks[iso_count:]:
            sections.append(basis.r[i])
            sections.append(basis.s[i])
        f = span(module, sections)
        carrier = random_symplectic_isometry(rng, source, target)
        cases += 1
        try:
            fb = f.global_basis()
            images = [carrier.apply(sec) for sec in fb]
            iso = witt_extend(source, target, f, images)
        except FreenessViolated:
            gated += 1
            continue
        ok = iso.holds()
        for sec, im in zip(fb, images):
            ok = ok and iso.apply(sec) == im
        if not ok and fail is None:
            fail = {"rank": rank, "dims": f.dims}
    return cases, fail, gated


SUITES = {
    "scholium_invertibility": _suite_scholium,
    "orthosymmetry_dichotomy": _suite_dichotomy,
    "orthogonal_calculus": _suite_calculus,
    "reflexivity": _suite_reflexivity,
    "splitting": _suite_splitting,
    "gram_schmidt": _suite_gram_schmidt,
    "witt": _suite_witt,
}


def run_suite(suite: str, seed: int, field, bounds=None):
    """Run one oracle suite; returns a deterministic payload dictionary."""
    if suite not in SUITES:
        raise UnknownSuite(f"unknown oracle suite: {suite!r} (choices: {', '.join(SUITES)})")
    # only the witt suite returns a third value, its freeness-gated count
    cases, fail, *gated = SUITES[suite](seed, field, dict(bounds or {}))
    payload = {
        "suite": suite,
        "seed": seed,
        "field": field.name,
        "cases": cases,
        "status": "ok" if fail is None else "counterexample",
        "counterexample": fail,
    }
    if gated:
        payload["freeness_gated"] = gated[0]
    return payload
