"""Randomized and exhaustive oracles.

Generators build seeded random instances (forms, submodules, partial
families, isometries); the oracle suites check the library's answers against
independent routes: definitions evaluated by enumeration or counting, and
defining equations re-verified on the output by the library's own
certificate functions. A suite states only how it draws and checks one case;
`run_suite` is the one loop: it checks the bounds, runs the enumerated cases
and then `cases` random ones from `Random(seed)`, counts them, keeps the
first counterexample and, for `witt`, the freeness-gated count. A case in
which the library fails one of its own self-checks (`SelfCheckFailed`), in
drawing its input or in a construction, is a counterexample too. Every suite
is thus a pure function of (seed, field, bounds), which is what makes oracle
reports reproducible. The bounds are `cases` and `max_rank`, both integers:
0 <= `cases` <= `MAX_CASES`, and `max_rank` at most `MAX_RANK` and at least
1, or 2 for `gram_schmidt` and `witt` (`scholium_invertibility` draws no
rank and ignores it); any other key or value is a `ParseError`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional

from . import linalg
from .algebra import AlgebraSection
from .bilinear import (
    BilinearForm,
    OrthoWitness,
    certify_projection,
    certify_witness,
    classify_orthosymmetry,
)
from .errors import (
    FreenessViolated,
    NotNowhereZero,
    ParseError,
    SelfCheckFailed,
    UnknownSuite,
)
from .modules import (
    FreeModule,
    ModuleSection,
    intersect_submodules,
    span,
    sum_submodules,
)
from .symplectic import (
    Isometry,
    PartialFamily,
    _carry,
    _validate_pair,
    certify_basis,
    certify_witt,
    gram_schmidt_extend,
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


_FIXTURES = (point_space(), sierpinski_space(), discrete_pair_space())


def fixture_spaces():
    """The point, the Sierpinski space and the discrete pair, validated once
    at import: every call returns the same tuple of immutable spaces."""
    return _FIXTURES


# -- seeded generators ----------------------------------------------------------

def random_invertible(rng: Random, n: int, field):
    while True:
        m = tuple(
            tuple(field.random_scalar(rng) for _ in range(n)) for _ in range(n)
        )
        if linalg.rank(m, field) == n:
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
    return random_section_over(rng, module, module.space.x_ref)


def random_free_submodule(rng: Random, module: FreeModule, r: int):
    """Span of r random global sections, resampled until the span has
    dimension r on every component."""
    if not 0 <= r <= module.rank:
        raise ValueError(f"rank {r} outside 0..{module.rank}")
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
    """A random held W with W^T A W = A for A the standard alternating
    matrix of rank n: a short product of shear and GL-conjugation
    generators, each the block matrix [[a, b], [c, d]] over the r and the s
    coordinates held in A's interleaved order r_1, s_1, r_2, s_2, ..."""
    half = n // 2
    ident = linalg.identity(half, field)
    zero = ((field.zero,) * half,) * half

    def sym():
        m = [[field.zero] * half for _ in range(half)]
        for i in range(half):
            for j in range(i, half):
                m[i][j] = m[j][i] = field.random_scalar(rng)
        return m

    def interleaved(*blocks):
        # entry (2i + a, 2j + b) is entry (i, j) of the block 2a + b
        return linalg.hold([[blocks[2 * a + b][i][j] for j in range(half) for b in (0, 1)]
                            for i in range(half) for a in (0, 1)], field)

    gens = []
    for _ in range(3):
        kind = rng.randrange(3)
        if kind == 0:
            gens.append(interleaved(ident, sym(), zero, ident))
        elif kind == 1:
            gens.append(interleaved(ident, zero, sym(), ident))
        else:
            q = random_invertible(rng, half, field)
            gens.append(interleaved(q, zero, zero, linalg.transpose(linalg.inverse(q, field))))
    return functools.reduce(functools.partial(linalg.held_combine, field=field), gens)


def random_symplectic_isometry(
    rng: Random, source: BilinearForm, target: BilinearForm
) -> Isometry:
    """A random exact isometry source -> target: M = P' W P^-1 between the
    completions of the two forms' empty families (`symplectic._carry`), the
    completions `normal_form` reads, with a random W, W^T A W = A, drawn on
    each component. Both forms are validated as a pair, and M is checked by
    `Isometry.holds`."""
    _validate_pair(source, target)
    n, field = source.module.rank, source.module.field
    ws = [_random_block_symplectic(rng, n, field) for _ in source.gram]
    iso = _carry(source, target, ({}, {}), ({}, {}), between=ws)
    if not iso.holds():
        raise SelfCheckFailed("the random symplectic isometry fails M^T G' M == G")
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
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} outside 0..{n}")
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
    # phi(u, v) = (u G) . v for every pair at once: the matrix V G V^T
    table = linalg.matmul(linalg.matmul(vectors, g), linalg.transpose(vectors))
    forward = 0
    both = 0
    witness = None
    for i, row in enumerate(table):
        for j, val in enumerate(row):
            if val == field.zero:
                forward += 1
                if table[j][i] == field.zero:
                    both += 1
                elif witness is None:
                    witness = (vectors[i], vectors[j])
    return forward, both, witness


def orthosymmetric_by_counting(form: BilinearForm):
    """Brute-force orthosymmetry over an enumerable field.

    Sections over an open are exactly one fiber vector per component, so the
    set of pairs with phi_U(r, s) = 0 is the product of the per-component
    zero-pair sets, and the sectionwise biconditional over U holds iff on
    every component the both-directions count equals the forward count.
    Returns (verdict, witness) with the witness a (open, r, s) triple over an
    offending component, re-verified by `certify_witness`."""
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
                if not certify_witness(form, OrthoWitness(comp_ref, r, s)):
                    raise SelfCheckFailed("the counted pair fails phi(r, s) = 0 != phi(s, r)")
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
    """Sampling route for fields too large to count: look for a pair violating
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

_GATED = object()  # case outcome: the witt hypothesis failed freeness


def _draw_space(rng: Random):
    spaces = fixture_spaces()
    return spaces[rng.randrange(len(spaces))]


def _scholium_outcome(sec: AlgebraSection):
    if scholium_check(sec):
        return None
    return {"open": sec.open, "values": [sec.field.format(v) for v in sec.values]}


# the most fiber vectors the dichotomy suite counts pairs of (it tabulates
# (p^rank)^2 of them) and the most sections per fixture open the scholium
# suite enumerates; above it both suites only sample
_COUNTING_LIMIT = 125


def _scholium_exhaustive(field):
    """Every section over every open of every fixture space, over GF(p) with
    p^ncomp <= `_COUNTING_LIMIT` on every open (p <= 11); decided before the
    field's elements are listed."""
    if not hasattr(field, "p"):
        return
    spaces = fixture_spaces()
    widest = max(len(s.components_of(u)) for s in spaces for u in range(len(s.opens)))
    if field.p**widest > _COUNTING_LIMIT:
        return
    for space in spaces:
        for u_ref in range(len(space.opens)):
            for sec in enumerate_algebra_sections(space, field, u_ref):
                yield functools.partial(_scholium_outcome, sec)


def _scholium_case(rng: Random, field, max_rank):
    space = _draw_space(rng)
    u_ref = rng.randrange(len(space.opens))
    ncomp = len(space.components_of(u_ref))
    values = tuple(
        field.random_scalar(rng) if rng.random() < 0.8 else field.zero
        for _ in range(ncomp)
    )
    return _scholium_outcome(AlgebraSection(space, field, u_ref, values))


def _dichotomy_exhaustive(field):
    """Every Gram matrix at rank <= 2 over GF(3) on every fixture, uniform
    across components."""
    if not (hasattr(field, "p") and field.p == 3):
        return
    for space in fixture_spaces():
        ncomp = len(space.components_of(space.x_ref))
        for rank in (1, 2):
            module = FreeModule(space, field, rank)
            for flat in itertools.product(field.elements(), repeat=rank * rank):
                g = tuple(
                    tuple(flat[i * rank + j] for j in range(rank)) for i in range(rank)
                )
                yield functools.partial(_dichotomy_outcome, BilinearForm(module, (g,) * ncomp))


def _dichotomy_outcome(form: BilinearForm):
    """The classification of a form with one Gram matrix on every component
    against the count of its pairs."""
    if classify_orthosymmetry(form).orthosymmetric == orthosymmetric_by_counting(form)[0]:
        return None
    return {"gram": [[form.module.field.format(x) for x in row] for row in form.gram[0]]}


def _dichotomy_case(rng: Random, field, max_rank):
    space = _draw_space(rng)
    ncomp = len(space.components_of(space.x_ref))
    rank = rng.randrange(1, max_rank + 1)
    module = FreeModule(space, field, rank)
    gram = tuple(
        tuple(
            tuple(field.random_scalar(rng) for _ in range(rank)) for _ in range(rank)
        )
        for _ in range(ncomp)
    )
    form = BilinearForm(module, gram)
    cls = classify_orthosymmetry(form)
    if hasattr(field, "p") and field.p**rank <= _COUNTING_LIMIT:
        brute, _ = orthosymmetric_by_counting(form)
        agreed = cls.orthosymmetric == brute
    else:
        found = orthosymmetry_counterexample_search(form, rng, 40)
        agreed = not (cls.orthosymmetric and found is not None)
    if cls.witness is not None:
        agreed = agreed and certify_witness(form, cls.witness)
    return None if agreed else {"rank": rank, "component_grams": len(gram)}


def _random_form_and_submodules(rng: Random, field, max_rank):
    space = _draw_space(rng)
    rank = rng.randrange(1, max_rank + 1)
    module = FreeModule(space, field, rank)
    form = random_orthosymmetric_form(rng, module)
    f = random_free_submodule(rng, module, rng.randrange(rank + 1))
    g = random_free_submodule(rng, module, rng.randrange(rank + 1))
    return form, f, g


def _calculus_case(rng: Random, field, max_rank):
    form, f, g = _random_form_and_submodules(rng, field, max_rank)
    ok = (
        form.orthogonal(sum_submodules(f, g))
        == intersect_submodules(form.orthogonal(f), form.orthogonal(g))
    )
    ok = ok and (
        form.orthogonal(intersect_submodules(f, g))
        == sum_submodules(form.orthogonal(f), form.orthogonal(g))
    )
    return None if ok else {"rank": form.module.rank, "dims_f": f.dims, "dims_g": g.dims}


def _reflexivity_case(rng: Random, field, max_rank):
    form, f, _ = _random_form_and_submodules(rng, field, max_rank)
    if form.orthogonal(form.orthogonal(f)) == f:
        return None
    return {"rank": form.module.rank, "dims": f.dims}


def _splitting_case(rng: Random, field, max_rank):
    space = _draw_space(rng)
    rank = rng.randrange(1, max_rank + 1)
    module = FreeModule(space, field, rank)
    form = random_orthosymmetric_form(rng, module, symmetric_only=True)
    r = rng.randrange(rank + 1)
    f = random_nonisotropic_submodule(rng, form, r)
    while f is None:
        r -= 1
        f = random_nonisotropic_submodule(rng, form, r)
    split = form.orthogonal_split(f)
    perp = split.complement
    # the complement meets f in zero and pairs to zero with it, by routes of
    # the oracle's own: an intersection and `evaluate` on the global bases
    ok = (
        split.certificate.ok
        and not any(intersect_submodules(f, perp).dims)
        and all(form.evaluate(s, t).is_zero()
                for s in f.global_basis() for t in perp.global_basis())
    )
    for _ in range(5):
        t = random_global_section(rng, module)
        p = form.project(f, t)
        ok = ok and all(certify_projection(form, f, t, p).values())
    return None if ok else {"rank": rank, "dims": f.dims}


def _random_symplectic_module(rng: Random, field, max_rank):
    space = _draw_space(rng)
    return FreeModule(space, field, 2 * rng.randrange(1, max_rank // 2 + 1))


def _gram_schmidt_case(rng: Random, field, max_rank):
    module = _random_symplectic_module(rng, field, max_rank)
    form = random_alternating_form(rng, module)
    partial = random_partial_family(rng, form)
    basis = gram_schmidt_extend(form, partial)
    mats = normal_form(form)
    iso = standard_isometry(form, random_alternating_form(rng, module))
    ok = (
        certify_basis(form, basis, partial)
        and Isometry(standard_symplectic_form(module), form, mats).holds()
        and iso.holds()
    )
    return None if ok else {"rank": module.rank}


def _witt_case(rng: Random, field, max_rank):
    module = _random_symplectic_module(rng, field, max_rank)
    source = random_alternating_form(rng, module)
    target = random_alternating_form(rng, module)
    basis = gram_schmidt_extend(source, PartialFamily.of())
    n = module.rank // 2
    iso_count = rng.randrange(n + 1)
    hyp_count = rng.randrange(n - iso_count + 1)
    picks = rng.sample(range(n), iso_count + hyp_count)
    sections = [basis.r[i] for i in picks[:iso_count]]
    for i in picks[iso_count:]:
        sections.append(basis.r[i])
        sections.append(basis.s[i])
    f = span(module, sections)
    carrier = random_symplectic_isometry(rng, source, target)
    try:
        images = [carrier.apply(sec) for sec in f.global_basis()]
        iso = witt_extend(source, target, f, images)
    except FreenessViolated:
        return _GATED
    return None if certify_witt(iso, f, images) else {"rank": module.rank, "dims": f.dims}


# Upper limits on the bounds, which scenario documents and the command line
# supply; MAX_CASES admits every suite's default number of cases.
MAX_CASES = 400
MAX_RANK = 8


@dataclass(frozen=True)
class _Suite:
    """How one suite draws and checks a case; `run_suite` owns the loop.

    `case(rng, field, max_rank)` returns None when the case checks out, a
    counterexample dictionary, or `_GATED`. `exhaustive(field)` yields the
    enumerated cases, run before the random ones, each a call of no
    arguments with the same outcomes."""

    case: Callable
    cases: int  # default number of random cases
    max_rank: Optional[int] = None  # default; None when the suite draws no rank
    min_rank: Optional[int] = None  # the least max_rank the suite can draw from
    exhaustive: Callable = lambda field: ()
    gates: bool = False  # the payload counts the freeness-gated cases


SUITES = {
    "scholium_invertibility": _Suite(_scholium_case, 400, exhaustive=_scholium_exhaustive),
    "orthosymmetry_dichotomy": _Suite(
        _dichotomy_case, 200, 3, 1, exhaustive=_dichotomy_exhaustive
    ),
    "orthogonal_calculus": _Suite(_calculus_case, 150, 5, 1),
    "reflexivity": _Suite(_reflexivity_case, 150, 5, 1),
    "splitting": _Suite(_splitting_case, 100, 5, 1),
    "gram_schmidt": _Suite(_gram_schmidt_case, 60, 6, 2),
    "witt": _Suite(_witt_case, 40, 6, 2, gates=True),
}


def _outcome(case):
    """The outcome of one case. A self-check the library fails inside it, in
    a generator as in a construction, makes the case a counterexample that
    carries the failure's code and message."""
    try:
        return case()
    except SelfCheckFailed as exc:
        return {"code": exc.code, "message": exc.message}


def run_suite(suite: str, seed: int, field, bounds=None):
    """Run one oracle suite; returns a deterministic payload dictionary."""
    if suite not in SUITES:
        raise UnknownSuite(f"unknown oracle suite: {suite!r} (choices: {', '.join(SUITES)})")
    spec = SUITES[suite]
    bounds = dict(bounds or {})
    for key, value in bounds.items():
        if key not in ("cases", "max_rank"):
            raise ParseError(f"unknown oracle bound {key!r} (choices: cases, max_rank)")
        # bool is a subclass of int, yet true is not a bound
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"oracle bound {key!r} must be an integer")
    n_random = bounds.get("cases", spec.cases)
    max_rank = bounds.get("max_rank", spec.max_rank)
    if n_random < 0:
        raise ParseError(f"oracle bound 'cases' must be non-negative, got {n_random}")
    if n_random > MAX_CASES:
        raise ParseError(f"oracle bound 'cases' must be at most {MAX_CASES}, got {n_random}")
    if spec.min_rank is not None and max_rank < spec.min_rank:
        raise ParseError(f"oracle bound 'max_rank' must be at least {spec.min_rank} for {suite}")
    if spec.max_rank is not None and max_rank > MAX_RANK:
        raise ParseError(f"oracle bound 'max_rank' must be at most {MAX_RANK}, got {max_rank}")
    rng = Random(seed)
    draws = (functools.partial(spec.case, rng, field, max_rank) for _ in range(n_random))
    cases = gated = 0
    fail = None
    for case in itertools.chain(spec.exhaustive(field), draws):
        outcome = _outcome(case)
        cases += 1
        if outcome is _GATED:
            gated += 1
        elif fail is None:
            fail = outcome
    payload = {
        "suite": suite,
        "seed": seed,
        "field": field.name,
        "cases": cases,
        "status": "ok" if fail is None else "counterexample",
        "counterexample": fail,
    }
    if spec.gates:
        payload["freeness_gated"] = gated
    return payload
