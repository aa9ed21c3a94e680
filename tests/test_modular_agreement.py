"""The same construction over Q and over GF(p) agrees at a prime of good
reduction.

Every output of the library is canonical: a reduced echelon basis, or a
completion whose choices are "the first row with a non-zero entry or
pairing". So for inputs with integer entries (or fractions whose
denominators p does not divide), and a prime p at which no decision value
vanishes, the output over Q reduced mod p equals the output over GF(p) of
the reduced input. That is the argument behind multi-modular linear algebra
(Cabay, "Exact solution of linear equations", SYMSAC 1971; Storjohann's
thesis, ETH Zurich, 2000).

The two sides share no arithmetic: over Q the kernel eliminates Bareiss
integer rows, over GF(p) packed 64-bit slots. At p = 16777213 a slot has a
headroom of 2^16 products and at p = 2^31 - 1 of 4, so from rank 8 on (the
packed width) the packed elimination and its reductions both run.

The corpus is fixed (seeded), so no unlucky prime can come and go. A
disagreement is a defect, or a decision value that vanishes mod p: a pivot,
a pairing the completion divides by, a radical dimension. To tell which,
reduce the decision values of the Q side mod p: if none vanishes, the
library is at fault.
"""

import functools
import itertools
from random import Random

import pytest

from sheafforms import (
    BilinearForm,
    FreeModule,
    FreenessViolated,
    ModuleSection,
    PartialFamily,
    PrimeField,
    RationalField,
    from_rows,
    gram_schmidt_extend,
    hyperbolic_envelope,
    intersect_submodules,
    normal_form,
    span,
    standard_isometry,
    sum_submodules,
    validate_symplectic,
    validate_topology,
    witt_extend,
)
from sheafforms.oracles import (
    fixture_spaces,
    random_partial_family,
    random_symplectic_isometry,
    random_totally_isotropic,
)

Q = RationalField()
PRIMES = (16777213, 2**31 - 1)

DISCRETE_FOUR = validate_topology(
    "abcd", [c for k in range(5) for c in itertools.combinations("abcd", k)]
)
SPACES = (*fixture_spaces(), DISCRETE_FOUR)
SYMPLECTIC_RANKS = (2, 4, 6, 8, 10, 12, 14, 16)
CALCULUS_RANKS = (2, 3, 5, 8, 9, 12, 16)


# -- reduction mod p -----------------------------------------------------------

def reduce(x, field):
    """A rational mod p; p must not divide its denominator."""
    assert x.denominator % field.p, f"{field.p} divides the denominator of {x}"
    return field.from_int(x.numerator) / field.from_int(x.denominator)


def reduce_rows(rows, field):
    return tuple(tuple(reduce(x, field) for x in row) for row in rows)


def reduce_form(form, field):
    module = FreeModule(form.module.space, field, form.module.rank)
    return BilinearForm(module, tuple(reduce_rows(g, field) for g in form.gram))


def reduce_section(sec, module):
    return ModuleSection(module, sec.open, reduce_rows(sec.vectors, module.field))


def reduce_submodule(f, module):
    return from_rows(module, reduced_bases(f, module.field))


def reduced_bases(f, field):
    return tuple(reduce_rows(rows, field) for rows in f.bases)


# -- the corpus ---------------------------------------------------------------

def integers(rng, rows, cols):
    return tuple(tuple(Q.from_int(rng.randint(-9, 9)) for _ in range(cols)) for _ in range(rows))


def integer_section(rng, module):
    ncomp = len(module.x_components())
    return ModuleSection(module, module.space.x_ref, integers(rng, ncomp, module.rank))


def alternating(rng, module):
    """A non-degenerate alternating form with integer entries."""
    while True:
        grams = []
        for _ in module.x_components():
            upper = integers(rng, module.rank, module.rank)
            grams.append(tuple(
                tuple(upper[i][j] if i < j else -upper[j][i] if i > j else Q.zero
                      for j in range(module.rank))
                for i in range(module.rank)
            ))
        form = BilinearForm(module, tuple(grams))
        if form.is_nondegenerate():
            return form


def symmetric(rng, module, rank):
    """A symmetric form with integer entries, B^T B for an integer B of
    `rank` rows on every component: degenerate when rank < module.rank."""
    grams = []
    for _ in module.x_components():
        b = integers(rng, rank, module.rank)
        grams.append(tuple(
            tuple(sum((b[k][i] * b[k][j] for k in range(rank)), Q.zero)
                  for j in range(module.rank))
            for i in range(module.rank)
        ))
    return BilinearForm(module, tuple(grams))


def integer_submodule(rng, module, count):
    return span(module, [integer_section(rng, module) for _ in range(count)])


@functools.lru_cache(maxsize=None)
def symplectic_case(k):
    """Case k over Q: its inputs and the outputs of the symplectic
    constructions."""
    rng = Random(f"symplectic:{k}")
    space = SPACES[k % len(SPACES)]
    module = FreeModule(space, Q, SYMPLECTIC_RANKS[k % len(SYMPLECTIC_RANKS)])
    form, target = alternating(rng, module), alternating(rng, module)
    partial = random_partial_family(rng, form)
    n = module.rank // 2
    basis = gram_schmidt_extend(form, PartialFamily.of())
    picks = rng.sample(range(n), rng.randrange(1, n + 1))
    sections = [basis.r[i] for i in picks] + [basis.s[i] for i in picks[: len(picks) // 2]]
    f = span(module, sections)
    carrier = random_symplectic_isometry(rng, form, target)
    images = [carrier.apply(sec) for sec in f.global_basis()]
    try:
        witt = witt_extend(form, target, f, images).matrices
    except FreenessViolated:
        witt = FreenessViolated
    isotropic = random_totally_isotropic(rng, form, rng.randrange(1, n + 1))
    return {
        "inputs": (form, target, partial, f, images, isotropic),
        "normal_form": normal_form(form),
        "extension": gram_schmidt_extend(form, partial),
        "isometry": standard_isometry(form, target).matrices,
        "witt": witt,
        "envelope": hyperbolic_envelope(form, isotropic),
    }


@functools.lru_cache(maxsize=None)
def calculus_case(k):
    """Case k over Q: its inputs and the outputs of the orthogonal
    calculus and of the submodule lattice."""
    rng = Random(f"calculus:{k}")
    space = SPACES[k % len(SPACES)]
    rank = CALCULUS_RANKS[k % len(CALCULUS_RANKS)]
    module = FreeModule(space, Q, rank)
    general = BilinearForm(
        module, tuple(integers(rng, rank, rank) for _ in module.x_components())
    )
    degenerate = symmetric(rng, module, max(1, rank - 2))
    f = integer_submodule(rng, module, rng.randrange(1, rank + 1))
    g = integer_submodule(rng, module, rng.randrange(1, rank + 1))
    nondegenerate = symmetric(rng, module, rank)
    while True:
        carrier = integer_submodule(rng, module, rng.randrange(1, rank + 1))
        if carrier.is_free() and not any(nondegenerate.radical(carrier).dims):
            break
    t = integer_section(rng, module)
    return {
        "inputs": (general, degenerate, nondegenerate, f, g, carrier, t),
        "left": general.orthogonal(f, "left"),
        "right": general.orthogonal(f, "right"),
        "radical": degenerate.radical(),
        "radical_f": degenerate.radical(f),
        "sum": sum_submodules(f, g),
        "meet": intersect_submodules(f, g),
        "projection": nondegenerate.project(carrier, t),
    }


CASES = range(8)


# -- agreement ----------------------------------------------------------------

@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", CASES)
def test_symplectic_constructions_agree(p, k):
    field = PrimeField(p)
    case = symplectic_case(k)
    form, target, partial, f, images, isotropic = case["inputs"]
    form_p, target_p = reduce_form(form, field), reduce_form(target, field)
    validate_symplectic(form_p)
    module_p = form_p.module

    assert normal_form(form_p) == tuple(reduce_rows(m, field) for m in case["normal_form"])

    partial_p = PartialFamily.of(
        {i: reduce_section(sec, module_p) for i, sec in partial.r},
        {j: reduce_section(sec, module_p) for j, sec in partial.s},
    )
    basis, basis_p = case["extension"], gram_schmidt_extend(form_p, partial_p)
    for side, side_p in ((basis.r, basis_p.r), (basis.s, basis_p.s)):
        assert side_p == tuple(reduce_section(sec, module_p) for sec in side)

    isometry = standard_isometry(form_p, target_p).matrices
    assert isometry == tuple(reduce_rows(m, field) for m in case["isometry"])

    f_p = reduce_submodule(f, module_p)
    images_p = [reduce_section(sec, module_p) for sec in images]
    if case["witt"] is FreenessViolated:
        with pytest.raises(FreenessViolated):
            witt_extend(form_p, target_p, f_p, images_p)
    else:
        witt = witt_extend(form_p, target_p, f_p, images_p).matrices
        assert witt == tuple(reduce_rows(m, field) for m in case["witt"])

    planes = hyperbolic_envelope(form_p, reduce_submodule(isotropic, module_p))
    assert len(planes) == len(case["envelope"])
    for plane, plane_q in zip(planes, case["envelope"]):
        assert plane.r == reduce_section(plane_q.r, module_p)
        assert plane.s == reduce_section(plane_q.s, module_p)
        assert plane.span.bases == reduced_bases(plane_q.span, field)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", CASES)
def test_calculus_agrees(p, k):
    field = PrimeField(p)
    case = calculus_case(k)
    general, degenerate, nondegenerate, f, g, carrier, t = case["inputs"]
    general_p = reduce_form(general, field)
    module_p = general_p.module
    degenerate_p = reduce_form(degenerate, field)
    f_p, g_p = reduce_submodule(f, module_p), reduce_submodule(g, module_p)

    for side in ("left", "right"):
        assert general_p.orthogonal(f_p, side).bases == reduced_bases(case[side], field)
    assert degenerate_p.radical().bases == reduced_bases(case["radical"], field)
    assert degenerate_p.radical(f_p).bases == reduced_bases(case["radical_f"], field)
    assert sum_submodules(f_p, g_p).bases == reduced_bases(case["sum"], field)
    assert intersect_submodules(f_p, g_p).bases == reduced_bases(case["meet"], field)

    projection = reduce_form(nondegenerate, field).project(
        reduce_submodule(carrier, module_p), reduce_section(t, module_p)
    )
    assert projection == reduce_section(case["projection"], module_p)

