"""Byte-identity of the symplectic constructions and the orthogonal calculus.

The completed bases of `gram_schmidt_extend`, the matrices of `normal_form`,
`standard_isometry` and `witt_extend` are unique given their inputs, so a
change to how the kernel holds entries must not change a single byte of
them. A seeded corpus over Q and over GF(101), ranks 2-8 on the three fixture
spaces, is digested by sha256 of the `repr` of the outputs; the digests were
recorded before the symplectic completion ran on held integer rows.

The orthogonal calculus is pinned the same way: the echelon bases of
`orthogonal`, `sum_submodules`, `intersect_submodules` and `radical`, the
sections of `project`, the complements and certificates of
`orthogonal_split` and the flags and witnesses of `classify_orthosymmetry`,
on a seeded corpus over Q and over GF(10007), ranks 2-6 on the three fixture
spaces. Those digests were recorded before `linalg` was reduced to one
conversion on entry and one on exit.
"""

import hashlib
from random import Random

import pytest

from sheafforms import (
    BilinearForm,
    FreeModule,
    FreenessViolated,
    PrimeField,
    RationalField,
    classify_orthosymmetry,
    gram_schmidt_extend,
    intersect_submodules,
    linalg,
    normal_form,
    span,
    standard_isometry,
    sum_submodules,
    witt_extend,
)
from sheafforms.oracles import (
    discrete_pair_space,
    random_alternating_form,
    random_free_submodule,
    random_global_section,
    random_nonisotropic_submodule,
    random_orthosymmetric_form,
    random_partial_family,
    random_symplectic_isometry,
    sierpinski_space,
    three_point_space,
)

SPACES = (sierpinski_space(), discrete_pair_space(), three_point_space())

DIGESTS = {
    "rationals": {
        "gram_schmidt_extend":
            "287fcac9f7d17e725f0a46afd3c1385234ac53faa83060f1229e436100afe046",
        "normal_form": "592300a569784b18761abe77dba92f79b4deb47f90eb7e2df75629f267dacf49",
        "standard_isometry": "c43de6c7232dbe03de252ed35d284612cd2fb430a91fd1859877e8dd2dbd90ef",
        "witt_extend": "549f32b72eb3c2a543715904f2a3e70f8010cb9f4694c8dd6ca58dc8f7b64b10",
    },
    "gf:101": {
        "gram_schmidt_extend":
            "ffb2acd93b49457889915d675fd0e14586068e63d52d3591b0ca30460219528a",
        "normal_form": "53465acd5a21c07db8a03c76f53d1f289ba0bd8ef6446221c045d0a538f68026",
        "standard_isometry": "bace1bcda09008e18eee4264e97d7ab20457a2db26dd624f6cc924bf7b645829",
        "witt_extend": "03d4be0c43d61ccbfbb5d9138cf672eacd7fc5cf76176b0bbe9399963816804a",
    },
}


def _outputs(field, seed: int, count: int):
    """Per construction, the repr of its output (or its error code) on each
    form of the corpus, in order."""
    rng = Random(seed)
    out = {name: [] for name in DIGESTS["rationals"]}
    for i in range(count):
        space = SPACES[i % len(SPACES)]
        rank = (2, 4, 6, 8)[(i // len(SPACES)) % 4]
        module = FreeModule(space, field, rank)
        form = random_alternating_form(rng, module)
        target = random_alternating_form(rng, module)
        partial = random_partial_family(rng, form)
        basis = gram_schmidt_extend(form, partial)
        out["gram_schmidt_extend"].append(
            repr([sec.vectors for sec in basis.r + basis.s])
        )
        out["normal_form"].append(repr(normal_form(form)))
        out["standard_isometry"].append(repr(standard_isometry(form, target).matrices))
        # a Witt submodule: some r-sections and some whole pairs of the basis
        n = rank // 2
        picks = rng.sample(range(n), rng.randrange(1, n + 1))
        cut = rng.randrange(len(picks) + 1)
        sections = [basis.r[j] for j in picks[:cut]]
        for j in picks[cut:]:
            sections += [basis.r[j], basis.s[j]]
        f = span(module, sections)
        carrier = random_symplectic_isometry(rng, form, target)
        images = [carrier.apply(sec) for sec in f.global_basis()]
        try:
            out["witt_extend"].append(repr(witt_extend(form, target, f, images).matrices))
        except FreenessViolated as err:
            out["witt_extend"].append(err.code)
    return out


@pytest.mark.parametrize("field", [RationalField(), PrimeField(101)], ids=lambda f: f.name)
def test_symplectic_outputs_are_byte_identical(field):
    outputs = _outputs(field, seed=2024, count=24)
    got = {
        name: hashlib.sha256("\n".join(reprs).encode()).hexdigest()
        for name, reprs in outputs.items()
    }
    assert got == DIGESTS[field.name]


CALCULUS_DIGESTS = {
    "rationals": {
        "orthogonal": "45d6bd27c398573366c764ef17605189029ec89032723c5fb276bfd634b8345f",
        "sum_submodules": "31b2eae17216da40c6b03fa3ca5bc2a8bc5d48de81de0ab3c6aee494391db0c3",
        "intersect_submodules":
            "d023056fab081f888689741ef386e0632cbe909225c12c6ed91186b7c76f5210",
        "radical": "a86add517b80d879dca2d55f7f69abaf034825845a620558498fb67c88e33530",
        "project": "8edd99b05e42151202905d9d101eee4f2dcbd494859ed393b7ef6fd41b0bec74",
        "orthogonal_split": "579236345aa336547524a1fdf42a39e3fcc88f2ef11ff9af77d4785bb91d871a",
        "classify_orthosymmetry":
            "3c349e9b43271aa4fd942cfce8aa2ff04ae292d4b150990c814b7989f0cb108a",
    },
    "gf:10007": {
        "orthogonal": "502e005c91e3b8bfab40c21aaa901a37d3e5735669b94052783355b914ff203c",
        "sum_submodules": "a7337c1f1925f9427a0551ee266200ceedbc0d61bf7ef9ce13ea4041104cd41f",
        "intersect_submodules":
            "95801fd774cfec88f5a168990614586ac3d317b8409e1bd1b1a6128efdaa8812",
        "radical": "58148625c3855cef0b79a2cc4e97b3f99d1cc299167db8926bd4e5deeedc5e99",
        "project": "067d88e1456ad1eb4022f5b69e59ef330d4311a5ca33a09566ef3b89cfe1b67b",
        "orthogonal_split": "ba43174c4f2ff4cd41014ebc0768162d63bd541cbc37d40e7a25c2a7a6b3502b",
        "classify_orthosymmetry":
            "fd030283cfaefe5c772c66d7514373f2cb0161701033e4e58f6879786225cae5",
    },
}


def _general_form(rng, module):
    """A form whose Gram matrices are random: mostly neither symmetric nor
    alternating, so `classify_orthosymmetry` builds a witness."""
    field, n = module.field, module.rank
    return BilinearForm(module, tuple(
        tuple(tuple(field.random_scalar(rng) for _ in range(n)) for _ in range(n))
        for _ in module.x_components()
    ))


def _calculus_outputs(field, seed: int, count: int):
    """Per construction of the orthogonal calculus, the repr of its output on
    each item of the corpus, in order."""
    rng = Random(seed)
    out = {name: [] for name in (
        "orthogonal", "sum_submodules", "intersect_submodules", "radical",
        "project", "orthogonal_split", "classify_orthosymmetry",
    )}
    for i in range(count):
        space = SPACES[i % len(SPACES)]
        rank = (2, 3, 4, 5, 6)[(i // len(SPACES)) % 5]
        module = FreeModule(space, field, rank)
        form = random_orthosymmetric_form(rng, module)
        f = random_free_submodule(rng, module, rng.randrange(rank + 1))
        g = random_free_submodule(rng, module, rng.randrange(rank + 1))
        out["orthogonal"].append(
            repr([form.orthogonal(f).bases, form.orthogonal(g, "right").bases])
        )
        out["sum_submodules"].append(repr(sum_submodules(f, g).bases))
        out["intersect_submodules"].append(repr(intersect_submodules(f, g).bases))
        out["radical"].append(repr([form.radical(f).bases, form.radical().bases]))
        sym = random_orthosymmetric_form(rng, module, symmetric_only=True)
        h = random_nonisotropic_submodule(rng, sym, rng.randrange(1, rank + 1))
        if h is None:
            out["project"].append("None")
            out["orthogonal_split"].append("None")
        else:
            sections = [random_global_section(rng, module) for _ in range(2)]
            out["project"].append(repr([sym.project(h, t).vectors for t in sections]))
            split = sym.orthogonal_split(h)
            out["orthogonal_split"].append(repr([split.complement.bases, split.certificate]))
        cls = classify_orthosymmetry(_general_form(rng, module))
        witness = cls.witness and (cls.witness.open, cls.witness.r.vectors, cls.witness.s.vectors)
        out["classify_orthosymmetry"].append(repr([
            cls.per_component, cls.orthosymmetric, witness,
            classify_orthosymmetry(form).per_component,
        ]))
    return out


@pytest.mark.parametrize("field", [RationalField(), PrimeField(10007)], ids=lambda f: f.name)
def test_orthogonal_calculus_outputs_are_byte_identical(field):
    outputs = _calculus_outputs(field, seed=2025, count=30)
    got = {
        name: hashlib.sha256("\n".join(reprs).encode()).hexdigest()
        for name, reprs in outputs.items()
    }
    assert got == CALCULUS_DIGESTS[field.name]


# The conversions of the GF(10007) corpus above, items made and run, as
# `kernel_stats()` counts them: the calculus holds each submodule and form
# once and releases each output once. Converting at every call, as the
# public `linalg` routines do, moved 7,752 rows in and 14,677 entries out.
CALCULUS_ROWS_IN, CALCULUS_ENTRIES_OUT = 3_163, 8_873


def test_orthogonal_calculus_converts_at_most_the_pinned_rows():
    before = linalg.kernel_stats()
    _calculus_outputs(PrimeField(10007), seed=2025, count=30)
    after = linalg.kernel_stats()
    assert after["rows_in"] - before["rows_in"] <= CALCULUS_ROWS_IN
    assert after["entries_out"] - before["entries_out"] <= CALCULUS_ENTRIES_OUT
