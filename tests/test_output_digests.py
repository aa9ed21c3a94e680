"""Byte-identity of the symplectic constructions.

The completed bases of `gram_schmidt_extend`, the matrices of `normal_form`,
`standard_isometry` and `witt_extend` are unique given their inputs, so a
change to how the kernel holds entries must not change a single byte of
them. A seeded corpus over Q and over GF(101), ranks 2-8 on the three fixture
spaces, is digested by sha256 of the `repr` of the outputs; the digests were
recorded before the symplectic completion ran on held integer rows.
"""

import hashlib
from random import Random

import pytest

from sheafforms import (
    FreeModule,
    FreenessViolated,
    PrimeField,
    RationalField,
    gram_schmidt_extend,
    normal_form,
    span,
    standard_isometry,
    witt_extend,
)
from sheafforms.oracles import (
    discrete_pair_space,
    random_alternating_form,
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
