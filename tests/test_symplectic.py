"""Symplectic Gram-Schmidt, normal forms, envelopes, and Witt extension.

Expected values in the frozen tests were computed by hand from the matrix
conventions (rows are vectors, phi(u, v) = u G v^T) and double-checked by
direct evaluation.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from sheafforms import (
    BilinearForm,
    Degenerate,
    FreeModule,
    FreenessViolated,
    HyperbolicPlane,
    Isometry,
    IsometryHypothesisViolated,
    ModuleMismatch,
    ModuleSection,
    NotAlternating,
    NotTotallyIsotropic,
    OddRank,
    OpenMismatch,
    PartialFamily,
    PartialRelationsViolated,
    PartnerNotFound,
    PrimeField,
    RankMismatch,
    RationalField,
    SelfCheckFailed,
    SymplecticBasis,
    certify_basis,
    certify_envelope,
    classify_orthosymmetry,
    compose_isometries,
    from_rows,
    full_submodule,
    gram_schmidt_extend,
    hyperbolic_decomposition,
    hyperbolic_envelope,
    intersect_submodules,
    invert_isometry,
    normal_form,
    span,
    standard_alternating,
    standard_isometry,
    standard_symplectic_form,
    sum_submodules,
    validate_symplectic,
    witt_extend,
    zero_submodule,
)
from sheafforms import bilinear, linalg, symplectic
from sheafforms.oracles import (
    discrete_pair_space,
    random_alternating_form,
    random_global_section,
    random_partial_family,
    random_symplectic_isometry,
    random_totally_isotropic,
    sierpinski_space,
    three_point_space,
)

Q = RationalField()


def frac(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def form_on(space, *grams):
    module = FreeModule(space, Q, len(grams[0]))
    return BilinearForm(module, tuple(frac(g) for g in grams))


G4 = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]


class TestValidate:
    def test_not_alternating(self, sierpinski):
        with pytest.raises(NotAlternating):
            validate_symplectic(form_on(sierpinski, [[1, 0], [0, 1]]))

    def test_nonzero_diagonal_is_not_alternating(self, sierpinski):
        with pytest.raises(NotAlternating):
            validate_symplectic(form_on(sierpinski, [[1, 1], [-1, 0]]))

    def test_odd_rank(self, sierpinski):
        g = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
        with pytest.raises(OddRank):
            validate_symplectic(form_on(sierpinski, g))

    def test_degenerate(self, sierpinski):
        with pytest.raises(Degenerate) as err:
            validate_symplectic(form_on(sierpinski, [[0, 0], [0, 0]]))
        assert err.value.witness["component"] == 0

    def test_degenerate_on_second_component_only(self, discrete_pair):
        module = FreeModule(discrete_pair, Q, 2)
        good = frac([[0, 1], [-1, 0]])
        bad = frac([[0, 0], [0, 0]])
        form = BilinearForm(module, (good, bad))
        with pytest.raises(Degenerate) as err:
            validate_symplectic(form)
        assert err.value.message == "component 1: Gram matrix is singular"
        assert err.value.witness["component"] == 1
        assert not form.is_nondegenerate()

    def test_standard_alternating_refuses_odd_rank(self):
        # a raise, not an assert, so python -O does not turn it into IndexError
        with pytest.raises(OddRank):
            standard_alternating(3, Q)
        assert standard_alternating(2, Q) == frac([[0, 1], [-1, 0]])

    def test_standard_form_is_symplectic(self, discrete_pair):
        module = FreeModule(discrete_pair, Q, 6)
        validate_symplectic(standard_symplectic_form(module))

    @staticmethod
    def old_scan(form):
        """The scan before each skew pair was checked once: every (i, j)."""
        for c, g in enumerate(form.gram):
            for i in range(len(g)):
                if g[i][i] != 0:
                    raise NotAlternating(
                        f"component {c}: diagonal entry {i} is non-zero", component=c
                    )
                for j in range(len(g)):
                    if g[i][j] != -g[j][i]:
                        raise NotAlternating(
                            f"component {c}: entry ({i},{j}) is not skew", component=c
                        )

    @pytest.mark.parametrize("field", [Q, PrimeField(5)], ids=["Q", "GF5"])
    def test_skew_pairs_checked_once_give_the_old_witness(self, field):
        rng = Random(71)
        space = discrete_pair_space()
        broken = 0
        for _ in range(150):
            rank = rng.choice((2, 4, 6))
            module = FreeModule(space, field, rank)
            form = random_alternating_form(rng, module)
            grams = [[list(row) for row in g] for g in form.gram]
            # break one to three entries, on the diagonal or off it
            for _ in range(rng.randrange(1, 4)):
                g = grams[rng.randrange(len(grams))]
                i, j = rng.randrange(rank), rng.randrange(rank)
                g[i][j] = g[i][j] + field.random_nonzero(rng)
            form = BilinearForm(module, tuple(tuple(map(tuple, g)) for g in grams))
            try:
                self.old_scan(form)
            except NotAlternating as exc:
                expected = exc
            else:
                continue
            broken += 1
            with pytest.raises(NotAlternating) as got:
                validate_symplectic(form)
            assert got.value.code == expected.code
            assert got.value.message == expected.message
            assert got.value.witness == expected.witness
        assert broken > 100


class TestGramSchmidt:
    def test_frozen_rank4_example(self, sierpinski):
        form = form_on(sierpinski, G4)
        basis = gram_schmidt_extend(form, PartialFamily.of())
        e = form.module.canonical_basis()
        assert basis.r[0] == e[0]
        assert basis.s[0] == Fraction(1, 2) * e[1]
        assert basis.r[1] == e[2]
        assert basis.s[1] == Fraction(1, 3) * e[3]
        assert certify_basis(form, basis)

    def test_empty_partial_on_standard_form(self, sierpinski):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        basis = gram_schmidt_extend(form, PartialFamily.of())
        assert basis.interleaved() == module.canonical_basis()

    def test_case2_matched_pairs_kept_verbatim(self, sierpinski):
        form = form_on(sierpinski, G4)
        e = form.module.canonical_basis()
        partial = PartialFamily.of(
            r={2: e[2]}, s={2: Fraction(1, 3) * e[3]}
        )
        basis = gram_schmidt_extend(form, partial)
        assert basis.r[1] == e[2]
        assert basis.s[1] == Fraction(1, 3) * e[3]
        assert certify_basis(form, basis, partial)

    def test_case3_single_r_completed(self, sierpinski):
        form = form_on(sierpinski, G4)
        e = form.module.canonical_basis()
        partial = PartialFamily.of(r={1: e[1]})  # e2 as r_1
        basis = gram_schmidt_extend(form, partial)
        assert basis.r[0] == e[1]
        assert form.evaluate(basis.r[0], basis.s[0]).values == (Fraction(1),)
        assert certify_basis(form, basis, partial)

    def test_case3_single_s_completed(self, sierpinski):
        form = form_on(sierpinski, G4)
        e = form.module.canonical_basis()
        partial = PartialFamily.of(s={2: e[0]})
        basis = gram_schmidt_extend(form, partial)
        assert basis.s[1] == e[0]
        assert certify_basis(form, basis, partial)

    def test_mixed_singles_and_pairs(self, discrete_pair):
        rng = Random(3)
        module = FreeModule(discrete_pair, Q, 6)
        form = random_alternating_form(rng, module)
        partial = random_partial_family(rng, form, config=({1, 2}, {2, 3}))
        basis = gram_schmidt_extend(form, partial)
        assert certify_basis(form, basis, partial)

    def test_all_small_configurations(self, sierpinski):
        rng = Random(17)
        module = FreeModule(sierpinski, Q, 4)
        form = random_alternating_form(rng, module)
        configs = [
            (set(), set()),
            ({1}, set()),
            (set(), {1}),
            ({1}, {1}),
            ({1, 2}, set()),
            ({1, 2}, {1}),
            ({1}, {2}),
            ({1, 2}, {1, 2}),
        ]
        for config in configs:
            partial = random_partial_family(rng, form, config=config)
            basis = gram_schmidt_extend(form, partial)
            assert certify_basis(form, basis, partial)

    def test_partial_relations_violated(self, sierpinski):
        module = FreeModule(sierpinski, Q, 2)
        form = standard_symplectic_form(module)
        e1, e2 = module.canonical_basis()
        with pytest.raises(PartialRelationsViolated):
            gram_schmidt_extend(form, PartialFamily.of(r={1: e1}, s={1: e1}))

    @pytest.mark.parametrize("r,s,pair,message", [
        ({1: 0, 2: 1}, {}, (("r", 1), ("r", 2)), "phi(r_1, r_2) != 0"),
        ({}, {1: 1, 2: 0}, (("s", 1), ("s", 2)), "phi(s_1, s_2) != 0"),
        ({1: 0}, {2: 1}, (("r", 1), ("s", 2)), "phi(r_1, s_2) != 0"),
        ({1: 0}, {1: "2e_2"}, (("r", 1), ("s", 1)), "phi(r_1, s_1) != 1"),
        # s-s is scanned before r-s, though phi(r_1, s_1) = 0 breaks too
        ({1: 0}, {1: 2, 2: 3}, (("s", 1), ("s", 2)), "phi(s_1, s_2) != 0"),
    ], ids=["r_r", "s_s", "r_s_off_diagonal", "r_s_not_one", "scan_order"])
    def test_first_broken_relation_is_the_witness(self, sierpinski, r, s, pair, message):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()

        def section(spec):
            return e[1] + e[1] if spec == "2e_2" else e[spec]

        partial = PartialFamily.of(
            {i: section(x) for i, x in r.items()}, {j: section(x) for j, x in s.items()}
        )
        with pytest.raises(PartialRelationsViolated) as err:
            gram_schmidt_extend(form, partial)
        assert err.value.witness["pair"] == pair
        assert str(err.value) == message

    def test_relation_broken_on_one_component(self, discrete_pair):
        module = FreeModule(discrete_pair, Q, 4)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        # s_1 is e_2 on component a and 2 e_2 on component b
        v_a, v_b = e[1].vectors
        s1 = ModuleSection(module, e[1].open, (v_a, linalg.add_vec(v_b, v_b)))
        with pytest.raises(PartialRelationsViolated) as err:
            gram_schmidt_extend(form, PartialFamily.of(r={1: e[0]}, s={1: s1}))
        assert err.value.witness["pair"] == (("r", 1), ("s", 1))

    def test_index_out_of_range(self, sierpinski):
        module = FreeModule(sierpinski, Q, 2)
        form = standard_symplectic_form(module)
        e1, _ = module.canonical_basis()
        with pytest.raises(PartialRelationsViolated):
            gram_schmidt_extend(form, PartialFamily.of(r={5: e1}))

    def test_vanishing_partial_section_rejected(self, discrete_pair):
        module = FreeModule(discrete_pair, Q, 2)
        form = standard_symplectic_form(module)
        # dies on component b, so not nowhere-zero, though also not zero
        vanishing = module.section(
            module.space.x_ref,
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
        )
        with pytest.raises(PartialRelationsViolated):
            gram_schmidt_extend(form, PartialFamily.of(r={1: vanishing}))

    def test_local_section_rejected(self, sierpinski):
        module = FreeModule(sierpinski, Q, 2)
        form = standard_symplectic_form(module)
        e1, _ = module.canonical_basis()
        local = e1.restrict(sierpinski.ref(("a",)))
        with pytest.raises(OpenMismatch):
            gram_schmidt_extend(form, PartialFamily.of(r={1: local}))

    def test_partner_not_found_for_dependent_singles(self, sierpinski):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        # r_1 = r_2: the relations hold, but no partner of r_1 can avoid r_2
        with pytest.raises(PartnerNotFound):
            gram_schmidt_extend(form, PartialFamily.of(r={1: e[0], 2: e[0]}))

    def test_random_forms_randomized_partials(self):
        rng = Random(23)
        for space in (sierpinski_space(), discrete_pair_space()):
            for rank in (2, 4, 6):
                module = FreeModule(space, Q, rank)
                form = random_alternating_form(rng, module)
                partial = random_partial_family(rng, form)
                basis = gram_schmidt_extend(form, partial)
                assert certify_basis(form, basis, partial)

    def test_gf5_forms(self):
        rng = Random(29)
        field = PrimeField(5)
        module = FreeModule(discrete_pair_space(), field, 4)
        form = random_alternating_form(rng, module)
        basis = gram_schmidt_extend(form, PartialFamily.of())
        assert certify_basis(form, basis)


class TestCertifyBasis:
    """certify_basis checks P^T G P == A_2n with P's columns r_1, s_1, ...,
    plus verbatim containment of the partial family."""

    def basis_of(self, space):
        form = random_alternating_form(Random(71), FreeModule(space, Q, 4))
        return form, gram_schmidt_extend(form, PartialFamily.of())

    def test_rejects_scaled_partner(self, discrete_pair):
        form, basis = self.basis_of(discrete_pair)
        scaled = SymplecticBasis(
            basis.module, basis.r, (Fraction(2) * basis.s[0],) + basis.s[1:]
        )
        assert not certify_basis(form, scaled)

    def test_rejects_swapped_pair(self, sierpinski):
        # phi(s_1, r_1) = -1: every pairwise zero still holds, the sign does not
        form, basis = self.basis_of(sierpinski)
        swapped = SymplecticBasis(
            basis.module,
            (basis.s[0],) + basis.r[1:],
            (basis.r[0],) + basis.s[1:],
        )
        assert not certify_basis(form, swapped)

    def test_rejects_partial_not_kept_verbatim(self, sierpinski):
        form, basis = self.basis_of(sierpinski)
        other = PartialFamily.of(r={1: Fraction(3) * basis.r[0]})
        assert certify_basis(form, basis, PartialFamily.of(r={1: basis.r[0]}))
        assert not certify_basis(form, basis, other)

    def test_rejects_short_basis(self, sierpinski):
        form, basis = self.basis_of(sierpinski)
        short = SymplecticBasis(basis.module, basis.r[:1], basis.s[:1])
        assert not certify_basis(form, short)


class TestNormalForm:
    def test_rank2_frozen(self, sierpinski):
        form = form_on(sierpinski, [[0, 2], [-2, 0]])
        (p,) = normal_form(form)
        assert p == frac([[1, 0], [0, Fraction(1, 2)]])

    def test_congruence_equation(self, discrete_pair):
        rng = Random(5)
        module = FreeModule(discrete_pair, Q, 4)
        form = random_alternating_form(rng, module)
        target = standard_alternating(4, Q)
        for p, g in zip(normal_form(form), form.gram):
            assert linalg.matmul(linalg.transpose(p), linalg.matmul(g, p)) == target

    def test_certified_through_its_basis(self, discrete_pair):
        form = random_alternating_form(Random(5), FreeModule(discrete_pair, Q, 4))
        mats = normal_form(form)
        # the columns of P are the basis of the empty family, interleaved
        basis = gram_schmidt_extend(form, PartialFamily.of())
        for c, p in enumerate(mats):
            assert linalg.transpose(tuple(sec.vectors[c] for sec in basis.interleaved())) == p
        assert certify_basis(form, basis)
        # P^T G P == A_2n is P as an isometry from the standard form
        standard = standard_symplectic_form(form.module)
        assert Isometry(standard, form, mats).holds()
        # doubling the column of s_1 breaks phi(r_1, s_1) = 1
        scaled = tuple(
            tuple(tuple(Fraction(2) * x if j == 1 else x for j, x in enumerate(row)) for row in p)
            for p in mats
        )
        assert not Isometry(standard, form, scaled).holds()

    def test_standard_form_gives_identity(self, sierpinski):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        for p in normal_form(form):
            assert p == linalg.identity(4, Q)


class TestStandardIsometry:
    def test_holds_and_acts(self, discrete_pair):
        rng = Random(7)
        module = FreeModule(discrete_pair, Q, 4)
        a = random_alternating_form(rng, module)
        b = random_alternating_form(rng, module)
        iso = standard_isometry(a, b)
        assert iso.holds()
        r = module.canonical_basis()[0]
        s = module.canonical_basis()[1]
        assert b.evaluate(iso.apply(r), iso.apply(s)) == a.evaluate(r, s)

    def test_rank_mismatch(self, sierpinski):
        a = standard_symplectic_form(FreeModule(sierpinski, Q, 2))
        b = standard_symplectic_form(FreeModule(sierpinski, Q, 4))
        with pytest.raises(RankMismatch):
            standard_isometry(a, b)

    def test_space_mismatch(self, sierpinski, discrete_pair):
        a = standard_symplectic_form(FreeModule(sierpinski, Q, 2))
        b = standard_symplectic_form(FreeModule(discrete_pair, Q, 2))
        with pytest.raises(ModuleMismatch):
            standard_isometry(a, b)

    def test_compose_and_invert(self, sierpinski):
        rng = Random(13)
        module = FreeModule(sierpinski, Q, 4)
        a = random_alternating_form(rng, module)
        b = random_alternating_form(rng, module)
        c = random_alternating_form(rng, module)
        ab = standard_isometry(a, b)
        bc = standard_isometry(b, c)
        ac = compose_isometries(ab, bc)
        assert ac.holds()
        back = invert_isometry(ab)
        assert back.holds()
        round_trip = compose_isometries(ab, back)
        for sec in module.canonical_basis():
            assert round_trip.apply(sec) == sec

    def test_invert_refuses_a_singular_matrix(self, discrete_pair):
        form = form_on(discrete_pair, [[0, 1], [-1, 0]], [[0, 1], [-1, 0]])
        iso = Isometry(form, form, (frac([[1, 0], [0, 1]]), frac([[0, 0], [0, 0]])))
        with pytest.raises(Degenerate) as err:
            invert_isometry(iso)
        assert err.value.witness == {"component": 1}

    def test_invert_refuses_a_singular_matrix_under_optimize_flag(self):
        # -O strips assert statements, so the refusal may not rest on one
        script = (
            "from fractions import Fraction\n"
            "from sheafforms import (Degenerate, FreeModule, Isometry, RationalField,\n"
            "    invert_isometry, standard_symplectic_form, validate_topology)\n"
            "space = validate_topology(('a',), [(), ('a',)])\n"
            "form = standard_symplectic_form(FreeModule(space, RationalField(), 2))\n"
            "zero = ((Fraction(0),) * 2,) * 2\n"
            "try:\n"
            "    invert_isometry(Isometry(form, form, (zero,)))\n"
            "except Degenerate as exc:\n"
            "    print(__debug__, exc.code, exc.witness)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False Degenerate {'component': 0}\n"

    def test_compose_requires_matching_forms(self, sierpinski):
        rng = Random(19)
        module = FreeModule(sierpinski, Q, 2)
        a = random_alternating_form(rng, module)
        b = random_alternating_form(rng, module)
        c = random_alternating_form(rng, module)
        ab = standard_isometry(a, b)
        ca = standard_isometry(c, a)
        with pytest.raises(ModuleMismatch):
            compose_isometries(ab, ca)


def spy(monkeypatch, name):
    """The argument tuples of every call of `linalg.<name>` from now on."""
    real = getattr(linalg, name)
    calls = []

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, name, recorded)
    return calls


class TestOneComposition:
    """Every isometry is composed once, in `_carry`, which reads P^-1 off the
    rows of P^T G that the congruence computed: it makes no product on a
    kept completion, and the random isometry multiplies no field elements
    and inverts no matrix of the module's rank."""

    @pytest.mark.parametrize("field", [Q, PrimeField(101)], ids=["Q", "GF101"])
    def test_standard_isometry_after_the_normal_forms_makes_no_product(
        self, field, discrete_pair, monkeypatch
    ):
        rng = Random(f"one-composition:{field}")
        module = FreeModule(discrete_pair, field, 6)
        source, target = random_alternating_form(rng, module), random_alternating_form(rng, module)
        normal_form(source)
        normal_form(target)
        products = spy(monkeypatch, "held_product")
        iso = standard_isometry(source, target)
        assert products == []
        assert iso.holds()

    @pytest.mark.parametrize("field", [Q, PrimeField(101)], ids=["Q", "GF101"])
    def test_random_isometry_multiplies_only_in_its_self_check(
        self, field, discrete_pair, monkeypatch
    ):
        rng = Random(f"one-composition:{field}")
        matmuls = spy(monkeypatch, "matmul")
        inverses = spy(monkeypatch, "inverse")
        for rank in (2, 4, 6):
            module = FreeModule(discrete_pair, field, rank)
            source, target = random_alternating_form(rng, module), random_alternating_form(rng, module)
            matmuls.clear()
            inverses.clear()
            iso = random_symplectic_isometry(rng, source, target)
            assert iso.holds()
            # its own `Isometry.holds()` pairs on held rows, as the draw does
            assert matmuls == []
            # only the half-rank matrix of a GL generator is inverted
            assert all(len(m) == rank // 2 for m, _ in inverses)


class TestDecomposition:
    def test_frozen_rank4_planes(self, sierpinski):
        form = form_on(sierpinski, G4)
        planes = hyperbolic_decomposition(form)
        assert len(planes) == 2
        e = form.module.canonical_basis()
        assert planes[0].span.contains(e[0]) and planes[0].span.contains(e[1])
        assert planes[1].span.contains(e[2]) and planes[1].span.contains(e[3])
        for i, plane in enumerate(planes):
            for other in planes[i + 1 :]:
                for x in (plane.r, plane.s):
                    for y in (other.r, other.s):
                        assert form.evaluate(x, y).is_zero()

    def test_dimensions_add_up(self, discrete_pair):
        rng = Random(37)
        module = FreeModule(discrete_pair, Q, 6)
        form = random_alternating_form(rng, module)
        planes = hyperbolic_decomposition(form)
        assert sum(p.span.dims[0] for p in planes) == 6
        assert all(p.span.dims == (2, 2) for p in planes)


class TestEnvelope:
    def test_frozen_standard_a4(self, sierpinski):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        f = span(module, [e[0], e[2]])
        planes = hyperbolic_envelope(form, f)
        assert len(planes) == 2
        assert planes[0].span.contains(e[0])
        assert planes[1].span.contains(e[2])
        for x in (planes[0].r, planes[0].s):
            for y in (planes[1].r, planes[1].s):
                assert form.evaluate(x, y).is_zero()
        assert certify_envelope(form, f, planes)

    def test_random_isotropics_certify(self):
        rng = Random(41)
        for space in (sierpinski_space(), discrete_pair_space()):
            for rank in (4, 6, 8):
                module = FreeModule(space, Q, rank)
                form = random_alternating_form(rng, module)
                for k in range(rank // 2 + 1):
                    f = random_totally_isotropic(rng, form, k)
                    planes = hyperbolic_envelope(form, f)
                    assert len(planes) == k
                    assert certify_envelope(form, f, planes)

    def test_degenerate_plane_span_rejected(self, sierpinski):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        f = span(module, [e[0]])
        (plane,) = hyperbolic_envelope(form, f)
        assert certify_envelope(form, f, [plane])
        # free of rank 2 and holding r_1, but the form vanishes on e_1, e_3
        flat = HyperbolicPlane(plane.r, plane.s, span(module, [e[0], e[2]]))
        assert certify_envelope(form, f, [flat]) is False

    def test_plane_span_without_partner_rejected(self, sierpinski):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        f = span(module, [e[0]])
        (plane,) = hyperbolic_envelope(form, f)
        # span(r_1, e_2 + e_3) is free of rank 2, non-degenerate and pairs
        # r_1 nowhere-zero, but it is not span(r_1, s_1)
        forged = span(module, [plane.r, e[1] + e[2]])
        assert not forged.contains(plane.s)
        assert not certify_envelope(form, f, [HyperbolicPlane(plane.r, plane.s, forged)])

    def test_not_totally_isotropic_rejected(self, sierpinski):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        with pytest.raises(NotTotallyIsotropic):
            hyperbolic_envelope(form, span(module, [e[0], e[1]]))

    def test_non_free_rejected(self, discrete_pair):
        module = FreeModule(discrete_pair, Q, 4)
        form = standard_symplectic_form(module)
        uneven = from_rows(
            module,
            (((Fraction(1), Fraction(0), Fraction(0), Fraction(0)),), ()),
        )
        with pytest.raises(FreenessViolated):
            hyperbolic_envelope(form, uneven)

    def test_a_second_envelope_converts_none_of_f_s_rows(self, sierpinski):
        # the isotropy check and the completion read the echelon rows f is,
        # so no envelope converts a row of f, the first one included
        module = FreeModule(sierpinski, Q, 6)
        form = random_alternating_form(Random(5), module)
        f = random_totally_isotropic(Random(6), form, 2)
        f = from_rows(module, f.bases)
        moved = []
        for _ in range(2):
            before = linalg.kernel_stats()["rows_in"]
            hyperbolic_envelope(form, f)
            moved.append(linalg.kernel_stats()["rows_in"] - before)
        assert moved == [0, 0]


def hyperbolic_mix_submodule(rng, form, iso_count, hyp_count):
    basis = gram_schmidt_extend(form, PartialFamily.of())
    n = form.module.rank // 2
    picks = rng.sample(range(n), iso_count + hyp_count)
    sections = [basis.r[i] for i in picks[:iso_count]]
    for i in picks[iso_count:]:
        sections.append(basis.r[i])
        sections.append(basis.s[i])
    return span(form.module, sections)


class TestWitt:
    def run_instance(self, rng, space, rank, iso_count, hyp_count):
        module = FreeModule(space, Q, rank)
        source = random_alternating_form(rng, module)
        target = random_alternating_form(rng, module)
        f = hyperbolic_mix_submodule(rng, source, iso_count, hyp_count)
        carrier = random_symplectic_isometry(rng, source, target)
        fb = f.global_basis()
        images = [carrier.apply(sec) for sec in fb]
        iso = witt_extend(source, target, f, images)
        assert iso.holds()
        for sec, image in zip(fb, images):
            assert iso.apply(sec) == image
        # pairings preserved on arbitrary sections too
        for _ in range(3):
            from sheafforms.oracles import random_global_section

            u = random_global_section(rng, module)
            v = random_global_section(rng, module)
            assert target.evaluate(iso.apply(u), iso.apply(v)) == source.evaluate(u, v)

    def test_totally_isotropic_case(self):
        rng = Random(43)
        self.run_instance(rng, sierpinski_space(), 4, 2, 0)
        self.run_instance(rng, discrete_pair_space(), 6, 2, 0)

    def test_hyperbolic_subsum_case(self):
        rng = Random(47)
        self.run_instance(rng, sierpinski_space(), 4, 0, 1)
        self.run_instance(rng, discrete_pair_space(), 6, 0, 2)

    def test_mixed_radical_case(self):
        rng = Random(53)
        self.run_instance(rng, sierpinski_space(), 6, 1, 1)
        self.run_instance(rng, discrete_pair_space(), 8, 2, 1)

    def test_empty_submodule_case(self):
        rng = Random(59)
        self.run_instance(rng, sierpinski_space(), 4, 0, 0)

    def test_full_lagrangian_case(self):
        rng = Random(61)
        self.run_instance(rng, sierpinski_space(), 4, 2, 0)

    def lagrangian_instance(self):
        rng = Random(43)
        module = FreeModule(sierpinski_space(), Q, 4)
        source = random_alternating_form(rng, module)
        target = random_alternating_form(rng, module)
        f = hyperbolic_mix_submodule(rng, source, 2, 0)
        carrier = random_symplectic_isometry(rng, source, target)
        return source, target, f, [carrier.apply(sec) for sec in f.global_basis()]

    def test_certificate_checks_agreement_with_sigma(self):
        source, target, f, images = self.lagrangian_instance()
        iso = witt_extend(source, target, f, images)
        assert symplectic.certify_witt(iso, f, images)
        assert not symplectic.certify_witt(iso, f, images[::-1])
        assert not symplectic.certify_witt(iso, f, images[:1])

    def test_too_few_matrices_are_no_isometry(self, discrete_pair):
        # one square matrix of the module's rank per component, or no
        # isometry: zipping matrices against components accepted these
        module = FreeModule(discrete_pair, Q, 4)
        form = standard_symplectic_form(module)
        ident = linalg.identity(4, Q)
        assert Isometry(form, form, (ident, ident)).holds()
        nothing = span(module, [])
        for matrices in ((), (ident,), (ident, ident[:2]), (ident, tuple(r[:2] for r in ident))):
            forged = Isometry(form, form, matrices)
            assert not forged.holds()
            assert not symplectic.certify_witt(forged, nothing, ())

    def test_malformed_matrices_raise_named_errors(self, discrete_pair):
        # compose, invert and apply require what `holds` requires: one square
        # matrix of the module's rank per component
        module = FreeModule(discrete_pair, Q, 4)
        form = standard_symplectic_form(module)
        ident = linalg.identity(4, Q)
        good = Isometry(form, form, (ident, ident))
        sec = module.canonical_basis()[0]
        cases = [
            ((), ModuleMismatch),
            ((ident,), ModuleMismatch),
            ((ident, ident[:2]), RankMismatch),
            ((ident, tuple(r[:2] for r in ident)), RankMismatch),
        ]
        for matrices, error in cases:
            forged = Isometry(form, form, matrices)
            with pytest.raises(error):
                compose_isometries(forged, good)
            with pytest.raises(error):
                compose_isometries(good, forged)
            with pytest.raises(error):
                invert_isometry(forged)
            with pytest.raises(error):
                forged.apply(sec)
        assert compose_isometries(good, good).matrices == (ident, ident)
        assert invert_isometry(good).matrices == (ident, ident)
        assert good.apply(sec) == sec

    def test_false_certificate_raises(self, monkeypatch):
        # a raise, not an assert: the self-check holds under python -O; the
        # completion checks its congruence on the rows it holds
        source, target, f, images = self.lagrangian_instance()
        monkeypatch.setattr(symplectic, "_congruent", lambda form, gram_cols, rows: None)
        with pytest.raises(SelfCheckFailed):
            witt_extend(source, target, f, images)

    def test_built_on_completions_alone(self, monkeypatch):
        # the two certified completions decide the result: witt_extend needs
        # neither certify_witt nor Isometry.holds, and it works out rad f
        # from the Gram matrix of f it compares, not through the orthogonal
        # calculus, and builds no auxiliary form
        source, target, f, images = self.lagrangian_instance()

        def refuse(*args, **kwargs):
            raise AssertionError("witt_extend re-checked its result")

        seen = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                seen.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(symplectic, "certify_witt", refuse)
        monkeypatch.setattr(symplectic.Isometry, "holds", refuse)
        for owner, name in [
            (BilinearForm, "orthogonal"), (BilinearForm, "radical"),
            (BilinearForm, "__post_init__"), (bilinear, "classify_orthosymmetry"),
            (linalg, "vec_mat"),
        ]:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        iso = witt_extend(source, target, f, images)
        monkeypatch.undo()
        assert seen == []
        assert symplectic.certify_witt(iso, f, images)

    def test_sigma_outside_f_raises_under_optimize_flag(self):
        # a raise, not an assert: sigma refuses a row it cannot express over
        # f under python -O too. f is a hyperbolic plane, so its pairs of g
        # are read off f's basis (the radical's coordinates are known)
        script = (
            "from sheafforms import (FreeModule, RationalField, SelfCheckFailed, linalg,\n"
            "    span, standard_symplectic_form, validate_topology, witt_extend)\n"
            "space = validate_topology(('a',), [(), ('a',)])\n"
            "form = standard_symplectic_form(FreeModule(space, RationalField(), 2))\n"
            "e = form.module.canonical_basis()\n"
            "f = span(form.module, [e[0], e[1]])\n"
            "print(witt_extend(form, form, f, [e[0], e[1]]).holds())\n"
            "linalg.held_coordinates = lambda *args: None\n"
            "try:\n"
            "    witt_extend(form, form, f, [e[0], e[1]])\n"
            "except SelfCheckFailed as exc:\n"
            "    print(__debug__, exc)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\nFalse sigma was applied to a section outside f\n"

    def test_sigma_must_preserve_pairings(self, sierpinski):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        f = span(module, [e[0], e[1]])
        # swap breaks the pairing sign
        images = [e[1], e[0]]
        with pytest.raises(IsometryHypothesisViolated) as err:
            witt_extend(form, form, f, images)
        assert err.value.witness["pair"] == (0, 1)

    def test_sigma_must_be_injective(self, sierpinski):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        f = span(module, [e[0], e[2]])  # isotropic, so pairings are all zero
        images = [e[0], e[0]]  # collapses, yet preserves the (zero) pairings
        with pytest.raises(IsometryHypothesisViolated):
            witt_extend(form, form, f, images)

    def test_wrong_image_count(self, sierpinski):
        module = FreeModule(sierpinski, Q, 4)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        f = span(module, [e[0]])
        with pytest.raises(IsometryHypothesisViolated):
            witt_extend(form, form, f, [e[0], e[2]])

    def test_non_free_submodule_gated(self, discrete_pair):
        module = FreeModule(discrete_pair, Q, 2)
        form = standard_symplectic_form(module)
        uneven = from_rows(
            module, (((Fraction(1), Fraction(0)),), ())
        )
        with pytest.raises(FreenessViolated):
            witt_extend(form, form, uneven, [])

    def test_rank_mismatch(self, sierpinski):
        a = standard_symplectic_form(FreeModule(sierpinski, Q, 2))
        b = standard_symplectic_form(FreeModule(sierpinski, Q, 4))
        f = span(a.module, [])
        with pytest.raises(RankMismatch):
            witt_extend(a, b, f, [])

    def test_radical_must_be_free(self, discrete_pair):
        # f = span(e_1, e_2) is a hyperbolic plane under A_4 on `a` and its
        # own radical where e_1 pairs with e_3 and e_2 with e_4 (on `b`)
        module = FreeModule(discrete_pair, Q, 4)
        crossed = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        form = BilinearForm(module, (standard_alternating(4, Q), frac(crossed)))
        e = module.canonical_basis()
        f = span(module, [e[0], e[1]])
        with pytest.raises(FreenessViolated) as err:
            witt_extend(form, form, f, f.global_basis())
        assert err.value.message == "radical component dimensions differ: (0, 2)"
        assert err.value.witness == {"dims": (0, 2)}

    def test_rows_converted_by_one_extension(self, monkeypatch):
        # fresh forms and a fresh f on a rank-8 instance, f of rank 4 with
        # one hyperbolic pair and a radical of rank 2. The rows converted:
        # both Gram matrices (16) and the images (4); f is its held rows. The
        # complement of rad f in f, the pair of g, the radical and the
        # images of the family stay held, and their relations hold by
        # construction, so none is checked; A_2 for the pair of g, and per
        # completion the identity and A_8, are held straight from ints. The
        # entries built are those of the result, 8 x 8
        def refuse(*args):
            raise AssertionError("the relations of the family were checked")

        monkeypatch.setattr(symplectic, "_check_partial_relations", refuse)
        rng = Random(71)
        module = FreeModule(three_point_space(), Q, 8)
        source = random_alternating_form(rng, module)
        target = random_alternating_form(rng, module)
        f = hyperbolic_mix_submodule(rng, source, 2, 1)
        carrier = random_symplectic_isometry(rng, source, target)
        images = [carrier.apply(sec) for sec in f.global_basis()]
        source, target = BilinearForm(module, source.gram), BilinearForm(module, target.gram)
        f = from_rows(module, f.bases)
        before = linalg.kernel_stats()
        iso = witt_extend(source, target, f, images)
        after = linalg.kernel_stats()
        moved = {key: after[key] - before[key] for key in ("rows_in", "entries_out")}
        assert moved == {"rows_in": 20, "entries_out": 64}
        assert after["eliminations"] - before["eliminations"] == 16
        monkeypatch.undo()
        assert symplectic.certify_witt(iso, f, images)

    def test_broken_pairing_witness(self, discrete_pair):
        # the image of e_2 picks up e_0 on the second component only, so
        # phi(e_1, e_2) changes there and (1, 2) is the first broken pair
        module = FreeModule(discrete_pair, Q, 6)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        f = span(module, [e[0], e[1], e[2]])
        v0, v1 = e[2].vectors
        broken = ModuleSection(
            module, e[2].open, (v0, linalg.add_vec(v1, e[0].vectors[1]))
        )
        with pytest.raises(IsometryHypothesisViolated) as err:
            witt_extend(form, form, f, [e[0], e[1], broken])
        assert err.value.witness["pair"] == (1, 2)


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "GF7"])
def test_certificates_answer_false_on_a_submodule_that_is_not_free(field, discrete_pair):
    # dims (1, 0) give no global basis: the certificates said NotFree
    module = FreeModule(discrete_pair, field, 2)
    form = standard_symplectic_form(module)
    uneven = from_rows(module, (((field.one, field.zero),), ()))
    assert uneven.dims == (1, 0)
    ident = linalg.identity(2, field)
    assert certify_envelope(form, uneven, []) is False
    assert symplectic.certify_witt(Isometry(form, form, (ident, ident)), uneven, []) is False


def ref_g_pairs(source, f):
    """The symplectic pairs of g as witt_extend found them before it worked
    in f's coordinates: rad f through the orthogonal calculus, the rows of
    f that complement it, the completion of the empty family on an
    auxiliary form with the restricted Gram matrices, lifted by vec_mat."""
    module, field = source.module, source.module.field
    rad = source.radical(f)
    g_rows = [linalg.complement_rows(rb, fb, field) for rb, fb in zip(rad.bases, f.bases)]
    if not g_rows[0]:
        return []
    restricted = tuple(
        linalg.matmul(rows, linalg.matmul(g, linalg.transpose(rows)))
        for rows, g in zip(g_rows, source.gram)
    )
    g_form = BilinearForm(FreeModule(module.space, field, len(g_rows[0])), restricted)
    g_basis = symplectic._extend(g_form, PartialFamily.of())[0]

    def lift(sec):
        return symplectic._glue(module, map(linalg.vec_mat, sec.vectors, g_rows))

    return [(lift(r), lift(s)) for r, s in zip(g_basis.r, g_basis.s)]


class TestPairsOfG:
    """The pairs of g come from one completion run inside g's rows of f's
    echelon basis; they are the rows the auxiliary form gave, lifted."""

    @pytest.mark.parametrize(
        "field", [Q, PrimeField(7), PrimeField(101)], ids=["Q", "GF7", "GF101"]
    )
    @pytest.mark.parametrize(
        "iso_count, hyp_count", [(2, 0), (0, 2), (1, 1), (2, 1)],
        ids=["isotropic", "hyperbolic", "mixed", "mixed_wide"],
    )
    def test_match_the_auxiliary_form(self, field, iso_count, hyp_count, monkeypatch):
        rng = Random(f"g-pairs:{field}:{iso_count}:{hyp_count}")
        real = symplectic._complete
        found = []

        def recording(form, rs, ss, start=None):
            rows, pg = real(form, rs, ss, start=start)
            if start is not None:
                vectors = [linalg.release(p, field) for p in rows]
                sections = [symplectic._glue(form.module, v) for v in zip(*vectors)]
                found.append(list(zip(sections[0::2], sections[1::2])))
            return rows, pg

        monkeypatch.setattr(symplectic, "_complete", recording)
        for space in (sierpinski_space(), discrete_pair_space()):
            module = FreeModule(space, field, 8)
            source = random_alternating_form(rng, module)
            target = random_alternating_form(rng, module)
            f = hyperbolic_mix_submodule(rng, source, iso_count, hyp_count)
            carrier = random_symplectic_isometry(rng, source, target)
            images = [carrier.apply(sec) for sec in f.global_basis()]
            found.clear()
            iso = witt_extend(source, target, f, images)
            assert symplectic.certify_witt(iso, f, images)
            expected = ref_g_pairs(source, f)
            assert len(expected) == hyp_count
            assert found == [expected]


class TestValidateOnce:
    """Forms are validated at the public entry point only; the helpers the
    constructions share do not validate again."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = symplectic.validate_symplectic

        def counting(form):
            seen.append(form)
            return original(form)

        monkeypatch.setattr(symplectic, "validate_symplectic", counting)
        return seen

    def forms(self, space):
        rng = Random(83)
        module = FreeModule(space, Q, 6)
        return random_alternating_form(rng, module), random_alternating_form(rng, module)

    def test_gram_schmidt_extend_validates_once(self, calls, sierpinski):
        form, _ = self.forms(sierpinski)
        gram_schmidt_extend(form, PartialFamily.of())
        assert len(calls) == 1

    def test_normal_form_validates_once(self, calls, sierpinski):
        form, _ = self.forms(sierpinski)
        normal_form(form)
        assert len(calls) == 1

    def test_standard_isometry_validates_each_form_once(self, calls, sierpinski):
        source, target = self.forms(sierpinski)
        standard_isometry(source, target)
        assert calls == [source, target]

    def test_witt_extend_validates_each_form_once(self, calls, sierpinski):
        # f = span(e_1) is its own radical: the partial family r_1 = e_1 is
        # completed on both forms, and neither completion validates again
        module = FreeModule(sierpinski, Q, 6)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        iso = witt_extend(form, form, span(module, [e[0]]), [e[0]])
        assert iso.holds()
        assert calls == [form, form]

    def test_hyperbolic_envelope_validates_once(self, calls, sierpinski):
        module = FreeModule(sierpinski, Q, 6)
        form = standard_symplectic_form(module)
        e = module.canonical_basis()
        assert len(hyperbolic_envelope(form, span(module, [e[0], e[2]]))) == 2
        assert calls == [form]

    def test_hyperbolic_decomposition_validates_once(self, calls, sierpinski):
        form, _ = self.forms(sierpinski)
        assert len(hyperbolic_decomposition(form)) == 3
        assert calls == [form]


# -- the ambient step -----------------------------------------------------------


def ref_project_rows_away(field, grams, rows_per_comp, pairs):
    """The ambient step as it ran before it worked in echelon coordinates:
    the image of each held row under z -> z + sum_i phi(z, r_i) s_i -
    phi(z, s_i) r_i, echelonized per component. For pairs with phi(r_i, s_i)
    = 1 satisfying the pairing relations this projects onto the orthogonal
    complement of their span."""
    out = []
    for c, rows in enumerate(rows_per_comp):
        g, cols = grams[c]
        rs = tuple(r[c] for r, _ in pairs)
        ss = tuple(s[c] for _, s in pairs)
        tg = linalg.held_product(rs, g, field) + linalg.held_product(ss, cols, field)
        coeffs = linalg.held_product(rows, tg, field)
        shift = linalg.held_product(coeffs, linalg.held_transpose(ss + rs, field), field)
        moved = map(linalg.add_vec, linalg.release(rows, field), linalg.release(shift, field))
        out.append(linalg.held_rref(linalg.hold(tuple(moved), field), field)[0])
    return out


def ref_orthogonal_rows(field, grams, rows_per_comp, avoid):
    """The partner search's constrained rows as they were found before: the
    nullspace of the pairings, times the rows, echelonized again."""
    out = []
    for c, amb in enumerate(rows_per_comp):
        cols = grams[c][1]
        stacked = tuple(a[c] for a in avoid)
        coeffs = linalg.held_nullspace(
            symplectic._pairings(stacked, amb, cols, field), len(amb), field
        )
        product = linalg.held_product(coeffs, linalg.held_transpose(amb, field), field)
        out.append(linalg.held_rref(product, field)[0] if coeffs else ())
    return out


class TestAmbientStep:
    """The ambient complement shrinks in echelon coordinates: C amb, with C
    the echelon nullspace of the pairings, is the echelon basis the old
    projection and elimination gave, held row for held row."""

    CONFIGS = [
        (set(), set()),
        ({1}, {1}),
        ({1, 3}, {1, 3}),
        ({2}, set()),
        (set(), {2}),
        ({1}, {2}),
        ({1, 2}, {3}),
        ({1, 2}, {1, 3}),
    ]

    @pytest.mark.parametrize(
        "field", [Q, PrimeField(7), PrimeField(101)], ids=["Q", "GF7", "GF101"]
    )
    def test_matches_projection_then_elimination(self, field, monkeypatch):
        rng = Random(f"ambient:{field}")
        seen = {"_complete": 0, "_partner": 0}
        real = symplectic._shrink

        def checked(fld, grams, ambient, sections):
            out = real(fld, grams, ambient, sections)
            caller = sys._getframe(1).f_code.co_name
            seen[caller] += bool(sections)
            if caller == "_complete":
                # r_1..r_k then s_1..s_k: the pairs fixed at this step
                k = len(sections) // 2
                pairs = list(zip(sections[:k], sections[k:]))
                expected = ref_project_rows_away(fld, grams, ambient, pairs) if pairs else ambient
            else:
                expected = (
                    ref_orthogonal_rows(fld, grams, ambient, sections) if sections else ambient
                )
            assert list(out) == list(expected)
            return out

        monkeypatch.setattr(symplectic, "_shrink", checked)
        for space in (sierpinski_space(), discrete_pair_space()):
            module = FreeModule(space, field, 6)
            for config in self.CONFIGS:
                form = random_alternating_form(rng, module)
                partial = random_partial_family(rng, form, config=config)
                basis = gram_schmidt_extend(form, partial)
                assert certify_basis(form, basis, partial)
        assert seen["_complete"] > 0 and seen["_partner"] > 0

    def test_wrong_ambient_size_raises_under_optimize_flag(self):
        # -O strips assert statements: a completion whose ambient complement
        # has lost a row must still refuse to go on
        script = (
            "from sheafforms import (FreeModule, PartialFamily, RationalField,\n"
            "    SelfCheckFailed, gram_schmidt_extend, standard_symplectic_form,\n"
            "    validate_topology)\n"
            "from sheafforms import symplectic\n"
            "real = symplectic._shrink\n"
            "symplectic._shrink = lambda *args: [amb[:-1] for amb in real(*args)]\n"
            "space = validate_topology(('a',), [(), ('a',)])\n"
            "form = standard_symplectic_form(FreeModule(space, RationalField(), 4))\n"
            "try:\n"
            "    gram_schmidt_extend(form, PartialFamily.of())\n"
            "except SelfCheckFailed as exc:\n"
            "    print(__debug__, exc)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "False component 0: the ambient complement has 3 rows, not 4\n"
        )


class TestWhatAFormKeeps:
    """A symplectic form keeps its passed validation and the completion of
    the empty family; a failed validation is never kept."""

    @staticmethod
    def moved(before, after, what):
        return (after[f"{what}_hits"] - before[f"{what}_hits"],
                after[f"{what}_misses"] - before[f"{what}_misses"])

    def test_normal_form_and_standard_isometry_share_one_completion(self, discrete_pair):
        rng = Random(29)
        module = FreeModule(discrete_pair, Q, 6)
        form, target = random_alternating_form(rng, module), random_alternating_form(rng, module)
        before = bilinear.form_memo_stats()
        mats = normal_form(form)
        middle = bilinear.form_memo_stats()
        iso = standard_isometry(form, target)
        after = bilinear.form_memo_stats()
        assert self.moved(before, middle, "completion") == (0, 1)
        # the form's completion is a hit; the target's is its own miss
        assert self.moved(middle, after, "completion") == (1, 1)
        assert self.moved(before, middle, "symplectic") == (0, 1)
        assert self.moved(middle, after, "symplectic") == (1, 1)
        assert iso.holds()
        # the kept completion is the one an equal form completes afresh
        assert mats == normal_form(BilinearForm(module, form.gram))
        before = bilinear.form_memo_stats()
        planes = hyperbolic_decomposition(form)
        assert self.moved(before, bilinear.form_memo_stats(), "completion") == (1, 0)
        assert Isometry(standard_symplectic_form(module), form, mats).holds()
        # plane i holds the columns 2i and 2i + 1 of P on every component
        assert all(p.r.open == p.s.open == module.space.x_ref for p in planes)
        cols = [linalg.transpose(p) for p in mats]
        assert [(p.r.vectors, p.s.vectors) for p in planes] == [
            (tuple(c[2 * i] for c in cols), tuple(c[2 * i + 1] for c in cols)) for i in range(3)
        ]

    @pytest.mark.parametrize("grams, error", [
        ([[[0, 1], [1, 0]]], NotAlternating),
        ([[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], OddRank),
        ([[[0, 0], [0, 0]]], Degenerate),
    ])
    def test_a_failed_validation_is_never_kept(self, sierpinski, grams, error):
        form = form_on(sierpinski, *grams)
        raised = []
        for _ in range(3):
            before = bilinear.form_memo_stats()
            with pytest.raises(error) as err:
                normal_form(form)
            assert self.moved(before, bilinear.form_memo_stats(), "symplectic") == (0, 1)
            raised.append((err.value.code, err.value.message, err.value.witness))
            assert "symplectic" not in form._memo and "completion" not in form._memo
        assert raised == [raised[0]] * 3

    def test_every_kept_fact_is_counted(self, discrete_pair):
        # every public operation on one symplectic form, which is
        # orthosymmetric too, and on its submodules; afterwards each fact a
        # form keeps has its `{fact}_hits` and `{fact}_misses` in
        # `form_memo_stats()`, and a submodule keeps nothing beside its
        # value, its module and held rows, and the `bases` released from them
        rng = Random(37)
        module = FreeModule(discrete_pair, Q, 4)
        form, other = random_alternating_form(rng, module), random_alternating_form(rng, module)
        t = random_global_section(rng, module)
        validate_symplectic(form)
        basis = gram_schmidt_extend(form, PartialFamily.of())
        assert certify_basis(form, basis)
        r, s = basis.r[0], basis.s[0]
        line, plane = span(module, [r]), span(module, [r, s])
        assert classify_orthosymmetry(form).orthosymmetric and form.is_nondegenerate()
        assert form.evaluate(r, s).is_nowhere_zero()
        assert form.adjoint(r, "right").apply(s) == form.evaluate(r, s)
        split = form.orthogonal_split(plane)
        assert plane.contains(form.project(plane, t))
        subs = [
            line, plane, full_submodule(module), zero_submodule(module),
            form.orthogonal(line), form.orthogonal(line, "right"), form.radical(),
            form.radical(plane), sum_submodules(line, plane), intersect_submodules(line, plane),
            split.submodule, split.complement,
        ]
        normal_form(form)
        iso = standard_isometry(form, other)
        assert iso.holds() and invert_isometry(iso).holds()
        assert compose_isometries(iso, invert_isometry(iso)).holds()
        planes = hyperbolic_decomposition(form)
        envelope = hyperbolic_envelope(form, line)
        assert certify_envelope(form, line, envelope)
        images = [iso.apply(sec) for sec in line.global_basis()]
        assert symplectic.certify_witt(witt_extend(form, other, line, images), line, images)
        subs += [p.span for p in planes + envelope]

        stats = bilinear.form_memo_stats()
        kept = set()
        for b in (form, other):
            for fact in b._memo:
                assert {f"{fact}_hits", f"{fact}_misses"} <= set(stats)
                kept.add(fact)
        assert kept == {"gram", "class", "symplectic", "completion", "projector"}
        for sub in subs:
            sub.contains(t)
            assert set(vars(sub)) <= {"module", "_rows", "bases"}
