"""Bilinear forms: evaluation, adjoints, orthogonals, radicals, projection,
splitting, and the orthosymmetry classifier with its enumeration oracles."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from sheafforms import (
    BilinearForm,
    FreeModule,
    Isometry,
    IsotropicSubmodule,
    ModuleSection,
    NotOrthosymmetric,
    OpenMismatch,
    PrimeField,
    RationalField,
    SelfCheckFailed,
    classify_orthosymmetry,
    from_rows,
    full_submodule,
    intersect_submodules,
    span,
    standard_isometry,
    sum_submodules,
    zero_submodule,
)
from sheafforms import bilinear, linalg
from sheafforms.oracles import (
    discrete_pair_space,
    fixture_spaces,
    orthosymmetric_by_counting,
    orthosymmetric_by_literal_enumeration,
    random_alternating_form,
    random_free_submodule,
    random_global_section,
    random_nonisotropic_submodule,
    random_orthosymmetric_form,
    random_section_over,
    sierpinski_space,
)

Q = RationalField()
F3 = PrimeField(3)


def frac(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def form_on(space, *component_grams, rank=None):
    rank = rank if rank is not None else len(component_grams[0])
    module = FreeModule(space, Q, rank)
    return BilinearForm(module, tuple(frac(g) for g in component_grams))


@pytest.fixture
def symplectic2(sierpinski):
    return form_on(sierpinski, [[0, 1], [-1, 0]])


@pytest.fixture
def diag2(sierpinski):
    return form_on(sierpinski, [[1, 0], [0, 1]])


def test_evaluate_is_bilinear(symplectic2):
    module = symplectic2.module
    e1, e2 = module.canonical_basis()
    val = symplectic2.evaluate(e1, e2)
    assert val.values == (Fraction(1),)
    assert symplectic2.evaluate(e2, e1).values == (Fraction(-1),)
    assert symplectic2.evaluate(e1 + e2, e2).values == (Fraction(1),)
    assert symplectic2.evaluate(Fraction(3) * e1, e2).values == (Fraction(3),)


def test_evaluate_requires_matching_opens(symplectic2):
    module = symplectic2.module
    e1, e2 = module.canonical_basis()
    small = e2.restrict(module.space.ref(("a",)))
    with pytest.raises(OpenMismatch):
        symplectic2.evaluate(e1, small)


def test_evaluate_commutes_with_restriction(discrete_pair):
    form = form_on(discrete_pair, [[0, 1], [-1, 0]], [[2, 0], [0, 3]])
    rng = Random(5)
    r = random_global_section(rng, form.module)
    s = random_global_section(rng, form.module)
    v = discrete_pair.ref(("b",))
    assert form.evaluate(r, s).restrict(v) == form.evaluate(r.restrict(v), s.restrict(v))


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=lambda f: f.name)
def test_a_rank_0_module_pairs_to_the_field_s_zero(discrete_pair, field):
    # sections of no entries pair to the field's own zero on every
    # component, which the field formats; a held product of rows of no
    # entries is a held zero matrix, over Q as over GF(p)
    module = FreeModule(discrete_pair, field, 0)
    form = BilinearForm(module, ((), ()))
    zero = module.zero_section(discrete_pair.x_ref)
    for value in (form.evaluate(zero, zero), form.adjoint(zero, "left").apply(zero)):
        assert value.values == (field.zero, field.zero)
        assert all(type(x) is type(field.zero) for x in value.values)
        assert [field.format(x) for x in value.values] == [field.format(field.zero)] * 2
    assert form.is_nondegenerate()
    empty = linalg.hold(((), ()), field)
    product = linalg.held_product(empty, linalg.hold(((),) * 3, field), field)
    assert linalg.release(product, field) == ((field.zero,) * 3,) * 2


def test_adjoint_frozen_values(symplectic2):
    module = symplectic2.module
    e1, _ = module.canonical_basis()
    left = symplectic2.adjoint(e1, side="left")
    right = symplectic2.adjoint(e1, side="right")
    assert left.covectors == ((Fraction(0), Fraction(-1)),)
    assert right.covectors == ((Fraction(0), Fraction(1)),)


def test_adjoint_naturality(symplectic2):
    # the covector of t applied to s equals phi(s, t) / phi(t, s)
    module = symplectic2.module
    rng = Random(7)
    for _ in range(20):
        t = random_global_section(rng, module)
        s = random_global_section(rng, module)
        assert symplectic2.adjoint(t, side="left").apply(s) == symplectic2.evaluate(s, t)
        assert symplectic2.adjoint(t, side="right").apply(s) == symplectic2.evaluate(t, s)


def test_adjoint_kernel_is_orthogonal_of_everything(diag2):
    module = diag2.module
    perp = diag2.orthogonal(full_submodule(module))
    assert perp.dims == (0,)


def test_orthogonal_frozen_example(diag2):
    module = diag2.module
    e1, _ = module.canonical_basis()
    f = span(module, [e1])
    perp = diag2.orthogonal(f)
    assert perp.bases[0] == ((Fraction(0), Fraction(1)),)


def test_left_right_orthogonals_differ_for_asymmetric_form(sierpinski):
    form = form_on(sierpinski, [[1, 1], [0, 1]])
    module = form.module
    e1, e2 = module.canonical_basis()
    f = span(module, [e1])
    left = form.orthogonal(f, side="left")   # {t : phi(e1, t) = 0}
    right = form.orthogonal(f, side="right")  # {t : phi(t, e1) = 0}
    assert left.bases[0] == ((Fraction(1), Fraction(-1)),)
    assert right.bases[0] == ((Fraction(0), Fraction(1)),)


def test_radical_frozen_example(sierpinski):
    form = form_on(sierpinski, [[0, 0], [0, 1]])
    rad = form.radical()
    assert rad.bases[0] == ((Fraction(1), Fraction(0)),)


def test_radical_zero_iff_nondegenerate(discrete_pair):
    nondeg = form_on(discrete_pair, [[0, 1], [-1, 0]], [[1, 0], [0, 2]])
    assert nondeg.is_nondegenerate()
    assert nondeg.radical().dims == (0, 0)
    deg = form_on(discrete_pair, [[0, 1], [-1, 0]], [[1, 0], [0, 0]])
    assert not deg.is_nondegenerate()
    assert deg.radical().dims == (0, 1)


class TestOrthogonalCalculus:
    def test_identities_random(self):
        rng = Random(12)
        for _ in range(40):
            spaces = fixture_spaces()
            space = spaces[rng.randrange(len(spaces))]
            rank = rng.randrange(1, 5)
            module = FreeModule(space, Q, rank)
            form = random_orthosymmetric_form(rng, module)
            f = random_free_submodule(rng, module, rng.randrange(rank + 1))
            g = random_free_submodule(rng, module, rng.randrange(rank + 1))
            assert form.orthogonal(sum_submodules(f, g)) == intersect_submodules(
                form.orthogonal(f), form.orthogonal(g)
            )
            assert form.orthogonal(intersect_submodules(f, g)) == sum_submodules(
                form.orthogonal(f), form.orthogonal(g)
            )
            assert form.orthogonal(form.orthogonal(f)) == f

    def test_dimension_complement(self, diag2):
        module = diag2.module
        e1, e2 = module.canonical_basis()
        for f in (span(module, [e1]), span(module, [e1, e2]), span(module, [])):
            perp = diag2.orthogonal(f)
            assert all(
                d + p == module.rank for d, p in zip(f.dims, perp.dims)
            )


class TestProjection:
    def test_frozen_example(self, diag2):
        module = diag2.module
        e1, e2 = module.canonical_basis()
        f = span(module, [e1])
        t = Fraction(2) * e1 + Fraction(3) * e2
        p = diag2.project(f, t)
        assert p.vectors == ((Fraction(2), Fraction(0)),)

    def test_projection_laws_random(self, discrete_pair):
        rng = Random(21)
        module = FreeModule(discrete_pair, Q, 3)
        form = random_orthosymmetric_form(rng, module, symmetric_only=True)
        e = module.canonical_basis()
        f = span(module, [e[0], e[1] + e[2]])
        if any(d > 0 for d in form.radical(f).dims):
            pytest.skip("isotropic draw")
        for _ in range(15):
            t = random_global_section(rng, module)
            p = form.project(f, t)
            assert f.contains(p)
            assert form.project(f, p) == p
            for b in f.global_basis():
                assert form.evaluate(t - p, b).is_zero()

    def test_certificate_names_each_law(self, diag2):
        module = diag2.module
        e1, e2 = module.canonical_basis()
        f = span(module, [e1])
        t = Fraction(2) * e1 + Fraction(3) * e2
        names = ("in_submodule", "idempotent", "residual_orthogonal")
        good = bilinear.certify_projection(diag2, f, t, diag2.project(f, t))
        assert good == dict.fromkeys(names, True)
        # t itself lies outside f, and the residual 0 is trivially orthogonal
        assert bilinear.certify_projection(diag2, f, t, t) == {
            "in_submodule": False, "idempotent": False, "residual_orthogonal": True,
        }

    def test_isotropic_submodule_refused(self, symplectic2):
        module = symplectic2.module
        e1, _ = module.canonical_basis()
        with pytest.raises(IsotropicSubmodule) as err:
            symplectic2.project(span(module, [e1]), e1)
        assert "dims" in err.value.witness

    def test_projection_fixes_the_submodule(self, diag2):
        module = diag2.module
        e1, e2 = module.canonical_basis()
        f = span(module, [e1 + e2])
        member = Fraction(5) * (e1 + e2)
        assert diag2.project(f, member) == member


class TestSplitting:
    def test_split_certificate(self, diag2):
        module = diag2.module
        e1, _ = module.canonical_basis()
        split = diag2.orthogonal_split(span(module, [e1]))
        assert split.certificate.ok
        assert split.submodule.dims == (1,)
        assert split.complement.dims == (1,)
        assert intersect_submodules(split.submodule, split.complement).dims == (0,)

    def test_split_refuses_isotropic(self, symplectic2):
        module = symplectic2.module
        e1, _ = module.canonical_basis()
        with pytest.raises(IsotropicSubmodule):
            symplectic2.orthogonal_split(span(module, [e1]))


class TestOrthosymmetry:
    def test_symmetric_and_alternating_classified(self, discrete_pair):
        form = form_on(discrete_pair, [[0, 1], [-1, 0]], [[1, 2], [2, 5]])
        cls = classify_orthosymmetry(form)
        assert cls.orthosymmetric
        assert cls.per_component[0].alternating
        assert not cls.per_component[0].symmetric
        assert cls.per_component[1].symmetric
        assert cls.witness is None

    def test_frozen_counterexample_witness(self, sierpinski):
        form = form_on(sierpinski, [[1, 1], [0, 1]])
        cls = classify_orthosymmetry(form)
        assert not cls.orthosymmetric
        w = cls.witness
        assert w is not None
        # the witness pair is (e2, e1) after orthogonalization
        assert form.evaluate(w.r, w.s).is_zero()
        assert form.evaluate(w.s, w.r).is_nowhere_zero()
        assert w.r.vectors == ((Fraction(0), Fraction(1)),)
        assert w.s.vectors == ((Fraction(1), Fraction(0)),)

    def test_witness_certificate(self, sierpinski):
        form = form_on(sierpinski, [[1, 1], [0, 1]])
        w = classify_orthosymmetry(form).witness
        assert bilinear.certify_witness(form, w)
        assert not bilinear.certify_witness(form, bilinear.OrthoWitness(w.open, w.s, w.r))

    def test_false_witness_certificate_raises(self, sierpinski, monkeypatch):
        # a raise, not an assert: the self-check holds under python -O
        monkeypatch.setattr(bilinear, "certify_witness", lambda form, witness: False)
        with pytest.raises(SelfCheckFailed):
            classify_orthosymmetry(form_on(sierpinski, [[1, 1], [0, 1]]))

    def test_radical_requires_orthosymmetry(self, sierpinski):
        form = form_on(sierpinski, [[1, 1], [0, 1]])
        with pytest.raises(NotOrthosymmetric):
            form.radical()

    def test_classifier_matches_counting_oracle_exhaustive_gf3(self):
        # every rank-2 Gram matrix over GF(3) on the Sierpinski space
        space = sierpinski_space()
        module = FreeModule(space, F3, 2)
        for flat in itertools.product(F3.elements(), repeat=4):
            g = ((flat[0], flat[1]), (flat[2], flat[3]))
            form = BilinearForm(module, (g,))
            verdict = classify_orthosymmetry(form).orthosymmetric
            counted, witness = orthosymmetric_by_counting(form)
            literal, _ = orthosymmetric_by_literal_enumeration(form)
            assert verdict == counted == literal
            if witness is not None:
                _, r, s = witness
                assert form.evaluate(r, s).is_zero()
                assert not form.evaluate(s, r).is_zero()

    def test_counting_oracle_on_mixed_components_gf3(self):
        space = discrete_pair_space()
        module = FreeModule(space, F3, 2)
        rng = Random(31)
        mats = list(itertools.product(F3.elements(), repeat=4))
        for _ in range(60):
            g1 = mats[rng.randrange(len(mats))]
            g2 = mats[rng.randrange(len(mats))]
            grams = tuple(
                ((m[0], m[1]), (m[2], m[3])) for m in (g1, g2)
            )
            form = BilinearForm(module, grams)
            assert (
                classify_orthosymmetry(form).orthosymmetric
                == orthosymmetric_by_counting(form)[0]
                == orthosymmetric_by_literal_enumeration(form)[0]
            )

    def test_witness_lives_on_offending_component(self, discrete_pair):
        # symmetric on one component, broken on the other
        form = form_on(discrete_pair, [[1, 0], [0, 1]], [[1, 1], [0, 1]])
        cls = classify_orthosymmetry(form)
        assert not cls.orthosymmetric
        w = cls.witness
        assert discrete_pair.opens[w.open] == frozenset({"b"})


def degenerate_symmetric_form(rng, module):
    """A A^T per component, with the last column of A zero: symmetric and of
    rank below the module rank."""
    n, field = module.rank, module.field
    grams = []
    for _ in module.x_components():
        a = tuple(
            tuple(field.random_scalar(rng) if j < n - 1 else field.zero for j in range(n))
            for _ in range(n)
        )
        grams.append(linalg.matmul(a, linalg.transpose(a)))
    return BilinearForm(module, tuple(grams))


class TestRadicalDimsWithoutRadical:
    """dim rad f = dim f - rank(B G B^T) on each component, the test project
    and certify_envelope use, against the radical f intersect f-perp."""

    @pytest.mark.parametrize("field", [Q, F3, PrimeField(101)], ids=["Q", "GF3", "GF101"])
    def test_matches_radical_dims(self, field):
        rng = Random(61)
        isotropic = 0
        for space in fixture_spaces():
            for rank in range(5):
                module = FreeModule(space, field, rank)
                forms = [
                    random_orthosymmetric_form(rng, module),
                    degenerate_symmetric_form(rng, module),
                ]
                if rank % 2 == 0:
                    forms.append(random_alternating_form(rng, module))
                for form in forms:
                    subs = [
                        zero_submodule(module),
                        full_submodule(module),
                        form.radical(),
                    ] + [
                        random_free_submodule(rng, module, rng.randrange(rank + 1))
                        for _ in range(3)
                    ]
                    for f in subs:
                        _, dims = form._restricted_grams(f)
                        assert dims == form.radical(f).dims
                        isotropic += any(dims)
        assert isotropic > 0


class TestClassifyOncePerCall:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = bilinear.classify_orthosymmetry

        def counting(form):
            seen.append(form)
            return original(form)

        monkeypatch.setattr(bilinear, "classify_orthosymmetry", counting)
        return seen

    @pytest.mark.parametrize("method", ["project", "orthogonal_split", "radical"])
    def test_classifies_once(self, calls, diag2, method):
        module = diag2.module
        e1, e2 = module.canonical_basis()
        f = span(module, [e1])
        if method == "project":
            diag2.project(f, e1 + e2)
        elif method == "orthogonal_split":
            diag2.orthogonal_split(f)
        else:
            diag2.radical(f)
        assert calls == [diag2]


class TestWhatAFormKeeps:
    def test_a_second_classification_of_a_form_is_a_hit(self, sierpinski):
        form = form_on(sierpinski, [[1, 2], [0, 1]])
        moves, classes = [], []
        for _ in range(2):
            before = bilinear.form_memo_stats()
            classes.append(classify_orthosymmetry(form))
            after = bilinear.form_memo_stats()
            moves.append((after["class_hits"] - before["class_hits"],
                          after["class_misses"] - before["class_misses"]))
        assert moves == [(0, 1), (1, 0)]
        cls = classes[0]
        assert classes[1] is cls and not cls.orthosymmetric
        # an equal form is another object and is classified again
        before = bilinear.form_memo_stats()
        assert classify_orthosymmetry(BilinearForm(form.module, form.gram)) == cls
        assert bilinear.form_memo_stats()["class_misses"] == before["class_misses"] + 1

    def test_held_rows_are_held_once(self, diag2):
        # the form holds its Gram matrix (2 rows) on first use; a submodule
        # is its held rows, so no row of one is ever converted
        full = full_submodule(diag2.module)
        moves = []
        for _ in range(2):
            forms, rows = bilinear.form_memo_stats(), linalg.kernel_stats()["rows_in"]
            perp = diag2.orthogonal(full)
            forms_after = bilinear.form_memo_stats()
            moves.append((
                forms_after["gram_hits"] - forms["gram_hits"],
                forms_after["gram_misses"] - forms["gram_misses"],
                linalg.kernel_stats()["rows_in"] - rows,
            ))
        assert moves == [(0, 1, 2), (1, 0, 0)]
        before = linalg.kernel_stats()["rows_in"]
        diag2.orthogonal(perp)
        assert linalg.kernel_stats()["rows_in"] == before

    @pytest.mark.parametrize("field", [Q, PrimeField(10007)], ids=lambda f: f.name)
    def test_the_calculus_keeps_held_rows_equal_to_its_public_rows(self, field):
        rng = Random(f"held:{field.name}")

        def held_as_fresh(sub):
            assert sub._rows == tuple(linalg.hold(b, field) for b in sub.bases)

        for i in range(12):
            space = fixture_spaces()[i % 3]
            rank = (2, 3, 4, 5)[i % 4]
            module = FreeModule(space, field, rank)
            form = random_orthosymmetric_form(rng, module)
            f = random_free_submodule(rng, module, rng.randrange(rank + 1))
            g = random_free_submodule(rng, module, rng.randrange(rank + 1))
            subs = [
                form.orthogonal(f), form.orthogonal(g, "right"), sum_submodules(f, g),
                intersect_submodules(f, g), form.radical(f), form.radical(),
            ]
            sym = random_orthosymmetric_form(rng, module, symmetric_only=True)
            h = random_nonisotropic_submodule(rng, sym, rng.randrange(1, rank + 1))
            if h is not None:
                split = sym.orthogonal_split(h)
                sym.project(h, random_global_section(rng, module))
                subs += [split.submodule, split.complement, h]
            for sub in subs + [f, g]:
                held_as_fresh(sub)
            for b in (form, sym):
                assert b._memo["gram"] == (None, tuple(
                    (linalg.hold(m, field), linalg.held_transpose(linalg.hold(m, field), field))
                    for m in b.gram
                ))

    def test_asymmetry_pair_refuses_under_optimize_flag(self):
        # the two invariants of `_asymmetry_pair` are raises, not asserts, so
        # they hold under python -O too
        script = (
            "from fractions import Fraction\n"
            "from sheafforms import RationalField, SelfCheckFailed\n"
            "from sheafforms.bilinear import _asymmetry_pair\n"
            "one, zero = Fraction(1), Fraction(0)\n"
            "for g in (((one, zero), (zero, one)), ((zero, one), (-one, zero))):\n"
            "    try:\n"
            "        _asymmetry_pair(g, RationalField())\n"
            "    except SelfCheckFailed as exc:\n"
            "        print(__debug__, exc)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "False the matrix is symmetric: no asymmetry pair exists\n"
            "False the matrix is alternating: no asymmetry pair exists\n"
        )


class TestASubmoduleIsItsHeldRows:
    """A submodule's value is its module and its held echelon rows: the
    calculus makes no field element, `bases` releases the rows once, and
    equality and hashing agree whatever route built the submodule."""

    @pytest.mark.parametrize("field", [Q, PrimeField(10007)], ids=lambda f: f.name)
    def test_the_calculus_releases_nothing_until_bases_is_read(self, field):
        rng = Random(f"release:{field.name}")
        module = FreeModule(discrete_pair_space(), field, 9)
        form = random_orthosymmetric_form(rng, module, symmetric_only=True)
        f = random_free_submodule(rng, module, 4)
        g = random_free_submodule(rng, module, 3)
        h = random_nonisotropic_submodule(rng, form, 3)
        assert h is not None
        before = linalg.kernel_stats()["entries_out"]
        perp = form.orthogonal(f)
        split = form.orthogonal_split(h)
        chain = [
            perp, form.orthogonal(perp), sum_submodules(perp, g),
            intersect_submodules(f, form.orthogonal(g, "right")), split.complement,
        ]
        assert linalg.kernel_stats()["entries_out"] == before
        for sub in chain:
            start = linalg.kernel_stats()["entries_out"]
            bases = sub.bases
            released = linalg.kernel_stats()["entries_out"]
            assert released - start == sum(sub.dims) * module.rank
            assert sub.bases is bases
            assert linalg.kernel_stats()["entries_out"] == released

    @pytest.mark.parametrize("rank", [0, 3, 9])
    @pytest.mark.parametrize("field", [Q, PrimeField(10007)], ids=lambda f: f.name)
    def test_equal_and_hashed_by_value_across_routes(self, field, rank):
        # ranks below and above the width from which GF(p) rows are packed
        rng = Random(f"routes:{field.name}:{rank}")
        module = FreeModule(fixture_spaces()[rank % 3], field, rank)
        form = random_orthosymmetric_form(rng, module)
        f = random_free_submodule(rng, module, rank // 2)
        g = random_free_submodule(rng, module, (rank + 1) // 2)
        subs = [
            form.orthogonal(f), form.orthogonal(g, "right"), sum_submodules(f, g),
            intersect_submodules(f, g), form.radical(f), form.radical(),
            full_submodule(module), zero_submodule(module),
        ]
        for sub in subs:
            again = from_rows(module, sub.bases)
            assert again._rows == sub._rows
            assert again == sub and hash(again) == hash(sub)
        assert full_submodule(module) == span(module, module.canonical_basis())
        assert zero_submodule(module) == span(module, [])
        assert len(set(subs) | {from_rows(module, sub.bases) for sub in subs}) == len(set(subs))


def ref_project(form, f, t):
    """The projection as `project` made it before it kept a factorization:
    per component solve (B G B^T) x = B G t^T and return x B, on field
    elements."""
    field = form.module.field
    space = form.module.space
    out = []
    for tv, xc in zip(t.vectors, space.component_refinement(t.open, space.x_ref)):
        b = f.bases[xc]
        if not b:
            out.append(linalg.zero_vec(form.module.rank, field))
            continue
        bg = linalg.matmul(b, form.gram[xc])
        x = linalg.solve(linalg.matmul(bg, linalg.transpose(b)), linalg.mat_vec(bg, tv), field)
        out.append(linalg.vec_mat(x, b))
    return ModuleSection(form.module, t.open, tuple(out))


class TestKeptFactorization:
    """`project` and `orthogonal_split` share one factorization of B G B^T
    against B G per (form, submodule), kept on the form for the last
    submodule."""

    @staticmethod
    def moved(before, after):
        return tuple(after[f"projector_{k}"] - before[f"projector_{k}"] for k in ("hits", "misses"))

    def test_hits_and_misses(self, discrete_pair):
        rng = Random(83)
        module = FreeModule(discrete_pair, PrimeField(10007), 5)
        form = random_orthosymmetric_form(rng, module, symmetric_only=True)
        f = random_nonisotropic_submodule(rng, form, 2)
        g = random_nonisotropic_submodule(rng, form, 3)
        t = random_global_section(rng, module)
        steps = [
            (lambda: form.orthogonal_split(f), (0, 1)),
            (lambda: form.project(f, t), (1, 0)),
            # a distinct but equal submodule is a hit
            (lambda: form.project(span(module, f.global_basis()), t), (1, 0)),
            (lambda: form.project(g, t), (0, 1)),
            # only the last submodule is kept
            (lambda: form.project(f, t), (0, 1)),
            (lambda: form.orthogonal_split(f), (1, 0)),
        ]
        for call, expected in steps:
            before = bilinear.form_memo_stats()
            call()
            assert self.moved(before, bilinear.form_memo_stats()) == expected
        # another form keeps its own
        other = BilinearForm(module, form.gram)
        before = bilinear.form_memo_stats()
        other.project(f, t)
        assert self.moved(before, bilinear.form_memo_stats()) == (0, 1)

    def test_an_isotropic_submodule_raises_alike_and_is_never_kept(self, discrete_pair):
        # rad f = span(e1) on the first component only
        form = form_on(discrete_pair, [[0, 1], [1, 0]], [[1, 0], [0, 1]])
        module = form.module
        e1, e2 = module.canonical_basis()
        f = span(module, [e1])
        g = span(module, [e1 + e2])
        form.project(g, e1)
        kept = form._memo["projector"]
        raised = []
        for call in (lambda: form.project(f, e1), lambda: form.orthogonal_split(f),
                     lambda: form.project(f, e2)):
            before = bilinear.form_memo_stats()
            with pytest.raises(IsotropicSubmodule) as err:
                call()
            assert self.moved(before, bilinear.form_memo_stats()) == (0, 1)
            raised.append((err.value.code, str(err.value), err.value.witness))
            assert form._memo["projector"] is kept
        assert raised == [("IsotropicSubmodule",
                           "submodule has a non-trivial radical, dims (1, 0)",
                           {"dims": (1, 0)})] * 3

    @pytest.mark.parametrize("field", [Q, PrimeField(7), PrimeField(10007)],
                             ids=["Q", "GF7", "GF10007"])
    def test_projections_equal_the_solve_route(self, field):
        rng = Random(f"project:{field.name}")
        checked = 0
        for i in range(24):
            space = fixture_spaces()[i % 3]
            rank = (1, 2, 3, 4, 5)[i % 5]
            module = FreeModule(space, field, rank)
            form = random_orthosymmetric_form(rng, module, symmetric_only=True)
            f = random_nonisotropic_submodule(rng, form, rng.randrange(rank + 1))
            if f is None:
                continue
            for _ in range(3):
                t = random_global_section(rng, module)
                for u in [t] + [t.restrict(v) for v in range(len(space.opens))][:3]:
                    assert form.project(f, u) == ref_project(form, f, u)
                    checked += 1
        assert checked > 100

    @pytest.mark.parametrize("field", [Q, F3, PrimeField(101)], ids=["Q", "GF3", "GF101"])
    def test_split_intersection_dims_are_the_meet_dims(self, field):
        rng = Random(f"split:{field.name}")
        checked = 0
        for i in range(30):
            space = fixture_spaces()[i % 3]
            rank = (1, 2, 3, 4, 5, 6)[i % 6]
            module = FreeModule(space, field, rank)
            form = random_orthosymmetric_form(rng, module, symmetric_only=True)
            f = random_nonisotropic_submodule(rng, form, rng.randrange(rank + 1))
            if f is None:
                continue
            split = form.orthogonal_split(f)
            meet = intersect_submodules(f, form.orthogonal(f))
            assert split.certificate.intersection_dims == meet.dims
            assert split.certificate.ok
            checked += 1
        assert checked > 15


class TestEliminationCounts:
    """`kernel_stats()["eliminations"]` over the orthogonal calculus."""

    @staticmethod
    def eliminations(call):
        before = linalg.kernel_stats()["eliminations"]
        call()
        return linalg.kernel_stats()["eliminations"] - before

    def instance(self):
        rng = Random(89)
        space = fixture_spaces()[2]
        module = FreeModule(space, PrimeField(10007), 6)
        form = random_orthosymmetric_form(rng, module, symmetric_only=True)
        f = random_nonisotropic_submodule(rng, form, 3)
        ts = [random_global_section(rng, module) for _ in range(3)]
        return form, f, ts, len(module.x_components())

    def test_one_per_component_for_an_orthogonal(self):
        form, f, _, ncomp = self.instance()
        assert ncomp > 1
        for side in ("left", "right"):
            assert self.eliminations(lambda: form.orthogonal(f, side)) == ncomp

    def test_a_split_and_three_projections_onto_one_submodule(self):
        # the split factorizes once per component and takes f-perp by one
        # nullspace per component; the projections after it eliminate nothing
        form, f, ts, ncomp = self.instance()
        classify_orthosymmetry(form)
        assert self.eliminations(lambda: form.orthogonal_split(f)) == 2 * ncomp
        assert self.eliminations(lambda: [form.project(f, t) for t in ts]) == 0
        # on a fresh form three projections factorize once per component
        fresh = BilinearForm(form.module, form.gram)
        assert self.eliminations(lambda: [fresh.project(f, t) for t in ts]) == ncomp


class TestOnePairingRoute:
    """`evaluate`, `adjoint`, `radical` and `Isometry.holds` pair on the held
    Gram matrix the form keeps: each against the field-element route it
    replaced, at ranks 0 to 12 (packed rows over GF(p) from rank 8), on
    forms with rad E != 0 among them."""

    FIELDS = [Q, F3, PrimeField(101), PrimeField(10007)]

    @staticmethod
    def forms(rng, module):
        forms = [random_orthosymmetric_form(rng, module)]
        if module.rank:
            forms.append(degenerate_symmetric_form(rng, module))
        return forms

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_radical_is_the_intersection_with_the_left_orthogonal(self, field):
        rng = Random(f"one-route:radical:{field.name}")
        degenerate = 0
        for rank in range(13):
            module = FreeModule(discrete_pair_space(), field, rank)
            for form in self.forms(rng, module):
                subs = [None, zero_submodule(module)] + [
                    random_free_submodule(rng, module, rng.randrange(rank + 1)) for _ in range(2)
                ]
                for f in subs:
                    carrier = full_submodule(module) if f is None else f
                    old = intersect_submodules(carrier, form.orthogonal(carrier, "left"))
                    assert form.radical(f)._rows == old._rows
                degenerate += any(form.radical().dims)
        assert degenerate > 0

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_evaluate_and_adjoint_are_the_field_element_products(self, field):
        rng = Random(f"one-route:pairing:{field.name}")
        space = discrete_pair_space()
        for rank in range(13):
            module = FreeModule(space, field, rank)
            for form in self.forms(rng, module):
                for u in range(len(space.opens)):
                    r, s = (random_section_over(rng, module, u) for _ in range(2))
                    grams = [form.gram[xc] for xc in form._xc_of(u)]
                    want = tuple(
                        linalg.dot(rv, linalg.mat_vec(g, sv))
                        for rv, sv, g in zip(r.vectors, s.vectors, grams)
                    ) if rank else (field.zero,) * len(grams)
                    assert form.evaluate(r, s).values == want
                    assert form.adjoint(s, "left").covectors == tuple(
                        linalg.mat_vec(g, sv) for g, sv in zip(grams, s.vectors)
                    )
                    assert form.adjoint(s, "right").covectors == tuple(
                        linalg.vec_mat(sv, g) for g, sv in zip(grams, s.vectors)
                    )

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_holds_fails_with_one_column_doubled(self, field):
        rng = Random(f"one-route:holds:{field.name}")
        for rank in range(0, 13, 2):
            module = FreeModule(discrete_pair_space(), field, rank)
            source, target = (random_alternating_form(rng, module) for _ in range(2))
            iso = standard_isometry(source, target)
            assert iso.holds()
            two = field.from_int(2)
            for j in range(rank):
                doubled = tuple(
                    tuple(tuple(two * x if i == j else x for i, x in enumerate(row)) for row in m)
                    for m in iso.matrices
                )
                broken = Isometry(source, target, doubled)
                assert not broken.holds()
                # the field-element equation agrees
                assert any(
                    linalg.matmul(linalg.transpose(m), linalg.matmul(g2, m)) != g
                    for m, g, g2 in zip(doubled, source.gram, target.gram)
                )


class TestPairingCounts:
    """What one pairing converts, builds and eliminates once the form holds
    its Gram matrices: its own vectors only."""

    @staticmethod
    def moved(call):
        before = linalg.kernel_stats()
        call()
        after = linalg.kernel_stats()
        return {k: after[k] - before[k] for k in ("rows_in", "entries_out", "eliminations")}

    @pytest.mark.parametrize("field", [Q, PrimeField(101)], ids=lambda f: f.name)
    @pytest.mark.parametrize("rank", [2, 8])
    def test_one_evaluate_holds_two_rows_and_builds_one_value_per_component(self, field, rank):
        rng = Random(f"counts:evaluate:{field.name}:{rank}")
        module = FreeModule(discrete_pair_space(), field, rank)
        form = random_orthosymmetric_form(rng, module)
        r, s = random_global_section(rng, module), random_global_section(rng, module)
        form.evaluate(r, s)
        ncomp = len(module.x_components())
        assert self.moved(lambda: form.evaluate(r, s)) == {
            "rows_in": 2 * ncomp, "entries_out": ncomp, "eliminations": 0,
        }

    @pytest.mark.parametrize("field", [Q, PrimeField(101)], ids=lambda f: f.name)
    def test_a_radical_eliminates_once_per_component(self, field):
        rng = Random(f"counts:radical:{field.name}")
        module = FreeModule(discrete_pair_space(), field, 4)
        form = degenerate_symmetric_form(rng, module)
        f = random_free_submodule(rng, module, 3)
        form.radical(f)
        ncomp = len(module.x_components())
        assert self.moved(lambda: form.radical(f)) == {
            "rows_in": 0, "entries_out": 0, "eliminations": ncomp,
        }
        assert self.moved(lambda: form.radical())["eliminations"] == ncomp

    @pytest.mark.parametrize("field", [Q, PrimeField(101)], ids=lambda f: f.name)
    def test_holds_converts_the_matrices_once_and_builds_nothing(self, field):
        rng = Random(f"counts:holds:{field.name}")
        module = FreeModule(discrete_pair_space(), field, 4)
        iso = standard_isometry(*(random_alternating_form(rng, module) for _ in range(2)))
        assert len(iso.matrices) == 2
        iso.holds()
        assert self.moved(iso.holds) == {"rows_in": 8, "entries_out": 0, "eliminations": 0}
