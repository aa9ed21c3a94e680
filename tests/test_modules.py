"""Free modules, sections, and finitely generated submodules."""

from fractions import Fraction

import pytest

from sheafforms import (
    AlgebraSection,
    FreeModule,
    ModuleMismatch,
    ModuleSection,
    NotFree,
    OpenMismatch,
    PrimeField,
    RationalField,
    from_rows,
    full_submodule,
    intersect_submodules,
    span,
    sum_submodules,
    zero_submodule,
)
from sheafforms import linalg

Q = RationalField()


def sec(module, *vectors, open_ref=None):
    u = module.space.x_ref if open_ref is None else open_ref
    return ModuleSection(
        module, u, tuple(tuple(Fraction(x) for x in v) for v in vectors)
    )


def test_canonical_basis(module2):
    e1, e2 = module2.canonical_basis()
    assert e1.vectors == ((Fraction(1), Fraction(0)),)
    assert e2.vectors == ((Fraction(0), Fraction(1)),)


def test_section_shape_validation(module2_pair):
    with pytest.raises(OpenMismatch):
        ModuleSection(module2_pair, module2_pair.space.x_ref, ((Fraction(1), Fraction(0)),))
    with pytest.raises(ModuleMismatch):
        sec(module2_pair, [1], [2])  # wrong vector length


def test_arithmetic_and_scalar_action(module2_pair):
    s = sec(module2_pair, [1, 2], [3, 4])
    t = sec(module2_pair, [5, 6], [7, 8])
    assert (s + t).vectors == ((Fraction(6), Fraction(8)), (Fraction(10), Fraction(12)))
    assert (t - s).vectors == ((Fraction(4), Fraction(4)), (Fraction(4), Fraction(4)))
    assert (Fraction(2) * s).vectors == ((Fraction(2), Fraction(4)), (Fraction(6), Fraction(8)))


def test_algebra_section_acts_componentwise(module2_pair):
    space = module2_pair.space
    a = AlgebraSection(space, Q, space.x_ref, (Fraction(2), Fraction(-1)))
    s = sec(module2_pair, [1, 2], [3, 4])
    assert (a * s).vectors == ((Fraction(2), Fraction(4)), (Fraction(-3), Fraction(-4)))


def test_scalar_action_respects_opens(module2_pair):
    space = module2_pair.space
    a_small = AlgebraSection(space, Q, space.ref(("a",)), (Fraction(2),))
    s = sec(module2_pair, [1, 2], [3, 4])
    with pytest.raises(OpenMismatch):
        _ = a_small * s


def test_restriction(module2_pair):
    space = module2_pair.space
    s = sec(module2_pair, [1, 2], [3, 4])
    restricted = s.restrict(space.ref(("b",)))
    assert restricted.vectors == ((Fraction(3), Fraction(4)),)


def test_span_requires_global_sections(module2_pair):
    space = module2_pair.space
    partial = sec(module2_pair, [1, 0], open_ref=space.ref(("a",)))
    with pytest.raises(OpenMismatch):
        span(module2_pair, [partial])


def test_span_of_other_module_rejected(module2_pair, module2):
    e1 = module2.canonical_basis()[0]
    with pytest.raises(ModuleMismatch):
        span(module2_pair, [e1])


class TestSubmoduleLattice:
    def test_frozen_intersection_example(self, sierpinski):
        # span(e1+e2, e2) meet span(e1, e3) = span(e1) inside rank 3
        module = FreeModule(sierpinski, Q, 3)
        e1, e2, e3 = module.canonical_basis()
        left = span(module, [e1 + e2, e2])
        right = span(module, [e1, e3])
        meet = intersect_submodules(left, right)
        assert meet.dims == (1,)
        assert meet.bases[0] == ((Fraction(1), Fraction(0), Fraction(0)),)

    def test_membership(self, module2):
        e1, e2 = module2.canonical_basis()
        f = span(module2, [e1])
        assert f.contains(Fraction(2) * e1)
        assert not f.contains(e2)
        assert f.contains(module2.zero_section(module2.space.x_ref))

    def test_membership_over_smaller_open(self, module2_pair):
        space = module2_pair.space
        e1, e2 = module2_pair.canonical_basis()
        f = span(module2_pair, [e1])
        # over {a} alone, the restriction of e1 still lies in F
        assert f.contains(e1.restrict(space.ref(("a",))))
        assert not f.contains(e2.restrict(space.ref(("a",))))

    def test_sum_and_dimension_formula(self, module2):
        e1, e2 = module2.canonical_basis()
        a = span(module2, [e1])
        b = span(module2, [e2])
        total = sum_submodules(a, b)
        assert total.dims == full_submodule(module2).dims
        meet = intersect_submodules(a, b)
        assert meet.dims == zero_submodule(module2).dims

    def test_modular_law(self, sierpinski):
        # A meet (B + C) = B + (A meet C) when B <= A
        module = FreeModule(sierpinski, Q, 3)
        e1, e2, e3 = module.canonical_basis()
        a = span(module, [e1, e2])
        b = span(module, [e1])
        c = span(module, [e2 + e3])
        lhs = intersect_submodules(a, sum_submodules(b, c))
        rhs = sum_submodules(b, intersect_submodules(a, c))
        assert lhs == rhs

    def test_global_basis_glues_components(self, module2_pair):
        e1, e2 = module2_pair.canonical_basis()
        f = span(module2_pair, [e1 + e2])
        basis = f.global_basis()
        assert len(basis) == 1
        assert basis[0].vectors == ((Fraction(1), Fraction(1)),) * 2

    def test_global_basis_refuses_uneven_dims(self, module2_pair):
        f = from_rows(
            module2_pair,
            (
                ((Fraction(1), Fraction(0)),),
                (),
            ),
        )
        assert f.dims == (1, 0)
        assert f.is_free() is None
        with pytest.raises(NotFree) as err:
            f.global_basis()
        assert err.value.witness["dims"] == (1, 0)

    def test_restriction_of_membership_is_consistent(self, module2_pair):
        space = module2_pair.space
        e1, e2 = module2_pair.canonical_basis()
        f = span(module2_pair, [e1 + e2])
        member = Fraction(3) * (e1 + e2)
        for ref in range(len(space.opens)):
            if space.opens[ref]:
                assert f.contains(member.restrict(ref))

    @pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "GF7"])
    def test_membership_transposes_no_basis(self, sierpinski, field, monkeypatch):
        # a vector's coordinates are checked against the kept held rows
        # themselves, so no call, first or later, transposes them
        calls = []
        held_transpose = linalg.held_transpose

        def counted(*args):
            calls.append(args)
            return held_transpose(*args)

        monkeypatch.setattr(linalg, "held_transpose", counted)
        module = FreeModule(sierpinski, field, 3)
        e1, e2, e3 = module.canonical_basis()
        f = span(module, [e1 + e2, e3])
        for _ in range(2):
            assert f.contains(e1 + e2 + e3)
            assert not f.contains(e1)
        assert calls == []
