"""Exact row-vector linear algebra kernel, cross-checked by brute force
enumeration over GF(3) where exhaustive checking is affordable, and the one
elimination kernel, over GF(p) and over Q, against the generic elimination
over field elements."""

import ast
import inspect
import itertools
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafforms import (
    BilinearForm,
    FpElement,
    FreeModule,
    PartialFamily,
    PrimeField,
    RationalField,
    gram_schmidt_extend,
    intersect_submodules,
    sum_submodules,
    validate_topology,
)
from sheafforms import linalg
from sheafforms.scenario import MAX_RANK
from sheafforms.oracles import (
    random_alternating_form,
    random_free_submodule,
    random_partial_family,
    random_global_section,
    random_nonisotropic_submodule,
    random_orthosymmetric_form,
)

Q = RationalField()
F3 = PrimeField(3)


def frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def all_gf3_matrices(rows, cols):
    for flat in itertools.product(F3.elements(), repeat=rows * cols):
        yield tuple(
            tuple(flat[i * cols + j] for j in range(cols)) for i in range(rows)
        )


def gf3_span(rows, width):
    """Every vector in the row span, by enumerating coefficients."""
    out = set()
    for coeffs in itertools.product(F3.elements(), repeat=len(rows)):
        v = tuple(
            sum((c * row[j] for c, row in zip(coeffs, rows)), F3.zero)
            for j in range(width)
        )
        out.add(v)
    if not rows:
        out.add(tuple(F3.zero for _ in range(width)))
    return out


def test_matmul_identity():
    m = frac_matrix([[1, 2], [3, 4]])
    assert linalg.matmul(m, linalg.identity(2, Q)) == m
    assert linalg.matmul(linalg.identity(2, Q), m) == m


def test_rref_frozen_example():
    rows, pivots = linalg.rref(frac_matrix([[2, 4, 6], [1, 2, 4]]), Q)
    assert rows == frac_matrix([[1, 2, 0], [0, 0, 1]])
    assert pivots == (0, 2)


def test_rref_is_idempotent_and_canonical():
    rng = Random(4)
    for _ in range(60):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = tuple(
            tuple(Q.random_scalar(rng) for _ in range(m)) for _ in range(n)
        )
        red, _ = linalg.rref(rows, Q)
        again, _ = linalg.rref(red, Q)
        assert red == again
        # scaling the input rows leaves the canonical form unchanged
        scaled = tuple(linalg.scale(Fraction(3), r) for r in rows)
        red2, _ = linalg.rref(scaled, Q)
        assert red == red2


def test_rref_preserves_span_gf3_exhaustive():
    for rows in all_gf3_matrices(2, 3):
        red, _ = linalg.rref(rows, F3)
        assert gf3_span(rows, 3) == gf3_span(red, 3)


def test_nullspace_annihilates_and_is_complete_gf3():
    for rows in all_gf3_matrices(2, 3):
        basis = linalg.nullspace(rows, 3, F3)
        for v in basis:
            assert linalg.is_zero_vec(linalg.mat_vec(rows, v), F3)
        # dimension check against literal enumeration of the kernel
        kernel = {
            v
            for v in itertools.product(F3.elements(), repeat=3)
            if linalg.is_zero_vec(linalg.mat_vec(rows, v), F3)
        }
        assert len(kernel) == 3 ** len(basis)
        assert gf3_span(basis, 3) == kernel


def test_solve_consistent_and_inconsistent():
    m = frac_matrix([[1, 1], [0, 1]])
    x = linalg.solve(m, (Fraction(3), Fraction(1)), Q)
    assert x is not None
    assert linalg.mat_vec(m, x) == (Fraction(3), Fraction(1))
    singular = frac_matrix([[1, 1], [2, 2]])
    assert linalg.solve(singular, (Fraction(0), Fraction(1)), Q) is None


def test_solve_rejects_a_rhs_of_another_length():
    # zip would drop the equations past the shorter of the two
    rows = ((1, 0), (0, 1))
    for rhs in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="right-hand sides for 2 equations"):
            linalg.solve(rows, rhs, Q)
    assert linalg.solve(rows, (1, 2), Q) == (1, 2)


def test_inverse_round_trip():
    rng = Random(11)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = tuple(tuple(Q.random_scalar(rng) for _ in range(n)) for _ in range(n))
        inv = linalg.inverse(m, Q)
        if inv is None:
            assert linalg.held_rank(linalg.hold(m, Q), Q) < n
        else:
            assert linalg.matmul(m, inv) == linalg.identity(n, Q)
            assert linalg.matmul(inv, m) == linalg.identity(n, Q)


def test_inverse_of_singular_is_none():
    assert linalg.inverse(frac_matrix([[1, 2], [2, 4]]), Q) is None


def test_reduce_against_membership():
    echelon, _ = linalg.rref(frac_matrix([[1, 0, 1], [0, 1, 2]]), Q)
    coeffs = linalg.reduce_against(echelon, (Fraction(2), Fraction(3), Fraction(8)), Q)
    assert coeffs == (Fraction(2), Fraction(3))
    assert linalg.reduce_against(echelon, (Fraction(0), Fraction(0), Fraction(1)), Q) is None


def test_complement_rows_extends_basis():
    sub, _ = linalg.rref(frac_matrix([[1, 1, 0]]), Q)
    big = linalg.identity(3, Q)
    extra = linalg.complement_rows(sub, big, Q)
    assert len(extra) == 2
    joint, _ = linalg.rref(sub + tuple(extra), Q)
    assert len(joint) == 3


def test_sum_and_intersection_dimension_formula_gf3():
    # dim(A + B) + dim(A meet B) = dim A + dim B, exhaustively at width 3
    mats = list(all_gf3_matrices(1, 3))
    rng = Random(3)
    pairs = [(rng.choice(mats), rng.choice(mats)) for _ in range(40)]
    pairs += [
        (((F3.one, F3.zero, F3.zero), (F3.zero, F3.one, F3.zero)),
         ((F3.zero, F3.one, F3.zero), (F3.zero, F3.zero, F3.one))),
    ]
    for a_rows, b_rows in pairs:
        a, _ = linalg.rref(a_rows, F3)
        b, _ = linalg.rref(b_rows, F3)
        ha, hb = linalg.hold(a, F3), linalg.hold(b, F3)
        s = linalg.release(linalg.held_rref(ha + hb, F3)[0], F3)
        i = linalg.release(linalg.held_intersect(ha, hb, 3, F3), F3)
        assert len(s) + len(i) == len(a) + len(b)
        assert gf3_span(s, 3) == {
            tuple(x + y for x, y in zip(u, v))
            for u in gf3_span(a, 3)
            for v in gf3_span(b, 3)
        }
        assert gf3_span(i, 3) == gf3_span(a, 3) & gf3_span(b, 3)


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=5),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_rank_bounded_by_shape(rows):
    m = tuple(tuple(r) for r in rows)
    r = linalg.held_rank(linalg.hold(m, Q), Q)
    assert 0 <= r <= min(len(m), 3)


# -- the one kernel against the generic elimination over field elements -----
#
# The references below are the generic loops over field elements that every
# field used before entries of GF(p) were held as ints and entries of Q as
# integer rows; they are the only copy of that loop left. The reduced
# echelon form is unique, so the kernel must agree with them entry for
# entry, FpElement for FpElement and Fraction for Fraction: over Q every
# elimination returns Fractions, as the reference's `field.one / c` does.
# A product returns field elements only, so where the reference multiplies
# ints only it is compared with that int as a field element (`in_field`).


class BigRationals(RationalField):
    """Q with entries of several hundred bits, the size `symplectic_q`
    reaches, where the reference's Fractions pay a large gcd per operation."""

    def random_scalar(self, rng):
        return Fraction(rng.randrange(-2**256, 2**256), rng.randrange(1, 2**128))


PRIMES = (3, 101, 10007, 2**31 - 1)  # 2**31 - 1: the largest accepted order
KERNEL_FIELDS = PRIMES + ("rationals", "rationals:big")


def kernel_field(order):
    if order == "rationals:big":
        return BigRationals()
    return Q if order == "rationals" else PrimeField(order)


def ref_dot(u, v):
    it = iter(zip(u, v))
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


def ref_matmul(a, b):
    bt = linalg.transpose(b)
    return tuple(tuple(ref_dot(row, col) for col in bt) for row in a)


def ref_mat_vec(m, v):
    return tuple(ref_dot(row, v) for row in m)


def ref_rref(rows, field):
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    width = len(work[0])
    pivots = []
    r = 0
    for col in range(width):
        pivot = None
        for i in range(r, len(work)):
            if work[i][col] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.one / work[r][col]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != field.zero:
                c = work[i][col]
                work[i] = [a - c * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def ref_nullspace(rows, width, field):
    ech, pivots = ref_rref(rows, field)
    basis = []
    for j in range(width):
        if j in pivots:
            continue
        v = [field.zero] * width
        v[j] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -ech[i][j]
        basis.append(tuple(v))
    return ref_rref(basis, field)[0]


def ref_solve(rows, rhs, field):
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    width = len(rows[0]) if rows else 0
    ech, pivots = ref_rref(aug, field)
    x = [field.zero] * width
    for row, pc in zip(ech, pivots):
        if pc == width:
            return None
        x[pc] = row[width]
    return tuple(x)


def ref_intersect(a, b, width, field):
    """The annihilator route: x lies in rowspace(A) iff x is orthogonal to
    nullspace(A), so the intersection is the nullspace of both annihilators
    stacked."""
    na, nb = ref_nullspace(a, width, field), ref_nullspace(b, width, field)
    return ref_nullspace(na + nb, width, field)


def ref_inverse(m, field):
    n = len(m)
    aug = [list(row) + list(ident) for row, ident in zip(m, linalg.identity(n, field))]
    ech, pivots = ref_rref(aug, field)
    if tuple(pivots) != tuple(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in ech)


def same(new, ref):
    """Equal values of equal types: repr tells an int from an FpElement."""
    return repr(new) == repr(ref)


def in_field(rows, field):
    """Every int entry as the field element it stands for."""
    return tuple(
        tuple(field.from_int(x) if isinstance(x, int) else x for x in row) for row in rows
    )


KINDS = ("dense", "sparse", "low_rank", "zero_rows", "ints")
# and over Q: some rows of ints only (of the field's size), or all zero
RATIONAL_KINDS = KINDS + ("int_rows", "all_zero")


def random_rows(rng, field, n, m, kinds=KINDS):
    """An n x m matrix: dense, sparse, of low rank, with zero rows, or with
    some entries plain ints (negative, or past p over GF(p), included); of
    the `RATIONAL_KINDS`, with some rows of ints only, or all zero."""
    kind = rng.choice(kinds)
    if kind == "all_zero":
        return tuple((0,) * m for _ in range(n))
    if kind == "low_rank" and n and m:
        k = rng.randrange(min(n, m))
        left = random_rows(rng, field, n, k, kinds) if k else ()
        right = random_rows(rng, field, k, m, kinds) if k else ()
        if k:
            return ref_matmul(left, right)
        return tuple((field.zero,) * m for _ in range(n))
    rows = []
    for _ in range(n):
        if kind == "zero_rows" and rng.random() < 0.4:
            rows.append((field.zero,) * m)
        elif kind == "int_rows" and rng.random() < 0.5:
            rows.append(tuple(field.random_scalar(rng).numerator for _ in range(m)))
        elif kind == "sparse":
            rows.append(tuple(field.random_nonzero(rng) if rng.random() < 0.2 else field.zero
                              for _ in range(m)))
        else:
            rows.append(tuple(field.random_scalar(rng) for _ in range(m)))
    if kind == "ints":
        bound = 2 * (field.characteristic or 5)
        rows = [
            tuple(rng.randrange(-bound, bound) if rng.random() < 0.5 else x for x in row)
            for row in rows
        ]
    return tuple(rows)


@pytest.mark.parametrize("order", KERNEL_FIELDS)
def test_word_kernel_matches_generic_elimination(order):
    field = kernel_field(order)
    rng = Random(order)
    path = "gfp" if isinstance(field, PrimeField) else "rational"
    kinds = RATIONAL_KINDS if order == "rationals:big" else KINDS
    before = linalg.kernel_stats()
    for _ in range(110):
        n, m = rng.randrange(8), rng.randrange(1, 9)  # wide, square and tall
        rows = random_rows(rng, field, n, m, kinds)
        assert same(linalg.rref(rows, field), ref_rref(rows, field))
        assert same(linalg.nullspace(rows, m, field), ref_nullspace(rows, m, field))
        x = tuple(field.random_scalar(rng) for _ in range(m))
        rhs = ref_mat_vec(rows, x)
        if rhs and rng.random() < 0.5:
            rhs = tuple(field.random_scalar(rng) for _ in rhs)
        assert same(linalg.solve(rows, rhs, field), ref_solve(rows, rhs, field))
        k = rng.randrange(7)
        square = random_rows(rng, field, k, k, kinds)
        assert same(linalg.inverse(square, field), ref_inverse(square, field))
        # wide and tall input has no inverse and is refused; no rows at all
        # are the empty square matrix
        if rows and len(rows) != m:
            with pytest.raises(ValueError, match="no inverse"):
                linalg.inverse(rows, field)
        else:
            assert same(linalg.inverse(rows, field), ref_inverse(rows, field))
        other = random_rows(rng, field, m, rng.randrange(1, 6), kinds)
        assert same(linalg.matmul(rows, other), in_field(ref_matmul(rows, other), field))
        assert same(linalg.mat_vec(rows, x), in_field((ref_mat_vec(rows, x),), field)[0])
        if rows:
            assert same(linalg.vec_mat(rows[0], other),
                        in_field(ref_matmul((rows[0],), other), field)[0])
    # every elimination above held its entries the field's way
    assert linalg.kernel_stats()[path] - before[path] >= 4 * 110


@pytest.mark.parametrize("order", KERNEL_FIELDS)
def test_word_kernel_on_empty_input(order):
    field = kernel_field(order)
    for width in (0, 3):
        assert same(linalg.rref((), field), ref_rref((), field))
        assert same(linalg.nullspace((), width, field), ref_nullspace((), width, field))
        rows = ((), ()) if width == 0 else ()
        assert same(linalg.rref(rows, field), ref_rref(rows, field))
    assert same(linalg.solve((), (), field), ref_solve((), (), field))
    assert same(linalg.inverse((), field), ref_inverse((), field))
    b = ((field.one, field.zero),)
    assert same(linalg.matmul((), b), ref_matmul((), b))
    a = ((field.one,), (field.zero,))
    assert same(linalg.matmul(a, ((field.one,),)), ref_matmul(a, ((field.one,),)))
    assert same(linalg.matmul(a, ()), ref_matmul(a, ()))


def test_rational_kernel_gives_fractions_for_int_input():
    # every echelon row leaves the kernel divided by its pivot, so plain int
    # input (unit pivots included) comes out as Fractions, as in the reference
    rows = ((1, 0, 2), (0, 1, 0), (0, 0, 0))
    for new, ref in ((linalg.rref(rows, Q), ref_rref(rows, Q)),
                     (linalg.nullspace(rows, 3, Q), ref_nullspace(rows, 3, Q)),
                     (linalg.solve(rows, (3, 4, 0), Q), ref_solve(rows, (3, 4, 0), Q)),
                     (linalg.inverse(rows[:2] + ((0, 0, 1),), Q),
                      ref_inverse(rows[:2] + ((0, 0, 1),), Q))):
        assert same(new, ref)
    assert all(type(x) is Fraction for row in linalg.rref(rows, Q)[0] for x in row)


F7 = PrimeField(7)
# (field, foreign entry, error); the ids of the GF(7) cases are those they
# had when GF(7) was the only field here
FOREIGN = [
    pytest.param(F7, FpElement(1, 5), ValueError, id="foreign0-ValueError"),
    pytest.param(F7, FpElement(0, 5), ValueError, id="foreign1-ValueError"),
    pytest.param(F7, Fraction(1, 2), TypeError, id="foreign2-TypeError"),
    pytest.param(F7, Fraction(0), TypeError, id="foreign3-TypeError"),
    pytest.param(Q, 0.5, TypeError, id="rationals-float-TypeError"),
    pytest.param(Q, 0.0, TypeError, id="rationals-zero_float-TypeError"),
    pytest.param(Q, FpElement(1, 5), TypeError, id="rationals-FpElement-TypeError"),
    pytest.param(Q, FpElement(0, 5), TypeError, id="rationals-zero_FpElement-TypeError"),
]


def _with_entry(rows, i, j, x):
    out = [list(r) for r in rows]
    out[i][j] = x
    return tuple(tuple(r) for r in out)


@pytest.mark.parametrize("field, foreign, error", FOREIGN)
@pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 1)])
def test_foreign_entry_raises_as_before(field, foreign, error, where):
    one, zero = field.one, field.zero
    base = ((one, 2, zero), (zero, zero, zero), (3, one, 5))
    rows = _with_entry(base, *where, foreign)
    rhs = (one, zero, 2)
    eliminations = [
        (lambda: linalg.rref(rows, field), lambda: ref_rref(rows, field)),
        (lambda: linalg.nullspace(rows, 3, field), lambda: ref_nullspace(rows, 3, field)),
        (lambda: linalg.solve(rows, rhs, field), lambda: ref_solve(rows, rhs, field)),
        (lambda: linalg.inverse(rows, field), lambda: ref_inverse(rows, field)),
        (lambda: linalg.held_intersect(
            linalg.hold(rows, field), linalg.hold(base, field), 3, field),
         lambda: ref_nullspace(rows, 3, field)),
    ]
    if field is Q:
        # over Q a foreign entry is refused: the old loop gave float
        # arithmetic on a float entry, silently
        for new, _ in eliminations:
            with pytest.raises(TypeError, match="unsupported entry for the rationals"):
                new()
        # the products read their field off their entries and refuse a
        # foreign one as the eliminations do
        with pytest.raises(TypeError, match="unsupported entry"):
            linalg.matmul(rows, base)
        return
    cases = eliminations + [
        (lambda: linalg.matmul(rows, base), lambda: ref_matmul(rows, base)),
    ]
    for new, ref in cases:
        with pytest.raises(error) as got:
            new()
        with pytest.raises(error) as expected:
            ref()
        if error is ValueError:
            assert str(got.value).startswith("mixed characteristics")
            assert str(expected.value).startswith("mixed characteristics")


@pytest.mark.parametrize("order", KERNEL_FIELDS)
def test_held_rows_match_the_routines_on_field_elements(order):
    # hold, work on held rows, release: the same values as the routines on
    # field elements, and Fractions or FpElements on exit whatever came in
    field = kernel_field(order)
    rng = Random(f"held:{order}")
    kinds = RATIONAL_KINDS if order == "rationals:big" else KINDS
    for _ in range(60):
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        a = random_rows(rng, field, n, m, kinds)
        b = random_rows(rng, field, rng.randrange(1, 6), m, kinds)
        c = random_rows(rng, field, n, m, kinds)
        ha, hb, hc = (linalg.hold(rows, field) for rows in (a, b, c))
        back = linalg.release(ha, field)
        assert back == a and all(type(x) is type(field.one) for row in back for x in row)
        assert linalg.release(linalg.held_product(ha, hb, field), field) == ref_matmul(
            a, linalg.transpose(b))
        assert linalg.release(linalg.held_transpose(ha, field), field) == linalg.transpose(a)
        ech, pivots = linalg.held_rref(ha, field)
        assert same((linalg.release(ech, field), pivots), ref_rref(a, field))
        assert linalg.held_rank(ha, field) == len(pivots)
        assert same(linalg.release(linalg.held_nullspace(ha, m, field), field),
                    ref_nullspace(a, m, field))
        assert same(linalg.release(linalg.held_intersect(ha, hc, m, field), field),
                    ref_intersect(a, c, m, field))
        x = field.random_nonzero(rng)
        assert linalg.release(
            linalg.held_divide(ha, linalg.hold(((x,),), field), field), field
        ) == tuple(linalg.scale(field.one / x, row) for row in a)
        rhs = tuple(field.random_scalar(rng) for _ in range(n))
        assert same(linalg.solve(a, rhs, field), ref_solve(a, rhs, field))
        # coordinates of a row of b, mostly outside rowspace(a), and of a row inside
        ech_rows = linalg.release(ech, field)
        inside = (field.zero,) * m
        if ech_rows:
            weights = tuple(field.random_scalar(rng) for _ in ech_rows)
            inside = ref_matmul((weights,), ech_rows)[0]
        for v in (b[0], inside):
            coords = linalg.held_coordinates(ech, linalg.hold((v,), field)[0], field)
            expected = linalg.reduce_against(ech_rows, v, field)
            assert (coords is None) == (expected is None)
            if coords is not None:
                assert linalg.release((coords,), field) == (in_field((expected,), field)[0],)
        # held rows are canonical: equal matrices are equal held rows
        assert ha == linalg.hold(linalg.release(ha, field), field)
        assert (ha == hc) == (linalg.release(ha, field) == linalg.release(hc, field))


@pytest.mark.parametrize("order", ("rationals", 7, 10007))
def test_zassenhaus_intersection_matches_the_annihilator_route(order):
    # one elimination of [[A, A], [B, 0]] against the three nullspaces of the
    # annihilator route, on random pairs and on empty, full, equal and
    # trivially meeting row spaces
    field = kernel_field(order)
    rng = Random(f"meet:{order}")
    for width in (1, 3, 5):
        full = linalg.identity(width, field)
        for _ in range(30):
            a = random_rows(rng, field, rng.randrange(width + 2), width)
            b = random_rows(rng, field, rng.randrange(width + 2), width)
            k = rng.randrange(width + 1)
            respanned = tuple(reversed(linalg.rref(a, field)[0]))
            cases = [
                (a, b), (a, ()), ((), b), ((), ()), (a, full), (full, b), (full, full),
                (a, a), (a, respanned), (full[:k], full[k:]), (full[k:], full[:k]),
            ]
            for x, y in cases:
                expected = ref_intersect(x, y, width, field)
                held = linalg.held_intersect(
                    linalg.hold(x, field), linalg.hold(y, field), width, field)
                assert same(linalg.release(held, field), expected)
        assert linalg.held_intersect(
            linalg.hold(full[:1], field), linalg.hold(full[1:], field), width, field) == ()


def ref_complement_rows(sub_rows, big_rows, field):
    """The greedy scan as one elimination of the growing stack per row."""
    kept, current = [], list(sub_rows)
    r = linalg.held_rank(linalg.hold(current, field), field)
    for row in big_rows:
        r2 = linalg.held_rank(linalg.hold(current + [row], field), field)
        if r2 > r:
            kept.append(tuple(row))
            current.append(row)
            r = r2
    return tuple(kept)


@pytest.mark.parametrize("order", KERNEL_FIELDS)
def test_complement_rows_keeps_the_rows_of_the_greedy_scan(order):
    field = kernel_field(order)
    rng = Random(f"complement:{order}")
    for _ in range(60):
        m = rng.randrange(1, 7)
        sub = random_rows(rng, field, rng.randrange(4), m)
        big = list(random_rows(rng, field, rng.randrange(9), m) + sub)
        rng.shuffle(big)
        expected = ref_complement_rows(sub, big, field)
        assert linalg.complement_rows(sub, big, field) == expected
        held = linalg.held_complement_rows(linalg.hold(sub, field), linalg.hold(big, field), field)
        assert linalg.release(held, field) == in_field(expected, field)


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "GF7"])
def test_complement_rows_refuses_rows_of_unequal_length(field):
    # a row shorter or longer than the others is refused, wherever it stands
    # and whether or not it is zero, on both sides of the packed width: a
    # transpose that zips the rows would cut them to the shortest silently
    one, zero = field.one, field.zero
    e = linalg.identity(WIDE + 1, field)
    cases = [
        (((one, zero, zero),), ((zero, one),)),
        (((one, zero),), ((zero, one), (zero, zero, one))),
        ((), ((zero, zero), (zero, one, zero))),
        ((), ((one, 2 * one, zero), (zero, one))),
        (e[:1], tuple(row[:WIDE] for row in e[1:3])),
        ((), (e[0][:WIDE], e[1])),
    ]
    for sub, big in cases:
        with pytest.raises(ValueError, match="rows of unequal length"):
            linalg.complement_rows(sub, big, field)
        with pytest.raises(ValueError, match="rows of unequal length"):
            linalg.held_complement_rows(linalg.hold(sub, field), linalg.hold(big, field), field)
    # every other routine refuses them on entry too, whichever row is short:
    # mixed packed and list rows used to raise `TypeError` or
    # `AttributeError`, a product zipped the short row against a long column
    # and a transpose cut the rows to the shortest
    square = tuple(row[:WIDE] for row in e[:WIDE])
    for lengths in ((2, WIDE), (WIDE, 2)):
        ragged = tuple(row[:n] for row, n in zip(e, lengths))
        calls = [
            lambda: linalg.rref(ragged, field),
            lambda: linalg.held_rank(linalg.hold(ragged, field), field),
            lambda: linalg.nullspace(ragged, WIDE, field),
            lambda: linalg.solve(ragged, (one, one), field),
            lambda: linalg.reduce_against(ragged, e[0][:WIDE], field),
            lambda: linalg.matmul(ragged, square),
            lambda: linalg.matmul(tuple(row[:2] for row in square), ragged),
            lambda: linalg.mat_vec(ragged, e[0][:WIDE]),
            lambda: linalg.vec_mat(e[0][:2], ragged),
            lambda: linalg.transpose(ragged),
            lambda: linalg.hold(ragged, field),
            lambda: linalg.held_ints([[1] * n for n in lengths], field),
            lambda: linalg.held_transpose(linalg.hold(ragged, field), field),
            lambda: linalg.held_intersect(
                linalg.hold(ragged, field), linalg.hold(square, field), WIDE, field
            ),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="rows of unequal length"):
                call()
    # equal rows of the wrong width keep the nullspace's own message
    with pytest.raises(ValueError, match="a row of length 2 in a nullspace of width"):
        linalg.nullspace(tuple(row[:2] for row in square), WIDE, field)


def _linalg_uses(tree) -> set:
    """The names of `linalg` that `tree` uses: `X.<name>` for X `linalg`,
    `la` or any name an import binds `linalg` to (`from . import linalg as
    L`, `import sheafforms.linalg`, ...), and `from .linalg import <name>`.
    A bare word is no use: `module.rank` names no routine of `linalg`."""
    bound = {"linalg", "la"} | {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names if alias.name.split(".")[-1] == "linalg"
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in bound:
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
            out.update(alias.name for alias in node.names)
    return out


def _traced_linalg_routines(spans: Path) -> set:
    """The module-level `linalg` routines of `TARGETS` in `bench/spans.py`,
    read and not imported."""
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {
                name for module, owner, name in ast.literal_eval(node.value)
                if module == "linalg" and owner is None
            }
    raise AssertionError(f"no TARGETS in {spans}")


def test_every_public_routine_has_a_caller():
    # a public routine of `linalg` that nothing in the library, the benchmark
    # or the demos uses through `linalg`, and that the benchmark's tracer
    # does not wrap, is dead code; `kernel_stats` is a counter for tests and
    # tools to read
    planted = (
        "from .linalg import release\n"
        "import sheafforms.linalg as L\n"
        "import sheafforms.linalg\n"
        "rank = module.rank + rank(m)\n"
        "L.held_rank(la.hold(m, field), field)\n"
        "sheafforms.linalg.mat_vec(m, v)\n"
    )
    assert _linalg_uses(ast.parse(planted)) == {"release", "held_rank", "hold", "mat_vec"}
    root = Path(__file__).resolve().parent.parent
    own = root / "src" / "sheafforms" / "linalg.py"
    used = _traced_linalg_routines(root / "bench" / "spans.py")
    for folder in ("src", "bench", "demos"):
        for path in (root / folder).rglob("*.py"):
            if path != own:
                used |= _linalg_uses(ast.parse(path.read_text(), filename=str(path)))
    public = {
        name for name, fn in inspect.getmembers(linalg, inspect.isfunction)
        if fn.__module__ == linalg.__name__ and not name.startswith("_")
    }
    assert sorted(public - used - {"kernel_stats"}) == []


def _calculus_gf_sequence(rng):
    """The calls of one `calculus_gf` benchmark item, on a smaller module."""
    points = ("c0", "c1", "c2")
    space = validate_topology(points, [c for k in range(4) for c in itertools.combinations(points, k)])
    module = FreeModule(space, PrimeField(10007), 6)
    form = random_orthosymmetric_form(rng, module)
    f = random_free_submodule(rng, module, 3)
    g = random_free_submodule(rng, module, 2)
    sym = random_orthosymmetric_form(rng, module, symmetric_only=True)
    h = random_nonisotropic_submodule(rng, sym, 2)
    t = random_global_section(rng, module)

    def run():
        perp_f, perp_g = form.orthogonal(f), form.orthogonal(g)
        assert form.orthogonal(sum_submodules(f, g)) == intersect_submodules(perp_f, perp_g)
        assert form.orthogonal(intersect_submodules(f, g)) == sum_submodules(perp_f, perp_g)
        assert form.orthogonal(perp_f) == f
        assert sym.orthogonal_split(h).certificate.ok
        assert h.contains(sym.project(h, t))

    return run


def test_kernel_stats_count_the_path_each_call_took(sierpinski):
    run = _calculus_gf_sequence(Random(5))
    before = linalg.kernel_stats()
    run()
    after = linalg.kernel_stats()
    assert after["rational"] == before["rational"]
    assert after["gfp"] > before["gfp"]

    form = random_alternating_form(Random(6), FreeModule(sierpinski, Q, 4))
    before = linalg.kernel_stats()
    gram_schmidt_extend(form, PartialFamily.of())
    after = linalg.kernel_stats()
    assert after["gfp"] == before["gfp"]
    assert after["rational"] > before["rational"]


def test_a_completion_converts_each_row_once(sierpinski):
    # exact counts, no clock: a rank-8 completion with r_1 and s_2 given
    # converts on entry the Gram matrix (8 rows), which the validation ranks
    # and the completion pairs with, and the two given sections (2); the
    # 2 x 2 matrix their relations prescribe, the identity the ambient
    # complement starts from and A_2n for the congruence are held straight
    # from ints and convert nothing. On exit it builds the entries of the six
    # sections it found, 6 x 8, and nothing else. The form keeps its held
    # Gram matrix and its validation, so a second completion on the same form
    # converts the Gram matrix no more
    drawn = random_alternating_form(Random(8), FreeModule(sierpinski, Q, 8))
    partial = random_partial_family(Random(9), drawn, config=({1}, {2}))
    form = BilinearForm(drawn.module, drawn.gram)  # nothing held yet
    for gram_rows in (8, 0):
        before = linalg.kernel_stats()
        gram_schmidt_extend(form, partial)
        after = linalg.kernel_stats()
        moved = {key: after[key] - before[key] for key in ("rows_in", "entries_out")}
        assert moved == {"rows_in": gram_rows + 2, "entries_out": 6 * 8}


def test_products_count_dots_over_q_and_multiply_adds_over_gfp(monkeypatch):
    # the benchmark counts scalar multiplications at `linalg.dot`: a product
    # over Q still takes one `dot` of the full length per entry, while over
    # GF(p) it calls no `dot`. With more than one row and 8 columns or more
    # out it is packed: one multiply-add per coefficient of the left factor,
    # which `kernel_stats()` counts; other products count none
    lengths = []
    real_dot = linalg.dot

    def counted(u, v):
        lengths.append(len(u))
        return real_dot(u, v)

    monkeypatch.setattr(linalg, "dot", counted)
    wide = linalg._PACKED_WIDTH
    for field, dots, adds in (
        (Q, [3] * (2 * wide + wide + wide), 0), (F7, [], 2 * 3),
    ):
        one, zero = field.one, field.zero
        a = ((one, 2 * one, zero), (3 * one, one, 5 * one))
        b = tuple(tuple((i + j) % 5 * one for j in range(wide)) for i in range(3))
        m = linalg.transpose(b)
        lengths.clear()
        before = linalg.kernel_stats()["multiply_adds"]
        assert same(linalg.matmul(a, b), ref_matmul(a, b))
        assert same(linalg.mat_vec(m, a[0]), ref_mat_vec(m, a[0]))
        assert same(linalg.vec_mat(a[1], b), ref_matmul((a[1],), b)[0])
        assert lengths == dots
        assert linalg.kernel_stats()["multiply_adds"] - before == adds
        # three columns out: over GF(p) neither a `dot` nor a multiply-add
        lengths.clear()
        assert same(linalg.matmul(a, linalg.transpose(a)), ref_matmul(a, linalg.transpose(a)))
        assert lengths == ([3] * 4 if field is Q else [])
        assert linalg.kernel_stats()["multiply_adds"] - before == adds


def test_a_product_reads_its_field_off_its_first_entry_that_is_not_an_int():
    one = F7.one
    cases = [
        # ints are lifted into the field the other entries name
        (((2, one),), ((3,), (4,)), ((FpElement(3, 7),),), "gfp"),
        (((2, Fraction(1, 2)),), ((3,), (4,)), ((Fraction(8),),), "rational"),
        # ints only, or no entry at all: over Q
        (((1, 2),), ((3,), (4,)), ((Fraction(11),),), "rational"),
        ((), (), (), "rational"),
        # an empty factor has no entry, so the other one names the field
        ((), ((one, 2),), (), "gfp"),
        (((one,), (2,)), (), ((), ()), "gfp"),
    ]
    for a, b, expected, path in cases:
        before = linalg.kernel_stats()
        assert same(linalg.matmul(a, b), expected)
        after = linalg.kernel_stats()
        assert {key: after[key] - before[key] for key in ("gfp", "rational")} == {
            key: int(key == path) for key in ("gfp", "rational")
        }


def test_inner_calls_on_ints_are_not_counted_again():
    # one call counts once, over GF(p) and over Q alike, whatever it eliminates inside
    for field, moved in ((F7, (1, 0)), (Q, (0, 1))):
        one, zero = field.one, field.zero
        rows = ((one, 2, 3), (zero, one, 4))
        held = linalg.hold(rows, field)
        for call in (lambda: linalg.nullspace(rows, 3, field),
                     lambda: linalg.held_intersect(held, held, 3, field),
                     lambda: linalg.inverse(rows[:1] + ((0, one, 0), (0, 0, one)), field)):
            before = linalg.kernel_stats()
            call()
            after = linalg.kernel_stats()
            assert tuple(after[k] - before[k] for k in ("gfp", "rational")) == moved


# -- the nullspace in one elimination ---------------------------------------------

# (rows, width): empty, width 0, tall, square, wide, up to 24 x 48
NULLSPACE_SHAPES = ((0, 0), (0, 6), (3, 0), (1, 1), (24, 6), (24, 24), (12, 30), (6, 48), (24, 48))
# entries of several hundred bits over denominators of 128 bits each clear
# to rows of thousands of bits, and the reference's Fractions take seconds
# on a dense 12 x 30: over those entries the shapes stop at 24 x 6 and 6 x 16
BIG_SHAPES = ((0, 0), (0, 6), (3, 0), (1, 1), (24, 6), (8, 8), (6, 16))


@pytest.mark.parametrize("order", ("rationals", "rationals:big", 3, 10007, 2**31 - 1))
def test_one_elimination_nullspace_matches_the_reference(order):
    # every kind of matrix (dense, sparse, low rank, with zero rows, all
    # zero, rank-deficient by a repeated row and a sum of two) in every
    # shape: the canonical basis of the reference, which eliminates twice,
    # from one elimination of the reversed columns
    field = kernel_field(order)
    rng = Random(f"nullspace:{order}")
    kinds = RATIONAL_KINDS if field is Q or order == "rationals:big" else KINDS + ("all_zero",)
    shapes = BIG_SHAPES if order == "rationals:big" else NULLSPACE_SHAPES
    for kind in kinds:
        for n, m in shapes:
            rows = random_rows(rng, field, n, m, (kind,))
            if n >= 3 and m and rng.random() < 0.5:
                rows = rows[:-2] + (rows[0], linalg.add_vec(rows[1], rows[2]))
            if m == 0:
                rows = ((),) * n
            expected = ref_nullspace(rows, m, field)
            before = linalg.kernel_stats()["eliminations"]
            assert same(linalg.nullspace(rows, m, field), expected)
            assert linalg.kernel_stats()["eliminations"] - before == 1
            held = linalg.held_nullspace(linalg.hold(rows, field), m, field)
            assert same(linalg.release(held, field), expected)
            # held rows are in lowest terms: the basis held is its release held
            assert held == linalg.hold(expected, field)


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "GF7"])
def test_nullspace_rejects_a_row_of_another_width(field):
    rows = ((field.one, 2, 3),)
    for width in (2, 4):
        with pytest.raises(ValueError, match=f"a row of length 3 in a nullspace of width {width}"):
            linalg.nullspace(rows, width, field)
        with pytest.raises(ValueError, match="a row of length 3"):
            linalg.held_nullspace(linalg.hold(rows, field), width, field)
    assert linalg.nullspace((), 2, field) == linalg.identity(2, field)


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "GF7"])
def test_coordinates_refuse_a_vector_of_another_length(field):
    # over echelon rows of width 3 a shorter vector raised IndexError and a
    # longer one read as outside the span
    echelon, _ = linalg.rref(in_field([[1, 0, 1], [0, 1, 2]], field), field)
    held = linalg.hold(echelon, field)
    for v in (in_field([[1]], field)[0], in_field([[1, 1, 3, 0]], field)[0]):
        with pytest.raises(ValueError, match=f"a vector of length {len(v)} over rows of length 3"):
            linalg.reduce_against(echelon, v, field)
        with pytest.raises(ValueError, match=f"a vector of length {len(v)}"):
            linalg.held_coordinates(held, linalg.hold((v,), field)[0], field)
    (v,) = in_field([[1, 1, 3]], field)
    assert linalg.reduce_against(echelon, v, field) == v[:2]
    assert linalg.reduce_against((), (field.zero,), field) == ()


@pytest.mark.parametrize("order", ("rationals", "rationals:big", 7, 10007))
def test_left_divide_is_one_elimination_of_m_beside_r(order):
    # (rank M, M^-1 R) against the reference inverse, on invertible and
    # singular M, with R wide or narrow
    field = kernel_field(order)
    rng = Random(f"divide:{order}")
    for _ in range(40):
        r = rng.randrange(5)
        m = random_rows(rng, field, r, r)
        rhs = random_rows(rng, field, r, rng.randrange(1, 7))
        before = linalg.kernel_stats()["eliminations"]
        rank, k = linalg.held_left_divide(linalg.hold(m, field), linalg.hold(rhs, field), field)
        assert linalg.kernel_stats()["eliminations"] - before == 1
        inv = ref_inverse(m, field)
        assert rank == len(ref_rref(m, field)[1])
        assert (k is None) == (inv is None)
        if k is not None:
            assert same(linalg.release(k, field), in_field(ref_matmul(inv, rhs), field))


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "GF7"])
def test_inverse_refuses_a_matrix_that_is_not_square(field):
    # [M | I] of a wide or tall M has an echelon form whose right block is
    # no inverse: for [[1, 0, 2], [0, 1, 3]] over Q it is [[2, 1, 0], [3, 0, 1]]
    wide = in_field(((1, 0, 2), (0, 1, 3)), field)
    tall = in_field(((1, 0), (0, 1), (2, 3)), field)
    for m in (wide, tall):
        with pytest.raises(ValueError, match="no inverse"):
            linalg.inverse(m, field)


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "GF7"])
def test_left_divide_refuses_malformed_input(field):
    # [M | R] of a 2 x 3 M has a right block 3 wide that is no M^-1 R, and
    # a 2 x 2 M joined beside 3 rows of R drops the third
    wide = linalg.hold(in_field(((1, 0, 2), (0, 1, 3)), field), field)
    square = linalg.hold(in_field(((1, 2), (3, 5)), field), field)
    two = linalg.hold(in_field(((1, 0), (0, 1)), field), field)
    three = linalg.hold(in_field(((1, 0), (0, 1), (4, 4)), field), field)
    with pytest.raises(ValueError, match="no inverse of a matrix of 2 rows with a row of length 3"):
        linalg.held_left_divide(wide, two, field)
    with pytest.raises(ValueError, match="3 rows to divide by a matrix of 2 rows"):
        linalg.held_left_divide(square, three, field)
    with pytest.raises(ValueError, match="no inverse of a matrix of 2 rows with a row of length 3"):
        linalg.held_inverse(wide, field)
    # well-formed input still divides, and the held inverse is M^-1 I
    rank, k = linalg.held_left_divide(square, two, field)
    assert rank == 2 and k == linalg.held_inverse(square, field)
    assert same(linalg.release(k, field), ref_inverse(linalg.release(square, field), field))


@pytest.mark.parametrize("field", [Q, F7, PrimeField(10007)], ids=["Q", "GF7", "GF10007"])
def test_held_divide_refuses_a_held_zero(field):
    # a held zero divided over Q into a row over the denominator 0, and over
    # GF(p) raised `pow`'s ValueError; it raises as `FpElement` division
    # does, on list rows and on packed rows 9 wide
    (zero,) = linalg.held_ints([[0]], field)
    for width in (3, 9):
        rows = linalg.held_ints([list(range(1, width + 1))], field)
        with pytest.raises(ZeroDivisionError):
            linalg.held_divide(rows, (zero,), field)


@pytest.mark.parametrize(
    "field, widths",
    [(Q, (3, 4)), (F7, (3, 4)), (Q, (9, 10)), (PrimeField(10007), (9, 10))],
    ids=["Q", "GF7", "Q-wide", "GF10007-packed"],
)
def test_transpose_and_combine_refuse_held_rows_of_unequal_length(field, widths):
    # held rows of two lengths, each held alone and then put together: a
    # transpose cut them to the shortest, a product read B's columns only
    # as far as its shortest row went, and packed rows of 9 and 10 slots
    # overflowed an unpacking of 9
    short, long = (linalg.held_ints([list(range(1, n + 1))], field) for n in widths)
    coeffs = linalg.held_ints([[1, 2]], field)
    for ragged in (short + long, long + short):
        with pytest.raises(ValueError, match="rows of unequal length"):
            linalg.held_transpose(ragged, field)
        with pytest.raises(ValueError, match="rows of unequal length"):
            linalg.held_combine(coeffs, ragged, field)


def test_inverse_takes_the_kernel_of_its_identity_block():
    # M^-1 is M^-1 I, one elimination of [M | I] as `held_left_divide` runs
    # it: the rows are packed only when I's are, so a 4 x 4 and a 7 x 7
    # inverse over GF(101) eliminate lists and make no packed multiply-add
    field = PrimeField(101)
    for n in (4, 7):
        m = tuple(tuple(field.from_int((i + 1) ** j) for j in range(n)) for i in range(n))
        before = linalg.kernel_stats()
        inv = linalg.inverse(m, field)
        after = linalg.kernel_stats()
        assert after["multiply_adds"] == before["multiply_adds"]
        assert after["eliminations"] - before["eliminations"] == 1
        assert same(inv, ref_inverse(m, field))
        assert ref_matmul(m, inv) == linalg.identity(n, field)


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "GF7"])
def test_held_ints_are_held_without_a_conversion(field):
    rows = ((1, 0, -1), (0, -1, 2))
    before = linalg.kernel_stats()["rows_in"]
    held = linalg.held_ints(rows, field)
    assert linalg.kernel_stats()["rows_in"] == before
    assert held == linalg.hold(in_field(rows, field), field)


# -- packed rows over GF(p) -------------------------------------------------------
#
# Over GF(p) a held row of 8 entries or more is packed: one int per row, of
# 64-bit slots, updated by multiply-adds and reduced after as many of them as
# a slot has room for over p; a narrower row is a list. Each case below is checked
# against the references above, which work on lists of field elements, on
# both sides of that width.


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


# the largest prime below 2^24, whose slots have room for 2^16 products, and
# the largest accepted order, whose slots have room for 4
PRIME_BELOW_2_24 = next(q for q in range(2**24 - 1, 0, -1) if _is_prime(q))
PACKED_PRIMES = (7, 10007, PRIME_BELOW_2_24, 2**31 - 1)
WIDE = linalg._PACKED_WIDTH


def extreme_rows(rng, field, n, m):
    """Random rows, some all p - 1, the entry whose products fill a slot
    fastest."""
    top = -field.one
    return tuple(
        (top,) * m if rng.random() < 0.3 else tuple(field.random_scalar(rng) for _ in range(m))
        for _ in range(n)
    )


def released(held, field):
    """The held rows released, after checking that they are held as rows of
    their width are: a held row has one form, so equal rows are equal."""
    rows = linalg.release(held, field)
    assert held == linalg.hold(rows, field)
    return rows


def check_against_references(a, b, width, field):
    """Every eliminating routine and both products on the rows a and b of
    `width` entries, against the references."""
    ha, hb = linalg.hold(a, field), linalg.hold(b, field)
    ech, pivots = linalg.held_rref(ha, field)
    assert same((released(ech, field), pivots), ref_rref(a, field))
    assert same(released(linalg.held_nullspace(ha, width, field), field),
                ref_nullspace(a, width, field))
    meet = linalg.held_intersect(ha, hb, width, field)
    assert same(released(meet, field), ref_intersect(a, b, width, field))
    expected = ref_complement_rows(b, a + b, field)
    assert linalg.complement_rows(b, a + b, field) == expected
    assert released(linalg.held_complement_rows(hb, ha + hb, field), field) == in_field(
        expected, field)
    bt = linalg.transpose(b)
    for rows in (a, a[:1]):
        held = linalg.hold(rows, field)
        assert released(linalg.held_product(held, hb, field), field) == ref_matmul(rows, bt)
        assert released(linalg.held_combine(held, linalg.hold(bt, field), field), field) == (
            ref_matmul(rows, bt))
        assert linalg.matmul(rows, bt) == ref_matmul(rows, bt)
    assert released(linalg.held_transpose(ha, field), field) == linalg.transpose(a)
    square = linalg.hold(ref_matmul(a, linalg.transpose(a)), field)
    rank, k = linalg.held_left_divide(square, ha, field)
    inv = ref_inverse(linalg.release(square, field), field)
    assert rank == len(ref_rref(linalg.release(square, field), field)[1])
    assert (k is None) == (inv is None)
    if k is not None:
        assert released(k, field) == in_field(ref_matmul(inv, a), field)


def test_every_slot_is_one_word_with_headroom_from_p():
    assert _is_prime(PRIME_BELOW_2_24) and PRIME_BELOW_2_24.bit_length() == 24
    # a 64-bit slot holds one entry and the headroom's products of two
    # entries, and not one product more; at least 4 for every accepted order
    for p in (PRIME_BELOW_2_24, 2**24 + 43, 2**31 - 1):
        h = linalg._headroom(p)
        assert h >= 4
        assert (p - 1) + h * (p - 1) ** 2 < 2**64 <= (p - 1) + (h + 1) * (p - 1) ** 2
    assert linalg._headroom(PRIME_BELOW_2_24) == 2**16
    assert linalg._headroom(2**31 - 1) == 4


@pytest.mark.parametrize("order", PACKED_PRIMES)
def test_packed_rows_match_the_references(order):
    # below, at and above the packed width, tall and wide, with one row
    field = PrimeField(order)
    rng = Random(f"packed:{order}")
    for n, m in ((1, WIDE), (3, WIDE - 1), (4, WIDE), (WIDE, WIDE), (9, 6), (5, 16), (12, 12)):
        for _ in range(3):
            check_against_references(
                extreme_rows(rng, field, n, m), random_rows(rng, field, n, m), m, field)


@pytest.mark.parametrize("order", (10007, PRIME_BELOW_2_24, 2**31 - 1))
def test_the_largest_zassenhaus_elimination_a_scenario_reaches(order):
    # two submodules of rank MAX_RANK meet in one elimination of 2 MAX_RANK
    # rows of 2 MAX_RANK columns
    field = PrimeField(order)
    rng = Random(f"zassenhaus:{order}")
    n = MAX_RANK
    for k in (n, n - 3):
        # a and b share a k - 3 dimensional subspace
        shared = random_rows(rng, field, k - 3, n, ("dense",))
        a = shared + extreme_rows(rng, field, 3, n)
        b = shared + random_rows(rng, field, 3, n, ("dense",))
        before = linalg.kernel_stats()["eliminations"]
        held = linalg.held_intersect(linalg.hold(a, field), linalg.hold(b, field), n, field)
        assert linalg.kernel_stats()["eliminations"] - before == 1
        assert same(linalg.release(held, field), ref_intersect(a, b, n, field))
        assert len(held) >= k - 3


def _spy_on_slots(monkeypatch):
    """Every slot value `_unpack` and `_unpack_rows` read from here on, in
    the list returned."""
    seen = []

    def spy(unpack, rows):
        def spied(xs, n):
            values = unpack(xs, n)
            seen.extend(v for row in (values if rows else [values]) for v in row)
            return values
        return spied

    for name, rows in (("_unpack", False), ("_unpack_rows", True)):
        monkeypatch.setattr(linalg, name, spy(getattr(linalg, name), rows))
    return seen


@pytest.mark.parametrize("order", (PRIME_BELOW_2_24, 2**31 - 1))
def test_rows_are_reduced_when_their_updates_reach_the_headroom(order, monkeypatch):
    # no input a test can run updates a row 2^16 times, so the headroom is
    # cut to 3: a 40 x 80 elimination updates a row up to 39 times and a
    # product sums up to 40 terms per row. Each must reduce a row before a
    # slot passes one entry and 3 products of two, as every slot it unpacks
    # shows, and must agree with the references all the same
    field = PrimeField(order)
    rng = Random(f"headroom:{order}")
    headroom = 3
    bound = (order - 1) + headroom * (order - 1) ** 2
    monkeypatch.setattr(linalg, "_headroom", lambda p: headroom)
    seen = _spy_on_slots(monkeypatch)
    a = extreme_rows(rng, field, 40, 80)
    b = random_rows(rng, field, 40, 80, ("dense",))
    before = linalg.kernel_stats()["multiply_adds"]
    check_against_references(a, b, 80, field)
    assert linalg.kernel_stats()["multiply_adds"] - before > 40 * headroom
    assert order <= max(seen) <= bound


def test_slots_at_the_largest_order_stay_in_one_word(monkeypatch):
    # at 2^31 - 1 a slot has room for 4 products of two entries, so a 40 x 80
    # elimination and products of 40 terms reach that headroom by
    # themselves: every slot read stays below 2^64 and within one entry and
    # 4 products, and the results agree with the references
    order = 2**31 - 1
    field = PrimeField(order)
    rng = Random(f"one word:{order}")
    seen = _spy_on_slots(monkeypatch)
    a = extreme_rows(rng, field, 40, 80)
    b = random_rows(rng, field, 40, 80, ("dense",))
    check_against_references(a, b, 80, field)
    assert order <= max(seen) <= (order - 1) + 4 * (order - 1) ** 2 < 2**64


@pytest.mark.parametrize("order", PACKED_PRIMES)
def test_packing_round_trips_rows_of_no_entry_one_entry_and_zeros(order):
    # slots in and out of ints: no rows, rows of no entries, of one entry
    # and wide, holding 0 and p - 1; and wide rows that are zero
    rng = Random(f"slots:{order}")
    for k, n in ((0, 0), (0, WIDE), (3, 0), (3, 1), (2, 2), (4, WIDE), (1, 33)):
        rows = [[rng.choice((0, order - 1, rng.randrange(order))) for _ in range(n)]
                for _ in range(k)]
        packed = linalg._pack_rows(rows, n)
        assert len(packed) == k
        assert linalg._value_rows(packed, n, order) == rows
        assert linalg._reduce_rows(packed, n, order) == packed
    field = PrimeField(order)
    one, zero = field.one, field.zero
    rows = ((zero,) * WIDE, (zero,) * 3 + (2 * one,) + (zero,) * (WIDE - 4), (zero,) * WIDE)
    assert linalg.held_rank(linalg.hold(rows, field), field) == 1
    check_against_references(rows, rows[::-1], WIDE, field)


@pytest.mark.parametrize("order", PACKED_PRIMES)
def test_products_with_empty_factors(order):
    # products with no rows, with rows of no entries and with no terms, on
    # both sides of the packed width: the shapes of the reference
    field = PrimeField(order)
    a = random_rows(Random(order), field, 2, WIDE, ("dense",))
    ha = linalg.hold(a, field)
    no_entries = linalg.hold(((), ()), field)
    no_terms = linalg.hold(((),) * WIDE, field)
    for rows, right in ((ha, ()), ((), ha), (no_entries, ()), ((), ())):
        assert linalg.held_product(rows, right, field) == linalg.hold(
            ref_matmul(linalg.release(rows, field),
                       linalg.transpose(linalg.release(right, field))), field)
    # 2 x 0 times (WIDE x 0)^T, packed and with no term to sum: zeros
    zeros = ((field.zero,) * WIDE,) * 2
    assert linalg.held_product(no_entries, no_terms, field) == linalg.hold(zeros, field)
    assert linalg.held_combine((), ha, field) == ()
    assert linalg.held_combine(no_entries, (), field) == no_entries
    assert linalg.matmul(a, ()) == ref_matmul(a, ()) == ((), ())
    assert linalg.matmul((), a) == ()
    assert linalg.vec_mat((), ()) == ()


@pytest.mark.parametrize("order", (101, 2**31 - 1))
def test_held_rows_keep_one_form_on_both_sides_of_the_packed_width(order):
    # every held operation, on rows just narrower than the packed width, as
    # wide and wider, gives the references' values in the one form a row of
    # its width is held in
    field = PrimeField(order)
    rng = Random(f"forms:{order}")
    for m in (WIDE - 1, WIDE, WIDE + 3):
        for n in (1, 3, m + 2):
            a, c = random_rows(rng, field, n, m), random_rows(rng, field, n, m)
            ha = linalg.hold(a, field)
            x = field.random_nonzero(rng)
            assert released(linalg.held_divide(ha, linalg.hold(((x,),), field), field),
                            field) == tuple(linalg.scale(field.one / x, row) for row in a)
            ints = tuple(tuple(rng.randrange(-order, order) for _ in range(m)) for _ in range(n))
            assert released(linalg.held_ints(ints, field), field) == in_field(ints, field)
            rhs = tuple(field.random_scalar(rng) for _ in range(n))
            assert same(linalg.solve(a, rhs, field), ref_solve(a, rhs, field))
            square = random_rows(rng, field, m, m)
            assert same(linalg.inverse(square, field), ref_inverse(square, field))
            ech, _ = linalg.held_rref(ha, field)
            ech_rows = released(ech, field)
            weights = tuple(field.random_scalar(rng) for _ in ech_rows)
            inside = ref_matmul((weights,), ech_rows)[0] if ech_rows else (field.zero,) * m
            for v in (c[0], inside):
                coords = linalg.held_coordinates(ech, linalg.hold((v,), field)[0], field)
                expected = linalg.reduce_against(ech_rows, v, field)
                assert (coords is None) == (expected is None)
                if coords is not None:
                    assert released((coords,), field) == in_field((expected,), field)
