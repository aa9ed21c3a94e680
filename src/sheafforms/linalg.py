"""Exact linear algebra over a field, on tuples of row tuples.

Vectors are rows. All routines are deterministic: pivots are chosen as the
first row with a non-zero entry in the leftmost unfinished column, so every
subspace has one canonical reduced echelon basis and subspace equality is
plain tuple equality.

One elimination (`_eliminate`) and one nullspace construction (`_nullspace`)
serve every field. `rref`, `nullspace`, `solve`, `inverse` and
`rowspace_intersect` each have one body: ask the field how entries are held
(`_word_modulus`, the one dispatch point), convert on entry (`_words`),
eliminate, and convert on exit (`_elements`). Entries are held two ways:

- GF(p), a `PrimeField`: as ints in [0, p), reduced mod p after every row
  operation, with pivot inverses from `pow(x, -1, p)`. Ints in the input
  are lifted; an `FpElement` of another characteristic raises
  `ValueError("mixed characteristics ...")` and any other entry
  `TypeError`, as `FpElement` arithmetic does, so no foreign entry is ever
  reduced.
- Q, a `RationalField`: as integer rows, fraction-free (Bareiss 1968;
  Geddes, Czapor and Labahn 1992). A held row stands for its non-zero
  rational multiples, which is all an elimination needs: on entry each row
  is multiplied by the lcm of its denominators and divided by its content;
  the row update cross-multiplies, a*x - c*y with a the pivot and c the
  entry to clear, and divides the new row by its content; on exit each
  echelon row is divided by its pivot, one `Fraction` per entry. An entry
  that is neither an int nor a `Fraction` raises `TypeError`.

The kernel reads the field at two places only, the pivot and the row
update, once per pivot or per updated row. Between the inner eliminations
of `nullspace`, `inverse` and `rowspace_intersect` rows stay as the kernel
holds them.

`matmul`, `mat_vec` and `vec_mat` take no field, so they dispatch on their
entries (`_product`): when every entry is an `FpElement` of one modulus
they run `dot` on ints and reduce mod p on exit; when every entry is an int
or a `Fraction` they clear denominators per row of the left factor and per
column of the right, run `dot` on ints and divide once per entry (an entry
whose row and column held only ints stays an int); otherwise `dot` runs on
the entries as given, so a product mixing ints with `FpElement`s keeps the
types `FpElement` arithmetic gives.

A caller that chains many steps on the same rows holds them itself, so the
rows cross the boundary once each way instead of at every step: `hold`
converts rows of field elements into held rows, `release` turns held rows
back into field elements, and between the two `held_product` (the matrix
of `dot(row, col)`, A B^T), `held_transpose`, `held_add`, `held_divide`,
`held_rref`, `held_nullspace`, `held_equal` and `held_nonzero` work on held
rows only. A held row is exact: over GF(p) it is (ints in [0, p), 1); over
Q it is (integer row, d), the row divided by d > 0, with no common factor
of d and all the entries left. The format is private to this module: other
modules only pass held rows (and tuples of them) around. Every held call
takes the field and dispatches through `_word_modulus` like the routines
above. `kernel_stats()` counts the calls that held entries each way, the
rows converted on entry and the entries built on exit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

from .fields import FpElement, PrimeField

_COUNTS = {"gfp": 0, "rational": 0, "generic": 0, "rows_in": 0, "entries_out": 0}
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def kernel_stats() -> dict:
    """Calls since import by how they held entries: `gfp` (ints mod p, over
    GF(p)), `rational` (integer rows, over Q) and `generic` (a product's
    entries as given). A call counts where it dispatches; the eliminations
    it makes inside are part of it and are not counted again. A product
    with no entries has no field to go by and counts as generic. Beside the
    calls, `rows_in` counts the rows (and a product's columns) converted on
    entry and `entries_out` the field elements built on exit."""
    return dict(_COUNTS)


def _word_modulus(field):
    """The dispatch point: p when entries of `field` = GF(p) are held as
    ints mod p, or 0 when entries of Q are held as integer rows."""
    if isinstance(field, PrimeField):
        _COUNTS["gfp"] += 1
        return field.p
    _COUNTS["rational"] += 1
    return 0


def _lift(x, p: int) -> int:
    """One entry as an int in [0, p); a foreign entry raises as `FpElement`
    arithmetic does."""
    if isinstance(x, FpElement):
        if x.p != p:
            raise ValueError(f"mixed characteristics {p} and {x.p}")
        return x.val
    if isinstance(x, int):
        return x % p
    raise TypeError(f"unsupported entry for GF({p}): {type(x).__name__} {x!r}")


def _cleared(row):
    """A row of ints and `Fraction`s as (integer row, d) with row = integer
    row / d, d the lcm of the entries' denominators, or d None when every
    entry is an int. Any other entry raises `TypeError`."""
    _COUNTS["rows_in"] += 1
    kinds = set(map(type, row))
    if kinds <= {int}:
        return list(row), None
    if not kinds <= {int, Fraction}:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"unsupported entry for the rationals: {type(x).__name__} {x!r}")
    dens = list(map(_denominator, row))
    den = lcm(*dens)
    return [n * (den // d) for n, d in zip(map(_numerator, row), dens)], den


def _primitive(row: list) -> list:
    """An integer row divided by its content; a zero row stays as it is."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _words(rows, p, strict: bool = False):
    """Rows as the kernel holds them, in new lists: the one conversion on
    entry. Over GF(p), ints in [0, p); with `strict`, None unless every
    entry is an `FpElement` of GF(p). Over Q (p = 0), primitive integer
    rows."""
    if not p:
        return [_primitive(_cleared(row)[0]) for row in rows]
    out = []
    for row in rows:
        ints = [x.val for x in row if type(x) is FpElement and x.p == p]
        if len(ints) != len(row):
            if strict:
                return None
            ints = [_lift(x, p) for x in row]
        out.append(ints)
    _COUNTS["rows_in"] += len(out)
    return out


def _elements(rows, p, dens=None) -> tuple:
    """Rows back as tuples of field elements: the one conversion on exit.
    Over GF(p), ints become `FpElement`s. Over Q, row i becomes `Fraction`s
    over dens[i], by default its first non-zero entry, the pivot of an
    echelon row."""
    _COUNTS["entries_out"] += sum(map(len, rows))
    if p:
        return tuple(tuple([FpElement(v, p) for v in row]) for row in rows)
    if dens is None:
        dens = [next(filter(None, row), 1) for row in rows]
    return tuple(tuple([Fraction(v, d) for v in row]) for row, d in zip(rows, dens))


def _update(x, y, col: int, p):
    """Row x with its entry at `col` cleared by the pivot row y: over GF(p)
    (where y[col] is 1) x - c*y mod p; over Q a*x - c*y, with a = y[col] and
    c = x[col] first divided by their gcd, over the new row's content."""
    c = x[col]
    if p:
        return [(u - c * v) % p for u, v in zip(x, y)]
    a = y[col]
    g = gcd(a, c)
    s, t = a // g, c // g
    return _primitive([s * u - t * v for u, v in zip(x, y)])


def _eliminate(work: list, p):
    """Reduced echelon form of the rows `work`, held as `_words` holds them
    (the list's rows are replaced, never changed in place): (pivot rows,
    pivot columns). The field is read at the pivot and the row update only:
    over GF(p) the pivot row is scaled by `pow(a, -1, p)` and updates are
    reduced mod p; over Q the pivot row y keeps its pivot a, and a row x
    with entry c becomes a*x - c*y (a and c first divided by their gcd)
    over its content, so rows stay primitive and each pivot row is its
    reduced echelon row times its pivot."""
    if not work:
        return [], ()
    width = len(work[0])
    if any(len(row) != width for row in work):
        raise ValueError("rows of unequal length")
    n = len(work)
    pivots = []
    r = 0
    for col in range(width):
        for i in range(r, n):
            if work[i][col]:
                break
        else:
            continue
        row = work[i]
        work[i] = work[r]
        a = row[col]
        if p and a != 1:
            a = pow(a, -1, p)
            row = [x * a % p for x in row]
        work[r] = row
        # the row update is `_update` written out: a call per updated row
        # costs about 4 % of an elimination over GF(p)
        for i in range(n):
            c = work[i][col]
            if c and i != r:
                if p:
                    work[i] = [(x - c * y) % p for x, y in zip(work[i], row)]
                else:
                    g = gcd(a, c)
                    s, t = a // g, c // g
                    work[i] = _primitive([s * x - t * y for x, y in zip(work[i], row)])
        pivots.append(col)
        r += 1
        if r == n:
            break
    return work[:r], tuple(pivots)


def _back_substitute(ech, pivots, j, width: int, p):
    """The vector x of length `width` with x[pc] = ech[i][j] / ech[i][pc] at
    each pivot column pc, held as the kernel holds rows, and its
    denominator: over Q, x is scaled by the lcm of the pivots it divides by;
    over GF(p) pivots are 1."""
    den = 1 if p else lcm(*[row[pc] for row, pc in zip(ech, pivots) if row[j]])
    x = [0] * width
    for row, pc in zip(ech, pivots):
        x[pc] = row[j] * (den // row[pc])
    return x, den


def _nullspace(work: list, width: int, p) -> list:
    """Canonical echelon basis of the nullspace of the rows `work` (the list
    is consumed), held as `_words` holds rows: for each non-pivot column j,
    e_j minus the combination of pivot columns that column j is."""
    ech, pivots = _eliminate(work, p)
    basis = []
    for j in range(width):
        if j not in pivots:
            x, den = _back_substitute(ech, pivots, j, width, p)
            x[j] = -den  # the vector is den e_j - x
            basis.append([-y % p for y in x] if p else _primitive([-y for y in x]))
    return _eliminate(basis, p)[0]


def identity(n, field):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def transpose(m):
    return tuple(zip(*m)) if m else ()


def _product(rows, cols) -> tuple:
    """The matrix of `dot(row, col)` over the rows of the left factor and the
    columns of the right: the one body of the products, which take no field
    and so dispatch on their entries. `dot` runs once per entry, on ints
    whenever every entry is an `FpElement` of one modulus, or an int or a
    `Fraction`."""
    first = next((m[0][0] for m in (rows, cols) if m and m[0]), None)
    if type(first) is FpElement:
        p = first.p
        left, right = _words(rows, p, strict=True), _words(cols, p, strict=True)
        if left is not None and right is not None:
            _COUNTS["gfp"] += 1
            return _elements([[dot(u, v) for v in right] for u in left], p)
    elif first is not None:
        try:
            left, right = [_cleared(u) for u in rows], [_cleared(v) for v in cols]
        except TypeError:
            pass
        else:
            _COUNTS["rational"] += 1
            _COUNTS["entries_out"] += len(left) * len(right)
            return tuple(
                tuple([
                    dot(u, v) if du is None and dv is None
                    else Fraction(dot(u, v), (du or 1) * (dv or 1))
                    for v, dv in right
                ])
                for u, du in left
            )
    _COUNTS["generic"] += 1
    return tuple(tuple(dot(u, v) for v in cols) for u in rows)


def matmul(a, b):
    return _product(a, transpose(b))


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    terms = map(mul, u, v)
    return sum(terms, next(terms))


def mat_vec(m, v):
    """m times a column vector, returned as a tuple."""
    return _product((v,), m)[0]  # dot(v, row) for each row of m: one row out


def vec_mat(v, m):
    """Row vector times m."""
    return _product((v,), transpose(m))[0]


def scale(c, v):
    return tuple(c * x for x in v)


def add_vec(u, v):
    return tuple(x + y for x, y in zip(u, v))


def sub_vec(u, v):
    return tuple(x - y for x, y in zip(u, v))


def zero_vec(n, field):
    return (field.zero,) * n


def is_zero_vec(v, field):
    return all(x == field.zero for x in v)


def rref(rows, field):
    """Reduced row echelon form; returns (pivot rows only, pivot columns)."""
    p = _word_modulus(field)
    ech, pivots = _eliminate(_words(rows, p), p)
    return _elements(ech, p), pivots


def rank(rows, field):
    p = _word_modulus(field)
    return len(_eliminate(_words(rows, p), p)[0])


def nullspace(rows, width, field):
    """Canonical echelon basis of {x in k^width : rows @ x = 0}."""
    p = _word_modulus(field)
    return _elements(_nullspace(_words(rows, p), width, p), p)


def solve(rows, rhs, field):
    """One solution x (tuple) of rows @ x = rhs, or None if inconsistent."""
    p = _word_modulus(field)
    width = len(rows[0]) if rows else 0
    aug = _words([list(r) + [b] for r, b in zip(rows, rhs)], p)
    ech, pivots = _eliminate(aug, p)
    if pivots and pivots[-1] == width:
        return None  # a pivot in the rhs column: inconsistent
    x, den = _back_substitute(ech, pivots, width, width, p)
    return _elements((x,), p, (den,))[0]


def inverse(m, field):
    """Matrix inverse, or None if singular."""
    p = _word_modulus(field)
    n = len(m)
    # the identity block follows each row, square or not
    aug = _words([(*row, *e) for row, e in zip(m, identity(n, field))], p)
    ech, pivots = _eliminate(aug, p)
    if pivots != tuple(range(n)):
        return None
    return _elements([row[n:] for row in ech], p, [row[i] for i, row in enumerate(ech)])


def reduce_against(echelon, v, field):
    """Express v over echelon rows: returns coefficients, or None if outside.

    Requires echelon to be the output of rref. The coefficient of row i is
    just v at row i's pivot column, since pivot columns are elsewhere zero.
    """
    coeffs = []
    rem = list(v)
    for row in echelon:
        pc = next(j for j, x in enumerate(row) if x != field.zero)
        c = rem[pc]
        coeffs.append(c)
        if c != field.zero:
            rem = [a - c * b for a, b in zip(rem, row)]
    if any(x != field.zero for x in rem):
        return None
    return tuple(coeffs)


def complement_rows(sub_rows, big_rows, field):
    """Rows of big_rows completing sub_rows to a basis of their joint span.

    Greedy and deterministic: scan big_rows in order, keep a row iff it
    raises the rank. With sub_rows inside the span of big_rows this returns
    a basis of a complement of the small space inside the big one. One
    pass: each row is reduced against the echelon rows of sub_rows and the
    remainders of the rows kept so far, each of which is zero at the pivot
    columns of those before it, so the row raises the rank iff something is
    left.
    """
    p = _word_modulus(field)
    ech, pivots = _eliminate(_words(sub_rows, p), p)
    basis = list(zip(ech, pivots))
    kept = []
    for row, x in zip(big_rows, _words(big_rows, p)):
        if basis and len(x) != len(basis[0][0]):
            raise ValueError("rows of unequal length")
        for y, col in basis:
            if x[col]:
                x = _update(x, y, col, p)
        col = next((j for j, v in enumerate(x) if v), None)
        if col is not None:
            if p and x[col] != 1:
                a = pow(x[col], -1, p)
                x = [v * a % p for v in x]
            basis.append((x, col))
            kept.append(tuple(row))
    return tuple(kept)


def rowspace_sum(a_rows, b_rows, field):
    return rref(tuple(a_rows) + tuple(b_rows), field)[0]


def rowspace_intersect(a_rows, b_rows, width, field):
    """Intersection of two row spaces via annihilators.

    x lies in rowspace(A) iff x is orthogonal (standard dot) to nullspace(A),
    so the intersection is the nullspace of the stacked annihilator bases.
    """
    p = _word_modulus(field)
    na = _nullspace(_words(a_rows, p), width, p)
    nb = _nullspace(_words(b_rows, p), width, p)
    return _elements(_nullspace(na + nb, width, p), p)


# -- held rows ------------------------------------------------------------------


def _reduced(row: list, den: int):
    """The exact row `row` / `den` as a held row: over a positive
    denominator that shares no factor with all the entries."""
    if den < 0:
        row, den = [-x for x in row], -den
    g = gcd(den, *row)
    return ([x // g for x in row], den // g) if g > 1 else (row, den)


def _pivoted(ech, p) -> tuple:
    """Echelon rows from the kernel as exact held rows: over Q each row is
    primitive and is held over its pivot (signs turned to make it positive),
    so it stands for its reduced echelon row."""
    if p:
        return tuple((row, 1) for row in ech)
    out = []
    for row in ech:
        a = next(filter(None, row))
        out.append((row, a) if a > 0 else ([-x for x in row], -a))
    return tuple(out)


def _primitive_words(held, p) -> list:
    """Held rows as `_eliminate` takes them: over Q divided by their content."""
    return [row if p else _primitive(row) for row, _ in held]


def hold(rows, field) -> tuple:
    """Rows of field elements as held rows: the one conversion on entry."""
    p = _word_modulus(field)
    if p:
        return tuple((row, 1) for row in _words(rows, p))
    return tuple((row, den or 1) for row, den in map(_cleared, rows))


def release(held, field) -> tuple:
    """Held rows back as tuples of field elements: the one conversion on
    exit."""
    p = _word_modulus(field)
    return _elements([row for row, _ in held], p, [den for _, den in held])


def held_product(rows, cols, field) -> tuple:
    """The held matrix of `dot(row, col)` over the held rows `rows` and
    `cols` (A B^T), one `dot` on ints per entry. Over Q entry (i, j) is
    dot(a_i, b_j) / (d_i e_j), so row i is held over d_i times the lcm of the
    e_j, each dot scaled by that lcm over e_j."""
    p = _word_modulus(field)
    right = [v for v, _ in cols]
    if p:
        return tuple(([dot(u, v) % p for v in right], 1) for u, _ in rows)
    den = lcm(*[e for _, e in cols])
    scales = [den // e for _, e in cols]
    return tuple(
        _reduced([dot(u, v) * s for v, s in zip(right, scales)], d * den) for u, d in rows
    )


def held_transpose(held, field) -> tuple:
    """The columns of a held matrix as held rows: each entry is brought over
    the lcm of the row denominators."""
    _word_modulus(field)
    if not held:
        return ()
    den = lcm(*[d for _, d in held])
    scaled = [[x * (den // d) for x in row] for row, d in held]
    return tuple(_reduced(list(col), den) for col in zip(*scaled))


def held_add(a, b, field) -> tuple:
    """Row i of a plus row i of b, for held rows of equal length."""
    p = _word_modulus(field)
    if p:
        return tuple(([(x + y) % p for x, y in zip(u, v)], 1) for (u, _), (v, _) in zip(a, b))
    out = []
    for (u, d), (v, e) in zip(a, b):
        den = lcm(d, e)
        s, t = den // d, den // e
        out.append(_reduced([x * s + y * t for x, y in zip(u, v)], den))
    return tuple(out)


def held_divide(held, by, field) -> tuple:
    """Every held row divided by the one entry of the 1 x 1 held matrix
    `by`, which must not be zero."""
    p = _word_modulus(field)
    (((n,), d),) = by
    if p:
        c = pow(n, -1, p)
        return tuple(([x * c % p for x in row], 1) for row, _ in held)
    return tuple(_reduced([x * d for x in row], e * n) for row, e in held)


def held_rref(held, field):
    """`rref` on held rows: (the reduced echelon rows, held, pivot columns)."""
    p = _word_modulus(field)
    ech, pivots = _eliminate(_primitive_words(held, p), p)
    return _pivoted(ech, p), pivots


def held_nullspace(held, width, field) -> tuple:
    """`nullspace` on held rows: its canonical echelon basis, held."""
    p = _word_modulus(field)
    return _pivoted(_nullspace(_primitive_words(held, p), width, p), p)


def held_equal(a, b, field) -> bool:
    """Whether two held matrices are equal, entry for entry."""
    _word_modulus(field)
    return len(a) == len(b) and all(
        len(u) == len(v) and all(x * e == y * d for x, y in zip(u, v))
        for (u, d), (v, e) in zip(a, b)
    )


def held_nonzero(held, field) -> tuple:
    """Per held row, which of its entries are non-zero."""
    _word_modulus(field)
    return tuple(tuple(x != 0 for x in row) for row, _ in held)
