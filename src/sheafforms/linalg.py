"""Exact linear algebra over a field, on tuples of row tuples.

Vectors are rows. All routines are deterministic: pivots are chosen as the
first row with a non-zero entry in the leftmost unfinished column, so every
subspace has one canonical reduced echelon basis and subspace equality is
plain tuple equality.

There is one boundary: rows of field elements are converted once on entry
(`hold`) and once on exit (`release`), and every public routine is a hold,
one operation on held rows, and a release or a count. A held row is exact
and in lowest terms, so equal held rows are equal tuples:

- over GF(p), a `PrimeField`: (ints in [0, p), 1). Ints in the input are
  lifted; an `FpElement` of another characteristic raises `ValueError
  ("mixed characteristics ...")` and any other entry `TypeError`, as
  `FpElement` arithmetic does. Row operations reduce mod p.
- over Q, a `RationalField`: (integer row, d), the row divided by d > 0,
  with no common factor of d and all the entries. An entry that is neither
  an int nor a `Fraction` raises `TypeError`. Elimination is fraction-free
  (Bareiss 1968; Geddes, Czapor and Labahn 1992) on rows divided by their
  content, and an echelon row leaves held over its pivot.

Each routine reads its field at one dispatch point (`_word_modulus`).
`matmul`, `mat_vec` and `vec_mat` take no field, so they read it off the
first entry, in the left factor and then the right, that is not a plain
int: an `FpElement` of p means GF(p), any other entry means Q. So they
return `FpElement`s or `Fraction`s whatever mix of ints came in. An empty
factor holds no entry and the field is read off the other; with no entry
at all the product is over Q.

A caller that chains many steps holds its rows itself and works on them
with `held_product` (the matrix of `dot(row, col)`, A B^T),
`held_transpose`, `held_add`, `held_divide`, `held_rref`, `held_rank`,
`held_nullspace`, `held_intersect`, `held_left_divide`,
`held_coordinates`, `held_equal` and `held_nonzero`; `held_ints` builds
held rows straight from rows of plain ints. `rref`, `rank`, `nullspace`,
`rowspace_intersect` and `reduce_against` share their bodies with
`held_rref`, `held_rank`, `held_nullspace`, `held_intersect` and
`held_coordinates`. The format is
private to this module: other modules only pass held rows (and tuples of
them) around, as the symplectic completion and the orthogonal calculus do,
and keep them (`Submodule` its echelon rows, `BilinearForm` its Gram
matrices and the factorization of the last projection).

Every routine that eliminates does so once. The nullspace is one
elimination of the rows with their columns reversed, whose back
substitutions are the canonical basis already (`_nullspace`). The
intersection of two row spaces is one Zassenhaus elimination of the rows
[A | A] and [B | 0]: the echelon rows whose pivot falls in the right half
are (0, w), and the w are the reduced echelon basis of the intersection.
M^-1 R is one elimination of [M | R] (`held_left_divide`).

`kernel_stats()` counts the calls by field, the rows converted on entry,
the entries built on exit and the eliminations run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

from .fields import FpElement, PrimeField

_COUNTS = {"gfp": 0, "rational": 0, "rows_in": 0, "entries_out": 0, "eliminations": 0}
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def kernel_stats() -> dict:
    """Calls since import by field: `gfp` (ints mod p, over GF(p)) and
    `rational` (integer rows, over Q). A call counts where it dispatches;
    the eliminations it makes inside are part of it and are not counted
    again as calls. Beside the calls, `rows_in` counts the rows (and a
    product's columns) converted on entry, `entries_out` the field elements
    built on exit and `eliminations` the runs of the one elimination every
    echelon form, rank, nullspace, solve, inverse, intersection and
    complement goes through."""
    return dict(_COUNTS)


def _counted(p: int) -> int:
    _COUNTS["gfp" if p else "rational"] += 1
    return p


def _word_modulus(field):
    """The dispatch point: p when entries of `field` = GF(p) are held as
    ints mod p, or 0 when entries of Q are held as integer rows."""
    return _counted(field.p if isinstance(field, PrimeField) else 0)


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
    """A row of ints and `Fraction`s as the held row (integer row, d), d the
    lcm of the entries' denominators. Any other entry raises `TypeError`."""
    kinds = set(map(type, row))
    if kinds <= {int}:
        return list(row), 1
    if not kinds <= {int, Fraction}:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"unsupported entry for the rationals: {type(x).__name__} {x!r}")
    dens = list(map(_denominator, row))
    den = lcm(*dens)
    return [n * (den // d) for n, d in zip(map(_numerator, row), dens)], den


def _hold(rows, p) -> tuple:
    """The body of `hold`: the one conversion on entry."""
    if p:
        held = []
        for row in rows:
            ints = [x.val for x in row if type(x) is FpElement and x.p == p]
            if len(ints) != len(row):
                ints = [_lift(x, p) for x in row]
            held.append((ints, 1))
    else:
        held = list(map(_cleared, rows))
    _COUNTS["rows_in"] += len(held)
    return tuple(held)


def _release(held, p) -> tuple:
    """The body of `release`: the one conversion on exit, of any exact held
    rows, in lowest terms or not."""
    _COUNTS["entries_out"] += sum([len(row) for row, _ in held])
    if p:
        return tuple([tuple([FpElement(v, p) for v in row]) for row, _ in held])
    return tuple([tuple([Fraction(v, d) for v in row]) for row, d in held])


def _primitive(row: list) -> list:
    """An integer row divided by its content; a zero row stays as it is."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _primitive_rows(held, p) -> list:
    """Held rows as `_eliminate` takes them: over Q divided by their
    content, which drops the denominator an elimination has no use for."""
    return [row if p else _primitive(row) for row, _ in held]


def _reduced(row: list, den: int):
    """The exact row `row` / `den` as a held row: over a positive
    denominator that shares no factor with all the entries."""
    if den < 0:
        row, den = [-x for x in row], -den
    g = gcd(den, *row)
    return ([x // g for x in row], den // g) if g > 1 else (row, den)


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
    """Reduced echelon form of the rows `work`, as `_primitive_rows` gives
    them (the list's rows are replaced, never changed in place): (pivot
    rows, pivot columns). Over GF(p) the pivot row is scaled by
    `pow(a, -1, p)`; over Q the row update is `_update`, so rows stay
    primitive and each pivot row is its reduced echelon row times its
    pivot."""
    _COUNTS["eliminations"] += 1
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


def _pivoted(ech, p) -> tuple:
    """Echelon rows from `_eliminate` as held rows: over Q each row is held
    over its pivot (signs turned to make it positive), so it stands for its
    reduced echelon row."""
    if p:
        return tuple([(row, 1) for row in ech])
    out = []
    for row in ech:
        a = next(filter(None, row))
        out.append((row, a) if a > 0 else ([-x for x in row], -a))
    return tuple(out)


def _rref(held, p):
    """The body of `held_rref`."""
    ech, pivots = _eliminate(_primitive_rows(held, p), p)
    return _pivoted(ech, p), pivots


def _back_substitute(ech, pivots, j, width: int, p):
    """The held row x of length `width` with x[pc] = ech[i][j] / ech[i][pc]
    at each pivot column pc: over Q, over the lcm of the pivots it divides
    by; over GF(p) pivots are 1."""
    den = 1 if p else lcm(*[row[pc] for row, pc in zip(ech, pivots) if row[j]])
    x = [0] * width
    for row, pc in zip(ech, pivots):
        x[pc] = row[j] * (den // row[pc])
    return x, den


def _rank(held, p) -> int:
    """The body of `held_rank`."""
    return len(_eliminate(_primitive_rows(held, p), p)[1])


def _nullspace(held, width: int, p) -> tuple:
    """The body of `held_nullspace`, in one elimination: of the rows with
    their columns reversed. In that reduced echelon form a row, read in the
    original order, is zero right of its pivot. So for a free column j the
    vector e_j minus the combination of pivot columns that column j is
    leads at j and is zero at every other free column: taken for the free
    columns from left to right, these vectors are already the canonical
    reduced echelon basis. Each is held over its entry at j."""
    for row, _ in held:
        if len(row) != width:
            raise ValueError(f"a row of length {len(row)} in a nullspace of width {width}")
    ech, pivots = _eliminate([row[::-1] for row in _primitive_rows(held, p)], p)
    basis = []
    for j in reversed(range(width)):  # reversed columns: the free ones from the left
        if j not in pivots:
            x, den = _back_substitute(ech, pivots, j, width, p)
            x[j] = -den  # the vector is den e_j - x
            if p:
                basis.append(([-y % p for y in reversed(x)], 1))
            else:
                basis.append(_reduced([-y for y in reversed(x)], den))
    return tuple(basis)


def _product(rows, cols, p) -> tuple:
    """The body of `held_product`: one `dot` on ints per entry. Over Q
    entry (i, j) is dot(a_i, b_j) / (d_i e_j), so row i is held over d_i
    times the lcm of the e_j, each dot scaled by that lcm over e_j."""
    right = [v for v, _ in cols]
    if p:
        return tuple([([dot(u, v) % p for v in right], 1) for u, _ in rows])
    den = lcm(*[e for _, e in cols])
    scales = [den // e for _, e in cols]
    return tuple(
        _reduced([dot(u, v) * s for v, s in zip(right, scales)], d * den) for u, d in rows
    )


def _solve(aug, width: int, p):
    """The body of `solve`: one solution of the system whose
    held augmented rows are `aug` (the coefficients, then the right-hand side
    at column `width`), held, or None if it is inconsistent."""
    ech, pivots = _eliminate(_primitive_rows(aug, p), p)
    if pivots and pivots[-1] == width:
        return None  # a pivot in the rhs column: inconsistent
    return _reduced(*_back_substitute(ech, pivots, width, width, p))


def _intersect(a, b, width: int, p) -> tuple:
    """The body of `held_intersect` (Zassenhaus): one elimination of the
    rows [a | a] and [b | 0]. A row (u, w) of their span has u = x + y and
    w = x for x in rowspace(a) and y in rowspace(b), so u = 0 exactly when
    w = -y lies in both; in reduced echelon form the rows with a pivot in the
    right half are (0, w), and their w are the reduced echelon basis of the
    intersection."""
    zero = [0] * width
    work = [x + x for x in _primitive_rows(a, p)] + [y + zero for y in _primitive_rows(b, p)]
    ech, pivots = _eliminate(work, p)
    first = next((i for i, pc in enumerate(pivots) if pc >= width), len(pivots))
    return _pivoted([row[width:] for row in ech[first:]], p)


def _coordinates(pivots, columns, target, p):
    """The coordinates of the held row `target` over reduced echelon rows
    with pivot columns `pivots` and held columns `columns`: the row's entries
    at the pivot columns, held, if those times the echelon rows give the row
    back, else None (the row lies outside their span)."""
    coeffs = _reduced([target[0][pc] for pc in pivots], target[1])
    if not pivots:
        return None if any(target[0]) else coeffs
    return coeffs if _product((coeffs,), columns, p) == (target,) else None


def identity(n, field):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def transpose(m):
    return tuple(zip(*m)) if m else ()


def _entry_modulus(rows, cols) -> int:
    """The dispatch point of the products: p when the first entry that is
    not a plain int is an `FpElement` of p, else 0."""
    for m in (rows, cols):
        for row in m:
            for x in row:
                if type(x) is not int:
                    return _counted(x.p if type(x) is FpElement else 0)
    return _counted(0)


def _dot_matrix(rows, cols) -> tuple:
    """The matrix of `dot(row, col)` over rows and columns of field
    elements, over the field its entries name."""
    p = _entry_modulus(rows, cols)
    return _release(_product(_hold(rows, p), _hold(cols, p), p), p)


def matmul(a, b):
    return _dot_matrix(a, transpose(b))


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    terms = map(mul, u, v)
    return sum(terms, next(terms))


def mat_vec(m, v):
    """m times a column vector, returned as a tuple."""
    return _dot_matrix((v,), m)[0]  # dot(v, row) for each row of m: one row out


def vec_mat(v, m):
    """Row vector times m."""
    return _dot_matrix((v,), transpose(m))[0]


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
    ech, pivots = _rref(_hold(rows, p), p)
    return _release(ech, p), pivots


def rank(rows, field):
    p = _word_modulus(field)
    return _rank(_hold(rows, p), p)


def nullspace(rows, width, field):
    """Canonical echelon basis of {x in k^width : rows @ x = 0}."""
    p = _word_modulus(field)
    return _release(_nullspace(_hold(rows, p), width, p), p)


def solve(rows, rhs, field):
    """One solution x (tuple) of rows @ x = rhs, or None if inconsistent."""
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} equations")
    p = _word_modulus(field)
    width = len(rows[0]) if rows else 0
    x = _solve(_hold([(*r, b) for r, b in zip(rows, rhs)], p), width, p)
    return None if x is None else _release((x,), p)[0]


def inverse(m, field):
    """Matrix inverse, or None if singular."""
    p = _word_modulus(field)
    n = len(m)
    # the identity block follows each row, square or not
    ech, pivots = _rref(_hold([(*row, *e) for row, e in zip(m, identity(n, field))], p), p)
    if pivots != tuple(range(n)):
        return None
    return _release(tuple((row[n:], d) for row, d in ech), p)


def reduce_against(echelon, v, field):
    """Express v over echelon rows: returns coefficients, or None if outside.

    Requires echelon to be the output of rref. The coefficient of row i is
    just v at row i's pivot column, since pivot columns are elsewhere zero,
    so v lies in the span iff those coefficients times the rows give v: one
    held product, compared with v held. The coefficients are v's own
    entries.
    """
    p = _word_modulus(field)
    (target,) = _hold((v,), p)
    pivots = [next(j for j, x in enumerate(row) if x) for row in echelon]
    if _coordinates(pivots, _hold(transpose(echelon), p), target, p) is None:
        return None
    return tuple(v[pc] for pc in pivots)


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
    ech, pivots = _eliminate(_primitive_rows(_hold(sub_rows, p), p), p)
    basis = list(zip(ech, pivots))
    kept = []
    for row, x in zip(big_rows, _primitive_rows(_hold(big_rows, p), p)):
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
    """Canonical echelon basis of the intersection of two row spaces, by one
    Zassenhaus elimination (`held_intersect`)."""
    p = _word_modulus(field)
    return _release(_intersect(_hold(a_rows, p), _hold(b_rows, p), width, p), p)


# -- held rows ------------------------------------------------------------------


def hold(rows, field) -> tuple:
    """Rows of field elements as held rows: the one conversion on entry."""
    return _hold(rows, _word_modulus(field))


def release(held, field) -> tuple:
    """Held rows back as tuples of field elements: the one conversion on
    exit."""
    return _release(held, _word_modulus(field))


def held_product(rows, cols, field) -> tuple:
    """The held matrix of `dot(row, col)` over the held rows `rows` and
    `cols` (A B^T)."""
    return _product(rows, cols, _word_modulus(field))


def held_ints(rows, field) -> tuple:
    """Rows of plain ints as held rows, built directly: no field element is
    made and no row is converted on entry (`rows_in` does not move)."""
    p = _word_modulus(field)
    return tuple([([x % p for x in row] if p else list(row), 1) for row in rows])


def held_transpose(held, field) -> tuple:
    """The columns of a held matrix as held rows: each entry is brought over
    the lcm of the row denominators."""
    _word_modulus(field)
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
    return _rref(held, _word_modulus(field))


def held_rank(held, field) -> int:
    """`rank` on held rows."""
    return _rank(held, _word_modulus(field))


def held_nullspace(held, width, field) -> tuple:
    """`nullspace` on held rows: its canonical echelon basis, held."""
    return _nullspace(held, width, _word_modulus(field))


def held_intersect(a, b, width, field) -> tuple:
    """`rowspace_intersect` on held rows of length `width`: the canonical
    echelon basis of the intersection of their row spaces, held."""
    return _intersect(a, b, width, _word_modulus(field))


def held_left_divide(m, rhs, field):
    """For a square held matrix M and held rows R as many as its rows, one
    elimination of [M | R]: (the rank of M, M^-1 R held if M is invertible,
    else None). The rank is the number of pivots in M's columns; when it is
    full the reduced echelon form is [I | M^-1 R]. Over Q each row of M and
    its row of R are brought over the lcm of their denominators first."""
    p = _word_modulus(field)
    if p:
        aug = [(u + v, 1) for (u, _), (v, _) in zip(m, rhs)]
    else:
        aug = []
        for (u, d), (v, e) in zip(m, rhs):
            den = lcm(d, e)
            aug.append(([x * (den // d) for x in u] + [x * (den // e) for x in v], den))
    r = len(m)
    ech, pivots = _eliminate(_primitive_rows(aug, p), p)
    rank = sum(pc < r for pc in pivots)
    if rank < r:
        return rank, None
    if p:
        return rank, tuple([(row[r:], 1) for row in ech])
    return rank, tuple([_reduced(row[r:], row[i]) for i, row in enumerate(ech)])


def held_coordinates(echelon, columns, v, field):
    """`reduce_against` on held rows: the coordinates of the held row v over
    held reduced echelon rows `echelon`, whose held columns are `columns`,
    held, or None if v lies outside their span."""
    pivots = [next(j for j, x in enumerate(row) if x) for row, _ in echelon]
    return _coordinates(pivots, columns, v, _word_modulus(field))


def held_equal(a, b, field) -> bool:
    """Whether two held matrices are equal, entry for entry: held rows are
    in lowest terms, so they are equal as tuples."""
    _word_modulus(field)
    return a == b


def held_nonzero(held, field) -> tuple:
    """Per held row, which of its entries are non-zero."""
    _word_modulus(field)
    return tuple(tuple(x != 0 for x in row) for row, _ in held)
