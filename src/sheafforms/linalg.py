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
- Any other field (`RationalField`, on `Fraction`): as the field elements
  given, in lists; the pivot row is scaled by `field.one / c`.

The kernel reads the field at two places only, the pivot inverse and the row
update, once per pivot or per updated row. Between the inner eliminations
of `nullspace`, `inverse` and `rowspace_intersect` rows stay as the kernel
holds them.

`matmul`, `mat_vec` and `vec_mat` take no field, so they dispatch on their
entries (`_product_words`): when every entry is an `FpElement` of one
modulus they run `dot` on ints and reduce mod p on exit; otherwise `dot`
runs on the entries as given, so a product mixing ints with `FpElement`s
keeps the types `FpElement` arithmetic gives. `kernel_stats()` counts the
calls that held entries each way.
"""

from __future__ import annotations

from operator import mul

from .fields import FpElement, PrimeField

_COUNTS = {"gfp": 0, "generic": 0}


def kernel_stats() -> dict:
    """Calls since import by how they held entries: `gfp` (ints mod p, over
    GF(p)) and `generic` (field elements as given). A call counts where it
    dispatches; the eliminations it makes inside are part of it and are not
    counted again. A product with no entries has no field to go by and
    counts as generic."""
    return dict(_COUNTS)


def _word_modulus(field):
    """The dispatch point: p when entries of `field` = GF(p) are held as
    ints mod p, or None when they are held as the field elements given."""
    if isinstance(field, PrimeField):
        _COUNTS["gfp"] += 1
        return field.p
    _COUNTS["generic"] += 1
    return None


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


def _words(rows, p, strict: bool = False):
    """Rows as the kernel holds them, in new lists: the one conversion on
    entry. Over GF(p), ints in [0, p); with `strict`, None unless every
    entry is an `FpElement` of GF(p). With p None, the entries as given."""
    if p is None:
        return [list(row) for row in rows]
    out = []
    for row in rows:
        ints = [x.val for x in row if type(x) is FpElement and x.p == p]
        if len(ints) != len(row):
            if strict:
                return None
            ints = [_lift(x, p) for x in row]
        out.append(ints)
    return out


def _elements(rows, p) -> tuple:
    """Rows back as tuples of field elements: the one conversion on exit.
    Over GF(p), ints become `FpElement`s; with p None, entries pass as
    they are."""
    if p is None:
        return tuple(tuple(row) for row in rows)
    return tuple(tuple([FpElement(v, p) for v in row]) for row in rows)


def _units(field, p) -> tuple:
    """Zero and one of `field`, held as the kernel holds entries."""
    return (field.zero, field.one) if p is None else (0, 1)


def _product_words(*mats):
    """The dispatch point of the products, which take no field: (p, the
    matrices as int rows) when every entry is an `FpElement` of one
    modulus p, else None."""
    first = None
    for m in mats:
        if m and m[0]:
            first = m[0][0]
            break
    if type(first) is FpElement:
        p = first.p
        out = [_words(m, p, strict=True) for m in mats]
        if None not in out:
            _COUNTS["gfp"] += 1
            return p, out
    _COUNTS["generic"] += 1
    return None


def _eliminate(work: list, p, field):
    """Reduced echelon form of the rows `work`, held as `_words` holds them
    (the list's rows are replaced, never changed in place): (pivot rows,
    pivot columns). An entry is zero exactly when it is falsy. The field
    is read at the pivot inverse and the row update only: over GF(p),
    `pow(c, -1, p)` and a reduction mod p; otherwise `field.one / c`, never
    `1 / c`, so an int pivot still gives field elements."""
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
        c = row[col]
        if p is None:
            c = field.one / c
            row = [c * x for x in row]
        elif c != 1:
            c = pow(c, -1, p)
            row = [x * c % p for x in row]
        work[r] = row
        for i in range(n):
            c = work[i][col]
            if c and i != r:
                if p is None:
                    work[i] = [x - c * y for x, y in zip(work[i], row)]
                else:
                    work[i] = [(x - c * y) % p for x, y in zip(work[i], row)]
        pivots.append(col)
        r += 1
        if r == n:
            break
    return work[:r], tuple(pivots)


def _nullspace(work: list, width: int, p, field) -> list:
    """Canonical echelon basis of the nullspace of the rows `work` (the list
    is consumed), held as `_words` holds rows."""
    zero, one = _units(field, p)
    ech, pivots = _eliminate(work, p, field)
    basis = []
    for j in range(width):
        if j not in pivots:
            v = [zero] * width
            v[j] = one
            for i, pc in enumerate(pivots):
                v[pc] = -ech[i][j]
            basis.append(v if p is None else [x % p for x in v])
    return _eliminate(basis, p, field)[0]


def identity(n, field):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def transpose(m):
    return tuple(zip(*m)) if m else ()


def matmul(a, b):
    words = _product_words(a, b)
    if words is not None:
        p, (a, b) = words
    bt = transpose(b)
    out = tuple(tuple(dot(row, col) for col in bt) for row in a)
    return out if words is None else _elements(out, p)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    terms = map(mul, u, v)
    return sum(terms, next(terms))


def mat_vec(m, v):
    """m times a column vector, returned as a tuple."""
    words = _product_words(m, (v,))
    if words is not None:
        p, (m, (v,)) = words
    out = tuple(dot(row, v) for row in m)
    return out if words is None else _elements((out,), p)[0]


def vec_mat(v, m):
    """Row vector times m."""
    words = _product_words((v,), m)
    if words is not None:
        p, ((v,), m) = words
    out = tuple(dot(v, col) for col in transpose(m))
    return out if words is None else _elements((out,), p)[0]


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
    ech, pivots = _eliminate(_words(rows, p), p, field)
    return _elements(ech, p), pivots


def rank(rows, field):
    return len(rref(rows, field)[0])


def nullspace(rows, width, field):
    """Canonical echelon basis of {x in k^width : rows @ x = 0}."""
    p = _word_modulus(field)
    return _elements(_nullspace(_words(rows, p), width, p, field), p)


def solve(rows, rhs, field):
    """One solution x (tuple) of rows @ x = rhs, or None if inconsistent."""
    p = _word_modulus(field)
    width = len(rows[0]) if rows else 0
    aug = _words([list(r) + [b] for r, b in zip(rows, rhs)], p)
    ech, pivots = _eliminate(aug, p, field)
    x = [_units(field, p)[0]] * width
    for row, pc in zip(ech, pivots):
        if pc == width:
            return None  # a pivot in the rhs column: inconsistent
        x[pc] = row[width]
    return _elements((x,), p)[0]


def inverse(m, field):
    """Matrix inverse, or None if singular."""
    p = _word_modulus(field)
    zero, one = _units(field, p)
    n = len(m)
    aug = _words(m, p)
    for i, row in enumerate(aug):
        row.extend([zero] * n)
        row[i - n] = one  # the identity block follows the row, square or not
    ech, pivots = _eliminate(aug, p, field)
    if pivots != tuple(range(n)):
        return None
    return _elements([row[n:] for row in ech], p)


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
    a basis of a complement of the small space inside the big one.
    """
    kept = []
    current = list(sub_rows)
    r = len(rref(current, field)[0])
    for row in big_rows:
        candidate = current + [row]
        r2 = len(rref(candidate, field)[0])
        if r2 > r:
            kept.append(tuple(row))
            current = candidate
            r = r2
    return tuple(kept)


def rowspace_sum(a_rows, b_rows, field):
    return rref(tuple(a_rows) + tuple(b_rows), field)[0]


def rowspace_intersect(a_rows, b_rows, width, field):
    """Intersection of two row spaces via annihilators.

    x lies in rowspace(A) iff x is orthogonal (standard dot) to nullspace(A),
    so the intersection is the nullspace of the stacked annihilator bases.
    """
    p = _word_modulus(field)
    na = _nullspace(_words(a_rows, p), width, p, field)
    nb = _nullspace(_words(b_rows, p), width, p, field)
    return _elements(_nullspace(na + nb, width, p, field), p)
