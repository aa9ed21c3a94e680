"""Exact linear algebra over a field, on tuples of row tuples.

Vectors are rows. All routines are deterministic: pivots are chosen as the
first row with a non-zero entry in the leftmost unfinished column, so every
subspace has one canonical reduced echelon basis and subspace equality is
plain tuple equality.

Two kernels sit behind one dispatch point on the field (`_word_modulus`):

- GF(p), a `PrimeField`: the word-size kernel. `rref`, `nullspace`,
  `solve`, `inverse` and `rowspace_intersect` turn their entries into ints
  in [0, p) once, on entry (`_words`), eliminate on plain ints reducing
  mod p (`_eliminate`, `_int_nullspace`; pivot inverses from
  `pow(x, -1, p)`), and turn the result back into `FpElement`s once, on
  exit (`_elements`). Between their inner eliminations rows stay ints.
  Ints in the input are lifted; an `FpElement` of another characteristic
  raises `ValueError("mixed characteristics ...")` and any other entry
  `TypeError`, as `FpElement` arithmetic does, so no foreign entry is ever
  reduced.
- Any other field (`RationalField`, on `Fraction`): the generic loop over
  field elements. A fraction-free rational kernel would be one more branch
  of the same dispatch point.

`matmul`, `mat_vec` and `vec_mat` take no field, so they dispatch on their
entries (`_product_words`): when every entry is an `FpElement` of one
modulus they run `dot` on ints and reduce mod p on exit; otherwise `dot`
runs on the entries as given, so a product mixing ints with `FpElement`s
keeps the types `FpElement` arithmetic gives.

The reduced echelon form is unique and both kernels choose the same pivots,
so the paths give identical output. `kernel_stats()` counts the calls that
took each path.
"""

from __future__ import annotations

from operator import mul

from .fields import FpElement, PrimeField

_COUNTS = {"gfp": 0, "generic": 0}


def kernel_stats() -> dict:
    """Calls since import by the kernel they took: `gfp` (the word-size
    GF(p) kernel) and `generic` (the loop over field elements). A call
    counts where it dispatches; the eliminations a GF(p) call makes on ints
    are part of it and are not counted again. A product with no entries has
    no field to go by and counts as generic."""
    return dict(_COUNTS)


def _word_modulus(field):
    """The dispatch point: p when the word-size kernel runs in `field`
    = GF(p), or None for the generic loop."""
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


def _words(rows, p: int, strict: bool = False):
    """Rows as lists of ints in [0, p): the one conversion on entry. With
    `strict`, None unless every entry is an `FpElement` of GF(p)."""
    out = []
    for row in rows:
        ints = [x.val for x in row if type(x) is FpElement and x.p == p]
        if len(ints) != len(row):
            if strict:
                return None
            ints = [_lift(x, p) for x in row]
        out.append(ints)
    return out


def _elements(rows, p: int) -> tuple:
    """Int rows back as tuples of `FpElement`s, reduced mod p: the one
    conversion on exit."""
    return tuple(tuple([FpElement(v, p) for v in row]) for row in rows)


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


def _eliminate(work: list, p: int):
    """Reduced echelon form of int rows mod p, on the list `work` (its rows
    are replaced, never changed in place): (pivot rows, pivot columns)."""
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
        if c != 1:
            c = pow(c, -1, p)
            row = [x * c % p for x in row]
        work[r] = row
        for i in range(n):
            c = work[i][col]
            if c and i != r:
                work[i] = [(x - c * y) % p for x, y in zip(work[i], row)]
        pivots.append(col)
        r += 1
        if r == n:
            break
    return work[:r], tuple(pivots)


def _int_nullspace(work: list, width: int, p: int) -> list:
    """Canonical echelon basis, as int rows, of the nullspace of the int
    rows `work` mod p (the list is consumed)."""
    ech, pivots = _eliminate(work, p)
    basis = []
    for j in range(width):
        if j not in pivots:
            v = [0] * width
            v[j] = 1
            for i, pc in enumerate(pivots):
                v[pc] = -ech[i][j] % p
            basis.append(v)
    return _eliminate(basis, p)[0]


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
    if p is not None:
        ech, pivots = _eliminate(_words(rows, p), p)
        return _elements(ech, p), pivots
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


def rank(rows, field):
    return len(rref(rows, field)[0])


def nullspace(rows, width, field):
    """Canonical echelon basis of {x in k^width : rows @ x = 0}."""
    p = _word_modulus(field)
    if p is not None:
        return _elements(_int_nullspace(_words(rows, p), width, p), p)
    ech, pivots = rref(rows, field)
    pivot_set = set(pivots)
    free = [j for j in range(width) if j not in pivot_set]
    basis = []
    for j in free:
        v = [field.zero] * width
        v[j] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -ech[i][j]
        basis.append(tuple(v))
    return rref(basis, field)[0]


def solve(rows, rhs, field):
    """One solution x (tuple) of rows @ x = rhs, or None if inconsistent."""
    p = _word_modulus(field)
    if p is not None:
        width = len(rows[0]) if rows else 0
        ech, pivots = _eliminate(_words([list(r) + [b] for r, b in zip(rows, rhs)], p), p)
        x = [0] * width
        for row, pc in zip(ech, pivots):
            if pc == width:
                return None  # a pivot in the rhs column: inconsistent
            x[pc] = row[width]
        return tuple([FpElement(v, p) for v in x])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    width = len(rows[0]) if rows else 0
    ech, pivots = rref(aug, field)
    x = [field.zero] * width
    for row, pc in zip(ech, pivots):
        if pc == width:
            return None  # a pivot in the rhs column: inconsistent
        x[pc] = row[width]
    return tuple(x)


def inverse(m, field):
    """Matrix inverse, or None if singular."""
    p = _word_modulus(field)
    if p is not None:
        n = len(m)
        aug = _words(m, p)
        for i, row in enumerate(aug):
            row.extend([0] * n)
            row[i - n] = 1  # the identity block follows the row, square or not
        ech, pivots = _eliminate(aug, p)
        if pivots != tuple(range(n)):
            return None
        return _elements([row[n:] for row in ech], p)
    n = len(m)
    aug = [list(row) + list(ident) for row, ident in zip(m, identity(n, field))]
    ech, pivots = rref(aug, field)
    if tuple(pivots) != tuple(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in ech)


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
    if p is not None:
        na = _int_nullspace(_words(a_rows, p), width, p)
        nb = _int_nullspace(_words(b_rows, p), width, p)
        return _elements(_int_nullspace(na + nb, width, p), p)
    na = nullspace(a_rows, width, field)
    nb = nullspace(b_rows, width, field)
    return nullspace(na + nb, width, field)
