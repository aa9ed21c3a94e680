"""Exact linear algebra over a field, on tuples of row tuples.

Vectors are rows. All routines are deterministic: pivots are chosen as the
first row with a non-zero entry in the leftmost unfinished column, so every
subspace has one canonical reduced echelon basis and subspace equality is
plain tuple equality.

There is one boundary: rows of field elements are converted once on entry
(`hold`) and once on exit (`release`), and every public routine is a hold,
one operation on held rows, and a release or a count. A held row is exact
and in lowest terms, so equal held rows are equal tuples:

- over GF(p), a `PrimeField`, a row of n entries with n >= `_PACKED_WIDTH`
  is (x, n), the entries packed into one non-negative int x, entry j in
  the 64-bit slot j (bits 64 j to 64 j + 63). A slot has room for one entry
  and `_headroom(p)` = (2^64 - p) // (p - 1)^2 products of two entries on
  top of it: 2^16 near 2^24, and 4 at 2^31 - 1, the largest prime up to
  `MAX_PRIME`. At rest every slot is reduced into [0, p), so equal rows are
  equal ints. A narrower row is (ints in [0, p), 1): its row operations
  cost less than packing it. The width of a row alone decides its format,
  so the rows of one matrix share it. Ints in the input are lifted; an
  `FpElement` of another characteristic raises `ValueError("mixed
  characteristics ...")` and any other entry `TypeError`, as `FpElement`
  arithmetic does.
- over Q, a `RationalField`: (integer row, d), the row divided by d > 0,
  with no common factor of d and all the entries. An entry that is neither
  an int nor a `Fraction` raises `TypeError`. Elimination is fraction-free
  (Bareiss 1968; Geddes, Czapor and Labahn 1992) on rows divided by their
  content, and an echelon row leaves held over its pivot.

Packed rows follow Dumas, Fousse and Salvy (2011) and the delayed reduction
of Dumas, Giorgi and Pernet (2008). Slot values go into and out of the ints
through `struct`, in one place (`_pack`, `_unpack`, `_pack_rows`,
`_unpack_rows`). A row update is one multiply-add of big ints,
x + (p - c) y, which keeps every slot non-negative and leaves the cleared
slot a multiple of p. The packed elimination reads a slot mod p only at the
pivot column, unpacks and scales only the pivot row, reduces every row after
each `_headroom(p)` pivots (a row takes at most one update per pivot), so no
input size overflows a slot, and leaves the rows unreduced for its caller to
reduce what it keeps. A packed product (`held_combine` with B's rows
packed) sums one multiply-add of B's packed rows per coefficient of A and
reduces each output row once, and after every `_headroom(p)` terms if it
sums more; `held_product` over GF(p) takes one sum of products per entry,
or for more than one row and `_PACKED_WIDTH` columns or more packs the
columns' transpose and sums its rows. Two held matrices go side by side
for an elimination in one way (`_joined`), and echelon rows come back as
held rows in one way (`_split`).

Each routine reads its field at one dispatch point (`_word_modulus`).
`matmul`, `mat_vec` and `vec_mat` take no field, so they read it off the
first entry, in the left factor and then the right, that is not a plain
int: an `FpElement` of p means GF(p), any other entry means Q. So they
return `FpElement`s or `Fraction`s whatever mix of ints came in. An empty
factor holds no entry and the field is read off the other; with no entry
at all the product is over Q. Over Q a product takes one `dot` per entry;
over GF(p) it calls no `dot`. They serve code that works on field elements
by design: `Isometry.apply`, `compose_isometries`, the asymmetry pair and
the oracles' generators. A form pairs on the Gram matrices it keeps held.

A caller that chains many steps holds its rows itself and works on them
with `held_product` (the matrix of `dot(row, col)`, A C^T),
`held_combine` (A B, B given by its rows), `held_transpose`,
`held_divide`, `held_rref`, `held_rank`, `held_nullspace`,
`held_intersect`, `held_complement_rows`, `held_left_divide` and
`held_coordinates`; `held_ints` builds held rows straight from rows of
plain ints. `rref`, `rank`, `nullspace`, `complement_rows`,
`reduce_against` and `inverse` share their bodies with `held_rref`,
`held_rank`, `held_nullspace`, `held_complement_rows`, `held_coordinates`
and `held_left_divide`. Held rows are canonical, so a caller compares them,
zeros included, with `==`. The format is private to this module: other
modules only pass held rows (and tuples of them) around, as the symplectic
completion and the orthogonal calculus do, and keep them (a `Submodule`
is its echelon rows, and a `BilinearForm` keeps its Gram matrices and the
factorization of the last projection). `release` makes one field element
per entry.

Every routine that eliminates does so once. The nullspace is one
elimination that scans the columns right to left, whose back
substitutions are the canonical basis already (`_nullspace`). The
intersection of two row spaces is one Zassenhaus elimination of the rows
[A | A] and [B | 0]: the echelon rows whose pivot falls in the right half
are (0, w), and the w are the reduced echelon basis of the intersection.
M^-1 R is one elimination of [M | R] (`held_left_divide`), and the inverse
of a square M is M^-1 I. The rows of a big space that complement a small
one in a greedy scan are the pivot columns past the small rows of one
elimination of the transposed stack [small; big] (`held_complement_rows`).

`kernel_stats()` counts the calls by field, the rows converted on entry,
the entries built on exit, the eliminations run and the packed
multiply-adds made.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import attrgetter, mul

from .fields import FpElement, PrimeField

_COUNTS = {
    "gfp": 0, "rational": 0, "rows_in": 0, "entries_out": 0, "eliminations": 0,
    "multiply_adds": 0,
}
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")
# over GF(p), rows of at least this many entries are packed: the orthogonal
# calculus at ranks 8 to 12 (`calculus_gf`) works above it, scenarios at
# ranks 2 to 4 (`scenario_wide`) below it
_PACKED_WIDTH = 8


def kernel_stats() -> dict:
    """Calls since import by field: `gfp` (over GF(p)) and `rational`
    (integer rows, over Q). A call counts where it dispatches; the
    eliminations it makes inside are part of it and are not counted again
    as calls. Beside the calls, `rows_in` counts the rows (and a product's
    columns) converted on entry, `entries_out` the field elements built on
    exit, `eliminations` the runs of the one elimination every echelon form,
    rank, nullspace, solve, inverse, intersection and complement goes
    through, and `multiply_adds` the multiply-adds of packed rows over
    GF(p): one per row update of a packed elimination and one per
    coefficient of the left factor of a packed product."""
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


# -- packed rows over GF(p) ------------------------------------------------------


def _packs(width: int, p: int) -> bool:
    """Whether rows of `width` entries are packed: over GF(p), from
    `_PACKED_WIDTH` entries on."""
    return bool(p) and width >= _PACKED_WIDTH


def _headroom(p: int) -> int:
    """The products of two entries of GF(p) that a 64-bit slot has room for
    on top of one entry, h with (p - 1) + h (p - 1)^2 < 2^64: the
    multiply-adds a packed row takes between reductions."""
    return ((1 << 64) - p) // (p - 1) ** 2


class _Layouts(dict):
    """k -> the `struct` layout of k little-endian 64-bit words."""

    def __missing__(self, k: int) -> struct.Struct:
        layout = self[k] = struct.Struct(f"<{k}Q")
        return layout


_WORDS = _Layouts()


def _pack(values) -> int:
    """Slot values below 2^64 as one packed row."""
    return int.from_bytes(_WORDS[len(values)].pack(*values), "little")


def _unpack(x: int, n: int):
    """The n slot values of one packed row, reduced or not."""
    return _WORDS[n].unpack(x.to_bytes(8 * n, "little"))


def _pack_rows(rows, n: int) -> list:
    """Rows of n slot values below 2^64 as packed rows."""
    pack = _WORDS[n].pack
    return [int.from_bytes(pack(*row), "little") for row in rows]


def _unpack_rows(xs, n: int) -> list:
    """The slot values of the packed rows xs of n slots each, reduced or
    not, one tuple per row."""
    unpack, size = _WORDS[n].unpack, 8 * n
    return [unpack(x.to_bytes(size, "little")) for x in xs]


def _reduce_rows(xs, n: int, p: int) -> list:
    """The packed rows xs of n slots each with every slot reduced mod p."""
    return _pack_rows([[v % p for v in row] for row in _unpack_rows(xs, n)], n)


def _value_rows(rows, n: int, p: int) -> list:
    """Rows over GF(p) as lists of reduced values: packed rows of n slots
    each unpacked and reduced, list rows (reduced already) as they are."""
    if rows and type(rows[0]) is int:
        return [[v % p for v in row] for row in _unpack_rows(rows, n)]
    return rows


def _is_packed(held) -> bool:
    """Whether the rows of a held matrix over GF(p) are packed."""
    return bool(held) and type(held[0][0]) is int


def _values(held, p: int) -> list:
    """The rows of a held matrix over GF(p), reduced at rest, as sequences
    of ints in [0, p)."""
    if _is_packed(held):
        return _unpack_rows([x for x, _ in held], held[0][1])
    return [row for row, _ in held]


def _held(rows: list, p: int) -> tuple:
    """Rows of ints in [0, p) as held rows over GF(p), each packed if it is
    wide enough (`_packs`); rows of one width are packed all at once."""
    if len(set(map(len, rows))) > 1:
        return tuple([held for row in rows for held in _held([row], p)])
    n = len(rows[0]) if rows else 0
    if _packs(n, p):
        return tuple([(x, n) for x in _pack_rows(rows, n)])
    return tuple([(row, 1) for row in rows])


# -- integer rows over Q --------------------------------------------------------


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


def _primitive(row: list) -> list:
    """An integer row divided by its content; a zero row stays as it is."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduced(row: list, den: int):
    """The exact row `row` / `den` as a held row: over a positive
    denominator that shares no factor with all the entries."""
    if den < 0:
        row, den = [-x for x in row], -den
    g = gcd(den, *row)
    return ([x // g for x in row], den // g) if g > 1 else (row, den)


# -- the bodies -----------------------------------------------------------------


def _lifted(rows, p: int) -> list:
    """Rows of field elements over GF(p) as lists of ints in [0, p): the
    conversion on entry."""
    out = []
    for row in rows:
        ints = [x.val for x in row if type(x) is FpElement and x.p == p]
        out.append(ints if len(ints) == len(row) else [_lift(x, p) for x in row])
    _COUNTS["rows_in"] += len(out)
    return out


def _hold(rows, p) -> tuple:
    """The body of `hold`: the one conversion on entry."""
    if not p:
        held = tuple(map(_cleared, rows))
        _COUNTS["rows_in"] += len(held)
        return held
    return _held(_lifted(rows, p), p)


def _from_ints(rows, p) -> tuple:
    """The body of `held_ints`."""
    if p:
        return _held([[x % p for x in row] for row in rows], p)
    return tuple([(list(row), 1) for row in rows])


def _release(held, p) -> tuple:
    """The body of `release`: the one conversion on exit, of any exact held
    rows, over Q in lowest terms or not."""
    if not p:
        _COUNTS["entries_out"] += sum([len(row) for row, _ in held])
        return tuple([tuple([Fraction(v, d) for v in row]) for row, d in held])
    rows = _values(held, p)
    _COUNTS["entries_out"] += sum(map(len, rows))
    return tuple([tuple(map(FpElement, row, repeat(p))) for row in rows])


def _work(held, p):
    """Held rows as `_eliminate` takes them, with their common width: over
    GF(p) the packed ints or the lists, over Q the integer rows divided by
    their content, which drops the denominator an elimination has no use
    for."""
    if _is_packed(held):
        if len({n for _, n in held}) > 1:
            raise ValueError("rows of unequal length")
        return [x for x, _ in held], held[0][1]
    work = [row if p else _primitive(row) for row, _ in held]
    return work, len(work[0]) if work else 0


def _eliminate(work: list, cols: range, p):
    """Reduced echelon form of the rows `work`, as `_work` gives them (the
    list's rows are replaced, never changed in place), with all the columns
    scanned in the order of `cols`, left to right or right to left: (pivot
    rows, pivot columns in the order found). Over GF(p) the pivot row is
    scaled by `pow(a, -1, p)`, and packed rows leave packed and unreduced
    (`_eliminate_packed`). Over Q a row x is cleared by the pivot row y as
    s x - t y, for s = y[col] and t = x[col] divided by their gcd, over the
    new row's content, so rows stay primitive and each pivot row is its
    reduced echelon row times its pivot."""
    _COUNTS["eliminations"] += 1
    if not work:
        return [], ()
    if p and type(work[0]) is int:
        return _eliminate_packed(work, cols, p)
    width = len(work[0])
    if any(len(row) != width for row in work):
        raise ValueError("rows of unequal length")
    n = len(work)
    pivots = []
    r = 0
    for col in cols:
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
        # the row update is written out here: a call per updated row costs
        # about 4 % of an elimination over GF(p)
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


def _eliminate_packed(work: list, cols: range, p: int):
    """`_eliminate` on packed rows over GF(p): the pivot rows leave with
    every slot congruent mod p to its reduced echelon entry, not reduced. A
    row takes at most one multiply-add per pivot, so every row is reduced
    after each `_headroom(p)` pivots."""
    width = len(cols)
    mask = (1 << 64) - 1
    headroom = _headroom(p)
    n = len(work)
    made = 0
    pivots = []
    r = 0
    for col in cols:
        shift = 64 * col
        for i in range(r, n):
            a = (work[i] >> shift & mask) % p
            if a:
                break
        else:
            continue
        row = work[i]
        work[i] = work[r]
        inverse = pow(a, -1, p)
        row = work[r] = _pack([v * inverse % p for v in _unpack(row, width)])
        for i, x in enumerate(work):
            c = (x >> shift & mask) % p
            if c and i != r:
                work[i] = x + (p - c) * row
                made += 1
        pivots.append(col)
        r += 1
        if r == n:
            break
        if r % headroom == 0:
            work = _reduce_rows(work, width, p)
    _COUNTS["multiply_adds"] += made
    return work[:r], tuple(pivots)


def _joined(left, right, p) -> list:
    """The work rows [L | R] for `_eliminate` of the held rows L and R side
    by side. Over GF(p), when R's rows are packed, L's rows (packed first if
    they are lists) and R's are joined by shift-or; otherwise the rows are
    lists. Over Q each row pair is brought over the lcm of its denominators
    and divided by its content."""
    if p and _is_packed(right):
        xs, at = _work(left, p)
        if not _is_packed(left):
            xs = _pack_rows(xs, at)
        shift = 64 * at
        return [x | y << shift for x, (y, _) in zip(xs, right)]
    if p:
        return [[*u, *v] for u, v in zip(_values(left, p), _values(right, p))]
    work = []
    for (u, d), (v, e) in zip(left, right):
        den = lcm(d, e)
        work.append(_primitive([x * (den // d) for x in u] + [x * (den // e) for x in v]))
    return work


def _split(ech, pivots, at: int, width: int, p) -> tuple:
    """The entries from column `at` on, the last `width`, of the echelon
    rows `ech` from `_eliminate` as held rows, each divided by its pivot (at
    its column in `pivots`). Over GF(p) pivots are 1, and list rows stay
    lists, as the last `width` entries were on entry. Over Q a row has
    content 1 and left of `at` only zeros and its pivot, so it is in lowest
    terms over the pivot, its sign turned to make that positive."""
    if not p:
        out = []
        for row, pc in zip(ech, pivots):
            a = row[pc]
            out.append((row[at:], a) if a > 0 else ([-x for x in row[at:]], -a))
        return tuple(out)
    if ech and type(ech[0]) is int:
        shift = 64 * at
        return tuple([(x, width) for x in _reduce_rows([x >> shift for x in ech], width, p)])
    return tuple([(row[at:], 1) for row in ech])


def _rref(held, p):
    """The body of `held_rref`."""
    work, width = _work(held, p)
    ech, pivots = _eliminate(work, range(width), p)
    return _split(ech, pivots, 0, width, p), pivots


def _back_substitute(ech, pivots, j, width: int, p):
    """The row x of length `width` with x[pc] = ech[i][j] / ech[i][pc] at
    each pivot column pc, for echelon rows as lists: over Q, over the lcm of
    the pivots it divides by; over GF(p) pivots are 1."""
    den = 1 if p else lcm(*[row[pc] for row, pc in zip(ech, pivots) if row[j]])
    x = [0] * width
    for row, pc in zip(ech, pivots):
        x[pc] = row[j] * (den // row[pc])
    return x, den


def _rank(held, p) -> int:
    """The body of `held_rank`."""
    work, width = _work(held, p)
    return len(_eliminate(work, range(width), p)[1])


def _length(held_row) -> int:
    """The number of entries of one held row, packed or not."""
    row, n = held_row
    return n if type(row) is int else len(row)


def _nullspace(held, width: int, p) -> tuple:
    """The body of `held_nullspace`, in one elimination that scans the
    columns right to left. In that reduced echelon form a row is zero right
    of its pivot. So for a free column j the vector e_j minus the
    combination of pivot columns that column j is leads at j and is zero at
    every other free column: taken for the free columns from left to right,
    these vectors are already the canonical reduced echelon basis. Each is
    held over its entry at j."""
    for length in map(_length, held):
        if length != width:
            raise ValueError(f"a row of length {length} in a nullspace of width {width}")
    work, _ = _work(held, p)
    ech, pivots = _eliminate(work, range(width - 1, -1, -1), p)
    if p:
        ech = _value_rows(ech, width, p)
    basis = []
    for j in range(width):
        if j not in pivots:
            x, den = _back_substitute(ech, pivots, j, width, p)
            x[j] = -den  # the vector is den e_j - x
            basis.append((x, den))
    if p:
        return _held([[-y % p for y in x] for x, _ in basis], p)
    return tuple([_reduced([-y for y in x], den) for x, den in basis])


def _sums(coeffs, packed: list, width: int, p: int) -> list:
    """Per sequence of coefficients c_k (ints in [0, p)), the sum of c_k
    times the reduced packed row y_k of `packed`, each of `width` slots, as
    a reduced packed row: one multiply-add per term, and a reduction at the
    end and, past `_headroom(p)` terms, after every `_headroom(p)` of them."""
    k = len(packed)
    h = _headroom(p)
    _COUNTS["multiply_adds"] += len(coeffs) * k
    if k <= h:
        return _reduce_rows([sum(map(mul, u, packed)) for u in coeffs], width, p)
    out = []
    for u in coeffs:
        acc = 0
        for i in range(0, k, h):
            terms = sum(map(mul, u[i:i + h], packed[i:i + h]))
            acc = _reduce_rows([acc + terms], width, p)[0]
        out.append(acc)
    return out


def _same_length(u, v) -> None:
    """Raise as `dot` does when two factors' inner lengths differ."""
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")


def _dots(rows: list, cols: list, p: int) -> tuple:
    """The held matrix over GF(p) of the dots of the sequences `rows` with
    the sequences `cols` of ints in [0, p): `sum(map(mul, u, v)) % p` per
    entry, or, for more than one row and `_PACKED_WIDTH` columns or more,
    the sums of the rows' coefficients times the packed rows of the
    columns' transpose (`_sums`), which cost a packing of that transpose."""
    k = len(cols)
    if rows and cols:
        _same_length(rows[0], cols[0])
    if len(rows) > 1 and _packs(k, p):
        packed = _pack_rows(list(zip(*cols)), k)
        return tuple([(x, k) for x in _sums(rows, packed, k, p)])
    return _held([[sum(map(mul, u, v)) % p for v in cols] for u in rows], p)


def _product(rows, cols, p) -> tuple:
    """The body of `held_product`: over GF(p) `_dots` on the rows'
    values; over Q one `dot` on ints per entry, entry (i, j) being
    dot(a_i, b_j) / (d_i e_j), so row i is held over d_i times the lcm of
    the e_j, each dot scaled by that lcm over e_j."""
    if p:
        return _dots(_values(rows, p), _values(cols, p), p)
    right = [v for v, _ in cols]
    den = lcm(*[e for _, e in cols])
    scales = [den // e for _, e in cols]
    return tuple(
        _reduced([dot(u, v) * s for v, s in zip(right, scales)], d * den) for u, d in rows
    )


def _combine(rows, right, p) -> tuple:
    """The body of `held_combine`: the held rows of A B for the held rows of
    A and of B. Over GF(p), with B's rows packed, row i is the sum of a_ik
    times B's packed row k (`_sums`). Otherwise it is the dots of a_i with
    B's columns, all over the lcm E of B's denominators, so that over Q row
    i is held over d_i E."""
    coeffs = _values(rows, p) if p else [u for u, _ in rows]
    if coeffs and right:
        _same_length(coeffs[0], right)
    if p and _is_packed(right):
        width = right[0][1]
        packed = [y for y, _ in right]
        return tuple([(x, width) for x in _sums(coeffs, packed, width, p)])
    den = lcm(*[e for _, e in right])
    columns = list(zip(*[v if e == den else [x * (den // e) for x in v] for v, e in right]))
    if p:
        return tuple([([sum(map(mul, u, v)) % p for v in columns], 1) for u in coeffs])
    return tuple([_reduced([dot(u, v) for v in columns], d * den) for u, d in rows])


def _transpose(held, p) -> tuple:
    """The body of `held_transpose`: over Q each entry is brought over the
    lcm of the row denominators."""
    if p:
        return _held([list(col) for col in zip(*_values(held, p))], p)
    den = lcm(*[d for _, d in held])
    scaled = [[x * (den // d) for x in row] for row, d in held]
    return tuple(_reduced(list(col), den) for col in zip(*scaled))


def _solve(aug, width: int, p):
    """The body of `solve`: one solution of the system whose
    held augmented rows are `aug` (the coefficients, then the right-hand side
    at column `width`), held, or None if it is inconsistent."""
    work, total = _work(aug, p)
    ech, pivots = _eliminate(work, range(total), p)
    if pivots and pivots[-1] == width:
        return None  # a pivot in the rhs column: inconsistent
    if p:
        x, _ = _back_substitute(_value_rows(ech, total, p), pivots, width, width, p)
        return _held([x], p)[0]
    return _reduced(*_back_substitute(ech, pivots, width, width, p))


def _intersect(a, b, width: int, p) -> tuple:
    """The body of `held_intersect` (Zassenhaus): one elimination of the
    rows [a | a] and [b | 0]. A row (u, w) of their span has u = x + y and
    w = x for x in rowspace(a) and y in rowspace(b), so u = 0 exactly when
    w = -y lies in both; in reduced echelon form the rows with a pivot in the
    right half are (0, w), and their w are the reduced echelon basis of the
    intersection."""
    zeros = _from_ints([[0] * width], p) * len(b)
    ech, pivots = _eliminate(_joined((*a, *b), (*a, *zeros), p), range(2 * width), p)
    first = next((i for i, pc in enumerate(pivots) if pc >= width), len(pivots))
    return _split(ech[first:], pivots[first:], width, width, p)


def _left_divide(m, rhs, p):
    """The body of `held_left_divide`."""
    r = len(m)
    width = _length(rhs[0]) if rhs else 0
    ech, pivots = _eliminate(_joined(m, rhs, p), range(r + width), p)
    rank = sum(pc < r for pc in pivots)
    return rank, _split(ech, pivots, r, width, p) if rank == r else None


def _complement(held, k: int, p) -> tuple:
    """The body of `held_complement_rows`: the indices i of the rows k + i
    of `held` that raise the rank of the rows before them, the first k rows
    being those of the small space. They are the pivot columns past k of one
    elimination of the transpose, since a column is a pivot column exactly
    when it is not a combination of the columns before it."""
    if len(set(map(_length, held))) > 1:
        raise ValueError("rows of unequal length")
    work, _ = _work(_transpose(held, p), p)
    _, pivots = _eliminate(work, range(len(held)), p)
    return tuple(pc - k for pc in pivots if pc >= k)


def _coordinates(echelon, target, p):
    """The body of `held_coordinates`: the coordinates of the held row
    `target` over the held reduced echelon rows `echelon`. They are the
    row's entries at the pivot columns, held, if those times the echelon
    rows give the row back (`_combine`), else None (the row lies outside
    their span). A row of another length than theirs raises `ValueError`."""
    if echelon and _length(target) != _length(echelon[0]):
        raise ValueError(
            f"a vector of length {_length(target)} over rows of length {_length(echelon[0])}"
        )
    rows = _values(echelon, p) if p else [row for row, _ in echelon]
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    if p:
        (values,) = _values((target,), p)
        coeffs = _held([[values[pc] for pc in pivots]], p)[0]
        if not pivots:
            return None if any(values) else coeffs
    else:
        coeffs = _reduced([target[0][pc] for pc in pivots], target[1])
        if not pivots:
            return None if any(target[0]) else coeffs
    return coeffs if _combine((coeffs,), echelon, p) == (target,) else None


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
    if p:
        return _release(_dots(_lifted(rows, p), _lifted(cols, p), p), p)
    return _release(_product(_hold(rows, p), _hold(cols, p), p), p)


def matmul(a, b):
    return _dot_matrix(a, transpose(b))


def dot(u, v):
    """The sum of the entries' products, the int 0 for empty vectors."""
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    terms = map(mul, u, v)
    return sum(terms, next(terms, 0))


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
    """Matrix inverse, or None if singular: M^-1 I, one elimination of
    [M | I] (`held_left_divide`). A matrix that is not square raises
    `ValueError`."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError(f"no inverse of a matrix of {n} rows with a row of length {len(row)}")
    p = _word_modulus(field)
    ident = _from_ints([[int(i == j) for j in range(n)] for i in range(n)], p)
    _, inv = _left_divide(_hold(m, p), ident, p)
    return None if inv is None else _release(inv, p)


def reduce_against(echelon, v, field):
    """Express v over echelon rows: returns coefficients, or None if outside.

    Requires echelon to be the output of rref. The coefficient of row i is
    just v at row i's pivot column, since pivot columns are elsewhere zero,
    so v lies in the span iff those coefficients times the held rows give v
    held (`held_coordinates`). The coefficients are v's own entries. A v of
    another length than the rows raises `ValueError`.
    """
    p = _word_modulus(field)
    (target,) = _hold((v,), p)
    if _coordinates(_hold(echelon, p), target, p) is None:
        return None
    return tuple(v[next(j for j, x in enumerate(row) if x)] for row in echelon)


def complement_rows(sub_rows, big_rows, field):
    """Rows of big_rows completing sub_rows to a basis of their joint span:
    scanning big_rows in order, those that raise the rank. With sub_rows
    inside the span of big_rows they are a basis of a complement of the
    small space in the big one (`held_complement_rows`)."""
    p = _word_modulus(field)
    kept = _complement(_hold(sub_rows, p) + _hold(big_rows, p), len(sub_rows), p)
    return tuple(tuple(big_rows[i]) for i in kept)


# -- the held-row interface -------------------------------------------------------


def hold(rows, field) -> tuple:
    """Rows of field elements as held rows: the one conversion on entry."""
    return _hold(rows, _word_modulus(field))


def release(held, field) -> tuple:
    """Held rows back as tuples of field elements: the one conversion on
    exit."""
    return _release(held, _word_modulus(field))


def held_product(rows, cols, field) -> tuple:
    """The held matrix of `dot(row, col)` over the held rows `rows` and
    `cols` (A C^T)."""
    return _product(rows, cols, _word_modulus(field))


def held_combine(a, b, field) -> tuple:
    """The held matrix A B from the held rows of A and of B: over GF(p),
    with B's rows packed, one multiply-add of B's packed rows per
    coefficient of A. An empty B gives rows of no entries."""
    return _combine(a, b, _word_modulus(field))


def held_ints(rows, field) -> tuple:
    """Rows of plain ints as held rows, built directly: no field element is
    made and no row is converted on entry (`rows_in` does not move)."""
    return _from_ints(rows, _word_modulus(field))


def held_transpose(held, field) -> tuple:
    """The columns of a held matrix as held rows."""
    return _transpose(held, _word_modulus(field))


def held_divide(held, by, field) -> tuple:
    """Every held row divided by the one entry of the 1 x 1 held matrix
    `by`, which must not be zero."""
    p = _word_modulus(field)
    (((n,), d),) = by
    if p and _is_packed(held):
        c = pow(n, -1, p)
        k = held[0][1]
        return tuple([(x, k) for x in _reduce_rows([y * c for y, _ in held], k, p)])
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
    """The canonical echelon basis of the intersection of the row spaces of
    the held rows a and b of length `width`, held."""
    return _intersect(a, b, width, _word_modulus(field))


def held_complement_rows(sub, big, field) -> tuple:
    """`complement_rows` on held rows: the held rows of `big` it keeps."""
    kept = _complement(tuple(sub) + tuple(big), len(sub), _word_modulus(field))
    return tuple(big[i] for i in kept)


def held_left_divide(m, rhs, field):
    """For a square held matrix M and held rows R as many as its rows, one
    elimination of [M | R] (`_joined`): (the rank of M, M^-1 R held if M is
    invertible, else None). The rank is the number of pivots in M's
    columns; when it is full the reduced echelon form is [I | M^-1 R]."""
    return _left_divide(m, rhs, _word_modulus(field))


def held_coordinates(echelon, v, field):
    """`reduce_against` on held rows: the coordinates of the held row v over
    the held reduced echelon rows `echelon`, held, or None if v lies outside
    their span."""
    return _coordinates(echelon, v, _word_modulus(field))
