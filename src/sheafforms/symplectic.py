"""Constructive symplectic geometry: basis extension, normal form,
hyperbolic envelopes, and isometry extension.

Everything here works on alternating non-degenerate forms over the locally
constant model, where a global construction is a per-component construction
glued along the component table. The algorithms are deterministic: ambient
complements are canonical echelon subspaces, partners are chosen as the least
echelon basis row with non-vanishing pairing on each component.

Every construction is one certified Gram-Schmidt completion, `_complete`.
It has one boundary, as `linalg` has: it takes the given family as held
rows (index -> one held row per component) and returns the held rows P^T of
the basis, which it certifies by congruence, P^T G P == A_2n on every
component (the check `certify_basis` makes), and beside them the rows of
P^T G the congruence computes from P; a completion that fails it, or
whose ambient complement loses a row, raises `SelfCheckFailed`, so every
basis it returns is certified. Sections are checked, held and
glued only at the entry points: `gram_schmidt_extend` (through `_extend`,
the one entry that takes sections and checks their pairing relations)
holds the given sections once and glues the basis around them verbatim,
and `normal_form`, `hyperbolic_decomposition` and `hyperbolic_envelope`
glue what they return. Field elements are built only for sections found.

Each pair is found in the orthogonal complement of the pairs before it (the
ambient), held per component as a reduced echelon basis A. Fixing a pair
shrinks it without projecting and eliminating: with C the reduced echelon
nullspace of the pairings of the pair with the rows of A, C A is the reduced
echelon basis of the new ambient, since x A has the entry x_t at the pivot
column of row t of A. The partner search takes its constrained rows the same
way. With no matched pairs given, the first ambient is the rows the
completion starts from: the identity, or for a Witt extension the rows of g.

The normal form is the matrix of a completion of the empty family; a
hyperbolic envelope is the first k planes of the completion of f's kept
echelon rows r_1..r_k, whose relations its isotropy check decides. Every
isometry is `_carry`, M = P' W P^{-1} between the completions of two held
families, so M^T G' M = G needs no further check: W is the identity for a
standard isometry and a Witt extension, and a random W with W^T A_2n W =
A_2n (`between`) for `oracles.random_symplectic_isometry`. P^{-1} = A^T P^T
G is read off the rows of P^T G the congruence computes, as -s_1 G, r_1 G,
-s_2 G, ..., with no elimination and no product. A Witt extension works in
the coordinates of f's held echelon basis B: rad f is R B, for R the
nullspace of B G B^T, the matrix its hypothesis check compares; the pairs
of g (f = g perp rad f) are one completion run inside the rows of B that
complement rad f (`_complete`'s `start`); and sigma sends x B to x Im. Its
two families stay held, and their relations hold by construction, so none
is checked. The public entry points validate their forms
(`validate_symplectic`) once; the private helpers do not validate again. A
form keeps what is decided about it in its memo (`bilinear._kept`), where
this module declares two facts: that it passed the validation (which ranks
the Gram matrices the form holds), and the completion of the empty family
(its held rows P^T and P^T G), which every construction on the empty family
shares (`form_memo_stats()` counts both). A failed validation is not kept.
The report layer and the oracles call `certify_witt` and `certify_envelope`;
`Isometry.holds`, the check of `certify_witt`, decides M^T G' M = G on held
rows: the pairings of the rows of M^T under G' (`bilinear._pairings`)
against G.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .bilinear import BilinearForm, _kept, _keeps, _pairings, _zeros
from .errors import (
    Degenerate,
    FreenessViolated,
    IsometryHypothesisViolated,
    ModuleMismatch,
    NotAlternating,
    NotTotallyIsotropic,
    OddRank,
    OpenMismatch,
    PartialRelationsViolated,
    PartnerNotFound,
    RankMismatch,
    SelfCheckFailed,
)
from .modules import FreeModule, ModuleSection, Submodule, full_submodule

_keeps("symplectic", "completion")


# -- types --------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFamily:
    """Index-keyed sections r_i (i in I) and s_j (j in J), 1-based indices,
    expected to satisfy the pairing relations phi(r_i, r_j) = phi(s_i, s_j) = 0
    and phi(r_i, s_j) = delta_ij."""

    r: tuple = ()  # sorted ((index, section), ...)
    s: tuple = ()

    @staticmethod
    def of(r=None, s=None) -> "PartialFamily":
        r = dict(r or {})
        s = dict(s or {})
        return PartialFamily(
            tuple(sorted(r.items())), tuple(sorted(s.items()))
        )

    @property
    def r_dict(self):
        return dict(self.r)

    @property
    def s_dict(self):
        return dict(self.s)


@dataclass(frozen=True)
class SymplecticBasis:
    module: FreeModule
    r: tuple  # sections r_1 .. r_n
    s: tuple  # sections s_1 .. s_n

    @property
    def n(self) -> int:
        return len(self.r)

    def interleaved(self):
        out = []
        for a, b in zip(self.r, self.s):
            out.append(a)
            out.append(b)
        return out


@dataclass(frozen=True)
class HyperbolicPlane:
    r: ModuleSection
    s: ModuleSection
    span: Submodule


@dataclass(frozen=True)
class Isometry:
    source: BilinearForm
    target: BilinearForm
    matrices: tuple  # per X-component; columns act on coordinate columns

    def _check_shape(self) -> None:
        """One square matrix of the module's rank per component, or a named
        error."""
        ncomp = len(self.source.gram)
        if not len(self.matrices) == ncomp == len(self.target.gram):
            raise ModuleMismatch(
                f"{len(self.matrices)} isometry matrices for {ncomp} components"
            )
        rank = self.source.module.rank
        for c, m in enumerate(self.matrices):
            if len(m) != rank or any(len(row) != rank for row in m):
                raise RankMismatch(
                    f"component {c}: isometry matrix is not {rank} x {rank}", component=c
                )

    def apply(self, section: ModuleSection) -> ModuleSection:
        if section.module != self.source.module:
            raise ModuleMismatch("section does not belong to the source module")
        self._check_shape()
        space = self.source.module.space
        refinement = space.component_refinement(section.open, space.x_ref)
        vectors = tuple(
            linalg.mat_vec(self.matrices[xc], v)
            for v, xc in zip(section.vectors, refinement)
        )
        return ModuleSection(self.target.module, section.open, vectors)

    def holds(self) -> bool:
        """The defining equation M^T G' M = G on every component, with one
        square matrix of the module's rank per component: the pairings of
        the rows of M^T, held once, under G' against G, both held."""
        try:
            self._check_shape()
        except (ModuleMismatch, RankMismatch):
            return False
        field = self.source.module.field
        mts = (linalg.hold(linalg.transpose(m), field) for m in self.matrices)
        grams = zip(mts, _gram_columns(self.target), self.source._held_grams())
        return all(_pairings(mt, mt, cols, field) == g for mt, cols, (g, _) in grams)


def compose_isometries(first: Isometry, second: Isometry) -> Isometry:
    if first.target != second.source:
        raise ModuleMismatch("isometries do not compose: target/source forms differ")
    first._check_shape()
    second._check_shape()
    mats = tuple(
        linalg.matmul(m2, m1) for m1, m2 in zip(first.matrices, second.matrices)
    )
    return Isometry(first.source, second.target, mats)


def invert_isometry(iso: Isometry) -> Isometry:
    iso._check_shape()
    field = iso.source.module.field
    mats = []
    for c, m in enumerate(iso.matrices):
        inv = linalg.inverse(m, field)
        if inv is None:
            # `Isometry` is not validated, so its matrices may be singular
            raise Degenerate(f"component {c}: isometry matrix is singular", component=c)
        mats.append(inv)
    return Isometry(iso.target, iso.source, tuple(mats))


# -- validation ---------------------------------------------------------------

def validate_symplectic(form: BilinearForm) -> None:
    """Alternating on every component, even rank, full-rank Gram matrices.
    Each skew pair is checked once, at (i, j) with j > i: the check at (j, i)
    is the same, and the row-major scan reaches (min, max) first. The rank
    is taken on the Gram matrices the form holds. A pass is kept on the form,
    so each form is validated once; a failure is not kept, and raises the
    same error on every call."""
    _kept(form, "symplectic", lambda: _check_symplectic(form))


def _check_symplectic(form: BilinearForm) -> bool:
    """The body of `validate_symplectic`: True, or the first failure."""
    field = form.module.field
    for c, g in enumerate(form.gram):
        n = len(g)
        for i in range(n):
            if g[i][i] != field.zero:
                raise NotAlternating(
                    f"component {c}: diagonal entry {i} is non-zero", component=c
                )
            for j in range(i + 1, n):
                if g[i][j] != -g[j][i]:
                    raise NotAlternating(
                        f"component {c}: entry ({i},{j}) is not skew", component=c
                    )
    if form.module.rank % 2 != 0:
        raise OddRank(f"rank {form.module.rank} is odd")
    c = form._singular_component()
    if c is not None:
        raise Degenerate(f"component {c}: Gram matrix is singular", component=c)
    return True


def standard_alternating(rank: int, field):
    """Block-diagonal Gram matrix with blocks [[0,1],[-1,0]]."""
    if rank % 2 != 0:
        raise OddRank(f"rank {rank} is odd")
    return tuple(tuple(map(field.from_int, row)) for row in _alternating_ints(rank))


def _alternating_ints(rank: int) -> list:
    """`standard_alternating` of even rank as rows of ints, as the
    congruence check holds it (`linalg.held_ints`)."""
    rows = []
    for i in range(rank):
        row = [0] * rank
        if i % 2 == 0:
            row[i + 1] = 1
        else:
            row[i - 1] = -1
        rows.append(row)
    return rows


def standard_symplectic_form(module: FreeModule) -> BilinearForm:
    a = standard_alternating(module.rank, module.field)
    return BilinearForm(module, (a,) * len(module.x_components()))


# -- the extension theorem ------------------------------------------------------

def _gram_columns(form: BilinearForm):
    """Per component, the columns of G held."""
    return [cols for _, cols in form._held_grams()]


def _held_vectors(form: BilinearForm, sections):
    """Per component, the vectors of `sections` held, in order."""
    field = form.module.field
    return [
        linalg.hold(tuple(sec.vectors[c] for sec in sections), field)
        for c in range(len(form.gram))
    ]


def _glue(module: FreeModule, per_component_vectors) -> ModuleSection:
    return ModuleSection(module, module.space.x_ref, tuple(per_component_vectors))


def _shrink(field, grams, ambient, sections):
    """Per component, the reduced echelon basis of {w in span(amb) : phi(a,
    w) = 0 for a in `sections`}, held, for `amb` the component's held rows
    of `ambient`, in reduced echelon form, and `sections` held (one row per
    component each). It is C amb, with C the reduced echelon basis of {x :
    phi(a, x amb) = 0}, the nullspace of the pairings of the sections with
    amb: x amb has the entry x_t at the pivot column of row t of amb, so C
    amb is in reduced echelon form already, its pivots those of C carried to
    the pivot columns of amb."""
    if not sections:
        return ambient
    out = []
    for c, (amb, (_, cols)) in enumerate(zip(ambient, grams)):
        avoid = tuple(sec[c] for sec in sections)
        coeffs = linalg.held_nullspace(_pairings(avoid, amb, cols, field), len(amb), field)
        out.append(linalg.held_combine(coeffs, amb, field))
    return out


def _check_ambient(ambient, expected: int) -> None:
    """The ambient complement has `expected` rows on every component."""
    for c, amb in enumerate(ambient):
        if len(amb) != expected:
            raise SelfCheckFailed(
                f"component {c}: the ambient complement has {len(amb)} rows, not {expected}"
            )


def _partner(field, grams, ambient, avoid, given, side, label):
    """On each component, the partner of the held section `given` (an r_k
    when `side` is "r", an s_k when it is "s"): the least echelon basis row w
    of {w in ambient : phi(a, w) = 0 for a in avoid} whose pairing with
    `given` is non-zero, divided by that pairing, phi(r_k, w) or phi(w, s_k),
    so that the pair pairs to 1; all held. One product per component pairs
    `given` with every row. Raises PartnerNotFound when some component has
    no such row (which signals an inconsistent input family)."""
    picks = []
    (zero,) = linalg.held_ints([[0]], field)
    for c, (w_rows, (g, cols)) in enumerate(zip(_shrink(field, grams, ambient, avoid), grams)):
        # phi(r_k, w) = (r_k G) . w and phi(w, s_k) = (s_k G^T) . w, one
        # held row of one entry per w
        v = linalg.held_combine((given[c],), g if side == "r" else cols, field)
        # held rows are canonical, so a non-zero pairing differs from zero
        for w, pairing in zip(w_rows, linalg.held_product(w_rows, v, field)):
            if pairing != zero:
                picks.append(linalg.held_divide((w,), (pairing,), field)[0])
                break
        else:
            raise PartnerNotFound(
                f"no admissible partner for {label} on component {c}", component=c
            )
    return tuple(picks)


def _first_mismatch(field, mats, wants, order):
    """The first position (p, q) of `order` at which some held matrix of
    `mats` differs from its partner in `wants`, or None. The matrices are
    compared whole and released only when some pair differs."""
    if mats == wants:
        return None
    pairs = [(linalg.release(m, field), linalg.release(w, field)) for m, w in zip(mats, wants)]
    for p, q in order:
        if any(m[p][q] != w[p][q] for m, w in pairs):
            return p, q
    return None


def _check_partial_relations(field, grams, rs, ss):
    """phi(r_i, r_j) = phi(s_i, s_j) = 0 and phi(r_i, s_j) = delta_ij for held
    sections (index -> one held row per component): one pairing matrix per
    component against the matrix the relations prescribe, held straight
    from its ints 0 and +-1, whose s-r block follows from the r-s block
    since the form is alternating. When one differs, the first broken pair
    in the scan order r-r, s-s, r-s is the witness."""
    labels = [("r", i) for i in rs] + [("s", j) for j in ss]
    if not labels:
        return
    prescribed = linalg.held_ints(
        [[(1 if a == "r" else -1) if a != b and i == j else 0 for b, j in labels]
         for a, i in labels],
        field,
    )
    sections = [*rs.values(), *ss.values()]
    mats = []
    for c, (_, cols) in enumerate(grams):
        rows = tuple(sec[c] for sec in sections)
        mats.append(_pairings(rows, rows, cols, field))
    r_pos, s_pos = range(len(rs)), range(len(rs), len(labels))
    blocks = ((r_pos, r_pos), (s_pos, s_pos), (r_pos, s_pos))
    order = [(p, q) for ps, qs in blocks for p in ps for q in qs]
    broken = _first_mismatch(field, mats, [prescribed] * len(mats), order)
    if broken is not None:
        (a, i), (b, j) = labels[broken[0]], labels[broken[1]]
        raise PartialRelationsViolated(
            f"phi({a}_{i}, {b}_{j}) != {int(a != b and i == j)}", pair=((a, i), (b, j))
        )


def _congruent(form: BilinearForm, gram_cols, rows):
    """P^T G P == A_2n on every component, with the held rows of P^T (the
    interleaved basis r_1, s_1, r_2, ..., 2n rows per component) and the
    held columns of G per component: when it holds, the held rows r_1 G,
    s_1 G, ... of P^T G it computes from P per component, else None."""
    field = form.module.field
    target = linalg.held_ints(_alternating_ints(len(rows[0]) if rows else 0), field)
    pgs = tuple(linalg.held_product(p, cols, field) for p, cols in zip(rows, gram_cols))
    holds = all(linalg.held_product(pg, p, field) == target for pg, p in zip(pgs, rows))
    return pgs if holds else None


def gram_schmidt_extend(form: BilinearForm, partial: PartialFamily) -> SymplecticBasis:
    """Extend a partial family to a full symplectic basis r_1..r_n, s_1..s_n
    with phi(r_i, r_j) = phi(s_i, s_j) = 0 and phi(r_i, s_j) = delta_ij.

    The given sections are kept verbatim at their prescribed indices. The
    construction completes each unmatched index by a partner search inside
    the orthogonal complement of everything already fixed (constrained to be
    orthogonal to the still-unmatched sections), then fills the remaining
    indices with fresh pairs drawn from the shrinking complement. All three
    configurations (nothing given, matched pairs given, one side of a pair
    given) funnel through the same loop.
    """
    validate_symplectic(form)
    return _extend(form, partial)[0]


def _extend(form: BilinearForm, partial: PartialFamily):
    """gram_schmidt_extend on a form already known to be symplectic, and the
    one entry that takes sections: the basis and, per component, its held
    rows r_1, s_1, r_2, ... (P^T). The given sections are checked, held
    once and their relations checked, and the basis keeps them verbatim.
    The held rows of the completion of the empty family are kept on the
    form, and its basis is glued from them."""
    module = form.module
    rs, ss = partial.r_dict, partial.s_dict
    if not (rs or ss):
        rows, _ = _empty(form)
        return _basis(module, rows, rs, ss), rows
    n = module.rank // 2
    x = module.space.x_ref
    for label, sections in (("r", rs), ("s", ss)):
        for i, sec in sections.items():
            if not (1 <= i <= n):
                raise PartialRelationsViolated(
                    f"index {i} outside 1..{n}", index=i
                )
            if sec.module != module:
                raise ModuleMismatch(f"{label}_{i} belongs to a different module")
            if sec.open != x:
                raise OpenMismatch(f"{label}_{i} is not a global section")
            if not sec.is_nowhere_zero():
                raise PartialRelationsViolated(
                    f"{label}_{i} vanishes on some component", index=i
                )
    given = list(zip(*_held_vectors(form, [*rs.values(), *ss.values()])))
    hr = dict(zip(rs, given[: len(rs)]))
    hs = dict(zip(ss, given[len(rs):]))
    _check_partial_relations(module.field, form._held_grams(), hr, hs)
    rows, _ = _complete(form, hr, hs)
    return _basis(module, rows, rs, ss), rows


def _basis(module: FreeModule, rows, rs, ss) -> SymplecticBasis:
    """The basis whose held rows are `rows` (per component r_1, s_1, r_2,
    ..., P^T), with the given sections of `rs` and `ss` verbatim at their
    indices and the others released once."""
    n, field = module.rank // 2, module.field
    sections = [dict(rs), dict(ss)]
    found = [(side, i) for i in range(1, n + 1) for side in (0, 1) if i not in sections[side]]
    vectors = [linalg.release(tuple(p[2 * i - 2 + side] for side, i in found), field) for p in rows]
    for idx, (side, i) in enumerate(found):
        sections[side][i] = _glue(module, (v[idx] for v in vectors))
    return SymplecticBasis(module, *(tuple(sec[i] for i in range(1, n + 1)) for sec in sections))


def _empty(form: BilinearForm):
    """The completion of the empty family, its held rows P^T and P^T G,
    kept on the form."""
    return _kept(form, "completion", lambda: _complete(form, {}, {}))


def _completed(form: BilinearForm, rs, ss):
    """The held rows P^T and P^T G of the completion of (rs, ss)."""
    return _complete(form, rs, ss) if rs or ss else _empty(form)


def _complete(form: BilinearForm, rs, ss, start=None):
    """The held rows r_1, s_1, r_2, ... (P^T) per component of the completion
    of the held family (index -> one held row per component, on the r and
    the s side), taken as valid, certified by the congruence, and beside
    them the held rows of P^T G that the congruence computes. It runs inside
    `start`, per component the held rows of a non-degenerate subspace in
    reduced echelon form (by default the identity), and completes half as
    many pairs as `start` has rows."""
    module = form.module
    field = module.field
    grams = form._held_grams()
    if start is None:
        start = full_submodule(module)._rows
    dim = len(start[0]) if start else module.rank
    n = dim // 2
    # index -> one held row per component, the given sections and then the
    # found ones
    hr, hs = dict(rs), dict(ss)
    matched = sorted(set(hr) & set(hs))
    singles = sorted((set(hr) | set(hs)) - set(matched))

    # the ambient complement: per component the reduced echelon basis of
    # the orthogonal complement of the pairs fixed so far, shrunk in place
    # as each pair is fixed. Every pair lies in the ambient it is removed
    # from, so the complement is taken inside the ambient.
    ambient = _shrink(field, grams, start, [hr[i] for i in matched] + [hs[i] for i in matched])
    expected = dim - 2 * len(matched)
    _check_ambient(ambient, expected)

    # the partners of the given singles, each orthogonal to the singles
    # after it, then the fresh pairs, whose r is the ambient's first row
    fresh = [k for k in range(1, n + 1) if k not in hr and k not in hs]
    for t, k in enumerate(singles + fresh):
        if k in fresh:
            if expected <= 0:
                raise SelfCheckFailed(f"no ambient complement is left for r_{k}")
            hr[k] = tuple(b[0] for b in ambient)
        others = [hr[i] if i in hr else hs[i] for i in singles[t + 1:]]
        if k in hr:
            hs[k] = _partner(field, grams, ambient, others, hr[k], "r", f"s_{k}")
        else:
            hr[k] = _partner(field, grams, ambient, others, hs[k], "s", f"r_{k}")
        ambient = _shrink(field, grams, ambient, [hr[k], hs[k]])
        expected -= 2
        _check_ambient(ambient, expected)

    _check_ambient(ambient, 0)
    rows = tuple(
        tuple(h[c] for i in range(1, n + 1) for h in (hr[i], hs[i]))
        for c in range(len(grams))
    )
    pg = _congruent(form, [cols for _, cols in grams], rows)
    if pg is None:
        raise SelfCheckFailed("the completed basis fails P^T G P == A_2n")
    return rows, pg


def certify_basis(form: BilinearForm, basis: SymplecticBasis, partial=None) -> bool:
    """The congruence P^T G P == A_2n on every component, with the columns
    of P the interleaved basis r_1, s_1, r_2, s_2, ..., and verbatim
    containment of the partial family at its indices. The congruence is
    every pairing relation at once, and it makes P invertible because A_2n
    is."""
    module = form.module
    x = module.space.x_ref
    sections = basis.interleaved()
    if len(sections) != module.rank or any(
        sec.module != module or sec.open != x for sec in sections
    ):
        return False
    if _congruent(form, _gram_columns(form), _held_vectors(form, sections)) is None:
        return False
    return partial is None or all(
        side[i - 1] == sec for side, given in ((basis.r, partial.r), (basis.s, partial.s))
        for i, sec in given
    )


def _planes(module: FreeModule, rows, pairs):
    """The hyperbolic planes span(r_i, s_i) of the first pairs (r_i, s_i) of
    a completion whose held rows are `rows`, each span echelonized from the
    pair's held rows."""
    field = module.field
    planes = []
    for i, (r, s) in enumerate(pairs):
        held = [linalg.held_rref(p[2 * i : 2 * i + 2], field)[0] for p in rows]
        planes.append(HyperbolicPlane(r, s, Submodule(module, tuple(held))))
    return planes


def hyperbolic_decomposition(form: BilinearForm):
    """E as a perpendicular sum of hyperbolic planes span(r_i, s_i)."""
    validate_symplectic(form)
    basis, rows = _extend(form, PartialFamily.of())
    return _planes(form.module, rows, zip(basis.r, basis.s))


def normal_form(form: BilinearForm):
    """Per-component change of basis P with P^T G P the standard alternating
    matrix. Columns of P are the symplectic basis interleaved r_1, s_1, ...:
    the transpose of the kept held rows P^T of the empty family's
    completion."""
    validate_symplectic(form)
    field = form.module.field
    return tuple(linalg.transpose(linalg.release(p, field)) for p in _empty(form)[0])


def _validate_pair(source: BilinearForm, target: BilinearForm) -> None:
    """Two symplectic forms of the same rank over the same space and field."""
    if source.module.space != target.module.space or source.module.field != target.module.field:
        raise ModuleMismatch("forms live over different spaces or fields")
    if source.module.rank != target.module.rank:
        raise RankMismatch(
            f"ranks differ: {source.module.rank} vs {target.module.rank}"
        )
    validate_symplectic(source)
    validate_symplectic(target)


def _carry(source: BilinearForm, target: BilinearForm, family, family_t, between=None) -> Isometry:
    """M = P' W P^{-1} per component, with P and P' the completions of the
    two held families (r, s), each index -> one held row per component, on
    the source and the target form, and W the identity, or per component
    the held rows of `between`, each a W with W^T A_2n W = A_2n."""
    # _complete certified P^T G P = A = P'^T G' P', so M^T G' M = P^{-T}
    # W^T A W P^{-1} = G needs no further check; with W = 1 both families
    # sit at the same columns of P and P', so M sends each given section to
    # its partner. P^{-1} = A^T P^T G (A^T A = 1) has the rows -s_1 G, r_1 G,
    # -s_2 G, ... of the P^T G the congruence computed, so no elimination
    # and no product runs on P. The inverse is unique: M is the same matrix.
    field = source.module.field
    minus = linalg.held_ints([[-1]], field)
    _, pgs = _completed(source, *family)
    rows_t, _ = _completed(target, *family_t)
    mats = []
    for c, (pg, p2) in enumerate(zip(pgs, rows_t)):
        minus_sg = linalg.held_divide(pg[1::2], minus, field)
        inverse = tuple(row for pair in zip(minus_sg, pg[0::2]) for row in pair)
        m = linalg.held_transpose(p2, field)
        if between is not None:
            m = linalg.held_combine(m, between[c], field)
        mats.append(linalg.release(linalg.held_combine(m, inverse, field), field))
    return Isometry(source, target, tuple(mats))


def standard_isometry(source: BilinearForm, target: BilinearForm) -> Isometry:
    """An exact isometry between two symplectic forms of the same rank over
    the same space: M = P' P^{-1} built from the two normal forms."""
    _validate_pair(source, target)
    return _carry(source, target, ({}, {}), ({}, {}))


# -- hyperbolic envelopes and isometry extension ------------------------------

def hyperbolic_envelope(form: BilinearForm, f: Submodule):
    """Pairwise orthogonal hyperbolic planes H_i with r_i in H_i, where
    r_1..r_k is the canonical global basis of the totally isotropic free f.

    The planes are the first k pairs of the completion of the partial family
    r_1..r_k (nothing given on the s side), so they are certified with it.
    The family is f's kept echelon rows, whose relations the isotropy check
    decides, and only the partners s_1..s_k are released."""
    validate_symplectic(form)
    if f.module != form.module:
        raise ModuleMismatch("submodule belongs to a different module")
    if f.is_free() is None:
        raise FreenessViolated(
            f"submodule component dimensions differ: {f.dims}", dims=f.dims
        )
    module = form.module
    field = module.field
    bases = f._rows
    for held, cols in zip(bases, _gram_columns(form)):
        if _pairings(held, held, cols, field) != _zeros(len(held), len(held), field):
            raise NotTotallyIsotropic("the form does not vanish on the submodule")
    basis = f.global_basis()
    rows, _ = _completed(form, dict(enumerate(zip(*bases), 1)), {})
    partners = [linalg.release(p[1 : 2 * len(basis) : 2], field) for p in rows]
    return _planes(module, rows, zip(basis, (_glue(module, v) for v in zip(*partners))))


def certify_envelope(form: BilinearForm, f: Submodule, planes) -> bool:
    """Each plane H_i holds r_i of f's canonical global basis and its
    partner s_i, and the planes are non-degenerate of rank 2 and pairwise
    orthogonal; False for an f that is not free, which has no such basis."""
    if f.is_free() is None:
        return False
    basis = f.global_basis()
    if len(planes) != len(basis):
        return False
    for sec, plane in zip(basis, planes):
        if plane.r != sec or not (plane.span.contains(sec) and plane.span.contains(plane.s)):
            return False
        if not form.evaluate(plane.r, plane.s).is_nowhere_zero():
            return False
        if plane.span.is_free() != 2:
            return False
        _, rad_dims = form._restricted_grams(plane.span)
        if any(rad_dims):
            return False
    for i, p in enumerate(planes):
        for q in planes[i + 1 :]:
            for a in (p.r, p.s):
                for b in (q.r, q.s):
                    if not form.evaluate(a, b).is_zero():
                        return False
    return True


def witt_extend(
    source: BilinearForm, target: BilinearForm, f: Submodule, sigma_images
) -> Isometry:
    """Extend an isometry given on a free submodule to a global isometry.

    sigma is given by the images of the canonical global basis of f; it must
    preserve all pairings exactly and be injective on every component. The
    extension is a completion of an adapted partial family (Artin's route):
    f = g perp rad f, with g a non-degenerate complement of the radical.
    A symplectic basis r_1, s_1, .., r_m, s_m of g and the basis of rad f as
    r_{m+1}, .., r_{m+l} form a partial family; their sigma-images form one
    for the target at the same indices. `_carry` completes both and sends
    one completed basis to the other, so the result is certified by the two
    congruences P^T G P = A_2n = P'^T G' P' and agrees with sigma on a basis
    of f by construction.

    All of it is worked out in the coordinates of f's held echelon basis B,
    per component. With M = B G B^T, the matrix the hypothesis check
    compares, rad f is R B for R the reduced echelon nullspace of M (reduced
    echelon itself, as in `_shrink`). The pairs of g are one completion run
    inside the rows of B that complement rad f, and sigma sends a row x B of
    f to x Im, for Im the held images. Both families reach `_carry` as held
    rows, with no section built and no relations check: the relations hold
    by construction, the source's from the completion of g and the choice
    of R, the target's because sigma preserves every pairing on f.
    """
    _validate_pair(source, target)
    module = source.module
    field = module.field
    if f.module != module:
        raise ModuleMismatch("submodule belongs to a different module")

    k = f.is_free()
    if k is None:
        raise FreenessViolated(
            f"submodule component dimensions differ: {f.dims}", dims=f.dims
        )

    images = list(sigma_images)
    if len(images) != k:
        raise IsometryHypothesisViolated(
            f"need {k} basis images, got {len(images)}"
        )
    x = module.space.x_ref
    for im in images:
        if im.module != target.module:
            raise ModuleMismatch("an image belongs to a different module")
        if im.open != x:
            raise OpenMismatch("images must be global sections")
    bases = f._rows
    held_images = _held_vectors(target, images)
    # per component, the k x k Gram matrices B G B^T and Im G' Im^T; when
    # they differ, the first pair in row-major order is the witness
    grams = [_pairings(b, b, cols, field) for b, cols in zip(bases, _gram_columns(source))]
    wants = [_pairings(im, im, cols, field) for im, cols in zip(held_images, _gram_columns(target))]
    broken = _first_mismatch(field, grams, wants, [(i, j) for i in range(k) for j in range(k)])
    if broken is not None:
        raise IsometryHypothesisViolated(
            f"pairing of basis sections {broken[0]} and {broken[1]} is not preserved",
            pair=broken,
        )
    for c, im in enumerate(held_images):
        if linalg.held_rank(im, field) != k:
            raise IsometryHypothesisViolated(
                f"images are dependent on component {c}: sigma is not injective",
                component=c,
            )

    # rad f = R B, with R the reduced echelon nullspace of B G B^T
    coords = [linalg.held_nullspace(m, k, field) for m in grams]
    radical = [linalg.held_combine(r, b, field) for r, b in zip(coords, bases)]
    dims = tuple(map(len, radical))
    if len(set(dims)) != 1:
        raise FreenessViolated(f"radical component dimensions differ: {dims}", dims=dims)

    # g is the span of the rows of B that complement rad f: non-degenerate,
    # and in reduced echelon form as a subset of B
    start = [linalg.held_complement_rows(r, b, field) for r, b in zip(radical, bases)]
    g_rows, _ = _complete(source, {}, {}, start=start)

    # the family per component, r then s: the r of g's pairs and rad f, then
    # the s of g's pairs. sigma sends x B to x Im; the coordinates x of rad f
    # are R, those of g's pairs are read off B
    family, mapped = [], []
    for b, im, r, rad, p in zip(bases, held_images, coords, radical, g_rows):
        xs = [linalg.held_coordinates(b, v, field) for v in p]
        if None in xs:
            raise SelfCheckFailed("sigma was applied to a section outside f")
        family.append(p[0::2] + rad + p[1::2])
        mapped.append(linalg.held_combine(xs[0::2] + list(r) + xs[1::2], im, field))
    count = k - len(g_rows[0]) // 2
    return _carry(source, target, _family(family, count), _family(mapped, count))


def _family(rows, count: int):
    """The held family (r, s) whose held rows are `rows`, per component
    r_1..r_count and then s_1, s_2, ..."""
    sections = list(zip(*rows))
    return dict(enumerate(sections[:count], 1)), dict(enumerate(sections[count:], 1))


def certify_witt(iso: Isometry, f: Submodule, images) -> bool:
    """M^T G' M = G on every component (`Isometry.holds`), and M carries the
    canonical global basis of f to sigma's images, in order. A submodule
    that is not free has no such basis: False."""
    if f.is_free() is None:
        return False
    basis = f.global_basis()
    return len(basis) == len(images) and iso.holds() and all(
        iso.apply(sec) == im for sec, im in zip(basis, images)
    )
