"""Constructive symplectic geometry: basis extension, normal form,
hyperbolic envelopes, and isometry extension.

Everything here works on alternating non-degenerate forms over the locally
constant model, where a global construction is a per-component construction
glued along the component table. The algorithms are deterministic: ambient
complements are canonical echelon subspaces, partners are chosen as the least
echelon basis row with non-vanishing pairing on each component.

Every construction is one certified Gram-Schmidt completion, `_extend`,
which certifies the basis it builds by congruence, P^T G P == A_2n on every
component (`certify_basis`), and keeps the given partial family verbatim.
The normal form is the matrix of a completion of the empty family; a
hyperbolic envelope is the first k planes of the completion of a totally
isotropic basis r_1..r_k; a standard isometry and a Witt extension are
`_carry`, M = P' P^{-1} between the completions of two partial families
(empty ones, or a basis adapted to f = g perp rad f and its sigma-image), so
M^T G' M = G needs no further check. The public entry points validate their
forms (`validate_symplectic`) once; the private helpers do not validate
again. `certify_witt` and `certify_envelope` remain the certificates the
report layer and the oracles call.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .bilinear import BilinearForm
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
)
from .modules import FreeModule, ModuleSection, Submodule, span


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

    @staticmethod
    def from_columns(module: FreeModule, mats) -> "SymplecticBasis":
        """The basis whose interleaved sections r_1, s_1, r_2, ... are the
        columns of P on each component, the layout `normal_form` returns."""
        cols = [_glue(module, col) for col in zip(*map(linalg.transpose, mats))]
        return SymplecticBasis(module, tuple(cols[0::2]), tuple(cols[1::2]))

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

    def apply(self, section: ModuleSection) -> ModuleSection:
        if section.module != self.source.module:
            raise ModuleMismatch("section does not belong to the source module")
        space = self.source.module.space
        refinement = space.component_refinement(section.open, space.x_ref)
        vectors = tuple(
            linalg.mat_vec(self.matrices[xc], v)
            for v, xc in zip(section.vectors, refinement)
        )
        return ModuleSection(self.target.module, section.open, vectors)

    def holds(self) -> bool:
        """The defining equation M^T G' M = G on every component, with one
        square matrix of the module's rank per component."""
        rank = self.source.module.rank
        if not len(self.matrices) == len(self.source.gram) == len(self.target.gram):
            return False
        if any(len(m) != rank or any(len(row) != rank for row in m) for m in self.matrices):
            return False
        return all(
            linalg.matmul(linalg.transpose(m), linalg.matmul(g2, m)) == g
            for m, g, g2 in zip(self.matrices, self.source.gram, self.target.gram)
        )


def compose_isometries(first: Isometry, second: Isometry) -> Isometry:
    if first.target != second.source:
        raise ModuleMismatch("isometries do not compose: target/source forms differ")
    mats = tuple(
        linalg.matmul(m2, m1) for m1, m2 in zip(first.matrices, second.matrices)
    )
    return Isometry(first.source, second.target, mats)


def invert_isometry(iso: Isometry) -> Isometry:
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
    is the same, and the row-major scan reaches (min, max) first."""
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
    for c, g in enumerate(form.gram):
        if linalg.rank(g, field) != len(g):
            raise Degenerate(f"component {c}: Gram matrix is singular", component=c)


def standard_alternating(rank: int, field):
    """Block-diagonal Gram matrix with blocks [[0,1],[-1,0]]."""
    if rank % 2 != 0:
        raise OddRank(f"rank {rank} is odd")
    rows = []
    for i in range(rank):
        row = [field.zero] * rank
        if i % 2 == 0:
            row[i + 1] = field.one
        else:
            row[i - 1] = -field.one
        rows.append(tuple(row))
    return tuple(rows)


def standard_symplectic_form(module: FreeModule) -> BilinearForm:
    a = standard_alternating(module.rank, module.field)
    return BilinearForm(module, (a,) * len(module.x_components()))


# -- the extension theorem ------------------------------------------------------

def _pairings(rows, g):
    """R G R^T: the matrix of pairings phi(u, v) between the rows of R."""
    return linalg.matmul(linalg.matmul(rows, g), linalg.transpose(rows))


def _glue(module: FreeModule, per_component_vectors) -> ModuleSection:
    return ModuleSection(module, module.space.x_ref, tuple(per_component_vectors))


def _project_rows_away(form: BilinearForm, rows_per_comp, pairs):
    """Image of each row under z -> z + sum_i phi(z, r_i) s_i - phi(z, s_i) r_i,
    echelonized per component. For pairs with phi(r_i, s_i) = 1 satisfying the
    pairing relations this is the projection onto the orthogonal complement
    of their span."""
    field = form.module.field
    out = []
    for c, rows in enumerate(rows_per_comp):
        if pairs:
            rs = tuple(r.vectors[c] for r, _ in pairs)
            ss = tuple(s.vectors[c] for _, s in pairs)
            # phi(z, u) = z . G u^T, so the pairings of every row z with
            # r_1..r_k, s_1..s_k are the rows [A | B] of Z (G [R; S]^T), and
            # the sum over i of phi(z, r_i) s_i - phi(z, s_i) r_i is the row
            # of [A | B] [S; -R]: two products, not an n x n projector
            gt = linalg.matmul(form.gram[c], linalg.transpose(rs + ss))
            shift = linalg.matmul(
                linalg.matmul(rows, gt), ss + tuple(linalg.scale(-1, r) for r in rs)
            )
            rows = tuple(map(linalg.add_vec, rows, shift))
        out.append(linalg.rref(rows, field)[0])
    return tuple(out)


def _constrained_partner(form, ambient_rows, avoid, mate, label):
    """On each component, the least echelon basis row w of
    {w in ambient : phi(a, w) = 0 for a in avoid} with phi(mate, w) != 0,
    glued into a global section. Raises PartnerNotFound when some component
    has no such row (which signals an inconsistent input family)."""
    field = form.module.field
    picks = []
    for c, amb in enumerate(ambient_rows):
        g = form.gram[c]
        if avoid:
            stacked = tuple(a.vectors[c] for a in avoid)
            m = linalg.matmul(linalg.matmul(stacked, g), linalg.transpose(amb))
            coeffs = linalg.nullspace(m, len(amb), field)
            w_rows = linalg.rref(linalg.matmul(coeffs, amb), field)[0] if coeffs else ()
        else:
            w_rows = amb
        mate_g = linalg.vec_mat(mate.vectors[c], g)  # phi(mate, w) = mate_g . w
        pick = None
        for w in w_rows:
            if linalg.dot(mate_g, w) != field.zero:
                pick = w
                break
        if pick is None:
            raise PartnerNotFound(
                f"no admissible partner for {label} on component {c}", component=c
            )
        picks.append(pick)
    return _glue(form.module, picks)


def _check_partial_relations(form, rs, ss):
    """phi(r_i, r_j) = phi(s_i, s_j) = 0 and phi(r_i, s_j) = delta_ij, read
    off one pairing matrix per component; the first broken pair in the scan
    order r-r, s-s, r-s is the witness."""
    labels = [("r", i) for i in rs] + [("s", j) for j in ss]
    if not labels:
        return
    sections = [*rs.values(), *ss.values()]
    mats = [
        _pairings(tuple(sec.vectors[c] for sec in sections), g)
        for c, g in enumerate(form.gram)
    ]
    field = form.module.field
    r_pos, s_pos = range(len(rs)), range(len(rs), len(labels))
    for ps, qs in ((r_pos, r_pos), (s_pos, s_pos), (r_pos, s_pos)):
        for p in ps:
            for q in qs:
                (a, i), (b, j) = labels[p], labels[q]
                want_one = a != b and i == j
                want = field.one if want_one else field.zero
                if any(m[p][q] != want for m in mats):
                    raise PartialRelationsViolated(
                        f"phi({a}_{i}, {b}_{j}) != {int(want_one)}", pair=((a, i), (b, j))
                    )


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
    return _extend(form, partial)


def _extend(form: BilinearForm, partial: PartialFamily) -> SymplecticBasis:
    """gram_schmidt_extend on a form already known to be symplectic."""
    module = form.module
    n = module.rank // 2
    rs = partial.r_dict
    ss = partial.s_dict

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
    _check_partial_relations(form, rs, ss)

    matched = sorted(set(rs) & set(ss))
    singles = sorted((set(rs) | set(ss)) - set(matched))

    ident = linalg.identity(module.rank, module.field)
    ambient = _project_rows_away(
        form,
        (ident,) * len(module.x_components()),
        [(rs[i], ss[i]) for i in matched],
    )
    expected = module.rank - 2 * len(matched)
    assert all(len(b) == expected for b in ambient)

    pending = list(singles)
    for k in list(singles):
        pending.remove(k)
        others = [rs[i] if i in rs else ss[i] for i in pending]
        if k in rs:
            w = _constrained_partner(form, ambient, others, rs[k], f"s_{k}")
            u = form.evaluate(rs[k], w)
            ss[k] = u.invert() * w
        else:
            w = _constrained_partner(form, ambient, others, ss[k], f"r_{k}")
            u = form.evaluate(w, ss[k])
            rs[k] = u.invert() * w
        ambient = _project_rows_away(form, ambient, [(rs[k], ss[k])])
        expected -= 2
        assert all(len(b) == expected for b in ambient)

    for k in range(1, n + 1):
        if k in rs:
            continue
        assert expected > 0
        r = _glue(module, (b[0] for b in ambient))
        w = _constrained_partner(form, ambient, [], r, f"s_{k}")
        u = form.evaluate(r, w)
        rs[k] = r
        ss[k] = u.invert() * w
        ambient = _project_rows_away(form, ambient, [(rs[k], ss[k])])
        expected -= 2
        assert all(len(b) == expected for b in ambient)

    assert expected == 0
    basis = SymplecticBasis(
        module, tuple(rs[i] for i in range(1, n + 1)), tuple(ss[i] for i in range(1, n + 1))
    )
    if not certify_basis(form, basis, partial):
        raise AssertionError("the completed basis fails P^T G P == A_2n")
    return basis


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
    target = standard_alternating(module.rank, module.field)
    for c, g in enumerate(form.gram):
        rows = tuple(sec.vectors[c] for sec in sections)
        if _pairings(rows, g) != target:
            return False
    if partial is not None:
        for i, sec in partial.r:
            if basis.r[i - 1] != sec:
                return False
        for i, sec in partial.s:
            if basis.s[i - 1] != sec:
                return False
    return True


def _planes(form: BilinearForm, basis: SymplecticBasis, count=None):
    """The hyperbolic planes span(r_i, s_i) of the first `count` pairs."""
    return [
        HyperbolicPlane(r, s, span(form.module, [r, s]))
        for r, s in zip(basis.r[:count], basis.s[:count])
    ]


def hyperbolic_decomposition(form: BilinearForm):
    """E as a perpendicular sum of hyperbolic planes span(r_i, s_i)."""
    return _planes(form, gram_schmidt_extend(form, PartialFamily.of()))


def _columns(form: BilinearForm, basis: SymplecticBasis):
    """Per component, the matrix P whose columns are r_1, s_1, r_2, s_2, ..."""
    sections = basis.interleaved()
    return tuple(
        linalg.transpose(tuple(sec.vectors[c] for sec in sections))
        for c in range(len(form.gram))
    )


def normal_form(form: BilinearForm):
    """Per-component change of basis P with P^T G P the standard alternating
    matrix. Columns of P are the symplectic basis interleaved r_1, s_1, ..."""
    validate_symplectic(form)
    return _columns(form, _extend(form, PartialFamily.of()))


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


def _carry(
    source: BilinearForm, target: BilinearForm, partial: PartialFamily, partial_t: PartialFamily
) -> Isometry:
    """M = P' P^{-1} per component, with P and P' the completions of the two
    partial families on the source and the target form."""
    # _extend certified P^T G P = A = P'^T G' P', so M = P' P^{-1} has
    # M^T G' M = P^{-T} A P^{-1} = G: M is an isometry without a further
    # check. Both families sit verbatim at the same columns of P and P', so
    # M sends each partial section to its partner.
    field = source.module.field
    mats = tuple(
        linalg.matmul(p2, linalg.inverse(p, field))
        for p, p2 in zip(
            _columns(source, _extend(source, partial)),
            _columns(target, _extend(target, partial_t)),
        )
    )
    return Isometry(source, target, mats)


def standard_isometry(source: BilinearForm, target: BilinearForm) -> Isometry:
    """An exact isometry between two symplectic forms of the same rank over
    the same space: M = P' P^{-1} built from the two normal forms."""
    _validate_pair(source, target)
    return _carry(source, target, PartialFamily.of(), PartialFamily.of())


# -- hyperbolic envelopes and isometry extension ------------------------------

def hyperbolic_envelope(form: BilinearForm, f: Submodule):
    """Pairwise orthogonal hyperbolic planes H_i with r_i in H_i, where
    r_1..r_k is the canonical global basis of the totally isotropic free f.

    The planes are the first k pairs of the completion of the partial family
    r_1..r_k (nothing given on the s side), so they are certified with it."""
    validate_symplectic(form)
    if f.module != form.module:
        raise ModuleMismatch("submodule belongs to a different module")
    if f.is_free() is None:
        raise FreenessViolated(
            f"submodule component dimensions differ: {f.dims}", dims=f.dims
        )
    field = form.module.field
    for b, g in zip(f.bases, form.gram):
        gram_on_f = _pairings(b, g)
        if any(x != field.zero for row in gram_on_f for x in row):
            raise NotTotallyIsotropic("the form does not vanish on the submodule")
    basis = f.global_basis()
    partial = PartialFamily.of(r=enumerate(basis, 1))
    return _planes(form, _extend(form, partial), len(basis))


def certify_envelope(form: BilinearForm, f: Submodule, planes) -> bool:
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


def _sigma_from_images(f: Submodule, images):
    """A-linear map on sections of f determined by images of the canonical
    global basis: express per component over the echelon basis, recombine."""
    field = f.module.field

    def apply(section: ModuleSection) -> ModuleSection:
        space = f.module.space
        refinement = space.component_refinement(section.open, space.x_ref)
        out = []
        for vec, xc in zip(section.vectors, refinement):
            coeffs = linalg.reduce_against(f.bases[xc], vec, field)
            assert coeffs is not None
            img = linalg.zero_vec(images[0].module.rank, field) if images else ()
            for c, im in zip(coeffs, images):
                img = linalg.add_vec(img, linalg.scale(c, im.vectors[xc]))
            out.append(img)
        return ModuleSection(images[0].module, section.open, tuple(out))

    return apply


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
    basis = f.global_basis()

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
    ncomp = len(module.x_components())
    # per component, the k x k Gram matrices B G B^T and Im G' Im^T
    grams = [
        (
            _pairings(tuple(sec.vectors[c] for sec in basis), source.gram[c]),
            _pairings(tuple(im.vectors[c] for im in images), target.gram[c]),
        )
        for c in range(ncomp)
    ]
    for i in range(k):
        for j in range(k):
            if any(gb[i][j] != gi[i][j] for gb, gi in grams):
                raise IsometryHypothesisViolated(
                    f"pairing of basis sections {i} and {j} is not preserved",
                    pair=(i, j),
                )
    for c in range(ncomp):
        stacked = tuple(im.vectors[c] for im in images)
        if linalg.rank(stacked, field) != k:
            raise IsometryHypothesisViolated(
                f"images are dependent on component {c}: sigma is not injective",
                component=c,
            )

    rad = source.radical(f)
    l = rad.is_free()
    if l is None:
        raise FreenessViolated(
            f"radical component dimensions differ: {rad.dims}", dims=rad.dims
        )
    sigma = _sigma_from_images(f, images)

    # f = g perp rad f with g a complement of the radical inside f; g is
    # non-degenerate, so the restricted form B_g G B_g^T is symplectic, and a
    # basis completed on it lifts through B_g to symplectic pairs of g
    g_rows = [linalg.complement_rows(rb, fb, field) for rb, fb in zip(rad.bases, f.bases)]
    rs, ss = {}, {}
    if k > l:
        g_form = BilinearForm(
            FreeModule(module.space, field, k - l), tuple(map(_pairings, g_rows, source.gram))
        )
        g_basis = _extend(g_form, PartialFamily.of())
        for i, (r, s) in enumerate(zip(g_basis.r, g_basis.s), 1):
            rs[i] = _glue(module, map(linalg.vec_mat, r.vectors, g_rows))
            ss[i] = _glue(module, map(linalg.vec_mat, s.vectors, g_rows))
    rs.update(enumerate(rad.global_basis(), len(rs) + 1))
    partial = PartialFamily.of(rs, ss)
    partial_t = PartialFamily.of(
        {i: sigma(sec) for i, sec in rs.items()}, {i: sigma(sec) for i, sec in ss.items()}
    )
    return _carry(source, target, partial, partial_t)


def certify_witt(iso: Isometry, f: Submodule, images) -> bool:
    """M^T G' M = G on every component (`Isometry.holds`), and M carries the
    canonical global basis of f to sigma's images, in order."""
    basis = f.global_basis()
    return len(basis) == len(images) and iso.holds() and all(
        iso.apply(sec) == im for sec, im in zip(basis, images)
    )
