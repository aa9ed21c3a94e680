"""Bilinear forms on free modules, given by one Gram matrix per component
of the total space.

Sections are rows, so the pairing on a component with Gram matrix G is
phi(r, s) = r G s^T. A form holds one G per component, on first use: u G
is `held_combine(u, G)`, u G^T is `held_product(u, G)`, and every pairing
is U G V^T (`_pairings`). `evaluate` holds the sections' vectors once and
releases one value per component of their open, and `adjoint` releases
G t^T or t G. Orthogonals, radicals, projections and splittings are
computed per component with exact echelon/nullspace kernels.

The radical is read off one matrix. For the echelon basis B of a submodule
f on one component, rad f = {x B : (B G B^T) x^T = 0}: `radical` is R B, R
the reduced echelon nullspace of M = B G B^T (B = I for rad E), in one
elimination, and R B is reduced echelon already. So f is non-isotropic (E
splits as f perp-oplus f-perp) exactly when M is invertible on every
component. One elimination of [M | B G] per component decides it and, when
it holds, gives K = M^-1 B G, so the projection onto f is t -> (t K^T) B.
A form keeps that factorization (`_projector`, the one place that makes it)
for the last submodule it was made for, and `project` and
`orthogonal_split` share it; f meets f-perp in rad f, so the split needs no
intersection. `symplectic.certify_envelope` does not factor its planes: it
reads them off the pairing matrix of their pairs.

The calculus (`orthogonal`, `radical`, `project`, `orthogonal_split`) runs
on held rows from start to end: a submodule is its held echelon rows; an
output submodule is built from held rows and makes no field element until
its `bases` is read. `classify_orthosymmetry` works on the form's field
elements and keeps its result on the form, so each form is classified
once. A form keeps each fact in its memo through `_kept`, and the
symplectic layer keeps its own facts there too; `form_memo_stats()` counts
the hits and misses of every fact a form keeps.

The certificates of the calculus live here too, for the report layer and
the oracles: `certify_projection` on sections, and `certify_radical` and
`certify_orthogonal` on held rows, with the form's field. A self-check that
fails inside a construction (`classify_orthosymmetry`'s witness) raises
`SelfCheckFailed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import linalg
from .algebra import AlgebraSection
from .errors import (
    IsotropicSubmodule,
    ModuleMismatch,
    NotFree,
    NotOrthosymmetric,
    OpenMismatch,
    SelfCheckFailed,
)
from .modules import FreeModule, ModuleSection, Submodule, full_submodule
from .topology import OpenRef

# fact -> the hits and misses of what `_kept` keeps on a form, since import
_COUNTS = {}


def _keeps(*facts: str) -> None:
    """Declare facts `_kept` keeps on a form, counted from 0."""
    for fact in facts:
        _COUNTS[fact] = {"hits": 0, "misses": 0}


def _kept(form, fact: str, make, of=None):
    """The value of `fact` that `form` keeps in its `_memo`, made by
    `make()` on a miss. A value is kept for `of`, and a later use is a hit
    when it asks for the same object or an equal value; a miss replaces it.
    When `make` raises, nothing is kept and the previous value stays."""
    counts = _COUNTS[fact]
    kept = form._memo.get(fact)
    if kept is not None and (kept[0] is of or kept[0] == of):
        counts["hits"] += 1
        return kept[1]
    counts["misses"] += 1
    value = make()
    form._memo[fact] = (of, value)
    return value


def form_memo_stats() -> dict:
    """Uses of what a `BilinearForm` keeps, since import, as hits (read from
    the form) and misses (computed on first use): `gram_*` for its held Gram
    matrices, `class_*` for its `classify_orthosymmetry` result,
    `symplectic_*` for a passed `validate_symplectic`, `completion_*` for
    the completion of the empty partial family and `projector_*` for the
    factorization `project` and `orthogonal_split` keep for the last
    submodule (a hit on the same or an equal submodule)."""
    return {f"{fact}_{use}": n for fact, counts in _COUNTS.items() for use, n in counts.items()}


@dataclass(frozen=True)
class BilinearForm:
    module: FreeModule
    gram: tuple  # per X-component: rank x rank matrix (tuple of row tuples)
    # what the form keeps (`_kept`), not part of its value
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.module.rank
        ncomp = len(self.module.x_components())
        if len(self.gram) != ncomp:
            raise ModuleMismatch(
                f"form needs {ncomp} component Gram matrices, got {len(self.gram)}"
            )
        for g in self.gram:
            if len(g) != n or any(len(row) != n for row in g):
                raise ModuleMismatch(f"Gram matrix is not {n} x {n}")

    def _held_grams(self) -> tuple:
        """Per X-component, G held, once: u G is held_combine(u, G) and
        u G^T is held_product(u, G)."""
        field = self.module.field
        return _kept(self, "gram", lambda: tuple(linalg.hold(g, field) for g in self.gram))

    def _xc_of(self, open: OpenRef):
        space = self.module.space
        return space.component_refinement(open, space.x_ref)

    def evaluate(self, r: ModuleSection, s: ModuleSection) -> AlgebraSection:
        """phi_U(r, s) as an algebra section over the sections' common open,
        r G s^T per component: one held 1 x 1 pairing each, then released."""
        if r.module != self.module or s.module != self.module:
            raise ModuleMismatch("sections belong to a different module")
        if r.open != s.open:
            raise OpenMismatch(f"sections over different opens: {r.open} vs {s.open}")
        field, grams = self.module.field, self._held_grams()
        gs = [grams[xc] for xc in self._xc_of(r.open)]
        held = zip(linalg.hold(r.vectors, field), linalg.hold(s.vectors, field), gs)
        values = linalg.release([_pairings((u,), (v,), g, field)[0] for u, v, g in held], field)
        return AlgebraSection(self.module.space, field, r.open, tuple(x for (x,) in values))

    def adjoint(self, t: ModuleSection, side: str) -> "CovectorSection":
        """The covector pairing against t: side "left" is s -> phi(s, t),
        the covector G t^T, side "right" is s -> phi(t, s), the covector t G."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        field, grams = self.module.field, self._held_grams()
        times = linalg.held_product if side == "left" else linalg.held_combine
        covectors = tuple(
            times((tv,), grams[xc], field)[0]
            for tv, xc in zip(linalg.hold(t.vectors, field), self._xc_of(t.open))
        )
        return CovectorSection(self.module, t.open, linalg.release(covectors, field))

    def orthogonal(self, f: Submodule, side: str = "left") -> Submodule:
        """side "left": all t with phi(s, t) = 0 for s in f (written f-perp);
        side "right": all t with phi(t, s) = 0 for s in f."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if f.module != self.module:
            raise ModuleMismatch("submodule belongs to a different module")
        n, field = self.module.rank, self.module.field
        # the rows of B G (left) or B G^T (right), each paired with t
        times = linalg.held_combine if side == "left" else linalg.held_product
        grams = zip(f._rows, self._held_grams())
        return Submodule(self.module, tuple(
            linalg.held_nullspace(times(b, g, field), n, field) for b, g in grams
        ))

    def is_nondegenerate(self) -> bool:
        """Full rank on every component."""
        return self._singular_component() is None

    def _singular_component(self) -> Optional[int]:
        """The first X-component whose Gram matrix is singular, or None,
        ranked on the held Gram matrices."""
        field = self.module.field
        for c, g in enumerate(self._held_grams()):
            if linalg.held_rank(g, field) != len(g):
                return c
        return None

    def _require_orthosymmetric(self, what: str) -> None:
        cls = classify_orthosymmetry(self)
        if not cls.orthosymmetric:
            raise NotOrthosymmetric(
                f"{what} requires an orthosymmetric form", witness=cls.witness
            )

    def _projector(self, f: Submodule):
        """The factorization `project` and `orthogonal_split` share, for f
        non-isotropic: per X-component, for the echelon basis B of f, one
        elimination of [M | B G], M = B G B^T. It is (the radical dimensions
        dim f - rank M, all zero, and per X-component K = M^-1 B G with B's
        held rows). The form keeps it for the last f it was made for; an
        equal f is a hit. An isotropic f raises `IsotropicSubmodule` with its
        radical dimensions, and nothing is kept."""

        def make():
            if f.module != self.module:
                raise ModuleMismatch("submodule belongs to a different module")
            field = self.module.field
            dims, factors = [], []
            for b, g in zip(f._rows, self._held_grams()):
                bg = linalg.held_combine(b, g, field)
                rank, k = linalg.held_left_divide(linalg.held_product(bg, b, field), bg, field)
                dims.append(len(b) - rank)
                factors.append((k, b))
            _require_nonisotropic(tuple(dims))
            return tuple(dims), tuple(factors)

        return _kept(self, "projector", make, of=f)

    def radical(self, f: Optional[Submodule] = None) -> Submodule:
        """rad f = f intersect f-perp (rad E = E-perp). Needs an
        orthosymmetric form, otherwise left and right orthogonals differ."""
        self._require_orthosymmetric("radical")
        f = full_submodule(self.module) if f is None else f
        if f.module != self.module:
            raise ModuleMismatch("submodule belongs to a different module")
        field = self.module.field
        rads = []
        for b, g in zip(f._rows, self._held_grams()):
            r = linalg.held_nullspace(_pairings(b, b, g, field), len(b), field)
            rads.append(linalg.held_combine(r, b, field))  # reduced echelon already
        return Submodule(self.module, tuple(rads))

    def project(self, f: Submodule, t: ModuleSection) -> ModuleSection:
        """Orthogonal projection of t onto f, for free non-isotropic f.

        Componentwise: with B the echelon basis of f, G the Gram matrix and
        M = B G B^T, the projection is x B for x^T = M^-1 B G t^T. The form
        keeps K = M^-1 B G for the last f (`_projector`), so a projection is
        two held products per component, x = t K^T and then x B. M is
        invertible exactly because rad f = 0 on every component."""
        field = self.module.field
        r = _require_free(f)
        self._require_orthosymmetric("projection")
        _, factors = self._projector(f)
        if t.module != self.module:
            raise ModuleMismatch("section belongs to a different module")
        if r == 0:
            return self.module.zero_section(t.open)
        out = []
        for tv, xc in zip(linalg.hold(t.vectors, field), self._xc_of(t.open)):
            k, b = factors[xc]
            x = linalg.held_product((tv,), k, field)
            out.append(linalg.held_combine(x, b, field)[0])
        return ModuleSection(self.module, t.open, linalg.release(tuple(out), field))

    def orthogonal_split(self, f: Submodule) -> "OrthogonalSplit":
        """E = f perp-oplus f-perp for free non-isotropic f. Non-isotropy is
        read off the factorization `project` keeps: f meets f-perp in rad f,
        so the certificate's intersection dimensions are the radical
        dimensions, and the dimension count is recomputed."""
        _require_free(f)
        self._require_orthosymmetric("orthogonal splitting")
        rad_dims, _ = self._projector(f)
        perp = self.orthogonal(f, "left")
        # rad f = 0 forces dim f + dim f-perp = rank on every component
        cert = SplitCertificate(
            dims_first=f.dims,
            dims_second=perp.dims,
            rank=self.module.rank,
            intersection_dims=rad_dims,
        )
        return OrthogonalSplit(f, perp, cert)

    def __repr__(self):
        return f"BilinearForm(rank={self.module.rank}, components={len(self.gram)})"


_keeps("gram", "class", "projector")


@dataclass(frozen=True)
class CovectorSection:
    """A functional per component, the value of an adjoint at a section."""

    module: FreeModule
    open: OpenRef
    covectors: tuple

    def apply(self, s: ModuleSection) -> AlgebraSection:
        if s.module != self.module:
            raise ModuleMismatch("section belongs to a different module")
        if s.open != self.open:
            raise OpenMismatch(f"covector over {self.open}, section over {s.open}")
        if not self.module.rank:
            return AlgebraSection.zero(self.module.space, self.module.field, self.open)
        values = tuple(
            linalg.dot(w, v) for w, v in zip(self.covectors, s.vectors)
        )
        return AlgebraSection(self.module.space, self.module.field, self.open, values)

    def restrict(self, v: OpenRef) -> "CovectorSection":
        refinement = self.module.space.component_refinement(v, self.open)
        return CovectorSection(
            self.module, v, tuple(self.covectors[i] for i in refinement)
        )


@dataclass(frozen=True)
class ComponentSymmetry:
    symmetric: bool
    alternating: bool


@dataclass(frozen=True)
class OrthoWitness:
    open: OpenRef
    r: ModuleSection
    s: ModuleSection


@dataclass(frozen=True)
class OrthoClass:
    per_component: tuple
    orthosymmetric: bool
    witness: Optional[OrthoWitness]


def _require_free(f: Submodule) -> int:
    r = f.is_free()
    if r is None:
        raise NotFree(f"component dimensions differ: {f.dims}", dims=f.dims)
    return r


def _require_nonisotropic(rad_dims) -> None:
    if any(rad_dims):
        raise IsotropicSubmodule(
            f"submodule has a non-trivial radical, dims {rad_dims}", dims=rad_dims
        )


@dataclass(frozen=True)
class SplitCertificate:
    dims_first: tuple
    dims_second: tuple
    rank: int
    intersection_dims: tuple

    @property
    def ok(self) -> bool:
        return all(
            a + b == self.rank and m == 0
            for a, b, m in zip(self.dims_first, self.dims_second, self.intersection_dims)
        )


@dataclass(frozen=True)
class OrthogonalSplit:
    submodule: Submodule
    complement: Submodule
    certificate: SplitCertificate


def certify_projection(form: BilinearForm, f: Submodule, t, p) -> dict:
    """The defining properties of the section p = project(f, t), each
    recomputed from p: p lies in f, projecting p again returns p, and t - p
    pairs to zero with every global basis section of f restricted to t's open."""
    residual = t - p
    return {
        "in_submodule": f.contains(p),
        "idempotent": form.project(f, p) == p,
        "residual_orthogonal": all(
            form.evaluate(residual, b.restrict(residual.open)).is_zero()
            for b in f.global_basis()
        ),
    }


def _pairings(rows, cols, gram, field):
    """The held matrix of phi(u, v) = u G v^T over the held rows u of `rows`
    and v of `cols`, with `gram` the held rows of G: the rows u G
    (`held_combine`), each paired with every v."""
    return linalg.held_product(linalg.held_combine(rows, gram, field), cols, field)


def _zeros(rows: int, cols: int, field) -> tuple:
    """The held zero matrix of that shape, which a held product equals
    exactly when it vanishes."""
    return linalg.held_ints([[0] * cols] * rows, field)


def certify_radical(form: BilinearForm, rad: Submodule, carrier: Submodule) -> bool:
    """The defining properties of rad = radical(carrier), recomputed from
    rad per X-component on held rows: with R the echelon rows of rad and C
    those of the carrier, R G C^T = 0 and R G^T C^T = 0 (every row of rad
    pairs to zero with the carrier, both ways), and every row of R lies in
    the span of C."""
    field = form.module.field
    for g, r, c in zip(form._held_grams(), rad._rows, carrier._rows):
        zeros = _zeros(len(r), len(c), field)
        # the rows of R G and of R G^T, each paired with every row of C
        for times in (linalg.held_combine, linalg.held_product):
            if linalg.held_product(times(r, g, field), c, field) != zeros:
                return False
        if any(linalg.held_coordinates(c, v, field) is None for v in r):
            return False
    return True


def certify_orthogonal(form: BilinearForm, perp: Submodule, f: Submodule, side: str):
    """Two verdicts on perp = orthogonal(f, side), per X-component on held
    rows, with F the echelon rows of f and P those of perp: whether perp
    annihilates f on the requested side (side "left": phi(s, t) = 0, F G P^T
    = 0; side "right": phi(t, s) = 0, F G^T P^T = 0, the transpose of
    P G F^T), and whether the dimension formula dim perp = rank - rank(F G)
    (or F G^T) holds."""
    field = form.module.field
    times = linalg.held_combine if side == "left" else linalg.held_product
    annihilates = dimension_formula = True
    for g, p, rows in zip(form._held_grams(), perp._rows, f._rows):
        pairing = times(rows, g, field)
        if linalg.held_product(pairing, p, field) != _zeros(len(rows), len(p), field):
            annihilates = False
        if len(p) != form.module.rank - linalg.held_rank(pairing, field):
            dimension_formula = False
    return annihilates, dimension_formula


def classify_orthosymmetry(form: BilinearForm) -> OrthoClass:
    """Componentwise symmetry flags, plus an explicit counterexample pair
    whenever some component is neither symmetric nor alternating.

    The witness is a pair of sections r, s over the offending component
    (components of opens are opens) with phi(r, s) = 0 while phi(s, r) is
    nowhere-zero; `certify_witness` re-checks it before it is returned, and a
    pair that fails raises `SelfCheckFailed`. The class is computed once per
    form and kept on it.
    """
    return _kept(form, "class", lambda: _classify(form))


def _classify(form: BilinearForm) -> OrthoClass:
    """The body of `classify_orthosymmetry`, on the form's field elements."""
    field = form.module.field
    flags = []
    bad = None
    for c, g in enumerate(form.gram):
        gt = linalg.transpose(g)
        symmetric = g == gt
        alternating = g == tuple(
            tuple(-x for x in row) for row in gt
        ) and all(g[i][i] == field.zero for i in range(len(g)))
        flags.append(ComponentSymmetry(symmetric, alternating))
        if bad is None and not symmetric and not alternating:
            bad = c
    if bad is None:
        return OrthoClass(tuple(flags), True, None)

    u_vec, v_vec = _asymmetry_pair(form.gram[bad], field)
    space = form.module.space
    comp = form.module.x_components()[bad]
    comp_ref = space.ref(comp)
    r = ModuleSection(form.module, comp_ref, (u_vec,))
    s = ModuleSection(form.module, comp_ref, (v_vec,))
    witness = OrthoWitness(comp_ref, r, s)
    if not certify_witness(form, witness):
        raise SelfCheckFailed("the asymmetry pair fails phi(r, s) = 0 != phi(s, r)")
    return OrthoClass(tuple(flags), False, witness)


def certify_witness(form: BilinearForm, w: OrthoWitness) -> bool:
    """phi(r, s) = 0 while phi(s, r) is nowhere zero: the pair shows that
    the form is not orthosymmetric over the witness's open."""
    return form.evaluate(w.r, w.s).is_zero() and form.evaluate(w.s, w.r).is_nowhere_zero()


def _asymmetry_pair(g, field):
    """Vectors (r, s) with r G s^T = 0 but s G r^T != 0, for a matrix that is
    neither symmetric nor alternating. Classical construction, char != 2."""
    n = len(g)

    def phi(u, v):
        return linalg.dot(u, tuple(linalg.dot(row, v) for row in g))

    def unit(i):
        return tuple(field.one if j == i else field.zero for j in range(n))

    # a basis pair may already witness the failure outright
    for i in range(n):
        for j in range(n):
            if g[i][j] == field.zero and g[j][i] != field.zero:
                return unit(i), unit(j)

    # a, b with phi(a, b) != phi(b, a)
    a = b = None
    for i in range(n):
        for j in range(n):
            if g[i][j] != g[j][i]:
                a, b = unit(i), unit(j)
                break
        if a is not None:
            break
    if a is None:
        raise SelfCheckFailed("the matrix is symmetric: no asymmetry pair exists")

    def orthogonalize(x, y):
        # phi(x, x) != 0: subtract the projection so phi(x, s) = 0
        c = phi(x, y) / phi(x, x)
        s = linalg.sub_vec(y, linalg.scale(c, x))
        return x, s

    if phi(a, a) != field.zero:
        return orthogonalize(a, b)
    if phi(b, b) != field.zero:
        return orthogonalize(b, a)

    # some u with phi(u, u) != 0 exists since the form is not alternating
    u = None
    for i in range(n):
        if g[i][i] != field.zero:
            u = unit(i)
            break
    if u is None:
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] + g[j][i] != field.zero:
                    u = linalg.add_vec(unit(i), unit(j))
                    break
            if u is not None:
                break
    if u is None or phi(u, u) == field.zero:
        raise SelfCheckFailed("the matrix is alternating: no asymmetry pair exists")

    if phi(a, u) != phi(u, a):
        return orthogonalize(u, a)
    if phi(b, u) != phi(u, b):
        return orthogonalize(u, b)

    # shifting a by u keeps the asymmetry with b and gains self-pairing
    for shifted in (linalg.add_vec(a, u), linalg.sub_vec(a, u)):
        if phi(shifted, shifted) != field.zero:
            return orthogonalize(shifted, b)
    raise SelfCheckFailed("unreachable in characteristic != 2")
