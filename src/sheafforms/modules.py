"""Free modules over the structure algebra and their finitely generated
submodules.

A rank-n free module assigns to each open U one copy of k^n per connected
component of U; sections are tuples of row vectors, one per component, and
restriction reindexes them along the component refinement map.

A submodule is its module and one reduced echelon row basis per component
of the total space, held as `linalg` holds rows. Held rows are canonical,
so submodule equality is equality of the held rows, and the sections of the
submodule over any open U are read off through the refinement map (on each
U-component, membership in the subspace attached to the containing
X-component). `span`, `from_rows`, `full_submodule`, `zero_submodule` and
the calculus build the held rows directly: `sum_submodules` is one
`held_rref` of the stacked rows, `intersect_submodules` one Zassenhaus
elimination (`held_intersect`), and `Submodule.contains` reads each
vector's coordinates over the rows (`held_coordinates`). Field elements are
made only when `bases` is read, once per submodule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .algebra import AlgebraSection
from .errors import ModuleMismatch, NotFree, OpenMismatch
from .topology import FiniteSpace, OpenRef


@dataclass(frozen=True)
class FreeModule:
    space: FiniteSpace
    field: object
    rank: int

    @property
    def x_ref(self) -> OpenRef:
        return self.space.x_ref

    def x_components(self):
        return self.space.components_of(self.space.x_ref)

    def zero_section(self, open: OpenRef) -> "ModuleSection":
        n = len(self.space.components_of(open))
        zero = linalg.zero_vec(self.rank, self.field)
        return ModuleSection(self, open, (zero,) * n)

    def canonical_basis(self):
        """Global sections e_1 .. e_rank, the same unit vector on every
        component."""
        n = len(self.x_components())
        out = []
        for i in range(self.rank):
            e = tuple(
                self.field.one if j == i else self.field.zero
                for j in range(self.rank)
            )
            out.append(ModuleSection(self, self.space.x_ref, (e,) * n))
        return out

    def section(self, open: OpenRef, vectors) -> "ModuleSection":
        return ModuleSection(self, open, tuple(tuple(v) for v in vectors))


@dataclass(frozen=True)
class ModuleSection:
    module: FreeModule
    open: OpenRef
    vectors: tuple  # one length-rank tuple per component of opens[open]

    def __post_init__(self):
        ncomp = len(self.module.space.components_of(self.open))
        if len(self.vectors) != ncomp:
            raise OpenMismatch(
                f"section over open {self.open} needs {ncomp} component vectors, "
                f"got {len(self.vectors)}"
            )
        for v in self.vectors:
            if len(v) != self.module.rank:
                raise ModuleMismatch(
                    f"component vector has length {len(v)}, module rank is "
                    f"{self.module.rank}"
                )

    def _check_compatible(self, other):
        if self.module != other.module:
            raise ModuleMismatch("sections belong to different modules")
        if self.open != other.open:
            raise OpenMismatch(
                f"sections over different opens: {self.open} vs {other.open}"
            )

    def __add__(self, other):
        if not isinstance(other, ModuleSection):
            return NotImplemented
        self._check_compatible(other)
        return ModuleSection(
            self.module, self.open,
            tuple(linalg.add_vec(a, b) for a, b in zip(self.vectors, other.vectors)),
        )

    def __sub__(self, other):
        if not isinstance(other, ModuleSection):
            return NotImplemented
        self._check_compatible(other)
        return ModuleSection(
            self.module, self.open,
            tuple(linalg.sub_vec(a, b) for a, b in zip(self.vectors, other.vectors)),
        )

    def __neg__(self):
        return ModuleSection(
            self.module, self.open, tuple(linalg.scale(-self.module.field.one, v) for v in self.vectors)
        )

    def __rmul__(self, other):
        """Multiplication by an algebra section over the same open, or by a
        plain scalar (treated as a constant section)."""
        if isinstance(other, AlgebraSection):
            if other.space != self.module.space or other.field != self.module.field:
                raise ModuleMismatch("scalar section belongs to a different algebra")
            if other.open != self.open:
                raise OpenMismatch(
                    f"scalar over open {other.open}, section over {self.open}"
                )
            return ModuleSection(
                self.module, self.open,
                tuple(linalg.scale(a, v) for a, v in zip(other.values, self.vectors)),
            )
        return ModuleSection(
            self.module, self.open,
            tuple(linalg.scale(other, v) for v in self.vectors),
        )

    def restrict(self, v: OpenRef) -> "ModuleSection":
        refinement = self.module.space.component_refinement(v, self.open)
        return ModuleSection(
            self.module, v, tuple(self.vectors[i] for i in refinement)
        )

    def is_zero(self) -> bool:
        return all(linalg.is_zero_vec(v, self.module.field) for v in self.vectors)

    def is_nowhere_zero(self) -> bool:
        return all(not linalg.is_zero_vec(v, self.module.field) for v in self.vectors)

    def __repr__(self):
        f = self.module.field
        comps = "; ".join(
            "(" + ", ".join(f.format(x) for x in v) + ")" for v in self.vectors
        )
        return f"ModuleSection(open={self.open}, {comps})"


@dataclass(frozen=True)
class Submodule:
    """A submodule is its module and, per X-component, its reduced echelon
    rows as `linalg` holds them. Held rows are canonical, so two submodules
    are equal exactly when their rows are equal; `bases`, the rows as field
    elements, is released from them on first read."""

    module: FreeModule
    _rows: tuple  # per X-component: reduced echelon rows, held

    def __hash__(self):
        # held rows may be lists; equal submodules share module and dims
        return hash((self.module, self.dims))

    @cached_property
    def bases(self) -> tuple:
        """Per X-component, the reduced echelon rows as field elements."""
        field = self.module.field
        return tuple(linalg.release(rows, field) for rows in self._rows)

    @property
    def dims(self):
        return tuple(map(len, self._rows))

    def is_free(self):
        """Common component dimension if there is one, else None."""
        dims = set(self.dims)
        if len(dims) == 1:
            return next(iter(dims))
        return None

    def global_basis(self):
        """Glue the echelon bases rowwise into global sections.

        Only a submodule with the same dimension on every component has a
        global basis; the i-th basis section takes the i-th echelon row on
        each component.
        """
        r = self.is_free()
        if r is None:
            raise NotFree(
                f"component dimensions differ: {self.dims}", dims=self.dims
            )
        x = self.module.space.x_ref
        return [
            ModuleSection(self.module, x, tuple(b[i] for b in self.bases))
            for i in range(r)
        ]

    def contains(self, section: ModuleSection) -> bool:
        """Membership of a section over any open, componentwise through the
        refinement map: the section's vectors are held once and each is
        checked against the echelon rows of its X-component."""
        if section.module != self.module:
            raise ModuleMismatch("section belongs to a different module")
        space = self.module.space
        refinement = space.component_refinement(section.open, space.x_ref)
        field = self.module.field
        for v, xc in zip(linalg.hold(section.vectors, field), refinement):
            if linalg.held_coordinates(self._rows[xc], v, field) is None:
                return False
        return True

    def __repr__(self):
        return f"Submodule(dims={self.dims})"


def span(module: FreeModule, sections) -> Submodule:
    """Submodule generated by global sections."""
    x = module.space.x_ref
    ncomp = len(module.x_components())
    rows = [[] for _ in range(ncomp)]
    for s in sections:
        if s.module != module:
            raise ModuleMismatch("generator belongs to a different module")
        if s.open != x:
            raise OpenMismatch("generators must be global sections")
        for c, v in enumerate(s.vectors):
            rows[c].append(v)
    return from_rows(module, rows)


def from_rows(module: FreeModule, per_component_rows) -> Submodule:
    """Internal constructor: echelonize raw per-component row lists."""
    field = module.field
    return Submodule(module, tuple(
        linalg.held_rref(linalg.hold(rows, field), field)[0] for rows in per_component_rows
    ))


def full_submodule(module: FreeModule) -> Submodule:
    n = module.rank
    ident = linalg.held_ints([[int(i == j) for j in range(n)] for i in range(n)], module.field)
    return Submodule(module, (ident,) * len(module.x_components()))


def zero_submodule(module: FreeModule) -> Submodule:
    return Submodule(module, ((),) * len(module.x_components()))


def sum_submodules(f: Submodule, g: Submodule) -> Submodule:
    if f.module != g.module:
        raise ModuleMismatch("submodules of different modules")
    field = f.module.field
    return Submodule(f.module, tuple(
        linalg.held_rref(a + b, field)[0] for a, b in zip(f._rows, g._rows)
    ))


def intersect_submodules(f: Submodule, g: Submodule) -> Submodule:
    if f.module != g.module:
        raise ModuleMismatch("submodules of different modules")
    field, n = f.module.field, f.module.rank
    return Submodule(f.module, tuple(
        linalg.held_intersect(a, b, n, field) for a, b in zip(f._rows, g._rows)
    ))
