"""Finite topological spaces with per-open connected component data.

A space is a finite ordered point set plus an explicit list of opens that is
validated to be a topology (empty set and total set present, closed under
pairwise union and intersection; finiteness makes pairwise closure enough).
Opens are referenced everywhere by their stable index in the list. The
public `FiniteSpace.opens` is a tuple of frozensets.

Validation holds each open as an int bitmask over the point order (bit i is
points[i]), so the closure check on a pair of opens is one OR, one AND and
two set lookups. Pairs are scanned in list order, union before
intersection, and the first failing pair is the witness.

Components are computed through minimal open neighborhoods: U_x, the
intersection of all opens containing x (the AND of their masks), is itself
open and connected, and two points of an open U lie in the same component of
U iff they are linked by a chain x ~ y with y in U_x or x in U_y. Components
of opens are again open (finite spaces are locally connected), so each
component is stored as the open with its points.
Component lists are ordered by their smallest point (in point order), which
fixes the layout of every section-valued structure built on top.
`components_by_separation` computes the same components from the definition
and is the reference that tests compare against.

Validated spaces are remembered by content in a weak table
(`weakref.WeakValueDictionary`): the key is the ordered points, each tagged
with its type (so 1, True and 1.0 stay apart), and the ordered candidate
opens as frozensets. A call that finds no entry validates and stores the
space it builds. While that space is alive, a call with the same content
skips validation and returns a new `FiniteSpace` sharing its `points`,
`opens` and `components` tuples, equal to what validating afresh would
return; being a new object, it keeps the spaces of separate calls apart by
identity. Each such copy holds the stored space, so the entry lives as long
as any space of that content does, whichever was made first; the table
itself keeps no space alive. Only valid spaces are stored: an invalid input
raises its witness on every call. `space_memo_stats()` reports the hit and
miss counts.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .errors import (
    MissingEmptyOrTotal,
    NotASubset,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    SelfCheckFailed,
)

OpenRef = int


@dataclass(frozen=True)
class FiniteSpace:
    points: tuple
    opens: tuple  # of frozensets, stable order
    components: tuple = field(compare=False)  # per open: tuple of frozensets
    # on a memo hit, the space the memo stores for this content: holding it
    # keeps the memo entry alive as long as any space from the content lives
    _origin: object = field(default=None, compare=False, repr=False)

    # computed on first use and kept on the space (a frozen dataclass keeps
    # them in its instance dict, outside its fields)
    @cached_property
    def point_index(self):
        """Point -> its position in `points`, read-only."""
        return MappingProxyType({p: i for i, p in enumerate(self.points)})

    @cached_property
    def x_ref(self) -> OpenRef:
        return self.opens.index(frozenset(self.points))

    @cached_property
    def empty_ref(self) -> OpenRef:
        return self.opens.index(frozenset())

    def ref(self, pts) -> OpenRef:
        """Index of the open with exactly these points."""
        target = frozenset(pts)
        try:
            return self.opens.index(target)
        except ValueError:
            raise NotASubset(f"{set(pts)!r} is not an open of this space") from None

    def components_of(self, u: OpenRef):
        return self.components[u]

    def sub_opens(self, u: OpenRef):
        """Refs of all opens contained in opens[u]."""
        big = self.opens[u]
        return tuple(i for i, o in enumerate(self.opens) if o <= big)

    def component_refinement(self, v: OpenRef, u: OpenRef):
        """For each component of opens[v], the index of the component of
        opens[u] containing it. Requires opens[v] to be a subset of opens[u]."""
        vo, uo = self.opens[v], self.opens[u]
        if not vo <= uo:
            raise NotASubset(f"{set(vo)!r} is not contained in {set(uo)!r}")
        ucomps = self.components[u]
        out = []
        for comp in self.components[v]:
            rep = next(iter(comp))
            hits = [i for i, uc in enumerate(ucomps) if rep in uc]
            # a connected piece lies in exactly one component
            if len(hits) != 1 or not comp <= ucomps[hits[0]]:
                raise SelfCheckFailed(
                    f"component {set(comp)!r} of open {v} lies in no single component of open {u}"
                )
            out.append(hits[0])
        return tuple(out)

    def __repr__(self):
        return f"FiniteSpace(points={list(self.points)!r}, opens={len(self.opens)})"


# content key -> a live space validated from that content
_SPACES = weakref.WeakValueDictionary()
_COUNTS = {"hits": 0, "misses": 0}


def space_memo_stats() -> dict:
    """Counts of the validated-space memo since import: `hits` (calls that
    reused a live space), `misses` (lookups that found none, valid input or
    not) and `live` (entries whose space is still alive)."""
    return {**_COUNTS, "live": len(_SPACES)}


def _bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component_masks(u: int, link) -> list:
    """Connected components of an open, as masks, via minimal neighborhood
    chains; `link[i]` is U_i together with every point whose U holds i.
    Each block grows from the lowest point left, so the list is ordered by
    first point."""
    comps = []
    while u:
        block = frontier = u & -u
        while frontier:
            reach = 0
            for i in _bits(frontier):
                reach |= link[i]
            frontier = reach & u & ~block
            block |= frontier
        comps.append(block)
        u &= ~block
    return comps


def _pair_error(kind, what: str, a: frozenset, b: frozenset):
    return kind(f"{what} of {set(a)!r} and {set(b)!r} is not open", pair=(set(a), set(b)))


def _build(points: tuple, candidates: list) -> FiniteSpace:
    """Check the axioms on bitmask opens and build the space (a memo miss)."""
    bit = {p: 1 << i for i, p in enumerate(points)}
    opens, masks, seen = [], [], set()
    for fo in candidates:
        m = sum(bit[p] for p in fo)
        if m not in seen:
            seen.add(m)
            opens.append(fo)
            masks.append(m)

    full = (1 << len(points)) - 1
    if 0 not in seen or full not in seen:
        raise MissingEmptyOrTotal("opens must contain the empty set and the total set")

    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            b = masks[j]
            if a | b not in seen:
                raise _pair_error(NotClosedUnderUnion, "union", opens[i], opens[j])
            if a & b not in seen:
                raise _pair_error(NotClosedUnderIntersection, "intersection", opens[i], opens[j])

    min_nbhd = []
    for i in range(len(points)):
        nbhd = full
        for m in masks:
            if m >> i & 1:
                nbhd &= m
        if nbhd not in seen:  # closure under intersection makes U_x open
            raise SelfCheckFailed(f"the minimal neighborhood of {points[i]!r} is not open")
        min_nbhd.append(nbhd)
    link = [
        u | sum(1 << j for j, v in enumerate(min_nbhd) if v >> i & 1)
        for i, u in enumerate(min_nbhd)
    ]

    # components of opens are opens in finite spaces, so each has its entry
    by_mask = dict(zip(masks, opens))
    components = tuple(
        tuple(by_mask[c] for c in _component_masks(m, link)) for m in masks
    )
    return FiniteSpace(points=points, opens=tuple(opens), components=components)


def validate_topology(points, candidate_opens) -> FiniteSpace:
    """Check the topology axioms and build the space, or raise with a witness.

    Duplicate candidate opens are dropped (first occurrence keeps the index).
    Content seen before, while its space is alive, is not checked again (see
    the module docstring).
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise NotASubset("duplicate points")
    total = frozenset(points)
    candidates = []
    for o in candidate_opens:
        fo = frozenset(o)
        if not fo <= total:
            raise NotASubset(f"open {set(fo)!r} contains points outside the space")
        candidates.append(fo)

    key = (tuple((type(p), p) for p in points), tuple(candidates))
    live = _SPACES.get(key)
    if live is not None:
        _COUNTS["hits"] += 1
        return FiniteSpace(live.points, live.opens, live.components, live)
    _COUNTS["misses"] += 1
    space = _build(points, candidates)
    _SPACES[key] = space
    return space


def components_by_separation(space: FiniteSpace, u: OpenRef):
    """Brute-force components of an open, straight from the definition.

    A subset of U is clopen in U iff both it and its complement in U are
    opens of the space (U being open, relative opens are absolute ones).
    The component of x is the intersection of all clopen-in-U sets holding x;
    in finite spaces quasi-components are components.
    """
    big = space.opens[u]
    clopens = [o for o in space.opens if o <= big and (big - o) in set(space.opens)]
    index = space.point_index
    comps = []
    seen = set()
    for p in sorted(big, key=index.get):
        if p in seen:
            continue
        block = big
        for cl in clopens:
            if p in cl:
                block = block & cl
        comps.append(frozenset(block))
        seen |= block
    comps.sort(key=lambda c: min(index[q] for q in c))
    return tuple(comps)
