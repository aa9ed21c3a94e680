"""Topology validation, component structure, and restriction plumbing."""

import gc
import itertools
from random import Random

import pytest

from sheafforms import (
    MissingEmptyOrTotal,
    NotASubset,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    components_by_separation,
    validate_topology,
)
from sheafforms.topology import space_memo_stats


def test_accepts_standard_spaces(point_space, sierpinski, discrete_pair, three_point):
    assert len(point_space.opens) == 2
    assert len(sierpinski.opens) == 3
    assert len(discrete_pair.opens) == 4
    assert len(three_point.opens) == 5


def test_missing_empty_rejected():
    with pytest.raises(MissingEmptyOrTotal):
        validate_topology(("a",), [("a",)])


def test_missing_total_rejected():
    with pytest.raises(MissingEmptyOrTotal):
        validate_topology(("a", "b"), [(), ("a",)])


def test_union_axiom_rejected():
    with pytest.raises(NotClosedUnderUnion) as err:
        validate_topology(
            ("a", "b", "c"), [(), ("a",), ("b",), ("a", "b", "c")]
        )
    assert "pair" in err.value.witness


def test_intersection_axiom_rejected():
    with pytest.raises(NotClosedUnderIntersection) as err:
        validate_topology(
            ("a", "b", "c"),
            [(), ("a", "b"), ("b", "c"), ("a", "b", "c")],
        )
    assert "pair" in err.value.witness


def test_stray_point_rejected():
    with pytest.raises(NotASubset):
        validate_topology(("a",), [(), ("a",), ("b",)])


def test_duplicate_point_rejected():
    with pytest.raises(NotASubset):
        validate_topology(("a", "a"), [(), ("a",)])


def test_duplicate_opens_collapse():
    space = validate_topology(("a",), [(), ("a",), ()])
    assert len(space.opens) == 2


def test_ref_rejects_non_open(discrete_pair):
    with pytest.raises(NotASubset):
        discrete_pair.ref(("c",))


def test_component_counts(sierpinski, discrete_pair, three_point):
    assert len(sierpinski.components_of(sierpinski.x_ref)) == 1
    assert len(discrete_pair.components_of(discrete_pair.x_ref)) == 2
    # c is glued to both a and b through the total set
    assert len(three_point.components_of(three_point.x_ref)) == 1
    ab = three_point.ref(("a", "b"))
    assert len(three_point.components_of(ab)) == 2


def test_components_are_ordered_by_first_point(discrete_pair):
    comps = discrete_pair.components_of(discrete_pair.x_ref)
    assert sorted(comps[0])[0] == "a"
    assert sorted(comps[1])[0] == "b"


def test_components_match_separation_oracle(
    point_space, sierpinski, discrete_pair, three_point
):
    # brute force: quasi-components from clopen separation agree with the
    # adjacency-based computation on every open of every fixture
    for space in (point_space, sierpinski, discrete_pair, three_point):
        for u in range(len(space.opens)):
            assert set(space.components_of(u)) == set(
                components_by_separation(space, u)
            )


def test_components_of_open_are_open(three_point):
    for u in range(len(three_point.opens)):
        for comp in three_point.components_of(u):
            three_point.ref(tuple(sorted(comp)))  # raises if not open


def test_refinement_maps_into_components(three_point):
    x = three_point.x_ref
    ab = three_point.ref(("a", "b"))
    ref = three_point.component_refinement(ab, x)
    assert len(ref) == 2
    assert all(r == 0 for r in ref)  # the total set is connected


def test_refinement_is_functorial(three_point):
    # W <= V <= U: composing V->U with W->V equals W->U
    space = three_point
    opens = range(len(space.opens))
    for w, v, u in itertools.product(opens, repeat=3):
        w_pts, v_pts, u_pts = (set(space.opens[i]) for i in (w, v, u))
        if not (w_pts <= v_pts <= u_pts):
            continue
        w_to_v = space.component_refinement(w, v)
        v_to_u = space.component_refinement(v, u)
        w_to_u = space.component_refinement(w, u)
        assert tuple(v_to_u[i] for i in w_to_v) == w_to_u


def test_refinement_requires_subset(three_point):
    with pytest.raises(NotASubset):
        three_point.component_refinement(
            three_point.x_ref, three_point.ref(("a",))
        )


def test_all_sub_opens_enumerated(discrete_pair):
    subs = discrete_pair.sub_opens(discrete_pair.x_ref)
    assert len(subs) == 4
    a_only = discrete_pair.ref(("a",))
    assert discrete_pair.sub_opens(a_only) == (discrete_pair.empty_ref, a_only)


def _memo_delta(before):
    after = space_memo_stats()
    return after["hits"] - before["hits"], after["misses"] - before["misses"]


class TestSpaceMemo:
    """Validated spaces are remembered by content while one is alive."""

    def test_hit_is_a_new_space_sharing_the_validated_tuples(self):
        points, opens = ("ha", "hb"), [(), ("ha",), ("ha", "hb")]
        first = validate_topology(points, opens)
        before = space_memo_stats()
        second = validate_topology(list(points), [list(o) for o in opens])
        assert _memo_delta(before) == (1, 0)
        assert second == first and second is not first
        assert second.points is first.points
        assert second.opens is first.opens
        assert second.components is first.components

    def test_points_of_equal_value_and_other_type_stay_apart(self):
        kinds = (1, True, 1.0)
        spaces = [validate_topology((p,), [(), (p,)]) for p in kinds]
        before = space_memo_stats()
        again = [validate_topology((p,), [(), (p,)]) for p in kinds]
        assert _memo_delta(before) == (3, 0)
        for p, first, second in zip(kinds, spaces, again):
            assert type(first.points[0]) is type(second.points[0]) is type(p)
            assert second.opens is first.opens

    def test_invalid_input_raises_each_time_and_is_never_a_hit(self):
        points, opens = ("ia", "ib", "ic"), [(), ("ia",), ("ib",), ("ia", "ib", "ic")]
        before = space_memo_stats()
        errors = []
        for _ in range(3):
            with pytest.raises(NotClosedUnderUnion) as err:
                validate_topology(points, opens)
            errors.append((err.value.code, err.value.message, err.value.witness))
        assert _memo_delta(before) == (0, 3)
        assert errors[0] == errors[1] == errors[2]
        assert errors[0][2] == {"pair": ({"ia"}, {"ib"})}

    def test_entry_goes_with_the_last_space(self):
        points, opens = ("wa", "wb"), [(), ("wa",), ("wa", "wb")]
        space = validate_topology(points, opens)
        copy = validate_topology(points, opens)
        live = space_memo_stats()["live"]
        del space, copy
        gc.collect()
        assert space_memo_stats()["live"] < live
        before = space_memo_stats()
        validate_topology(points, opens)
        assert _memo_delta(before) == (0, 1)

    def test_entry_outlives_the_first_space_while_a_copy_lives(self):
        points, opens = ("sa", "sb"), [(), ("sa",), ("sa", "sb")]
        before = space_memo_stats()
        first = validate_topology(points, opens)
        second = validate_topology(points, opens)
        del first
        gc.collect()
        third = validate_topology(points, opens)
        assert _memo_delta(before) == (2, 1)
        assert third.opens is second.opens
        assert third.components is second.components

    def test_duplicate_candidate_keeps_its_first_index(self):
        opens = [("da",), (), ("da",), ("da", "db"), ()]
        expected = (frozenset({"da"}), frozenset(), frozenset({"da", "db"}))
        first = validate_topology(("da", "db"), opens)
        second = validate_topology(("da", "db"), opens)
        assert first.opens == second.opens == expected
        assert (first.ref(("da",)), first.empty_ref, first.x_ref) == (0, 1, 2)


def _reference_axiom_error(points, candidates):
    """The pairwise frozenset scan the bitmask check replaced: the code,
    message and witness of the first failing pair, or None."""
    opens = []
    for o in candidates:
        if frozenset(o) not in opens:
            opens.append(frozenset(o))
    open_set = set(opens)
    for i, a in enumerate(opens):
        for b in opens[i + 1:]:
            for code, what, c in (
                ("NotClosedUnderUnion", "union", a | b),
                ("NotClosedUnderIntersection", "intersection", a & b),
            ):
                if c not in open_set:
                    pair = (set(a), set(b))
                    return code, f"{what} of {set(a)!r} and {set(b)!r} is not open", pair
    return None


def _broken_topologies(seed, count):
    """Topologies (the down-sets of a random relation) with opens dropped or
    added, and random families; all hold the empty and the total set."""
    rng = Random(seed)
    for _ in range(count):
        points = tuple(f"q{i}" for i in range(rng.randint(2, 5)))
        subsets = [c for k in range(len(points) + 1) for c in itertools.combinations(points, k)]
        if rng.random() < 0.5:
            below = {(a, b) for a in points for b in points if a == b or rng.random() < 0.3}
            opens = [
                u for u in subsets if all(b in u for a in u for b in points if (b, a) in below)
            ]
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.5 and len(opens) > 2:
                    del opens[rng.randrange(len(opens))]
                else:
                    opens.append(rng.choice(subsets))
        else:
            opens = [u for u in subsets if rng.random() < 0.4]
        opens += [(), points]
        rng.shuffle(opens)
        yield points, opens


def test_axiom_witness_matches_the_pairwise_scan():
    failures = 0
    for points, opens in _broken_topologies(seed=7, count=400):
        expected = _reference_axiom_error(points, opens)
        try:
            space = validate_topology(points, opens)
        except (NotClosedUnderUnion, NotClosedUnderIntersection) as err:
            failures += 1
            assert (err.code, err.message, err.witness["pair"]) == expected
        else:
            assert expected is None
            for u in range(len(space.opens)):
                assert space.components_of(u) == components_by_separation(space, u)
    assert 100 < failures < 400  # the corpus holds both outcomes


def test_refs_and_point_index_are_computed_once_per_space(
    point_space, sierpinski, discrete_pair, three_point
):
    # a memo hit is a new space and computes its own, equal to the scan
    copy = validate_topology(three_point.points, three_point.opens)
    assert copy is not three_point and copy.opens is three_point.opens
    for space in (point_space, sierpinski, discrete_pair, three_point, copy):
        assert space.x_ref == space.opens.index(frozenset(space.points))
        assert space.empty_ref == space.opens.index(frozenset())
        assert space.point_index == {p: i for i, p in enumerate(space.points)}
        kept = vars(space)
        assert {"x_ref", "empty_ref", "point_index"} <= kept.keys()
        assert space.point_index is kept["point_index"]
        with pytest.raises(TypeError):
            space.point_index[space.points[0]] = 7
