# Finite topological spaces and their open-set lattices.
#
# A space is declared by listing its points and its open sets. The
# constructor checks the axioms and refuses anything that is not a
# topology, naming a witness pair.

from sheafforms import SheafFormsError, validate_topology

# The Sierpinski space: two points, one of them open on its own.
sier = validate_topology(("a", "b"), [(), ("a",), ("a", "b")])
print("points:", sier.points)
print("opens:", [tuple(sorted(u)) for u in sier.opens])


def in_point_order(space, components):
    """Components as tuples of points in declaration order, so the output
    does not depend on how frozensets happen to iterate."""
    return [tuple(p for p in space.points if p in c) for c in components]


# Every open decomposes into connected components. The whole Sierpinski
# space is connected because "a" sits inside every neighbourhood of "b".
print("components of X:", in_point_order(sier, sier.components_of(sier.x_ref)))

# A discrete two point space splits into two components.
pair = validate_topology(("a", "b"), [(), ("a",), ("b",), ("a", "b")])
print("discrete pair components:", in_point_order(pair, pair.components_of(pair.x_ref)))

# Component refinement: when V sits inside U, each component of V lands in
# exactly one component of U. This map is what transports section values.
u = pair.x_ref
v = pair.ref(("a",))
print("refinement a -> X:", pair.component_refinement(v, u))

# Axiom violations are rejected with the offending pair spelled out.
try:
    validate_topology(("a", "b", "c"), [(), ("a",), ("b",), ("a", "b", "c")])
except SheafFormsError as err:
    print("rejected:", err.code, "-", err)
