# Bilinear forms on free modules, orthogonals, and splitting.
#
# A form is a Gram matrix per component of X; phi(u, v) multiplies the row
# vector u by the Gram matrix and pairs with v. Orthogonals and radicals
# are exact nullspaces; a projection onto f is one elimination of
# [M | B G] per component, for B the echelon basis of f and M = B G B^T.

from fractions import Fraction

from sheafforms import (
    BilinearForm,
    validate_topology,
    FreeModule,
    RationalField,
    classify_orthosymmetry,
    intersect_submodules,
    span,
    sum_submodules,
)

Q = RationalField()
sier = validate_topology(("a", "b"), [(), ("a",), ("a", "b")])
module = FreeModule(sier, Q, 3)
e1, e2, e3 = module.canonical_basis()

# A symmetric form with a one dimensional radical: e3 pairs with nothing.
gram = (
    (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0)),
    ),
)
form = BilinearForm(module, gram)
print("phi(e1, e1) =", form.evaluate(e1, e1).values)
print("radical dims:", form.radical().dims)

# The orthogonal of a submodule, and the calculus it obeys.
f = span(module, [e1])
g = span(module, [e2])
fg = sum_submodules(f, g)
print("F perp dims:", form.orthogonal(f).dims)
lhs = form.orthogonal(fg)
rhs = intersect_submodules(form.orthogonal(f), form.orthogonal(g))
print("(F+G) perp == F perp meet G perp:", lhs == rhs)

# Projection onto a non-isotropic submodule. The residual t - p(t) is
# orthogonal to the whole submodule, exactly.
t = e1 + e2 + e3
p = form.project(f, t)
print("projection of e1+e2+e3 onto span(e1):", p.vectors)
print("residual pairs to zero:", form.evaluate(t - p, e1).is_zero())

split = form.orthogonal_split(f)
print("split dims:", split.submodule.dims, "+", split.complement.dims)

# Orthosymmetry is a dichotomy: each component Gram must be symmetric or
# alternating. This one is neither, and the classifier hands back a pair
# of sections orthogonal in one order only.
bad = BilinearForm(
    FreeModule(sier, Q, 2),
    (((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))),),
)
cls = classify_orthosymmetry(bad)
print("orthosymmetric:", cls.orthosymmetric)
w = cls.witness
print(
    "witness: phi(r, s) =", bad.evaluate(w.r, w.s).values,
    "but phi(s, r) =", bad.evaluate(w.s, w.r).values,
)
