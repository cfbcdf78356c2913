#!/usr/bin/env python3
"""Count points of degenerate flag varieties over small finite fields.

Over F_p the variety { (V_1, V_2) : f(V_1) <= V_2 } is a finite set, so
every geometric claim can be brute-forced: total point counts, torus fixed
points (coordinate subspace chains), and the census of singular points.
The script does this for m = 3, d = (1, 2) over F_2 and then checks the
corank-one singular-locus bijection on the m = 4 example point by point.
"""

from lindeg import (
    GF,
    DimVector,
    ProjectionTuple,
    RepMatrices,
    count_points,
    fixed_points,
    gaussian_binomial,
    sigma_bijection_report,
    singular_point_census,
)

dv = DimVector(3, (1, 2))
f2 = GF(2)

# The classical flag variety: |Fl(1,2;3)(F_2)| = (1+q)(1+q+q^2) at q = 2.
identity = RepMatrices.identity_tuple(f2, 3, 2)
print(f"identity tuple: {count_points(identity, dv)} points over F_2")
assert count_points(identity, dv) == (1 + 2) * (1 + 2 + 4) == 21

# The deepest degeneration is the full product Gr(1,3) x Gr(2,3).
zero = RepMatrices.zero_tuple(f2, 3, 2)
expected = gaussian_binomial(3, 1, 2) * gaussian_binomial(3, 2, 2)
print(f"zero tuple:     {count_points(zero, dv)} points "
      f"(= product of Grassmannian counts, {expected})")

# One coordinate killed: still flat and irreducible, one singular point.
J = ProjectionTuple(3, (frozenset({1}),))
census = singular_point_census(J.matrices(f2), dv)
print(f"one-kill tuple: {census.total} points, {census.singular} singular, "
      f"{census.smooth} smooth")

chains = fixed_points(J, dv)
print(f"\n{len(chains)} torus fixed points of the one-kill tuple:")
for chain in chains:
    print("   " + "  <=  ".join("{" + ",".join(map(str, s)) + "}" for s in chain))

# Corank-one singular locus over F_2, checked point by point: the singular
# points of Gr_d(M) biject with the model Grassmannian, here Gr(2, 3)(F_2).
print()
rep = sigma_bijection_report(DimVector(4, (1, 2)), 1, prime=2)
print(f"m = 4, d = (1, 2), corank one at edge 1 over F_2:")
print(f"  singular points found : {rep.singular_count}")
print(f"  model Grassmannian    : {rep.model_count} points "
      f"(Gaussian binomial [3 choose 2]_2 = {gaussian_binomial(3, 2, 2)})")
print(f"  bijection verified    : {rep.ok}")
assert rep.ok and rep.singular_count == rep.model_count == 7
