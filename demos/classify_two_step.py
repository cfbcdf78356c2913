#!/usr/bin/env python3
"""Classify every two-vertex linear degeneration with m = 6, d = (1, 4).

A single endomorphism f of C^6 determines a degenerate flag variety
    { (V_1, V_2) : dim V_i = d_i, f(V_1) <= V_2 }
inside Gr(1,6) x Gr(4,6), and only the rank of f matters up to isomorphism.
The script walks the ranks 6..0 and prints what the classifier knows about
each: flatness, irreducibility, smoothness, dimension, and singular locus.
"""

from lindeg import (
    QQ,
    DimVector,
    RankSequence,
    analyze_point,
    classify,
    construct_singular_witness,
    decomposition_of,
    representative,
    singular_model,
)

dv = DimVector(6, (1, 4))
print(f"ambient flag variety: dim = {dv.flag_dimension()}, d = {dv.d}, m = {dv.m}")
print()

header = f"{'rank':>4} {'flat':>5} {'irr':>5} {'smooth':>7} {'dim':>4}  singular locus"
print(header)
print("-" * len(header))
for r in range(6, -1, -1):
    rs = RankSequence.two_step(6, r)
    rep = classify(rs, dv)
    dim = rep.dimension if rep.dimension is not None else "-"
    if rep.singular is None:
        sing = "(reducible, not analysed)"
    elif rep.singular.kind == "empty":
        sing = "empty"
    elif rep.singular.kind == "exact":
        sing = f"dim {rep.singular.singular_dim} (codim {rep.singular.codim_lower})"
    else:
        sing = f"codim in [{rep.singular.codim_lower}, {rep.singular.codim_upper}]"
    print(
        f"{r:>4} {str(rep.flat):>5} {str(rep.irreducible):>5}"
        f" {str(rep.smooth):>7} {str(dim):>4}  {sing}"
    )

# The corank-one degeneration in detail: its singular locus is itself a
# smaller quiver Grassmannian, written down explicitly.
print()
rs5 = RankSequence.two_step(6, 5)
print(f"rank-5 orbit decomposes as {decomposition_of(rs5)}")
model = singular_model(dv, 1)
print(f"singular locus model at edge {model.h}:")
print(f"  module       {model.module}")
print(f"  vertex dims  {model.module_dims}")
print(f"  subrep dims  {model.sub_dims}")
print(f"  dimension    {model.singular_dim} (codimension {model.singular_codim})")

# An explicit singular point: a coordinate subrepresentation with excess
# tangent space, found by the closed-form witness recipe.
J = representative(rs5)
witness = construct_singular_witness(J, dv)
info = analyze_point(J.matrices(QQ), witness)
dim5 = classify(rs5, dv).dimension
print()
print(f"witness point: coordinate subspaces {witness.coordinates}")
print(f"  dim Hom(L, M/L) = {info.tangent_dim}, dim Ext(L, M/L) = {info.ext}")
print(f"  tangent dim {info.tangent_dim} > variety dim {dim5}: singular = {info.tangent_dim > dim5}")
assert info.tangent_dim > dim5 and info.tangent_dim == 12
