#!/usr/bin/env python3
"""Exhibit explicit singular points on flat irreducible degenerations.

Whenever some map in the tuple drops rank, the variety acquires singular
points, and for the canonical orbit representatives one of them can be
written down in closed form: a chain of coordinate subspaces whose tangent
space exceeds the variety dimension by dim Ext^1(L, M/L) > 0.  The script
builds the witness for two quivers and verifies it over several fields.
"""

from lindeg import (
    GF,
    QQ,
    DimVector,
    analyze_point,
    construct_singular_witness,
    dimension,
    single_kill_tuple,
    singular_summary,
)


def show(J, dv, fields):
    rs = J.rank_sequence()
    dim = dimension(rs, dv)
    info = singular_summary(rs, dv)
    print(f"m = {dv.m}, d = {dv.d}, edge ranks {rs.edge_ranks()}")
    print(f"  variety dimension {dim}, singular locus kind '{info.kind}',"
          f" codim in [{info.codim_lower}, {info.codim_upper}]")
    print(f"  witness chain {construct_singular_witness(J, dv).coordinates}")
    for field in fields:
        witness = construct_singular_witness(J, dv, field)
        pt = analyze_point(J.matrices(field), witness)
        tag = f"F_{field.characteristic}" if field.is_modular else "Q"
        print(f"    over {tag}: tangent {pt.tangent_dim} = {dim} + {pt.ext},"
              f" singular = {pt.tangent_dim > dim}")
        assert pt.tangent_dim > dim and pt.tangent_dim == dim + pt.ext
    print()


# Two vertices, one projection of corank one.
show(single_kill_tuple(4, 2, 1), DimVector(4, (1, 2)), (QQ, GF(2), GF(7)))

# Three vertices, the rank drop in the middle of the quiver.
show(single_kill_tuple(4, 3, 2), DimVector(4, (1, 2, 3)), (QQ, GF(3)))
