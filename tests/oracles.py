"""Independent oracle implementations used only by the tests.

Each oracle recomputes a library answer by a visibly different route:
decompositions by solving the hom-count linear system, orbit lists by brute
force over all matrix tuples of F_2, Hasse covers by scanning all triples,
Hasse diagrams as DOT text from each orbit's own node name and edge ranks,
singular point censuses by analyzing every point, flatness flags by comparing
with the stratum's target rank tables, points of a quiver Grassmannian by a
walk over validated subspaces, the analysis and cell dimension of a fixed
point from one pair of strands per coordinate, reduced row echelon forms by
full-row Gauss-Jordan elimination, rank tables by counting the summands that
contain each entry or by multiplying out every composite, and multiplicities
by second differences of the table.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from lindeg import (
    CensusResult,
    Decomposition,
    DimVector,
    FlatFlags,
    Interval,
    PointAnalysis,
    ProjectionTuple,
    RankSequence,
    RankTable,
    RepMatrices,
    SubrepPoint,
    analyze_point,
    dimension,
    enumerate_subreps,
    euler_form,
    ext_dim,
    hom_dim,
    hom_dim_intervals,
    intertwiner_space_dim,
    map_subspace,
    span,
    stratum_of,
    stratum_rank_targets,
    subspaces_iter,
)


def rref_oracle(rows: Sequence[Sequence], p: int) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form of field rows over F_p, or Q for p = 0, and
    its pivot columns, by Gauss-Jordan elimination on whole rows: each pivot
    row is scaled to a leading 1 and then clears its column in every other
    row.  The input rows are not changed."""
    rows = [list(row) for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r]
        if lead[c] != 1:
            if p:
                inv = pow(lead[c], -1, p)
                lead = [x * inv % p for x in lead]
            else:
                inv = 1 / lead[c]
                lead = [x * inv for x in lead]
            rows[r] = lead
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                if p:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
                else:
                    rows[i] = [x - f * y for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in rows], pivots


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination over Q for a square nonsingular system."""
    reduced, pivots = rref_oracle([row + [b] for row, b in zip(rows, rhs)], 0)
    assert pivots == list(range(len(rows))), "singular system"
    return [row[-1] for row in reduced]


def ranks_oracle(D: Decomposition) -> RankTable:
    """Rank table of a decomposition: entry (a, b) counts the summands
    U[s,e] with s <= a and b <= e."""
    return RankTable.from_function(
        D.n, lambda a, b: sum(k for iv, k in D.items if iv.start <= a and b <= iv.end)
    )


def rank_profile_oracle(rep: RepMatrices) -> RankTable:
    """Rank table of a matrix tuple: entry (a, b) is the rank, by
    ``rref_oracle``, of the product f_{b-1} ... f_a multiplied out by a
    triple loop of its own, not by the library's product."""
    p = rep.field.characteristic

    def entry(a: int, b: int) -> int:
        size = rep.dims[a - 1]
        prod = [[int(i == j) for j in range(size)] for i in range(size)]
        for f in rep.maps[a - 1 : b - 1]:
            prod = [
                [sum(f.entries[i][k] * prod[k][j] for k in range(f.ncols)) for j in range(size)]
                for i in range(f.nrows)
            ]
        rows = [[x % p if p else Fraction(x) for x in row] for row in prod]
        return len(rref_oracle(rows, p)[1])

    return RankTable.from_function(rep.n, entry)


def multiplicity(table: RankTable, a: int, b: int) -> int:
    """Second difference of a rank table at (a, b), with zeros outside it:
    the multiplicity of U[a,b] in any realization."""
    r = table.r
    return r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)


def decomposition_oracle(rep: RepMatrices) -> Decomposition:
    """Recover interval multiplicities from hom dimensions alone.

    dim Hom(U_I, M) = sum_J mult_J hom(U_I, U_J) is a square linear system
    over the intervals; the left side comes from the intertwiner kernel, the
    right side from the hom table.  No rank tables involved.
    """
    n = rep.n
    intervals = [Interval(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    rows = [
        [Fraction(hom_dim_intervals(x, y)) for y in intervals] for x in intervals
    ]
    rhs = []
    for x in intervals:
        ux = RepMatrices.from_decomposition(Decomposition.from_intervals(n, [x]), rep.field)
        rhs.append(
            Fraction(intertwiner_space_dim(rep.field, ux.dims, ux.maps, rep.dims, rep.maps))
        )
    sol = _solve_exact(rows, rhs)
    mult = {}
    for iv, k in zip(intervals, sol):
        assert k.denominator == 1 and k >= 0, f"non-integral multiplicity {k} for {iv}"
        if k:
            mult[iv] = int(k)
    return Decomposition.from_multiplicities(n, mult)


def _gf2_rank(rows: list[int]) -> int:
    """Rank of a 0/1 matrix with rows packed as bitmasks."""
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def bruteforce_orbit_tables_f2(m: int, n: int) -> set[tuple[tuple[int, ...], ...]]:
    """All rank tables of tuples of m x m matrices over F_2, by exhaustion.

    Returns tables in row form ((R[1][1], ..., R[1][n]), (R[2][2], ...), ...).
    """
    cells = m * m
    all_matrices = []
    for bits in range(1 << cells):
        rows = [[bits >> (i * m + j) & 1 for j in range(m)] for i in range(m)]
        all_matrices.append(rows)

    def mat_mul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(m)) % 2 for j in range(m)]
            for i in range(m)
        ]

    def mat_rank(A):
        packed = [sum(A[i][j] << j for j in range(m)) for i in range(m)]
        return _gf2_rank(packed)

    identity = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    tables = set()
    for combo in itertools.product(range(1 << cells), repeat=n - 1):
        maps = [all_matrices[c] for c in combo]
        rows = []
        for a in range(1, n + 1):
            row = []
            prod = identity
            for b in range(a, n + 1):
                if b > a:
                    prod = mat_mul(maps[b - 2], prod)
                row.append(mat_rank(prod))
            rows.append(tuple(row))
        tables.add(tuple(rows))
    return tables


def covering_pairs_oracle(orbits: Sequence[RankSequence]) -> list[tuple[int, int]]:
    """Covers (i, j), j covered by i, by an O(k^3) scan of all triples of
    the entrywise order, compared by ``RankTable.leq``."""
    k = len(orbits)
    less = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j and orbits[j].table.leq(orbits[i].table) and orbits[i] != orbits[j]:
                less[i][j] = True  # j strictly below i
    covers = []
    for i in range(k):
        for j in range(k):
            if less[i][j] and not any(less[i][t] and less[t][j] for t in range(k)):
                covers.append((i, j))
    return covers


def hasse_dot_oracle(
    orbits: Sequence[RankSequence], annotate: Callable[[RankSequence], str] | None = None
) -> str:
    """The DOT source of ``hasse_dot`` rendered from the orbits' own methods:
    orbits deduped by ``node_id``, nodes sorted by flattened table in
    descending order and labelled from ``edge_ranks``, covers from
    ``covering_pairs_oracle`` and edges sorted as pairs of node-id strings."""
    seen: dict[str, RankSequence] = {}
    for rs in orbits:
        seen.setdefault(rs.node_id(), rs)
    nodes = sorted(seen.items(), key=lambda item: item[1].table.entries_flat(), reverse=True)
    ids = [node for node, _ in nodes]
    lines = ["digraph orbits {", "  rankdir=TB;"]
    for node, rs in nodes:
        text = "r=" + ",".join(map(str, rs.edge_ranks()))
        extra = annotate(rs) if annotate else None
        if extra:
            text += "\\n" + extra
        lines.append(f'  "{node}" [label="{text}"];')
    covers = covering_pairs_oracle([rs for _, rs in nodes])
    for src, dst in sorted((ids[i], ids[j]) for i, j in covers):
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def census_oracle(rep: RepMatrices, dv: DimVector, guard: int = 10**7) -> CensusResult:
    """Census of an irreducible Gr_d(rep) by brute force: walk every point of
    rep itself and call it singular when its tangent space is larger than the
    variety."""
    expected = dimension(RankSequence.from_rep(rep), dv)
    total = singular = 0
    for point in enumerate_subreps(rep, dv, guard=guard):
        total += 1
        singular += analyze_point(rep, point).tangent_dim > expected
    return CensusResult(total, singular, total - singular)


def flat_flags_oracle(rs: RankSequence, dv: DimVector) -> FlatFlags:
    """Flatness flags by building both target tables of the orbit's stratum
    and comparing the rank table with each entry by entry (``RankTable.leq``,
    not the packed words)."""
    stratum = stratum_of(rs)
    upper, lower = stratum_rank_targets(stratum, dv)
    return FlatFlags(stratum, lower.table.leq(rs.table), upper.table.leq(rs.table))


def subreps_oracle(rep: RepMatrices, targets: Sequence[int]) -> Iterator[SubrepPoint]:
    """The points of Gr_targets(rep) over F_p by a walk over validated
    subspaces: vertex v tries every subspace of ``subspaces_iter`` and keeps
    those that contain the image (``map_subspace``) of the one chosen at
    v - 1, that is, whose span with that image is themselves, in the order
    of ``enumerate_subreps``."""

    def rec(v: int, chosen: tuple) -> Iterator[SubrepPoint]:
        if v == rep.n:
            yield SubrepPoint(chosen)
            return
        required = map_subspace(rep.maps[v - 1], chosen[-1]) if v else None
        for V in subspaces_iter(rep.field, rep.dims[v], targets[v]):
            if required is None or span(V.field, V.ambient, V.basis + required.basis) == V:
                yield from rec(v + 1, chosen + (V,))

    return rec(0, ())


def fixed_point_oracle(
    J: ProjectionTuple, fixed: Sequence[Sequence[int]]
) -> tuple[PointAnalysis, int]:
    """The analysis and the cell dimension c(S) of a fixed point S of Gr(J)
    from one pair of strands per coordinate: L_i lives at the vertices v
    with i in S_v and Q_j at the others, each cut into intervals at the
    edges that kill its coordinate.  L and M/L are decomposed from all
    strands, and c(S) sums dim Hom(L_i, Q_j) over every pair i < j."""
    n, members = J.n, [set(S) for S in fixed]

    def strand(i: int, in_sub: bool) -> list[Interval]:
        out, start = [], None
        for v in range(1, n + 1):
            if (i in members[v - 1]) != in_sub:
                if start is not None:
                    out.append(Interval(start, v - 1))
                    start = None
                continue
            if start is None:
                start = v
            if v == n or i in J.zero_sets[v - 1]:
                out.append(Interval(start, v))
                start = None
        return out

    coords = range(1, J.m + 1)
    subs = [strand(i, True) for i in coords]
    quos = [strand(j, False) for j in coords]
    sub = Decomposition.from_intervals(n, itertools.chain.from_iterable(subs))
    quo = Decomposition.from_intervals(n, itertools.chain.from_iterable(quos))
    hom, ext = hom_dim(sub, quo), ext_dim(sub, quo)
    dims = [len(S) for S in members]
    assert hom - ext == euler_form(dims, [J.m - k for k in dims])
    c = sum(
        hom_dim_intervals(x, y)
        for i in range(J.m)
        for j in range(i + 1, J.m)
        for x in subs[i]
        for y in quos[j]
    )
    return PointAnalysis(hom, ext), c
