"""Brute-force enumeration over small finite fields.

Quiver Grassmannian points are tuples of subspaces, one per vertex, mapped
into each other by the representation maps.  This module streams them in a
deterministic order, one torus cell (pivot class) at a time, analyzes single
points (tangent space, obstruction), counts singular points cell by cell, and
checks the corank-one singular-locus model against the actual singular
points.  One walk on RREF rows (``_walk``) lists the points for both.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .classifier import dimension, is_irreducible, singular_model
from .errors import NotIrreducibleError, ValidationError, _check_size
from .linalg import (
    Field,
    Matrix,
    Subspace,
    coordinate_subspace,
    map_subspace,
    subspace_sum,
    _reduce,
    _rref_rows,
)
from .orbits import ProjectionTuple, RankSequence, representative, single_kill_tuple
from .representations import (
    Decomposition,
    DimVector,
    Interval,
    RankTable,
    RepMatrices,
    SubrepPoint,
    decompose_from_ranks,
    ext_dim,
    euler_form,
    hom_dim,
    hom_dim_intervals,
    quotient_rep,
    rank_profile,
    restrict_rep,
    _index_sets,
)

__all__ = [
    "CensusResult",
    "PointAnalysis",
    "SigmaReport",
    "analyze_point",
    "cell_dimension",
    "check_search_space",
    "count_points",
    "enumerate_subreps",
    "fixed_point_analysis",
    "fixed_points",
    "gaussian_binomial",
    "sigma_bijection_report",
    "singular_model_rep",
    "singular_point_census",
    "subspaces_iter",
]

POINT_GUARD = 10**7

# an RREF basis over F_p, one tuple of ints per row
Rows = tuple[tuple[int, ...], ...]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def subspaces_iter(field: Field, ambient: int, dim: int) -> Iterator[Subspace]:
    """All dim-dimensional subspaces of F_p^ambient, in canonical order.

    The input is checked at the call.  Order: pivot columns lexicographically,
    then within each pivot class the product of the ``_row_choices``, last
    row and last entry fastest.  A pivot class is one torus cell of the
    Grassmannian: under t*e_j = t^j e_j every member tends to the coordinate
    subspace on its pivots as t -> 0, which comes first.
    """
    if not field.is_modular:
        raise ValidationError("subspace enumeration needs a finite field")
    if not 0 <= dim <= ambient:
        raise ValidationError(f"subspace dimension {dim} out of range 0..{ambient}")
    p = field.characteristic
    return (
        Subspace(field, ambient, rows, pivots)
        for pivots in itertools.combinations(range(ambient), dim)
        for rows in itertools.product(*_row_choices(p, ambient, pivots))
    )


def _row_choices(p: int, ambient: int, pivots: Sequence[int]) -> list[list[tuple[int, ...]]]:
    """For each pivot, every RREF row with that pivot over F_p: 1 at the
    pivot, 0 before it and at the other pivots, free entries counted up."""
    pivset = set(pivots)
    choices = []
    for c in pivots:
        free = [j for j in range(c + 1, ambient) if j not in pivset]
        row = [0] * ambient
        row[c] = 1
        options = []
        for values in itertools.product(range(p), repeat=len(free)):
            for j, x in zip(free, values):
                row[j] = x
            options.append(tuple(row))
        choices.append(options)
    return choices


def check_search_space(
    field: Field, dims: Sequence[int], targets: Sequence[int], guard: int
) -> None:
    """Raise GuardExceededError if the search space of a point enumeration, the
    product over v of the number of targets[v]-subspaces of F_p^dims[v], exceeds
    ``guard``.  It needs no maps, so a caller can check it before building any.
    The comparison, and its error for a negative guard, is ``_check_size``.
    """
    if not field.is_modular:
        raise ValidationError("point counting needs a finite field")
    p = field.characteristic
    k = 0
    if all(0 <= t <= amb for amb, t in zip(dims, targets)):
        # the largest cell of Gr(t, F_p^amb) has p^(t(amb - t)) points
        k = sum(t * (amb - t) for amb, t in zip(dims, targets)) * (p.bit_length() - 1)
    sizes = (gaussian_binomial(amb, t, p) for amb, t in zip(dims, targets))
    _check_size("search space", k, lambda: math.prod(sizes), guard)


def count_points(rep: RepMatrices, targets, guard: int = POINT_GUARD) -> int:
    """Number of points of the quiver Grassmannian Gr_targets(rep) over F_p."""
    return sum(1 for _ in enumerate_subreps(rep, targets, guard=guard))


def _normalize_targets(rep: RepMatrices, targets) -> tuple[int, ...]:
    if isinstance(targets, DimVector):
        rep.check_endomorphisms(targets)
        return targets.d
    t = tuple(int(x) for x in targets)
    if len(t) != rep.n:
        raise ValidationError("need one target dimension per vertex")
    for amb, x in zip(rep.dims, t):
        if not 0 <= x <= amb:
            raise ValidationError(f"target dimension {x} out of range 0..{amb}")
    return t


def enumerate_subreps(
    rep: RepMatrices, targets, guard: int = POINT_GUARD
) -> Iterator[SubrepPoint]:
    """Stream the points of the quiver Grassmannian Gr_targets(rep).

    targets may be a DimVector (then rep must act on F^m everywhere) or any
    per-vertex dimension sequence.  Points come out vertex-lexicographically
    in the subspaces_iter order.  Raises GuardExceededError if the search
    space (product of subspace counts) exceeds ``guard``.
    """
    t = _normalize_targets(rep, targets)
    check_search_space(rep.field, rep.dims, t, guard)
    p, maps = rep.field.characteristic, [f.entries for f in rep.maps]

    def classes(v: int) -> Iterator[tuple[tuple[int, ...], list]]:
        pivot_sets = itertools.combinations(range(rep.dims[v]), t[v])
        return ((piv, _row_choices(p, rep.dims[v], piv)) for piv in pivot_sets)

    def image(v: int, basis: Rows) -> list[list[int]]:
        images = ([sum(map(operator.mul, row, x)) % p for row in maps[v]] for x in basis)
        return [y for y in images if any(y)]

    fields = (rep.field,) * rep.n

    def point(bases: list[Rows], pivots: list[tuple[int, ...]]) -> SubrepPoint:
        return SubrepPoint(tuple(map(Subspace, fields, rep.dims, bases, pivots)))

    return _walk(p, rep.n, classes, image, point)


def _walk(p: int, n: int, classes, image, point) -> Iterator:
    """Depth-first walk over the n vertices of a representation over F_p,
    yielding ``point(bases, pivots)`` for each point: one RREF basis and its
    pivots per vertex, in lists the walk reuses.  ``classes(v)`` gives the
    pivot classes at the 0-based vertex v as (pivots, ``_row_choices``)
    pairs, and ``image(v, basis)`` the nonzero images of the basis rows at v
    under the edge out of v.  Vertex v keeps a member when each image of the
    basis chosen at v - 1 reduces to zero modulo it."""
    bases: list[Rows] = []
    pivs: list[tuple[int, ...]] = []

    def rec(v: int, last: bool) -> Iterator:
        images = image(v - 1, bases[-1]) if v else []
        for pivots, choices in classes(v):
            for rows in itertools.product(*choices):
                if images and any(any(_reduce(x, rows, pivots, p)) for x in images):
                    continue
                bases.append(rows)
                pivs.append(pivots)
                if last:
                    yield point(bases, pivs)
                else:
                    yield from rec(v + 1, v + 2 == n)
                bases.pop()
                pivs.pop()
            del choices  # drop this class's rows before the next class is listed

    return rec(0, n == 1)


def fixed_points(
    J: ProjectionTuple, dv: DimVector, guard: int = POINT_GUARD
) -> list[tuple[tuple[int, ...], ...]]:
    """Coordinate points of Gr_d for a projection tuple, as 1-based subsets.

    These are the points fixed by the diagonal torus: chains S_1, ..., S_n of
    index subsets with |S_v| = d_v and S_v minus the killed indices contained
    in S_{v+1}.  Listed lexicographically.  Raises GuardExceededError if the
    search space, prod_v C(m, d_v) chains, exceeds ``guard``; a lower bound
    settles that first, so a huge m costs nothing.
    """
    if J.m != dv.m or J.n != dv.n:
        raise ValidationError("projection tuple and dimension vector do not match")
    m = dv.m
    # C(m, t) >= (m / t)^t with t = min(d, m - d)
    k = sum(t * ((m // t).bit_length() - 1) for t in (min(d, m - d) for d in dv.d))
    sizes = (math.comb(m, d) for d in dv.d)
    _check_size("fixed-point search space", k, lambda: math.prod(sizes), guard)
    out: list[tuple[tuple[int, ...], ...]] = []
    universe = range(1, dv.m + 1)

    def rec(v: int, prefix: list[tuple[int, ...]]) -> None:
        if v == dv.n:
            out.append(tuple(prefix))
            return
        need = set(prefix[-1]) - J.zero_sets[v - 1] if v > 0 else set()
        for S in itertools.combinations(universe, dv.d[v]):
            if need <= set(S):
                prefix.append(S)
                rec(v + 1, prefix)
                prefix.pop()

    rec(0, [])
    return out


@dataclass(frozen=True)
class PointAnalysis:
    """Local data of one Grassmannian point: L inside M with quotient M/L."""

    tangent_dim: int
    ext: int


def analyze_point(rep: RepMatrices, point: SubrepPoint) -> PointAnalysis:
    """Tangent space Hom(L, M/L) and obstruction Ext^1(L, M/L) at a point.

    tangent_dim - ext is the Euler form of the dimension vectors, which is
    checked.  A point of an irreducible variety is singular exactly when
    tangent_dim exceeds the dimension summed over segments (``dimension``);
    ext > 0 alone does not decide it, since with zero maps the variety is a
    product and the cross-segment extension classes are unobstructed.
    """
    reps = restrict_rep(rep, point.spaces), quotient_rep(rep, point.spaces)
    return _analysis(*(decompose_from_ranks(rank_profile(r)) for r in reps))


def _analysis(sub: Decomposition, quo: Decomposition) -> PointAnalysis:
    """Hom(L, M/L) and Ext^1(L, M/L) for L = sub and M/L = quo, after
    checking the Euler form of their dimension vectors."""
    hom, ext = hom_dim(sub, quo), ext_dim(sub, quo)
    assert hom - ext == euler_form(sub.vertex_dims(), quo.vertex_dims())
    return PointAnalysis(hom, ext)


@dataclass(frozen=True)
class CensusResult:
    total: int
    singular: int
    smooth: int


def _check_irreducible(rs: RankSequence, dv: DimVector) -> None:
    """Raise NotIrreducibleError unless Gr_d of the orbit rs is irreducible."""
    if not is_irreducible(rs, dv):
        raise NotIrreducibleError("point census is defined for irreducible varieties")


def _points_with_singularity(
    rep: RepMatrices, dv: DimVector, guard: int
) -> Iterator[tuple[SubrepPoint, bool]]:
    """Each point of an irreducible Gr_d(rep), paired with whether it is
    singular by the rule of ``analyze_point``."""
    rep.check_endomorphisms(dv)
    rs = RankSequence.from_rep(rep)
    _check_irreducible(rs, dv)
    expected = dimension(rs, dv)
    for point in enumerate_subreps(rep, dv, guard=guard):
        yield point, analyze_point(rep, point).tangent_dim > expected


def _check_fixed_point(J: ProjectionTuple, fixed: Sequence[Sequence[int]]) -> None:
    """Raise ValidationError unless ``fixed`` is a fixed point S of Gr(J),
    given as 1-based index subsets of 1..m, one per vertex, as
    ``fixed_points`` lists them (checked by ``_index_sets``).  S_v minus the
    zero set of edge v not inside S_{v+1} is not a subrepresentation."""
    members = _index_sets((J.m,) * J.n, fixed)
    for v in range(1, J.n):
        if not members[v - 1] - J.zero_sets[v - 1] <= members[v]:
            raise ValidationError(
                f"S_{v} minus the zero set of edge {v} is not inside S_{v + 1}: "
                "not a fixed point"
            )


class _PointTables:
    """What the analyses of the points of Gr(J) share within one census.

    The kill pattern of coordinate i is an int with bit n + v - 1 set when
    edge v kills i (``kills``).  Every point is analyzed from the rank tables
    of its sub L and quotient M/L (``analysis``).  The composite map from
    vertex a to b keeps the |K| coordinates whose pattern avoids the bits Z
    of edges a..b-1 (``cuts``), so there L has rank rank(L_a on K) and M/L
    has rank |K| + rank(L_b on Z) - dim L_b.  RREF rows give these ranks as
    column ranks (``row_analysis``), and a fixed point S as counts of the
    patterns in each S_v (``fixed_analysis``), one term per distinct one.
    ``ranked`` keeps the analysis of each pair of tables met and
    ``decomposed`` each table's decomposition.  c(S) sums dim Hom(L_i, Q_j)
    over pairs of coordinate strands, which depends on the coordinates'
    types only: the pattern plus bit v - 1 when i is in S_v (``homs``, each
    pair of types filled when first met; ``cell_dimension``).
    """

    def __init__(self, J: ProjectionTuple) -> None:
        self.J, self.n = J, J.n
        self.kills = [0] * J.m
        for bit, zeros in enumerate(J.zero_sets, start=J.n):
            for i in zeros:
                self.kills[i - 1] |= 1 << bit
        self.homs: dict[tuple[int, int], int] = {}
        self.ranked: dict[tuple[Rows, Rows], PointAnalysis] = {}
        self.decomposed: dict[Rows, Decomposition] = {}

    @functools.cached_property
    def cuts(self) -> list[tuple[int, int, int, int]]:
        """(a, b, Z, |K|) for each pair of vertices a < b of J: the bits Z of
        edges a..b-1 and the number |K| of coordinates whose kill pattern
        avoids Z, which the composite map from a to b keeps."""
        n, patterns = self.n, {}
        for t in self.kills:
            patterns[t] = patterns.get(t, 0) + 1
        cuts = []
        for a, b in itertools.combinations(range(1, n + 1), 2):
            z = (1 << (n + b - 1)) - (1 << (n + a - 1))
            cuts.append((a, b, z, sum(k for t, k in patterns.items() if not t & z)))
        return cuts

    @functools.cached_property
    def columns(self) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """The 0-based columns (killed, kept) of each cut's kill bits Z."""
        kills = list(enumerate(self.kills))
        return {
            z: (tuple(c for c, t in kills if t & z), tuple(c for c, t in kills if not t & z))
            for _, _, z, _ in self.cuts
        }

    def analysis(self, dims: Sequence[int], rank) -> PointAnalysis:
        """``analyze_point`` at the point of Gr(J) with dim L_v = dims[v] and
        rank(v, Z, kept) the rank of L_v's basis read at the columns that
        avoid (kept) or meet the kill bits Z, for 0-based v; each new table
        is decomposed as in ``analyze_point``."""
        sub = [[d] for d in dims]
        quo = [[self.J.m - d] for d in dims]
        for a, b, z, size in self.cuts:
            sub[a - 1].append(rank(a - 1, z, True))
            quo[a - 1].append(size + rank(b - 1, z, False) - dims[b - 1])
        key = (tuple(map(tuple, sub)), tuple(map(tuple, quo)))
        analysis = self.ranked.get(key)
        if analysis is None:
            analysis = self.ranked[key] = _analysis(*map(self._decomposition, key))
        return analysis

    def _decomposition(self, rows: Rows) -> Decomposition:
        """The decomposition of the rank table with these rows, kept."""
        dec = self.decomposed.get(rows)
        if dec is None:
            dec = self.decomposed[rows] = decompose_from_ranks(RankTable(self.n, rows))
        return dec

    def row_analysis(self, point: Sequence[Rows], p: int) -> PointAnalysis:
        """The analysis at a point over F_p given as one RREF basis per
        vertex, from column ranks of those bases and no matrices."""
        return self.analysis(
            [len(rows) for rows in point],
            lambda v, z, kept: _column_rank(point[v], self.columns[z][kept], p),
        )

    def fixed_analysis(self, fixed: Sequence[Sequence[int]]) -> PointAnalysis:
        """The analysis at a fixed point S, given as 1-based index subsets,
        from how many coordinates of each S_v have each kill pattern."""
        kills, counts = self.kills, []
        for S in fixed:
            c: dict[int, int] = {}
            for i in S:
                c[kills[i - 1]] = c.get(kills[i - 1], 0) + 1
            counts.append(c.items())

        def rank(v: int, z: int, kept: bool) -> int:
            return sum(k for t, k in counts[v] if (not t & z) == kept)

        return self.analysis([len(S) for S in fixed], rank)

    def _strand(self, t: int, in_sub: bool) -> list[Interval]:
        """The intervals of L_i (in_sub) or Q_i for a coordinate i of type t."""
        out, start = [], None
        for v in range(1, self.n + 1):
            if bool(t >> (v - 1) & 1) != in_sub:
                if start is not None:
                    out.append(Interval(start, v - 1))
                    start = None
                continue
            if start is None:
                start = v
            if v == self.n or t >> (self.n + v - 1) & 1:
                out.append(Interval(start, v))
                start = None
        return out

    def cell_dimension(self, fixed: Sequence[Sequence[int]]) -> int:
        """c(S) = sum over i < j of dim Hom(L_i, Q_j) at the fixed point S,
        in one pass over the coordinates' types with a count of those seen."""
        types = self.kills[:]
        for v, S in enumerate(fixed):
            for i in S:
                types[i - 1] |= 1 << v
        homs, seen, c = self.homs, {}, 0
        for u in types:
            for t, k in seen.items():
                h = homs.get((t, u))
                if h is None:
                    subs, quos = self._strand(t, True), self._strand(u, False)
                    h = homs[t, u] = sum(hom_dim_intervals(x, y) for x in subs for y in quos)
                c += k * h
            seen[u] = seen.get(u, 0) + 1
        return c


def _column_rank(rows: Rows, columns: Sequence[int], p: int) -> int:
    """Rank over F_p of the rows read at the given columns only."""
    if not rows or not columns:
        return 0
    return len(_rref_rows([[row[c] for c in columns] for row in rows], p)[1])


def cell_dimension(J: ProjectionTuple, fixed: Sequence[Sequence[int]]) -> int:
    """Dimension c(S) of the torus cell of a fixed point S of Gr_d(J).

    ``fixed`` gives S as 1-based index subsets, one per vertex, as
    ``fixed_points`` lists them; anything else raises ValidationError.
    With L_i and Q_j the coordinate strands of the sub and the quotient,
    c(S) = sum over i < j of dim Hom(L_i, Q_j), the part of the tangent
    space Hom(L, M/L) on which the torus t*e_j = t^j e_j acts with positive
    weight.  Each term depends on the types of i and j only
    (``_PointTables``), so the sum is one pass over the coordinates.
    """
    _check_fixed_point(J, fixed)
    return _PointTables(J).cell_dimension(fixed)


def fixed_point_analysis(J: ProjectionTuple, fixed: Sequence[Sequence[int]]) -> PointAnalysis:
    """``analyze_point`` at a fixed point S of Gr_d(J), with no matrices.

    ``fixed`` gives S as for ``cell_dimension``.  Where the composite map
    from vertex a to b keeps the indices K and kills Z, L has rank
    |S_a ∩ K| and M/L has rank |K| + |S_b ∩ Z| - |S_b|, sums over the kill
    patterns of the coordinates of S_a and S_b (``_PointTables``), one term
    per distinct pattern.  Both tables are decomposed and the Euler form
    checked as in ``analyze_point``.
    """
    _check_fixed_point(J, fixed)
    return _PointTables(J).fixed_analysis(fixed)


def _cell_rows(
    J: ProjectionTuple, p: int, fixed: Sequence[Sequence[int]]
) -> Iterator[tuple[Rows, ...]]:
    """The points of Gr(J) over F_p whose pivot columns at each vertex are the
    1-based index subsets ``fixed``: the torus cell of that coordinate point,
    each point one RREF basis per vertex, the coordinate point first.  It is
    the walk of ``enumerate_subreps`` on one pivot class per vertex, with the
    projections of J as the images: edge v sets its killed columns to 0.
    """
    pivots = (tuple(j - 1 for j in S) for S in fixed)
    classes = [[(piv, _row_choices(p, J.m, piv))] for piv in pivots]
    killed = [[j - 1 for j in z] for z in J.zero_sets]

    def image(v: int, basis: Rows) -> list[list[int]]:
        out = []
        for row in basis:
            x = list(row)
            for c in killed[v]:
                x[c] = 0
            if any(x):
                out.append(x)
        return out

    return _walk(p, J.n, classes.__getitem__, image, lambda bases, _: tuple(bases))


def _opposite_limit(rows: Rows, m: int, p: int) -> tuple[int, ...]:
    """The limit of a subspace of F_p^m under t*e_j = t^-j e_j as t -> 0, as
    a 1-based index subset: the columns of the last nonzero entries of an
    echelon basis, found as the pivots of the column-reversed basis."""
    _, pivots = _rref_rows([list(row[::-1]) for row in rows], p)
    return tuple(sorted(m - c for c in pivots))


def singular_point_census(
    rep: RepMatrices, dv: DimVector, guard: int = POINT_GUARD
) -> CensusResult:
    """Count points and singular points of an irreducible Gr_d(rep) over F_p.

    Isomorphic tuples have isomorphic varieties, so the census is taken on
    the projection tuple J = ``representative`` of the orbit of rep, one
    torus cell at a time.  The torus t*e_j = t^j e_j commutes with coordinate
    projections; the cell of a fixed point S (``fixed_points``) is the set of
    points whose RREF pivots are S, all of which tend to S as t -> 0.
    Every point analyzed is read off the rank tables of its sub and
    quotient through one ``_PointTables`` per census (whose oracle is
    ``analyze_point``), each distinct pair of tables decomposed once; the
    kill patterns of S's coordinates give S's tables, their types c(S),
    and a singular S's cell walk counts S itself.  Two facts make the
    count exact:

    - the singular locus is closed and torus-stable, so a cell whose fixed
      point is smooth holds no singular point;
    - such a cell lies in the smooth locus, where Bialynicki-Birula makes it
      an affine space A^c(S) (``cell_dimension``), so it has p^c(S) points.

    Only the cells of singular fixed points are walked point by point, by
    the walk of ``enumerate_subreps`` on J's zero sets and the RREF rows of
    each point, without matrices (``_cell_rows``).  By the first fact again,
    a point there whose limit as t -> infinity is a smooth fixed point is
    smooth; the other points are analyzed from column ranks of their rows
    (``_PointTables.row_analysis``).  The guard bounds the brute-force
    search space (``check_search_space``), as for a point walk, so the same
    inputs trip it.
    """
    rep.check_endomorphisms(dv)
    return _census(RankSequence.from_rep(rep), rep.field, dv, guard)


def _census(rs: RankSequence, field: Field, dv: DimVector, guard: int) -> CensusResult:
    """``singular_point_census`` of the orbit rs over ``field``, which needs
    no matrices: it checks that Gr_d is irreducible, then the guard, then
    counts on ``representative(rs)``."""
    _check_irreducible(rs, dv)
    check_search_space(field, (dv.m,) * dv.n, dv.d, guard)
    p = field.characteristic
    J = representative(rs)
    expected = dimension(rs, dv)
    fixed = fixed_points(J, dv, guard)
    tables = _PointTables(J)
    smooth = {}
    total = singular = 0
    for S in fixed:
        smooth[S] = tables.fixed_analysis(S).tangent_dim <= expected
        if smooth[S]:
            total += p ** tables.cell_dimension(S)
    # a cell walk meets each subspace at an early vertex many times
    limit = functools.lru_cache(maxsize=None)(lambda rows: _opposite_limit(rows, J.m, p))
    for S in fixed:
        if smooth[S]:
            continue
        cell = _cell_rows(J, p, S)
        next(cell)  # the coordinate point S itself, singular by its analysis
        total += 1
        singular += 1
        for point in cell:
            total += 1
            singular += (
                not smooth[tuple(map(limit, point))]
                and tables.row_analysis(point, p).tangent_dim > expected
            )
    return CensusResult(total, singular, total - singular)


def _drop_first_matrix(field: Field, m: int) -> Matrix:
    """(m-1) x m matrix deleting the first coordinate."""
    return Matrix.from_rows(
        field,
        [[1 if j == i + 1 else 0 for j in range(m)] for i in range(m - 1)],
        ncols=m,
    )


def _include_last_matrix(field: Field, m: int) -> Matrix:
    """m x (m-1) matrix embedding onto the last m-1 coordinates."""
    return _drop_first_matrix(field, m).transpose()


def singular_model_rep(field: Field, m: int, n: int, h: int) -> RepMatrices:
    """Concrete matrices for the corank-one singular-locus module.

    Vertex dimensions are m except m - 1 at h and h + 1; every edge is the
    identity on its source vertex except the coordinate deletion into vertex
    h and the shifted embedding out of vertex h + 1.
    """
    if n < 2 or not 1 <= h <= n - 1:
        raise ValidationError(f"edge index h={h} out of range 1..{n - 1}")
    dims = tuple(m - 1 if v in (h, h + 1) else m for v in range(1, n + 1))
    maps = []
    for i in range(1, n):
        if i == h - 1:
            maps.append(_drop_first_matrix(field, m))
        elif i == h + 1:
            maps.append(_include_last_matrix(field, m))
        else:
            maps.append(Matrix.identity(field, dims[i - 1]))
    return RepMatrices(field, dims, tuple(maps))


@dataclass(frozen=True)
class SigmaReport:
    """Result of matching the singular-locus model against actual points.

    The model Grassmannian Gr_{d - e_h} of the corank-one module should map
    bijectively onto the singular points of Gr_d of the corank-one tuple;
    sigma is the forward map and sigma' the inverse.
    """

    singular_count: int
    model_count: int
    ok: bool
    failures: tuple[str, ...] = ()


def _sigma_forward(
    ambient: RepMatrices, h: int, point: SubrepPoint
) -> tuple[Subspace, ...]:
    """Push a model point into the ambient Grassmannian.

    Away from h and h + 1 the subspace is kept; at h and h + 1 it is embedded
    by the index shift, and at h the first coordinate line is added back.
    """
    field, m = ambient.field, ambient.dims[0]
    incl = _include_last_matrix(field, m)
    e1 = coordinate_subspace(field, m, [0])
    spaces = []
    for v, V in enumerate(point.spaces, start=1):
        if v == h:
            spaces.append(subspace_sum(map_subspace(incl, V), e1))
        elif v == h + 1:
            spaces.append(map_subspace(incl, V))
        else:
            spaces.append(V)
    return tuple(spaces)


def _sigma_backward(
    ambient: RepMatrices, h: int, point: SubrepPoint
) -> tuple[Subspace, ...]:
    """Project a singular ambient point down to the model Grassmannian."""
    field, m = ambient.field, ambient.dims[0]
    drop = _drop_first_matrix(field, m)
    spaces = []
    for v, V in enumerate(point.spaces, start=1):
        if v in (h, h + 1):
            spaces.append(map_subspace(drop, V))
        else:
            spaces.append(V)
    return tuple(spaces)


def sigma_bijection_report(dv: DimVector, h: int, prime: int = 2) -> SigmaReport:
    """Verify the singular-locus model point by point over F_prime.

    Enumerates the singular points of Gr_d of the corank-one tuple on F^m,
    m = dv.m, and the points of the model Grassmannian, checks that sigma
    lands on singular points, hits all of them exactly once, and that sigma'
    inverts it.  Both walks are bounded by POINT_GUARD.
    """
    model_info = singular_model(dv, h)
    field = Field(prime)
    ambient = single_kill_tuple(dv.m, dv.n, h).matrices(field)
    model = singular_model_rep(field, dv.m, dv.n, h)
    assert model.dims == model_info.module_dims

    singular_points = {
        point.spaces
        for point, is_singular in _points_with_singularity(ambient, dv, POINT_GUARD)
        if is_singular
    }
    failures: list[str] = []
    image: set[tuple[Subspace, ...]] = set()
    model_count = 0
    for mp in enumerate_subreps(model, model_info.sub_dims, guard=POINT_GUARD):
        model_count += 1
        fwd = _sigma_forward(ambient, h, mp)
        if fwd not in singular_points:
            failures.append(f"sigma misses the singular locus at model point {model_count}")
            continue
        if fwd in image:
            failures.append(f"sigma collides at model point {model_count}")
            continue
        image.add(fwd)
        back = _sigma_backward(ambient, h, SubrepPoint(fwd))
        if back != mp.spaces:
            failures.append(f"sigma' does not invert sigma at model point {model_count}")
    if image != singular_points:
        failures.append(
            f"sigma image has {len(image)} of {len(singular_points)} singular points"
        )
    return SigmaReport(
        singular_count=len(singular_points),
        model_count=model_count,
        ok=not failures,
        failures=tuple(failures),
    )

