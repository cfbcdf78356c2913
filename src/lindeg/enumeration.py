"""Brute-force enumeration over small finite fields.

Quiver Grassmannian points are tuples of subspaces, one per vertex, mapped
into each other by the representation maps.  This module streams them in a
deterministic order, one torus cell (pivot class) at a time, analyzes single
points (tangent space, obstruction), counts singular points cell by cell, and
checks the corank-one singular-locus model against the actual singular
points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .classifier import dimension, is_irreducible, singular_model
from .errors import GuardExceededError, NotIrreducibleError, ValidationError
from .linalg import (
    Field,
    Matrix,
    Subspace,
    contains,
    coordinate_subspace,
    map_subspace,
    span,
    subspace_sum,
)
from .orbits import ProjectionTuple, RankSequence, representative, single_kill_tuple
from .representations import (
    DimVector,
    Interval,
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
    "fixed_points",
    "gaussian_binomial",
    "sigma_bijection_report",
    "singular_model_rep",
    "singular_point_census",
    "subspaces_iter",
]

POINT_GUARD = 10**7


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

    Order: pivot columns lexicographically, then within each pivot class the
    order of ``_pivot_class_iter``.  Coordinate subspaces come first in each
    pivot class.
    """
    if not field.is_modular:
        raise ValidationError("subspace enumeration needs a finite field")
    if not 0 <= dim <= ambient:
        raise ValidationError(f"subspace dimension {dim} out of range 0..{ambient}")
    for pivots in itertools.combinations(range(ambient), dim):
        yield from _pivot_class_iter(field, ambient, pivots)


def _pivot_class_iter(
    field: Field, ambient: int, pivots: Sequence[int]
) -> Iterator[Subspace]:
    """All subspaces of F_p^ambient whose RREF basis has the given increasing
    0-based pivot columns, with the free entries counted up base p.

    The coordinate subspace on ``pivots`` comes first.  A pivot class is one
    torus cell of the Grassmannian: under t*e_j = t^j e_j every member tends
    to that coordinate subspace as t -> 0.
    """
    pivots = tuple(pivots)
    p = field.characteristic
    dim = len(pivots)
    pivset = set(pivots)
    free = [
        (i, j)
        for i in range(dim)
        for j in range(pivots[i] + 1, ambient)
        if j not in pivset
    ]
    for values in itertools.product(range(p), repeat=len(free)):
        rows = [[0] * ambient for _ in range(dim)]
        for i, c in enumerate(pivots):
            rows[i][c] = 1
        for (i, j), v in zip(free, values):
            rows[i][j] = v
        yield Subspace(field, ambient, tuple(tuple(r) for r in rows), pivots)


def check_search_space(
    field: Field, dims: Sequence[int], targets: Sequence[int], guard: int
) -> None:
    """Raise GuardExceededError if the search space of a point enumeration, the
    product over v of the number of targets[v]-subspaces of F_p^dims[v], exceeds
    ``guard``.  It needs no maps, so a caller can check it before building any.
    A size over 64 bits is reported as "at least 2^k".
    """
    if not field.is_modular:
        raise ValidationError("point counting needs a finite field")
    p = field.characteristic
    k = 0
    if all(0 <= t <= amb for amb, t in zip(dims, targets)):
        # the largest cell of Gr(t, F_p^amb) has p^(t(amb - t)) points
        k = sum(t * (amb - t) for amb, t in zip(dims, targets)) * (p.bit_length() - 1)
    sizes = (gaussian_binomial(amb, t, p) for amb, t in zip(dims, targets))
    _check_size("search space", k, sizes, guard)


def _check_size(what: str, k: int, factors: Iterable[int], guard: int) -> None:
    """Raise GuardExceededError if a search space of at least 2^k points, the
    product of the lazy ``factors``, exceeds ``guard``.

    The product is taken only when 2^k does not settle the guard.  A size of
    at most 64 bits is printed exactly, a larger one as "at least 2^k", k the
    bit length less one of the exact size if taken, since Python refuses to
    print an int of more than 4300 decimal digits.
    """
    size = None
    if k < max(64, max(guard, 0).bit_length()):
        size = math.prod(factors)
        if size <= guard:
            return
        k = size.bit_length() - 1
    shown = size if k < 64 else f"at least 2^{k}"
    raise GuardExceededError(f"{what} of size {shown} exceeds the guard {guard}")


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
    return _walk(rep, lambda v: subspaces_iter(rep.field, rep.dims[v], t[v]))


def _cell_points(rep: RepMatrices, fixed: Sequence[Sequence[int]]) -> Iterator[SubrepPoint]:
    """The points of Gr(rep) whose pivot columns at each vertex are the 1-based
    index subsets ``fixed``: the torus cell of that coordinate point, in the
    enumerate_subreps order.  The coordinate point comes first."""
    return _walk(
        rep, lambda v: _pivot_class_iter(rep.field, rep.dims[v], [j - 1 for j in fixed[v]])
    )


def _walk(rep: RepMatrices, candidates) -> Iterator[SubrepPoint]:
    """Depth-first walk over vertices; vertex v takes its subspaces from
    ``candidates(v)`` and keeps those containing the image of vertex v - 1."""

    def rec(v: int, chosen: list[Subspace]) -> Iterator[SubrepPoint]:
        if v == rep.n:
            yield SubrepPoint(tuple(chosen))
            return
        required = (
            map_subspace(rep.maps[v - 1], chosen[v - 1]) if v > 0 else None
        )
        for V in candidates(v):
            if required is None or contains(V, required):
                chosen.append(V)
                yield from rec(v + 1, chosen)
                chosen.pop()

    return rec(0, [])


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
    _check_size("fixed-point search space", k, (math.comb(m, d) for d in dv.d), guard)
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
    sub = restrict_rep(rep, point.spaces)
    quo = quotient_rep(rep, point.spaces)
    sub_dec = decompose_from_ranks(rank_profile(sub))
    quo_dec = decompose_from_ranks(rank_profile(quo))
    hom = hom_dim(sub_dec, quo_dec)
    ext = ext_dim(sub_dec, quo_dec)
    assert hom - ext == euler_form(sub.dims, quo.dims)
    return PointAnalysis(hom, ext)


@dataclass(frozen=True)
class CensusResult:
    total: int
    singular: int
    smooth: int


def _irreducible_rank_sequence(rep: RepMatrices, dv: DimVector) -> RankSequence:
    """The orbit of rep, after checking that Gr_d(rep) is irreducible."""
    rep.check_endomorphisms(dv)
    rs = RankSequence(dv.m, rank_profile(rep))
    if not is_irreducible(rs, dv):
        raise NotIrreducibleError("point census is defined for irreducible varieties")
    return rs


def _points_with_singularity(
    rep: RepMatrices, dv: DimVector, guard: int
) -> Iterator[tuple[SubrepPoint, bool]]:
    """Each point of an irreducible Gr_d(rep), paired with whether it is
    singular by the rule of ``analyze_point``."""
    expected = dimension(_irreducible_rank_sequence(rep, dv), dv)
    for point in enumerate_subreps(rep, dv, guard=guard):
        yield point, analyze_point(rep, point).tangent_dim > expected


def cell_dimension(J: ProjectionTuple, fixed: Sequence[Sequence[int]]) -> int:
    """Dimension c(S) of the torus cell of a fixed point S of Gr_d(J).

    ``fixed`` gives S as 1-based index subsets, one per vertex, as
    ``fixed_points`` lists them.  L_i, the strand of coordinate i in the
    subrepresentation L on S, lives at the vertices v with i in S_v; Q_j, the
    strand of j in the quotient M/L, at the vertices with j not in S_v.  Each
    breaks into intervals at the edges that kill its coordinate.  Then
    c(S) = sum over i < j of dim Hom(L_i, Q_j), the part of the tangent
    space Hom(L, M/L) on which the torus t*e_j = t^j e_j acts with positive
    weight.
    """
    if len(fixed) != J.n:
        raise ValidationError("need one index subset per vertex")
    members = [set(S) for S in fixed]

    def strand(i: int, in_sub: bool) -> list[Interval]:
        out, start = [], None
        for v in range(1, J.n + 1):
            if (i in members[v - 1]) != in_sub:
                if start is not None:
                    out.append(Interval(start, v - 1))
                    start = None
                continue
            if start is None:
                start = v
            if v == J.n or i in J.zero_sets[v - 1]:
                out.append(Interval(start, v))
                start = None
        return out

    subs = [strand(i, True) for i in range(1, J.m + 1)]
    quos = [strand(j, False) for j in range(1, J.m + 1)]
    return sum(
        hom_dim_intervals(x, y)
        for i in range(J.m)
        for j in range(i + 1, J.m)
        for x in subs[i]
        for y in quos[j]
    )


def _opposite_limit(point: SubrepPoint) -> tuple[tuple[int, ...], ...]:
    """The limit of a point under t*e_j = t^-j e_j as t -> 0, as 1-based
    index subsets: at each vertex, the columns of the last nonzero entries of
    an echelon basis, found as the pivots of the column-reversed span."""
    out = []
    for V in point.spaces:
        reversed_span = span(V.field, V.ambient, [row[::-1] for row in V.basis])
        out.append(tuple(sorted(V.ambient - c for c in reversed_span.pivots)))
    return tuple(out)


def singular_point_census(
    rep: RepMatrices, dv: DimVector, guard: int = POINT_GUARD
) -> CensusResult:
    """Count points and singular points of an irreducible Gr_d(rep) over F_p.

    Isomorphic tuples have isomorphic varieties, so the census is taken on
    the projection tuple J = ``representative`` of the orbit of rep, one
    torus cell at a time.  The torus t*e_j = t^j e_j commutes with coordinate
    projections; the cell of a fixed point S (``fixed_points``) is the set of
    points whose RREF pivots are S, all of which tend to S as t -> 0.
    ``analyze_point`` runs once at each S; the walk of a singular S's cell
    counts S itself from that answer.  Two facts make the count exact:

    - the singular locus is closed and torus-stable, so a cell whose fixed
      point is smooth holds no singular point;
    - such a cell lies in the smooth locus, where Bialynicki-Birula makes it
      an affine space A^c(S) (``cell_dimension``), so it has p^c(S) points.

    Only the cells of singular fixed points are walked point by point.  By
    the first fact again, a point there whose limit as t -> infinity is a
    smooth fixed point is smooth; the other points are analyzed.  The guard
    bounds the brute-force search space (``check_search_space``), as for a
    point walk, so the same inputs trip it.
    """
    rs = _irreducible_rank_sequence(rep, dv)
    field = rep.field
    check_search_space(field, rep.dims, dv.d, guard)
    J = representative(rs)
    model = J.matrices(field)
    expected = dimension(rs, dv)

    def is_singular(point) -> bool:
        return analyze_point(model, point).tangent_dim > expected

    fixed = fixed_points(J, dv, guard)
    smooth = {
        S: not is_singular(SubrepPoint.from_coordinates(field, model.dims, S)) for S in fixed
    }
    total = singular = 0
    for S in fixed:
        if smooth[S]:
            total += field.characteristic ** cell_dimension(J, S)
            continue
        cell = _cell_points(model, S)
        next(cell)  # the coordinate point S itself, singular by the table
        total += 1
        singular += 1
        for point in cell:
            total += 1
            singular += not smooth[_opposite_limit(point)] and is_singular(point)
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

    Vertex dimensions are m except m - 1 at h and h + 1; the maps are
    identities except the coordinate deletion into vertex h and the shifted
    embedding out of vertex h + 1.
    """
    if n < 2 or not 1 <= h <= n - 1:
        raise ValidationError(f"edge index h={h} out of range 1..{n - 1}")
    dims = tuple(m - 1 if v in (h, h + 1) else m for v in range(1, n + 1))
    maps = []
    for i in range(1, n):
        if i == h - 1:
            maps.append(_drop_first_matrix(field, m))
        elif i == h:
            maps.append(Matrix.identity(field, m - 1))
        elif i == h + 1:
            maps.append(_include_last_matrix(field, m))
        else:
            maps.append(Matrix.identity(field, m))
    return RepMatrices(field, dims, tuple(maps))


@dataclass(frozen=True)
class SigmaReport:
    """Result of matching the singular-locus model against actual points.

    The model Grassmannian Gr_{d - e_h} of the corank-one module should map
    bijectively onto the singular points of Gr_d of the corank-one tuple;
    sigma is the forward map and sigma' the inverse.
    """

    m: int
    dims: tuple[int, ...]
    h: int
    prime: int
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
        m=dv.m,
        dims=dv.d,
        h=h,
        prime=prime,
        singular_count=len(singular_points),
        model_count=model_count,
        ok=not failures,
        failures=tuple(failures),
    )

