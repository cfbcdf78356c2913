"""Geometric classification of linear degenerations of flag varieties.

Given a dimension vector d and the orbit (rank sequence) of an endomorphism
tuple, decides smoothness, irreducibility, flatness over the orbit's stratum,
good behavior, computes dimensions, and locates or bounds the singular locus
inside the irreducible ones.  Everything here is combinatorial; the matrix
entry points reduce to rank tables first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotFlatError,
    NotIrreducibleError,
    ValidationError,
)
from .linalg import QQ, Field, kernel, rank, subspace_sum, zero_subspace
from .orbits import ProjectionTuple, RankSequence, decomposition_of
from .representations import (
    Decomposition,
    DimVector,
    Interval,
    RepMatrices,
    SubrepPoint,
    euler_form,
    rank_profile,
)

__all__ = [
    "DegenerationReport",
    "FlatFlags",
    "SingularInfo",
    "SingularModel",
    "classify",
    "classify_matrices",
    "construct_singular_witness",
    "dimension",
    "flat_flags",
    "is_irreducible",
    "is_smooth",
    "is_well_behaved",
    "is_well_behaved_matrices",
    "singular_model",
    "singular_summary",
]


def _segment_bounds(stratum: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """First and last vertex (1-based) of each segment between the zero maps.
    The variety is the product of the segment varieties."""
    return list(zip([1] + [i + 1 for i in stratum], list(stratum) + [n]))


def _check_pair(rs: RankSequence, dv: DimVector) -> None:
    if rs.m != dv.m or rs.n != dv.n:
        raise ValidationError("rank sequence and dimension vector do not match")


def is_smooth(rs: RankSequence, dv: DimVector) -> bool:
    """Smooth iff every map has rank 0 or m (then the variety is a product of
    ordinary flag varieties)."""
    _check_pair(rs, dv)
    return all(r in (0, rs.m) for r in rs.edge_ranks())


def is_irreducible(rs: RankSequence, dv: DimVector) -> bool:
    """Irreducible iff at every nonzero map i the corank is at most the flag
    step: m - r_i <= d_{i+1} - d_i."""
    _check_pair(rs, dv)
    steps = dv.steps()
    return all(
        r == 0 or rs.m - r <= steps[i] for i, r in enumerate(rs.edge_ranks())
    )


@dataclass(frozen=True)
class FlatFlags:
    """Flatness of the family restricted to the orbit's own stratum."""

    stratum: tuple[int, ...]
    flat: bool
    flat_irreducible: bool


def flat_flags(rs: RankSequence, dv: DimVector) -> FlatFlags:
    """Flatness over the orbit's own stratum, in one pass over the rank table.

    The stratum is the set of zero maps.  For a < b with no zero map between
    them, the slack is r(a, b) - (m + d_a - d_b).  Every slack at least -1
    means the fiber dimension stays at the flag dimension (flat over the
    stratum); every slack at least 0 additionally forces irreducible fibers,
    which for a point of its own stratum is the same as lying in the closure
    of the generic irreducible locus.  This is the entrywise comparison with
    the two tables of ``stratum_rank_targets``, the rule's oracle.
    """
    _check_pair(rs, dv)
    rows, m, d = rs.table.rows, rs.m, dv.d
    zero = [row[1] == 0 for row in rows[:-1]]
    slack = 0
    for a, row in enumerate(rows):
        base = m + d[a]
        for b in range(a + 1, rs.n):
            if zero[b - 1]:
                break
            s = row[b - a] - base + d[b]
            if s < slack:
                slack = s
    stratum = tuple(i for i, z in enumerate(zero, start=1) if z)
    return FlatFlags(stratum, slack >= -1, slack >= 0)


def dimension(rs: RankSequence, dv: DimVector) -> int:
    """Dimension of the degenerate flag variety, segment by segment.

    Defined here for fibers that are flat over their stratum; each segment
    contributes the ordinary flag dimension of its restricted data.
    """
    return _dimension(dv, flat_flags(rs, dv))


def _dimension(dv: DimVector, flags: FlatFlags) -> int:
    if not flags.flat:
        raise NotFlatError(
            f"orbit is not flat over its stratum {flags.stratum}; dimension formula does not apply"
        )
    return sum(
        DimVector(dv.m, dv.d[lo - 1 : hi]).flag_dimension()
        for lo, hi in _segment_bounds(flags.stratum, dv.n)
    )


def is_well_behaved(rs: RankSequence, dv: DimVector) -> bool:
    """Flat with irreducible normal fibers: rank table exactly m + d_a - d_b."""
    _check_pair(rs, dv)
    m, d = rs.m, dv.d
    rows = enumerate(rs.table.rows)
    return all(x == m + d[a] - d[a + j] for a, row in rows for j, x in enumerate(row))


def is_well_behaved_matrices(rep: RepMatrices, dv: DimVector) -> bool:
    """Matrix-level test: corank of map i equals the step d_{i+1} - d_i and
    the kernels are in direct sum.  Equivalent to the rank-table test."""
    rep.check_endomorphisms(dv)
    steps = dv.steps()
    kernels = []
    for i, f in enumerate(rep.maps):
        if rank(f) != dv.m - steps[i]:
            return False
        kernels.append(kernel(f))
    total = zero_subspace(rep.field, dv.m)
    for K in kernels:
        total = subspace_sum(total, K)
    return total.dim == sum(steps)


@dataclass(frozen=True)
class SingularModel:
    """Explicit model of the singular locus of a corank-one degeneration.

    For the orbit with a single rank drop m - 1 at edge h, the singular locus
    is itself a degenerate flag variety: the fibers of the shifted data
    (dims d - e_h over the module with vertex dimensions m except m - 1 at
    h and h + 1).  Its dimension and codimension are recorded.
    """

    h: int
    module: Decomposition
    module_dims: tuple[int, ...]
    sub_dims: tuple[int, ...]
    singular_dim: int
    singular_codim: int


def singular_model(dv: DimVector, h: int) -> SingularModel:
    n, m = dv.n, dv.m
    if n < 2 or not 1 <= h <= n - 1:
        raise ValidationError(f"edge index h={h} out of range 1..{n - 1}")
    mult: dict[Interval, int] = {Interval(1, n): m - 1}
    if h >= 2:
        mult[Interval(1, h - 1)] = 1
    if h + 2 <= n:
        mult[Interval(h + 2, n)] = 1
    module = Decomposition.from_multiplicities(n, mult)
    module_dims = module.vertex_dims()
    sub = tuple(d - 1 if i == h - 1 else d for i, d in enumerate(dv.d))
    sing_dim = euler_form(sub, tuple(a - b for a, b in zip(module_dims, sub)))
    codim = 2 * dv.steps()[h - 1] + 1
    assert sing_dim + codim == dv.flag_dimension()
    return SingularModel(h, module, module_dims, sub, sing_dim, codim)


@dataclass(frozen=True)
class SingularInfo:
    """Singular locus of an irreducible degeneration.

    kind is 'empty' (smooth), 'exact' (codimension known, with a model when
    a single corank-one edge is responsible), or 'bounded' (codimension known
    to lie in [codim_lower, codim_upper]).
    """

    kind: str
    ambient_dim: int
    codim_lower: int | None = None
    codim_upper: int | None = None
    singular_dim: int | None = None
    model: SingularModel | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("empty", "exact", "bounded"):
            raise ValidationError(f"unknown singular-locus kind {self.kind!r}")


def _segment_singular(
    dims: DimVector, ranks: tuple[int, ...]
) -> tuple[int, int, SingularModel | None] | None:
    """(codim lower, codim upper, model or None) of one segment, given its
    restricted flag data and edge ranks; None if smooth."""
    m = dims.m
    low_edges = [i for i, r in enumerate(ranks, start=1) if r < m]
    if not low_edges:
        return None
    steps = dims.steps()
    if len(low_edges) == 1 and ranks[low_edges[0] - 1] == m - 1:
        # every other edge is invertible, so every composite across the low
        # edge has rank m - 1: the table is the corank-one model's
        model = singular_model(dims, low_edges[0])
        return model.singular_codim, model.singular_codim, model
    if all(s == 1 for s in steps):
        return 3, 3, None
    depth = min(steps[i - 1] for i in low_edges)
    return 3, 2 * depth + 1, None


def singular_summary(rs: RankSequence, dv: DimVector) -> SingularInfo:
    """Locate or bound the singular locus; requires an irreducible variety.

    Each segment either is smooth, matches the corank-one model (exact
    codimension 2 * step + 1 with an explicit singular-locus model), has all
    flag steps equal to one (exact codimension 3), or yields the bounds
    3 <= codim <= 2 * min step over the low-rank edges.  The whole variety is
    the product of the segments, so the overall codimension is the minimum.
    """
    return _singular_summary(rs, dv, flat_flags(rs, dv))


def _singular_summary(rs: RankSequence, dv: DimVector, flags: FlatFlags) -> SingularInfo:
    if not flags.flat_irreducible:
        raise NotIrreducibleError(
            "singular locus analysis needs an irreducible degeneration"
        )
    ranks = rs.edge_ranks()
    segments = [
        (DimVector(dv.m, dv.d[lo - 1 : hi]), ranks[lo - 1 : hi - 1])
        for lo, hi in _segment_bounds(flags.stratum, dv.n)
    ]
    ambient = sum(dims.flag_dimension() for dims, _ in segments)
    found = [info for seg in segments if (info := _segment_singular(*seg))]
    if not found:
        return SingularInfo("empty", ambient)
    lo = min(info[0] for info in found)
    hi = min(info[1] for info in found)
    if lo == hi:
        model = found[0][2] if len(segments) == 1 else None
        return SingularInfo(
            "exact", ambient, lo, hi, singular_dim=ambient - lo, model=model
        )
    return SingularInfo("bounded", ambient, lo, hi)


def construct_singular_witness(
    J: ProjectionTuple, dv: DimVector, field: Field = QQ
) -> SubrepPoint:
    """A coordinate point in the singular locus of Gr_d of a projection tuple.

    Requires a flat degeneration with irreducible fibers, no zero maps, and
    that coordinate 1 is killed at the first rank-dropping edge h.  The
    point's subrepresentation L then satisfies Ext^1(L, M/L) >= 1, so the
    tangent space is too large and the point is singular.
    """
    rs = J.rank_sequence()
    flags = flat_flags(rs, dv)
    if flags.stratum:
        raise ValidationError("witness construction needs all maps nonzero")
    if not flags.flat_irreducible:
        raise ValidationError("witness construction needs a flat irreducible degeneration")
    m, n = dv.m, dv.n
    low = [i for i in range(1, n) if rs.r(i, i + 1) < m]
    if not low:
        raise ValidationError("smooth degeneration has no singular points")
    h = low[0]
    if 1 not in J.zero_sets[h - 1]:
        raise ValidationError(
            f"witness recipe needs coordinate 1 killed at edge {h}; "
            "use the canonical orbit representative"
        )
    current = set(range(1, dv.d[0] + 1))
    subsets = [tuple(sorted(current))]
    for i in range(1, n):
        fresh = set(range(dv.d[i - 1] + 1, dv.d[i] + 1))
        if i == h:
            current = (current | fresh | {m}) - {1}
        else:
            current = current | fresh
        subsets.append(tuple(sorted(current)))
    return SubrepPoint.from_coordinates(field, (m,) * n, subsets)


@dataclass(frozen=True)
class DegenerationReport:
    """Everything the classifier knows about one (orbit, flag data) pair."""

    m: int
    dims: tuple[int, ...]
    edge_ranks: tuple[int, ...]
    decomposition: Decomposition
    stratum: tuple[int, ...]
    smooth: bool
    irreducible: bool
    flat: bool
    flat_irreducible: bool
    well_behaved: bool
    dimension: int | None
    normal: bool | None
    regular_in_codim_2: bool | None
    singular: SingularInfo | None


def classify(rs: RankSequence, dv: DimVector) -> DegenerationReport:
    """Full classification of the degenerate flag variety of one orbit.

    Normality and regularity in codimension 2 are decided (True) for
    irreducible varieties; for the rest they are left unknown (None).
    The singular-locus summary is available exactly when the variety lies in
    the closure of the irreducible locus of its stratum.
    """
    dec = decomposition_of(rs)
    flags = flat_flags(rs, dv)
    smooth = is_smooth(rs, dv)
    irr = is_irreducible(rs, dv)
    dim = _dimension(dv, flags) if flags.flat else None
    singular = _singular_summary(rs, dv, flags) if flags.flat_irreducible else None
    return DegenerationReport(
        m=dv.m,
        dims=dv.d,
        edge_ranks=rs.edge_ranks(),
        decomposition=dec,
        stratum=flags.stratum,
        smooth=smooth,
        irreducible=irr,
        flat=flags.flat,
        flat_irreducible=flags.flat_irreducible,
        well_behaved=is_well_behaved(rs, dv),
        dimension=dim,
        normal=True if irr else None,
        regular_in_codim_2=True if irr else None,
        singular=singular,
    )


def classify_matrices(rep: RepMatrices, dv: DimVector) -> DegenerationReport:
    """Classify a concrete endomorphism tuple via its rank table."""
    rep.check_endomorphisms(dv)
    return classify(RankSequence(dv.m, rank_profile(rep)), dv)
