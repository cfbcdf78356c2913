"""Representation theory of the equioriented A_n quiver.

Indecomposables are interval modules U[a,b] (one-dimensional on the vertices
a..b, identity along the arrows inside, zero outside).  A representation is
either a matrix tuple (``RepMatrices``) or its Gabriel decomposition
(``Decomposition``, a multiset of intervals).  The two views are connected by
rank tables: the rank of every composite map determines the decomposition and
conversely.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import NotRealizableError, NotSubrepresentationError, ValidationError
from .linalg import Field, Matrix, Subspace

__all__ = [
    "Decomposition",
    "DimVector",
    "Interval",
    "RankTable",
    "RepMatrices",
    "SubrepPoint",
    "decompose_from_ranks",
    "euler_form",
    "ext_dim",
    "ext_dim_intervals",
    "hom_dim",
    "hom_dim_intervals",
    "is_catenoid",
    "minimal_projective_resolution",
    "quotient_rep",
    "rank_profile",
    "ranks_from_decomposition",
    "restrict_rep",
    "schubert_embedding_target",
    "well_behaved_rep",
]


@dataclass(frozen=True, order=True)
class Interval:
    """The interval module U[start, end], 1-based and inclusive."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if type(self.start) is not int or type(self.end) is not int or not (
            1 <= self.start <= self.end
        ):
            raise ValidationError(f"bad interval [{self.start!r}, {self.end!r}]")

    def contains(self, vertex: int) -> bool:
        return self.start <= vertex <= self.end

    def __str__(self) -> str:
        return f"U[{self.start},{self.end}]"


def hom_dim_intervals(x: Interval, y: Interval) -> int:
    """dim Hom(U[x], U[y]); nonzero exactly when y.start <= x.start <= y.end <= x.end."""
    return 1 if y.start <= x.start <= y.end <= x.end else 0


def ext_dim_intervals(x: Interval, y: Interval) -> int:
    """dim Ext^1(U[x], U[y]); nonzero exactly when x.start + 1 <= y.start <= x.end + 1 <= y.end."""
    return 1 if x.start + 1 <= y.start <= x.end + 1 <= y.end else 0


def euler_form(d: Sequence[int], e: Sequence[int]) -> int:
    """Euler form of A_n: sum d_i e_i - sum d_i e_{i+1}."""
    if len(d) != len(e):
        raise ValidationError("dimension vectors have different lengths")
    n = len(d)
    return sum(d[i] * e[i] for i in range(n)) - sum(d[i] * e[i + 1] for i in range(n - 1))


@dataclass(frozen=True)
class DimVector:
    """Flag dimension vector: 0 < d_1 < ... < d_n < m."""

    m: int
    d: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", tuple(self.d))
        if type(self.m) is not int or not all(type(x) is int for x in self.d):
            raise ValidationError(f"m and d must be integers, got d={self.d!r}, m={self.m!r}")
        if not self.d:
            raise ValidationError("dimension vector is empty")
        if any(b <= a for a, b in zip(self.d, self.d[1:])) or not (
            0 < self.d[0] and self.d[-1] < self.m
        ):
            raise ValidationError(
                f"flag dimensions must satisfy 0 < d_1 < ... < d_n < m, got d={self.d}, m={self.m}"
            )

    @property
    def n(self) -> int:
        return len(self.d)

    def steps(self) -> tuple[int, ...]:
        """Successive differences d_{i+1} - d_i."""
        return tuple(b - a for a, b in zip(self.d, self.d[1:]))

    def complement(self) -> tuple[int, ...]:
        return tuple(self.m - x for x in self.d)

    def flag_dimension(self) -> int:
        """Dimension of the variety of flags with these dimensions in F^m."""
        return euler_form(self.d, self.complement())


@dataclass(frozen=True)
class Decomposition:
    """Multiset of interval modules over a fixed quiver length n."""

    n: int
    items: tuple[tuple[Interval, int], ...]

    def __post_init__(self) -> None:
        prev = None
        for iv, k in self.items:
            if iv.end > self.n:
                raise ValidationError(f"{iv} does not fit in A_{self.n}")
            if k <= 0:
                raise ValidationError("multiplicities must be positive")
            if prev is not None and not prev < iv:
                raise ValidationError("items must be sorted by interval with no repeats")
            prev = iv

    @staticmethod
    def from_multiplicities(n: int, mult: Mapping) -> "Decomposition":
        items = []
        for key in sorted(mult, key=lambda k: (k.start, k.end) if isinstance(k, Interval) else k):
            iv = key if isinstance(key, Interval) else Interval(*key)
            k = mult[key]
            if k:
                items.append((iv, int(k)))
        return Decomposition(n, tuple(items))

    @staticmethod
    def from_intervals(n: int, intervals: Iterable) -> "Decomposition":
        counts: dict[Interval, int] = {}
        for key in intervals:
            iv = key if isinstance(key, Interval) else Interval(*key)
            counts[iv] = counts.get(iv, 0) + 1
        return Decomposition.from_multiplicities(n, counts)

    def intervals(self) -> tuple[Interval, ...]:
        return tuple(iv for iv, _ in self.items)

    def summands(self) -> tuple[Interval, ...]:
        """All summands with multiplicity, expanded."""
        out = []
        for iv, k in self.items:
            out.extend([iv] * k)
        return tuple(out)

    def vertex_dims(self) -> tuple[int, ...]:
        dims = [0] * self.n
        for iv, k in self.items:
            for v in range(iv.start, iv.end + 1):
                dims[v - 1] += k
        return tuple(dims)

    def __str__(self) -> str:
        if not self.items:
            return "0"
        return " + ".join(f"{k}*{iv}" if k > 1 else str(iv) for iv, k in self.items)


def hom_dim(A: Decomposition, B: Decomposition) -> int:
    """dim Hom(A, B), extended bilinearly over the interval hom table."""
    if A.n != B.n:
        raise ValidationError("decompositions have different quiver lengths")
    return sum(
        ka * kb * hom_dim_intervals(x, y) for x, ka in A.items for y, kb in B.items
    )


def ext_dim(A: Decomposition, B: Decomposition) -> int:
    """dim Ext^1(A, B), extended bilinearly over the interval ext table."""
    if A.n != B.n:
        raise ValidationError("decompositions have different quiver lengths")
    return sum(
        ka * kb * ext_dim_intervals(x, y) for x, ka in A.items for y, kb in B.items
    )


@dataclass(frozen=True)
class RankTable:
    """Triangular table of composite ranks: entry (a, b) with 1 <= a <= b <= n.

    The diagonal holds vertex dimensions; entry (a, b) for a < b is the rank
    of the composite map from vertex a to vertex b.  Out-of-range queries
    (a = 0 or b = n + 1) return 0, which is the boundary convention the
    multiplicity inversion uses.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n:
            raise ValidationError("rank table must have one row per vertex")
        for a, row in enumerate(self.rows, start=1):
            if len(row) != self.n - a + 1:
                raise ValidationError(f"row {a} of rank table has wrong length")
            if any(type(x) is not int for x in row):
                raise ValidationError("rank table entries must be integers")

    @staticmethod
    def from_function(n: int, entry) -> "RankTable":
        return RankTable(n, tuple(tuple(entry(a, b) for b in range(a, n + 1)) for a in range(1, n + 1)))

    def r(self, a: int, b: int) -> int:
        if a < 1 or b > self.n:
            return 0
        if a > b:
            raise ValidationError(f"rank table entry ({a}, {b}) needs a <= b")
        return self.rows[a - 1][b - a]

    def vertex_dims(self) -> tuple[int, ...]:
        return tuple(self.r(a, a) for a in range(1, self.n + 1))

    def entries_flat(self) -> tuple[int, ...]:
        """Row-major entries, built on first use and kept on the instance.

        The cache is not a dataclass field, so eq, hash and repr ignore it,
        and tables that are never flattened pay nothing.
        """
        try:
            return self._flat
        except AttributeError:
            flat = tuple(x for row in self.rows for x in row)
            object.__setattr__(self, "_flat", flat)
            return flat

    def leq(self, other: "RankTable") -> bool:
        """Entrywise comparison (same shape required)."""
        if self.n != other.n:
            raise ValidationError("rank tables have different lengths")
        return all(map(operator.le, self.entries_flat(), other.entries_flat()))

    def multiplicity(self, a: int, b: int) -> int:
        """Second difference giving the multiplicity of U[a,b] in any realization."""
        return self.r(a, b) - self.r(a - 1, b) - self.r(a, b + 1) + self.r(a - 1, b + 1)


@dataclass(frozen=True)
class RepMatrices:
    """A quiver representation as vertex dimensions plus a matrix tuple."""

    field: Field
    dims: tuple[int, ...]
    maps: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValidationError("representation needs at least one vertex")
        if len(self.maps) != len(self.dims) - 1:
            raise ValidationError("need exactly n-1 maps for n vertices")
        for i, f in enumerate(self.maps):
            if f.field != self.field:
                raise ValidationError("map fields disagree with representation field")
            if f.shape != (self.dims[i + 1], self.dims[i]):
                raise ValidationError(
                    f"map {i + 1} has shape {f.shape}, expected ({self.dims[i + 1]}, {self.dims[i]})"
                )

    @property
    def n(self) -> int:
        return len(self.dims)

    def check_endomorphisms(self, dv: DimVector) -> None:
        """Raise ValidationError unless this is a tuple of endomorphisms of F^m
        on the n vertices of dv: it acts on F^m at each of them."""
        if self.dims != (dv.m,) * dv.n:
            raise ValidationError("representation does not act on F^m at every vertex")

    @staticmethod
    def identity_tuple(field: Field, m: int, n: int) -> "RepMatrices":
        return RepMatrices(field, (m,) * n, tuple(Matrix.identity(field, m) for _ in range(n - 1)))

    @staticmethod
    def zero_tuple(field: Field, m: int, n: int) -> "RepMatrices":
        return RepMatrices(field, (m,) * n, tuple(Matrix.zeros(field, m, m) for _ in range(n - 1)))

    @staticmethod
    def from_decomposition(D: Decomposition, field: Field) -> "RepMatrices":
        """0/1 block realization: one basis strand per summand, in sorted order."""
        strands = D.summands()
        # layout[v-1]: the strands alive at vertex v, in order
        layout = [[s for s, iv in enumerate(strands) if iv.contains(v)] for v in range(1, D.n + 1)]
        # entry (r, c) of a map is 1 exactly when row r and column c are one strand
        maps = tuple(
            Matrix.from_rows(field, [[int(r == c) for c in here] for r in there], ncols=len(here))
            for here, there in zip(layout, layout[1:])
        )
        return RepMatrices(field, tuple(map(len, layout)), maps)


def rank_profile(rep: RepMatrices) -> RankTable:
    """Table of all composite ranks (diagonal = vertex dimensions)."""
    rows = []
    for a in range(1, rep.n + 1):
        row = [rep.dims[a - 1]]
        acc: Matrix | None = None
        for b in range(a + 1, rep.n + 1):
            acc = rep.maps[b - 2] if acc is None else rep.maps[b - 2] @ acc
            row.append(linalg.rank(acc))
        rows.append(tuple(row))
    return RankTable(rep.n, tuple(rows))


def decompose_from_ranks(table: RankTable) -> Decomposition:
    """Gabriel decomposition read off a rank table.

    The multiplicity of U[a,b] is the second difference of the table at
    (a, b).  Raises NotRealizableError when any multiplicity is negative.
    """
    counts: dict[Interval, int] = {}
    offending = []
    for a in range(1, table.n + 1):
        for b in range(a, table.n + 1):
            k = table.multiplicity(a, b)
            if k < 0:
                offending.append((a, b, k))
            elif k:
                counts[Interval(a, b)] = k
    if offending:
        raise NotRealizableError(
            "rank table is not realizable; negative multiplicities at "
            + ", ".join(f"U[{a},{b}] -> {k}" for a, b, k in offending),
            offending,
        )
    return Decomposition.from_multiplicities(table.n, counts)


def ranks_from_decomposition(D: Decomposition) -> RankTable:
    """Rank table of any representation with the given decomposition."""
    def entry(a: int, b: int) -> int:
        return sum(k for iv, k in D.items if iv.start <= a and b <= iv.end)

    return RankTable.from_function(D.n, entry)


def well_behaved_rep(dv: DimVector) -> Decomposition:
    """Decomposition of the degeneration whose maps all have the least ranks
    compatible with flatness and irreducibility, with independent kernels."""
    n, m, d = dv.n, dv.m, dv.d
    counts: dict[Interval, int] = {}
    for i in range(1, n):
        step = d[i] - d[i - 1]
        counts[Interval(1, i)] = counts.get(Interval(1, i), 0) + step
        counts[Interval(i + 1, n)] = counts.get(Interval(i + 1, n), 0) + step
    counts[Interval(1, n)] = counts.get(Interval(1, n), 0) + (m - d[-1] + d[0])
    return Decomposition.from_multiplicities(n, counts)


def minimal_projective_resolution(D: Decomposition) -> tuple[Decomposition, Decomposition]:
    """The pair (P, Q) with 0 -> Q -> P -> M -> 0 the minimal projective
    resolution: P has P_i with multiplicity dim Hom(M, S_i), Q has P_i with
    multiplicity dim Ext^1(M, S_i).  Here P_i = U[i, n]."""
    n = D.n
    p_counts: dict[Interval, int] = {}
    q_counts: dict[Interval, int] = {}
    for iv, k in D.items:
        proj = Interval(iv.start, n)
        p_counts[proj] = p_counts.get(proj, 0) + k
        if iv.end < n:
            cop = Interval(iv.end + 1, n)
            q_counts[cop] = q_counts.get(cop, 0) + k
    P = Decomposition.from_multiplicities(n, p_counts)
    Q = Decomposition.from_multiplicities(n, q_counts)
    pd, qd, md = P.vertex_dims(), Q.vertex_dims(), D.vertex_dims()
    assert all(p - q == m for p, q, m in zip(pd, qd, md)), "resolution dims do not close"
    return P, Q


def is_catenoid(D: Decomposition) -> bool:
    """True iff the distinct summands are pairwise comparable componentwise,
    i.e. all lie on one oriented path of the Auslander-Reiten quiver."""
    ivs = D.intervals()
    for i, x in enumerate(ivs):
        for y in ivs[i + 1 :]:
            if not (
                (x.start <= y.start and x.end <= y.end)
                or (y.start <= x.start and y.end <= x.end)
            ):
                return False
    return True


def schubert_embedding_target(D: Decomposition, dv: DimVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ambient flag dimensions and target subspace dimensions for realizing
    the quiver Grassmannian Gr_dv(M) inside a partial flag variety.

    Returns (dim P, dv + dim Q) where 0 -> Q -> P -> M -> 0 is the minimal
    projective resolution.
    """
    if D.n != dv.n:
        raise ValidationError("decomposition and dimension vector lengths differ")
    if D.vertex_dims() != (dv.m,) * dv.n:
        raise ValidationError("decomposition does not have constant vertex dimension m")
    P, Q = minimal_projective_resolution(D)
    ambient = P.vertex_dims()
    target = tuple(d + q for d, q in zip(dv.d, Q.vertex_dims()))
    return ambient, target


@dataclass(frozen=True)
class SubrepPoint:
    """A point of a quiver Grassmannian: one subspace per vertex.

    Equality and hashing go by the subspaces alone.  ``coordinates`` is
    derived from them: the 1-based index subsets when every subspace is
    spanned by standard basis vectors (a coordinate point), else None.
    """

    spaces: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "spaces", tuple(self.spaces))
        if not self.spaces:
            raise ValidationError("a point needs at least one vertex")

    @property
    def coordinates(self) -> tuple[tuple[int, ...], ...] | None:
        for space in self.spaces:
            # RREF: a row is zero before its pivot, and a zero is falsy
            if any(any(row[pivot + 1 :]) for row, pivot in zip(space.basis, space.pivots)):
                return None
        return tuple(tuple(c + 1 for c in space.pivots) for space in self.spaces)

    @staticmethod
    def from_coordinates(
        field: Field, ambient_dims: Sequence[int], subsets: Sequence[Iterable[int]]
    ) -> "SubrepPoint":
        """Coordinate point from 1-based index subsets, one per vertex,
        checked by ``_index_sets``."""
        sets = zip(ambient_dims, _index_sets(ambient_dims, subsets))
        spaces = (linalg.coordinate_subspace(field, amb, [j - 1 for j in S]) for amb, S in sets)
        return SubrepPoint(tuple(spaces))


def _index_sets(dims: Sequence[int], subsets: Sequence[Iterable[int]]) -> list[set[int]]:
    """1-based index subsets of 1..dims[v - 1], one per vertex v, as sets.
    An index that is not an int in that range (a bool is not, though True
    == 1), or an index repeated at a vertex, raises ValidationError."""
    if len(subsets) != len(dims):
        raise ValidationError("need one index subset per vertex")
    sets = []
    for v, (amb, subset) in enumerate(zip(dims, subsets), start=1):
        seen: set[int] = set()
        for i in subset:
            if type(i) is not int or not 1 <= i <= amb:
                raise ValidationError(f"index {i!r} at vertex {v} is outside 1..{amb}")
            if i in seen:
                raise ValidationError(f"index {i} repeats at vertex {v}")
            seen.add(i)
        sets.append(seen)
    return sets


def _check_subrep(rep: RepMatrices, spaces: Sequence[Subspace]) -> None:
    if len(spaces) != rep.n:
        raise NotSubrepresentationError("need one subspace per vertex")
    for i, space in enumerate(spaces):
        if space.field != rep.field:
            raise NotSubrepresentationError("subspace field differs from representation field")
        if space.ambient != rep.dims[i]:
            raise NotSubrepresentationError(
                f"subspace at vertex {i + 1} lives in dimension {space.ambient}, expected {rep.dims[i]}"
            )
    for i, f in enumerate(rep.maps):
        if not linalg.contains(spaces[i + 1], linalg.map_subspace(f, spaces[i])):
            raise NotSubrepresentationError(f"map {i + 1} does not preserve the subspaces")


def _columns_at(field: Field, columns: Sequence[Sequence], positions: Sequence[int]) -> Matrix:
    """The matrix whose column j is ``columns[j]`` read at ``positions``."""
    rows = tuple(tuple(w[c] for w in columns) for c in positions)
    return Matrix(field, len(positions), len(columns), rows)


def restrict_rep(rep: RepMatrices, spaces: Sequence[Subspace]) -> RepMatrices:
    """The subrepresentation on the given subspaces, in their RREF bases."""
    _check_subrep(rep, spaces)
    maps = []
    for i, f in enumerate(rep.maps):
        # row j of the product is f(b_j) for the basis row b_j at vertex i; it
        # lies in the RREF-basis subspace at i + 1, so its coordinates there
        # are its entries at the pivots
        images = linalg.compose(spaces[i].basis_matrix(), f.transpose()).entries
        maps.append(_columns_at(rep.field, images, spaces[i + 1].pivots))
    return RepMatrices(rep.field, tuple(s.dim for s in spaces), tuple(maps))


def quotient_rep(rep: RepMatrices, spaces: Sequence[Subspace]) -> RepMatrices:
    """The quotient representation on complement coordinates.

    At each vertex the complement is spanned by the standard basis vectors at
    the non-pivot positions of the subspace, in increasing order.
    """
    _check_subrep(rep, spaces)
    comps = [s.complement_positions() for s in spaces]
    p = rep.field.characteristic
    maps = []
    for i, f in enumerate(rep.maps):
        # column j of f is f(e_j), already in the field; its residue mod L is
        # read on the complement
        cols, L = f.transpose().entries, spaces[i + 1]
        images = [linalg._reduce(cols[j], L.basis, L.pivots, p) for j in comps[i]]
        maps.append(_columns_at(rep.field, images, comps[i + 1]))
    return RepMatrices(rep.field, tuple(len(c) for c in comps), tuple(maps))
