"""Representation theory of the equioriented A_n quiver.

Indecomposables are interval modules U[a,b] (one-dimensional on the vertices
a..b, identity along the arrows inside, zero outside).  A representation is
either a matrix tuple (``RepMatrices``) or its Gabriel decomposition
(``Decomposition``, a multiset of intervals).  The two views are connected by
rank tables: the rank of every composite map determines the decomposition and
conversely.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import NotRealizableError, NotSubrepresentationError, ValidationError
from .linalg import Field, Matrix, Subspace, _Record, _set, _unchecked

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
    "quotient_rep",
    "rank_profile",
    "ranks_from_decomposition",
    "restrict_rep",
    "well_behaved_rep",
]


class Interval(_Record):
    """The interval module U[start, end], 1-based and inclusive, ordered as
    the tuple (start, end)."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        _set(self, "start", start)
        _set(self, "end", end)
        self.__post_init__()

    def __post_init__(self) -> None:
        if type(self.start) is not int or type(self.end) is not int or not (
            1 <= self.start <= self.end
        ):
            raise ValidationError(f"bad interval [{self.start!r}, {self.end!r}]")

    # eq and hash as _Record makes them, written out: the hottest records
    # read their fields directly, not through _Record's getter, and compare
    # field by field, which for int fields gives what the tuples give
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.start == other.start and self.end == other.end
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.start, self.end) < (other.start, other.end)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.start, self.end) <= (other.start, other.end)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.start, self.end) > (other.start, other.end)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.start, self.end) >= (other.start, other.end)
        return NotImplemented

    def contains(self, vertex: int) -> bool:
        return self.start <= vertex <= self.end

    def __str__(self) -> str:
        return f"U[{self.start},{self.end}]"


@functools.lru_cache(maxsize=1024)
def _interval(start: int, end: int) -> Interval:
    """``Interval(start, end)`` from a bounded table of shared instances: an
    Interval is immutable, and the routines that build many decompositions
    build the same few intervals over and over."""
    return Interval(start, end)


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


class DimVector(_Record):
    """Flag dimension vector: 0 < d_1 < ... < d_n < m."""

    __slots__ = ("m", "d")

    def __init__(self, m: int, d: Iterable[int]) -> None:
        _set(self, "m", m)
        _set(self, "d", tuple(d))
        self.__post_init__()

    def __post_init__(self) -> None:
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


class Decomposition(_Record):
    """Multiset of interval modules over a fixed quiver length n."""

    __slots__ = ("n", "items")

    def __init__(self, n: int, items: tuple[tuple[Interval, int], ...]) -> None:
        _set(self, "n", n)
        _set(self, "items", items)
        self.__post_init__()

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 0:
            raise ValidationError(f"quiver length must be an integer >= 0, got {self.n!r}")
        prev = None
        for iv, k in self.items:
            if iv.end > self.n:
                raise ValidationError(f"{iv} does not fit in A_{self.n}")
            if type(k) is not int or k <= 0:
                raise ValidationError(f"multiplicities must be positive integers, got {k!r}")
            if prev is not None and not prev < iv:
                raise ValidationError("items must be sorted by interval with no repeats")
            prev = iv

    @staticmethod
    def from_multiplicities(n: int, mult: Mapping) -> "Decomposition":
        items = []
        for key in sorted(mult, key=lambda k: (k.start, k.end) if isinstance(k, Interval) else k):
            iv = key if isinstance(key, Interval) else Interval(*key)
            k = mult[key]
            if k or type(k) is not int:  # a zero that is no int, like 0.0, meets the check
                items.append((iv, k))
        return Decomposition(n, tuple(items))

    @staticmethod
    def from_intervals(n: int, intervals: Iterable) -> "Decomposition":
        counts: dict[Interval, int] = {}
        for key in intervals:
            iv = key if isinstance(key, Interval) else Interval(*key)
            counts[iv] = counts.get(iv, 0) + 1
        return Decomposition.from_multiplicities(n, counts)

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


class RankTable(_Record):
    """Triangular table of composite ranks: entry (a, b) with 1 <= a <= b <= n.

    The diagonal holds vertex dimensions; entry (a, b) for a < b is the rank
    of the composite map from vertex a to vertex b.  Out-of-range queries
    (a = 0 or b = n + 1) return 0, which is the boundary convention the
    second differences of ``decompose_from_ranks`` use.
    """

    __slots__ = ("n", "rows", "_flat")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]) -> None:
        _set(self, "n", n)
        _set(self, "rows", rows)
        self.__post_init__()

    # written out for speed, as in Interval
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            raise ValidationError(f"rank table length must be an integer, got {self.n!r}")
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

        The cache is the private slot ``_flat``, not a field, so eq, hash and
        repr ignore it, and tables that are never flattened pay nothing.
        """
        try:
            return self._flat
        except AttributeError:
            flat = tuple(x for row in self.rows for x in row)
            _set(self, "_flat", flat)
            return flat

    def leq(self, other: "RankTable") -> bool:
        """Entrywise comparison (same shape required), one entry at a time:
        the oracle of the packed test in ``RankSequence.leq``."""
        if self.n != other.n:
            raise ValidationError("rank tables have different lengths")
        return all(map(operator.le, self.entries_flat(), other.entries_flat()))


class RepMatrices(_Record):
    """A quiver representation as vertex dimensions plus a matrix tuple."""

    __slots__ = ("field", "dims", "maps")

    def __init__(self, field: Field, dims: Iterable[int], maps: Iterable[Matrix]) -> None:
        _set(self, "field", field)
        _set(self, "dims", tuple(dims))
        _set(self, "maps", tuple(maps))
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValidationError("representation needs at least one vertex")
        if not all(type(x) is int and x >= 0 for x in self.dims):
            raise ValidationError(f"vertex dimensions must be integers >= 0, got {self.dims!r}")
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
        """0/1 block realization: one basis strand per summand, in sorted order.
        The entries are the field's zero and one, coerced once."""
        strands = D.summands()
        # layout[v-1]: the strands alive at vertex v, in order
        layout = [[s for s, iv in enumerate(strands) if iv.contains(v)] for v in range(1, D.n + 1)]
        z, one = field.coerce(0), field.coerce(1)
        # entry (r, c) of a map is 1 exactly when row r and column c are one strand
        maps = tuple(
            _unchecked(
                Matrix,
                field,
                len(there),
                len(here),
                tuple(tuple([one if r == c else z for c in here]) for r in there),
            )
            for here, there in zip(layout, layout[1:])
        )
        return RepMatrices(field, tuple(map(len, layout)), maps)


def rank_profile(rep: RepMatrices) -> RankTable:
    """Table of all composite ranks (diagonal = vertex dimensions).

    Row a tracks an echelon basis of the image of the composite out of
    vertex a.  At each edge the basis rows are mapped through the next map
    and brought back to echelon form by ``linalg._pivots``; the rank is the
    number of pivots.  A step costs k * m^2 for a rank-k image on vertices
    of dimension at most m.  An image that is the whole vertex needs no
    basis, since the next image is then spanned by the next map's columns,
    and an image that is 0 ends its row in zeros.
    """
    p = rep.field.characteristic
    rows = []
    for a in range(rep.n):
        row = [rep.dims[a]]
        basis = None  # None: the image is the whole vertex
        for f in rep.maps[a:]:
            if basis is None:
                images = [list(col) for col in zip(*f.entries)]
            else:
                images = linalg._images(basis, f.entries, p)
            k = len(linalg._pivots(images, p))
            row.append(k)
            if not k:
                row.extend([0] * (rep.n - a - len(row)))
                break
            basis = None if k == f.nrows else images[:k]
        rows.append(tuple(row))
    return _unchecked(RankTable, rep.n, tuple(rows))


def decompose_from_ranks(table: RankTable) -> Decomposition:
    """Gabriel decomposition read off a rank table.

    The multiplicity of U[a,b] is the second difference
    r(a, b) - r(a-1, b) - r(a, b+1) + r(a-1, b+1) of the table, read off its
    rows in (a, b) order with zeros outside.  Raises NotRealizableError when
    any multiplicity is negative.
    """
    items = []
    offending = []
    # cur[j] = r(a, a + j) and up[j] = r(a - 1, a + j), each padded with the
    # zeros outside the table: r(a, n + 1) and the row a = 0
    up = (0,) * (table.n + 1)
    for a, row in enumerate(table.rows, start=1):
        cur = (*row, 0)
        for j in range(len(row)):
            k = cur[j] - cur[j + 1] - up[j] + up[j + 1]
            if k < 0:
                offending.append((a, a + j, k))
            elif k:
                items.append((_interval(a, a + j), k))
        up = (*row[1:], 0)
    if offending:
        raise NotRealizableError(
            "rank table is not realizable; negative multiplicities at "
            + ", ".join(f"U[{a},{b}] -> {k}" for a, b, k in offending),
            offending,
        )
    return Decomposition(table.n, tuple(items))  # (a, b) order is sorted order


def ranks_from_decomposition(D: Decomposition) -> RankTable:
    """Rank table of any representation with the given decomposition: entry
    (a, b) counts the summands U[s,e] with s <= a <= b <= e, that is

        r(a, b) = sum over s <= a and e >= b of k(s, e).

    ``ends[e]`` keeps the running sum over the starts s <= a, and row a is
    its suffix sums over e >= b, so the table costs O(n^2 + items)."""
    n = D.n
    ends = [0] * (n + 1)  # ends[e] for 1-based e; ends[0] unused
    items = iter(D.items)  # sorted by start, then end
    pending = next(items, None)
    rows = []
    for a in range(1, n + 1):
        while pending is not None and pending[0].start == a:
            ends[pending[0].end] += pending[1]
            pending = next(items, None)
        row = list(itertools.accumulate(reversed(ends[a:])))
        row.reverse()
        rows.append(tuple(row))
    return _unchecked(RankTable, n, tuple(rows))


def well_behaved_rep(dv: DimVector) -> Decomposition:
    """Decomposition of the degeneration whose maps all have the least ranks
    compatible with flatness and irreducibility, with independent kernels."""
    n, m, d = dv.n, dv.m, dv.d
    counts: dict[Interval, int] = {}
    for i in range(1, n):
        step = d[i] - d[i - 1]
        for iv in (_interval(1, i), _interval(i + 1, n)):
            counts[iv] = counts.get(iv, 0) + step
    iv = _interval(1, n)
    counts[iv] = counts.get(iv, 0) + (m - d[-1] + d[0])
    return Decomposition.from_multiplicities(n, counts)


class SubrepPoint(_Record):
    """A point of a quiver Grassmannian: one subspace per vertex.

    Equality and hashing go by the subspaces alone.  ``coordinates`` is
    derived from them: the 1-based index subsets when every subspace is
    spanned by standard basis vectors (a coordinate point), else None.
    """

    __slots__ = ("spaces",)

    def __init__(self, spaces: Iterable[Subspace]) -> None:
        _set(self, "spaces", tuple(spaces))
        self.__post_init__()

    def __post_init__(self) -> None:
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


def _check_subrep(rep: RepMatrices, spaces: Sequence[Subspace]) -> list[list[list]]:
    """Raise NotSubrepresentationError unless each image f(b) of a basis row
    b reduces to zero modulo the next space; return each edge's images."""
    if len(spaces) != rep.n:
        raise NotSubrepresentationError("need one subspace per vertex")
    for i, space in enumerate(spaces):
        if space.field != rep.field:
            raise NotSubrepresentationError("subspace field differs from representation field")
        if space.ambient != rep.dims[i]:
            raise NotSubrepresentationError(
                f"subspace at vertex {i + 1} lives in dimension {space.ambient}, expected {rep.dims[i]}"
            )
    p, out = rep.field.characteristic, []
    for i, f in enumerate(rep.maps):
        images, L = linalg._images(spaces[i].basis, f.entries, p), spaces[i + 1]
        if any(any(linalg._reduce(y, L.basis, L.pivots, p)) for y in images):
            raise NotSubrepresentationError(f"map {i + 1} does not preserve the subspaces")
        out.append(images)
    return out


def _columns_at(field: Field, columns: Sequence[Sequence], positions: Sequence[int]) -> Matrix:
    """The matrix whose column j is ``columns[j]`` read at ``positions``."""
    rows = tuple(tuple(w[c] for w in columns) for c in positions)
    return _unchecked(Matrix, field, len(positions), len(columns), rows)


def restrict_rep(rep: RepMatrices, spaces: Sequence[Subspace]) -> RepMatrices:
    """The subrepresentation on the given subspaces, in their RREF bases."""
    # the image f(b) of a basis row b at vertex i lies in the RREF-basis
    # subspace at i + 1, so its coordinates there are its entries at the pivots
    images = _check_subrep(rep, spaces)
    maps = tuple(_columns_at(rep.field, y, s.pivots) for y, s in zip(images, spaces[1:]))
    return RepMatrices(rep.field, tuple(s.dim for s in spaces), maps)


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
