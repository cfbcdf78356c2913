"""Orbit combinatorics of linear degenerations.

Orbits of endomorphism tuples acting on a fixed flag ambient F^m are in
bijection with realizable rank tables whose diagonal is constant m; a
``RankSequence`` refuses any other table.  The closure order is entrywise
comparison, strata are indexed by the set of zero maps, and every orbit has
a canonical representative by coordinate projections.

Each orbit also holds its table packed into one int, the entries in
row-major order as fields of w = m.bit_length() + 1 bits, the first entry in
the highest field.  An entry lies in 0..m, below the top bit of its field,
which is a guard bit; so s <= r entrywise iff ``((r | G) - s) & G == G`` for
the mask G of the guard bits: a field where s exceeds r borrows from its
guard bit, and no field borrows from the next.  One int operation then
answers the closure order.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Sequence

from .errors import GuardExceededError, ValidationError, _check_size
from .linalg import Field, Matrix, _Record, _set, _tuple, _unchecked
from .representations import (
    Decomposition,
    DimVector,
    Interval,
    RankTable,
    RepMatrices,
    decompose_from_ranks,
    rank_profile,
    ranks_from_decomposition,
)

__all__ = [
    "ProjectionTuple",
    "RankSequence",
    "decomposition_of",
    "degenerates_to",
    "enumerate_orbits",
    "hasse_dot",
    "representative",
    "single_kill_tuple",
    "strata_dot",
    "strata_subsets",
    "stratum_node_id",
    "stratum_of",
    "stratum_rank_targets",
]

ORBIT_GUARD = 10**6
STRATA_GUARD = 10**6


class RankSequence(_Record):
    """Orbit invariant: a realizable rank table whose diagonal entries all equal m.

    Construction decomposes the table (NotRealizableError for a negative
    multiplicity) and keeps the result, a private slot and not a field, for
    ``decomposition_of``.  It also keeps the packed table ``_word`` and its
    guard mask ``_guard`` (see the module docstring), which ``leq`` compares.
    """

    __slots__ = ("m", "table", "_decomposition", "_word", "_guard")

    def __post_init__(self) -> None:
        if type(self.m) is not int:
            raise ValidationError(f"m must be an integer, got {self.m!r}")
        if type(self.table) is not RankTable:
            raise ValidationError(f"an orbit's table must be a RankTable, got {self.table!r}")
        if any(x != self.m for x in self.table.vertex_dims()):
            raise ValidationError("rank sequence must have constant vertex dimension m")
        _set(self, "_decomposition", decompose_from_ranks(self.table))
        w, n = _width(self.m), self.table.n
        _set(self, "_word", _pack(w, self.table.rows))
        _set(self, "_guard", _guards(w, n * (n + 1) // 2))

    @property
    def n(self) -> int:
        return self.table.n

    def r(self, a: int, b: int) -> int:
        return self.table.r(a, b)

    def edge_ranks(self) -> tuple[int, ...]:
        return tuple(row[1] for row in self.table.rows[:-1])

    def leq(self, other: "RankSequence") -> bool:
        """Entrywise order of the tables, as one packed test: self <= other iff
        ``((other._word | G) - self._word) & G == G`` for the shared guard
        mask G.  ``RankTable.leq`` is its oracle."""
        if self.m != other.m:
            raise ValidationError("rank sequences have different ambient dimensions")
        guard = self._guard
        if guard != other._guard:
            raise ValidationError("rank tables have different lengths")
        return ((other._word | guard) - self._word) & guard == guard

    def node_id(self) -> str:
        """Stable DOT node name: 'r_' plus the flattened table."""
        return "r_" + "_".join(map(str, self.table.entries_flat()))

    @staticmethod
    def identity_orbit(m: int, n: int) -> "RankSequence":
        return RankSequence(m, RankTable.from_function(n, lambda a, b: m))

    @staticmethod
    def zero_orbit(m: int, n: int) -> "RankSequence":
        return RankSequence(m, RankTable.from_function(n, lambda a, b: m if a == b else 0))

    @staticmethod
    def two_step(m: int, rank: int) -> "RankSequence":
        """The n = 2 orbit with the single map of the given rank."""
        return RankSequence(m, RankTable(2, ((m, rank), (m,))))

    @staticmethod
    def from_rep(rep: RepMatrices) -> "RankSequence":
        dims = set(rep.dims)
        if len(dims) != 1:
            raise ValidationError("representation does not have constant vertex dimension")
        return RankSequence(dims.pop(), rank_profile(rep))

    def __str__(self) -> str:
        return f"ranks{self.edge_ranks()} on F^{self.m}"


def _width(m: int) -> int:
    """Bits per packed entry: m.bit_length() for 0..m and a guard bit on top."""
    return m.bit_length() + 1


def _pack(w: int, rows: Iterable[Sequence[int]]) -> int:
    """Table rows as one int of w-bit fields, row-major, first entry highest.
    Each row is packed on its own before it joins the word, so the growing
    word is shifted once per row, not once per entry."""
    word = 0
    for row in rows:
        packed = 0
        for x in row:
            packed = packed << w | x
        word = word << w * len(row) | packed
    return word


@functools.lru_cache(maxsize=64)
def _guards(w: int, count: int) -> int:
    """The guard mask: the top bit of each of ``count`` w-bit fields, shared
    by the packed words of one shape."""
    return ((1 << w * count) - 1) // ((1 << w) - 1) << (w - 1)


def decomposition_of(rs: RankSequence) -> Decomposition:
    return rs._decomposition


def degenerates_to(r: RankSequence, s: RankSequence) -> bool:
    """True iff the orbit of s lies in the closure of the orbit of r (same quiver)."""
    return s.leq(r)


def enumerate_orbits(m: int, n: int, guard: int = ORBIT_GUARD) -> tuple[RankSequence, ...]:
    """All realizable orbits for (m, n), one per multiplicity table.

    Enumerates nonnegative interval multiplicities with every vertex sum equal
    to m; aborts with GuardExceededError past ``guard`` orbits, and before
    building any when (m + 1)^(n - 1) exceeds ``guard``: projection tuples
    realize each vector of edge ranks in 0..m, so there are at least that many.
    It also aborts in advance when one orbit has more than ``guard`` intervals.
    """
    if type(m) is not int or type(n) is not int or m < 0 or n < 1:
        raise ValidationError(f"need m >= 0 and n >= 1, integers; got m={m!r}, n={n!r}")
    what = f"orbit enumeration for m={m}, n={n}"
    _check_size(what, (n - 1) * ((m + 1).bit_length() - 1), lambda: (m + 1) ** (n - 1), guard)
    _check_size(f"interval list for n={n}", 0, lambda: n * (n + 1) // 2, guard)
    # the orbits keep their decompositions: they share each Interval and each item
    intervals = [Interval(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    shared: dict[tuple[int, int], tuple[Interval, int]] = {}
    caps = [m] * (n + 1)  # caps[v] for 1-based v; caps[0] unused
    items: list[tuple[Interval, int]] = []  # the multiplicities chosen, in sorted order
    out: list[RankSequence] = []
    # the packed table is linear in the multiplicities: each copy of the
    # interval at pos adds ``units[pos]``, the packed table of one copy,
    # built when a multiplicity at pos is first chosen
    w = _width(m)
    mask = _guards(w, n * (n + 1) // 2)
    units: dict[int, int] = {}

    def emit(word: int) -> None:
        if len(out) >= guard:
            size = f"at least {guard + 1}"
            raise GuardExceededError(f"{what} of size {size} exceeds the guard {guard}")
        # items are sorted and fit by construction, so dec skips its checks;
        # the table is read off dec: not decomposed again
        dec = _unchecked(Decomposition, n, tuple(item for item in items if item[1]))
        table = ranks_from_decomposition(dec)
        out.append(_unchecked(RankSequence, m, table, _decomposition=dec, _word=word, _guard=mask))

    def rec(pos: int, word: int) -> None:
        # an interval whose only multiplicity is 0 is passed over in this
        # loop, not by a call of its own, so the depth counts real choices
        while pos < len(intervals):
            iv = intervals[pos]
            a, b = iv.start, iv.end
            maxk = min(caps[a : b + 1])
            # the last interval starting at a must drain vertex a exactly
            choices = range(maxk + 1) if b < n else range(caps[a], maxk + 1)
            if choices != range(1):
                break
            # no room at a..b (b < n) leaves none for a longer interval from a
            pos += max(n - b, 1)
        else:
            emit(word)
            return
        unit = units.get(pos)
        if unit is None:
            one_copy = ranks_from_decomposition(Decomposition(n, ((iv, 1),)))
            unit = units[pos] = _pack(w, one_copy.rows)
        for k in choices:
            caps[a : b + 1] = [c - k for c in caps[a : b + 1]]
            items.append(shared.setdefault((pos, k), (iv, k)))
            rec(pos + 1, word + k * unit)
            items.pop()
            caps[a : b + 1] = [c + k for c in caps[a : b + 1]]

    try:
        rec(0, 0)
    finally:
        del rec  # the closure refers to itself: break that cycle
    return tuple(out)


class ProjectionTuple(_Record):
    """Endomorphism tuple of coordinate projections.

    ``zero_sets[i]`` holds the 1-based coordinate indices killed by the map
    out of vertex i + 1; all other coordinates are fixed.
    """

    __slots__ = ("m", "zero_sets")

    def __post_init__(self) -> None:
        _set(self, "zero_sets", _tuple(self.zero_sets, "zero sets must be iterables", frozenset))
        if type(self.m) is not int:
            raise ValidationError(f"m must be an integer, got {self.m!r}")
        allowed = range(1, self.m + 1)  # a range tests membership without a set of size m
        for s in self.zero_sets:
            if not all(type(j) is int for j in s):
                raise ValidationError(f"zero set {set(s)} holds a non-integer")
            if not all(j in allowed for j in s):
                raise ValidationError(f"zero set {sorted(s)} not within 1..{self.m}")

    @property
    def n(self) -> int:
        return len(self.zero_sets) + 1

    def matrices(self, field: Field) -> RepMatrices:
        maps = tuple(
            Matrix.projection(field, self.m, {j - 1 for j in s}) for s in self.zero_sets
        )
        return RepMatrices(field, (self.m,) * self.n, maps)

    def rank_table(self) -> RankTable:
        """Rank table: entry (a, b) is m less the coordinates killed on edges
        a..b-1, from one running union per row."""
        rows = []
        for a in range(self.n):
            killed: set[int] = set()
            row = [self.m]
            for s in self.zero_sets[a:]:
                killed |= s
                row.append(self.m - len(killed))
            rows.append(tuple(row))
        return _unchecked(RankTable, self.n, tuple(rows))

    def rank_sequence(self) -> RankSequence:
        """The orbit of this tuple: its ``rank_table``, decomposed once."""
        return RankSequence(self.m, self.rank_table())

    def __str__(self) -> str:
        return f"projections m={self.m}, zero sets {[sorted(s) for s in self.zero_sets]}"


def single_kill_tuple(m: int, n: int, h: int) -> ProjectionTuple:
    """The tuple that is the identity everywhere except killing v_1 at edge h."""
    if not 1 <= h <= n - 1:
        raise ValidationError(f"edge index h={h} out of range 1..{n - 1}")
    return ProjectionTuple(
        m, tuple(frozenset({1}) if i == h else frozenset() for i in range(1, n))
    )


def representative(rs: RankSequence) -> ProjectionTuple:
    """Canonical projection-tuple representative of an orbit.

    Scans vertices left to right, assigning each summand strand a coordinate
    index; the strands starting at a vertex take the free indices in
    increasing order, shortest first, and an ending strand frees its index.
    The zero set of edge i collects the indices of strands ending at vertex i.
    """
    strands = decomposition_of(rs).summands()  # sorted by (start, end)
    free = list(range(1, rs.m + 1))
    ending: dict[int, list[int]] = {}  # end vertex -> indices of the strands ending there
    zero_sets = []
    for v in range(1, rs.n):
        ends = [iv.end for iv in strands if iv.start == v]
        assert len(ends) == len(free), "starting strands do not fit the free indices"
        for idx, end in zip(free, ends):
            ending.setdefault(end, []).append(idx)
        free = sorted(ending.pop(v, []))
        zero_sets.append(frozenset(free))
    return ProjectionTuple(rs.m, tuple(zero_sets))


def stratum_of(rs: RankSequence) -> tuple[int, ...]:
    """1-based indices of the zero maps, read off the table's rows."""
    return tuple([a for a, row in enumerate(rs.table.rows[:-1], 1) if not row[1]])


def stratum_rank_targets(I: Iterable[int], dv: DimVector) -> tuple[RankSequence, RankSequence]:
    """The flat-irreducibility and flatness rank targets of the stratum.

    Entries at edges in I (and composites crossing I) are zero; inside a
    segment the first target is m + d_a - d_b and the second is one less.
    A rank table at least the second target is flat over its stratum, at
    least the first is flat with irreducible fibers.
    """
    edges = tuple(I)
    iset = frozenset(edges)
    if any(type(i) is not int for i in edges) or not iset <= set(range(1, dv.n)):
        raise ValidationError(f"stratum {list(edges)} not within edges 1..{dv.n - 1}")
    return (
        RankSequence(dv.m, RankTable(dv.n, _stratum_rows(iset, dv.m, dv.d, 1))),
        RankSequence(dv.m, RankTable(dv.n, _stratum_rows(iset, dv.m, dv.d, 2))),
    )


def _stratum_rows(
    I: Iterable[int], m: int, d: tuple[int, ...], level: int
) -> tuple[tuple[int, ...], ...]:
    """The rows of ``stratum_rank_targets(I, DimVector(m, d))[level - 1]``,
    not checked for realizability: m on the diagonal, 0 across an edge in I,
    and m + d_a - d_b - (level - 1) elsewhere."""
    iset = frozenset(I)
    n = len(d)

    def entry(a: int, b: int) -> int:
        if a == b:
            return m
        if any(i in iset for i in range(a, b)):
            return 0
        return m + d[a - 1] - d[b - 1] - (level - 1)

    return tuple(tuple(entry(a, b) for b in range(a, n + 1)) for a in range(1, n + 1))


def _above_targets(
    rs: RankSequence, d: tuple[int, ...], stratum: tuple[int, ...]
) -> tuple[bool, bool]:
    """Whether the table of rs is entrywise at least the first and at least
    the second table of ``stratum_rank_targets(stratum, DimVector(rs.m, d))``:
    the packed rule of ``RankSequence.leq``, target <= rs iff
    ``((word | G) - target) & G == G``, against memoized target words."""
    upper, lower = _target_words(rs.m, d, stratum)
    guard = rs._guard
    word = rs._word | guard
    return (word - upper) & guard == guard, (word - lower) & guard == guard


@functools.lru_cache(maxsize=256)
def _target_words(m: int, d: tuple[int, ...], stratum: tuple[int, ...]) -> tuple[int, int]:
    """The two tables of ``stratum_rank_targets(stratum, DimVector(m, d))``
    packed as a ``RankSequence`` of that shape packs its own, with no table
    built.  A bounded memo: a flag datum has 2^(n-1) strata, and a long run
    sees many data."""
    w = _width(m)
    return _pack(w, _stratum_rows(stratum, m, d, 1)), _pack(w, _stratum_rows(stratum, m, d, 2))


def _covering_pairs(ordered: Sequence[RankSequence]) -> list[tuple[int, int]]:
    """Covers (i, j), j covered by i, of the entrywise order on ``ordered``.

    ``ordered`` must be distinct orbits of one quiver sorted by flattened rank
    table in descending lexicographic order, a linear extension of the order:
    an orbit strictly below another comes later.  Position b is bit b of an
    int bitset.  For each table entry c that is not constant over the list
    (the diagonal, always m, is skipped), ``le[x]`` holds the positions whose
    entry c is at most x, for x in 0..m; ``below[i]`` is the AND of those over
    the entries of i.  The lowest bit left in a candidate set is maximal among
    the rest, so it is a cover, and everything below it is dropped.
    """
    k = len(ordered)
    if not k:
        return []
    size = ordered[0].m + 1
    bits = [1 << b for b in range(k)]
    below = [(1 << k) - 1] * k
    for column in zip(*(rs.table.entries_flat() for rs in ordered)):
        if column.count(column[0]) == k:
            continue
        at = [0] * size
        for bit, x in zip(bits, column):
            at[x] |= bit
        le = list(itertools.accumulate(at, operator.or_))
        below = list(map(operator.and_, below, map(le.__getitem__, column)))
    covers = []
    for i in range(k):
        cand = below[i] & ~bits[i]
        while cand:
            j = (cand & -cand).bit_length() - 1
            covers.append((i, j))
            cand &= ~below[j]
    return covers


def hasse_dot(
    orbits: Sequence[RankSequence],
    annotate: Callable[[RankSequence], str] | None = None,
) -> str:
    """Deterministic DOT source for the Hasse diagram of the closure order.

    Nodes are named 'r_' + flattened rank table, in descending order of the
    table; edges point from an orbit to the orbits it covers (towards deeper
    degenerations), sorted by the names of their ends.  The covers are those
    of the order induced on the given orbits, for any list, not only for
    closures: an orbit covers another when no listed orbit lies strictly
    between them.  For k distinct orbits they cost O(k) bitset ANDs on k-bit
    ints per table entry that is not constant over the list, plus one step
    per cover.  Each table is read once: its entries become strings through
    one table of str(0..m), for its name and its label, and the names are
    ranked once, so the edges sort as pairs of int ranks.
    """
    seen: dict[tuple[int, ...], RankSequence] = {}
    for rs in orbits:
        seen.setdefault(rs.table.entries_flat(), rs)
    flats = sorted(seen, reverse=True)
    ordered = [seen[flat] for flat in flats]
    lines = ["digraph orbits {", "  rankdir=TB;"]
    if ordered:
        m, n = ordered[0].m, ordered[0].n
        if any(rs.m != m or rs.n != n for rs in ordered):
            raise ValidationError("orbits live on different quivers")
        text = [str(x) for x in range(m + 1)]
        # entry (a + 1, a + 2) of the table, for 0-based a < n - 1
        edge_at = [a * n - a * (a - 1) // 2 + 1 for a in range(n - 1)]
        ids = []
        for rs, flat in zip(ordered, flats):
            entries = [text[x] for x in flat]
            node = "r_" + "_".join(entries)
            ids.append(node)
            label = "r=" + ",".join([entries[c] for c in edge_at])
            extra = annotate(rs) if annotate else None
            if extra:
                label += "\\n" + extra
            lines.append(f'  "{node}" [label="{label}"];')
        names = sorted(ids)
        rank = {node: r for r, node in enumerate(names)}
        order = [rank[node] for node in ids]
        k = len(ids)
        keys = sorted(order[i] * k + order[j] for i, j in _covering_pairs(ordered))
        for key in keys:
            src, dst = divmod(key, k)
            lines.append(f'  "{names[src]}" -> "{names[dst]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def strata_subsets(n: int, guard: int = STRATA_GUARD) -> tuple[tuple[int, ...], ...]:
    """All strata (subsets of edges 1..n-1), sorted by size then entries.

    Raises ValidationError if n < 1 or guard < 0, and GuardExceededError,
    before building any, if the 2^(n-1) strata exceed ``guard``.
    """
    if type(n) is not int or n < 1:
        raise ValidationError(f"need an integer n >= 1, got {n!r}")
    _check_size(f"strata for n={n}", n - 1, lambda: 1 << (n - 1), guard)
    edges = range(1, n)
    return tuple(s for k in range(n) for s in itertools.combinations(edges, k))


def stratum_node_id(I: Sequence[int]) -> str:
    return "S" + "".join(f"_{i}" for i in I)


def strata_dot(n: int, guard: int = STRATA_GUARD) -> str:
    """DOT source for the closure order on strata (reverse Boolean lattice).

    The stratum of J contains the stratum of I in its closure iff J is a
    subset of I; edges point from each stratum to the covering deeper ones.
    The ``guard`` on the number of strata is that of ``strata_subsets``.
    """
    subsets = strata_subsets(n, guard)
    lines = ["digraph strata {", "  rankdir=TB;"]
    for I in subsets:
        text = "{" + ",".join(str(i) for i in I) + "}"
        lines.append(f'  "{stratum_node_id(I)}" [label="{text}"];')
    for I in subsets:
        for e in range(1, n):
            if e not in I:
                J = tuple(sorted(I + (e,)))
                lines.append(f'  "{stratum_node_id(I)}" -> "{stratum_node_id(J)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
