"""Orbit combinatorics of linear degenerations.

Orbits of endomorphism tuples acting on a fixed flag ambient F^m are in
bijection with realizable rank tables whose diagonal is constant m.  The
closure order is entrywise comparison, strata are indexed by the set of zero
maps, and every orbit has a canonical representative by coordinate
projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import GuardExceededError, ValidationError
from .linalg import Field, Matrix
from .representations import (
    Decomposition,
    DimVector,
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


@dataclass(frozen=True)
class RankSequence:
    """Orbit invariant: a rank table whose diagonal entries all equal m."""

    m: int
    table: RankTable

    def __post_init__(self) -> None:
        if any(x != self.m for x in self.table.vertex_dims()):
            raise ValidationError("rank sequence must have constant vertex dimension m")

    @property
    def n(self) -> int:
        return self.table.n

    def r(self, a: int, b: int) -> int:
        return self.table.r(a, b)

    def edge_ranks(self) -> tuple[int, ...]:
        return tuple(self.table.r(i, i + 1) for i in range(1, self.n))

    def leq(self, other: "RankSequence") -> bool:
        if self.m != other.m:
            raise ValidationError("rank sequences have different ambient dimensions")
        return self.table.leq(other.table)

    def node_id(self) -> str:
        """Stable DOT node name: 'r_' plus the flattened table."""
        return "r_" + "_".join(str(x) for x in self.table.entries_flat())

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


def decomposition_of(rs: RankSequence) -> Decomposition:
    return decompose_from_ranks(rs.table)


def degenerates_to(r: RankSequence, s: RankSequence) -> bool:
    """True iff the orbit of s lies in the closure of the orbit of r (same quiver)."""
    return s.leq(r)


def enumerate_orbits(m: int, n: int, guard: int = ORBIT_GUARD) -> tuple[RankSequence, ...]:
    """All realizable orbits for (m, n), one per multiplicity table.

    Enumerates nonnegative interval multiplicities with every vertex sum equal
    to m; aborts with GuardExceededError past ``guard`` orbits, and before
    building any when (m + 1)^(n - 1) exceeds ``guard``: projection tuples
    realize every vector of edge ranks in 0..m, so there are that many orbits.
    It also aborts in advance when one orbit has more than ``guard`` intervals.
    """
    if m < 0 or n < 1:
        raise ValidationError("need m >= 0 and n >= 1")
    # bit lengths first, so that a huge n costs nothing
    low_bits = (n - 1) * ((m + 1).bit_length() - 1)
    if low_bits >= max(guard, 0).bit_length() or (m + 1) ** (n - 1) > guard:
        raise GuardExceededError(f"more than {guard} orbits for m={m}, n={n}")
    if n * (n + 1) // 2 > guard:
        raise GuardExceededError(f"more than {guard} intervals for n={n}")
    intervals = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    caps = [m] * (n + 1)  # caps[v] for 1-based v; caps[0] unused
    counts: dict[tuple[int, int], int] = {}
    out: list[RankSequence] = []

    def emit() -> None:
        if len(out) >= guard:
            raise GuardExceededError(f"more than {guard} orbits for m={m}, n={n}")
        dec = Decomposition.from_multiplicities(n, dict(counts))
        out.append(RankSequence(m, ranks_from_decomposition(dec)))

    def rec(pos: int) -> None:
        # an interval whose only multiplicity is 0 is passed over in this
        # loop, not by a call of its own, so the depth counts real choices
        while pos < len(intervals):
            a, b = intervals[pos]
            maxk = min(caps[a : b + 1])
            # the last interval starting at a must drain vertex a exactly
            choices = range(maxk + 1) if b < n else range(caps[a], maxk + 1)
            if choices != range(1):
                break
            # no room at a..b (b < n) leaves none for a longer interval from a
            pos += max(n - b, 1)
        else:
            emit()
            return
        for k in choices:
            caps[a : b + 1] = [c - k for c in caps[a : b + 1]]
            counts[(a, b)] = k
            rec(pos + 1)
            del counts[(a, b)]
            caps[a : b + 1] = [c + k for c in caps[a : b + 1]]

    rec(0)
    return tuple(out)


@dataclass(frozen=True)
class ProjectionTuple:
    """Endomorphism tuple of coordinate projections.

    ``zero_sets[i]`` holds the 1-based coordinate indices killed by the map
    out of vertex i + 1; all other coordinates are fixed.
    """

    m: int
    zero_sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "zero_sets", tuple(frozenset(s) for s in self.zero_sets))
        allowed = range(1, self.m + 1)  # a range tests membership without a set of size m
        for s in self.zero_sets:
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

    def rank_sequence(self) -> RankSequence:
        """Rank table of the tuple; composites of projections kill unions."""
        def entry(a: int, b: int) -> int:
            if a == b:
                return self.m
            killed: set[int] = set()
            for i in range(a, b):
                killed |= self.zero_sets[i - 1]
            return self.m - len(killed)

        return RankSequence(self.m, RankTable.from_function(self.n, entry))

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
    index; indices freed by strands that end are reused in increasing order.
    The zero set of edge i collects the indices of strands ending at vertex i.
    """
    dec = decompose_from_ranks(rs.table)
    n, m = rs.n, rs.m
    zero_sets: list[frozenset[int]] = []
    # strand bookkeeping: alive[index] = end vertex of the strand using it
    alive: dict[int, int] = {}
    fresh = list(range(1, m + 1))

    def start_strands(v: int, available: list[int]) -> None:
        starters = sorted(
            (iv for iv in dec.summands() if iv.start == v), key=lambda iv: iv.end
        )
        if len(starters) > len(available):
            raise AssertionError("representative ran out of coordinate indices")
        for iv, idx in zip(starters, available):
            alive[idx] = iv.end

    start_strands(1, fresh)
    for v in range(1, n):
        ending = sorted(idx for idx, end in alive.items() if end == v)
        zero_sets.append(frozenset(ending))
        for idx in ending:
            del alive[idx]
        start_strands(v + 1, ending)
    return ProjectionTuple(m, tuple(zero_sets))


def stratum_of(rs: RankSequence) -> tuple[int, ...]:
    """1-based indices of the zero maps."""
    return tuple(i for i in range(1, rs.n) if rs.r(i, i + 1) == 0)


def stratum_rank_targets(I: Iterable[int], dv: DimVector) -> tuple[RankSequence, RankSequence]:
    """The flat-irreducibility and flatness rank targets of the stratum.

    Entries at edges in I (and composites crossing I) are zero; inside a
    segment the first target is m + d_a - d_b and the second is one less.
    A rank table at least the second target is flat over its stratum, at
    least the first is flat with irreducible fibers.
    """
    iset = frozenset(I)
    if not iset <= set(range(1, dv.n)):
        raise ValidationError(f"stratum {sorted(iset)} not within edges 1..{dv.n - 1}")

    def make(level: int) -> RankSequence:
        def entry(a: int, b: int) -> int:
            if a == b:
                return dv.m
            if any(i in iset for i in range(a, b)):
                return 0
            val = dv.m + dv.d[a - 1] - dv.d[b - 1] - (level - 1)
            assert val >= 0
            return val

        return RankSequence(dv.m, RankTable.from_function(dv.n, entry))

    return make(1), make(2)


def _covering_pairs(ordered: Sequence[RankSequence]) -> list[tuple[int, int]]:
    """Covers (i, j), j covered by i, of the entrywise order on ``ordered``.

    ``ordered`` must be distinct orbits sorted by flattened rank table in
    descending lexicographic order, a linear extension of the order: an orbit
    strictly below another comes later.  Position b is bit b of an int
    bitset.  For each table entry c, ``le[x]`` holds the positions whose entry
    c is at most x; ``below[i]`` is the AND of those over the entries of i.
    The lowest bit left in a candidate set is maximal among the rest, so it
    is a cover, and everything below it is dropped.
    """
    k = len(ordered)
    flats = [rs.table.entries_flat() for rs in ordered]
    below = [(1 << k) - 1] * k
    for column in zip(*flats):
        at: dict[int, int] = {}
        for b, x in enumerate(column):
            at[x] = at.get(x, 0) | 1 << b
        le: dict[int, int] = {}
        acc = 0
        for x in sorted(at):
            acc |= at[x]
            le[x] = acc
        below = [mask & le[x] for mask, x in zip(below, column)]
    covers = []
    for i in range(k):
        cand = below[i] & ~(1 << i)
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

    Nodes are named 'r_' + flattened rank table; edges point from an orbit to
    the orbits it covers (towards deeper degenerations).  The covers are
    those of the order induced on the given orbits, for any list, not only
    for closures: an orbit covers another when no listed orbit lies strictly
    between them.  They cost O(k * entries) bitset ANDs on k-bit ints plus
    one step per cover, for k distinct orbits.
    """
    seen: dict[str, RankSequence] = {}
    for rs in orbits:
        seen.setdefault(rs.node_id(), rs)
    nodes = sorted(seen.items(), key=lambda item: item[1].table.entries_flat(), reverse=True)
    ids = [node for node, _ in nodes]
    ordered = [rs for _, rs in nodes]
    if ordered:
        m0, n0 = ordered[0].m, ordered[0].n
        if any(rs.m != m0 or rs.n != n0 for rs in ordered):
            raise ValidationError("orbits live on different quivers")

    def label(rs: RankSequence) -> str:
        text = "r=" + ",".join(str(x) for x in rs.edge_ranks())
        extra = annotate(rs) if annotate else None
        if extra:
            text += "\\n" + extra
        return text

    lines = ["digraph orbits {", "  rankdir=TB;"]
    for rs, node in zip(ordered, ids):
        lines.append(f'  "{node}" [label="{label(rs)}"];')
    edges = sorted((ids[i], ids[j]) for i, j in _covering_pairs(ordered))
    for src, dst in edges:
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def strata_subsets(n: int, guard: int = STRATA_GUARD) -> tuple[tuple[int, ...], ...]:
    """All strata (subsets of edges 1..n-1), sorted by size then entries.

    Raises ValidationError if n < 1, and GuardExceededError, before building
    any, if the 2^(n-1) strata exceed ``guard``.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    # 2^(n-1) > guard exactly when n - 1 >= guard.bit_length(); checked on n
    # alone so that a huge n allocates nothing
    if n - 1 >= max(guard, 0).bit_length():
        raise GuardExceededError(f"2^{n - 1} strata for n={n} exceed the guard {guard}")
    edges = list(range(1, n))
    count = 1 << len(edges)
    subsets: list[tuple[int, ...]] = []
    for mask in range(count):
        subsets.append(tuple(e for k, e in enumerate(edges) if mask >> k & 1))
    return tuple(sorted(subsets, key=lambda s: (len(s), s)))


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
