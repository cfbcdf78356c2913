"""Orbit enumeration, closure order, strata and canonical representatives."""

import itertools
import random
import tracemalloc

import pytest

from lindeg import (
    GF,
    QQ,
    DimVector,
    GuardExceededError,
    NotRealizableError,
    ProjectionTuple,
    RankSequence,
    RankTable,
    ValidationError,
    decomposition_of,
    degenerates_to,
    enumerate_orbits,
    hasse_dot,
    rank_profile,
    representative,
    single_kill_tuple,
    strata_dot,
    strata_subsets,
    stratum_node_id,
    stratum_of,
    stratum_rank_targets,
)
from lindeg.orbits import _covering_pairs
from oracles import bruteforce_orbit_tables_f2, covering_pairs_oracle


def _count_by_direct_enumeration(m, n):
    """Independent count: all interval multiplicity tables with vertex sums m."""
    intervals = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    count = 0
    for mults in itertools.product(range(m + 1), repeat=len(intervals)):
        sums = [0] * n
        for (a, b), k in zip(intervals, mults):
            for v in range(a, b + 1):
                sums[v - 1] += k
        if all(s == m for s in sums):
            count += 1
    return count


class TestEnumeration:
    def test_two_vertex_counts(self):
        for m in range(1, 7):
            orbits = enumerate_orbits(m, 2)
            assert len(orbits) == m + 1
            assert sorted(rs.r(1, 2) for rs in orbits) == list(range(m + 1))

    def test_counts_match_direct_enumeration(self):
        for m, n in [(2, 3), (3, 3), (4, 3), (2, 4)]:
            assert len(enumerate_orbits(m, n)) == _count_by_direct_enumeration(m, n)

    def test_all_enumerated_orbits_realizable(self):
        for rs in enumerate_orbits(3, 3):
            # decomposition_of raises NotRealizableError on an unrealizable table
            assert decomposition_of(rs).vertex_dims() == (3, 3, 3)

    def test_tables_distinct(self):
        orbits = enumerate_orbits(4, 3)
        assert len({rs.table for rs in orbits}) == len(orbits)

    def test_guard(self):
        with pytest.raises(GuardExceededError):
            enumerate_orbits(3, 3, guard=2)

    def test_guard_checks_the_bound_in_advance(self, monkeypatch):
        # m = 1 has exactly 2^(n-1) orbits, one per set of zero maps
        assert len(enumerate_orbits(1, 5, guard=16)) == 16

        def refuse(*args):
            raise AssertionError("an orbit was built past the guard")

        monkeypatch.setattr("lindeg.orbits.ranks_from_decomposition", refuse)
        with pytest.raises(GuardExceededError, match="more than 15 orbits"):
            enumerate_orbits(1, 5, guard=15)
        for m, n in [(10**8, 2), (3, 30), (1, 45), (2, 10**9)]:
            with pytest.raises(GuardExceededError):
                enumerate_orbits(m, n)

    def test_forced_zero_intervals_take_no_frame(self):
        # m = 0 gives every interval multiplicity 0: n(n+1)/2 intervals, one orbit
        (only,) = enumerate_orbits(0, 60)
        assert only == RankSequence.zero_orbit(0, 60)

    def test_guard_bounds_the_intervals_of_one_orbit(self):
        # m = 0 has one orbit for every n, but n(n+1)/2 intervals
        assert len(enumerate_orbits(0, 100, guard=5050)) == 1
        for n in (100, 10**9):
            with pytest.raises(GuardExceededError, match="intervals"):
                enumerate_orbits(0, n, guard=5049)


class TestBruteForce:
    """Orbit tables must exactly match exhaustion over all F_2 matrix tuples."""

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
    def test_matches_f2_exhaustion(self, m, n):
        expected = bruteforce_orbit_tables_f2(m, n)
        got = {rs.table.rows for rs in enumerate_orbits(m, n)}
        assert got == expected


class TestClosureOrder:
    def test_partial_order_axioms(self):
        for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            orbits = enumerate_orbits(m, n)
            for x in orbits:
                assert degenerates_to(x, x)
            for x in orbits:
                for y in orbits:
                    if degenerates_to(x, y) and degenerates_to(y, x):
                        assert x == y
            for x in orbits:
                for y in orbits:
                    for z in orbits:
                        if degenerates_to(x, y) and degenerates_to(y, z):
                            assert degenerates_to(x, z)

    def test_identity_max_zero_min(self):
        for m, n in [(2, 2), (3, 3)]:
            orbits = enumerate_orbits(m, n)
            top = RankSequence.identity_orbit(m, n)
            bot = RankSequence.zero_orbit(m, n)
            for rs in orbits:
                assert degenerates_to(top, rs)
                assert degenerates_to(rs, bot)

    def test_incomparable_pair(self):
        a = RankSequence(2, RankTable(3, ((2, 2, 0), (2, 0), (2,))))
        b = RankSequence(2, RankTable(3, ((2, 0, 0), (2, 1), (2,))))
        assert not degenerates_to(a, b) and not degenerates_to(b, a)

    def test_degenerates_to_is_the_entrywise_order(self, monkeypatch):
        calls = []
        leq = RankSequence.leq

        def counted(self, other):
            calls.append((self, other))
            return leq(self, other)

        monkeypatch.setattr(RankSequence, "leq", counted)
        top, low = RankSequence.two_step(3, 3), RankSequence.two_step(3, 1)
        assert degenerates_to(top, low)
        assert calls == [(low, top)]

    def test_leq_needs_same_quiver(self):
        with pytest.raises(ValidationError):
            RankSequence.two_step(3, 1).leq(RankSequence.two_step(4, 1))
        with pytest.raises(ValidationError):
            RankSequence.two_step(3, 1).leq(RankSequence.identity_orbit(3, 3))
        with pytest.raises(ValidationError):
            degenerates_to(RankSequence.two_step(3, 1), RankSequence.identity_orbit(3, 3))


class TestStrata:
    def test_stratum_of(self):
        assert stratum_of(RankSequence.identity_orbit(3, 3)) == ()
        assert stratum_of(RankSequence.zero_orbit(3, 3)) == (1, 2)
        assert stratum_of(RankSequence.two_step(3, 0)) == (1,)

    def test_targets_flat_below_flat_irreducible(self):
        dv = DimVector(4, (1, 2, 3))
        for I in strata_subsets(dv.n):
            r1, r2 = stratum_rank_targets(I, dv)
            assert r2.leq(r1)
            for i in I:
                assert r1.r(i, i + 1) == 0 and r2.r(i, i + 1) == 0

    def test_targets_shrink_as_stratum_grows(self):
        dv = DimVector(5, (1, 3, 4))
        subsets = strata_subsets(dv.n)
        for J in subsets:
            for I in subsets:
                if set(J) <= set(I):
                    r1_i, r2_i = stratum_rank_targets(I, dv)
                    r1_j, r2_j = stratum_rank_targets(J, dv)
                    assert r1_i.leq(r1_j)
                    assert r2_i.leq(r2_j)

    def test_two_vertex_values(self):
        dv = DimVector(6, (1, 4))
        r1, r2 = stratum_rank_targets((), dv)
        assert r1.r(1, 2) == 3
        assert r2.r(1, 2) == 2

    def test_rejects_bad_edges(self):
        with pytest.raises(ValidationError):
            stratum_rank_targets((2,), DimVector(3, (1, 2)))

    def test_subsets_order(self):
        assert strata_subsets(3) == ((), (1,), (2,), (1, 2))
        assert stratum_node_id((1, 2)) == "S_1_2"

    def test_guard_checks_the_bound_in_advance(self):
        # n vertices have 2^(n-1) strata
        assert len(strata_subsets(4, guard=8)) == 8
        assert strata_dot(4, guard=8) == strata_dot(4)
        with pytest.raises(GuardExceededError, match=r"2\^3 "):
            strata_subsets(4, guard=7)
        with pytest.raises(GuardExceededError, match=r"2\^4 "):
            strata_dot(5, guard=15)
        assert len(strata_subsets(1, guard=1)) == 1
        with pytest.raises(GuardExceededError):
            strata_subsets(1, guard=0)
        # below one vertex there is no quiver: a validation error, whatever the guard
        for n in (0, -3):
            with pytest.raises(ValidationError):
                strata_subsets(n, guard=0)
            with pytest.raises(ValidationError):
                strata_dot(n)

    def test_guard_trips_before_allocating(self):
        # a list of 10^9 edges would not fit; the check must come first
        with pytest.raises(GuardExceededError, match=r"2\^999999999 "):
            strata_subsets(10**9, guard=10**6)


class TestRepresentatives:
    def test_round_trip_small(self):
        for m in range(1, 4):
            for n in range(2, 5):
                for rs in enumerate_orbits(m, n):
                    pt = representative(rs)
                    assert pt.rank_sequence() == rs
                    rep = pt.matrices(GF(2))
                    assert rank_profile(rep) == rs.table

    def test_field_independence(self):
        rs = RankSequence.two_step(6, 3)
        pt = representative(rs)
        for field in (QQ, GF(2), GF(101)):
            assert RankSequence.from_rep(pt.matrices(field)) == rs

    def test_kills_first_coordinate_when_rank_drops(self):
        """Below-full first edge: v_1 must be in the first zero set."""
        for m, n in [(3, 2), (4, 3), (6, 2)]:
            for r in range(m):
                table = RankTable.from_function(
                    n, lambda a, b, r=r: m if a == b else max(r - (b - a - 1), 0)
                )
                try:
                    pt = representative(RankSequence(m, table))
                except NotRealizableError:
                    continue
                assert 1 in pt.zero_sets[0]

    def test_zero_sets_are_checked_in_memory_independent_of_m(self):
        # checking against a set of all m coordinates peaked at 67 MB here
        tracemalloc.start()
        try:
            ProjectionTuple(10**6, (frozenset({1}),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_single_kill(self):
        pt = single_kill_tuple(4, 3, 2)
        assert pt.zero_sets == (frozenset(), frozenset({1}))
        rs = pt.rank_sequence()
        assert rs.edge_ranks() == (4, 3)
        assert rs.r(1, 3) == 3

    def test_projection_validation(self):
        for bad in (3, 0):
            with pytest.raises(ValidationError, match=rf"zero set \[{bad}\] not within 1\.\.2"):
                ProjectionTuple(2, (frozenset({bad}),))
        with pytest.raises(ValidationError):
            single_kill_tuple(3, 2, 2)


class TestDot:
    def test_hasse_snapshot_two_vertex(self):
        dot = hasse_dot(enumerate_orbits(2, 2))
        assert dot == (
            "digraph orbits {\n"
            "  rankdir=TB;\n"
            '  "r_2_2_2" [label="r=2"];\n'
            '  "r_2_1_2" [label="r=1"];\n'
            '  "r_2_0_2" [label="r=0"];\n'
            '  "r_2_1_2" -> "r_2_0_2";\n'
            '  "r_2_2_2" -> "r_2_1_2";\n'
            "}\n"
        )

    def test_hasse_annotations(self):
        orbits = enumerate_orbits(2, 2)
        dot = hasse_dot(orbits, annotate=lambda rs: "top" if rs.r(1, 2) == 2 else "")
        assert 'label="r=2\\ntop"' in dot
        assert 'label="r=1"' in dot

    def test_hasse_deterministic(self):
        orbits = enumerate_orbits(3, 3)
        assert hasse_dot(orbits) == hasse_dot(tuple(reversed(orbits)))

    def test_hasse_ignores_repeats(self):
        orbits = enumerate_orbits(3, 3)
        repeated = list(orbits[::2]) + list(orbits) + list(orbits[1::3])
        assert hasse_dot(repeated) == hasse_dot(orbits)

    def test_strata_dot_structure(self):
        dot = strata_dot(3)
        assert '"S" ->' in dot
        for node in ("S", "S_1", "S_2", "S_1_2"):
            assert f'"{node}"' in dot
        assert '"S_1" -> "S_1_2";' in dot
        assert '"S_2" -> "S_1_2";' in dot
        assert '"S_1" -> "S_2"' not in dot


COVER_POSETS = [(3, 3), (4, 3), (3, 4), (4, 4), (2, 5)]


def _assert_covers_match(orbits):
    """Bitset covers equal the oracle's on the list as hasse_dot orders it."""
    ordered = sorted(set(orbits), key=lambda rs: rs.table.entries_flat(), reverse=True)
    assert sorted(_covering_pairs(ordered)) == sorted(covering_pairs_oracle(ordered))


class TestCovers:
    @pytest.mark.parametrize("m,n", COVER_POSETS)
    def test_full_poset_matches_oracle(self, m, n):
        _assert_covers_match(enumerate_orbits(m, n))

    @pytest.mark.parametrize("m,n", COVER_POSETS)
    def test_subsets_match_oracle(self, m, n):
        orbits = enumerate_orbits(m, n)
        rng = random.Random(1000 * m + n)
        for _ in range(20):
            subset = rng.sample(orbits, len(orbits) // 2)
            chosen = set(subset)
            # not down-closed: some listed orbit degenerates to an unlisted one
            assert any(
                degenerates_to(r, s) for r in subset for s in orbits if s not in chosen
            )
            _assert_covers_match(subset)

    def test_closures_match_oracle(self):
        orbits = enumerate_orbits(5, 4)
        for top in random.Random(5).sample(orbits, 10):
            _assert_covers_match([s for s in orbits if degenerates_to(top, s)])

    def test_covers_are_induced_on_the_list(self):
        # on F^2 rank 2 covers rank 1 covers rank 0; without rank 1 listed,
        # rank 2 covers rank 0
        dot = hasse_dot([RankSequence.two_step(2, 0), RankSequence.two_step(2, 2)])
        assert dot.count(" -> ") == 1
        assert '"r_2_2_2" -> "r_2_0_2";' in dot

    def test_empty_and_single(self):
        assert _covering_pairs([]) == []
        assert _covering_pairs([RankSequence.identity_orbit(3, 3)]) == []
