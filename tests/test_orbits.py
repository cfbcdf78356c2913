"""Orbit enumeration, closure order, strata and canonical representatives."""

import dataclasses
import gc
import itertools
import random
import tracemalloc

import pytest

from lindeg import (
    GF,
    QQ,
    Decomposition,
    DimVector,
    GuardExceededError,
    NotRealizableError,
    ProjectionTuple,
    RankSequence,
    RankTable,
    RepMatrices,
    ValidationError,
    classify,
    decompose_from_ranks,
    dimension,
    decomposition_of,
    degenerates_to,
    enumerate_orbits,
    flat_flags,
    hasse_dot,
    is_smooth,
    rank_profile,
    ranks_from_decomposition,
    representative,
    single_kill_tuple,
    strata_dot,
    strata_subsets,
    stratum_node_id,
    stratum_of,
    stratum_rank_targets,
    well_behaved_rep,
)
from lindeg.orbits import _covering_pairs
from oracles import bruteforce_orbit_tables_f2, covering_pairs_oracle, hasse_dot_oracle


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
            # decompose_from_ranks raises NotRealizableError on an unrealizable table;
            # decomposition_of reads the one the enumeration kept
            assert decompose_from_ranks(rs.table) == decomposition_of(rs)
            assert decomposition_of(rs).vertex_dims() == (3, 3, 3)

    def test_kept_decompositions_pass_their_own_check(self):
        # the enumeration builds them unchecked, sorted and positive by construction
        for m, n in [(0, 3), (3, 3), (2, 4), (5, 2)]:
            for rs in enumerate_orbits(m, n):
                dec = decomposition_of(rs)
                assert Decomposition(dec.n, dec.items) == dec

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
        with pytest.raises(
            GuardExceededError,
            match="orbit enumeration for m=1, n=5 of size 16 exceeds the guard 15",
        ):
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
            with pytest.raises(GuardExceededError, match=f"interval list for n={n} of size "):
                enumerate_orbits(0, n, guard=5049)

    def test_a_finished_enumeration_leaves_no_cycle(self):
        # the walk's closures once formed a cycle that held every orbit of
        # the call until the cyclic collector ran
        gc.collect()
        gc.disable()
        try:
            enumerate_orbits(3, 4)
            with pytest.raises(GuardExceededError):
                enumerate_orbits(3, 4, guard=50)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("m,n", [(-1, 2), (2, 0)])
    def test_rejects_a_negative_m_or_no_vertex(self, m, n):
        with pytest.raises(ValidationError, match="need m >= 0 and n >= 1"):
            enumerate_orbits(m, n)


class TestRealizableByConstruction:
    # each table has a negative interval multiplicity, so no tuple of maps has it
    @pytest.mark.parametrize(
        "m, rows, offending",
        [
            (4, ((4, 3, 4), (4, 3), (4,)), ((1, 2, -1), (2, 3, -1))),
            (3, ((3, -1), (3,)), ((1, 2, -1),)),
        ],
    )
    def test_an_unrealizable_table_raises_at_construction(self, m, rows, offending):
        with pytest.raises(NotRealizableError) as exc:
            RankSequence(m, RankTable(len(rows), rows))
        assert exc.value.offending == offending

    def test_enumeration_decomposes_no_table(self, decompose_calls):
        orbits = enumerate_orbits(4, 3)
        assert decompose_calls == [] and len(orbits) == _count_by_direct_enumeration(4, 3)

    def test_readers_of_a_built_orbit_decompose_nothing(self, decompose_calls):
        rs = RankSequence(4, RankTable(3, ((4, 3, 2), (4, 3), (4,))))
        dv = DimVector(4, (1, 2, 3))
        decompose_calls.clear()  # the construction's own
        dec = decomposition_of(rs)
        pt = representative(rs)
        report = classify(rs, dv)
        assert decompose_calls == []
        assert report.decomposition == dec == decompose_from_ranks(rs.table)
        assert report.singular is not None and pt.rank_sequence() == rs

    def test_every_stratum_target_constructs(self):
        for m in range(2, 8):
            for n in range(1, min(m, 6)):
                for d in itertools.combinations(range(1, m), n):
                    dv = DimVector(m, d)
                    for I in strata_subsets(n):
                        for target in stratum_rank_targets(I, dv):
                            assert decomposition_of(target).vertex_dims() == (m,) * n

    def test_the_generic_construction_is_the_upper_target(self):
        # both targets of the empty stratum construct, so both are realizable
        for m in range(2, 9):
            for n in range(1, m):
                for d in itertools.combinations(range(1, m), n):
                    dv = DimVector(m, d)
                    upper, _ = stratum_rank_targets((), dv)
                    assert upper.table == ranks_from_decomposition(well_behaved_rep(dv)), dv

    def test_the_kept_decomposition_is_not_a_field(self):
        table = RankTable(3, ((4, 3, 2), (4, 3), (4,)))
        (enumerated,) = [rs for rs in enumerate_orbits(4, 3) if rs.table == table]
        built = RankSequence(4, table)
        assert [f.name for f in dataclasses.fields(RankSequence)] == ["m", "table"]
        assert enumerated == built and hash(enumerated) == hash(built) == hash((4, table))
        expected = "RankSequence(m=4, table=RankTable(n=3, rows=((4, 3, 2), (4, 3), (4,))))"
        assert repr(enumerated) == repr(built) == expected
        assert dataclasses.asdict(built) == {"m": 4, "table": {"n": 3, "rows": table.rows}}


class TestIntegerSizes:
    """A size that is not an int (a float, or a bool) is a ValidationError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: RankSequence(4.0, RankTable(2, ((4, 3), (4,)))),
            lambda: RankSequence(True, RankTable(2, ((1, 1), (1,)))),
            lambda: enumerate_orbits(2.0, 2),
            lambda: enumerate_orbits(2, 2.0),
            lambda: strata_subsets(3.0),
            lambda: strata_subsets(True),
        ],
        ids=[
            "RankSequence-float-m",
            "RankSequence-bool-m",
            "enumerate_orbits-float-m",
            "enumerate_orbits-float-n",
            "strata_subsets-float-n",
            "strata_subsets-bool-n",
        ],
    )
    def test_rejected(self, call):
        with pytest.raises(ValidationError, match="integer"):
            call()


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

    @pytest.mark.parametrize("m", [0, 1, 3, 4, 7, 8])
    def test_packed_leq_is_the_table_order(self, m):
        # m = 2^k - 1 and 2^k are the edges of the field width; the left
        # side is built through __post_init__, the right side enumerated
        for n in range(1, 4 if m > 4 else 5):
            orbits = enumerate_orbits(m, n)
            built = [RankSequence(m, rs.table) for rs in orbits]
            for x, y in itertools.product(built, orbits):
                assert x.leq(y) == x.table.leq(y.table), (x.table, y.table)
                assert y.leq(x) == y.table.leq(x.table), (y.table, x.table)

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
        with pytest.raises(
            GuardExceededError, match="strata for n=4 of size 8 exceeds the guard 7"
        ):
            strata_subsets(4, guard=7)
        with pytest.raises(
            GuardExceededError, match="strata for n=5 of size 16 exceeds the guard 15"
        ):
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
        with pytest.raises(
            GuardExceededError, match=r"strata for n=1000000000 of size at least 2\^999999999 "
        ):
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

    def test_from_rep_needs_one_vertex_dimension(self):
        rep = RepMatrices.from_decomposition(Decomposition.from_intervals(2, [(1, 2), (2, 2)]), QQ)
        assert rep.dims == (1, 2)
        with pytest.raises(ValidationError, match="does not have constant vertex dimension"):
            RankSequence.from_rep(rep)

    def test_rank_sequence_of_random_tuples_matches_the_matrices(self):
        rng = random.Random(11)
        kinds = set()
        for _ in range(2000):
            m, n = rng.randint(1, 5), rng.randint(2, 5)
            zero_sets = []
            for _ in range(n - 1):
                size = rng.choice([0, m, rng.randint(0, m)])
                zero_sets.append(frozenset(rng.sample(range(1, m + 1), size)))
                kinds.add("empty" if size == 0 else "full" if size == m else "partial")
            kinds.update(
                "overlapping" for s, t in itertools.combinations(zero_sets, 2) if s & t and s != t
            )
            J = ProjectionTuple(m, tuple(zero_sets))
            assert J.rank_sequence().table == rank_profile(J.matrices(GF(2))), J
        assert kinds == {"empty", "partial", "full", "overlapping"}

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

    @pytest.mark.parametrize("other", [(2, 3), (3, 2)], ids=["other-m", "other-n"])
    def test_hasse_rejects_orbits_of_different_quivers(self, other):
        orbits = [RankSequence.identity_orbit(3, 3), RankSequence.identity_orbit(*other)]
        with pytest.raises(ValidationError, match="different quivers"):
            hasse_dot(orbits)

    def test_matches_oracle_on_two_digit_entries(self):
        # with entries up to 10 the string order of the names is not the
        # numeric order of the tables, and the edges sort by the names
        orbits = enumerate_orbits(10, 3)
        names = [rs.node_id() for rs in orbits]
        by_table = [rs.node_id() for rs in sorted(orbits, key=lambda rs: rs.table.entries_flat())]
        assert sorted(names) != by_table
        assert hasse_dot(orbits) == hasse_dot_oracle(orbits)

    def test_matches_oracle_on_annotated_closures(self):
        orbits = enumerate_orbits(6, 4)
        rng = random.Random(6)
        dv = DimVector(6, (1, 2, 4, 5))

        def label(rs):
            flags = flat_flags(rs, dv)
            return f"flat,dim={dimension(rs, dv)}" if flags.flat else ""

        for _ in range(10):
            below = []
            while not 0 < len(below) <= 150:
                top = rng.choice(orbits)
                below = [s for s in orbits if degenerates_to(top, s)]
            assert hasse_dot(below, annotate=label) == hasse_dot_oracle(below, annotate=label)

    def test_empty_matches_oracle(self):
        assert hasse_dot([]) == hasse_dot_oracle([]) == "digraph orbits {\n  rankdir=TB;\n}\n"

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


class TestPosetMemory:
    def test_annotated_closures_keep_live_memory_flat(self):
        """40 rounds of annotated closures, each job with a fresh DimVector,
        leave the live memory about where the first round left it: nothing is
        kept per orbit or per DimVector, and the stratum targets' memo is
        bounded.  Its 48 keys (m, d, stratum) take about 11 KB after the
        first round; one tuple of edge ranks cached per orbit adds about
        40 KB more."""
        orbits = enumerate_orbits(5, 4) + enumerate_orbits(6, 4)
        names = {rs.node_id() for rs in orbits}  # as a caller that names every orbit first
        rng = random.Random(0)

        def label(rs, dv):
            flags = flat_flags(rs, dv)
            text = "smooth" if is_smooth(rs, dv) else ""
            return f"{text},dim={dimension(rs, dv)}" if flags.flat else text

        def one_round():
            for _ in range(4):
                below = []
                while not 0 < len(below) <= 150:  # the size of a bench job's closure
                    top = rng.choice(orbits)
                    below = [rs for rs in orbits if rs.m == top.m and degenerates_to(top, rs)]
                dv = DimVector(top.m, tuple(sorted(rng.sample(range(1, top.m), 4))))
                dot = hasse_dot(below, annotate=lambda rs: label(rs, dv))
                assert dot.count("[label=") == len(below)

        def live():
            gc.collect()  # also empties the interpreter's free lists
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            one_round()
            first = live()
            for _ in range(39):
                one_round()
            last = live()
        finally:
            tracemalloc.stop()
        assert len(names) == len(orbits)
        assert last - first < 32 * 1024, last - first


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
