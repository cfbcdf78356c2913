"""Finite-field point enumeration, tangent analysis and the singular model."""

import itertools
import math
import random
import re
import tracemalloc

import pytest

from lindeg import (
    GF,
    QQ,
    DimVector,
    GuardExceededError,
    Matrix,
    NotIrreducibleError,
    ProjectionTuple,
    RankSequence,
    RepMatrices,
    SubrepPoint,
    Subspace,
    ValidationError,
    analyze_point,
    cell_dimension,
    check_search_space,
    classify,
    classify_matrices,
    count_points,
    dimension,
    enumerate_orbits,
    enumerate_subreps,
    fixed_point_analysis,
    fixed_points,
    flat_flags,
    gaussian_binomial,
    is_well_behaved_matrices,
    rank_profile,
    ranks_from_decomposition,
    representative,
    sigma_bijection_report,
    singular_model,
    singular_model_rep,
    singular_point_census,
    span,
    subspaces_iter,
)
from lindeg import enumeration, linalg, orbits, representations
from lindeg.enumeration import _row_choices
from lindeg.verification import _cell_cases, _conjugate

from oracles import census_oracle, fixed_point_oracle, subreps_oracle

FLAG3 = DimVector(3, (1, 2))


def _record_points(monkeypatch) -> dict:
    """Count each Subspace and SubrepPoint made from now on by class name
    and route: "checked" through __post_init__, "unchecked" through the
    ``_unchecked`` of any lindeg module."""
    made: dict[tuple[str, str], int] = {}

    def record(cls, route):
        made[cls.__name__, route] = made.get((cls.__name__, route), 0) + 1

    for cls in (Subspace, SubrepPoint):
        def checked(obj, cls=cls, post_init=cls.__post_init__):
            record(cls, "checked")
            post_init(obj)

        monkeypatch.setattr(cls, "__post_init__", checked)
    for module in (linalg, representations, orbits, enumeration):
        def unchecked(cls, *values, inner=module._unchecked, **extra):
            if cls in (Subspace, SubrepPoint):
                record(cls, "unchecked")
            return inner(cls, *values, **extra)

        monkeypatch.setattr(module, "_unchecked", unchecked)
    return made


class TestGaussian:
    def test_values(self):
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(3, 2, 2) == 7
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(5, 0, 7) == 1
        assert gaussian_binomial(2, 3, 2) == 0

    def test_symmetry(self):
        for n in range(6):
            for k in range(n + 1):
                for q in (2, 3, 5):
                    assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)

    @pytest.mark.parametrize(
        "args",
        [(3, 1, 1), (3, 1, 0), (3.0, 1, 2), (3, 1.0, 2), (3, 1, 2.0), (True, 1, 2), (3, 1, True)],
        ids=["q-1", "q-0", "float-n", "float-k", "float-q", "bool-n", "bool-q"],
    )
    def test_rejects_what_is_not_a_count(self, args):
        # q = 1 used to divide by zero, and n = 3.0 to return 7.0
        with pytest.raises(ValidationError, match="integers"):
            gaussian_binomial(*args)


class TestSubspacesIter:
    def test_counts_match_gaussian(self):
        for p in (2, 3):
            for m in range(5):
                for k in range(m + 1):
                    pts = list(subspaces_iter(GF(p), m, k))
                    assert len(pts) == gaussian_binomial(m, k, p)
                    assert len(set(pts)) == len(pts)
                    assert all(s.dim == k and s.ambient == m for s in pts)

    def test_coordinate_points_come_first(self):
        pts = list(subspaces_iter(GF(2), 3, 1))
        assert pts[0].basis == ((1, 0, 0),)

    def test_rejects_rationals(self):
        with pytest.raises(ValidationError):
            next(subspaces_iter(QQ, 2, 1))

    @pytest.mark.parametrize("field,ambient,dim", [(QQ, 2, 1), (GF(2), 2, 3)])
    def test_checks_its_input_at_the_call(self, field, ambient, dim):
        # before the first next(), as enumerate_subreps does
        with pytest.raises(ValidationError):
            subspaces_iter(field, ambient, dim)

    @pytest.mark.parametrize("ambient,dim", [(3, True), (2.0, 1), (3, 1.0), ("3", 1)])
    def test_rejects_dimensions_that_are_not_ints(self, ambient, dim):
        # a bool compares as 0 or 1 but is no dimension, and a float is none either
        with pytest.raises(ValidationError, match="integers"):
            subspaces_iter(GF(2), ambient, dim)

    def test_pivot_classes_chain_into_the_walk(self):
        for p in (2, 3):
            for m in range(5):
                for k in range(m + 1):
                    chained = [
                        rows
                        for pivots in itertools.combinations(range(m), k)
                        for rows in itertools.product(*_row_choices(p, m, pivots))
                    ]
                    assert chained == [V.basis for V in subspaces_iter(GF(p), m, k)]

    def test_pivot_class_is_an_affine_cell(self):
        # pivots (0, 2) in F_3^4: free entries (0,1), (0,3), (1,3)
        cls = list(itertools.product(*_row_choices(3, 4, (0, 2))))
        assert len(cls) == 3**3
        assert cls[0] == ((1, 0, 0, 0), (0, 0, 1, 0))
        # each member is already the RREF basis of its span
        assert {span(GF(3), 4, rows).pivots for rows in cls} == {(0, 2)}
        assert all(span(GF(3), 4, rows).basis == rows for rows in cls)


class TestPointStream:
    """enumerate_subreps and the census's cell walk give the points of the
    walk over validated subspaces (``subreps_oracle``), in its order."""

    def test_matches_the_subspace_walk(self):
        """Every orbit representative and one conjugate over F_2 and F_3 with
        m <= 3 and n <= 3, at every target vector, except m = n = 3: its 64
        target vectors per orbit would take this from about 1 s to about 20 s."""
        rng = random.Random(0)
        walks = points = 0
        for p in (2, 3):
            for m, n in itertools.product(range(1, 4), repeat=2):
                if m * n == 9:
                    continue
                for rs in enumerate_orbits(m, n):
                    rep = representative(rs).matrices(GF(p))
                    for M in (rep, _conjugate(rng, rep)):
                        for t in itertools.product(range(m + 1), repeat=n):
                            expected = list(subreps_oracle(M, t))
                            assert list(enumerate_subreps(M, t)) == expected, (p, rs, t)
                            walks += 1
                            points += len(expected)
        assert (walks, points) == (1640, 7288)

    def test_only_the_points_are_built(self, monkeypatch):
        # 25 points of two vertices: one Subspace per vertex of each point,
        # none for the 24 rejected candidates and no image subspace, and
        # none of them checked again, since the walk's rows are RREF already
        rep = ProjectionTuple(3, ({1},)).matrices(GF(2))
        made = _record_points(monkeypatch)
        assert len(list(enumerate_subreps(rep, FLAG3))) == 25
        assert sorted(made.items()) == [
            (("SubrepPoint", "unchecked"), 25), (("Subspace", "unchecked"), 50)
        ]

    def test_no_subspace_is_checked_and_counts_build_none(self, monkeypatch):
        made = _record_points(monkeypatch)
        for m in range(4):
            assert len(list(subspaces_iter(GF(3), m, m // 2))) == gaussian_binomial(m, m // 2, 3)
        assert made == {("Subspace", "unchecked"): 1 + 1 + 4 + 13}
        made.clear()
        assert count_points(ProjectionTuple(3, ({1},)).matrices(GF(2)), FLAG3) == 25
        assert sigma_bijection_report(DimVector(4, (1, 2, 3)), 1, prime=3).ok
        assert made == {}

    def test_streamed_subspaces_pass_the_checked_constructor(self):
        """The walk builds its subspaces unchecked, so each one is rebuilt
        here through Subspace's own check of RREF rows of field elements."""
        rng = random.Random(1)
        spaces = 0
        for p in (2, 3):
            field = GF(p)
            streams = [subspaces_iter(field, m, k) for m in range(5) for k in range(m + 1)]
            for m, n in ((2, 2), (3, 2), (2, 3)):
                for rs in enumerate_orbits(m, n):
                    rep = _conjugate(rng, representative(rs).matrices(field))
                    for t in itertools.product(range(m + 1), repeat=n):
                        streams.append(V for pt in enumerate_subreps(rep, t) for V in pt.spaces)
            for V in itertools.chain.from_iterable(streams):
                assert Subspace(V.field, V.ambient, V.basis, V.pivots) == V
                spaces += 1
        assert spaces == 8852

    def test_vertices_of_different_dimensions(self):
        walks = 0
        for p in (2, 3):
            for n in (2, 3):
                for h in range(1, n):
                    rep = singular_model_rep(GF(p), 3, n, h)
                    for t in itertools.product(*(range(d + 1) for d in rep.dims)):
                        expected = list(subreps_oracle(rep, t))
                        assert list(enumerate_subreps(rep, t)) == expected, (p, n, h, t)
                        walks += 1
        assert walks == 162

    def test_a_cell_is_the_walk_at_its_pivots(self):
        """_cell_rows gives the points whose pivots are the fixed point S,
        the coordinate point first, for every S of every second census case."""
        cells = 0
        for p, rs, dv in _cell_cases(3000)[::2]:
            J = representative(rs)
            oracle = list(subreps_oracle(J.matrices(GF(p)), dv.d))
            for S in fixed_points(J, dv):
                pivots = tuple(tuple(j - 1 for j in S_v) for S_v in S)
                cell = [pt for pt in oracle if tuple(V.pivots for V in pt.spaces) == pivots]
                assert cell[0].coordinates == S
                rows = [tuple(V.basis for V in pt.spaces) for pt in cell]
                assert list(enumeration._cell_rows(J, p, S)) == rows, (p, rs, dv, S)
                cells += 1
        assert cells == 205


class TestCountPoints:
    def test_full_flags_of_identity(self):
        rep = RepMatrices.identity_tuple(GF(2), 3, 2)
        assert count_points(rep, (1, 2)) == 21

    def test_zero_tuple_is_a_product(self):
        rep = RepMatrices.zero_tuple(GF(2), 3, 2)
        assert count_points(rep, (1, 2)) == 49

    def test_product_over_primes(self):
        for p in (2, 3):
            rep = RepMatrices.zero_tuple(GF(p), 3, 2)
            expected = gaussian_binomial(3, 1, p) * gaussian_binomial(3, 2, p)
            assert count_points(rep, (1, 2)) == expected

    def test_point_count_of_product_orbit(self):
        """A zero edge makes the count multiply across the cut."""
        p = 2
        left = ProjectionTuple(3, ({1, 2, 3}, frozenset())).matrices(GF(p))
        whole = count_points(left, (1, 1, 2))
        gr = gaussian_binomial(3, 1, p)
        tail = count_points(
            RepMatrices.identity_tuple(GF(p), 3, 2), (1, 2)
        )
        assert whole == gr * tail

    def test_guard(self):
        rep = RepMatrices.identity_tuple(GF(3), 4, 3)
        with pytest.raises(GuardExceededError):
            count_points(rep, (1, 2, 3), guard=100)
        with pytest.raises(GuardExceededError):
            next(enumerate_subreps(RepMatrices.identity_tuple(GF(3), 4, 2), (1, 2), guard=5))

    def test_sizes_of_64_bits_are_printed_exactly(self):
        # the lower bound 2^4 already exceeds the guard, but 49 is printed
        with pytest.raises(GuardExceededError, match="size 49 "):
            check_search_space(GF(2), (3, 3), (1, 2), guard=1)
        # 2^64 - 1 points, the largest size printed in full
        with pytest.raises(GuardExceededError, match=f"size {2**64 - 1} "):
            check_search_space(GF(2), (64,), (1,), guard=10)
        # the cell bound 2^49 of Gr(1, F_3^50) settles nothing, so the exact
        # size (3^50 - 1)/2 is computed and its bit length printed
        with pytest.raises(GuardExceededError, match=r"at least 2\^78 "):
            check_search_space(GF(3), (50,), (1,), guard=10)

    def test_huge_search_space_skips_the_exact_size(self, monkeypatch):
        """Past 64 bits the bound p^(sum t(m - t)) settles the guard, so the
        exact product of Gaussian binomials is never built."""
        def refuse(*args):
            raise AssertionError("exact search-space size computed")

        monkeypatch.setattr(enumeration, "gaussian_binomial", refuse)
        with pytest.raises(GuardExceededError, match=r"at least 2\^2252999 "):
            check_search_space(GF(2), (3000, 3000), (1, 1500), guard=10)
        with pytest.raises(GuardExceededError, match=r"at least 2\^64 "):
            check_search_space(GF(3), (16, 16), (8, 0), guard=10)

    @pytest.mark.parametrize("targets", [(1.7, 2.2), ("1", "2"), (True, 2), (1, 2.0), 2])
    def test_targets_that_are_not_ints_are_rejected(self, targets):
        # int() would quietly read the first two as (1, 2): rejected instead
        rep = RepMatrices.identity_tuple(GF(2), 3, 2)
        with pytest.raises(ValidationError, match="integers"):
            count_points(rep, targets)
        with pytest.raises(ValidationError, match="integers"):
            enumerate_subreps(rep, targets)

    def test_search_space_needs_one_target_per_dimension(self):
        # zip would drop the second vertex: a search space of 1,023 for 1,023^2
        for dims, targets in (((10, 10), (1,)), ((10,), (1, 1))):
            with pytest.raises(ValidationError, match="targets"):
                check_search_space(GF(2), dims, targets, guard=2000)
        check_search_space(GF(2), (10, 10), (1, 1), guard=1023**2)
        # 3.5 would fail an assertion in gaussian_binomial, and True pass as 1
        for dims, targets in (((3.5,), (1,)), ((3,), (True,))):
            with pytest.raises(ValidationError, match="integers"):
                check_search_space(GF(2), dims, targets, guard=100)

    def test_search_space_needs_no_maps(self):
        # Gr(1, F_2^3) and Gr(2, F_2^3) have 7 points each: 49 candidate pairs
        check_search_space(GF(2), (3, 3), (1, 2), guard=49)
        with pytest.raises(GuardExceededError, match="49"):
            check_search_space(GF(2), (3, 3), (1, 2), guard=48)
        with pytest.raises(ValidationError):
            check_search_space(QQ, (3, 3), (1, 2), guard=49)


class TestFixedPoints:
    def test_identity_full_flag(self):
        J = ProjectionTuple(3, (frozenset(),))
        pts = fixed_points(J, FLAG3)
        assert len(pts) == 6

    def test_single_kill_count(self):
        J = ProjectionTuple(3, ({1},))
        pts = fixed_points(J, FLAG3)
        assert len(pts) == 7
        assert ((1,), (2, 3)) in pts

    def test_matches_coordinate_subreps(self):
        for zero_sets in [({1},), ({2},), ({1, 2},), (frozenset(),)]:
            J = ProjectionTuple(3, zero_sets)
            expected = sorted(fixed_points(J, FLAG3))
            got = sorted(
                pt.coordinates
                for pt in enumerate_subreps(J.matrices(GF(2)), FLAG3)
                if pt.coordinates is not None
            )
            assert got == expected

    def test_multiplicative_across_cuts(self):
        J = ProjectionTuple(3, ({1, 2, 3},))
        assert len(fixed_points(J, FLAG3)) == 3 * 3

    def test_guard_checks_the_bound_in_advance(self):
        # the bound is prod_v C(m, d_v) = C(3, 1) * C(3, 2) = 9, above the 7 points
        J = ProjectionTuple(3, ({1},))
        assert len(fixed_points(J, FLAG3, guard=9)) == 7
        with pytest.raises(GuardExceededError, match="9"):
            fixed_points(J, FLAG3, guard=8)

    @pytest.mark.parametrize("m,d,k", [(300000, (1, 150000), 150018), (10**3000, (1, 2), 29893)])
    def test_huge_search_space_skips_the_exact_size(self, monkeypatch, m, d, k):
        # C(m, t) >= (m/t)^t settles the guard; the exact product has more
        # digits than Python prints
        def refuse(*args):
            raise AssertionError("exact size computed")

        monkeypatch.setattr(enumeration.math, "comb", refuse)
        J = ProjectionTuple(m, (frozenset(),))
        with pytest.raises(GuardExceededError, match=rf"at least 2\^{k} "):
            fixed_points(J, DimVector(m, d))


def from_coordinates(J, fixed):
    """``SubrepPoint.from_coordinates`` on the vertex spaces of J, checked
    like a fixed point of J."""
    return SubrepPoint.from_coordinates(GF(2), (J.m,) * J.n, fixed)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: enumerate_subreps(RepMatrices.identity_tuple(GF(2), 3, 2), (1,)),
         "need one target dimension per vertex"),
        (lambda: enumerate_subreps(RepMatrices.identity_tuple(GF(2), 3, 2), (1, 4)),
         "target dimension 4 out of range 0..3"),
        (lambda: fixed_points(ProjectionTuple(3, ({1},)), DimVector(4, (1, 2))),
         "projection tuple and dimension vector do not match"),
        (lambda: singular_model_rep(GF(2), 3, 2, 2), "edge index h=2 out of range 1..1"),
    ],
    ids=["target-count", "target-range", "fixed-points-shape", "model-edge"],
)
def test_malformed_arguments_are_rejected(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


class TestCellDimension:
    def test_full_flags_are_bruhat_cells(self):
        J = ProjectionTuple(3, (frozenset(),))
        dims = sorted(cell_dimension(J, S) for S in fixed_points(J, FLAG3))
        assert dims == [0, 1, 1, 2, 2, 3]

    def test_cells_of_smooth_varieties_count_the_points(self):
        cases = [
            (ProjectionTuple(3, (frozenset(),)), FLAG3),
            (ProjectionTuple(3, ({1, 2, 3},)), FLAG3),
            (ProjectionTuple(4, (frozenset(), {1, 2, 3, 4})), DimVector(4, (1, 2, 3))),
        ]
        for J, dv in cases:
            for p in (2, 3):
                cells = sum(p ** cell_dimension(J, S) for S in fixed_points(J, dv))
                assert cells == count_points(J.matrices(GF(p)), dv)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            cell_dimension(ProjectionTuple(3, (frozenset(),)), [(1,)])

    @pytest.mark.parametrize("route", [cell_dimension, fixed_point_analysis, from_coordinates])
    @pytest.mark.parametrize("index", [0, 4, "1", True])
    def test_rejects_an_index_outside_the_coordinates(self, route, index):
        with pytest.raises(ValidationError, match="outside 1..3"):
            route(ProjectionTuple(3, (frozenset(),)), [(index,), (2, 3)])

    @pytest.mark.parametrize("route", [cell_dimension, fixed_point_analysis, from_coordinates])
    @pytest.mark.parametrize(
        "fixed,message",
        [
            ([(1, 1), (2, 3)], "index 1 repeats at vertex 1"),
            ([(1,), (1, 1)], "index 1 repeats at vertex 2"),
        ],
    )
    def test_rejects_a_repeated_index(self, route, fixed, message):
        # a repeated index would be read as one coordinate of a smaller S_v
        with pytest.raises(ValidationError, match=message):
            route(ProjectionTuple(3, (frozenset(),)), fixed)

    @pytest.mark.parametrize("route", [cell_dimension, fixed_point_analysis])
    def test_rejects_a_chain_that_is_not_a_subrepresentation(self, route):
        # the identity keeps coordinate 1, which {2, 3} does not contain;
        # killing it at the edge makes the same subsets a fixed point
        with pytest.raises(ValidationError, match="not a fixed point"):
            route(ProjectionTuple(3, (frozenset(),)), [(1,), (2, 3)])
        route(ProjectionTuple(3, ({1},)), [(1,), (2, 3)])


class TestAnalyzePoint:
    def test_smooth_point(self):
        J = ProjectionTuple(3, ({1},))
        rep = J.matrices(GF(2))
        dim = dimension(J.rank_sequence(), FLAG3)
        pts = list(enumerate_subreps(rep, FLAG3))
        analyses = [analyze_point(rep, pt) for pt in pts]
        assert sum(1 for a in analyses if a.tangent_dim > dim) == 1
        smooth = [a for a in analyses if not a.tangent_dim > dim]
        assert all(a.tangent_dim == 3 for a in smooth)

    def test_tangent_jump_at_singular_point(self):
        J = ProjectionTuple(3, ({1},))
        rep = J.matrices(GF(2))
        dim = dimension(J.rank_sequence(), FLAG3)
        singular = [
            a for pt in enumerate_subreps(rep, FLAG3)
            if (a := analyze_point(rep, pt)).tangent_dim > dim
        ]
        assert len(singular) == 1
        assert singular[0].tangent_dim == 4
        assert singular[0].ext == 1

    def test_fixed_points_from_strands_match_the_matrices(self):
        """fixed_point_analysis against analyze_point at every fixed point of
        every orbit with m <= 4 and n <= 3, over F_2."""
        points = 0
        for m in range(2, 5):
            for n in (2, 3):
                for rs in enumerate_orbits(m, n):
                    J = representative(rs)
                    rep = J.matrices(GF(2))
                    for d in itertools.combinations(range(1, m), n):
                        for S in fixed_points(J, DimVector(m, d)):
                            point = SubrepPoint.from_coordinates(GF(2), rep.dims, S)
                            assert fixed_point_analysis(J, S) == analyze_point(rep, point), (
                                rs, d, S,
                            )
                            points += 1
        assert points == 2170

    def test_fixed_points_by_type_match_the_strand_oracle(self):
        """fixed_point_analysis and cell_dimension against one pair of strands
        per coordinate at 3,000 seeded random fixed points with 5 <= m <= 8
        and n <= 4, where many coordinates share a type."""
        rng = random.Random(0)
        for _ in range(3000):
            m, n = rng.randint(5, 8), rng.randint(1, 4)
            coords = range(1, m + 1)
            d = sorted(rng.sample(range(1, m), n))
            J = ProjectionTuple(m, [rng.sample(coords, rng.randint(0, m)) for _ in range(n - 1)])
            chain = [set(rng.sample(coords, d[0]))]
            for v in range(1, n):
                # S_v minus the zero set of edge v must stay inside S_{v+1}
                kept = chain[-1] - J.zero_sets[v - 1]
                free = [i for i in coords if i not in kept]
                chain.append(kept | set(rng.sample(free, d[v] - len(kept))))
            S = [tuple(sorted(members)) for members in chain]
            analysis, c = fixed_point_oracle(J, S)
            assert fixed_point_analysis(J, S) == analysis, (J, S)
            assert cell_dimension(J, S) == c, (J, S)

    def test_a_fixed_point_keeps_no_columns_per_pair_of_vertices(self):
        """At m = 600 on 40 vertices (780 pairs a < b, 30 coordinates killed
        per edge) fixed_point_analysis matches the strand oracle with a
        traced peak under 4 MB (1.1 MB on CPython 3.11); tuples of the killed
        and the kept columns of each pair would hold 780 * 600 = 468,000
        entries.  Here most coordinates have a type of their own, and
        cell_dimension matches the oracle too."""
        rng = random.Random(1)
        m, n = 600, 40
        J = ProjectionTuple(m, [rng.sample(range(1, m + 1), 30) for _ in range(n - 1)])
        S = [tuple(range(1, 300 + v + 1)) for v in range(n)]
        tracemalloc.start()
        try:
            analysis = fixed_point_analysis(J, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (analysis, cell_dimension(J, S)) == fixed_point_oracle(J, S)
        assert peak < 4 * 2**20, peak

    def test_rows_give_the_analysis_of_the_matrices(self):
        """_PointTables.row_analysis against analyze_point at every point of
        every orbit, reducible ones included: F_2 with m <= 4 and F_3 with
        m <= 3, n <= 3, search space at most 1000 (the full flags of F_2^4
        have 7875)."""
        points = 0
        for p, top in ((2, 4), (3, 3)):
            for m in range(2, top + 1):
                for n in (1, 2, 3):
                    for d in itertools.combinations(range(1, m), n):
                        if math.prod(gaussian_binomial(m, x, p) for x in d) > 1000:
                            continue
                        for rs in enumerate_orbits(m, n):
                            J = representative(rs)
                            rep = J.matrices(GF(p))
                            for point in enumerate_subreps(rep, DimVector(m, d)):
                                rows = [space.basis for space in point.spaces]
                                assert enumeration._PointTables(J).row_analysis(
                                    rows, p
                                ) == analyze_point(rep, point), (rs, d, point)
                                points += 1
        assert points == 3849

    def test_ext_alone_does_not_decide_singularity(self):
        """The zero tuple is a smooth product P^2 x P^2: every point has an
        unobstructed cross-segment extension class, yet its tangent space
        has exactly the dimension of the variety."""
        rep = RepMatrices.zero_tuple(GF(2), 3, 2)
        dim = dimension(RankSequence.zero_orbit(3, 2), FLAG3)
        assert dim == 4
        analyses = [analyze_point(rep, pt) for pt in enumerate_subreps(rep, FLAG3)]
        assert len(analyses) == 49
        assert all(a.ext >= 1 for a in analyses)
        assert all(a.tangent_dim == dim for a in analyses)
        assert singular_point_census(rep, FLAG3).singular == 0


@pytest.mark.parametrize(
    "entry", [classify_matrices, is_well_behaved_matrices, enumerate_subreps, singular_point_census]
)
@pytest.mark.parametrize(
    "rep",
    [
        RepMatrices(GF(2), (3, 2), (Matrix.zeros(GF(2), 2, 3),)),
        RepMatrices.identity_tuple(GF(2), 3, 3),
    ],
    ids=["vertex-of-dimension-2", "three-vertices"],
)
def test_a_tuple_that_does_not_act_on_fm_is_rejected_alike(entry, rep):
    """Every entry point that takes a tuple of endomorphisms of F^m and a
    dimension vector rejects a wrong vertex dimension and a wrong number of
    vertices with one message."""
    with pytest.raises(ValidationError) as exc:
        entry(rep, FLAG3)
    assert str(exc.value) == "representation does not act on F^m at every vertex"


class TestCensus:
    def test_identity_census(self):
        rep = RepMatrices.identity_tuple(GF(2), 3, 2)
        census = singular_point_census(rep, FLAG3)
        assert census.total == 21
        assert census.singular == 0

    def test_corank_one_census(self):
        J = ProjectionTuple(3, ({1},))
        census = singular_point_census(J.matrices(GF(2)), FLAG3)
        assert census.total == 25
        assert census.singular == 1
        assert census.smooth == 24

    def test_zero_tuple_census_is_smooth(self):
        rep = RepMatrices.zero_tuple(GF(2), 3, 2)
        census = singular_point_census(rep, FLAG3)
        assert census.total == 49
        assert census.singular == 0

    def test_needs_irreducible(self):
        J = ProjectionTuple(3, ({1, 2},))
        with pytest.raises(NotIrreducibleError):
            singular_point_census(J.matrices(GF(2)), FLAG3)

    def test_smoothness_criterion_pointwise(self):
        """Over F_2 an irreducible orbit has a singular point exactly when

        some rank sits strictly between 0 and m.  Singularity of a point is
        tangent dimension versus the product dimension: a raw ext > 0 test
        would misreport smooth products (zero maps always contribute one
        unobstructed extension class between neighboring segments)."""
        for m in range(2, 5):
            for n in (2, 3):
                for d in itertools.combinations(range(1, m), n):
                    dv = DimVector(m, d)
                    for rs in enumerate_orbits(m, n):
                        if not flat_flags(rs, dv).flat_irreducible:
                            continue
                        rep = representative(rs).matrices(GF(2))
                        census = singular_point_census(rep, dv)
                        has_middle_rank = any(0 < r < m for r in rs.edge_ranks())
                        assert (census.singular > 0) == has_middle_rank
                        assert (census.singular == 0) == classify(rs, dv).smooth


class TestCellCensus:
    """singular_point_census counts smooth cells as p^c(S) and walks only the
    cells of singular fixed points; the brute-force walk is the oracle."""

    def test_matches_brute_force(self):
        rng = random.Random(0)
        products = 0
        for p, rs, dv in _cell_cases(3000):
            products += 0 in rs.edge_ranks()
            rep = representative(rs).matrices(GF(p))
            moved = _conjugate(rng, rep)
            expected = census_oracle(moved, dv)
            assert singular_point_census(rep, dv) == expected, (rs, dv, p)
            assert singular_point_census(moved, dv) == expected, (rs, dv, p)
        assert products > 0

    def test_smooth_cells_are_counted_not_analyzed(self, monkeypatch):
        calls = {}

        def count(owner, name, key=None):
            made = calls.setdefault(key or name, [])
            inner = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: made.append(args) or inner(*args))

        for name in ("analyze_point", "decompose_from_ranks"):
            count(enumeration, name)
        count(enumeration._PointTables, "fixed_analysis", "fixed point")
        count(enumeration._PointTables, "row_analysis", "rows")
        count(linalg, "map_subspace")
        count(linalg, "compose")
        points = _record_points(monkeypatch)
        never = ("analyze_point", "map_subspace", "compose")

        def census(rep, dv):
            for made in calls.values():
                made.clear()
            points.clear()
            result = singular_point_census(rep, dv)
            # with two vertices the orbit's rank table needs no product, so
            # a compose call could only come from the cell walk
            assert {name: len(calls[name]) for name in never} == dict.fromkeys(never, 0)
            # and no Subspace or SubrepPoint is made, checked or not
            assert points == {}
            # in these censuses no rank table is decomposed twice
            tables = [args[0] for args in calls["decompose_from_ranks"]]
            assert len(tables) == len(set(tables))
            counts = len(calls["rows"]), len(calls["fixed point"])
            return (result.total, result.singular), *counts

        # one analysis per fixed point, read off its rank tables, gives its
        # smoothness, and its coordinate types give its cell
        assert census(RepMatrices.identity_tuple(GF(2), 3, 2), FLAG3) == ((21, 0), 0, 6)
        # 7 fixed points and nothing more: the singular one is counted from
        # its own analysis, and the other 3 points of its cell tend to smooth
        # fixed points as t -> infinity
        assert census(ProjectionTuple(3, ({1},)).matrices(GF(2)), FLAG3) == ((25, 1), 0, 7)
        # on F_2^4 some points of singular cells tend to singular fixed points
        # as t -> infinity, and only those 4 are analyzed, from their rows
        kill1 = ProjectionTuple(4, ({1},)).matrices(GF(2))
        assert census(kill1, DimVector(4, (1, 2))) == ((133, 7), 4, 15)
        # the 15 fixed points and the 4 cell points meet 4 distinct rank
        # tables between their subs and quotients, each decomposed once
        assert len(calls["decompose_from_ranks"]) == 4

    def test_guard_is_the_search_space(self):
        # Gr(1, F_2^3) x Gr(2, F_2^3): 49 candidate pairs for 25 points
        rep = ProjectionTuple(3, ({1},)).matrices(GF(2))
        assert singular_point_census(rep, FLAG3, guard=49).total == 25
        with pytest.raises(GuardExceededError, match="49"):
            singular_point_census(rep, FLAG3, guard=48)
        reducible = ProjectionTuple(3, ({1, 2},)).matrices(GF(2))
        with pytest.raises(NotIrreducibleError):
            singular_point_census(reducible, FLAG3, guard=1)


class TestSigma:
    def test_grassmannian_example(self):
        report = sigma_bijection_report(DimVector(4, (1, 2)), 1, prime=2)
        assert report.ok, report.failures
        assert report.singular_count == 7
        assert report.model_count == 7
        assert report.model_count == gaussian_binomial(3, 2, 2)

    def test_tiny_example(self):
        report = sigma_bijection_report(FLAG3, 1, prime=2)
        assert report.ok, report.failures
        assert report.singular_count == 1

    def test_middle_edge(self):
        report = sigma_bijection_report(DimVector(4, (1, 2, 3)), 2, prime=2)
        assert report.ok, report.failures
        assert report.singular_count == report.model_count

    def test_first_edge_of_the_full_flag(self):
        for prime, count in ((2, 21), (3, 52)):
            report = sigma_bijection_report(DimVector(4, (1, 2, 3)), 1, prime=prime)
            assert report.ok, report.failures
            assert report.singular_count == report.model_count == count

    def test_points_are_flagged_from_their_rows(self, monkeypatch):
        """sigma reads each ambient point's tangent dimension off the column
        ranks of its RREF bases, as the census does, and analyzes no point
        through matrices."""
        calls = {}
        for name in ("analyze_point", "restrict_rep", "quotient_rep"):
            made, inner = calls.setdefault(name, []), getattr(enumeration, name)

            def counted(*args, made=made, inner=inner):
                made.append(args)
                return inner(*args)

            monkeypatch.setattr(enumeration, name, counted)
        report = sigma_bijection_report(DimVector(4, (1, 2)), 1, prime=3)
        assert report.ok and report.singular_count == 13
        assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(calls, 0)

    def test_forward_map_off_the_singular_locus(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_sigma_forward", lambda m, h, mp: mp)
        report = sigma_bijection_report(FLAG3, 1)
        assert not report.ok
        assert report.failures == (
            "sigma misses the singular locus at model point 1",
            "sigma image has 0 of 1 singular points",
        )

    def test_forward_map_that_collides(self, monkeypatch):
        forward, images = enumeration._sigma_forward, []

        def first_image(m, h, mp):
            images.append(forward(m, h, mp))
            return images[0]

        monkeypatch.setattr(enumeration, "_sigma_forward", first_image)
        report = sigma_bijection_report(DimVector(4, (1, 2)), 1)
        assert "sigma collides at model point 2" in report.failures
        assert not report.ok

    def test_backward_map_that_does_not_invert(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_sigma_backward", lambda p, h, pt: pt)
        report = sigma_bijection_report(FLAG3, 1)
        assert report.failures == ("sigma' does not invert sigma at model point 1",)

    def test_sigma_on_rows_is_the_linear_map_on_subspaces(self):
        """sigma on RREF rows is the embedding x -> (0, x) at h and h + 1 plus
        the line e_1 at h, and sigma' deletes the first coordinate: checked
        on every model point against the same maps applied to subspaces."""
        points = 0
        for p, dv, h in ((2, DimVector(4, (1, 2, 3)), 1), (3, DimVector(4, (1, 2, 3)), 2),
                         (2, DimVector(5, (2, 3)), 1)):
            field, m = GF(p), dv.m
            drop = Matrix.from_rows(field, [[int(j == i + 1) for j in range(m)] for i in range(m - 1)])
            embed = drop.transpose()
            e1 = linalg.coordinate_subspace(field, m, [0])
            model = singular_model(dv, h)
            rep = singular_model_rep(field, m, dv.n, h)
            for pt in enumerate_subreps(rep, model.sub_dims):
                spaces = list(pt.spaces)
                spaces[h - 1] = linalg.span(
                    field, m, linalg.map_subspace(embed, spaces[h - 1]).basis + e1.basis
                )
                spaces[h] = linalg.map_subspace(embed, spaces[h])
                rows = tuple(V.basis for V in pt.spaces)
                forward = enumeration._sigma_forward(m, h, rows)
                assert forward == tuple(V.basis for V in spaces)
                back = [linalg.map_subspace(drop, V) if v in (h - 1, h) else V
                        for v, V in enumerate(spaces)]
                assert enumeration._sigma_backward(p, h, forward) == tuple(V.basis for V in back)
                points += 1
        assert points == 178

    def test_model_matrices_realize_the_model_module(self):
        # every edge h, so each branch of singular_model_rep runs: the deletion
        # into h, the identity inside, the embedding out of h + 1, identities
        cases = 0
        for p in (2, 3):
            for n in range(2, 5):
                for m in range(n + 1, 7):
                    for d in itertools.combinations(range(1, m), n):
                        dv = DimVector(m, d)
                        for h in range(1, n):
                            model = singular_model(dv, h)
                            rep = singular_model_rep(GF(p), m, n, h)
                            assert rep.dims == model.module_dims
                            assert rank_profile(rep) == ranks_from_decomposition(model.module)
                            cases += 1
        assert cases == 136
