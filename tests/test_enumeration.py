"""Finite-field point enumeration, tangent analysis and the singular model."""

import itertools
import random

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
    subspaces_iter,
)
from lindeg import enumeration
from lindeg.enumeration import _pivot_class_iter, _points_with_singularity
from lindeg.verification import _cell_cases, _conjugate

from oracles import census_oracle

FLAG3 = DimVector(3, (1, 2))


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

    def test_pivot_classes_chain_into_the_walk(self):
        for p in (2, 3):
            for m in range(5):
                for k in range(m + 1):
                    chained = [
                        V
                        for pivots in itertools.combinations(range(m), k)
                        for V in _pivot_class_iter(GF(p), m, pivots)
                    ]
                    assert chained == list(subspaces_iter(GF(p), m, k))

    def test_pivot_class_is_an_affine_cell(self):
        # pivots (0, 2) in F_3^4: free entries (0,1), (0,3), (1,3)
        cls = list(_pivot_class_iter(GF(3), 4, (0, 2)))
        assert len(cls) == 3**3
        assert cls[0].basis == ((1, 0, 0, 0), (0, 0, 1, 0))
        assert {V.pivots for V in cls} == {(0, 2)}


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
                if pt.is_coordinate
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

    def test_points_come_in_enumeration_order(self):
        rep = ProjectionTuple(3, ({1},)).matrices(GF(2))
        flagged = list(_points_with_singularity(rep, FLAG3, guard=100))
        assert [point for point, _ in flagged] == list(enumerate_subreps(rep, FLAG3))
        assert sum(is_singular for _, is_singular in flagged) == 1

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
        calls = []
        real = enumeration.analyze_point
        monkeypatch.setattr(
            enumeration, "analyze_point", lambda rep, pt: calls.append(pt) or real(rep, pt)
        )
        census = singular_point_census(RepMatrices.identity_tuple(GF(2), 3, 2), FLAG3)
        assert (census.total, census.singular) == (21, 0)
        assert len(calls) == 6  # one per fixed point
        calls.clear()
        census = singular_point_census(ProjectionTuple(3, ({1},)).matrices(GF(2)), FLAG3)
        assert (census.total, census.singular) == (25, 1)
        # 7 fixed points and nothing more: the singular one is counted from
        # its own analysis, and the other 3 points of its cell tend to smooth
        # fixed points as t -> infinity
        assert len(calls) == 7

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
        report = sigma_bijection_report(DimVector(4, (1, 2, 3)), 1)
        assert report.ok, report.failures
        assert report.singular_count == report.model_count == 21

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
