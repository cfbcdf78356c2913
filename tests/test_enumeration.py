"""Finite-field point enumeration, tangent analysis and the singular model."""

import itertools

import pytest

from lindeg import (
    GF,
    QQ,
    DimVector,
    GuardExceededError,
    NotIrreducibleError,
    ProjectionTuple,
    RankSequence,
    RepMatrices,
    ValidationError,
    analyze_point,
    check_search_space,
    classify,
    count_points,
    dimension,
    enumerate_orbits,
    enumerate_subreps,
    fixed_points,
    flat_flags,
    gaussian_binomial,
    points_with_singularity,
    representative,
    sigma_bijection_report,
    singular_point_census,
    subspaces_iter,
)

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
        flagged = list(points_with_singularity(rep, FLAG3, guard=100))
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


class TestSigma:
    def test_grassmannian_example(self):
        report = sigma_bijection_report(4, DimVector(4, (1, 2)), 1, prime=2)
        assert report.ok, report.failures
        assert report.singular_count == 7
        assert report.model_count == 7
        assert report.model_count == gaussian_binomial(3, 2, 2)

    def test_tiny_example(self):
        report = sigma_bijection_report(3, FLAG3, 1, prime=2)
        assert report.ok, report.failures
        assert report.singular_count == 1

    def test_middle_edge(self):
        report = sigma_bijection_report(4, DimVector(4, (1, 2, 3)), 2, prime=2)
        assert report.ok, report.failures
        assert report.singular_count == report.model_count

    def test_rejects_mismatched_m(self):
        with pytest.raises(ValidationError):
            sigma_bijection_report(5, DimVector(4, (1, 2)), 1)
