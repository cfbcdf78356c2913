"""Smoothness, irreducibility, flatness, dimension and singular loci."""

import itertools

import pytest

from lindeg import (
    GF,
    QQ,
    DimVector,
    Interval,
    NotFlatError,
    NotIrreducibleError,
    ProjectionTuple,
    RankSequence,
    RankTable,
    ValidationError,
    analyze_point,
    classify,
    classify_matrices,
    construct_singular_witness,
    degenerates_to,
    dimension,
    enumerate_orbits,
    flat_flags,
    is_irreducible,
    is_smooth,
    is_well_behaved,
    is_well_behaved_matrices,
    ranks_from_decomposition,
    representative,
    single_kill_tuple,
    singular_model,
    singular_summary,
    stratum_rank_targets,
    well_behaved_rep,
)
from oracles import flat_flags_oracle


def _all_dvs(m, n):
    return [DimVector(m, d) for d in itertools.combinations(range(1, m), n)]


FLAG3 = DimVector(3, (1, 2))
FLAG64 = DimVector(6, (1, 4))


class TestSmoothIrreducible:
    def test_identity(self):
        rs = RankSequence.identity_orbit(3, 2)
        assert is_smooth(rs, FLAG3)
        assert is_irreducible(rs, FLAG3)

    def test_zero_orbit_is_smooth_product(self):
        rs = RankSequence.zero_orbit(3, 2)
        assert is_smooth(rs, FLAG3)
        assert is_irreducible(rs, FLAG3)

    def test_corank_vs_step(self):
        # corank 1 vs step 1: irreducible but no longer smooth
        rs = RankSequence.two_step(3, 2)
        assert not is_smooth(rs, FLAG3)
        assert is_irreducible(rs, FLAG3)
        # corank 2 vs step 1: reducible
        assert not is_irreducible(RankSequence.two_step(3, 1), FLAG3)

    def test_rank_sweep_matches_step(self):
        for r in range(7):
            rs = RankSequence.two_step(6, r)
            assert is_irreducible(rs, FLAG64) == (r == 0 or 6 - r <= 3)


class TestFlatFlags:
    def test_flat_but_not_flat_irreducible(self):
        flags = flat_flags(RankSequence.two_step(3, 1), FLAG3)
        assert flags.flat
        assert not flags.flat_irreducible
        assert flags.stratum == ()

    def test_rank_sweep(self):
        # d = (1, 4) on F^6: flat for rank >= 2, flat irreducible for rank >= 3
        for r in range(1, 7):
            flags = flat_flags(RankSequence.two_step(6, r), FLAG64)
            assert flags.flat == (r >= 2)
            assert flags.flat_irreducible == (r >= 3)

    def test_zero_orbit_trivially_flat(self):
        flags = flat_flags(RankSequence.zero_orbit(6, 2), FLAG64)
        assert flags.flat and flags.flat_irreducible
        assert flags.stratum == (1,)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_matches_target_tables(self, m):
        # every orbit, zero maps and product varieties included, against
        # both stratum targets
        for n in range(1, min(m - 1, 4) + 1):
            for rs in enumerate_orbits(m, n):
                for dv in _all_dvs(m, n):
                    assert flat_flags(rs, dv) == flat_flags_oracle(rs, dv), (rs.table, dv)

    def test_mismatched_inputs(self):
        with pytest.raises(ValidationError):
            flat_flags(RankSequence.two_step(4, 2), FLAG3)
        with pytest.raises(ValidationError):
            flat_flags(RankSequence.identity_orbit(3, 3), FLAG3)


class TestDimension:
    def test_identity_gives_flag_dimension(self):
        assert dimension(RankSequence.identity_orbit(3, 2), FLAG3) == 3
        assert dimension(RankSequence.identity_orbit(6, 2), FLAG64) == 11

    def test_zero_orbit_product_of_grassmannians(self):
        assert dimension(RankSequence.zero_orbit(3, 2), FLAG3) == 4
        assert dimension(RankSequence.zero_orbit(6, 2), FLAG64) == 13

    def test_flat_ranks_share_flag_dimension(self):
        for r in range(2, 7):
            assert dimension(RankSequence.two_step(6, r), FLAG64) == 11

    def test_not_flat_raises(self):
        with pytest.raises(NotFlatError):
            dimension(RankSequence.two_step(6, 1), FLAG64)


class TestWellBehaved:
    def test_only_one_orbit_per_flag_data(self):
        for r in range(7):
            assert is_well_behaved(RankSequence.two_step(6, r), FLAG64) == (r == 3)

    def test_model_decomposition_is_well_behaved(self):
        for m in range(2, 7):
            for n in range(2, 4):
                for dv in _all_dvs(m, n):
                    rs = RankSequence(m, ranks_from_decomposition(well_behaved_rep(dv)))
                    assert is_well_behaved(rs, dv)

    def test_matrix_criterion_needs_independent_kernels(self):
        dv = DimVector(4, (1, 2, 3))
        bad = ProjectionTuple(4, ({1}, {1})).matrices(QQ)
        good = ProjectionTuple(4, ({1}, {2})).matrices(QQ)
        assert not is_well_behaved_matrices(bad, dv)
        assert is_well_behaved_matrices(good, dv)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_matches_target_table(self, m):
        for n in range(1, min(m - 1, 4) + 1):
            for rs in enumerate_orbits(m, n):
                for dv in _all_dvs(m, n):
                    target, _ = stratum_rank_targets((), dv)
                    assert is_well_behaved(rs, dv) == (rs.table == target.table)

    def test_matrix_equals_table_criterion(self):
        dv = DimVector(4, (1, 3))
        for r in range(5):
            rs = RankSequence.two_step(4, r)
            rep = representative(rs).matrices(GF(5))
            assert is_well_behaved_matrices(rep, dv) == is_well_behaved(rs, dv)


class TestSingularModel:
    def test_flag_example(self):
        model = singular_model(FLAG64, 1)
        assert model.singular_codim == 7
        assert model.singular_dim == 4
        assert model.module_dims == (5, 5)
        assert model.sub_dims == (0, 4)

    def test_small_example(self):
        model = singular_model(DimVector(4, (1, 2)), 1)
        assert model.singular_codim == 3
        assert model.singular_dim == 2
        assert model.module_dims == (3, 3)
        assert model.sub_dims == (0, 2)

    def test_three_step(self):
        model = singular_model(DimVector(4, (1, 2, 3)), 2)
        assert model.singular_codim == 3
        assert model.singular_dim == 3
        assert model.module_dims == (4, 3, 3)
        assert model.sub_dims == (1, 1, 3)
        assert dict(model.module.items)[Interval(1, 1)] == 1

    def test_consistency_sweep(self):
        """dim + codim must equal the ambient flag dimension everywhere."""
        for m in range(2, 9):
            for n in range(2, 5):
                for dv in _all_dvs(m, n):
                    for h in range(1, n):
                        model = singular_model(dv, h)
                        assert (
                            model.singular_dim + model.singular_codim
                            == dv.flag_dimension()
                        )
                        expected_dims = tuple(
                            m - 1 if v in (h, h + 1) else m for v in range(1, n + 1)
                        )
                        assert model.module_dims == expected_dims

    def test_rejects_bad_edge(self):
        with pytest.raises(ValidationError):
            singular_model(FLAG64, 2)


class TestSingularSummary:
    def test_smooth_orbit_empty(self):
        info = singular_summary(RankSequence.identity_orbit(6, 2), FLAG64)
        assert info.kind == "empty"
        assert info.ambient_dim == 11

    def test_corank_one_exact_with_model(self):
        info = singular_summary(RankSequence.two_step(6, 5), FLAG64)
        assert info.kind == "exact"
        assert info.codim_lower == info.codim_upper == 7
        assert info.singular_dim == 4
        assert info.model is not None and info.model.h == 1
        # one edge of rank m - 1 and every other edge invertible force the
        # single-kill table, so a segment of that shape needs no comparison
        for m in range(1, 7):
            for n in range(2, 5):
                for rs in enumerate_orbits(m, n):
                    low = [i for i, r in enumerate(rs.edge_ranks(), 1) if r < m]
                    if len(low) == 1 and rs.r(low[0], low[0] + 1) == m - 1:
                        assert rs == single_kill_tuple(m, n, low[0]).rank_sequence()

    def test_deeper_ranks_only_bounded(self):
        for r in (3, 4):
            info = singular_summary(RankSequence.two_step(6, r), FLAG64)
            assert info.kind == "bounded"
            assert (info.codim_lower, info.codim_upper) == (3, 7)

    def test_unit_steps_exact_three(self):
        dv = DimVector(4, (1, 2, 3))
        rs = RankSequence(4, RankTable(3, ((4, 3, 2), (4, 3), (4,))))
        info = singular_summary(rs, dv)
        assert info.kind == "exact"
        assert info.codim_lower == info.codim_upper == 3
        assert info.singular_dim == info.ambient_dim - 3

    def test_product_takes_minimum(self):
        # zero first edge, corank one on the unit-step tail: exact codim 3,
        # no model because two segments contribute
        dv = DimVector(4, (1, 2, 3))
        rs = RankSequence(4, RankTable(3, ((4, 0, 0), (4, 3), (4,))))
        info = singular_summary(rs, dv)
        assert info.kind == "exact"
        assert info.codim_lower == 3 and info.model is None
        assert info.ambient_dim == 3 + 5

    def test_three_segments_take_the_minimum(self):
        # segments [1,2], [3], [4,5]: the corank-one model of step 2 gives
        # codim 5, the lone vertex is smooth, corank 2 on step 2 gives 3..5
        dv = DimVector(8, (1, 3, 4, 5, 7))
        every = frozenset(range(1, 9))
        rs = ProjectionTuple(8, ({1}, every, every, {1, 2})).rank_sequence()
        info = singular_summary(rs, dv)
        assert info.kind == "bounded"
        assert (info.codim_lower, info.codim_upper) == (3, 5)
        # Fl(1,3; 8) + Gr(4, 8) + Fl(5,7; 8)
        assert info.ambient_dim == 17 + 16 + 17

    def test_one_vertex_segments(self):
        # a lone middle vertex between two corank-one unit-step segments
        dv = DimVector(6, (1, 2, 3, 4, 5))
        every = frozenset(range(1, 7))
        rs = ProjectionTuple(6, ({1}, every, every, {2})).rank_sequence()
        info = singular_summary(rs, dv)
        assert info.kind == "exact"
        assert info.codim_lower == info.codim_upper == 3 and info.model is None
        assert info.ambient_dim == 9 + 9 + 9
        # only one-vertex segments: a product of Grassmannians, smooth
        info = singular_summary(RankSequence.zero_orbit(4, 3), DimVector(4, (1, 2, 3)))
        assert info.kind == "empty" and info.ambient_dim == 3 + 4 + 3
        info = singular_summary(RankSequence.identity_orbit(5, 1), DimVector(5, (2,)))
        assert info.kind == "empty" and info.ambient_dim == 6

    def test_needs_irreducible(self):
        with pytest.raises(NotIrreducibleError):
            singular_summary(RankSequence.two_step(3, 1), FLAG3)

    def test_deeper_orbits_have_bigger_singular_locus(self):
        """On the exactly-classified family the singular dimension grows as
        the orbit degenerates (verified range; fails for some m >= 7)."""
        for m in range(2, 6):
            for n in (2, 3):
                orbits = enumerate_orbits(m, n)
                for dv in _all_dvs(m, n):
                    exact = []
                    for rs in orbits:
                        if not flat_flags(rs, dv).flat_irreducible:
                            continue
                        info = singular_summary(rs, dv)
                        if info.kind == "exact":
                            exact.append((rs, info.singular_dim))
                    for a, dim_a in exact:
                        for b, dim_b in exact:
                            if degenerates_to(b, a):
                                assert dim_a >= dim_b, (m, dv, a, b)


class TestWitness:
    def test_three_dim_example(self):
        J = ProjectionTuple(3, ({1},))
        pt = construct_singular_witness(J, FLAG3)
        assert pt.coordinates == ((1,), (2, 3))

    def test_four_dim_example(self):
        J = ProjectionTuple(4, ({1},))
        pt = construct_singular_witness(J, DimVector(4, (1, 2)))
        assert pt.coordinates == ((1,), (2, 4))

    def test_witness_is_singular(self):
        for field in (QQ, GF(2)):
            J = ProjectionTuple(3, ({1},))
            pt = construct_singular_witness(J, FLAG3, field)
            analysis = analyze_point(J.matrices(field), pt)
            assert analysis.ext >= 1
            assert analysis.tangent_dim > dimension(J.rank_sequence(), FLAG3)

    def test_witness_is_singular_longer_quiver(self):
        dv = DimVector(4, (1, 2, 3))
        J = ProjectionTuple(4, (frozenset(), {1}))
        pt = construct_singular_witness(J, dv, GF(3))
        analysis = analyze_point(J.matrices(GF(3)), pt)
        assert analysis.tangent_dim > dimension(J.rank_sequence(), dv)

    def test_rejects_zero_map(self):
        J = ProjectionTuple(3, ({1, 2, 3},))
        with pytest.raises(ValidationError):
            construct_singular_witness(J, FLAG3)

    def test_rejects_reducible(self):
        J = ProjectionTuple(3, ({1, 2},))
        with pytest.raises(ValidationError):
            construct_singular_witness(J, FLAG3)

    def test_rejects_smooth(self):
        J = ProjectionTuple(3, (frozenset(),))
        with pytest.raises(ValidationError):
            construct_singular_witness(J, FLAG3)

    def test_needs_first_coordinate_killed(self):
        J = ProjectionTuple(3, ({2},))
        with pytest.raises(ValidationError):
            construct_singular_witness(J, FLAG3)


class TestClassify:
    def test_identity_report(self):
        report = classify(RankSequence.identity_orbit(3, 2), FLAG3)
        assert report.smooth and report.irreducible
        assert report.flat and report.flat_irreducible
        assert not report.well_behaved
        assert report.dimension == 3
        assert report.normal is True
        assert report.regular_in_codim_2 is True
        assert report.singular.kind == "empty"

    def test_well_behaved_orbit_report(self):
        report = classify(RankSequence.two_step(6, 3), FLAG64)
        assert report.well_behaved
        assert not report.smooth
        assert report.dimension == 11
        assert report.singular.kind == "bounded"

    def test_reducible_orbit_leaves_unknowns(self):
        report = classify(RankSequence.two_step(6, 1), FLAG64)
        assert not report.irreducible
        assert report.dimension is None
        assert report.normal is None
        assert report.regular_in_codim_2 is None
        assert report.singular is None

    def test_reads_only_the_orbit_table(self, monkeypatch):
        # no rank table or rank sequence is built past the one given
        orbits = [rs for n in (1, 2, 3) for rs in enumerate_orbits(5, n)]
        built = []

        def counting(cls):
            post_init = cls.__post_init__

            def wrapper(self):
                built.append(cls.__name__)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", wrapper)

        counting(RankTable)
        counting(RankSequence)
        for rs in orbits:
            for dv in _all_dvs(5, rs.n):
                classify(rs, dv)
        assert built == []

    def test_matrices_agree_with_orbit(self):
        rs = RankSequence.two_step(6, 4)
        rep = representative(rs).matrices(GF(7))
        assert classify_matrices(rep, FLAG64) == classify(rs, FLAG64)

    def test_matrices_reject_wrong_shape(self):
        rep = ProjectionTuple(4, ({1},)).matrices(QQ)
        with pytest.raises(ValidationError):
            classify_matrices(rep, FLAG3)
