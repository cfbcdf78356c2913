"""Acceptance gate: one test per contract item.

Each test checks exact frozen values end to end and, where a wall-clock
budget is part of the contract, asserts it.  Run with ``pytest -v`` to get
one pass/fail line per item.
"""

import time

from lindeg import (
    GF,
    DimVector,
    ProjectionTuple,
    RankSequence,
    RepMatrices,
    classify,
    count_points,
    enumerate_orbits,
    fixed_points,
    flat_flags,
    gaussian_binomial,
    is_smooth,
    sigma_bijection_report,
    singular_model,
    singular_summary,
)
from lindeg.verification import (
    suite_classify_consistency,
    suite_exthom,
    suite_rank_composition,
    suite_roundtrips,
)

FLAG64 = DimVector(6, (1, 4))


def test_c1_two_vertex_showcase_m6():
    # m = 6, two flag steps d = (1, 4): ranks 3..6 are the flat irreducible
    # degenerations, all of dimension 11, the top rank is the only smooth one,
    # and the singular locus is dimension 4 (exact, corank one) at rank 5 and
    # bounded to codimension [3, 7] at ranks 4 and 3, which must contain the
    # true codimensions 5 and 3.
    t0 = time.monotonic()
    for r in range(3, 7):
        report = classify(RankSequence.two_step(6, r), FLAG64)
        assert report.flat_irreducible
        assert report.dimension == 11
        assert report.smooth == (r == 6)
    for r in range(1, 3):
        assert not classify(RankSequence.two_step(6, r), FLAG64).smooth
    model = singular_model(FLAG64, 1)
    assert model.singular_dim == 4
    assert model.singular_codim == 7

    info5 = singular_summary(RankSequence.two_step(6, 5), FLAG64)
    assert info5.kind == "exact"
    assert info5.singular_dim == 4
    assert info5.model == model

    info4 = singular_summary(RankSequence.two_step(6, 4), FLAG64)
    assert info4.kind == "bounded"
    assert (info4.codim_lower, info4.codim_upper) == (3, 7)
    assert info4.codim_lower <= 5 <= info4.codim_upper

    info3 = singular_summary(RankSequence.two_step(6, 3), FLAG64)
    assert info3.codim_lower <= 3 <= info3.codim_upper
    assert time.monotonic() - t0 < 1.0


def test_c2_hom_ext_tables_match_matrix_oracle():
    # 500 random decomposition pairs, realized as matrices in scrambled bases:
    # the interval-table Hom dimension equals the intertwiner kernel dimension
    # and hom - ext equals the Euler form, with no exceptions.
    t0 = time.monotonic()
    res = suite_exthom(seed=0, pairs=500)
    assert res.passed, res.failures[:5]
    assert res.checks == 1000
    assert time.monotonic() - t0 < 30.0


def test_c3_classification_sweep_zero_exceptions():
    # Every realizable orbit with m <= 4, n <= 3 against every valid d:
    # the irreducibility criteria agree, smooth implies irreducible with an
    # empty singular locus, and flat-irreducible implies flat.
    t0 = time.monotonic()
    res = suite_classify_consistency(seed=0)
    assert res.passed, res.failures[:5]
    assert res.failures == ()
    assert res.checks == 397
    assert time.monotonic() - t0 < 60.0


def test_c4_singular_point_bijection_over_f2():
    # Corank-one singular loci, point by point over F_2: the census of
    # singular points equals the model Grassmannian count, the explicit map
    # is a bijection, and the inverse really inverts it at every point.
    t0 = time.monotonic()
    cases = [(3, (1, 2)), (4, (1, 2)), (4, (1, 3))]
    reports = {
        (m, d): sigma_bijection_report(DimVector(m, d), 1, prime=2)
        for m, d in cases
    }
    for key, rep in reports.items():
        assert rep.ok, (key, rep.failures)
        assert rep.singular_count == rep.model_count
    assert reports[(4, (1, 2))].singular_count == 7 == gaussian_binomial(3, 2, 2)
    assert time.monotonic() - t0 < 60.0


def test_c5_point_counts_over_f2():
    # Flag variety of the identity tuple: 21 points over F_2; the full
    # product for the zero tuple: 49; the one-kill projection tuple has 7
    # torus fixed points.
    t0 = time.monotonic()
    dv = DimVector(3, (1, 2))
    f2 = GF(2)
    assert count_points(RepMatrices.identity_tuple(f2, 3, 2), dv) == 21
    assert count_points(RepMatrices.zero_tuple(f2, 3, 2), dv) == 49
    assert len(fixed_points(ProjectionTuple(3, (frozenset({1}),)), dv)) == 7
    assert time.monotonic() - t0 < 10.0


def test_c6_composite_rank_bound_sampling():
    # 1000 random tuples over F_101 with rk f_i >= m - step_i: every
    # composite satisfies rk(f_{b-1} ... f_a) >= m + d_a - d_b.
    t0 = time.monotonic()
    res = suite_rank_composition(seed=0, cases=1000)
    assert res.passed, res.failures[:5]
    # the count follows the random draws, so this pins them
    assert res.checks == 9371
    assert time.monotonic() - t0 < 30.0


def test_c7_round_trips_and_generic_ranks():
    # Orbit <-> decomposition and orbit <-> representative round-trip on
    # every orbit with m <= 3, n <= 4, the generic good construction has
    # exactly the top stratum rank target for every m <= 8 and valid d, and
    # 300 random decompositions survive decomposition -> ranks -> decomposition.
    res = suite_roundtrips(seed=0)
    assert res.passed, res.failures[:5]
    assert res.checks == 1150


def test_c8_unit_step_singular_codim_three():
    # For every d with all steps equal to one and m <= 6, every singular
    # flat-irreducible orbit has exact singular codimension 3, and the
    # corank-one model agrees whenever the summary attaches one.
    for m in range(2, 7):
        for n in range(2, m):
            orbits = enumerate_orbits(m, n)
            for a in range(1, m - n + 1):
                dv = DimVector(m, tuple(range(a, a + n)))
                for rs in orbits:
                    if not flat_flags(rs, dv).flat_irreducible:
                        continue
                    if is_smooth(rs, dv):
                        continue
                    info = singular_summary(rs, dv)
                    assert info.kind == "exact", (m, dv.d, rs.table.entries_flat())
                    assert info.codim_lower == info.codim_upper == 3
                    assert info.singular_dim == info.ambient_dim - 3
                    if info.model is not None:
                        assert info.model == singular_model(dv, info.model.h)
