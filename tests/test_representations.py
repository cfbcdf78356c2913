"""Interval modules, rank tables, decompositions and their round-trips."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindeg import (
    GF,
    QQ,
    CensusResult,
    Decomposition,
    DimVector,
    Interval,
    Matrix,
    NotRealizableError,
    NotSubrepresentationError,
    ProjectionTuple,
    RankSequence,
    RankTable,
    RepMatrices,
    SubrepPoint,
    ValidationError,
    decompose_from_ranks,
    enumerate_orbits,
    ext_dim,
    ext_dim_intervals,
    euler_form,
    hom_dim,
    hom_dim_intervals,
    intertwiner_space_dim,
    inverse,
    map_subspace,
    quotient_rep,
    rank,
    rank_profile,
    ranks_from_decomposition,
    restrict_rep,
    rref,
    singular_point_census,
    span,
    well_behaved_rep,
)
from oracles import (
    decomposition_oracle,
    multiplicity,
    rank_profile_oracle,
    ranks_oracle,
)


def _all_intervals(n):
    return [Interval(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]


def _random_decomposition(rng, n, max_mult=3):
    counts = {}
    for iv in _all_intervals(n):
        k = rng.randint(0, max_mult)
        if k:
            counts[iv] = k
    if not counts:
        counts[Interval(1, n)] = 1
    return Decomposition.from_multiplicities(n, counts)


class TestIntervalHomExt:
    def test_hom_hand_values(self):
        assert hom_dim_intervals(Interval(1, 2), Interval(1, 1)) == 1
        assert hom_dim_intervals(Interval(1, 1), Interval(1, 2)) == 0
        assert hom_dim_intervals(Interval(2, 2), Interval(1, 2)) == 1
        assert hom_dim_intervals(Interval(1, 3), Interval(2, 2)) == 0
        assert hom_dim_intervals(Interval(2, 3), Interval(1, 2)) == 1

    def test_ext_hand_values(self):
        assert ext_dim_intervals(Interval(1, 1), Interval(2, 2)) == 1
        assert ext_dim_intervals(Interval(2, 2), Interval(1, 1)) == 0
        assert ext_dim_intervals(Interval(1, 2), Interval(2, 3)) == 1
        assert ext_dim_intervals(Interval(2, 3), Interval(1, 2)) == 0
        assert ext_dim_intervals(Interval(1, 1), Interval(2, 3)) == 1
        assert ext_dim_intervals(Interval(1, 2), Interval(3, 3)) == 1

    def test_hom_matches_matrices(self):
        """The combinatorial table equals the intertwiner-equation count."""
        n = 3
        for field in (QQ, GF(2)):
            for x in _all_intervals(n):
                for y in _all_intervals(n):
                    A, B = (
                        RepMatrices.from_decomposition(Decomposition.from_intervals(n, [iv]), field)
                        for iv in (x, y)
                    )
                    got = intertwiner_space_dim(field, A.dims, A.maps, B.dims, B.maps)
                    assert got == hom_dim_intervals(x, y), (x, y, field)

    def test_euler_is_hom_minus_ext(self):
        for n in range(1, 6):
            for x in _all_intervals(n):
                for y in _all_intervals(n):
                    dx = Decomposition.from_intervals(n, [x]).vertex_dims()
                    dy = Decomposition.from_intervals(n, [y]).vertex_dims()
                    assert (
                        hom_dim_intervals(x, y) - ext_dim_intervals(x, y)
                        == euler_form(dx, dy)
                    )

    def test_bilinear_extension(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 4)
            A = _random_decomposition(rng, n)
            B = _random_decomposition(rng, n)
            assert hom_dim(A, B) - ext_dim(A, B) == euler_form(A.vertex_dims(), B.vertex_dims())

    def test_interval_validation(self):
        with pytest.raises(ValidationError):
            Interval(2, 1)
        with pytest.raises(ValidationError):
            Interval(0, 1)


class TestDimVector:
    def test_valid(self):
        dv = DimVector(6, (1, 4))
        assert dv.n == 2
        assert dv.steps() == (3,)
        assert dv.flag_dimension() == 11

    def test_flag_dimension_full_flag(self):
        assert DimVector(3, (1, 2)).flag_dimension() == 3
        assert DimVector(4, (1, 2, 3)).flag_dimension() == 6
        assert DimVector(4, (2,)).flag_dimension() == 4

    def test_rejects_bad_vectors(self):
        for m, d in [(3, (0, 2)), (3, (2, 2)), (3, (2, 1)), (3, (1, 3)), (2, ()), (3, (3,))]:
            with pytest.raises(ValidationError):
                DimVector(m, d)


class TestDecomposition:
    def test_str_and_order(self):
        D = Decomposition.from_intervals(2, [(1, 2), (1, 1), (1, 2)])
        assert str(D) == "U[1,1] + 2*U[1,2]"
        assert D.vertex_dims() == (3, 2)
        assert len(D.summands()) == 3

    def test_rejects_misfit(self):
        with pytest.raises(ValidationError):
            Decomposition.from_intervals(2, [(1, 3)])

    @pytest.mark.parametrize(
        "items,message",
        [
            (((Interval(1, 2), 1), (Interval(1, 1), 1)), "sorted"),
            (((Interval(1, 1), 1), (Interval(1, 1), 2)), "no repeats"),
            (((Interval(1, 1), 0),), "positive"),
            (((Interval(1, 2), 1.5),), "integers"),
            (((Interval(1, 2), True),), "integers"),
            # a list was taken, compared unequal to its tuple form and left
            # the decomposition unhashable; the other shapes below raised
            # AttributeError, ValueError or TypeError
            ([(Interval(1, 2), 1)], "a tuple"),
            (([Interval(1, 2), 1],), "pairs"),
            ((((1, 2), 1),), "pairs"),
            (((Interval(1, 2),),), "pairs"),
            (((Interval(1, 2), 1, 1),), "pairs"),
            ((5,), "pairs"),
        ],
        ids=[
            "unsorted", "repeated", "zero-multiplicity", "float-multiplicity", "bool-multiplicity",
            "list", "list-item", "tuple-interval", "one-part-item", "three-part-item", "int-item",
        ],
    )
    def test_rejects_malformed_items(self, items, message):
        with pytest.raises(ValidationError, match=message):
            Decomposition(2, items)

    def test_from_multiplicities_takes_interval_keys_only(self):
        with pytest.raises(ValidationError, match="keyed by Interval"):
            Decomposition.from_multiplicities(2, {(1, 2): 1})
        with pytest.raises(ValidationError, match="keyed by Interval"):
            Decomposition.from_multiplicities(2, {Interval(1, 1): 1, (1, 2): 1})
        # tuples still go in through from_intervals
        assert Decomposition.from_intervals(2, [(1, 2), (1, 1), (1, 2)]) == Decomposition(
            2, ((Interval(1, 1), 1), (Interval(1, 2), 2))
        )


class TestRankTable:
    def test_boundary_zeros(self):
        t = RankTable(2, ((3, 1), (2,)))
        assert t.r(0, 1) == 0
        assert t.r(1, 3) == 0
        assert t.r(1, 2) == 1
        assert t.vertex_dims() == (3, 2)

    def test_multiplicity_inversion(self):
        t = RankTable(2, ((3, 1), (2,)))
        # strand counts: U[1,1] = 3-1 = 2, U[2,2] = 2-1 = 1, U[1,2] = 1
        assert multiplicity(t, 1, 1) == 2
        assert multiplicity(t, 2, 2) == 1
        assert multiplicity(t, 1, 2) == 1

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            RankTable(2, ((3,), (2,)))
        with pytest.raises(ValidationError):
            RankTable(2, ((3, 1),))

    @pytest.mark.parametrize(
        "rows", [[(3, 2), (3,)], ((3, 2), [3]), ([3, 2], (3,))], ids=["list", "list-row", "list-head"]
    )
    def test_rows_are_a_tuple_of_tuples(self, rows):
        # a list was taken, compared unequal to its tuple form, left the
        # table unhashable and built an orbit unequal to the same orbit
        # built from tuples
        with pytest.raises(ValidationError, match="tuple of tuples"):
            RankTable(2, rows)
        with pytest.raises(ValidationError, match="tuple of tuples"):
            RankSequence(3, RankTable(2, rows))

    @pytest.mark.parametrize("entry", [1.0, "1", None, True])
    def test_rejects_a_non_int_entry(self, entry):
        with pytest.raises(ValidationError, match="integers"):
            RankTable(2, ((3, entry), (2,)))

    @pytest.mark.parametrize(
        "n, rows", [(2.0, ((4, 3), (4,))), (True, ((4,),)), ("2", ((4, 3), (4,)))]
    )
    def test_rejects_a_non_int_length(self, n, rows):
        with pytest.raises(ValidationError, match="integer"):
            RankTable(n, rows)

    def test_leq(self):
        lo = RankTable(2, ((3, 0), (2,)))
        hi = RankTable(2, ((3, 1), (2,)))
        assert lo.leq(hi) and not hi.leq(lo)

    def test_leq_needs_same_shape(self):
        with pytest.raises(ValidationError):
            RankTable(2, ((3, 0), (2,))).leq(RankTable(1, ((3,),)))


class TestRoundTrips:
    def test_decompose_inverts_ranks(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 5)
            D = _random_decomposition(rng, n)
            assert decompose_from_ranks(ranks_from_decomposition(D)) == D

    def test_matrix_realization_has_the_ranks(self):
        rng = random.Random(9)
        for field in (QQ, GF(2), GF(5)):
            for _ in range(15):
                n = rng.randint(2, 4)
                D = _random_decomposition(rng, n, max_mult=2)
                rep = RepMatrices.from_decomposition(D, field)
                assert rank_profile(rep) == ranks_from_decomposition(D)

    def test_not_realizable_reports_entry(self):
        table = RankTable(2, ((0, 1), (1,)))
        with pytest.raises(NotRealizableError) as exc:
            decompose_from_ranks(table)
        assert exc.value.offending == ((1, 1, -1),)

    @staticmethod
    def _second_differences(table):
        """The decomposition or the offending entries, from ``multiplicity``."""
        n = table.n
        ks = {(a, b): multiplicity(table, a, b) for a in range(1, n + 1) for b in range(a, n + 1)}
        offending = [(a, b, k) for (a, b), k in ks.items() if k < 0]
        if offending:
            return offending
        return Decomposition.from_multiplicities(n, {Interval(a, b): k for (a, b), k in ks.items()})

    def test_conversions_match_the_formulas_on_random_decompositions(self):
        rng = random.Random(24)
        for _ in range(300):
            n = rng.randint(1, 6)
            D = _random_decomposition(rng, n, max_mult=rng.choice([1, 3, 50]))
            table = ranks_from_decomposition(D)
            assert table == ranks_oracle(D)
            assert decompose_from_ranks(table) == self._second_differences(table) == D

    def test_conversions_match_the_formulas_on_every_small_orbit(self):
        for m in range(6):
            for n in range(1, 5):
                for rs in enumerate_orbits(m, n):
                    D = decompose_from_ranks(rs.table)
                    assert D == self._second_differences(rs.table)
                    assert ranks_from_decomposition(D) == ranks_oracle(D) == rs.table

    def test_unrealizable_tables_report_every_negative_entry_in_order(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 5)
            table = RankTable(
                n, tuple(tuple(rng.randint(-2, 6) for _ in range(n - a)) for a in range(n))
            )
            want = self._second_differences(table)
            if isinstance(want, Decomposition):
                assert decompose_from_ranks(table) == want
                continue
            with pytest.raises(NotRealizableError) as exc:
                decompose_from_ranks(table)
            assert exc.value.offending == tuple(want)

    def test_not_realizable_message(self):
        with pytest.raises(NotRealizableError) as exc:
            decompose_from_ranks(RankTable(3, ((4, 3, 4), (4, 3), (4,))))
        assert str(exc.value) == (
            "rank table is not realizable; negative multiplicities at U[1,2] -> -1, U[2,3] -> -1"
        )
        assert exc.value.offending == ((1, 2, -1), (2, 3, -1))

    def test_decomposition_oracle_agrees(self):
        """Cross-check against the hom-counting linear system."""
        rng = random.Random(17)
        for field in (QQ, GF(3)):
            for _ in range(8):
                n = rng.randint(2, 4)
                D = _random_decomposition(rng, n, max_mult=2)
                rep = RepMatrices.from_decomposition(D, field)
                assert decomposition_oracle(rep) == D


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.data())
def test_ranks_from_decomposition_counts_the_summands(n, data):
    """The cumulative sums agree with counting the summands at every entry."""
    size = n * (n + 1) // 2
    mults = data.draw(st.lists(st.integers(0, 50), min_size=size, max_size=size))
    D = Decomposition.from_multiplicities(n, dict(zip(_all_intervals(n), mults)))
    assert ranks_from_decomposition(D) == ranks_oracle(D)


def _draw_map(data, field, rows, cols):
    """A rows x cols matrix over the field: zero, of bounded rank (a product
    through a thinner space), or with small random entries."""
    p = field.characteristic
    entry = st.integers(0, p - 1) if p else st.fractions(-3, 3, max_denominator=3)

    def matrix(r, c):
        row = st.lists(entry, min_size=c, max_size=c)
        return Matrix.from_rows(field, data.draw(st.lists(row, min_size=r, max_size=r)), ncols=c)

    kind = data.draw(st.sampled_from(["zero", "thin", "dense"]))
    if kind == "zero":
        return Matrix.zeros(field, rows, cols)
    if kind == "thin":
        k = data.draw(st.integers(0, min(rows, cols)))
        return matrix(rows, k) @ matrix(k, cols)
    return matrix(rows, cols)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([GF(2), GF(101), QQ]),
    st.lists(st.integers(0, 4), min_size=1, max_size=5),
    st.data(),
)
def test_rank_profile_matches_multiplied_composites(field, dims, data):
    """Image tracking agrees with multiplying every composite out, on the
    shapes ``restrict_rep`` and ``quotient_rep`` make: vertex dimensions that
    vary and may be 0, and zero maps."""
    maps = tuple(_draw_map(data, field, b, a) for a, b in zip(dims, dims[1:]))
    rep = RepMatrices(field, tuple(dims), maps)
    assert rank_profile(rep) == rank_profile_oracle(rep)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([GF(2), GF(101), QQ]), st.integers(0, 3), st.integers(0, 3), st.data())
def test_library_built_matrices_pass_the_public_check(field, k, n, data):
    """The library builds these matrices from field elements without the
    element check; rebuilt through ``Matrix(...)``, each passes it and
    equals itself."""
    f = _draw_map(data, field, n, k)  # from_rows, zeros or a product
    g = _draw_map(data, field, k, data.draw(st.integers(0, 3)))
    V = span(field, k, _draw_map(data, field, data.draw(st.integers(0, 2)), k).entries)
    W = span(field, n, map_subspace(f, V).basis + _draw_map(data, field, 1, n).entries)
    rep = RepMatrices(field, (k, n), (f,))
    killed = {i for i in range(n) if data.draw(st.booleans())}
    built = [
        f,
        f.transpose(),
        f @ g,
        rref(f)[0],
        Matrix.zeros(field, n, k),
        Matrix.identity(field, n),
        Matrix.projection(field, n, killed),
        Matrix.from_rows(field, [[3, -1]] * n, ncols=2),
        *restrict_rep(rep, (V, W)).maps,
        *quotient_rep(rep, (V, W)).maps,
    ]
    if n == k == rank(f):
        built.append(inverse(f))
    for M in built:
        assert Matrix(M.field, M.nrows, M.ncols, M.entries) == M


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.data())
def test_rank_profile_weakly_decreasing(n, data):
    """Extending the composition window can only lower the rank."""
    counts = {
        iv: data.draw(st.integers(0, 2), label=str(iv)) for iv in _all_intervals(n)
    }
    counts[Interval(1, n)] = counts.get(Interval(1, n), 0) + 1
    D = Decomposition.from_multiplicities(n, counts)
    t = ranks_from_decomposition(D)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if a > 1:
                assert t.r(a - 1, b) <= t.r(a, b)
            if b < n:
                assert t.r(a, b + 1) <= t.r(a, b)


class TestRepMatrices:
    def test_lists_are_stored_as_tuples(self):
        # list dims used to fail check_endomorphisms' comparison with a
        # tuple, and make the representation unhashable
        field = GF(2)
        rep = RepMatrices(field, [3, 3], [Matrix.identity(field, 3)])
        same = RepMatrices.identity_tuple(field, 3, 2)
        assert type(rep.dims) is type(rep.maps) is tuple
        assert rep == same and hash(rep) == hash(same)
        assert singular_point_census(rep, DimVector(3, (1, 2))) == CensusResult(21, 0, 21)


class TestWellBehaved:
    def test_flag_example(self):
        D = well_behaved_rep(DimVector(6, (1, 4)))
        assert D == Decomposition.from_multiplicities(
            2, {Interval(1, 1): 3, Interval(1, 2): 3, Interval(2, 2): 3}
        )

    def test_constant_vertex_dimension(self):
        for m in range(2, 7):
            for n in range(2, 4):
                for d in itertools.combinations(range(1, m), n):
                    D = well_behaved_rep(DimVector(m, d))
                    assert D.vertex_dims() == (m,) * n


class TestSubrep:
    def test_restrict_and_quotient(self):
        rep = RepMatrices.identity_tuple(QQ, 2, 2)
        spaces = (span(QQ, 2, [[1, 0]]), span(QQ, 2, [[1, 0]]))
        sub = restrict_rep(rep, spaces)
        quo = quotient_rep(rep, spaces)
        assert sub.dims == (1, 1) and quo.dims == (1, 1)
        assert rank_profile(sub).r(1, 2) == 1
        assert rank_profile(quo).r(1, 2) == 1

    @staticmethod
    def _random_point(rng, field):
        """A random representation and a point of one of its quiver
        Grassmannians: each subspace is the image of the one before plus
        zero or more random vectors, so zero-dimensional subspaces occur."""
        n = rng.randint(2, 4)
        dims = [rng.randint(0, 4) for _ in range(n)]

        def entry():
            return rng.randint(-2, 2)

        maps = [
            Matrix.from_rows(field, [[entry() for _ in range(a)] for _ in range(b)], ncols=a)
            for a, b in zip(dims, dims[1:])
        ]
        rep = RepMatrices(field, tuple(dims), tuple(maps))
        spaces = []
        for v, amb in enumerate(dims):
            V = span(field, amb, [[entry() for _ in range(amb)] for _ in range(rng.randint(0, 2))])
            if v:
                V = span(field, amb, V.basis + map_subspace(maps[v - 1], spaces[-1]).basis)
            spaces.append(V)
        return rep, spaces

    def test_maps_entry_by_entry(self):
        rng = random.Random(31)
        empty = 0
        for field in (QQ, GF(2), GF(3)):
            p = field.characteristic
            in_field = (
                (lambda x: type(x) is int and 0 <= x < p) if p else (lambda x: type(x) is Fraction)
            )
            for _ in range(150):
                rep, spaces = self._random_point(rng, field)
                empty += any(V.dim == 0 for V in spaces)
                sub, quo = restrict_rep(rep, spaces), quotient_rep(rep, spaces)
                for i, f in enumerate(rep.maps):
                    src, tgt = spaces[i], spaces[i + 1]
                    M, Q = sub.maps[i], quo.maps[i]
                    assert all(in_field(x) for row in M.entries + Q.entries for x in row)

                    def f_of(v):
                        return [field.coerce(sum(a * b for a, b in zip(row, v))) for row in f.entries]

                    # f(b_j) = sum_r M[r][j] * tgt.basis[r]
                    for j, b in enumerate(src.basis):
                        combo = [
                            field.coerce(sum(M.entries[r][j] * w[k] for r, w in enumerate(tgt.basis)))
                            for k in range(tgt.ambient)
                        ]
                        assert combo == f_of(b)
                    # e_j goes to f(e_j) reduced mod L, read on the complement
                    src_comp, tgt_comp = src.complement_positions(), tgt.complement_positions()
                    for jj, j in enumerate(src_comp):
                        e = [0] * src.ambient
                        e[j] = 1
                        y = f_of(e)
                        # the RREF rule: subtract y[pivot] times each basis row
                        residue = [
                            field.coerce(x - sum(y[c] * w[k] for w, c in zip(tgt.basis, tgt.pivots)))
                            for k, x in enumerate(y)
                        ]
                        assert [Q.entries[r][jj] for r in range(len(tgt_comp))] == [
                            residue[c] for c in tgt_comp
                        ]
        assert empty > 50

    def test_rejects_non_invariant(self):
        rep = RepMatrices.identity_tuple(QQ, 2, 2)
        spaces = (span(QQ, 2, [[1, 0]]), span(QQ, 2, [[0, 1]]))
        with pytest.raises(NotSubrepresentationError):
            restrict_rep(rep, spaces)

    def test_zero_map_allows_anything(self):
        rep = RepMatrices.zero_tuple(GF(2), 2, 2)
        spaces = (span(GF(2), 2, [[1, 1]]), span(GF(2), 2, [[0, 1]]))
        sub = restrict_rep(rep, spaces)
        assert rank_profile(sub).r(1, 2) == 0


class TestSubrepPoint:
    def test_from_coordinates(self):
        pt = SubrepPoint.from_coordinates(GF(2), (3, 3), [(1,), (1, 3)])
        assert pt.coordinates is not None
        assert tuple(s.dim for s in pt.spaces) == (1, 2)
        assert pt.coordinates == ((1,), (1, 3))

    def test_coordinates_are_derived_from_spaces(self):
        spaces = (span(QQ, 3, [[1, 0, 0], [0, 0, 1]]),)
        pt = SubrepPoint(spaces)
        assert pt.coordinates == ((1, 3),)
        skew = (span(QQ, 3, [[1, 1, 0]]),)
        assert SubrepPoint(skew).coordinates is None

    def test_coordinate_point_equals_point_of_its_spaces(self):
        pt = SubrepPoint.from_coordinates(GF(2), (3, 3), [(1,), (1, 3)])
        same = SubrepPoint(pt.spaces)
        assert pt == same
        assert hash(pt) == hash(same)
        assert same.coordinates is not None
        assert same.coordinates == ((1,), (1, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            SubrepPoint.from_coordinates(QQ, (2,), [(3,)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: DimVector(3, (True, 2)),
        lambda: DimVector(3.0, (1, 2)),
        lambda: DimVector(3, ("1", 2)),
        lambda: Interval(True, 2),
        lambda: Interval("1", 2),
        lambda: ProjectionTuple(3, ({True},)),
        lambda: ProjectionTuple(3.0, ({1},)),
        lambda: RepMatrices(GF(2), ("a",), ()),
        lambda: RepMatrices(GF(2), (True,), ()),
        lambda: RepMatrices(GF(2), (1.0,), ()),
        lambda: Decomposition(2.0, ()),
        # int(k) read these as 1; a multiplicity of 1.5 reached hom_dim
        lambda: Decomposition.from_multiplicities(2, {Interval(1, 2): 1.5}),
        lambda: Decomposition.from_multiplicities(2, {Interval(1, 2): True}),
        lambda: Decomposition.from_multiplicities(2, {Interval(1, 2): 0.0}),
    ],
    ids=[
        "dim-vector-bool", "dim-vector-float-m", "dim-vector-str", "interval-bool",
        "interval-str", "zero-set-bool", "projection-float-m", "rep-dims-str", "rep-dims-bool",
        "rep-dims-float", "decomposition-float-n", "multiplicity-float", "multiplicity-bool",
        "multiplicity-float-zero",
    ],
)
def test_constructors_reject_what_is_not_an_int(build):
    """A bool is an int to Python (True == 1), but not a dimension or an
    index, nor is a float or a string.  Rank tables and coordinate points
    take the same cases in their own tests."""
    with pytest.raises(ValidationError):
        build()


def _line(field, ambient):
    """The span of the first standard basis vector of field^ambient."""
    return span(field, ambient, [[1] + [0] * (ambient - 1)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: euler_form((1,), (1, 2)), ValidationError,
         "dimension vectors have different lengths"),
        (lambda: hom_dim(Decomposition(1, ()), Decomposition(2, ())), ValidationError,
         "decompositions have different quiver lengths"),
        (lambda: ext_dim(Decomposition(1, ()), Decomposition(2, ())), ValidationError,
         "decompositions have different quiver lengths"),
        (lambda: RankTable(2, ((3, 1), (2,))).r(2, 1), ValidationError,
         "rank table entry (2, 1) needs a <= b"),
        (lambda: RepMatrices(GF(2), (), ()), ValidationError,
         "representation needs at least one vertex"),
        (lambda: Decomposition(-1, ()), ValidationError,
         "quiver length must be an integer >= 0, got -1"),
        (lambda: RepMatrices(GF(2), (-1,), ()), ValidationError,
         "vertex dimensions must be integers >= 0, got (-1,)"),
        (lambda: RepMatrices(GF(2), (1, 1), ()), ValidationError,
         "need exactly n-1 maps for n vertices"),
        (lambda: RepMatrices(GF(2), (1, 1), (Matrix.identity(GF(3), 1),)), ValidationError,
         "map fields disagree with representation field"),
        (lambda: RepMatrices(GF(2), (1, 1), (Matrix.zeros(GF(2), 2, 1),)), ValidationError,
         "map 1 has shape (2, 1), expected (1, 1)"),
        (lambda: SubrepPoint(()), ValidationError, "a point needs at least one vertex"),
        (lambda: SubrepPoint.from_coordinates(GF(2), (3,), [(1,), (2,)]), ValidationError,
         "need one index subset per vertex"),
        (lambda: restrict_rep(RepMatrices.identity_tuple(GF(2), 2, 2), (_line(GF(2), 2),)),
         NotSubrepresentationError, "need one subspace per vertex"),
        (lambda: restrict_rep(RepMatrices.identity_tuple(GF(2), 2, 1), (_line(GF(3), 2),)),
         NotSubrepresentationError, "subspace field differs from representation field"),
        (lambda: restrict_rep(RepMatrices.identity_tuple(GF(2), 2, 1), (_line(GF(2), 3),)),
         NotSubrepresentationError, "subspace at vertex 1 lives in dimension 3, expected 2"),
    ],
    ids=[
        "euler-lengths", "hom-lengths", "ext-lengths", "rank-entry-order", "no-vertex",
        "negative-quiver-length", "negative-vertex-dim", "map-count", "map-field", "map-shape", "empty-point",
        "coordinates-count", "subspace-count", "subspace-field", "subspace-ambient",
    ],
)
def test_malformed_arguments_are_rejected(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
