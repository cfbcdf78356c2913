"""Exact linear algebra over Q and F_p."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindeg import (
    GF,
    QQ,
    Field,
    Matrix,
    Subspace,
    ValidationError,
    coordinate_subspace,
    intertwiner_space_dim,
    inverse,
    kernel,
    map_subspace,
    rank,
    rref,
    span,
)
from lindeg.linalg import _pivots
from oracles import rref_oracle

FIELDS = [QQ, GF(2), GF(3), GF(101)]
PRODUCT_FIELDS = [GF(2), GF(101), QQ]
# integer rows of rank 2
MISRANKED = ((-54, -72, -9), (5, 6, 3), (-3, -6, 6))


def _holds(V, *vectors):
    """True iff the subspace V contains every vector: adding them to its
    basis spans V again."""
    return span(V.field, V.ambient, V.basis + vectors) == V


def _random_matrix(rng, field, nrows, ncols, lo=-4, hi=4):
    if field.is_modular:
        p = field.characteristic
        rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    else:
        rows = [[Fraction(rng.randint(lo, hi)) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix.from_rows(field, rows, ncols=ncols)


class TestField:
    def test_rationals(self):
        assert not QQ.is_modular
        assert QQ.coerce("-3/7") == Fraction(-3, 7)
        assert QQ.coerce(5) == Fraction(5)

    def test_modular(self):
        f = GF(7)
        assert f.is_modular
        assert f.coerce(10) == 3
        with pytest.raises(ValidationError):
            f.coerce("-3/7")

    def test_exact_types_and_the_general_route_agree(self):
        """int and Fraction take a fast path; a bool, a subclass or a string
        the general one, to the same value of the same type."""

        class Int(int):
            pass

        for value in (10, True, Int(10), "10", Fraction(10)):
            assert type(QQ.coerce(value)) is Fraction
            assert type(GF(7).coerce(value)) is int
        assert [QQ.coerce(v) for v in (-3, False, Int(-3), "-3")] == [-3, 0, -3, -3]
        assert [GF(7).coerce(v) for v in (-3, True, Int(-3), "-3")] == [4, 1, 4, 4]
        assert GF(7).coerce(Fraction(-3, 2)) == 2
        with pytest.raises(ValidationError, match="vanishes mod 7"):
            GF(7).coerce(Fraction(1, 7))
        for field in (QQ, GF(7)):
            with pytest.raises(ValidationError, match="cannot coerce"):
                field.coerce(1.5)

    def test_modular_string_fraction(self):
        f = GF(7)
        # -3/2 mod 7: inverse of 2 is 4, so -12 = 2 mod 7
        assert f.coerce("-3/2") == 2

    def test_string_exponent_limit(self):
        assert QQ.coerce("1e3") == 1000
        assert QQ.coerce(" 1E-4300 ") == Fraction(1, 10**4300)
        # refused before Fraction builds the power of ten
        for text in ("1e30000000", "1e100000000", "-2.5E-4301", "1e" + "9" * 5000, "1e30_000_000"):
            with pytest.raises(ValidationError, match="exponent"):
                QQ.coerce(text)
        with pytest.raises(ValidationError, match="not an exact scalar"):
            QQ.coerce("1e3x")

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="Fraction reads underscores from 3.11")
    def test_string_exponent_with_underscores(self):
        assert GF(7).coerce("1e4_300") == pow(10, 4300, 7)

    def test_modular_bad_denominator(self):
        with pytest.raises((ValidationError, ValueError)):
            GF(2).coerce("1/2")

    def test_nonprime_rejected(self):
        with pytest.raises(ValidationError):
            Field(6)
        with pytest.raises(ValidationError):
            Field(1)
        with pytest.raises(ValidationError):
            Field(2**16 + 1)


class TestMatrix:
    def test_shapes(self):
        A = Matrix.from_rows(QQ, [[1, 2], [3, 4], [5, 6]], ncols=2)
        assert A.shape == (3, 2)
        assert A.transpose().shape == (2, 3)

    def test_empty_transpose(self):
        A = Matrix.from_rows(QQ, [], ncols=3)
        assert A.shape == (0, 3)
        assert A.transpose().shape == (3, 0)
        assert A.transpose().transpose() == A

    def test_projection(self):
        P = Matrix.projection(GF(2), 3, {0, 2})
        assert P.entries == ((0, 0, 0), (0, 1, 0), (0, 0, 0))
        assert rank(P) == 1

    def test_matmul_identity(self):
        rng = random.Random(5)
        for field in FIELDS:
            A = _random_matrix(rng, field, 3, 3)
            assert Matrix.identity(field, 3) @ A == A
            assert A @ Matrix.identity(field, 3) == A

    def test_inverse_roundtrip(self):
        rng = random.Random(7)
        for field in FIELDS:
            while True:
                A = _random_matrix(rng, field, 4, 4)
                if rank(A) == 4:
                    break
            assert A @ inverse(A) == Matrix.identity(field, 4)
            assert inverse(A) @ A == Matrix.identity(field, 4)

    def test_results_stay_in_field_form(self):
        """F_p results hold plain ints in [0, p); Q results hold Fractions."""
        rng = random.Random(11)
        for field in FIELDS:
            p = field.characteristic
            while True:
                A = _random_matrix(rng, field, 4, 4)
                if rank(A) == 4:
                    break
            B = _random_matrix(rng, field, 4, 3)
            rows = (
                (A @ B).entries
                + rref(B)[0].entries
                + inverse(A).entries
                + kernel(B.transpose()).basis
            )
            for x in (x for row in rows for x in row):
                if p:
                    assert type(x) is int and 0 <= x < p
                else:
                    assert type(x) is Fraction

    def test_inverse_singular(self):
        with pytest.raises(ValidationError):
            inverse(Matrix.zeros(QQ, 2, 2))

    def test_mismatched_product(self):
        A = Matrix.zeros(QQ, 2, 3)
        B = Matrix.zeros(QQ, 2, 3)
        with pytest.raises(ValidationError):
            _ = A @ B

    @pytest.mark.parametrize(
        "field, nrows, ncols, entries, message",
        [
            # ints over Q made elimination divide in floats and rank this 3
            (QQ, 3, 3, MISRANKED, "matrix entries are not elements of Q"),
            # 5 over F_5 used to leak a ValueError from the pivot inverse
            (GF(5), 1, 1, ((5,),), "matrix entries are not elements of F_5"),
            (QQ, 2, 1, ((Fraction(1),),), r"matrix shape \(2, 1\) does not fit 1 rows"),
            (QQ, 1, -1, (), r"matrix shape \(1, -1\) does not fit 0 rows"),
            (QQ, 1, 2, ((Fraction(1),),), "matrix row length differs from 2"),
            (QQ, 1, 1, ((0.5,),), "matrix entries are not elements of Q"),
            (GF(2), 1, 1, ((True,),), "matrix entries are not elements of F_2"),
            (GF(3), 1, 1, ((-1,),), "matrix entries are not elements of F_3"),
        ],
        ids=["int-over-q", "int-too-large", "nrows-lies", "ncols-negative", "row-length",
             "float", "bool", "int-negative"],
    )
    def test_matrix_checks_its_entries(self, field, nrows, ncols, entries, message):
        with pytest.raises(ValidationError, match=message):
            Matrix(field, nrows, ncols, entries)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Matrix(QQ, 1, 1, [[Fraction(1)]]),
            lambda: Matrix(QQ, 1, 1, [(Fraction(1),)]),
            lambda: Matrix(GF(2), 1, 2, ([1, 0],)),
            lambda: Subspace(QQ, 2, [(Fraction(1), Fraction(0))], (0,)),
            lambda: Subspace(GF(2), 2, ([1, 0],), (0,)),
        ],
        ids=["matrix-lists", "matrix-list-of-tuples", "matrix-list-row",
             "subspace-list-of-tuples", "subspace-list-row"],
    )
    def test_rows_must_be_tuples(self, build):
        # list rows passed the element check but left the holder unhashable
        # and unequal to the same rows given as tuples
        with pytest.raises(ValidationError, match="rows must be a tuple of tuples"):
            build()
        assert hash(Matrix(QQ, 1, 1, ((Fraction(1),),))) == hash(Matrix.from_rows(QQ, [[1]]))

    def test_from_rows_coerces_before_it_builds(self):
        M = Matrix.from_rows(QQ, MISRANKED)
        assert rank(M) == 2 == len(rref_oracle(M.entries, 0)[1])
        assert Matrix(QQ, 3, 3, M.entries) == M
        assert Matrix.from_rows(QQ, [["1/2", "3e2"]]).entries == ((Fraction(1, 2), Fraction(300)),)
        assert Matrix.from_rows(GF(5), [[5, -1]]).entries == ((0, 4),)


def _draw_rows(data, field, nrows, ncols):
    p = field.characteristic
    entry = st.integers(0, p - 1) if p else st.fractions(-3, 3, max_denominator=3)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return data.draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PRODUCT_FIELDS), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.data())
def test_compose_matches_a_triple_loop(field, nr, nmid, nc, data):
    """Every entry of A @ B is the sum over k of A[i][k] B[k][j], zero-sized
    shapes included (an empty sum is 0)."""
    a, b = _draw_rows(data, field, nr, nmid), _draw_rows(data, field, nmid, nc)
    A, B = Matrix.from_rows(field, a, ncols=nmid), Matrix.from_rows(field, b, ncols=nc)
    expected = [[sum(a[i][k] * b[k][j] for k in range(nmid)) for j in range(nc)] for i in range(nr)]
    assert A @ B == Matrix.from_rows(field, expected, ncols=nc)
    assert (A @ B).shape == (nr, nc)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PRODUCT_FIELDS), st.integers(0, 3), st.integers(0, 3), st.data())
def test_map_subspace_matches_the_span_of_images(field, nr, nc, data):
    """A(V) is the span of A v for the spanning vectors v of V, each image
    computed by a plain loop."""
    a = _draw_rows(data, field, nr, nc)
    vectors = _draw_rows(data, field, data.draw(st.integers(0, 3)), nc)
    A, V = Matrix.from_rows(field, a, ncols=nc), span(field, nc, vectors)
    images = [[sum(row[c] * v[c] for c in range(nc)) for row in a] for v in vectors]
    assert map_subspace(A, V) == span(field, nr, images)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(st.integers(-3, 3), min_size=0, max_size=18),
    st.sampled_from([0, 2, 3, 101]),
)
def test_rank_of_product_bounded(nr, nmid, nc, pool, p):
    """rank(A @ B) <= min(rank A, rank B) over both field kinds."""
    field = QQ if p == 0 else GF(p)
    vals = pool + [0] * (nr * nmid + nmid * nc - len(pool))
    a_vals, b_vals = vals[: nr * nmid], vals[nr * nmid : nr * nmid + nmid * nc]
    A = Matrix.from_rows(
        field, [a_vals[i * nmid : (i + 1) * nmid] for i in range(nr)], ncols=nmid
    )
    B = Matrix.from_rows(
        field, [b_vals[i * nc : (i + 1) * nc] for i in range(nmid)], ncols=nc
    )
    assert rank(A @ B) <= min(rank(A), rank(B))


class TestSubspace:
    def test_canonical_from_different_spans(self):
        """Same subspace, different spanning sets, identical basis bits."""
        for field in FIELDS:
            V = span(field, 4, [[1, 2, 0, 1], [0, 1, 1, 1], [1, 3, 1, 2]])
            rows = list(V.basis)
            mixed = [
                [x + y for x, y in zip(rows[0], rows[1])],
                rows[1],
                [3 * x for x in rows[0]],
            ]
            W = span(field, 4, mixed)
            if field.characteristic == 3:
                # 3 * row vanishes mod 3; spanning set may lose a generator
                assert _holds(V, *W.basis)
            else:
                assert V == W
                assert V.basis == W.basis

    def test_zero_and_full(self):
        Z = coordinate_subspace(QQ, 3, ())
        F = coordinate_subspace(QQ, 3, range(3))
        assert Z.dim == 0 and F.dim == 3
        assert _holds(F, *Z.basis)
        assert span(QQ, 3, Z.basis + F.basis) == F

    @pytest.mark.parametrize(
        "field, basis, pivots, message",
        [
            (QQ, ((Fraction(1), Fraction(0)),), (), "basis and pivot counts differ"),
            (QQ, ((Fraction(1),),), (0,), "basis row length differs"),
            (QQ, ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))), (1, 0), "pivots must"),
            (QQ, ((Fraction(1), Fraction(0)),), (2,), "pivots must"),
            (QQ, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), (0, 5), "pivots must"),
            (QQ, ((Fraction(2), Fraction(0)),), (0,), "reduced row echelon"),
            (QQ, ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))), (0, 1), "reduced row"),
            (QQ, ((Fraction(1), Fraction(1)),), (1,), "reduced row echelon"),
            (GF(2), ((1, 5),), (0,), "not elements of F_2"),
            (GF(2), ((1, -1),), (0,), "not elements of F_2"),
            (GF(2), ((1, Fraction(1)),), (0,), "not elements of F_2"),
            (QQ, ((Fraction(1), 0.5),), (0,), "not elements of Q"),
            (QQ, ((1, 0),), (0,), "not elements of Q"),
        ],
        ids=[
            "counts", "row-length", "pivot-order", "pivot-range", "later-pivot-range", "pivot-not-one",
            "other-pivot-column", "left-of-pivot", "int-too-large", "int-negative",
            "fraction-over-fp", "float-over-q", "int-over-q",
        ],
    )
    def test_every_invariant_is_checked(self, field, basis, pivots, message):
        with pytest.raises(ValidationError, match=message):
            Subspace(field, 2, basis, pivots)

    def test_entries_outside_the_field_are_rejected(self):
        # (1, 5) over F_2 used to pass and compare unequal to span [[1, 1]]
        assert span(GF(2), 2, [[1, 5]]) == Subspace(GF(2), 2, ((1, 1),), (0,))
        with pytest.raises(ValidationError):
            Subspace(GF(2), 2, ((1, 5),), (0,))

    def test_rank_nullity(self):
        rng = random.Random(3)
        for field in FIELDS:
            for _ in range(20):
                A = _random_matrix(rng, field, 3, 5)
                assert kernel(A).dim + rank(A) == 5
                assert span(field, 3, A.transpose().entries).dim == rank(A)

    def test_map_subspace(self):
        A = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]], ncols=3)
        V = span(QQ, 3, [[1, 1, 1], [0, 0, 1]])
        W = map_subspace(A, V)
        assert W == span(QQ, 3, [[1, 1, 0]])

    def test_coordinates_membership(self):
        V = span(QQ, 3, [[1, 0, 1], [0, 1, 1]])
        v = [Fraction(1), Fraction(1), Fraction(2)]
        assert _holds(V, tuple(v))
        # a member of an RREF-basis subspace has its coordinates at the pivots
        assert [sum(v[c] * row[k] for c, row in zip(V.pivots, V.basis)) for k in range(3)] == v
        assert not _holds(V, (0, 0, 1))

    def test_coordinate_subspace(self):
        V = coordinate_subspace(GF(2), 4, [0, 2])
        assert V.dim == 2
        assert _holds(V, (1, 0, 1, 0))
        assert not _holds(V, (0, 1, 0, 0))

    def test_rref_idempotent(self):
        A = Matrix.from_rows(GF(5), [[2, 4, 1], [1, 2, 3], [3, 1, 0]], ncols=3)
        R, piv = rref(A)
        R2, piv2 = rref(R)
        assert R == R2 and piv == piv2


class TestIntertwiner:
    def test_hom_between_intervals_by_hand(self):
        """dim Hom(U[1,2], U[1,1]) = 1 on the A_2 quiver, by raw matrices."""
        field = QQ
        # U[1,2]: dims (1,1), map [1]; U[1,1]: dims (1,0), map 1x0
        dim_a, maps_a = (1, 1), (Matrix.from_rows(field, [[1]], ncols=1),)
        dim_b, maps_b = (1, 0), (Matrix.from_rows(field, [], ncols=1),)
        assert intertwiner_space_dim(field, dim_a, maps_a, dim_b, maps_b) == 1
        assert intertwiner_space_dim(field, dim_b, maps_b, dim_a, maps_a) == 0

    def test_endomorphisms_of_semisimple(self):
        """End of a direct sum of k copies of a simple has dimension k^2."""
        field = GF(3)
        dims = (2, 0)
        maps = (Matrix.from_rows(field, [], ncols=2),)
        assert intertwiner_space_dim(field, dims, maps, dims, maps) == 4

    def test_zero_vertex_dims(self):
        field = QQ
        dims = (0, 0)
        maps = (Matrix.from_rows(field, [], ncols=0),)
        assert intertwiner_space_dim(field, dims, maps, dims, maps) == 0


def _sparse_matrix(rng, field, nrows, ncols, density):
    """Entries 0, 1 or -1, nonzero with the given probability: the shape of
    the intertwiner systems."""
    rows = [
        [rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return Matrix.from_rows(field, rows, ncols=ncols)


def _elimination_cases(field, rng):
    """Seeded matrices of every awkward kind: empty shapes, zero rows and
    columns, repeated rows, low rank, and wide sparse 40 x 100 systems."""
    for shape in [(0, 0), (0, 4), (4, 0), (1, 1), (1, 6), (6, 1)]:
        yield _random_matrix(rng, field, *shape)
    yield Matrix.zeros(field, 3, 5)
    for _ in range(80):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.3:
            k = rng.randint(1, 3)
            M = _random_matrix(rng, field, nr, k, -2, 2) @ _random_matrix(rng, field, k, nc, -2, 2)
        else:
            M = _random_matrix(rng, field, nr, nc, -2, 2)
        rows = [list(row) for row in M.entries]
        if rng.random() < 0.3:
            rows[rng.randrange(nr)] = [0] * nc
        if rng.random() < 0.3:
            c = rng.randrange(nc)
            for row in rows:
                row[c] = 0
        if rng.random() < 0.3:
            rows.insert(rng.randrange(nr + 1), list(rng.choice(rows)))
        yield Matrix.from_rows(field, rows, ncols=nc)
    for density in (0.03, 0.06):
        yield _sparse_matrix(rng, field, 40, 100, density)


def _in_field(field, rows):
    p = field.characteristic
    return all(
        type(x) is int and 0 <= x < p if p else type(x) is Fraction for row in rows for x in row
    )


def _intertwiner_nullity(field, dims_src, maps_src, dims_tgt, maps_tgt):
    """Nullity of phi -> (phi_{i+1} f_i - g_i phi_i)_i, with one column per
    unknown entry of phi, eliminated by the oracle."""
    n = len(dims_src)
    columns = []
    for v in range(n):
        for r in range(dims_tgt[v]):
            for c in range(dims_src[v]):
                # the image of the unit phi with phi_v = E_rc
                col = []
                for i in range(n - 1):
                    f, g = maps_src[i].entries, maps_tgt[i].entries
                    for a in range(dims_tgt[i + 1]):
                        for b in range(dims_src[i]):
                            x = f[c][b] if v == i + 1 and a == r else 0
                            col.append(field.coerce(x - (g[a][r] if v == i and b == c else 0)))
                columns.append(col)
    return len(columns) - len(rref_oracle(columns, field.characteristic)[1])


class TestEliminationOracle:
    """Every elimination routine against ``rref_oracle``'s full-row
    Gauss-Jordan elimination, in values and in entry types."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_routines_match_full_row_elimination(self, field):
        rng = random.Random(1000 + field.characteristic)
        p = field.characteristic
        for M in _elimination_cases(field, rng):
            rows, piv = rref_oracle(M.entries, p)
            R, pivots = rref(M)
            assert R.entries == tuple(rows) and pivots == tuple(piv) and _in_field(field, R.entries)
            assert rank(M) == len(piv)
            fresh = [list(row) for row in M.entries]
            assert _pivots(fresh, p) == piv and _in_field(field, fresh)

            V = span(field, M.ncols, M.entries)
            assert V.basis == tuple(rows[: len(piv)]) and V.pivots == tuple(piv)

            # the kernel's RREF basis from the oracle's free columns
            null = []
            for f in (c for c in range(M.ncols) if c not in piv):
                v = [field.coerce(0)] * M.ncols
                v[f] = field.coerce(1)
                for row, c in zip(rows, piv):
                    v[c] = field.coerce(-row[f])
                null.append(v)
            null_rows, null_piv = rref_oracle(null, p)
            K = kernel(M)
            assert K.basis == tuple(null_rows[: len(null_piv)]) and K.pivots == tuple(null_piv)
            assert _in_field(field, K.basis)

            if M.nrows == M.ncols:
                n = M.nrows
                ident = Matrix.identity(field, n).entries
                aug, aug_piv = rref_oracle([row + ident[i] for i, row in enumerate(M.entries)], p)
                if aug_piv == list(range(n)):
                    inv = inverse(M)
                    assert inv.entries == tuple(row[n:] for row in aug)
                    assert _in_field(field, inv.entries)
                else:
                    with pytest.raises(ValidationError, match="singular"):
                        inverse(M)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_intertwiner_dim_is_the_oracle_nullity(self, field):
        rng = random.Random(2000 + field.characteristic)
        for _ in range(25):
            n = rng.randint(2, 4)
            dims_src = [rng.randint(0, 5) for _ in range(n)]
            dims_tgt = [rng.randint(0, 5) for _ in range(n)]
            maps = [
                [
                    _sparse_matrix(rng, field, dims[i + 1], dims[i], rng.choice((0.3, 0.7)))
                    for i in range(n - 1)
                ]
                for dims in (dims_src, dims_tgt)
            ]
            args = (field, dims_src, maps[0], dims_tgt, maps[1])
            assert intertwiner_space_dim(*args) == _intertwiner_nullity(*args)


def _line(field, ambient):
    """The span of the first standard basis vector of field^ambient."""
    return coordinate_subspace(field, ambient, [0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Matrix.from_rows(GF(2), [[1, 0], [1]]), "matrix rows have unequal lengths"),
        (lambda: Matrix.from_rows(GF(2), [[1, 0]], ncols=3), "expected 3 columns, got 2"),
        (lambda: Matrix.projection(GF(2), 2, {2}), "killed positions [2] out of range(0, 2)"),
        (lambda: Matrix.identity(GF(2), -1), "killed positions [] out of range(0, -1)"),
        (lambda: Matrix.zeros(GF(2), -1, 2), "matrix shape (-1, 2) needs integers >= 0"),
        (lambda: Matrix.zeros(GF(2), 1, True), "matrix shape (1, True) needs integers >= 0"),
        (lambda: Matrix.identity(GF(2), 2) @ Matrix.identity(GF(3), 2),
         "cannot multiply matrices over different fields"),
        (lambda: inverse(Matrix.zeros(GF(2), 1, 2)), "only square matrices can be inverted"),
        (lambda: coordinate_subspace(GF(2), 2, [2]), "positions (2,) out of range(0, 2)"),
        (lambda: map_subspace(Matrix.identity(GF(2), 2), _line(GF(2), 3)),
         "matrix domain differs from subspace ambient"),
        (lambda: map_subspace(Matrix.identity(GF(2), 2), _line(GF(3), 2)),
         "matrix domain differs from subspace ambient"),
        (lambda: intertwiner_space_dim(GF(2), (1, 1), (), (1, 1), ()),
         "representations have different quiver lengths"),
        (lambda: intertwiner_space_dim(
            GF(2), (1, 1), (Matrix.identity(GF(3), 1),), (1, 1), (Matrix.identity(GF(2), 1),)
        ), "maps are not over the stated field"),
        (lambda: intertwiner_space_dim(
            GF(2), (1, 1), (Matrix.zeros(GF(2), 2, 1),), (1, 1), (Matrix.identity(GF(2), 1),)
        ), "map shapes do not match vertex dimensions"),
        (lambda: Field(3.0), "field characteristic must be an integer, got 3.0"),
        (lambda: Field(0.0), "field characteristic must be an integer, got 0.0"),
        (lambda: Field(True), "field characteristic must be an integer, got True"),
        (lambda: GF("3"), "field characteristic must be an integer, got '3'"),
        (lambda: rank(Matrix.from_rows(Field(3.0), [[1, 2], [2, 1]])),
         "field characteristic must be an integer, got 3.0"),
    ],
    ids=[
        "ragged-rows", "column-count", "projection-range", "identity-size", "zeros-size",
        "zeros-bool", "product-fields", "inverse-shape",
        "coordinate-range", "map-domain", "map-field",
        "intertwiner-length", "intertwiner-field", "intertwiner-shape",
        "field-float", "field-float-zero", "field-bool", "field-str", "field-float-rank",
    ],
)
def test_malformed_arguments_are_rejected(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
