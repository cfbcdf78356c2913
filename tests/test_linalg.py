"""Exact linear algebra over Q and F_p."""

import random
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
    contains,
    coordinate_subspace,
    intertwiner_space_dim,
    inverse,
    kernel,
    map_subspace,
    rank,
    rref,
    span,
    subspace_sum,
    zero_subspace,
)

FIELDS = [QQ, GF(2), GF(3), GF(101)]


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
                assert contains(V, W)
            else:
                assert V == W
                assert V.basis == W.basis

    def test_zero_and_full(self):
        Z = zero_subspace(QQ, 3)
        F = coordinate_subspace(QQ, 3, range(3))
        assert Z.dim == 0 and F.dim == 3
        assert contains(F, Z)
        assert subspace_sum(Z, F) == F

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
        assert V.contains_vector(v)
        # a member of an RREF-basis subspace has its coordinates at the pivots
        assert [sum(v[c] * row[k] for c, row in zip(V.pivots, V.basis)) for k in range(3)] == v
        assert not V.contains_vector([0, 0, 1])

    def test_coordinate_subspace(self):
        V = coordinate_subspace(GF(2), 4, [0, 2])
        assert V.dim == 2
        assert V.contains_vector([1, 0, 1, 0])
        assert not V.contains_vector([0, 1, 0, 0])

    def test_sum_and_contains(self):
        V = span(QQ, 3, [[1, 0, 0]])
        W = span(QQ, 3, [[0, 1, 0]])
        S = subspace_sum(V, W)
        assert S.dim == 2 and contains(S, V) and contains(S, W)

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
