"""Exact dense linear algebra over the rationals and over prime fields.

Every scalar row is a tuple (or, inside an elimination, a list) of field
elements: ``fractions.Fraction`` over Q and plain ints in ``[0, p)`` over
F_p.  Both fields share one code path in pure Python; the only difference is
that F_p reduces mod p and inverts a pivot with ``pow(x, -1, p)``, so nothing
is ever rounded.  Subspaces are stored by their reduced row echelon basis,
which is unique, so subspace equality and hashing are structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import ValidationError

__all__ = [
    "GF",
    "QQ",
    "Field",
    "Matrix",
    "Subspace",
    "contains",
    "coordinate_subspace",
    "intertwiner_space_dim",
    "inverse",
    "kernel",
    "map_subspace",
    "rank",
    "rref",
    "span",
    "subspace_sum",
    "zero_subspace",
]

_PRIME_LIMIT = 2**16
# the largest |exponent| of an exact string: Python's own digit limit for
# integer strings, since 1eN stands for an integer of N + 1 digits
_EXPONENT_LIMIT = 4300


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Field:
    """Coefficient field: ``Field()`` is Q, ``Field(p)`` is F_p for a prime p."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        c = self.characteristic
        if c == 0:
            return
        if not (2 <= c < _PRIME_LIMIT) or not _is_prime(c):
            raise ValidationError(
                f"field characteristic must be 0 or a prime below {_PRIME_LIMIT}, got {c}"
            )

    @property
    def is_modular(self) -> bool:
        return self.characteristic != 0

    def coerce(self, value):
        """Coerce an int, Fraction or exact string like ``-3/7`` or ``1e3`` into
        the field.  A string exponent above 4300 in absolute value is refused
        before ``Fraction`` would build the power of ten."""
        if isinstance(value, str):
            exp = value.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
            if exp.isdecimal() and (len(exp) > 4 or int(exp) > _EXPONENT_LIMIT):
                raise ValidationError(f"exponent of {value!r} exceeds {_EXPONENT_LIMIT}")
            try:
                value = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"not an exact scalar: {value!r}") from exc
        if self.characteristic == 0:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            raise ValidationError(f"cannot coerce {value!r} into Q")
        p = self.characteristic
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise ValidationError(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(value.denominator, -1, p) % p
        if isinstance(value, int):
            return value % p
        raise ValidationError(f"cannot coerce {value!r} into F_{p}")

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F_{self.characteristic}"


QQ = Field(0)


def GF(p: int) -> Field:
    """The prime field with p elements."""
    return Field(p)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with exact entries."""

    field: Field
    nrows: int
    ncols: int
    entries: tuple[tuple[object, ...], ...]

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable], ncols: int | None = None) -> "Matrix":
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if coerced:
            width = len(coerced[0])
            if any(len(r) != width for r in coerced):
                raise ValidationError("matrix rows have unequal lengths")
            if ncols is not None and ncols != width:
                raise ValidationError(f"expected {ncols} columns, got {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        return Matrix(field, len(coerced), ncols, coerced)

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.coerce(0)
        return Matrix(field, nrows, ncols, tuple((z,) * ncols for _ in range(nrows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix.diagonal(field, [1] * n)

    @staticmethod
    def diagonal(field: Field, diag: Sequence) -> "Matrix":
        n = len(diag)
        z = field.coerce(0)
        rows = []
        for i, x in enumerate(diag):
            row = [z] * n
            row[i] = field.coerce(x)
            rows.append(tuple(row))
        return Matrix(field, n, n, tuple(rows))

    @staticmethod
    def projection(field: Field, m: int, killed: Iterable[int]) -> "Matrix":
        """Diagonal 0/1 projection on F^m killing the 0-based positions ``killed``."""
        killed = set(killed)
        if not killed <= set(range(m)):
            raise ValidationError(f"killed positions {sorted(killed)} out of range(0, {m})")
        return Matrix.diagonal(field, [0 if i in killed else 1 for i in range(m)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def transpose(self) -> "Matrix":
        if self.nrows == 0:
            return Matrix(self.field, self.ncols, 0, tuple(() for _ in range(self.ncols)))
        return Matrix(self.field, self.ncols, self.nrows, tuple(zip(*self.entries)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return compose(self, other)

    def rank(self) -> int:
        return rank(self)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def compose(A: Matrix, B: Matrix) -> Matrix:
    """Matrix product A @ B."""
    if A.field != B.field:
        raise ValidationError("cannot multiply matrices over different fields")
    if A.ncols != B.nrows:
        raise ValidationError(f"shape mismatch: {A.shape} @ {B.shape}")
    p = A.field.characteristic
    zero = A.field.coerce(0)
    bt = B.transpose().entries
    rows = tuple(tuple(sum(map(mul, row, col), zero) for col in bt) for row in A.entries)
    if p:
        rows = tuple(tuple(x % p for x in row) for row in rows)
    return Matrix(A.field, A.nrows, B.ncols, rows)


def _rref_rows(rows: list[list], p: int) -> tuple[list[list], list[int]]:
    """Reduce field rows to reduced row echelon form, in place.

    ``p`` is the characteristic: entries are ints in ``[0, p)`` when ``p > 0``
    and Fractions when ``p == 0``.  Returns the rows (zero rows last) and the
    pivot columns.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r]
        if lead[c] != 1:
            if p:
                inv = pow(lead[c], -1, p)
                lead = [x * inv % p for x in lead]
            else:
                inv = 1 / lead[c]
                lead = [x * inv for x in lead]
            rows[r] = lead
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                if p:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
                else:
                    rows[i] = [x - f * y for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    return rows, pivots


def _span_rows(field: Field, ambient: int, rows: list[list]) -> "Subspace":
    """Subspace spanned by rows whose entries are already in ``field``."""
    rows, piv = _rref_rows(rows, field.characteristic)
    return Subspace(field, ambient, tuple(tuple(r) for r in rows[: len(piv)]), tuple(piv))


def rref(M: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns. Zero rows sink to the bottom."""
    rows, piv = _rref_rows([list(r) for r in M.entries], M.field.characteristic)
    return Matrix(M.field, M.nrows, M.ncols, tuple(tuple(r) for r in rows)), tuple(piv)


def rank(M: Matrix) -> int:
    return len(rref(M)[1])


def inverse(M: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValidationError if singular."""
    if M.nrows != M.ncols:
        raise ValidationError("only square matrices can be inverted")
    n = M.nrows
    ident = Matrix.identity(M.field, n).entries
    aug = Matrix(M.field, n, 2 * n, tuple(row + ident[i] for i, row in enumerate(M.entries)))
    R, piv = rref(aug)
    if tuple(piv[:n]) != tuple(range(n)) or len(piv) != n:
        raise ValidationError("matrix is singular")
    return Matrix(M.field, n, n, tuple(row[n:] for row in R.entries))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of F^ambient held by its unique RREF basis (rows)."""

    field: Field
    ambient: int
    basis: tuple[tuple[object, ...], ...]
    pivots: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.basis) != len(self.pivots):
            raise ValidationError("basis and pivot counts differ")
        prev = -1
        for i, (row, p) in enumerate(zip(self.basis, self.pivots)):
            if len(row) != self.ambient:
                raise ValidationError("basis row length differs from ambient dimension")
            if not prev < p < self.ambient:
                raise ValidationError("pivots must be strictly increasing and in range")
            if row[p] != 1 or any(row[c] != 0 for c in self.pivots if c != p) or any(
                row[c] != 0 for c in range(p)
            ):
                raise ValidationError("basis is not in reduced row echelon form")
            prev = p

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, self.dim, self.ambient, self.basis)

    def reduce(self, vector: Sequence) -> tuple:
        """Canonical residue of a vector modulo this subspace."""
        v = [self.field.coerce(x) for x in vector]
        if len(v) != self.ambient:
            raise ValidationError("vector length differs from ambient dimension")
        p = self.field.characteristic
        for row, c in zip(self.basis, self.pivots):
            coeff = v[c]
            if coeff:
                if p:
                    v = [(a - coeff * b) % p for a, b in zip(v, row)]
                else:
                    v = [a - coeff * b for a, b in zip(v, row)]
        return tuple(v)

    def contains_vector(self, vector: Sequence) -> bool:
        return all(x == 0 for x in self.reduce(vector))

    def complement_positions(self) -> tuple[int, ...]:
        """Non-pivot coordinate positions, increasing; they span a complement."""
        ps = set(self.pivots)
        return tuple(c for c in range(self.ambient) if c not in ps)

    def __str__(self) -> str:
        return f"span{self.basis} in {self.field}^{self.ambient}"


def span(field: Field, ambient: int, rows: Iterable[Sequence]) -> Subspace:
    """Subspace spanned by the given row vectors, in canonical form."""
    M = Matrix.from_rows(field, rows, ncols=ambient)
    return _span_rows(field, ambient, [list(r) for r in M.entries])


def zero_subspace(field: Field, ambient: int) -> Subspace:
    return Subspace(field, ambient, (), ())


def coordinate_subspace(field: Field, ambient: int, positions: Iterable[int]) -> Subspace:
    """Span of the standard basis vectors at the given 0-based positions."""
    pos = tuple(sorted(set(positions)))
    if pos and not (0 <= pos[0] and pos[-1] < ambient):
        raise ValidationError(f"positions {pos} out of range(0, {ambient})")
    one = field.coerce(1)
    z = field.coerce(0)
    basis = []
    for c in pos:
        row = [z] * ambient
        row[c] = one
        basis.append(tuple(row))
    return Subspace(field, ambient, tuple(basis), pos)


def kernel(A: Matrix) -> Subspace:
    """Null space of A, as a subspace of F^ncols."""
    R, piv = rref(A)
    pivset = set(piv)
    free = [c for c in range(A.ncols) if c not in pivset]
    one = A.field.coerce(1)
    z = A.field.coerce(0)
    p = A.field.characteristic
    rows = []
    for f in free:
        v = [z] * A.ncols
        v[f] = one
        for i, c in enumerate(piv):
            x = R.entries[i][f]
            v[c] = (-x) % p if p else -x
        rows.append(v)
    return _span_rows(A.field, A.ncols, rows)


def contains(V: Subspace, W: Subspace) -> bool:
    """True iff W is contained in V."""
    if V.field != W.field or V.ambient != W.ambient:
        raise ValidationError("subspaces live in different ambient spaces")
    if W.dim > V.dim:
        return False
    return all(V.contains_vector(row) for row in W.basis)


def subspace_sum(V: Subspace, W: Subspace) -> Subspace:
    if V.field != W.field or V.ambient != W.ambient:
        raise ValidationError("subspaces live in different ambient spaces")
    return _span_rows(V.field, V.ambient, [list(r) for r in V.basis + W.basis])


def map_subspace(A: Matrix, V: Subspace) -> Subspace:
    """Image A(V) inside F^nrows."""
    if A.ncols != V.ambient:
        raise ValidationError("matrix domain differs from subspace ambient")
    B = compose(V.basis_matrix(), A.transpose())
    return _span_rows(A.field, A.nrows, [list(r) for r in B.entries])


def intertwiner_space_dim(
    field: Field,
    dims_src: Sequence[int],
    maps_src: Sequence[Matrix],
    dims_tgt: Sequence[int],
    maps_tgt: Sequence[Matrix],
) -> int:
    """Dimension of the space of homomorphisms between two A_n matrix tuples.

    A homomorphism is a tuple of matrices (one per vertex) commuting with the
    structure maps; the dimension is the nullity of the resulting exact linear
    system, so this is an oracle independent of any combinatorial hom count.
    """
    n = len(dims_src)
    if len(dims_tgt) != n or len(maps_src) != n - 1 or len(maps_tgt) != n - 1:
        raise ValidationError("representations have different quiver lengths")
    for i in range(n - 1):
        f, g = maps_src[i], maps_tgt[i]
        if f.field != field or g.field != field:
            raise ValidationError("maps are not over the stated field")
        if f.shape != (dims_src[i + 1], dims_src[i]) or g.shape != (dims_tgt[i + 1], dims_tgt[i]):
            raise ValidationError("map shapes do not match vertex dimensions")
    unknowns = sum(a * b for a, b in zip(dims_src, dims_tgt))
    if unknowns == 0:
        return 0
    offsets = []
    acc = 0
    for a, b in zip(dims_src, dims_tgt):
        offsets.append(acc)
        acc += a * b
    n_constraints = sum(dims_tgt[i + 1] * dims_src[i] for i in range(n - 1))
    if n_constraints == 0:
        return unknowns

    p = field.characteristic
    zero = field.coerce(0)
    rows: list[list] = []
    for i in range(n - 1):
        a_i, a_next = dims_src[i], dims_src[i + 1]
        b_next = dims_tgt[i + 1]
        f, g = maps_src[i], maps_tgt[i]
        for r in range(b_next):
            for c in range(a_i):
                row = [zero] * unknowns
                for k in range(a_next):
                    row[offsets[i + 1] + r * a_next + k] += f.entries[k][c]
                for k in range(dims_tgt[i]):
                    row[offsets[i] + k * a_i + c] -= g.entries[r][k]
                rows.append([x % p for x in row] if p else row)
    _, piv = _rref_rows(rows, p)
    return unknowns - len(piv)
