"""Exact dense linear algebra over the rationals and over prime fields.

Every scalar row is a tuple (or, inside an elimination, a list) of field
elements: ``fractions.Fraction`` over Q and plain ints in ``[0, p)`` over
F_p.  ``_check_elements`` is the one check of that rule, for ``Matrix`` and
``Subspace`` alike; an int over Q would make elimination divide in floats.
What the library builds from field elements skips it through ``_unchecked``.
Both fields share one code path in pure Python; the only difference is that
F_p reduces mod p and inverts a pivot with ``pow(x, -1, p)``, so nothing is
ever rounded.  ``_images`` is the one product kernel, and it holds that
difference for products.  Subspaces are stored by their reduced row echelon
basis, which is unique, so subspace equality and hashing are structural.

Every value the library hands out is a ``_Record``: an immutable slotted
class whose ``__slots__`` list its fields in order, then any private extras
(names with a leading underscore) that the record computes once and keeps.
Records equal and hash by their field tuples within one class and repr as
``Name(field=value, ...)``; ``_fields`` names the fields and ``_asdict()``
gives them as a dict.

Elimination changes its list rows in place and does only the work its
caller reads.  ``_pivots`` is the one forward pass: it brings rows to echelon
form and returns the pivot columns, which is all that ``rank`` and
``intertwiner_space_dim`` read.  ``_rref_rows`` adds one back pass, last
pivot first, for the callers that read the reduced rows.  The pivot row of
column c is zero left of c, so every row operation with it rewrites the
tail ``row[c:]`` only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import attrgetter, mul
from typing import Iterable, Sequence

from .errors import ValidationError

__all__ = [
    "GF",
    "QQ",
    "Field",
    "Matrix",
    "Subspace",
    "coordinate_subspace",
    "intertwiner_space_dim",
    "inverse",
    "kernel",
    "map_subspace",
    "rank",
    "rref",
    "span",
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


_set = object.__setattr__
# what a nullable record hashes in place of a None field: a fixed int, the
# constant that Python 3.12 hashes None to
_NONE_HASH = 0xFCA86420


class _Record:
    """Base of the library's records.  A subclass lists its fields, then its
    private extras, in ``__slots__``, and sets them in ``__init__`` with
    ``_set``; assignment and deletion through the instance raise
    AttributeError.  An instance equals another of the same class with
    equal field tuple (NotImplemented for any other class), hashes as that
    tuple, and ignores the extras in both and in ``repr``; a class that
    writes out its own ``__eq__`` and ``__hash__`` keeps them.  A class
    whose fields can be None is declared ``nullable=True``: its hash reads
    each None field as ``_NONE_HASH``, since Python 3.11 hashes None by its
    address, which changes from process to process.  ``_fields`` names the
    fields; ``_asdict()`` maps them to their values, with records, also
    inside tuples, turned into dicts."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, nullable: bool = False) -> None:
        cls._fields = fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        if "__eq__" in cls.__dict__:
            return
        # reads the field tuple in C; of one field, its bare value, which
        # compares as the tuple does but hashes otherwise
        get = attrgetter(*fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        if nullable:
            assert len(fields) > 1, "a nullable record has more than one field"

            def __hash__(self):
                return hash(tuple([_NONE_HASH if x is None else x for x in get(self)]))

        elif len(fields) == 1:

            def __hash__(self):
                return hash((get(self),))

        else:

            def __hash__(self):
                return hash(get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self) -> dict:
        # copy and pickle: every slot that is set, the extras too
        return {name: getattr(self, name) for name in self.__slots__ if hasattr(self, name)}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            _set(self, name, value)

    def _asdict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in self._fields}


def _plain(value):
    """``value`` with every record in it, also inside tuples, turned into a
    dict by ``_asdict``."""
    if isinstance(value, _Record):
        return value._asdict()
    if type(value) is tuple:
        return tuple(map(_plain, value))
    return value


def _unchecked(cls, *values, **extra):
    """An instance of the record class ``cls`` from its field values in
    ``cls._fields`` order and ``extra`` private slots, skipping
    ``__post_init__``: for parts that hold its invariants.  A name that is
    not a slot of ``cls`` raises AttributeError."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        _set(obj, name, value)
    for name, value in extra.items():
        _set(obj, name, value)
    return obj


class Field(_Record):
    """Coefficient field: ``Field()`` is Q, ``Field(p)`` is F_p for a prime p."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0) -> None:
        _set(self, "characteristic", characteristic)
        self.__post_init__()

    # written out for speed, as in Interval: matrix routines compare fields
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.characteristic == other.characteristic
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.characteristic,))

    def __post_init__(self) -> None:
        c = self.characteristic
        if type(c) is not int:
            raise ValidationError(f"field characteristic must be an integer, got {c!r}")
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
        # exact types first: they skip the ABC checks below, and a bool or a
        # subclass takes the general route to the same answer
        if type(value) is int:
            return value % self.characteristic if self.characteristic else Fraction(value)
        if type(value) is Fraction and self.characteristic == 0:
            return value
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


def _check_elements(field: Field, rows: tuple[tuple, ...], width: int, what: str) -> None:
    """Raise ValidationError unless ``rows`` is a tuple of tuples of ``width``
    entries, each an element of ``field``: an int in [0, p) over F_p, a
    Fraction over Q.  Lists would leave the holder unhashable and unequal to
    the same rows as tuples."""
    q = field.characteristic
    if type(rows) is not tuple:
        raise ValidationError(f"{what} rows must be a tuple of tuples")
    for row in rows:
        if type(row) is not tuple:
            raise ValidationError(f"{what} rows must be a tuple of tuples")
        if len(row) != width:
            raise ValidationError(f"{what} row length differs from {width}")
        for x in row:
            if not (type(x) is int and 0 <= x < q if q else type(x) is Fraction):
                raise ValidationError(f"{what} entries are not elements of {field}")


class Matrix(_Record):
    """Immutable dense matrix of field elements, checked on construction;
    ``from_rows`` coerces ints, Fractions and exact strings first."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(
        self, field: Field, nrows: int, ncols: int, entries: tuple[tuple[object, ...], ...]
    ) -> None:
        _set(self, "field", field)
        _set(self, "nrows", nrows)
        _set(self, "ncols", ncols)
        _set(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.nrows != len(self.entries) or type(self.ncols) is not int or self.ncols < 0:
            raise ValidationError(f"matrix shape {self.shape} does not fit {len(self.entries)} rows")
        _check_elements(self.field, self.entries, self.ncols, "matrix")

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
        return _unchecked(Matrix, field, len(coerced), ncols, coerced)

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Matrix":
        if not (type(nrows) is type(ncols) is int and min(nrows, ncols) >= 0):
            raise ValidationError(f"matrix shape ({nrows!r}, {ncols!r}) needs integers >= 0")
        z = field.coerce(0)
        return _unchecked(Matrix, field, nrows, ncols, ((z,) * ncols,) * nrows)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix.projection(field, n, ())

    @staticmethod
    def projection(field: Field, m: int, killed: Iterable[int]) -> "Matrix":
        """Diagonal 0/1 projection on F^m killing the 0-based positions ``killed``."""
        killed = set(killed)
        if type(m) is not int or m < 0 or not killed <= set(range(m)):
            raise ValidationError(f"killed positions {sorted(killed)} out of range(0, {m})")
        z, one = field.coerce(0), field.coerce(1)
        rows = tuple((z,) * i + (z if i in killed else one,) + (z,) * (m - i - 1) for i in range(m))
        return _unchecked(Matrix, field, m, m, rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def transpose(self) -> "Matrix":
        return _unchecked(Matrix, self.field, self.ncols, self.nrows, _columns(self))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return compose(self, other)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def _columns(M: Matrix) -> tuple[tuple, ...]:
    """The columns of M, one tuple each, also when M has no rows."""
    return tuple(zip(*M.entries)) if M.nrows else ((),) * M.ncols


def _images(vectors: Iterable[Sequence], rows: Sequence[Sequence], p: int) -> list[list]:
    """The image of each vector under the map with these rows, one fresh
    list each, over F_p or Q for p = 0: the one exact product kernel."""
    if p:
        return [[sum(map(mul, row, v)) % p for row in rows] for v in vectors]
    zero = Fraction(0)
    return [[sum(map(mul, row, v), zero) for row in rows] for v in vectors]


def compose(A: Matrix, B: Matrix) -> Matrix:
    """Matrix product A @ B: row i is A's row i mapped by B's columns."""
    if A.field != B.field:
        raise ValidationError("cannot multiply matrices over different fields")
    if A.ncols != B.nrows:
        raise ValidationError(f"shape mismatch: {A.shape} @ {B.shape}")
    rows = _images(A.entries, _columns(B), A.field.characteristic)
    return _unchecked(Matrix, A.field, A.nrows, B.ncols, tuple(map(tuple, rows)))


def _pivots(rows: list[list], p: int) -> list[int]:
    """Bring field rows to row echelon form in place; return the pivot columns.

    ``p`` is the characteristic: entries are ints in ``[0, p)`` when ``p > 0``
    and Fractions when ``p == 0``.  This is the forward pass of Gauss-Jordan
    elimination: each pivot row is swapped up and clears its column below
    it, and is not scaled.  The pivot columns are those of the reduced row
    echelon form.  Left of column c every row from the pivot down is zero,
    so each row operation at c rewrites ``row[c:]`` only.  The rows change
    in place, so callers pass freshly built lists.
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
        tail = rows[r][c:]
        inv = pow(tail[0], -1, p) if p else 1 / tail[0]
        # rows r + 1 .. piv are zero at c: row piv now holds the old row r
        for i in range(piv + 1, nrows):
            row = rows[i]
            f = row[c]
            if f:
                if p:
                    f = f * inv % p
                    row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
                else:
                    f *= inv
                    row[c:] = [x - f * y for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return pivots


def _rref_rows(rows: list[list], p: int) -> tuple[list[list], list[int]]:
    """Reduce field rows to reduced row echelon form, in place.

    ``_pivots`` brings the rows to echelon form; then a back pass, last
    pivot first, scales each pivot row to a leading 1 and clears its column
    above it, again on the tails ``row[c:]`` only.  Returns the rows (zero
    rows last) and the pivot columns; callers pass fresh lists, as for
    ``_pivots``.
    """
    pivots = _pivots(rows, p)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        lead = rows[r]
        if lead[c] != 1:
            if p:
                inv = pow(lead[c], -1, p)
                lead[c:] = [x * inv % p for x in lead[c:]]
            else:
                inv = 1 / lead[c]
                lead[c:] = [x * inv for x in lead[c:]]
        tail = lead[c:]
        for i in range(r):
            row = rows[i]
            f = row[c]
            if f:
                if p:
                    row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
                else:
                    row[c:] = [x - f * y for x, y in zip(row[c:], tail)]
    return rows, pivots


def _reduce(v: Sequence, rows: Sequence[Sequence], pivots: Sequence[int], p: int) -> Sequence:
    """Residue of the field vector ``v`` modulo the RREF ``rows`` with these
    ``pivots`` over F_p, or Q for p = 0; ``v`` is returned if no row acts."""
    for row, c in zip(rows, pivots):
        coeff = v[c]
        if coeff:
            if p:
                v = [(a - coeff * b) % p for a, b in zip(v, row)]
            else:
                v = [a - coeff * b for a, b in zip(v, row)]
    return v


def _span_rows(field: Field, ambient: int, rows: list[list]) -> "Subspace":
    """Subspace spanned by rows whose entries are already in ``field``.  The
    rows are reduced in place, so every caller builds fresh lists."""
    rows, piv = _rref_rows(rows, field.characteristic)
    return Subspace(field, ambient, tuple(tuple(r) for r in rows[: len(piv)]), tuple(piv))


def rref(M: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns. Zero rows sink to the bottom."""
    # list(r) gives the in-place elimination fresh rows, here and in rank
    rows, piv = _rref_rows([list(r) for r in M.entries], M.field.characteristic)
    return _unchecked(Matrix, M.field, M.nrows, M.ncols, tuple(map(tuple, rows))), tuple(piv)


def rank(M: Matrix) -> int:
    return len(_pivots([list(r) for r in M.entries], M.field.characteristic))


def inverse(M: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValidationError if singular.

    Gauss-Jordan on [M | I]: each augmented row is built once, as M's row
    followed by a row of the identity, with no identity Matrix."""
    if M.nrows != M.ncols:
        raise ValidationError("only square matrices can be inverted")
    n = M.nrows
    z, one = M.field.coerce(0), M.field.coerce(1)
    aug = []
    for i, row in enumerate(M.entries):
        e = [z] * n
        e[i] = one
        aug.append([*row, *e])
    rows, piv = _rref_rows(aug, M.field.characteristic)
    if piv != list(range(n)):
        raise ValidationError("matrix is singular")
    return _unchecked(Matrix, M.field, n, n, tuple(tuple(row[n:]) for row in rows))


class Subspace(_Record):
    """A linear subspace of F^ambient held by its unique RREF basis (rows)."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(
        self,
        field: Field,
        ambient: int,
        basis: tuple[tuple[object, ...], ...],
        pivots: tuple[int, ...],
    ) -> None:
        _set(self, "field", field)
        _set(self, "ambient", ambient)
        _set(self, "basis", basis)
        _set(self, "pivots", pivots)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.basis) != len(self.pivots):
            raise ValidationError("basis and pivot counts differ")
        if not all(a < b for a, b in zip([-1, *self.pivots], [*self.pivots, self.ambient])):
            raise ValidationError("pivots must be strictly increasing and in range")
        _check_elements(self.field, self.basis, self.ambient, "basis")
        for i, (row, p) in enumerate(zip(self.basis, self.pivots)):
            # a zero is falsy in both fields
            if row[p] != 1 or any(row[:p]) or any(row[c] for c in self.pivots[i + 1 :]):
                raise ValidationError("basis is not in reduced row echelon form")

    @property
    def dim(self) -> int:
        return len(self.basis)

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
    p, one, z = A.field.characteristic, A.field.coerce(1), A.field.coerce(0)
    R, piv = _rref_rows([list(r) for r in A.entries], p)
    rows = []
    for f in sorted(set(range(A.ncols)).difference(piv)):
        v = [z] * A.ncols
        v[f] = one
        for row, c in zip(R, piv):
            v[c] = -row[f] % p if p else -row[f]
        rows.append(v)
    return _span_rows(A.field, A.ncols, rows)


def map_subspace(A: Matrix, V: Subspace) -> Subspace:
    """Image A(V) inside F^nrows."""
    if A.field != V.field or A.ncols != V.ambient:
        raise ValidationError("matrix domain differs from subspace ambient")
    return _span_rows(A.field, A.nrows, _images(V.basis, A.entries, A.field.characteristic))


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
    offsets = [0, *itertools.accumulate(a * b for a, b in zip(dims_src, dims_tgt))]
    unknowns = offsets[-1]
    if unknowns == 0:
        return 0
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
    return unknowns - len(_pivots(rows, p))  # rows built above, one list each
