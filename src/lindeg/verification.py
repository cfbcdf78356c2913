"""Self-contained verification suites.

Each suite cross-checks a combinatorial prediction against independent linear
algebra (or against a second combinatorial route) and reports a pass/fail
summary.  The CLI ``verify`` subcommand and the acceptance tests both run
these.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .classifier import (
    dimension,
    flat_flags,
    is_irreducible,
    is_smooth,
    is_well_behaved,
    is_well_behaved_matrices,
    singular_summary,
)
from .enumeration import (
    _PointTables,
    analyze_point,
    cell_dimension,
    check_search_space,
    enumerate_subreps,
    fixed_point_analysis,
    fixed_points,
    sigma_bijection_report,
    singular_point_census,
)
from .errors import GuardExceededError, NotFlatError, ValidationError
from .linalg import (
    GF,
    QQ,
    Field,
    Matrix,
    _images,
    _pivots,
    _Record,
    _set,
    _unchecked,
    intertwiner_space_dim,
    inverse,
    rank,
)
from .orbits import (
    ProjectionTuple,
    RankSequence,
    _stratum_table,
    enumerate_orbits,
    representative,
)
from .representations import (
    Decomposition,
    DimVector,
    RepMatrices,
    _interval,
    decompose_from_ranks,
    ext_dim,
    euler_form,
    hom_dim,
    rank_profile,
    ranks_from_decomposition,
    well_behaved_rep,
)

__all__ = [
    "SUITES",
    "SuiteResult",
    "run_suites",
]

P_LARGE = 101


class SuiteResult(_Record):
    __slots__ = ("name", "passed", "checks", "failures")

    def __init__(self, name: str, passed: bool, checks: int, failures: tuple[str, ...]) -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "checks", checks)
        _set(self, "failures", failures)

    def summary_line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        line = f"{self.name}: {status} ({self.checks} checks)"
        if self.failures:
            line += "\n  " + "\n  ".join(self.failures[:10])
        return line


class _Checks:
    """The checks of one suite: counts them, keeps the failure messages in
    order and builds the SuiteResult.  A message is a ``str.format`` template
    with its arguments, formatted only when its check fails."""

    def __init__(self) -> None:
        self.count = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, template: str, *args: object) -> None:
        self.count += 1
        if not ok:
            self.failures.append(template.format(*args))

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(name, not self.failures, self.count, tuple(self.failures))


def _random_decomposition(
    rng: random.Random, n: int, max_mult: int = 2, max_vertex_dim: int = 5
) -> Decomposition:
    while True:
        mult = {}
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                k = rng.randrange(max_mult + 1)
                if k:
                    mult[_interval(a, b)] = k
        if not mult:
            continue
        D = Decomposition.from_multiplicities(n, mult)
        if max(D.vertex_dims()) <= max_vertex_dim:
            return D


def _random_invertible(rng: random.Random, field: Field, size: int) -> tuple[Matrix, Matrix]:
    """A random invertible matrix and its inverse, from one elimination per
    draw: a singular draw fails ``inverse`` and is drawn again.  Each entry
    is drawn as an element of the field, an int in [0, p) or a Fraction over
    Q, so the draw becomes a Matrix through ``_unchecked``, with no
    per-entry coercion."""
    while True:
        if field.is_modular:
            rows = [
                [rng.randrange(field.characteristic) for _ in range(size)]
                for _ in range(size)
            ]
        else:
            rows = [
                [Fraction(rng.randint(-3, 3)) for _ in range(size)] for _ in range(size)
            ]
        M = _unchecked(Matrix, field, size, size, tuple(map(tuple, rows)))
        try:
            return M, inverse(M)
        except ValidationError:
            continue


def _conjugate(rng: random.Random, rep: RepMatrices) -> RepMatrices:
    """Change bases at every vertex by random invertible matrices."""
    gs = [_random_invertible(rng, rep.field, d) for d in rep.dims]
    # g f h^-1 on the edge from the vertex of h to the vertex of g
    maps = tuple(g @ f @ h_inv for (g, _), f, (_, h_inv) in zip(gs[1:], rep.maps, gs))
    return RepMatrices(rep.field, rep.dims, maps)


def suite_exthom(seed: int = 0, pairs: int = 500) -> SuiteResult:
    """Hom/Ext dimensions from the interval tables vs actual matrix kernels.

    For random pairs of interval modules realized as (conjugated) matrices,
    dim Hom is recomputed as the kernel dimension of the intertwiner system
    and dim Ext is recovered from hom - ext = Euler form.
    """
    rng = random.Random(seed)
    check = _Checks()
    for k in range(pairs):
        if k % 50 == 0:
            field, n, max_mult = QQ, 2, 1
        else:
            field = GF(P_LARGE)
            n = rng.randint(2, 4)
            max_mult = 2 if n == 2 else 1
        A = _random_decomposition(rng, n, max_mult)
        B = _random_decomposition(rng, n, max_mult)
        ra = _conjugate(rng, RepMatrices.from_decomposition(A, field))
        rb = _conjugate(rng, RepMatrices.from_decomposition(B, field))
        hom_mat = intertwiner_space_dim(field, ra.dims, ra.maps, rb.dims, rb.maps)
        hom_tab = hom_dim(A, B)
        ext_tab = ext_dim(A, B)
        euler = euler_form(ra.dims, rb.dims)
        check(
            hom_mat == hom_tab,
            "pair {}: hom table {} != matrices {} ({} -> {})", k, hom_tab, hom_mat, A, B,
        )
        check(
            hom_mat - ext_tab == euler,
            "pair {}: hom {} - ext {} != euler {} ({} -> {})", k, hom_mat, ext_tab, euler, A, B,
        )
    return check.result("exthom")


def _dim_vectors(m: int, n: int) -> Iterable[DimVector]:
    for d in combinations(range(1, m), n):
        yield DimVector(m, d)


def _check_orbit_roundtrips(check: _Checks, rs: RankSequence, p: int) -> ProjectionTuple:
    """Three checks of one orbit: its decomposition gives back its rank table,
    and its representative has that table from its zero sets and as matrices
    over F_p.  Returns the representative."""
    check(
        ranks_from_decomposition(decompose_from_ranks(rs.table)) == rs.table,
        "decomposition round trip failed for {}", rs,
    )
    J = representative(rs)
    check(J.rank_table() == rs.table, "representative does not lie on its orbit for {}", rs)
    check(
        rank_profile(J.matrices(GF(p))) == rs.table,
        "representative rank profile over F_{} differs for {}", p, rs,
    )
    return J


def suite_classify_consistency(seed: int = 0) -> SuiteResult:
    """Sweep all orbits for small (m, n) and check the theorems against
    each other: the fiber irreducibility criterion matches the rank-target
    comparison, smooth implies irreducible with empty singular locus, the
    dimension formula applies exactly to the flat orbits, representatives
    reproduce their orbit over different fields, and the matrix-level
    good-behavior test agrees with the rank-table one."""
    rng = random.Random(seed)
    check = _Checks()
    for m in range(2, 5):
        for n in range(1, 4):
            if n >= m:
                continue
            orbits = enumerate_orbits(m, n)
            dvs = list(_dim_vectors(m, n))
            for rs in orbits:
                J = _check_orbit_roundtrips(check, rs, rng.choice([2, 3, 101]))
                matrices = J.matrices(GF(5))
                for dv in dvs:
                    flags = flat_flags(rs, dv)
                    irr = is_irreducible(rs, dv)
                    check(
                        irr == flags.flat_irreducible,
                        "irreducibility criteria disagree for {}, d={}", rs, dv.d,
                    )
                    if is_smooth(rs, dv):
                        check(irr, "smooth but not irreducible: {}, d={}", rs, dv.d)
                        info = singular_summary(rs, dv)
                        check(
                            info.kind == "empty",
                            "smooth orbit with nonempty singular locus: {}, d={}", rs, dv.d,
                        )
                    if flags.flat_irreducible:
                        check(flags.flat, "flat-irreducible but not flat: {}, d={}", rs, dv.d)
                    try:
                        dimension(rs, dv)
                        got_dim = True
                    except NotFlatError:
                        got_dim = False
                    check(
                        got_dim == flags.flat,
                        "dimension formula availability != flatness for {}, d={}", rs, dv.d,
                    )
                    wb = is_well_behaved(rs, dv)
                    if wb:
                        check(
                            flags.flat_irreducible and not flags.stratum,
                            "well-behaved orbit not flat-irreducible: {}, d={}", rs, dv.d,
                        )
                    check(
                        is_well_behaved_matrices(matrices, dv) == wb,
                        "matrix-level good behavior disagrees for {}, d={}", rs, dv.d,
                    )
    return check.result("classify-consistency")


def suite_roundtrips(seed: int = 0) -> SuiteResult:
    """Structural round trips.

    Decomposition -> rank table -> decomposition is the identity on random
    inputs.  Each orbit for m <= 3 and n <= 4 gets the three checks of
    ``_check_orbit_roundtrips``, which compare its table with the table of
    its decomposition, of its representative's zero sets and of the rank
    profile of its representative over F_7.  For every dimension vector with
    m <= 8 the generic construction's table equals the upper stratum rank
    target's.  Every check compares tables, so no orbit is built just to
    read its table.
    """
    rng = random.Random(seed)
    check = _Checks()
    for k in range(300):
        n = rng.randint(1, 5)
        D = _random_decomposition(rng, n, max_mult=3, max_vertex_dim=50)
        back = decompose_from_ranks(ranks_from_decomposition(D))
        check(back == D, "case {}: decomposition round trip failed for {}", k, D)
    for m in range(1, 4):
        for n in range(1, 5):
            for rs in enumerate_orbits(m, n):
                _check_orbit_roundtrips(check, rs, 7)
    for m in range(2, 9):
        for n in range(1, m):
            for dv in _dim_vectors(m, n):
                dec = well_behaved_rep(dv)
                check(
                    ranks_from_decomposition(dec) == _stratum_table((), dv, 1),
                    "generic construction has wrong ranks for m={}, d={}", m, dv.d,
                )
    return check.result("roundtrips")


def _random_matrix_of_rank(rng: random.Random, field: Field, m: int, r: int) -> Matrix:
    """Random m x m matrix of exact rank r over F_p, as a product of thin
    factors: an m x r draw, then an r x m draw, each row by row, until the
    product has rank r.  The draws are elements of F_p already, so the
    factors stay rows: ``_images`` multiplies them and ``_pivots`` ranks a
    copy of the product, and only the accepted product becomes a Matrix,
    through ``_unchecked``."""
    if r == 0:
        return Matrix.zeros(field, m, m)
    p = field.characteristic
    while True:
        left = [[rng.randrange(p) for _ in range(r)] for _ in range(m)]
        right = [[rng.randrange(p) for _ in range(m)] for _ in range(r)]
        rows = _images(left, list(zip(*right)), p)
        if len(_pivots([row[:] for row in rows], p)) == r:
            return _unchecked(Matrix, field, m, m, tuple(map(tuple, rows)))


def suite_rank_composition(seed: int = 0, cases: int = 1000) -> SuiteResult:
    """Composite ranks of tuples whose edge coranks respect the flag steps.

    Random tuples with rk f_i >= m - (d_{i+1} - d_i) must satisfy
    rk(f_{b-1} ... f_a) >= m + d_a - d_b for every a < b; the rank profile is
    also recomputed by direct multiplication as an oracle for the profile
    routine itself.  Each composite is built once, from the one before it
    out of the same vertex: a -> a + 1 is f_a and a -> b + 1 is
    f_b (a -> b), so n vertices take (n - 1)(n - 2)/2 products.  The oracle
    stays independent of ``rank_profile``: every composite is a product of
    the maps themselves, ranked by its own elimination, and the composite
    a -> a is the identity of F^m, whose rank is m.
    """
    rng = random.Random(seed)
    field = GF(P_LARGE)
    check = _Checks()
    for k in range(cases):
        n = rng.randint(2, 4)
        m = rng.randint(n + 1, 6)
        dv = DimVector(m, sorted(rng.sample(range(1, m), n)))
        steps = dv.steps()
        maps = []
        for i in range(n - 1):
            r = rng.randint(m - steps[i], m)
            maps.append(_random_matrix_of_rank(rng, field, m, r))
        rep = RepMatrices(field, (m,) * n, tuple(maps))
        table = rank_profile(rep)
        for a in range(1, n + 1):
            prod, got = None, m
            for b in range(a, n + 1):
                if b > a:
                    f = maps[b - 2]
                    prod = f if prod is None else f @ prod
                    got = rank(prod)
                want = table.r(a, b)
                check(
                    got == want,
                    "case {}: composite {}->{} rank {} != table {}", k, a, b, got, want,
                )
                if a < b:
                    bound = m + dv.d[a - 1] - dv.d[b - 1]
                    check(
                        want >= bound,
                        "case {}: composite {}->{} rank {} below {} (m={}, d={})",
                        k, a, b, want, bound, m, dv.d,
                    )
    return check.result("rank-composition")


def suite_sigma(seed: int = 0) -> SuiteResult:
    """Corank-one singular-locus model vs brute-force singular points over F_2."""
    check = _Checks()
    expected: list[tuple[int, tuple[int, ...], int, int, int | None]] = [
        (3, (1, 2), 1, 2, 1),
        (4, (1, 2), 1, 2, 7),
        (4, (1, 3), 1, 2, 1),
        (3, (1, 2), 1, 3, None),
        (4, (1, 2, 3), 2, 2, None),
    ]
    for m, d, h, p, count in expected:
        rep = sigma_bijection_report(DimVector(m, d), h, prime=p)
        check(rep.ok, "sigma mismatch for m={}, d={}, h={}, p={}: {}", m, d, h, p, rep.failures)
        if count is not None:
            check(
                rep.singular_count == count,
                "singular count for m={}, d={}, h={}: got {}, want {}",
                m, d, h, rep.singular_count, count,
            )
    return check.result("sigma")


CELL_RANGES = ((2, 5), (3, 4))  # (p, largest m): the fields and sizes sampled
CELL_SEARCH_BOUND = 1500
CELL_CASES = 12  # cases sampled per run of the cells suite


def _cell_cases(bound: int = CELL_SEARCH_BOUND) -> list[tuple[int, RankSequence, DimVector]]:
    """Every irreducible (p, orbit, d) with n <= 3 in CELL_RANGES whose point
    search space is at most ``bound``, in a fixed order."""
    out = []
    for p, top in CELL_RANGES:
        for m in range(2, top + 1):
            for n in range(1, min(3, m - 1) + 1):
                orbits = enumerate_orbits(m, n)
                for dv in _dim_vectors(m, n):
                    try:
                        check_search_space(GF(p), (m,) * n, dv.d, bound)
                    except GuardExceededError:
                        continue
                    out.extend((p, rs, dv) for rs in orbits if is_irreducible(rs, dv))
    return out


def suite_cells(seed: int = 0) -> SuiteResult:
    """Torus cells of irreducible Gr_d over F_2 and F_3 against brute force.

    For CELL_CASES seeded random irreducible orbits, every point of the representative
    projection tuple J is analyzed and filed under its RREF pivot columns.
    At every point the column-rank analysis of the census walk (one
    ``_PointTables(J).row_analysis`` per case) must equal ``analyze_point``.
    The pivot classes must be exactly the fixed points; at each fixed point
    ``fixed_point_analysis`` must equal ``analyze_point``; the class of each
    smooth fixed point S must have p^c(S) points (``cell_dimension``), none
    singular; and ``singular_point_census`` of a random base change of J
    must equal the brute-force count.
    """
    rng = random.Random(seed)
    check = _Checks()
    for p, rs, dv in rng.sample(_cell_cases(), CELL_CASES):
        J = representative(rs)
        rep = J.matrices(GF(p))
        tables = _PointTables(J)
        where = f"{rs}, d={dv.d}, p={p}"
        sizes: dict[tuple, int] = {}
        singular: dict[tuple, int] = {}
        smooth_fixed = set()
        expected = dimension(rs, dv)
        for point in enumerate_subreps(rep, dv, CELL_SEARCH_BOUND):
            matrices = analyze_point(rep, point)
            is_singular = matrices.tangent_dim > expected
            key = tuple(tuple(c + 1 for c in space.pivots) for space in point.spaces)
            sizes[key] = sizes.get(key, 0) + 1
            singular[key] = singular.get(key, 0) + is_singular
            bases = tuple(space.basis for space in point.spaces)
            rows = tables.row_analysis(bases, p)
            check(
                rows == matrices,
                "rows give {}, matrices {} at {}: {}", rows, matrices, bases, where,
            )
            if point.coordinates is None:
                continue
            counts = fixed_point_analysis(J, key)
            check(
                counts == matrices,
                "index counts give {}, matrices {} at {}: {}", counts, matrices, key, where,
            )
            if not is_singular:
                smooth_fixed.add(key)
        check(
            sorted(sizes) == fixed_points(J, dv),
            "pivot classes are not the fixed points: {}", where,
        )
        for S in sorted(smooth_fixed):
            c = cell_dimension(J, S)
            check(
                sizes[S] == p**c,
                "cell of {} has {} points, not {}^{}: {}", S, sizes[S], p, c, where,
            )
            check(
                not singular[S],
                "cell of smooth {} has {} singular points: {}", S, singular[S], where,
            )
        census = singular_point_census(_conjugate(rng, rep), dv, CELL_SEARCH_BOUND)
        total, bad = sum(sizes.values()), sum(singular.values())
        check(
            (census.total, census.singular) == (total, bad),
            "census {}/{} != brute force {}/{}: {}",
            census.total, census.singular, total, bad, where,
        )
    return check.result("cells")


SUITES: dict[str, Callable[[int], SuiteResult]] = {
    "exthom": suite_exthom,
    "classify-consistency": suite_classify_consistency,
    "roundtrips": suite_roundtrips,
    "rank-composition": suite_rank_composition,
    "sigma": suite_sigma,
    "cells": suite_cells,
}


def run_suites(names: Sequence[str] | None = None, seed: int = 0) -> list[SuiteResult]:
    picked = list(SUITES) if not names else list(names)
    results = []
    for name in picked:
        if name not in SUITES:
            raise ValidationError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
        results.append(SUITES[name](seed))
    return results
