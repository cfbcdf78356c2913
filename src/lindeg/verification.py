"""Self-contained verification suites.

Each suite cross-checks a combinatorial prediction against independent linear
algebra (or against a second combinatorial route) and reports a pass/fail
summary.  The CLI ``verify`` subcommand and the acceptance tests both run
these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
from .errors import NotFlatError
from .linalg import GF, QQ, Field, Matrix, intertwiner_space_dim, rank
from .orbits import (
    decomposition_of,
    enumerate_orbits,
    representative,
    stratum_rank_targets,
)
from .representations import (
    Decomposition,
    DimVector,
    Interval,
    RepMatrices,
    decompose_from_ranks,
    ext_dim,
    euler_form,
    hom_dim,
    rank_profile,
    ranks_from_decomposition,
    well_behaved_rep,
)

P_LARGE = 101


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: tuple[str, ...]

    def summary_line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        line = f"{self.name}: {status} ({self.checks} checks)"
        if self.failures:
            line += "\n  " + "\n  ".join(self.failures[:10])
        return line


def _random_decomposition(
    rng: random.Random, n: int, max_mult: int = 2, max_vertex_dim: int = 5
) -> Decomposition:
    while True:
        mult = {}
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                k = rng.randrange(max_mult + 1)
                if k:
                    mult[Interval(a, b)] = k
        if not mult:
            continue
        D = Decomposition.from_multiplicities(n, mult)
        if max(D.vertex_dims()) <= max_vertex_dim:
            return D


def _random_invertible(rng: random.Random, field: Field, size: int) -> Matrix:
    if size == 0:
        return Matrix.identity(field, 0)
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
        M = Matrix.from_rows(field, rows, ncols=size)
        if rank(M) == size:
            return M


def _conjugate(rng: random.Random, rep: RepMatrices) -> RepMatrices:
    """Change bases at every vertex by random invertible matrices."""
    from .linalg import inverse

    gs = [_random_invertible(rng, rep.field, d) for d in rep.dims]
    maps = tuple(
        gs[i + 1] @ rep.maps[i] @ inverse(gs[i]) for i in range(rep.n - 1)
    )
    return RepMatrices(rep.field, rep.dims, maps)


def suite_exthom(seed: int = 0, pairs: int = 500) -> SuiteResult:
    """Hom/Ext dimensions from the interval tables vs actual matrix kernels.

    For random pairs of interval modules realized as (conjugated) matrices,
    dim Hom is recomputed as the kernel dimension of the intertwiner system
    and dim Ext is recovered from hom - ext = Euler form.
    """
    rng = random.Random(seed)
    failures = []
    checks = 0
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
        checks += 2
        if hom_mat != hom_tab:
            failures.append(f"pair {k}: hom table {hom_tab} != matrices {hom_mat} ({A} -> {B})")
        if hom_mat - ext_tab != euler:
            failures.append(
                f"pair {k}: hom {hom_mat} - ext {ext_tab} != euler {euler} ({A} -> {B})"
            )
    return SuiteResult("exthom", not failures, checks, tuple(failures))


def _dim_vectors(m: int, n: int) -> Iterable[DimVector]:
    for d in combinations(range(1, m), n):
        yield DimVector(m, d)


def suite_classify_consistency(seed: int = 0) -> SuiteResult:
    """Sweep all orbits for small (m, n) and check the theorems against

    each other: the fiber irreducibility criterion matches the rank-target
    comparison, smooth implies irreducible with empty singular locus, the
    dimension formula applies exactly to the flat orbits, representatives
    reproduce their orbit over different fields, and the matrix-level
    good-behavior test agrees with the rank-table one."""
    rng = random.Random(seed)
    failures = []
    checks = 0

    def note(cond: bool, msg: str) -> None:
        nonlocal checks
        checks += 1
        if not cond:
            failures.append(msg)

    for m in range(2, 5):
        for n in range(1, 4):
            if n >= m:
                continue
            orbits = enumerate_orbits(m, n)
            dvs = list(_dim_vectors(m, n))
            for rs in orbits:
                dec = decomposition_of(rs)
                note(
                    ranks_from_decomposition(dec) == rs.table,
                    f"decomposition round trip failed for {rs}",
                )
                J = representative(rs)
                note(
                    J.rank_sequence() == rs,
                    f"representative does not lie on its orbit for {rs}",
                )
                p = rng.choice([2, 3, 101])
                note(
                    rank_profile(J.matrices(GF(p))) == rs.table,
                    f"representative rank profile over F_{p} differs for {rs}",
                )
                for dv in dvs:
                    flags = flat_flags(rs, dv)
                    irr = is_irreducible(rs, dv)
                    note(
                        irr == flags.flat_irreducible,
                        f"irreducibility criteria disagree for {rs}, d={dv.d}",
                    )
                    if is_smooth(rs, dv):
                        note(irr, f"smooth but not irreducible: {rs}, d={dv.d}")
                        info = singular_summary(rs, dv)
                        note(
                            info.kind == "empty",
                            f"smooth orbit with nonempty singular locus: {rs}, d={dv.d}",
                        )
                    if flags.flat_irreducible:
                        note(flags.flat, f"flat-irreducible but not flat: {rs}, d={dv.d}")
                    try:
                        dimension(rs, dv)
                        got_dim = True
                    except NotFlatError:
                        got_dim = False
                    note(
                        got_dim == flags.flat,
                        f"dimension formula availability != flatness for {rs}, d={dv.d}",
                    )
                    wb = is_well_behaved(rs, dv)
                    if wb:
                        note(
                            flags.flat_irreducible and not flags.stratum,
                            f"well-behaved orbit not flat-irreducible: {rs}, d={dv.d}",
                        )
                    note(
                        is_well_behaved_matrices(J.matrices(GF(5)), dv) == wb,
                        f"matrix-level good behavior disagrees for {rs}, d={dv.d}",
                    )
    return SuiteResult("classify-consistency", not failures, checks, tuple(failures))


def suite_roundtrips(seed: int = 0) -> SuiteResult:
    """Structural round trips.

    Decomposition -> rank table -> decomposition is the identity on random
    inputs, and the generic orbit construction for a dimension vector has
    exactly the upper stratum rank target as its table.
    """
    rng = random.Random(seed)
    failures = []
    checks = 0
    for k in range(300):
        n = rng.randint(1, 5)
        D = _random_decomposition(rng, n, max_mult=3, max_vertex_dim=50)
        table = ranks_from_decomposition(D)
        checks += 1
        if decompose_from_ranks(table) != D:
            failures.append(f"case {k}: decomposition round trip failed for {D}")
    for m in range(1, 4):
        for n in range(1, 5):
            for rs in enumerate_orbits(m, n):
                dec = decomposition_of(rs)
                J = representative(rs)
                checks += 3
                if ranks_from_decomposition(dec) != rs.table:
                    failures.append(f"rank/decomposition round trip failed for {rs}")
                if J.rank_sequence() != rs:
                    failures.append(f"representative combinatorial ranks differ for {rs}")
                if rank_profile(J.matrices(GF(7))) != rs.table:
                    failures.append(f"representative matrix ranks differ for {rs}")
    for m in range(2, 9):
        for n in range(1, m):
            for dv in _dim_vectors(m, n):
                dec = well_behaved_rep(dv)
                target, _ = stratum_rank_targets((), dv)
                checks += 1
                if ranks_from_decomposition(dec) != target.table:
                    failures.append(
                        f"generic construction has wrong ranks for m={m}, d={dv.d}"
                    )
    return SuiteResult("roundtrips", not failures, checks, tuple(failures))


def _random_matrix_of_rank(rng: random.Random, field: Field, m: int, r: int) -> Matrix:
    """Random m x m matrix of exact rank r, as a product of thin factors."""
    if r == 0:
        return Matrix.zeros(field, m, m)
    p = field.characteristic
    while True:
        left = Matrix.from_rows(
            field, [[rng.randrange(p) for _ in range(r)] for _ in range(m)], ncols=r
        )
        right = Matrix.from_rows(
            field, [[rng.randrange(p) for _ in range(m)] for _ in range(r)], ncols=m
        )
        M = left @ right
        if rank(M) == r:
            return M


def suite_rank_composition(seed: int = 0, cases: int = 1000) -> SuiteResult:
    """Composite ranks of tuples whose edge coranks respect the flag steps.

    Random tuples with rk f_i >= m - (d_{i+1} - d_i) must satisfy
    rk(f_{b-1} ... f_a) >= m + d_a - d_b for every a < b; the rank profile is
    also recomputed by direct multiplication as an oracle for the profile
    routine itself.
    """
    rng = random.Random(seed)
    field = GF(P_LARGE)
    failures = []
    checks = 0
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
            for b in range(a, n + 1):
                prod = Matrix.identity(field, m)
                for i in range(a, b):
                    prod = maps[i - 1] @ prod
                checks += 1
                if rank(prod) != table.r(a, b):
                    failures.append(
                        f"case {k}: composite {a}->{b} rank {rank(prod)} != table {table.r(a, b)}"
                    )
                if a < b:
                    checks += 1
                    bound = m + dv.d[a - 1] - dv.d[b - 1]
                    if table.r(a, b) < bound:
                        failures.append(
                            f"case {k}: composite {a}->{b} rank {table.r(a, b)} below {bound} "
                            f"(m={m}, d={dv.d})"
                        )
    return SuiteResult("rank-composition", not failures, checks, tuple(failures))


def suite_sigma(seed: int = 0) -> SuiteResult:
    """Corank-one singular-locus model vs brute-force singular points over F_2."""
    from .enumeration import sigma_bijection_report

    failures = []
    checks = 0
    expected: list[tuple[int, tuple[int, ...], int, int, int | None]] = [
        (3, (1, 2), 1, 2, 1),
        (4, (1, 2), 1, 2, 7),
        (4, (1, 3), 1, 2, 1),
        (3, (1, 2), 1, 3, None),
        (4, (1, 2, 3), 2, 2, None),
    ]
    for m, d, h, p, count in expected:
        dv = DimVector(m, d)
        rep = sigma_bijection_report(m, dv, h, prime=p)
        checks += 1
        if not rep.ok:
            failures.append(f"sigma mismatch for m={m}, d={d}, h={h}, p={p}: {rep.failures}")
        if count is not None:
            checks += 1
            if rep.singular_count != count:
                failures.append(
                    f"singular count for m={m}, d={d}, h={h}: got {rep.singular_count}, want {count}"
                )
    return SuiteResult("sigma", not failures, checks, tuple(failures))


SUITES: dict[str, Callable[[int], SuiteResult]] = {
    "exthom": suite_exthom,
    "classify-consistency": suite_classify_consistency,
    "roundtrips": suite_roundtrips,
    "rank-composition": suite_rank_composition,
    "sigma": suite_sigma,
}


def run_suites(names: Sequence[str] | None = None, seed: int = 0) -> list[SuiteResult]:
    picked = list(SUITES) if not names else list(names)
    results = []
    for name in picked:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
        results.append(SUITES[name](seed))
    return results
