"""The self-check suites behind `lindeg verify`."""

import random
from fractions import Fraction

import pytest

from lindeg import GF, QQ, SUITES, Matrix, ValidationError, enumerate_orbits, run_suites
from lindeg.verification import (
    _random_invertible,
    suite_exthom,
    suite_rank_composition,
    suite_roundtrips,
    suite_sigma,
)
from draws import draw_digest
from oracles import rref_oracle


def test_suite_registry_names():
    assert set(SUITES) == {
        "exthom",
        "classify-consistency",
        "roundtrips",
        "rank-composition",
        "sigma",
        "cells",
    }


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["no-such-suite"], seed=0)


def test_unknown_suite_is_a_validation_error():
    # the library's own error, still a ValueError for callers that catch that
    with pytest.raises(ValidationError, match="unknown suite 'no-such-suite'"):
        run_suites(["no-such-suite"], seed=0)


def test_run_selected_suite():
    results = run_suites(["sigma"], seed=0)
    assert len(results) == 1
    result = results[0]
    assert result.name == "sigma"
    assert result.passed
    assert result.checks > 0
    assert result.failures == ()
    assert "sigma" in result.summary_line()


def test_sigma_suite_deterministic():
    a = suite_sigma(seed=0)
    b = suite_sigma(seed=1)
    assert a.checks == b.checks == 8
    assert a.passed and b.passed


def test_exthom_seed_stability():
    first = run_suites(["exthom"], seed=7)[0]
    second = run_suites(["exthom"], seed=7)[0]
    assert first.passed and second.passed
    assert first.checks == second.checks


@pytest.mark.parametrize(
    "seed, rank_composition_checks", enumerate([727, 804, 704, 770, 789])
)
def test_suites_keep_their_random_draws(seed, rank_composition_checks):
    """At the sizes the benchmark runs, each seed makes the number of checks
    that the benchmark has recorded for it; rank-composition's count follows
    its random draws, so a change in how any matrix is drawn fails here."""
    for result, checks in [
        (suite_exthom(seed, pairs=80), 160),
        (suite_rank_composition(seed, cases=80), rank_composition_checks),
        (suite_roundtrips(seed), 1150),
    ]:
        assert result.passed, result.failures[:5]
        assert result.checks == checks, result.name


# recorded before the suites built their oracle values incrementally
DRAW_DIGESTS = {
    "exthom": [
        "c929b86170d43c0e5878f02563a105859626fbe4b2d9465c858fe6ae9796e650",
        "6d9b272b72d586989efd5d49c6923cd9dfe657650cef5002d46bc3b0d956e172",
        "0c940d03503b0fa612998fbd9d175dac5d73b03e196da2dea41476cfbb34a188",
        "bd204adcf4f0ab386e6d987b40ef61a0ec54f22231dbfeab1867f72fcd07c919",
        "354224b7d1c319e1d56be1e914d6795e02f173e97eeb66dbf9c559cd6feb5f16",
    ],
    "rank-composition": [
        "1d5a4af340c609faec63d4a09682dad940f40f65f5d574d8f7b6ae6e666a8283",
        "5dcd6d8efe9e0247f0fc54c698c61aa2a98ecca172cae81760806064430ce6e1",
        "fed7cbdc2ede9fd958eaf40b584cde6315f29198dc414145af13a7b708452bd2",
        "cffc2d87c4d7567121a02e29807e7e2c14cb751ca15f45d9d43a12357cd23b0f",
        "e592fa441e3af7dd675b2fd77e836c3f7fc799b9f265b09d8c0e6ffdc0058ce8",
    ],
}


@pytest.mark.parametrize("suite", sorted(DRAW_DIGESTS))
@pytest.mark.parametrize("seed", range(5))
def test_suites_draw_what_they_drew(suite, seed):
    """exthom makes two checks per pair whatever it draws, so its check
    count cannot see a drift in its draws; the digest of the values its
    checks read can, and so can rank-composition's."""
    assert draw_digest(suite, seed) == DRAW_DIGESTS[suite][seed]


def test_draw_digest_sees_a_changed_draw(monkeypatch):
    from lindeg import verification

    drawn = verification._random_decomposition
    monkeypatch.setattr(
        verification,
        "_random_decomposition",
        lambda rng, n, max_mult=2, max_vertex_dim=5: drawn(rng, n, 1, max_vertex_dim),
    )
    result = suite_exthom(0, pairs=80)
    assert result.passed and result.checks == 160
    assert draw_digest("exthom", 0) != DRAW_DIGESTS["exthom"][0]


def test_roundtrips_decomposes_only_the_tables_it_checks(decompose_calls):
    """One decomposition per random round trip and one per orbit checked:
    the suite compares tables and builds no orbit that it does not read."""
    orbits = sum(len(enumerate_orbits(m, n)) for m in range(1, 4) for n in range(1, 5))
    assert orbits == 201
    assert suite_roundtrips(0).passed
    assert len(decompose_calls) == 300 + orbits


def test_rank_composition_multiplies_each_composite_once(monkeypatch):
    """A case with n vertices makes (n - 1)(n - 2)/2 products: a -> a + 1 is
    a map itself and each longer composite is one map times the composite
    before it.  The diagonal is the vertex dimension, so no identity matrix
    is built, and the random maps are multiplied as rows, not as matrices."""
    from lindeg import linalg, verification

    events = []
    compose, profile = linalg.compose, verification.rank_profile
    monkeypatch.setattr(linalg, "compose", lambda A, B: events.append(0) or compose(A, B))
    monkeypatch.setattr(
        verification, "rank_profile", lambda rep: events.append(rep.n) or profile(rep)
    )
    monkeypatch.setattr(
        Matrix, "identity", staticmethod(lambda field, n: events.append("identity"))
    )
    assert suite_rank_composition(0, cases=80).passed
    assert "identity" not in events
    cases = []  # [n, products] per case: its rank profile comes first
    for event in events:
        if event:
            cases.append([event, 0])
        else:
            cases[-1][1] += 1
    assert len(cases) == 80 and {n for n, _ in cases} == {2, 3, 4}
    assert all(products == (n - 1) * (n - 2) // 2 for n, products in cases)
    assert sum(products for _, products in cases) == 97


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=str)
def test_random_invertible_keeps_its_draws(field):
    """Candidates are drawn row by row until one is nonsingular, and nothing
    else is drawn, so every later draw of a suite stays put; the inverse
    comes with the matrix.  Over F_2 most candidates of size 2 or more are
    singular."""
    p = field.characteristic
    rng, ref = random.Random(3), random.Random(3)
    for size in [0, 1, 2, 3, 4] * 8:
        M, inv = _random_invertible(rng, field, size)
        rows = []
        while size:
            rows = [
                [ref.randrange(p) if p else Fraction(ref.randint(-3, 3)) for _ in range(size)]
                for _ in range(size)
            ]
            if len(rref_oracle(rows, p)[1]) == size:
                break
        assert M.entries == tuple(map(tuple, rows)) and rng.getstate() == ref.getstate()
        assert M @ inv == Matrix.identity(field, size) == inv @ M


def test_cells_suite_checks_every_sampled_case():
    result = run_suites(["cells"], seed=3)[0]
    assert result.passed, result.failures
    # per case: pivot classes, the census, and two checks per smooth cell
    assert result.checks > 3 * 12


def test_exthom_reports_a_table_that_disagrees(monkeypatch):
    from lindeg import verification

    hom_dim = verification.hom_dim
    monkeypatch.setattr(verification, "hom_dim", lambda A, B: hom_dim(A, B) + 1)
    result = verification.suite_exthom(0, pairs=3)
    assert not result.passed
    assert result.failures[0] == (
        "pair 0: hom table 4 != matrices 3 (U[1,1] + U[1,2] -> U[1,1] + U[1,2] + U[2,2])"
    )
