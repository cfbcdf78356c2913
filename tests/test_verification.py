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


def test_roundtrips_decomposes_only_the_tables_it_checks(decompose_calls):
    """One decomposition per random round trip and one per orbit checked:
    the suite compares tables and builds no orbit that it does not read."""
    orbits = sum(len(enumerate_orbits(m, n)) for m in range(1, 4) for n in range(1, 5))
    assert orbits == 201
    assert suite_roundtrips(0).passed
    assert len(decompose_calls) == 300 + orbits


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
