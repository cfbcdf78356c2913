"""The self-check suites behind `lindeg verify`."""

import pytest

from lindeg import SUITES, run_suites
from lindeg.verification import suite_sigma


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
