import pytest

import netalloc.verify as verify_mod
from netalloc.verify import CheckResult, CriterionFailed, verify_reference_suite


def test_suite_catches_broken_match_down(monkeypatch):
    # fault injection: a match-down that forgets to lower over-proposals
    # must fail the optimum-is-equilibrium criterion
    def broken(spec, profile):
        return profile

    monkeypatch.setattr(verify_mod.analysis, "match_down", broken)
    with pytest.raises(CriterionFailed, match="match-down changed|unmatched"):
        verify_mod.optimum_is_equilibrium()


def test_suite_reports_failures_and_runs_the_batch_experiment(monkeypatch):
    def fails():
        raise CriterionFailed("injected failure")

    monkeypatch.setattr(
        verify_mod,
        "CRITERIA",
        (("ok", lambda: "fine"), ("bad", fails), ("batch-shape", lambda: "ran")),
    )
    assert verify_reference_suite() == [
        CheckResult("ok", True, "fine"),
        CheckResult("bad", False, "injected failure"),
        CheckResult("batch-shape", True, "ran"),
    ]
