"""Acceptance gate: every criterion runs at its stated tolerance and prints one
pass/fail line; the suite fails if any criterion fails."""

import json

import pytest

from fracfilt import acceptance


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[fn.__name__ for fn in acceptance.ALL_CRITERIA])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_criteria_numbered_in_order_with_their_budgets():
    assert [fn.number for fn in acceptance.ALL_CRITERIA] == list(range(1, 12))
    assert [fn.budget_s for fn in acceptance.ALL_CRITERIA] == [
        10.0, 60.0, 60.0, 10.0, 120.0, 300.0, 600.0, 120.0, 300.0, 600.0, float("inf")]


@pytest.mark.parametrize("budget_s,passed", [(0.0, False), (float("inf"), True)])
def test_runner_fails_a_criterion_past_its_budget(monkeypatch, budget_s, passed):
    registered = list(acceptance.ALL_CRITERIA)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [])

    @acceptance._criterion(99, "probe", budget_s=budget_s)
    def criterion_99():
        return True, {"value": 1.5}

    result = criterion_99()
    assert result.passed is passed
    assert (result.number, result.name, result.details) == (99, "probe", {"value": 1.5})
    assert result.runtime_s >= 0.0 and criterion_99.__name__ == "criterion_99"
    # JSON has no infinity: a budget of 0 or inf gives a null budget and margin
    record = json.loads(result.as_json())
    assert record["details"] == {"value": 1.5} and record["passed"] is passed
    assert record["budget_s"] is None and record["margin"] is None
    assert acceptance.ALL_CRITERIA == [criterion_99]
    monkeypatch.undo()
    assert acceptance.ALL_CRITERIA == registered


@pytest.mark.parametrize("name,criterion", [("CLOSED_FORM_TOL", acceptance.criterion_1),
                                            ("PATHWISE_L1_TOL", acceptance.criterion_6)])
def test_criterion_reads_the_tolerance_its_run_kind_shares(monkeypatch, name, criterion):
    # `fracfilt run` reads the same name (tests/test_config_cli.py), so one edit moves both
    monkeypatch.setattr(acceptance, name, 0.0)
    result = criterion()
    assert not result.passed and result.details["tolerance"] == 0.0
