"""Acceptance suite: one test per end-to-end criterion, fixed seed.

The verdicts come from the session's ``selftest --format json`` process
(``conftest.selftest_json``); one criterion also runs in this process, so
that ``run_one`` itself stays covered.
"""

from __future__ import annotations

import json

import pytest

from lepage.acceptance import CRITERIA, run_one

NUMBERS = [entry[0] for entry in CRITERIA]
TITLES = {entry[0]: entry[1] for entry in CRITERIA}


def test_registry_is_complete():
    assert NUMBERS == list(range(1, 12))


@pytest.fixture(scope="module")
def reported(selftest_json) -> dict[int, dict]:
    report = json.loads(selftest_json.stdout)
    return {entry["number"]: entry for entry in report["criteria"]}


@pytest.mark.parametrize("number", NUMBERS,
                         ids=[f"{n:02d}-{TITLES[n].replace(' ', '-')}"
                              for n in NUMBERS])
def test_criterion(reported, number):
    entry = reported[number]
    assert entry["title"] == TITLES[number]
    assert entry["passed"], entry["detail"]


def test_run_one_in_process():
    result = run_one(1, seed=0)
    print(result.line())
    assert (result.number, result.title) == (1, TITLES[1])
    assert result.passed, result.line()


def test_equivalence_failure_names_integrand_constructor_and_direction(
        monkeypatch):
    # the bare volume form has the right horizontal part, but its vertical
    # contractions do not vanish for a jet-dependent integrand
    import lepage.acceptance as acceptance
    monkeypatch.setattr(acceptance, "caratheodory", lambda lam: lam.volume())
    ok, detail = acceptance._equivalence_suite(0)
    assert not ok
    failures = detail.split("; ")
    assert [f.split(" ", 1)[0] for f in failures] == [
        "arclength/caratheodory", "area/caratheodory", "jacobian/caratheodory"]
    assert failures[0].startswith(
        "arclength/caratheodory defect at fiber index 1, base index 1: "
        "unequal at word dx1: unequal: lhs=")
