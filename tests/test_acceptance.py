"""Acceptance suite: one test per end-to-end criterion, fixed seed.

The verdicts come from the session's ``selftest --format json`` process
(``conftest.selftest_json``); one criterion also runs in this process, so
that ``run_one`` itself stays covered.
"""

from __future__ import annotations

import json

import pytest

import lepage.acceptance as acceptance
from lepage.acceptance import CRITERIA, run_one
from lepage.expr import ONE, const, sqrt_expr, x, yj, yy
from lepage.forms import DiffForm, dw, dx

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


# ---------------------------------------------------------------------------
# zero verdicts that the normal form cannot reach
# ---------------------------------------------------------------------------

# sqrt(2)*sqrt(3) - sqrt(6): zero, but not in normal form
HIDDEN_ZERO = sqrt_expr(const(2)) * sqrt_expr(const(3)) - sqrt_expr(const(6))


def plus_hidden_zero(monkeypatch, name, word, factor):
    """Make acceptance's callee ``name`` add HIDDEN_ZERO * factor on word."""
    callee = getattr(acceptance, name)

    def patched(*args):
        r = callee(*args)
        return r + DiffForm(r.chart, r.degree, r.mode,
                            {word: HIDDEN_ZERO * factor}, adapted=r.adapted)

    monkeypatch.setattr(acceptance, name, patched)


def times_hidden_one(monkeypatch, name):
    """Make acceptance's callee ``name`` scale its form by 1 + HIDDEN_ZERO*y1."""
    callee = getattr(acceptance, name)
    monkeypatch.setattr(acceptance, name, lambda *args: callee(*args).scale(
        ONE + HIDDEN_ZERO * yy(1)))


def test_graph_equation_samples_the_zeros_it_cannot_normalize(monkeypatch):
    euler_lagrange = acceptance.euler_lagrange
    monkeypatch.setattr(acceptance, "euler_lagrange", lambda lam: tuple(
        e + HIDDEN_ZERO * yj(1, 1) for e in euler_lagrange(lam)))
    plus_hidden_zero(monkeypatch, "fundamental", (dx(1), dx(2)), yy(1))
    ok, detail = acceptance._graph_equation(0)
    assert ok, detail
    # a sampled pass claims no exactness
    assert detail.split("; ")[1:] == [
        "jacobian determinant gives equations that vanish at every sample",
        "and a closed fundamental form"]


def test_known_solutions_sample_the_zeros_they_cannot_normalize(monkeypatch):
    residual = acceptance.graph_el_residual
    monkeypatch.setattr(acceptance, "graph_el_residual",
                        lambda u: residual(u) + HIDDEN_ZERO * x(1))
    ok, detail = acceptance._known_solutions(0)
    assert ok, detail
    assert detail == ("opaque-coefficient plane zero: True; "
                      "log-cosine-ratio graph zero: True; "
                      "arctangent graph zero: True")


def test_invariance_suite_samples_the_zeros_it_cannot_normalize(monkeypatch):
    plus_hidden_zero(monkeypatch, "noether_residual", (dw(1), dw(2)), ONE)
    plus_hidden_zero(monkeypatch, "pullback_immersion", (dx(2),), x(1))
    ok, detail = acceptance._invariance_suite(0)
    assert ok, detail
    assert detail.startswith("3/3 translation residuals vanish; 3/3 "
                             "pulled-back currents are closed")


def test_exterior_calculus_samples_the_zeros_it_cannot_normalize(monkeypatch):
    for name in ("to_coordinate", "ext_d", "wedge"):
        times_hidden_one(monkeypatch, name)
    ok, detail = acceptance._exterior_calculus(0)
    assert ok, detail
    # a sampled pass claims no exactness
    assert detail.startswith("50/50 conversion round-trips hold; 50/50 "
                             "repeated differentials vanish; 25/25 product "
                             "rules hold")
