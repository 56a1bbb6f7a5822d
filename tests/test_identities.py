"""The source paper's Lepage identities over an opaque Lagrangian.

L = L(x, y, y') is an opaque function of every coordinate of a first-order
jet chart, so its jet derivatives are independent atoms.  A structural zero
in those atoms holds for every C^2 Lagrangian of the chart (with L != 0 where
a constructor divides by L), where a check on a fixed integrand covers one.
"""

from __future__ import annotations

import pytest

from lepage.charts import JetChart
from lepage.equivalents import (Lagrangian, _lepage_verdict, caratheodory,
                                fundamental, poincare_cartan)
from lepage.expr import opaque, sym_expr
from lepage.forms import ext_d

CHARTS = [(1, 1), (1, 2), (2, 1)]
CONSTRUCTORS = [poincare_cartan, fundamental, caratheodory]


def opaque_lagrangian(n: int, m: int) -> Lagrangian:
    chart = JetChart(n, m)
    return Lagrangian(chart, opaque("L", *map(sym_expr, chart.symbols())))


@pytest.mark.parametrize("construct", CONSTRUCTORS,
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("n, m", CHARTS)
def test_every_lagrangian_has_these_lepage_equivalents(n, m, construct):
    # h(rho) is the Lagrangian volume form and h(i_xi d rho) = 0 for every
    # jet direction xi, decided on normal forms and never by samples
    lam = opaque_lagrangian(n, m)
    rho = construct(lam)
    verdicts = _lepage_verdict(rho, ext_d(rho), lam)
    assert verdicts.passed, verdicts.witness()
    assert len(verdicts) == len(lam.chart.jet1_symbols()) + 1
    assert {label: res.decided_by for label, res in verdicts.items()
            if res.decided_by != "structural"} == {}
