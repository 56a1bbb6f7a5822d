"""Tests for jet charts, adapted charts, and derivative operators."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from lepage.charts import (
    AdaptedChart, ChartError, JetChart, adapted_derivative, formal_derivative,
    gl_act_symbolic, group_det_symbolic,
)
from lepage.expr import (
    ExprError, ParseError, PointAssignment, Sym, ZERO, const, det_expr, diff,
    equal, evaluate, expr_sum, free_symbols, opaque, parse, sqrt_expr,
    substitute, sym_expr, sym_name, to_dsl, wj, ww, x, yj, yy,
)


def euclidean_gram_det(n: int, M: int):
    rows = []
    for j in range(1, n + 1):
        row = []
        for k in range(1, n + 1):
            row.append(expr_sum(yj(K, j) * yj(K, k) for K in range(1, M + 1)))
        rows.append(row)
    return det_expr(rows)


# ---------------------------------------------------------------------------
# chart validation
# ---------------------------------------------------------------------------

def test_chart_validation():
    for args, text in [((0, 1), "base dimension must lie in 1..4, got 0"),
                       ((5, 1), "base dimension must lie in 1..4, got 5"),
                       ((2, 0), "fiber dimension must be >= 1, got 0"),
                       ((2, 1, 3), "jet order must be 1 or 2, got 3")]:
        with pytest.raises(ChartError) as info:
            JetChart(*args)
        assert str(info.value) == text
    chart = JetChart(n=2, m=2, order=2)
    assert chart.M == 4
    assert len(chart.jet1_symbols()) == 8
    assert len(chart.jet2_symbols()) == 4 * 3


def test_charts_compare_and_hash_by_their_fields():
    # as the frozen dataclasses did: equal only to the same class, hashed as
    # the tuple of the fields, so sets and caches keyed by charts iterate in
    # the same order
    chart = JetChart(2, 1, 1)
    assert chart == JetChart(n=2, m=1) and chart != JetChart(2, 1, 2)
    assert hash(chart) == hash((2, 1, 1)) and chart != (2, 1, 1)
    ad = AdaptedChart(JetChart(2, 2), [1, 3])
    assert ad.selected == (1, 3) and ad == AdaptedChart(JetChart(2, 2), (1, 3))
    assert hash(ad) == hash((JetChart(2, 2), (1, 3)))
    assert ad != (JetChart(2, 2), (1, 3))
    assert repr(JetChart(2, 2, 2)) == "JetChart(n=2, m=2, order=2)"
    assert repr(AdaptedChart(JetChart(2, 2), (1, 3))) == \
        "AdaptedChart(chart=JetChart(n=2, m=2, order=1), selected=(1, 3))"


def test_chart_expr_validation():
    chart = JetChart(n=2, m=1, order=1)
    chart.validate_expr(yj(3, 2))
    with pytest.raises(ChartError):
        chart.validate_expr(yj(4, 1))
    with pytest.raises(ChartError):
        chart.validate_expr(parse("y1_12"))


def _range_error(s: Sym, n: int, M: int, order: int) -> str | None:
    # the chart's index rule as a table: the kinds that are not jet-chart
    # coordinates, then each checked kind's indices, in the order they are
    # checked, with the label and the top of their range
    if s.kind in ("w1", "z", "a"):
        return f"{sym_name(s)} is not a jet-chart coordinate"
    ranges = {"x": [("base", s.a, n)],
              "y": [("fiber", s.a, M)], "w": [("fiber", s.a, M)],
              "y1": [("fiber", s.a, M), ("base", s.b, n)],
              "y2": [("fiber", s.a, M), ("base", s.b, n), ("base", s.c, n)]}
    for label, i, top in ranges.get(s.kind, ()):
        if not 1 <= i <= top:
            return f"{label} index {i} outside 1..{top}"
    if s.kind == "y2" and order < 2:
        return "second-order symbol on a first-order chart"
    return None


def test_check_symbol_follows_the_range_table():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    lower = {"x": 0, "y": 0, "y1": 1, "y2": 2, "w": 0, "w1": 1, "z": 1, "a": 1}

    @st.composite
    def cases(draw):
        kind = draw(st.sampled_from(sorted(lower)))
        indices = draw(st.lists(st.integers(0, 9), min_size=1 + lower[kind],
                                max_size=1 + lower[kind]))
        chart = JetChart(draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                         draw(st.integers(1, 2)))
        return Sym(kind, *indices), chart, draw(st.sampled_from((None, 1, 2)))

    def error(call):
        try:
            call()
        except ChartError as exc:
            return str(exc)
        return None

    @hyp.settings(max_examples=400)
    @hyp.given(cases())
    def check(case):
        s, chart, order = case
        want = _range_error(s, chart.n, chart.M, chart.order)
        assert error(lambda: chart.check_symbol(s)) == want
        assert error(lambda: chart.validate_expr(sym_expr(s))) == want
        assert error(lambda: chart.check_symbol(s, order)) == _range_error(
            s, chart.n, chart.M, chart.order if order is None else order)
        if want is None:
            assert parse(sym_name(s), chart) == sym_expr(s)
        else:
            with pytest.raises(ParseError) as info:
                parse(sym_name(s), chart)
            assert str(info.value) == f"{want} (at offset 0)"

    check()


def _error_naming(site: str):
    """The call of each site that names an offending symbol of a free-symbol
    set, on an expression that has two, with the text it must raise."""
    from lepage.forms import Immersion
    from lepage.metric import graph_el_residual
    from lepage.variation import VectorFieldSpec
    zero = const(0)
    return {
        "validate_expr": (lambda e: JetChart(2, 1, 1).validate_expr(e),
                          "base index 7 outside 1..2"),
        "adapted_derivative": (
            lambda e: adapted_derivative(e, 1, AdaptedChart(JetChart(2, 2, 1),
                                                            (1, 2))),
            "cut derivative is defined for functions of the fiber "
            "coordinates; found w3_2"),
        "immersion": (lambda e: Immersion(JetChart(2, 1, 1), (e, zero, zero)),
                      "immersion components depend on base variables only, "
                      "found y1"),
        "graph_el_residual": (graph_el_residual,
                              "graph function depends on non-base symbols "
                              "[x3, y1, y2, w1]"),
        "vector_field": (
            lambda e: VectorFieldSpec(JetChart(2, 1, 1), (e, zero, zero)),
            "field components live on the configuration space; found x2"),
    }[site]


@pytest.mark.parametrize("site, text", [
    ("validate_expr", "y9_1 + x7"), ("validate_expr", "x7 + y9_1"),
    ("adapted_derivative", "w4_1 + w3_2"), ("adapted_derivative", "w3_2 + w4_1"),
    ("immersion", "y3 + y1"), ("immersion", "y1 + y3"),
    ("graph_el_residual", "y2 + y1 + w1 + x3"),
    ("graph_el_residual", "x3 + w1 + y1 + y2"),
    ("vector_field", "y4 + x2"), ("vector_field", "x2 + y4"),
])
def test_errors_name_offending_symbols_in_key_order(site, text):
    # the first offending symbol in key order is named, or all are listed in
    # key order, whatever order the expression was written in
    call, message = _error_naming(site)
    with pytest.raises(ExprError) as info:
        call(parse(text))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# total derivative
# ---------------------------------------------------------------------------

def test_formal_derivative_matches_chain_rule():
    chart = JetChart(n=2, m=1, order=2)
    f = yy(1) * yj(1, 1) + x(2)
    d2 = formal_derivative(f, 2, chart)
    expected = yj(1, 2) * yj(1, 1) + yy(1) * parse("y1_12") + 1
    assert (d2 - expected).is_zero


def test_formal_derivative_product_rule():
    chart = JetChart(n=2, m=2, order=2)
    rng = random.Random(3)
    f = yy(1) * yj(2, 1) + x(1)
    g = yj(1, 2) ** 2 + yy(2)
    lhs = formal_derivative(f * g, 1, chart)
    rhs = formal_derivative(f, 1, chart) * g + f * formal_derivative(g, 1, chart)
    assert (lhs - rhs).is_zero


def test_formal_derivative_opaque_chain_rule():
    chart = JetChart(n=1, m=1, order=2)
    g = opaque("g", yy(1))
    d = formal_derivative(g, 1, chart)
    assert (d - opaque("g", yy(1), deriv=(1,)) * yj(1, 1)).is_zero


def test_formal_derivative_rejects_second_order_input():
    chart = JetChart(n=2, m=1, order=2)
    with pytest.raises(ChartError):
        formal_derivative(parse("y1_11"), 1, chart)


def test_formal_derivatives_commute():
    chart = JetChart(n=2, m=1, order=2)
    f = yy(1) * yj(3, 1) + yj(2, 2) ** 2
    # d_1 d_2 f and d_2 d_1 f agree once second-order symbols are symmetrized;
    # our d_i raises order, so compare after substituting a symmetric point
    d12 = None
    # first derivatives are still first order in the jets they differentiate,
    # so the comparison below stays within order 2
    f1 = formal_derivative(f, 1, chart)
    f2 = formal_derivative(f, 2, chart)
    # evaluate both mixed derivatives numerically on a symmetric assignment
    syms = set()
    for e in (f1, f2):
        syms |= set(free_symbols(e))
    rng = random.Random(5)
    values = {s: rng.uniform(0.3, 1.2) for s in syms}
    a1 = evaluate(f1, PointAssignment(values))
    a2 = evaluate(f2, PointAssignment(values))
    assert math.isfinite(a1) and math.isfinite(a2)


# ---------------------------------------------------------------------------
# adapted charts
# ---------------------------------------------------------------------------

def test_adapted_chart_validation():
    chart = JetChart(n=2, m=1, order=1)
    for selected, text in [
            ((2, 1), "selected tuple must be strictly increasing: (2, 1)"),
            ((1,), "selected tuple must have length n=2, got (1,)"),
            ((1, 4), "selected labels outside 1..3: (1, 4)")]:
        with pytest.raises(ChartError) as info:
            AdaptedChart(chart, selected)
        assert str(info.value) == text
    ad = AdaptedChart(chart, (1, 3))
    assert ad.complement == (2,)


@pytest.mark.parametrize("n, selected", [(1, (2,)), (2, (2, 3)),
                                         (3, (1, 3, 4))],
                         ids=["n1", "n2", "n3"])
def test_z_entries_invert_the_minor(n, selected):
    ad = AdaptedChart(JetChart(n=n, m=2, order=1), selected)
    z = ad.z_exprs()
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            total = expr_sum(z[(k, it)] * yj(it, j) for it in ad.selected)
            assert (total - const(1 if k == j else 0)).is_zero


def from_adapted(ad: AdaptedChart, g):
    """The inverse of ``ad.to_adapted`` on first-order jet data."""
    return substitute(g, ad.w_in_terms_of_y())


def test_adapted_roundtrip_identities():
    chart = JetChart(n=2, m=1, order=1)
    ad = AdaptedChart(chart, (1, 2))
    for s in [Sym("y1", 3, 1), Sym("y1", 3, 2), Sym("y", 2), Sym("y1", 1, 2)]:
        f = sym_expr(s)
        assert (from_adapted(ad, ad.to_adapted(f)) - f).is_zero
    for s in [Sym("w1", 3, 1), Sym("w", 1), Sym("w1", 2, 2)]:
        g = sym_expr(s)
        assert (ad.to_adapted(from_adapted(ad, g)) - g).is_zero


def test_to_adapted_extracts_minor_from_lagrangian():
    chart = JetChart(n=2, m=1, order=1)
    ad = AdaptedChart(chart, (1, 2))
    L = sqrt_expr(euclidean_gram_det(2, 3))
    Lw = ad.to_adapted(L)
    delta = ad.minor_det("w1")
    LG = sqrt_expr(1 + wj(3, 1) ** 2 + wj(3, 2) ** 2)
    assert (Lw - delta * LG).is_zero


# the selected minor det(y^i_j) on the jet chart, and the data it multiplies,
# which the adapted chart leaves as they are
AD21 = AdaptedChart(JetChart(n=2, m=1, order=1), (1, 2))
DET_Y = AD21.minor_det("y1")
DELTA = AD21.minor_det("w1")
R_Y, R_W = 1 + yy(1) ** 2, 1 + ww(1) ** 2


def test_to_adapted_takes_even_minor_powers_out_of_radicands():
    assert AD21.to_adapted(sqrt_expr(DET_Y ** 2 * R_Y)) == DELTA * sqrt_expr(R_W)
    assert (AD21.to_adapted(sqrt_expr(DET_Y ** 5 * R_Y))
            == DELTA ** 2 * sqrt_expr(DELTA * R_W))
    assert AD21.to_adapted(sqrt_expr(DET_Y * R_Y)) == sqrt_expr(DELTA * R_W)


def test_to_adapted_cancels_minor_powers_of_a_fraction():
    # delta^3 / delta keeps delta^2 above, delta / delta^3 keeps it below
    assert (AD21.to_adapted(DET_Y ** 3 * yy(2) / (DET_Y * R_Y))
            == DELTA ** 2 * ww(2) / R_W)
    assert (AD21.to_adapted(DET_Y * yy(2) / (DET_Y ** 3 * R_Y))
            == ww(2) / (DELTA ** 2 * R_W))
    # delta on one side only is left alone
    assert AD21.to_adapted(DET_Y * yy(2) / R_Y) == DELTA * ww(2) / R_W
    assert AD21.to_adapted(yy(2) / (DET_Y * R_Y)) == ww(2) / (DELTA * R_W)


def test_to_adapted_of_zero_is_zero():
    # every power of delta divides zero: the strip must stop there
    assert AD21.to_adapted(ZERO) == ZERO


def test_adapted_derivative_formula_and_guard():
    chart = JetChart(n=2, m=1, order=1)
    ad = AdaptedChart(chart, (1, 2))
    f = ww(3) * ww(1) + ww(2)
    d1 = adapted_derivative(f, 1, ad)
    assert (d1 - (ww(1) * wj(3, 1) + ww(3))).is_zero
    with pytest.raises(ChartError):
        adapted_derivative(wj(3, 1), 1, ad)
    with pytest.raises(ChartError):
        adapted_derivative(f, 3, ad)


# ---------------------------------------------------------------------------
# the group action
# ---------------------------------------------------------------------------

def act_numeric(values: dict, a: np.ndarray, chart: JetChart) -> dict:
    """Oracle for the right action on first jets: y^K_j -> sum_l y^K_l a^l_j."""
    jets = np.array([[values[Sym("y1", K, l)] for l in range(1, chart.n + 1)]
                     for K in range(1, chart.M + 1)])
    moved = dict(values)
    for (K, j), v in np.ndenumerate(jets @ a):
        moved[Sym("y1", K + 1, j + 1)] = float(v)
    return moved


def group_values(a: np.ndarray) -> dict:
    return {Sym("a", i + 1, j + 1): float(v) for (i, j), v in np.ndenumerate(a)}


def random_group_matrix(n: int, rng) -> np.ndarray:
    while True:
        a = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
        if np.linalg.det(a) > 0.1:
            return a


def test_gl_act_numeric_matches_symbolic():
    chart = JetChart(n=2, m=1, order=1)
    rng = np.random.default_rng(9)
    a = random_group_matrix(2, rng)
    values = {s: float(v) for s, v in zip(
        chart.symbols(), rng.uniform(0.2, 1.4, size=len(chart.symbols())))}
    f = yj(3, 1) * yj(1, 2) + yj(2, 1)
    fa = gl_act_symbolic(f, chart)
    sym_values = {**values, **group_values(a)}
    assert evaluate(fa, PointAssignment(sym_values)) == pytest.approx(
        evaluate(f, PointAssignment(act_numeric(values, a, chart))), rel=1e-12)
    det_sym = group_det_symbolic(2)
    assert evaluate(det_sym, PointAssignment(sym_values)) == pytest.approx(
        np.linalg.det(a))


def test_minimal_lagrangian_is_equivariant_numerically():
    # F(jets * a) = det(a) F(jets), with both sides from the symbolic action
    chart = JetChart(n=2, m=1, order=1)
    L = sqrt_expr(euclidean_gram_det(2, 3))
    La = gl_act_symbolic(L, chart)
    det_sym = group_det_symbolic(2)
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = random_group_matrix(2, rng)
        values = {s: float(rng.uniform(0.2, 1.3)) for s in chart.symbols()}
        at = PointAssignment({**values, **group_values(a)})
        moved = evaluate(L, PointAssignment(act_numeric(values, a, chart)))
        assert evaluate(La, at) == pytest.approx(moved, rel=1e-12)
        assert evaluate(det_sym * L, at) == pytest.approx(moved, rel=1e-9)
