"""Tests for homogeneity residuals, equivariance, and quotient projection."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from conftest import fresh_python
from lepage.charts import AdaptedChart, JetChart
from lepage.equivalents import (
    HorizontalNForm, Lagrangian, fundamental_homogeneous,
)
from lepage.expr import (
    ExprError, ONE, Sym, const, diff, equal, expr_sum, sqrt_expr, sym_expr,
    to_dsl, wj, x, yj, yy,
)
from lepage.homogeneity import (
    check_equivariance, grassmann_form, grassmann_projection,
    zermelo_residual, zermelo_residuals,
)
from lepage.metric import MetricSpec, krupka_form, minimal_lagrangian

CH21 = JetChart(n=2, m=1, order=1)
CH22 = JetChart(n=2, m=2, order=1)
CH11 = JetChart(n=1, m=1, order=1)


def area_function(chart: JetChart):
    M = chart.M
    return sqrt_expr(expr_sum(
        (yj(K1, 1) * yj(K2, 2) - yj(K2, 1) * yj(K1, 2)) ** 2
        for K1 in range(1, M + 1) for K2 in range(K1 + 1, M + 1)))


HOMOGENEOUS = [
    ("area m=1", CH21, area_function(CH21)),
    ("area m=2", CH22, area_function(CH22)),
    ("curve speed", CH11, sqrt_expr(yj(1, 1) ** 2 + yj(2, 1) ** 2)),
    ("skew pairing", CH22,
     yj(1, 1) * yj(2, 2) - yj(2, 1) * yj(1, 2)
     + yj(3, 1) * yj(4, 2) - yj(4, 1) * yj(3, 2)),
    ("determinant", CH21, yj(1, 1) * yj(2, 2) - yj(2, 1) * yj(1, 2)),
]

INHOMOGENEOUS = [
    ("affine", CH21, yj(1, 1) + const(1)),
    ("quadratic", CH21, yj(1, 1) ** 2),
    ("dirichlet", CH21, expr_sum(yj(3, j) ** 2 for j in (1, 2))),
    ("graph area", CH21, sqrt_expr(ONE + yj(3, 1) ** 2 + yj(3, 2) ** 2)),
]


# ---------------------------------------------------------------------------
# residual identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,chart,F", HOMOGENEOUS,
                         ids=[h[0] for h in HOMOGENEOUS])
def test_zermelo_passes_for_homogeneous(label, chart, F):
    report = zermelo_residuals(Lagrangian(chart, F), trials=10, seed=1)
    assert report.passed
    assert report.witness() is None


@pytest.mark.parametrize("label,chart,F", INHOMOGENEOUS,
                         ids=[h[0] for h in INHOMOGENEOUS])
def test_zermelo_fails_for_inhomogeneous(label, chart, F):
    report = zermelo_residuals(Lagrangian(chart, F), trials=10, seed=1)
    assert not report.passed
    key, verdict = report.witness()
    assert verdict.verdict == "unequal"
    assert key in report and not report[key]


def test_zermelo_residual_values():
    # for F = y^1_1 + 1 the (1,1) residual is exactly -1
    F = Lagrangian(CH21, yj(1, 1) + const(1))
    assert equal(zermelo_residual(F, 1, 1), -ONE)
    assert equal(zermelo_residual(F, 1, 2), yj(1, 2))
    assert zermelo_residual(F, 2, 1).is_zero
    # for F = (y^1_1)^2 the (1,1) residual equals F itself
    assert equal(zermelo_residual(Lagrangian(CH21, yj(1, 1) ** 2), 1, 1),
                 yj(1, 1) ** 2)


def test_zermelo_polynomial_cases_close_symbolically():
    # polynomial homogeneous functions give exact zero residuals
    F = Lagrangian(CH21, yj(1, 1) * yj(2, 2) - yj(2, 1) * yj(1, 2))
    report = zermelo_residuals(F, trials=5, seed=1)
    assert all(r.decided_by == "structural" for r in report.values())
    assert all(zermelo_residual(F, j, l).is_zero for j, l in report)


def test_zermelo_residual_is_the_contracted_identity():
    # the oracle differentiates F itself; the residual reads the table
    for _, chart, F in HOMOGENEOUS + INHOMOGENEOUS:
        lam = Lagrangian(chart, F)
        for j in range(1, chart.n + 1):
            for l in range(1, chart.n + 1):
                want = expr_sum(diff(F, Sym("y1", K, j))
                                * sym_expr(Sym("y1", K, l))
                                for K in range(1, chart.M + 1))
                if j == l:
                    want = want - F
                assert zermelo_residual(lam, j, l) == want


def test_zermelo_residuals_read_the_derivative_table(monkeypatch):
    import lepage.equivalents as equivalents
    lam = Lagrangian(CH22, area_function(CH22))
    assert zermelo_residuals(lam, trials=5, seed=1).passed
    first = [((K, j),) for K in range(1, CH22.M + 1)
             for j in range(1, CH22.n + 1)]
    assert set(lam._derivatives) == {()} | set(first)
    # the homogeneous construction then differentiates only the first
    # derivatives, each second-order entry of its n-th tensor once
    firsts = [lam.derivative(k) for k in first]
    differentiated = []

    def counting(e, s):
        differentiated.append(e)
        return diff(e, s)
    monkeypatch.setattr(equivalents, "diff", counting)
    fundamental_homogeneous(lam, verify=False)
    assert len(differentiated) == CH22.M ** 2
    assert all(any(e is d for d in firsts) for e in differentiated)


def test_check_zermelo_wrapper():
    assert zermelo_residuals(Lagrangian(CH21, area_function(CH21)), trials=8,
                             seed=2).passed
    assert not zermelo_residuals(Lagrangian(CH21, yj(1, 1) ** 2), trials=8,
                                 seed=2).passed


def test_differentiated_identity():
    # jet-differentiating the contracted identity once:
    # sum_K F_{(K,j)(P,s)} y^K_l = delta^j_l F_{(P,s)} - delta^s_l F_{(P,j)}
    F = area_function(CH21)
    chart = CH21
    for (j, l, P, s) in [(1, 1, 3, 2), (1, 2, 1, 1), (2, 2, 2, 1)]:
        lhs = expr_sum(
            diff(diff(F, Sym("y1", K, j)), Sym("y1", P, s))
            * sym_expr(Sym("y1", K, l))
            for K in range(1, chart.M + 1))
        rhs = ZERO_ = const(0)
        if j == l:
            rhs = rhs + diff(F, Sym("y1", P, s))
        if s == l:
            rhs = rhs - diff(F, Sym("y1", P, j))
        assert equal(lhs, rhs, trials=8, seed=3)


# ---------------------------------------------------------------------------
# group equivariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,chart,F", HOMOGENEOUS,
                         ids=[h[0] for h in HOMOGENEOUS])
def test_equivariance_matches_homogeneity(label, chart, F):
    res = check_equivariance(Lagrangian(chart, F), trials=8, seed=4)
    assert res.verdict == "equal"
    if "sqrt" in to_dsl(F):
        assert res.samples > 0
    else:
        # a polynomial identity holds coefficient by coefficient
        assert res.samples == 0
    assert res.describe().startswith("equal (")


@pytest.mark.parametrize("label,chart,F", INHOMOGENEOUS,
                         ids=[h[0] for h in INHOMOGENEOUS])
def test_equivariance_detects_failure(label, chart, F):
    res = check_equivariance(Lagrangian(chart, F), trials=8, seed=4)
    assert res.verdict == "unequal"
    assert res.witness is not None
    assert Sym("a", 1, 1) in res.witness.symbols
    assert "a1_1=" in res.describe()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equivariance_counts_every_trial(seed):
    # the group element is drawn near the identity, where det stays above
    # the guard, so no trial is skipped
    for chart, F in ((CH21, area_function(CH21)),
                     (CH11, sqrt_expr(yj(1, 1) ** 2 + yj(2, 1) ** 2))):
        res = check_equivariance(Lagrangian(chart, F), trials=20, seed=seed)
        assert res.verdict == "equal" and res.samples == 20
        assert res.skipped == {"guard": 0, "domain": 0, "overflow": 0}
    # the squared speed is homogeneous of degree 2, not 1: not equivariant
    control = check_equivariance(
        Lagrangian(CH11, yj(1, 1) ** 2 + yj(2, 1) ** 2), trials=20, seed=seed)
    assert control.verdict == "unequal"


def test_equivariance_skips_samples_a_caller_guard_rejects():
    # a guard at or below GUARD_EPS skips the sample, negative ones included
    res = check_equivariance(Lagrangian(CH21, area_function(CH21)), trials=8,
                             seed=4, guards=[-ONE])
    assert res.verdict == "unknown" and not res
    assert res.samples == 0


# ---------------------------------------------------------------------------
# quotient projection
# ---------------------------------------------------------------------------

def test_projection_curve_speed():
    ad = AdaptedChart(CH11, (1,))
    F = sqrt_expr(yj(1, 1) ** 2 + yj(2, 1) ** 2)
    G = grassmann_projection(F, ad)
    assert equal(G, sqrt_expr(ONE + wj(2, 1) ** 2))


def test_projection_area_m1():
    ad = AdaptedChart(CH21, (1, 2))
    G = grassmann_projection(area_function(CH21), ad)
    assert equal(G, sqrt_expr(ONE + wj(3, 1) ** 2 + wj(3, 2) ** 2),
                 guards=[ONE + wj(3, 1) ** 2 + wj(3, 2) ** 2])


def test_projection_area_m2():
    ad = AdaptedChart(CH22, (1, 2))
    G = grassmann_projection(area_function(CH22), ad)
    minors = (wj(3, 1) * wj(4, 2) - wj(4, 1) * wj(3, 2)) ** 2
    slopes = expr_sum(wj(s, i) ** 2 for s in (3, 4) for i in (1, 2))
    assert equal(G, sqrt_expr(ONE + slopes + minors))


def test_projection_polynomial():
    ad = AdaptedChart(CH21, (1, 2))
    F = yj(1, 1) * yj(2, 2) - yj(2, 1) * yj(1, 2)
    G = grassmann_projection(F, ad)
    assert equal(G, ONE)


def test_projection_respects_other_selections():
    # selecting rows (1, 3) swaps the roles of the fiber components
    ad = AdaptedChart(CH21, (1, 3))
    G = grassmann_projection(area_function(CH21), ad)
    assert equal(G, sqrt_expr(ONE + wj(2, 1) ** 2 + wj(2, 3) ** 2))


def test_projection_rejects_inhomogeneous():
    ad = AdaptedChart(CH21, (1, 2))
    text = re.escape(
        "function does not factor through the quotient chart; residual "
        "dependence on w1_1, w1_2, w2_1, w2_2 (is it positive homogeneous?)")
    with pytest.raises(ExprError, match=f"^{text}$"):
        grassmann_projection(yj(1, 1) ** 2, ad)
    with pytest.raises(ExprError, match=f"^{text}$"):
        grassmann_projection(yj(1, 1) + const(1), ad)


def test_grassmann_form_rejects_a_coefficient_of_nonzero_degree():
    # the Krupka form's coefficients have degree zero, L times them degree one
    g = MetricSpec.euclidean(2)
    W = krupka_form(g, 1)
    scaled = HorizontalNForm(CH11, W.form.scale(minimal_lagrangian(g, 1).L))
    with pytest.raises(ExprError, match="^coefficient does not descend to the "
                       "quotient chart; residual dependence on w1_1$"):
        grassmann_form(scaled, AdaptedChart(CH11, (1,)))


# ---------------------------------------------------------------------------
# import graph
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

# The benchmark's nine symbolic CLI commands, each run at --seed 0 by the
# process below; numpy's package body imports numpy.* submodules, so none
# being loaded after them shows that the body never ran.  Nor do they load
# OpenSSL (_hashlib).  minsurf then needs numpy in the same process and must
# still find it.
CLI_NO_NUMPY = """
import contextlib, io, sys
from lepage.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))

arclength, minimal = "problems/arclength_r2.json", "problems/minimal_r3.json"
commands = [("derive-el", "--problem", arclength),
            ("check-zermelo", "--problem", arclength),
            ("noether", "--problem", minimal),
            ("lepage", "--problem", minimal, "--kind", "w")]
commands += [("check-lepage", "--problem", minimal, "--kind", kind)
             for kind in ("krupka", "poincare-cartan", "caratheodory",
                          "fundamental", "fundamental-homogeneous")]
print([run(*argv, "--seed", "0") for argv in commands])
print(sorted(m for m in sys.modules if m.startswith("numpy.")))
print("_hashlib" in sys.modules)
print(run("minsurf", "--grid", "17"))
"""


def test_symbolic_modules_load_no_numpy():
    code = ("import sys, lepage.equivalents, lepage.homogeneity; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy')))")
    assert fresh_python("-c", code, cwd=ROOT).stdout.strip() == "[]"
    out = fresh_python("-c", CLI_NO_NUMPY, cwd=ROOT).stdout
    assert out.splitlines() == [str([0] * 9), "[]", "False", "0"]


def test_every_layer_loads_without_openssl():
    # the sampler's blake2b comes from _blake2, not hashlib
    code = "import sys, lepage.acceptance; print('_hashlib' in sys.modules)"
    assert fresh_python("-c", code, cwd=ROOT).stdout.strip() == "False"
