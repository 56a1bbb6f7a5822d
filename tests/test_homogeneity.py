"""Tests for homogeneity residuals, equivariance, and quotient projection."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lepage.charts import AdaptedChart, JetChart
from lepage.expr import (
    ExprError, ONE, Sym, const, diff, equal, expr_sum, sqrt_expr, sym_expr,
    to_dsl, wj, x, yj, yy,
)
from lepage.homogeneity import (
    check_equivariance, grassmann_projection, zermelo_residuals,
)

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
    report = zermelo_residuals(F, chart, trials=10, seed=1)
    assert report.passed
    assert report.describe() == "all residuals vanish"


@pytest.mark.parametrize("label,chart,F", INHOMOGENEOUS,
                         ids=[h[0] for h in INHOMOGENEOUS])
def test_zermelo_fails_for_inhomogeneous(label, chart, F):
    report = zermelo_residuals(F, chart, trials=10, seed=1)
    assert not report.passed
    key, verdict = report.witness()
    assert verdict.verdict == "unequal"
    assert "residual at" in report.describe()


def test_zermelo_residual_values():
    # for F = y^1_1 + 1 the (1,1) residual is exactly -1
    report = zermelo_residuals(yj(1, 1) + const(1), CH21, trials=5, seed=1)
    assert equal(report.residuals[(1, 1)], -ONE)
    assert equal(report.residuals[(1, 2)], yj(1, 2))
    assert report.residuals[(2, 1)].is_zero
    # for F = (y^1_1)^2 the (1,1) residual equals F itself
    report2 = zermelo_residuals(yj(1, 1) ** 2, CH21, trials=5, seed=1)
    assert equal(report2.residuals[(1, 1)], yj(1, 1) ** 2)


def test_zermelo_polynomial_cases_close_symbolically():
    # polynomial homogeneous functions give exact zero residuals
    F = yj(1, 1) * yj(2, 2) - yj(2, 1) * yj(1, 2)
    report = zermelo_residuals(F, CH21, trials=5, seed=1)
    assert all(r.is_zero for r in report.residuals.values())


def test_check_zermelo_wrapper():
    assert zermelo_residuals(area_function(CH21), CH21, trials=8,
                             seed=2).passed
    assert not zermelo_residuals(yj(1, 1) ** 2, CH21, trials=8,
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
    res = check_equivariance(F, chart, trials=8, seed=4)
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
    res = check_equivariance(F, chart, trials=8, seed=4)
    assert res.verdict == "unequal"
    assert res.witness is not None
    assert Sym("a", 1, 1) in res.witness.symbols
    assert "a1_1=" in res.describe()


def test_equivariance_skips_samples_a_caller_guard_rejects():
    # a guard at or below GUARD_EPS skips the sample, negative ones included
    res = check_equivariance(area_function(CH21), CH21, trials=8, seed=4,
                             guards=[-ONE])
    assert res.verdict == "unknown" and not res
    assert res.samples == 0


# ---------------------------------------------------------------------------
# quotient projection
# ---------------------------------------------------------------------------

def test_projection_curve_speed():
    ad = AdaptedChart(CH11, (1,))
    F = sqrt_expr(yj(1, 1) ** 2 + yj(2, 1) ** 2)
    G = grassmann_projection(F, ad, trials=6, seed=5)
    assert equal(G, sqrt_expr(ONE + wj(2, 1) ** 2))


def test_projection_area_m1():
    ad = AdaptedChart(CH21, (1, 2))
    G = grassmann_projection(area_function(CH21), ad, trials=6, seed=5)
    assert equal(G, sqrt_expr(ONE + wj(3, 1) ** 2 + wj(3, 2) ** 2),
                 guards=[ONE + wj(3, 1) ** 2 + wj(3, 2) ** 2])


def test_projection_area_m2():
    ad = AdaptedChart(CH22, (1, 2))
    G = grassmann_projection(area_function(CH22), ad, trials=6, seed=5)
    minors = (wj(3, 1) * wj(4, 2) - wj(4, 1) * wj(3, 2)) ** 2
    slopes = expr_sum(wj(s, i) ** 2 for s in (3, 4) for i in (1, 2))
    assert equal(G, sqrt_expr(ONE + slopes + minors))


def test_projection_polynomial():
    ad = AdaptedChart(CH21, (1, 2))
    F = yj(1, 1) * yj(2, 2) - yj(2, 1) * yj(1, 2)
    G = grassmann_projection(F, ad, trials=6, seed=5)
    assert equal(G, ONE)


def test_projection_respects_other_selections():
    # selecting rows (1, 3) swaps the roles of the fiber components
    ad = AdaptedChart(CH21, (1, 3))
    G = grassmann_projection(area_function(CH21), ad, trials=6, seed=5)
    assert equal(G, sqrt_expr(ONE + wj(2, 1) ** 2 + wj(2, 3) ** 2))


def test_projection_rejects_inhomogeneous():
    ad = AdaptedChart(CH21, (1, 2))
    with pytest.raises(ExprError):
        grassmann_projection(yj(1, 1) ** 2, ad, trials=6, seed=5)
    with pytest.raises(ExprError):
        grassmann_projection(yj(1, 1) + const(1), ad, trials=6, seed=5)


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


def fresh_python(code: str) -> str:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_symbolic_modules_load_no_numpy():
    code = ("import sys, lepage.equivalents, lepage.homogeneity; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy')))")
    assert fresh_python(code).strip() == "[]"
    assert fresh_python(CLI_NO_NUMPY).splitlines() == \
        [str([0] * 9), "[]", "False", "0"]


def test_every_layer_loads_without_openssl():
    # the sampler's blake2b comes from _blake2, not hashlib
    code = "import sys, lepage.acceptance; print('_hashlib' in sys.modules)"
    assert fresh_python(code).strip() == "False"
