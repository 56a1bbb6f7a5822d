"""Positive homogeneity of velocity functions.

Residuals of the homogeneity identities, numeric equivariance under the
orientation-preserving linear group, the differentiated identities of
homogeneous functions, and the projection onto the quotient chart obtained
by extracting the selected-minor determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .charts import AdaptedChart, GroupElement, JetChart, gl_act
from .expr import (
    DomainError, EqualResult, Expr, ExprError, Sym, ZERO, diff, equal,
    evaluate, expr_sum, free_symbols, opaque_signatures, sample_assignment,
    sym_expr,
)

__all__ = [
    "ZermeloReport", "EquivarianceResult", "zermelo_residuals",
    "check_equivariance", "grassmann_projection", "grassmann_form",
]


@dataclass
class ZermeloReport:
    """Residuals of the homogeneity identities, one per base-index pair."""

    chart: JetChart
    residuals: Mapping[tuple[int, int], Expr]
    verdicts: Mapping[tuple[int, int], EqualResult]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def witness(self) -> tuple[tuple[int, int], EqualResult] | None:
        """The first index pair in sorted order whose verdict is not equal."""
        return next(((key, v) for key, v in sorted(self.verdicts.items())
                     if not v), None)

    def describe(self) -> str:
        bad = self.witness()
        if bad is None:
            return "all residuals vanish"
        (j, l), verdict = bad
        return f"residual at (j={j}, l={l}) is {verdict.describe()}"


def zermelo_residuals(F: Expr, chart: JetChart, *, trials: int = 50,
                      tol: float = 1e-9, seed: int = 0,
                      guards: Sequence[Expr] = ()) -> ZermeloReport:
    """Residual matrix of the homogeneity identities for a velocity function."""
    chart.validate_expr(F, max_order=1)
    residuals: dict[tuple[int, int], Expr] = {}
    verdicts: dict[tuple[int, int], EqualResult] = {}
    for j in range(1, chart.n + 1):
        for l in range(1, chart.n + 1):
            contracted = expr_sum(
                diff(F, Sym("y1", K, j)) * sym_expr(Sym("y1", K, l))
                for K in range(1, chart.M + 1))
            residual = contracted - F if j == l else contracted
            residuals[(j, l)] = residual
            verdicts[(j, l)] = equal(residual, ZERO, trials=trials, tol=tol,
                                     seed=seed, guards=guards)
    return ZermeloReport(chart, residuals, verdicts)


@dataclass
class EquivarianceResult:
    verdict: str  # 'equal' | 'unequal' | 'unknown'
    samples: int = 0
    max_deviation: float = 0.0
    witness: object = None

    def __bool__(self):
        return self.verdict == "equal"

    def describe(self) -> str:
        if self.verdict == "equal":
            return (f"equivariant over {self.samples} samples "
                    f"(max deviation {self.max_deviation:.3e})")
        if self.verdict == "unknown":
            return "all samples skipped by domain guards"
        return f"not equivariant, witness {self.witness}"


def check_equivariance(F: Expr, chart: JetChart, *, trials: int = 20,
                       tol: float = 1e-9, seed: int = 0,
                       guards: Sequence[Expr] = ()) -> EquivarianceResult:
    """Sample the determinant-weighted equivariance of a velocity function."""
    chart.validate_expr(F, max_order=1)
    symbols = set(free_symbols(F))
    symbols.update(Sym("y1", K, j) for K in range(1, chart.M + 1)
                   for j in range(1, chart.n + 1))
    signatures = opaque_signatures(F)
    used = 0
    worst = 0.0
    for trial in range(trials):
        assign = sample_assignment(sorted(symbols, key=lambda s: s.key),
                                   signatures, seed=seed, trial=trial)
        rng = np.random.default_rng((seed + 1) * 7919 + trial)
        a = GroupElement.random_near_identity(chart.n, rng)
        try:
            for g in guards:
                if abs(evaluate(g, assign)) <= 1e-3:
                    raise DomainError("guard too small")
            va = evaluate(F, assign)
            vb = evaluate(F, gl_act(assign, a, chart))
        except DomainError:
            continue
        used += 1
        target = a.det() * va
        deviation = abs(vb - target) / max(1.0, abs(vb), abs(target))
        worst = max(worst, deviation)
        if deviation > tol:
            return EquivarianceResult("unequal", samples=used,
                                      max_deviation=worst,
                                      witness={"point": assign.describe(),
                                               "matrix": a.entries,
                                               "deviation": deviation})
    if used == 0:
        return EquivarianceResult("unknown")
    return EquivarianceResult("equal", samples=used, max_deviation=worst)


def grassmann_projection(F: Expr, adapted: AdaptedChart, *, trials: int = 30,
                         tol: float = 1e-9, seed: int = 0) -> Expr:
    """Quotient-chart factor of a homogeneous function.

    Rewrites F into the adapted chart and divides off the selected-minor
    determinant; the quotient must not retain any minor entries, which is
    exactly the homogeneity of F.
    """
    Fw = adapted.to_adapted(F)
    det_w = adapted.minor_det_w()
    FG = Fw / det_w
    minor_syms = {Sym("w1", it, j) for it in adapted.selected
                  for j in range(1, adapted.chart.n + 1)}
    leftovers = sorted(minor_syms & set(free_symbols(FG)),
                       key=lambda s: s.key)
    if leftovers:
        raise ExprError(
            "function does not factor through the quotient chart; residual "
            f"dependence on {', '.join(map(str, leftovers))} (is it "
            "positive homogeneous?)")
    check = equal(Fw, det_w * FG, trials=trials, tol=tol, seed=seed,
                  guards=[det_w])
    if check.verdict == "unequal":
        raise ExprError("projection verification failed: " + check.describe())
    return FG


def grassmann_form(hform, adapted: AdaptedChart) -> "DiffForm":
    """Quotient-chart version of a horizontal form with degree-zero coefficients.

    Fiber differentials become their quotient-chart namesakes; coefficients
    are rewritten into the adapted chart and must come out free of the
    selected-minor entries, which holds exactly when they are homogeneous of
    degree zero in the velocities.
    """
    from .forms import DiffForm, dw, form, zero_form
    chart = adapted.chart
    minor_syms = {Sym("w1", it, j) for it in adapted.selected
                  for j in range(1, chart.n + 1)}
    terms = {}
    for word, coeff in hform.form.terms.items():
        value = adapted.to_adapted(coeff)
        leftovers = sorted(minor_syms & set(free_symbols(value)),
                           key=lambda s: s.key)
        if leftovers:
            raise ExprError(
                "coefficient does not descend to the quotient chart; "
                f"residual dependence on {', '.join(map(str, leftovers))}")
        terms[tuple(dw(c.a) for c in word)] = value
    if not terms:
        return zero_form(chart, hform.form.degree, "adapted", adapted=adapted)
    return form(chart, "adapted", terms, adapted=adapted)
