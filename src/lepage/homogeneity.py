"""Positive homogeneity of velocity functions.

Residuals of the homogeneity identities, equivariance under the
orientation-preserving linear group, and the projection onto the quotient
chart obtained by extracting the selected-minor determinant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .charts import AdaptedChart, gl_act_symbolic, group_det_symbolic
from .expr import (
    EqualResult, Expr, ExprError, ONE, Sym, Verdicts, ZERO, const, equal,
    expr_sum, free_symbols, substitute, sym_expr,
)

__all__ = [
    "zermelo_residual", "zermelo_residuals",
    "check_equivariance", "grassmann_projection", "grassmann_form",
]


def zermelo_residual(lam: "Lagrangian", j: int, l: int) -> Expr:
    """Residual sum_K y^K_l dL/dy^K_j - delta^j_l L of one homogeneity
    identity, read from the Lagrangian's derivative table."""
    contracted = expr_sum(
        lam.derivative(((K, j),)) * sym_expr(Sym("y1", K, l))
        for K in range(1, lam.chart.M + 1))
    return contracted - lam.L if j == l else contracted


def zermelo_residuals(lam: "Lagrangian", *, trials: int = 50,
                      tol: float = 1e-9, seed: int = 0,
                      guards: Sequence[Expr] = ()) -> Verdicts:
    """Homogeneity identities of a Lagrange function, keyed by the
    base-index pair (j, l) in sorted order, each its residual's comparison
    with zero."""
    n = lam.chart.n
    return Verdicts(
        ((j, l), equal(zermelo_residual(lam, j, l), ZERO, trials=trials,
                       tol=tol, seed=seed, guards=guards))
        for j in range(1, n + 1) for l in range(1, n + 1))


def check_equivariance(lam: "Lagrangian", *, trials: int = 20,
                       tol: float = 1e-9, seed: int = 0,
                       guards: Sequence[Expr] = ()) -> EqualResult:
    """Decide L(y g) = det(g) L(y) over the orientation-preserving group.

    The group element is g = I + a / (4 n^2), near the identity, with the
    entries a^l_j sampled with the jets from +-[0.1, 2].  Each entry of
    g - I is then at most 1/(2 n^2), so ||g - I|| <= 1/(2 n) and
    det(g) >= (1 - 1/(2 n))^n >= 1/2: the guard det(g) > GUARD_EPS holds at
    every point, and only a caller's guard or the domain can skip a trial.
    Both sides are analytic in g on the connected group GL+, so an identity
    that holds near I holds on all of it.  A witness point names the a
    entries it was drawn at.
    """
    F, chart = lam.L, lam.chart
    n = chart.n
    scale = const(Fraction(1, 4 * n * n))
    near = {Sym("a", l, j): scale * sym_expr(Sym("a", l, j))
            + (ONE if l == j else ZERO)
            for l in range(1, n + 1) for j in range(1, n + 1)}
    det = substitute(group_det_symbolic(n), near)
    return equal(substitute(gl_act_symbolic(F, chart), near), det * F,
                 trials=trials, tol=tol, seed=seed, guards=[det, *guards])


def _descended(e: Expr, adapted: AdaptedChart, what: str, hint: str = "") -> Expr:
    # e, unless it still depends on selected-minor entries: then an error
    # naming them in key order, between what and hint
    minor = {Sym("w1", it, j) for it in adapted.selected
             for j in range(1, adapted.chart.n + 1)}
    leftovers = sorted(minor & set(free_symbols(e)), key=lambda s: s.key)
    if leftovers:
        raise ExprError(f"{what}; residual dependence on "
                        f"{', '.join(map(str, leftovers))}{hint}")
    return e


def grassmann_projection(F: Expr, adapted: AdaptedChart) -> Expr:
    """Quotient-chart factor of a homogeneous function.

    Rewrites F into the adapted chart and divides off the selected-minor
    determinant; the quotient must not retain any minor entries, which is
    exactly the homogeneity of F.
    """
    return _descended(adapted.to_adapted(F) / adapted.minor_det("w1"), adapted,
                      "function does not factor through the quotient chart",
                      " (is it positive homogeneous?)")


def grassmann_form(hform, adapted: AdaptedChart) -> "DiffForm":
    """Quotient-chart version of a horizontal form with degree-zero coefficients.

    Fiber differentials become their quotient-chart namesakes; coefficients
    are rewritten into the adapted chart and must come out free of the
    selected-minor entries, which holds exactly when they are homogeneous of
    degree zero in the velocities.
    """
    from .forms import DiffForm, dw, form
    chart = adapted.chart
    terms = {}
    for word, coeff in hform.form.terms.items():
        terms[tuple(dw(c.a) for c in word)] = _descended(
            adapted.to_adapted(coeff), adapted,
            "coefficient does not descend to the quotient chart")
    return form(chart, "adapted", terms, adapted=adapted,
                degree=hform.form.degree)
