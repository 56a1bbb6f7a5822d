"""The metric area Lagrangian sqrt(det(g_KL y^K_j y^L_k)) of submanifolds,
its determinant-type Lepage form, coincidence checks among the homogeneous
Lepage constructors, and the graph equation for closed-form graphs; all exact,
the numeric graph workbench is ``lepage.minimal``."""

from __future__ import annotations

from itertools import combinations
from typing import Mapping

from . import Frozen
from .charts import ChartError, JetChart
from .equivalents import (HorizontalNForm, Lagrangian, _fundamental_homogeneous,
                          _hilbert_caratheodory, _require_homogeneous)
from .expr import (ONE, ZERO, Expr, ExprError, Sym, Verdicts, const,
                   cos_expr, det_expr, diff, equal, expr_sum, free_symbols,
                   log_expr, sqrt_expr, sym_expr, yj)
from .forms import DiffForm, dy, form_equal, wedge_all

__all__ = ["MetricSpec", "minimal_lagrangian",
           "krupka_form", "coincidence_report", "verify_coincidence",
           "graph_el_residual", "scherk_expr"]


# ---------------------------------------------------------------------------
# metric data
# ---------------------------------------------------------------------------

class MetricSpec(Frozen):
    """Riemannian metric on the configuration space, entries over y-coordinates."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Expr, ...], ...]):
        dim = len(entries)
        if dim == 0 or any(len(row) != dim for row in entries):
            raise ExprError("metric entries must form a square matrix")
        for K in range(dim):
            for L in range(dim):
                for s in free_symbols(entries[K][L]):
                    if s.kind != "y":
                        raise ExprError("metric entries may depend on "
                                        "configuration coordinates only")
                if K < L and not equal(entries[K][L], entries[L][K]):
                    raise ExprError(f"metric not symmetric at ({K + 1}, {L + 1})")
        self._freeze(entries)

    @classmethod
    def euclidean(cls, dim: int) -> "MetricSpec":
        return cls(tuple(tuple(ONE if K == L else ZERO for L in range(dim))
                         for K in range(dim)))

    @classmethod
    def diagonal(cls, *diag) -> "MetricSpec":
        entries = tuple(
            tuple(d if K == L else ZERO for L in range(len(diag)))
            for K, d in enumerate(diag))
        return cls(entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, K: int, L: int) -> Expr:
        return self.entries[K - 1][L - 1]


# ---------------------------------------------------------------------------
# symbolic constructions
# ---------------------------------------------------------------------------

def _metric_chart(g: MetricSpec, n: int) -> JetChart:
    if n > 3:
        raise ChartError("Gram determinant expansion is guarded to n <= 3")
    if g.dim <= n:
        raise ChartError("metric dimension must exceed the base dimension")
    return JetChart(n=n, m=g.dim - n, order=1)


def minimal_lagrangian(g: MetricSpec, n: int) -> Lagrangian:
    """Area Lagrangian sqrt(det(g_KL y^K_j y^L_k)) of n-dimensional submanifolds."""
    chart = _metric_chart(g, n)
    M = g.dim
    gram = [[expr_sum(g.entry(K, L) * yj(K, j) * yj(L, k)
                      for K in range(1, M + 1) for L in range(1, M + 1)
                      if not g.entry(K, L).is_zero)
             for k in range(1, n + 1)] for j in range(1, n + 1)]
    return Lagrangian(chart, sqrt_expr(det_expr(gram)))


def krupka_form(g: MetricSpec, n: int) -> HorizontalNForm:
    """Determinant-type Lepage form on fiber differentials: L^-1 times the
    wedge over k of sum_K (sum_L g_KL y^L_k) dy^K."""
    chart = _metric_chart(g, n)
    M = g.dim
    factors = [DiffForm(chart, 1, "coordinate",
                        {(dy(K),): expr_sum(g.entry(K, L) * yj(L, k)
                                            for L in range(1, M + 1)
                                            if not g.entry(K, L).is_zero)
                         for K in range(1, M + 1)})
               for k in range(1, n + 1)]
    L_fun = minimal_lagrangian(g, n).L
    return HorizontalNForm(chart, wedge_all(factors).scale(ONE / L_fun))


def coincidence_report(forms: Mapping[str, DiffForm], *, trials: int = 50,
                       tol: float = 1e-9, seed: int = 0,
                       guards=()) -> Verdicts:
    """Pairwise comparisons of labelled forms, keyed by label pair in the
    mapping's order."""
    return Verdicts(
        ((na, nb), form_equal(fa, fb, trials=trials, tol=tol, seed=seed,
                              guards=guards))
        for (na, fa), (nb, fb) in combinations(forms.items(), 2))


def verify_coincidence(g: MetricSpec, n: int, *, trials: int = 50,
                       tol: float = 1e-9, seed: int = 0) -> Verdicts:
    """Compare the three homogeneous Lepage constructions of the area
    Lagrangian, keyed ("fundamental", "product"), ("fundamental", "metric")
    and ("product", "metric").

    The area Lagrangian's homogeneity, which ``fundamental_homogeneous`` and
    ``hilbert_caratheodory`` each check, is checked once for both.
    """
    chart = _metric_chart(g, n)
    if chart.n not in (1, 2) or chart.m not in (1, 2):
        raise ChartError("coincidence check is guarded to n, m in {1, 2}")
    lam = minimal_lagrangian(g, n)
    _require_homogeneous(lam, trials, tol, seed)
    forms = {
        "fundamental": _fundamental_homogeneous(lam),
        "product": _hilbert_caratheodory(lam),
        "metric": krupka_form(g, n).form,
    }
    return coincidence_report(forms, trials=trials, tol=tol, seed=seed,
                              guards=[lam.L])


# ---------------------------------------------------------------------------
# graph equation, symbolic
# ---------------------------------------------------------------------------

def graph_el_residual(u: Expr) -> Expr:
    """(1+u_y^2)u_xx - 2 u_x u_y u_xy + (1+u_x^2)u_yy for an expression in
    the two base coordinates."""
    if not isinstance(u, Expr):
        raise TypeError("expected an expression")
    X1, X2 = Sym("x", 1), Sym("x", 2)
    extra = sorted((s for s in free_symbols(u) if s not in (X1, X2)),
                   key=lambda t: t.key)
    if extra:
        raise ExprError(f"graph function depends on non-base symbols {extra}")
    ux, uy = diff(u, X1), diff(u, X2)
    uxx, uxy, uyy = diff(ux, X1), diff(ux, X2), diff(uy, X2)
    return ((ONE + uy * uy) * uxx - const(2) * ux * uy * uxy
            + (ONE + ux * ux) * uyy)


def scherk_expr() -> Expr:
    """The doubly periodic saddle log(cos x / cos y) as a closed form."""
    return (log_expr(cos_expr(sym_expr(Sym("x", 1))))
            - log_expr(cos_expr(sym_expr(Sym("x", 2)))))
