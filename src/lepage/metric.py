"""The metric area Lagrangian sqrt(det(g_KL y^K_j y^L_k)) of submanifolds,
its determinant-type Lepage form, coincidence checks among the homogeneous
Lepage constructors, and the graph equation for closed-form graphs; all exact,
the numeric graph workbench is ``lepage.minimal``."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from typing import Mapping

from .charts import ChartError, JetChart
from .equivalents import (HorizontalNForm, Lagrangian, fundamental_homogeneous,
                          hilbert_caratheodory)
from .expr import (ONE, ZERO, EqualResult, Expr, ExprError, Sym, const,
                   cos_expr, det_expr, diff, expr_sum, free_symbols, log_expr,
                   sqrt_expr, sym_expr, yj)
from .forms import DiffForm, form_equal

__all__ = ["MetricSpec", "CoincidenceReport", "minimal_lagrangian",
           "krupka_form", "coincidence_report", "verify_coincidence",
           "graph_el_residual", "scherk_expr"]


# ---------------------------------------------------------------------------
# metric data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    """Riemannian metric on the configuration space, entries over y-coordinates."""

    entries: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        dim = len(self.entries)
        if dim == 0 or any(len(row) != dim for row in self.entries):
            raise ExprError("metric entries must form a square matrix")
        for K in range(dim):
            for L in range(dim):
                for s in free_symbols(self.entries[K][L]):
                    if s.kind != "y":
                        raise ExprError("metric entries may depend on "
                                        "configuration coordinates only")
                if K < L and not (self.entries[K][L] - self.entries[L][K]).is_zero:
                    raise ExprError(f"metric not symmetric at ({K + 1}, {L + 1})")

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
    """Determinant-type Lepage form on fiber differentials.

    Coefficient tensor (1/n!)(1/L) g_{K1 L1} ... g_{Kn Ln} D^{L1...Ln} where
    D^{L1...Ln} is the determinant of the jet rows y^{L_t}_k.
    """
    chart = _metric_chart(g, n)
    M = g.dim
    L_fun = minimal_lagrangian(g, n).L
    scale = const(Fraction(1, factorial(n))) / L_fun
    coefficients: dict[tuple, Expr] = {}
    for Ks in product(range(1, M + 1), repeat=n):
        acc = ZERO
        for Ls in product(range(1, M + 1), repeat=n):
            weight = ONE
            for K, L in zip(Ks, Ls):
                entry = g.entry(K, L)
                if entry.is_zero:
                    weight = ZERO
                    break
                weight = weight * entry
            if weight.is_zero:
                continue
            D = det_expr([[yj(L, k) for k in range(1, n + 1)] for L in Ls])
            acc = acc + weight * D
        if not acc.is_zero:
            coefficients[Ks] = acc * scale
    return HorizontalNForm.from_tensor(chart, coefficients)


@dataclass
class CoincidenceReport:
    """Pairwise comparison verdicts among labelled horizontal forms."""

    results: dict[tuple[str, str], EqualResult]

    @property
    def passed(self) -> bool:
        return all(self.results.values())

    def witnesses(self) -> dict[tuple[str, str], str]:
        return {pair: r.describe()
                for pair, r in self.results.items() if not r}

    def describe(self) -> str:
        lines = [f"{a} vs {b}: {r.describe()}"
                 for (a, b), r in self.results.items()]
        return "\n".join(lines)


def coincidence_report(forms: Mapping[str, DiffForm], *, trials: int = 50,
                       tol: float = 1e-9, seed: int = 0,
                       guards=()) -> CoincidenceReport:
    results = {}
    for (na, fa), (nb, fb) in combinations(forms.items(), 2):
        results[(na, nb)] = form_equal(fa, fb, trials=trials, tol=tol,
                                       seed=seed, guards=guards)
    return CoincidenceReport(results)


def verify_coincidence(g: MetricSpec, n: int, *, trials: int = 50,
                       tol: float = 1e-9, seed: int = 0) -> CoincidenceReport:
    """Compare the three homogeneous Lepage constructions of the area Lagrangian."""
    chart = _metric_chart(g, n)
    if chart.n not in (1, 2) or chart.m not in (1, 2):
        raise ChartError("coincidence check is guarded to n, m in {1, 2}")
    lam = minimal_lagrangian(g, n)
    forms = {
        "fundamental": fundamental_homogeneous(lam, verify=False,
                                               trials=trials, seed=seed),
        "product": hilbert_caratheodory(lam, trials=trials, seed=seed),
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
    extra = [s for s in free_symbols(u) if s not in (X1, X2)]
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
