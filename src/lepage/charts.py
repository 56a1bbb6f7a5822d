"""Jet charts, adapted charts for Grassmann fibrations, total derivatives.

A ``JetChart`` fixes base dimension n, fiber dimension m and jet order (1 or
2) with coordinates x^i, y^K, y^K_j and (order 2) y^K_jk.  An ``AdaptedChart``
selects an increasing n-tuple (i) of fiber labels whose jet minor is regular
and carries the associated coordinates

    w^K = y^K,   w^i_j = y^i_j (i selected),   w^s_i = z^j_i y^s_j,

where z is the inverse of the selected minor.  All adapted computations fix
the orientation branch det(minor) > 0; samplers must guard minors positive.
"""

from __future__ import annotations

from . import Frozen
from .expr import (
    Expr, ExprError, Sym, cancel_candidate, const, det_expr, diff, expr_sum,
    free_symbols, sqrt_extract_candidate, substitute, sym_expr, sym_name,
)

__all__ = [
    "ChartError", "JetChart", "AdaptedChart",
    "formal_derivative", "adapted_derivative", "gl_act_symbolic",
]


class ChartError(ExprError):
    pass


class JetChart(Frozen):
    """A fibered chart on the jet space of immersed n-submanifolds."""

    __slots__ = _compared = ("n", "m", "order")

    def __init__(self, n: int, m: int, order: int = 1):
        if not 1 <= n <= 4:
            raise ChartError(f"base dimension must lie in 1..4, got {n}")
        if m < 1:
            raise ChartError(f"fiber dimension must be >= 1, got {m}")
        if order not in (1, 2):
            raise ChartError(f"jet order must be 1 or 2, got {order}")
        self._freeze(n, m, order)

    @property
    def M(self) -> int:
        return self.m + self.n

    def base_symbols(self) -> list[Sym]:
        return [Sym("x", i) for i in range(1, self.n + 1)]

    def fiber_symbols(self) -> list[Sym]:
        return [Sym("y", K) for K in range(1, self.M + 1)]

    def jet1_symbols(self) -> list[Sym]:
        return [Sym("y1", K, j) for K in range(1, self.M + 1)
                for j in range(1, self.n + 1)]

    def jet2_symbols(self) -> list[Sym]:
        return [Sym("y2", K, j, k) for K in range(1, self.M + 1)
                for j in range(1, self.n + 1) for k in range(j, self.n + 1)]

    def symbols(self) -> list[Sym]:
        out = self.base_symbols() + self.fiber_symbols() + self.jet1_symbols()
        if self.order == 2:
            out += self.jet2_symbols()
        return out

    def raised(self) -> "JetChart":
        return JetChart(self.n, self.m, 2)

    def check_symbol(self, s: Sym, order: int | None = None) -> None:
        """Raise ChartError unless s lies in this chart's index ranges.

        x^i takes i in 1..n; y^K, w^K, y^K_j and y^K_jk take K in 1..M and
        their lower indices in 1..n; y^K_jk needs jet order 2 (``order``,
        by default the chart's).  The adapted-chart coordinates w^K_j and
        z^k_i and the group entries a^l_j are not jet-chart coordinates.
        """
        if s.kind in ("w1", "z", "a"):
            raise ChartError(f"{sym_name(s)} is not a jet-chart coordinate")
        if s.kind == "x" and not 1 <= s.a <= self.n:
            raise ChartError(f"base index {s.a} outside 1..{self.n}")
        if s.kind in ("y", "w", "y1", "y2") and not 1 <= s.a <= self.M:
            raise ChartError(f"fiber index {s.a} outside 1..{self.M}")
        for j in {"y1": (s.b,), "y2": (s.b, s.c)}.get(s.kind, ()):
            if not 1 <= j <= self.n:
                raise ChartError(f"base index {j} outside 1..{self.n}")
        if s.kind == "y2" and (self.order if order is None else order) < 2:
            raise ChartError("second-order symbol on a first-order chart")

    def validate_expr(self, e: Expr, *, max_order: int | None = None) -> None:
        for s in sorted(free_symbols(e), key=lambda t: t.key):
            self.check_symbol(s, max_order)


def contains_order2(e: Expr) -> bool:
    return any(s.kind == "y2" for s in free_symbols(e))


def formal_derivative(f: Expr, i: int, chart: JetChart) -> Expr:
    """Total derivative d_i f; raises the jet order of the result by one."""
    if not 1 <= i <= chart.n:
        raise ChartError(f"base index {i} outside 1..{chart.n}")
    if contains_order2(f):
        raise ChartError("total derivative of second-order data is not supported")
    pieces = [diff(f, Sym("x", i))]
    for K in range(1, chart.M + 1):
        dK = diff(f, Sym("y", K))
        if not dK.is_zero:
            pieces.append(dK * sym_expr(Sym("y1", K, i)))
        for j in range(1, chart.n + 1):
            dKj = diff(f, Sym("y1", K, j))
            if not dKj.is_zero:
                pieces.append(dKj * sym_expr(Sym("y2", K, j, i)))
    return expr_sum(pieces)


# ---------------------------------------------------------------------------
# adapted charts
# ---------------------------------------------------------------------------

class AdaptedChart(Frozen):
    """Chart adapted to a regular selected minor of the first jet."""

    __slots__ = _compared = ("chart", "selected")

    def __init__(self, chart: JetChart, selected: tuple[int, ...]):
        cs = tuple(selected)
        if len(cs) != chart.n:
            raise ChartError(
                f"selected tuple must have length n={chart.n}, got {cs}")
        if list(cs) != sorted(set(cs)):
            raise ChartError(f"selected tuple must be strictly increasing: {cs}")
        if not all(1 <= i <= chart.M for i in cs):
            raise ChartError(f"selected labels outside 1..{chart.M}: {cs}")
        self._freeze(chart, cs)

    @property
    def complement(self) -> tuple[int, ...]:
        sel = set(self.selected)
        return tuple(K for K in range(1, self.chart.M + 1) if K not in sel)

    # -- minors -------------------------------------------------------------

    def minor_matrix_y(self) -> list[list[Expr]]:
        """Rows indexed by selected labels, columns by base indices."""
        return [[sym_expr(Sym("y1", it, j)) for j in range(1, self.chart.n + 1)]
                for it in self.selected]

    def minor_matrix_w(self) -> list[list[Expr]]:
        return [[sym_expr(Sym("w1", it, j)) for j in range(1, self.chart.n + 1)]
                for it in self.selected]

    def minor_det_y(self) -> Expr:
        return det_expr(self.minor_matrix_y())

    def minor_det_w(self) -> Expr:
        return det_expr(self.minor_matrix_w())

    def z_exprs(self) -> dict[tuple[int, int], Expr]:
        """Entries z^k_i, i selected: the inverse of the selected minor.

        Defined by sum_i z^k_i y^i_j = delta^k_j with i running over the
        selected labels; each entry is a signed cofactor over the minor
        determinant.
        """
        n = self.chart.n
        A = self.minor_matrix_y()
        det = self.minor_det_y()
        out: dict[tuple[int, int], Expr] = {}
        for k in range(1, n + 1):
            for t, it in enumerate(self.selected):
                sub = [[A[r][c] for c in range(n) if c != k - 1]
                       for r in range(n) if r != t]
                if sub:
                    cof = det_expr(sub) if len(sub) > 1 else sub[0][0]
                else:
                    cof = const(1)
                sign = -1 if (t + k - 1) % 2 else 1
                out[(k, it)] = const(sign) * cof / det
        return out

    # -- chart transitions ---------------------------------------------------

    def w_in_terms_of_y(self) -> dict[Sym, Expr]:
        """The adapted coordinates expressed on the jet chart."""
        out: dict[Sym, Expr] = {}
        z = self.z_exprs()
        for K in range(1, self.chart.M + 1):
            out[Sym("w", K)] = sym_expr(Sym("y", K))
        for it in self.selected:
            for j in range(1, self.chart.n + 1):
                out[Sym("w1", it, j)] = sym_expr(Sym("y1", it, j))
        for s in self.complement:
            for it in self.selected:
                out[Sym("w1", s, it)] = expr_sum(
                    z[(j, it)] * sym_expr(Sym("y1", s, j))
                    for j in range(1, self.chart.n + 1))
        return out

    def y_in_terms_of_w(self) -> dict[Sym, Expr]:
        """The jet coordinates expressed on the adapted chart."""
        out: dict[Sym, Expr] = {}
        for K in range(1, self.chart.M + 1):
            out[Sym("y", K)] = sym_expr(Sym("w", K))
        for it in self.selected:
            for j in range(1, self.chart.n + 1):
                out[Sym("y1", it, j)] = sym_expr(Sym("w1", it, j))
        for s in self.complement:
            for j in range(1, self.chart.n + 1):
                out[Sym("y1", s, j)] = expr_sum(
                    sym_expr(Sym("w1", s, it)) * sym_expr(Sym("w1", it, j))
                    for it in self.selected)
        return out

    def to_adapted(self, f: Expr) -> Expr:
        """Express first-order jet data in adapted coordinates.

        Substitutes the inverse chart map and then reduces the known minor
        factor det(w^i_j) out of radicands and fractions (valid on the
        positive branch).
        """
        if contains_order2(f):
            raise ChartError("adapted charts carry first-order data only")
        g = substitute(f, self.y_in_terms_of_w())
        delta = self.minor_det_w()
        g = sqrt_extract_candidate(g, delta)
        return cancel_candidate(g, delta)


def adapted_derivative(f: Expr, i: int, adapted: AdaptedChart) -> Expr:
    """The cut derivative D_i f = df/dw^i + w^s_i df/dw^s on the adapted chart."""
    if i not in adapted.selected:
        raise ChartError(f"adapted derivative index {i} must be a selected label")
    bad = [s for s in free_symbols(f) if s.kind == "w1" and s.a in adapted.complement]
    if bad:
        raise ChartError(
            "cut derivative is defined for functions of the fiber coordinates; "
            f"found {min(bad, key=lambda t: t.key)!r}")
    pieces = [diff(f, Sym("w", i))]
    for s in adapted.complement:
        ds = diff(f, Sym("w", s))
        if not ds.is_zero:
            pieces.append(sym_expr(Sym("w1", s, i)) * ds)
    return expr_sum(pieces)


# ---------------------------------------------------------------------------
# jet group action
# ---------------------------------------------------------------------------

def gl_act_symbolic(f: Expr, chart: JetChart) -> Expr:
    """Substitute the group action with formal entries a^l_j."""
    mapping = {}
    for K in range(1, chart.M + 1):
        for j in range(1, chart.n + 1):
            mapping[Sym("y1", K, j)] = expr_sum(
                sym_expr(Sym("y1", K, l)) * sym_expr(Sym("a", l, j))
                for l in range(1, chart.n + 1))
    return substitute(f, mapping)


def group_det_symbolic(n: int) -> Expr:
    return det_expr([[sym_expr(Sym("a", i, j)) for j in range(1, n + 1)]
                     for i in range(1, n + 1)])
