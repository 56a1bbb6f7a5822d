"""Vector fields along the configuration space and their variational role.

Prolongation to jet and quotient-chart coordinates, the invariance
residual modulo the contact ideal, Noether currents, and tensor-product
quadrature checks of the first variation formula and of
reparameterization invariance.
"""

from __future__ import annotations

import operator

from . import Frozen
from ._numpy import np
from .charts import AdaptedChart, ChartError, JetChart, adapted_derivative, \
    formal_derivative
from .equivalents import HorizontalNForm, Lagrangian, euler_lagrange, \
    lagrangian_of
from .expr import (
    Expr, PointAssignment, Sym, ZERO, const, evaluate,
    expr_sum, free_symbols, substitute, sym_expr, x,
)
from .forms import (
    DiffForm, FormError, Immersion, VectorField, contract, dx, lie_derivative,
    pullback_immersion, reduce_contact_ideal, zero_form,
)

__all__ = [
    "VectorFieldSpec", "FirstVariationReport", "ReparameterizationReport",
    "prolong_jet", "prolong_grassmann", "noether_residual", "noether_current",
    "first_variation_check", "reparameterization_invariance",
]


class VectorFieldSpec(Frozen):
    """Vector field on the configuration space, components over y only."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: JetChart, components: tuple[Expr, ...]):
        if len(components) != chart.M:
            raise ChartError(
                f"field needs {chart.M} components, got "
                f"{len(components)}")
        for c in components:
            for s in sorted(free_symbols(c), key=lambda t: t.key):
                if s.kind != "y" or not 1 <= s.a <= chart.M:
                    raise ChartError(
                        "field components live on the configuration space; "
                        f"found {s!r}")
        self._freeze(chart, components)

    @classmethod
    def constant(cls, chart: JetChart, values) -> "VectorFieldSpec":
        return cls(chart, tuple(const(v) if not isinstance(v, Expr) else v
                                for v in values))

    @classmethod
    def linear(cls, chart: JetChart, matrix) -> "VectorFieldSpec":
        comps = tuple(
            expr_sum(const(matrix[K][L]) * sym_expr(Sym("y", L + 1))
                     for L in range(chart.M))
            for K in range(chart.M))
        return cls(chart, comps)

    def component(self, K: int) -> Expr:
        return self.components[K - 1]


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------

def prolong_jet(xi: VectorFieldSpec, order: int = 1) -> VectorField:
    """Jet components by iterated formal derivative."""
    chart = xi.chart
    comps: dict[Sym, Expr] = {}
    first: dict[tuple[int, int], Expr] = {}
    for K in range(1, chart.M + 1):
        comps[Sym("y", K)] = xi.component(K)
        for j in range(1, chart.n + 1):
            value = formal_derivative(xi.component(K), j, chart)
            first[(K, j)] = value
            comps[Sym("y1", K, j)] = value
    if order >= 2:
        raised = chart.raised()
        for (K, j), value in first.items():
            for l in range(j, chart.n + 1):
                comps[Sym("y2", K, j, l)] = formal_derivative(value, l, raised)
    return VectorField(chart, comps)


def prolong_grassmann(xi: VectorFieldSpec, ad: AdaptedChart) -> VectorField:
    """Quotient-chart components: slope rows move by the adapted derivative."""
    chart = xi.chart
    rename = {Sym("y", K): sym_expr(Sym("w", K))
              for K in range(1, chart.M + 1)}
    comps: dict[Sym, Expr] = {}
    on_w = {}
    for K in range(1, chart.M + 1):
        on_w[K] = substitute(xi.component(K), rename)
        comps[Sym("w", K)] = on_w[K]
    for sig in ad.complement:
        for it in ad.selected:
            value = adapted_derivative(on_w[sig], it, ad)
            value = value - expr_sum(
                sym_expr(Sym("w1", sig, p)) * adapted_derivative(on_w[p], it, ad)
                for p in ad.selected)
            comps[Sym("w1", sig, it)] = value
    return VectorField(chart, comps, adapted=ad)


# ---------------------------------------------------------------------------
# invariance and Noether currents
# ---------------------------------------------------------------------------

def noether_residual(xi: VectorFieldSpec, eta: DiffForm) -> DiffForm:
    """Lie derivative along the prolonged field, reduced mod the contact ideal."""
    if eta.mode not in ("adapted", "adapted-contact"):
        raise FormError("invariance residual lives on the quotient chart")
    if eta.is_zero:
        return zero_form(eta.chart, eta.degree, "adapted-contact",
                         adapted=eta.adapted)
    prolonged = prolong_grassmann(xi, eta.adapted)
    return reduce_contact_ideal(lie_derivative(prolonged, eta))


def noether_current(xi: VectorFieldSpec, W: DiffForm) -> DiffForm:
    """Contraction of a Lepage equivalent by the prolonged field."""
    if W.mode in ("adapted", "adapted-contact"):
        prolonged = prolong_grassmann(xi, W.adapted)
    elif W.mode in ("coordinate", "contact"):
        prolonged = prolong_jet(xi, order=1)
    else:
        raise FormError(f"cannot build a current from mode {W.mode!r}")
    return contract(prolonged, W)


# ---------------------------------------------------------------------------
# quadrature checks
# ---------------------------------------------------------------------------

def _legendre(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # P_n(t) by the three-term recurrence, and P_n'(t) from P_n and P_{n-1}
    before, value = np.ones_like(t), t
    for k in range(2, n + 1):
        before, value = value, ((2 * k - 1) * t * value - (k - 1) * before) / k
    return value, n * (before - t * value) / ((1 - t) * (1 + t))


def _gauss_nodes(a: float, b: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, ascending, and weights of ``points`` points on
    [a, b].

    Each root t of P_n starts from Tricomi's estimate and takes Newton steps
    on the three-term recurrence until a step is below 2 eps; the weight is
    2 / ((1 - t^2) P_n'(t)^2) at the last iterate.  As numpy's ``leggauss``
    does, the rule is then made symmetric about 0 and the weights are scaled
    to sum to 2.
    """
    n = operator.index(points)
    if n < 1:
        raise ValueError(f"points must be a positive integer, got {points!r}")
    i = np.arange(n, 0, -1)
    t = ((1 - 1 / (8 * n ** 2) + 1 / (8 * n ** 3))
         * np.cos(np.pi * (4 * i - 1) / (4 * n + 2)))
    for _ in range(10):  # at most four steps are taken for n up to 200
        value, slope = _legendre(t, n)
        step = value / slope
        t -= step
        if np.max(np.abs(step)) <= 2 * np.finfo(float).eps:
            break
    w = 2 / ((1 - t) * (1 + t) * _legendre(t, n)[1] ** 2)
    t = (t - t[::-1]) / 2
    w = (w + w[::-1]) / 2
    w *= 2 / w.sum()
    half = (b - a) / 2.0
    return (a + b) / 2.0 + half * t, half * w


def _integrate_cell(coeff: Expr, rect, points: int) -> float:
    a, b, c, d = rect
    xs, wx = _gauss_nodes(a, b, points)
    ys, wy = _gauss_nodes(c, d, points)
    total = 0.0
    for xv, cwx in zip(xs, wx):
        for yv, cwy in zip(ys, wy):
            total += cwx * cwy * evaluate(
                coeff, PointAssignment({Sym("x", 1): xv, Sym("x", 2): yv}))
    return total


def _integrate_boundary(one_form: DiffForm, rect, points: int) -> float:
    """Counterclockwise line integral of a base-mode 1-form over the rectangle."""
    a, b, c, d = rect
    P = one_form.terms.get((dx(1),), ZERO)
    Q = one_form.terms.get((dx(2),), ZERO)

    def line(coeff: Expr, const_sym: Sym, const_val: float, var_sym: Sym,
             lo: float, hi: float) -> float:
        if coeff.is_zero:
            return 0.0
        nodes, weights = _gauss_nodes(lo, hi, points)
        return sum(wv * evaluate(coeff, PointAssignment(
            {const_sym: const_val, var_sym: nv}))
            for nv, wv in zip(nodes, weights))

    x1, x2 = Sym("x", 1), Sym("x", 2)
    total = line(P, x2, c, x1, a, b)      # bottom, left to right
    total += line(Q, x1, b, x2, c, d)     # right, upward
    total -= line(P, x2, d, x1, a, b)     # top, right to left
    total -= line(Q, x1, a, x2, c, d)     # left, downward
    return total


def _rel_difference(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


class FirstVariationReport(Frozen):
    __slots__ = ("lhs", "volume_term", "boundary_term")

    def __init__(self, lhs: float, volume_term: float, boundary_term: float):
        self._freeze(lhs, volume_term, boundary_term)

    @property
    def rhs(self) -> float:
        return self.volume_term + self.boundary_term

    @property
    def rel_difference(self) -> float:
        return _rel_difference(self.lhs, self.rhs)

    def describe(self) -> str:
        return (f"lhs={self.lhs:.12g} rhs={self.rhs:.12g} "
                f"(volume {self.volume_term:.12g} + boundary "
                f"{self.boundary_term:.12g}), relative difference "
                f"{self.rel_difference:.3e}")


def first_variation_check(rho: HorizontalNForm, xi: VectorFieldSpec,
                          zeta: Immersion, rect, *,
                          points: int = 64) -> FirstVariationReport:
    """Quadrature of the variational derivative against its two-term split.

    The left side integrates the pullback of the Lie derivative of the form
    along the prolonged field; the right side integrates the contraction of
    the source form plus the Stokes boundary term of the current.
    """
    chart = rho.chart
    if chart.n != 2:
        raise FormError("quadrature check implemented for two base dimensions")
    prolonged = prolong_jet(xi, order=1)
    lie = lie_derivative(prolonged, rho.form)
    lhs_form = pullback_immersion(lie, zeta)
    lhs_coeff = lhs_form.terms.get((dx(1), dx(2)), ZERO)
    lhs = _integrate_cell(lhs_coeff, rect, points)

    expressions = euler_lagrange(lagrangian_of(rho))
    jets = zeta.substitution(order=2)
    volume_coeff = expr_sum(
        substitute(expressions[K - 1], jets)
        * substitute(xi.component(K), jets)
        for K in range(1, chart.M + 1))
    volume = _integrate_cell(volume_coeff, rect, points)

    current = contract(prolonged, rho.form)
    boundary = _integrate_boundary(pullback_immersion(current, zeta), rect,
                                   points)
    return FirstVariationReport(lhs, volume, boundary)


class ReparameterizationReport(Frozen):
    __slots__ = ("original", "reparameterized")

    def __init__(self, original: float, reparameterized: float):
        self._freeze(original, reparameterized)

    @property
    def rel_difference(self) -> float:
        return _rel_difference(self.original, self.reparameterized)

    def describe(self) -> str:
        return (f"integral {self.original:.12g} vs reparameterized "
                f"{self.reparameterized:.12g}, relative difference "
                f"{self.rel_difference:.3e}")


def reparameterization_invariance(lam: Lagrangian, zeta: Immersion,
                                  shear: Expr, rect, *,
                                  points: int = 64) -> ReparameterizationReport:
    """Action integral before and after the shear (x1, x2) -> (x1 + s(x2), x2).

    The comparison domain of the composite is the exact preimage of the
    rectangle, a sheared strip handled slice by slice; agreement of the two
    integrals is the integral form of positive homogeneity.
    """
    chart = lam.chart
    if chart.n != 2:
        raise FormError("quadrature check implemented for two base dimensions")
    for s in free_symbols(shear):
        if s != Sym("x", 2):
            raise FormError("shear must be a function of the second base "
                            "coordinate")
    jets = zeta.substitution(order=1)
    original_coeff = substitute(lam.L, jets)
    a, b, c, d = rect
    original = _integrate_cell(original_coeff, rect, points)

    composed = Immersion(chart, tuple(
        substitute(comp, {Sym("x", 1): x(1) + shear})
        for comp in zeta.components))
    comp_coeff = substitute(lam.L, composed.substitution(order=1))
    x1, x2 = Sym("x", 1), Sym("x", 2)
    ys, wy = _gauss_nodes(c, d, points)
    total = 0.0
    for yv, cwy in zip(ys, wy):
        offset = evaluate(shear, PointAssignment({x2: yv}))
        xs, wx = _gauss_nodes(a - offset, b - offset, points)
        for xv, cwx in zip(xs, wx):
            total += cwx * cwy * evaluate(
                comp_coeff, PointAssignment({x1: xv, x2: yv}))
    return ReparameterizationReport(original, total)
