"""Reference constructions of the Lepage equivalents, for tests only.

Each is the direct sum the textbook writes down: Theta as the volume term
plus the om^K ^ (i_{d/dx^j} volume) terms, the homogeneous fundamental and
Hilbert-Caratheodory forms as sums over permutations of the base indices,
and the Krupka form as a sum of jet determinants over the metric's index
pairs.  ``lepage.equivalents`` and ``lepage.metric`` build the same forms
from the layers of the fundamental sum and from wedges of n one-forms; the
property tests compare the two term for term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

from lepage.equivalents import Lagrangian
from lepage.expr import ONE, ZERO, Expr, const, det_expr, levi_civita, yj
from lepage.forms import DiffForm, dx, dy, form, om, volume_form, wedge
from lepage.metric import MetricSpec, minimal_lagrangian


def _omega_marginal(chart, j: int) -> DiffForm:
    # the (n-1)-form obtained by plugging the j-th base direction into the
    # volume
    word = tuple(dx(i) for i in range(1, chart.n + 1) if i != j)
    return DiffForm(chart, chart.n - 1, "contact",
                    {word: const((-1) ** (j - 1))})


def poincare_cartan(lam: Lagrangian) -> DiffForm:
    chart = lam.chart
    result = volume_form(chart).scale(lam.L)
    for K in range(1, chart.M + 1):
        for j in range(1, chart.n + 1):
            coeff = lam.derivative(((K, j),))
            if coeff.is_zero:
                continue
            one_form = DiffForm(chart, 1, "contact", {(om(K),): coeff})
            result = result + wedge(one_form, _omega_marginal(chart, j))
    return result


def fundamental_homogeneous(lam: Lagrangian) -> DiffForm:
    chart = lam.chart
    n, M = chart.n, chart.M
    weight = Fraction(1, factorial(n) ** 2)
    acc: dict[tuple, Expr] = {}
    for p in permutations(range(1, n + 1)):
        sign = levi_civita(p)
        for Ks in product(range(1, M + 1), repeat=n):
            deriv = lam.derivative(tuple(zip(Ks, p)))
            if deriv.is_zero:
                continue
            word = tuple(dy(K) for K in Ks)
            acc[word] = acc.get(word, ZERO) + const(sign * weight) * deriv
    return form(chart, "coordinate", acc, degree=n)


def hilbert_caratheodory(lam: Lagrangian) -> DiffForm:
    chart = lam.chart
    n, M = chart.n, chart.M
    scale = const(Fraction(1, factorial(n))) / lam.L ** (n - 1)
    acc: dict[tuple, Expr] = {}
    for p in permutations(range(1, n + 1)):
        sign = levi_civita(p)
        for Ks in product(range(1, M + 1), repeat=n):
            coeff = prod((lam.derivative(((K, j),)) for K, j in zip(Ks, p)),
                         start=ONE)
            if coeff.is_zero:
                continue
            word = tuple(dy(K) for K in Ks)
            acc[word] = acc.get(word, ZERO) + const(sign) * coeff
    return form(chart, "coordinate", acc, degree=n).scale(scale)


def krupka_form(g: MetricSpec, n: int) -> DiffForm:
    """(1/n!)(1/L) g_{K1 L1} ... g_{Kn Ln} D^{L1...Ln} on dy^{K1...Kn},
    D^{L1...Ln} the determinant of the jet rows y^{L_t}_k."""
    lam = minimal_lagrangian(g, n)
    M = g.dim
    scale = const(Fraction(1, factorial(n))) / lam.L
    coefficients: dict[tuple, Expr] = {}
    for Ks in product(range(1, M + 1), repeat=n):
        acc = ZERO
        for Ls in product(range(1, M + 1), repeat=n):
            weight = prod((g.entry(K, L) for K, L in zip(Ks, Ls)), start=ONE)
            if weight.is_zero:
                continue
            D = det_expr([[yj(L, k) for k in range(1, n + 1)] for L in Ls])
            acc = acc + weight * D
        if not acc.is_zero:
            coefficients[tuple(dy(K) for K in Ks)] = acc * scale
    return form(lam.chart, "coordinate", coefficients, degree=n)
