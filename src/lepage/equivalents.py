"""Lepage equivalents of first-order Lagrangians and the Euler-Lagrange form.

Constructors: the Poincare-Cartan form, the fundamental equivalent built from
iterated jet derivatives of the Lagrange function, the Caratheodory product
form, and the two incarnations specific to positive-homogeneous Lagrange
functions (the closed-form fundamental equivalent on pure fiber differentials
and the Hilbert-Caratheodory form).  The criteria side provides the Lepage
test of an n-form against a Lagrangian, the induced Lagrange function, the
Euler-Lagrange expressions and the identity relating them to the 1-contact
part of the exterior derivative.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import Iterator, Sequence

from . import Frozen
from .charts import JetChart, formal_derivative
from .expr import (
    EqualResult, Expr, ExprError, ONE, Sym, Verdicts, ZERO, const, diff,
    equal, expr_sum, levi_civita,
)
from .forms import (
    DiffForm, FormError, VectorField, dx, dy, om, form,
    wedge_all, volume_form, horizontalize,
    contact_component, contract, ext_d, form_equal, form_vanishes, to_contact,
)

__all__ = [
    "Lagrangian", "HorizontalNForm",
    "poincare_cartan", "fundamental", "caratheodory", "hilbert_caratheodory",
    "fundamental_homogeneous", "lagrangian_of", "is_lepage", "euler_lagrange",
    "el_form_check",
]


class Lagrangian(Frozen):
    """First-order Lagrange function attached to a jet chart.

    Every jet derivative of L that the constructors and the Euler-Lagrange
    expressions read comes from ``derivative``, which keeps one table per
    Lagrangian; the table takes no part in ``==``, ``hash``, ``repr`` or
    copies.
    """

    __slots__ = ("chart", "L", "_derivatives")
    _compared = ("chart", "L")

    def __init__(self, chart: JetChart, L: Expr):
        chart.validate_expr(L, max_order=1)
        self._freeze(chart, L, {})

    def volume(self) -> DiffForm:
        return volume_form(self.chart).scale(self.L)

    def derivative(self, pairs: Sequence[tuple[int, int]] = ()) -> Expr:
        """Iterated derivative of L by y^K_j over the (K, j) pairs.

        Memoized per sorted multi-index; sorting is valid because mixed
        partials commute.
        """
        key = tuple(sorted(pairs))
        value = self._derivatives.get(key)
        if value is None:
            value = diff(self.derivative(key[:-1]), Sym("y1", *key[-1])) \
                if key else self.L
            self._derivatives[key] = value
        return value


class HorizontalNForm(Frozen):
    """n-form with skew coefficients on pure fiber differentials.

    Stores the skew tensor at strictly increasing fiber-index words; the
    wrapped form carries exactly those words, so antisymmetry holds by
    construction.
    """

    __slots__ = ("chart", "form")

    def __init__(self, chart: JetChart, form: DiffForm):
        if form.degree != chart.n:
            raise FormError("horizontal form degree must match the base dimension")
        for word, coeff in form.terms.items():
            if any(cov.kind != "dy" for cov in word):
                raise FormError("horizontal forms carry fiber differentials only")
            chart.validate_expr(coeff, max_order=1)
        self._freeze(chart, form)

    def coefficient(self, Ks: Sequence[int]) -> Expr:
        """Skew tensor value at an arbitrary index tuple."""
        return self.form.coefficient(tuple(dy(K) for K in Ks))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _layers(lam: Lagrangian, ks: Sequence[int], cov) -> Iterator[tuple]:
    """The (unsorted word, coefficient) pairs of the layers k in ks of the
    fundamental sum, for ``form`` to sort and sum.

    The degree-k layer sums, over fiber indices and permutations p of the
    base indices, the k-th derivative of the Lagrange function contracted
    with the permutation sign, wedged as cov^k (dx)^(n-k), weighted by
    1/((n-k)! (k!)^2).
    """
    chart = lam.chart
    n, M = chart.n, chart.M
    for k in ks:
        weight = Fraction(1, factorial(n - k) * factorial(k) ** 2)
        for p in permutations(range(1, n + 1)):
            sign = levi_civita(p)
            base_word = tuple(dx(i) for i in p[k:])
            for Ks in product(range(1, M + 1), repeat=k):
                deriv = lam.derivative(tuple(zip(Ks, p[:k])))
                if deriv.is_zero:
                    continue
                yield (tuple(cov(K) for K in Ks) + base_word,
                       const(sign * weight) * deriv)


def poincare_cartan(lam: Lagrangian) -> DiffForm:
    """The least-contact Lepage equivalent on the jet chart: the 0- and
    1-contact layers of the fundamental sum."""
    return form(lam.chart, "contact", _layers(lam, (0, 1), om),
                degree=lam.chart.n)


def fundamental(lam: Lagrangian) -> DiffForm:
    """Lepage equivalent collecting all iterated jet derivatives: every
    layer of the fundamental sum (see ``_layers``)."""
    n = lam.chart.n
    return form(lam.chart, "contact", _layers(lam, range(n + 1), om),
                degree=n)


def caratheodory(lam: Lagrangian) -> DiffForm:
    """Product-form Lepage equivalent; needs a nonvanishing Lagrange function."""
    if equal(lam.L, ZERO):
        raise ExprError("Caratheodory form needs a nonvanishing Lagrange function")
    chart = lam.chart
    factors = []
    for k in range(1, chart.n + 1):
        terms: dict[tuple, Expr] = {(dx(k),): ONE}
        for K in range(1, chart.M + 1):
            terms[(om(K),)] = lam.derivative(((K, k),)) / lam.L
        factors.append(DiffForm(chart, 1, "contact", terms))
    return wedge_all(factors).scale(lam.L)


def _require_homogeneous(lam: Lagrangian, trials: int, tol: float, seed: int):
    from .homogeneity import zermelo_residuals
    bad = zermelo_residuals(lam, trials=trials, tol=tol, seed=seed).witness()
    if bad is not None:
        (j, l), res = bad
        raise ExprError("Lagrange function is not positive homogeneous: "
                        f"residual at (j={j}, l={l}) is {res.describe()}")


def hilbert_caratheodory(lam: Lagrangian, *, trials: int = 50,
                         tol: float = 1e-9, seed: int = 0) -> DiffForm:
    """Caratheodory form of a homogeneous Lagrange function, on pure dy words."""
    if equal(lam.L, ZERO, trials=trials, tol=tol, seed=seed):
        raise ExprError("Hilbert-Caratheodory form needs a nonvanishing "
                        "Lagrange function")
    _require_homogeneous(lam, trials, tol, seed)
    return _hilbert_caratheodory(lam)


def _hilbert_caratheodory(lam: Lagrangian) -> DiffForm:
    # the construction alone, for a Lagrange function known to be homogeneous:
    # L^(1-n) times the wedge over k of sum_K dL/dy^K_k dy^K
    chart = lam.chart
    factors = [DiffForm(chart, 1, "coordinate",
                        {(dy(K),): lam.derivative(((K, k),))
                         for K in range(1, chart.M + 1)})
               for k in range(1, chart.n + 1)]
    return wedge_all(factors).scale(ONE / lam.L ** (chart.n - 1))


def fundamental_homogeneous(lam: Lagrangian, *, verify: bool = True,
                            trials: int = 50, tol: float = 1e-9,
                            seed: int = 0) -> DiffForm:
    """Fundamental equivalent of a homogeneous Lagrange function.

    Collapses to the pure fiber-differential expression carrying the n-th
    jet-derivative tensor; optionally cross-checks against the generic
    constructor coefficientwise.
    """
    _require_homogeneous(lam, trials, tol, seed)
    built = _fundamental_homogeneous(lam)
    if verify:
        res = form_equal(built, fundamental(lam), trials=trials, tol=tol,
                         seed=seed)
        if res.verdict == "unequal":
            raise ExprError(
                "homogeneous fundamental equivalent disagrees with the "
                "generic constructor: " + res.describe())
    return built


def _fundamental_homogeneous(lam: Lagrangian) -> DiffForm:
    # the construction alone, for a Lagrange function known to be homogeneous:
    # the top layer of the fundamental sum, on fiber differentials
    n = lam.chart.n
    return form(lam.chart, "coordinate", _layers(lam, (n,), dy), degree=n)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def lagrangian_of(rho: HorizontalNForm) -> Lagrangian:
    """Lagrange function induced by a horizontal n-form (its horizontal part)."""
    chart = rho.chart
    horizontal = horizontalize(rho.form)
    word = tuple(dx(i) for i in range(1, chart.n + 1))
    return Lagrangian(chart, horizontal.terms.get(word, ZERO))


def is_lepage(rho: DiffForm, lam: Lagrangian, *, trials: int = 50,
              tol: float = 1e-9, seed: int = 0,
              guards: Sequence[Expr] = ()) -> Verdicts:
    """Lepage test: h(rho) is the Lagrangian volume form and h(i_xi d rho) = 0.

    An n-form on the first-order chart whose 0- and 1-contact parts are
    structurally those of the Poincare-Cartan form Theta passes without
    sampling, since rho - Theta is then at least 2-contact and:
    d keeps a form at least 2-contact, because d om^K = -om^K_j ^ dx^j;
    i_xi removes at most one contact factor;
    h kills every contact form, so h(i_xi d rho) = h(i_xi d Theta) = 0.
    That pass is one structural entry keyed "contact".  Any other form gets
    the definitional test.  Fields vertical over the configuration space are
    pointwise combinations of the first-jet coordinate fields and
    contraction is pointwise linear, so those fields decide the condition;
    they are checked in ``chart.jet1_symbols()`` order up to the first one
    not sampled equal to zero, each keyed by its jet symbol, and the
    horizontal-part comparison follows, keyed "horizontal".
    """
    if _matches_poincare_cartan(rho, lam):
        return Verdicts(contact=EqualResult("equal", decided_by="structural"))
    return _lepage_verdict(rho, ext_d(rho), lam, trials=trials, tol=tol,
                           seed=seed, guards=guards)


def _matches_poincare_cartan(rho: DiffForm, lam: Lagrangian) -> bool:
    # 0- and 1-contact parts agree structurally; a miss falls back to sampling
    chart = lam.chart
    if (chart.order != 1 or rho.chart != chart or rho.degree != chart.n
            or rho.mode not in ("coordinate", "contact")):
        return False
    rest = to_contact(rho) - poincare_cartan(lam)
    return all(contact_component(rest, k).is_zero for k in (0, 1))


def _lepage_verdict(rho: DiffForm, drho: DiffForm, lam: Lagrangian,
                    **options) -> Verdicts:
    # is_lepage's definitional test with d rho given, for callers that need
    # d rho themselves or want this test whatever rho is
    chart = lam.chart
    verdicts = Verdicts()
    for s in chart.jet1_symbols():
        defect = horizontalize(contract(VectorField(chart, {s: ONE}), drho))
        # a defect of degree other than n is no zero n-form
        verdicts[s] = (form_vanishes(defect, **options)
                       if defect.degree == chart.n else
                       EqualResult("unequal", decided_by="structural"))
        if not verdicts[s]:
            break
    verdicts["horizontal"] = form_equal(horizontalize(rho), lam.volume(),
                                        **options)
    return verdicts


def euler_lagrange(lam: Lagrangian) -> tuple[Expr, ...]:
    """Euler-Lagrange expressions on the order-2 chart."""
    chart = lam.chart.raised() if lam.chart.order < 2 else lam.chart
    out = []
    for K in range(1, chart.M + 1):
        divergence = expr_sum(
            formal_derivative(lam.derivative(((K, j),)), j, chart)
            for j in range(1, chart.n + 1))
        out.append(diff(lam.L, Sym("y", K)) - divergence)
    return tuple(out)


def el_form_check(rho: HorizontalNForm, *, trials: int = 20, tol: float = 1e-9,
                  seed: int = 0, guards: Sequence[Expr] = ()) -> Verdicts:
    """The 1-contact part of d rho carries exactly the Euler-Lagrange terms.

    The definitional Lepage test's entries come first; when they pass, the
    1-contact comparison follows, keyed "1-contact".
    """
    chart = rho.chart
    lam = lagrangian_of(rho)
    drho = ext_d(rho.form)
    verdicts = _lepage_verdict(rho.form, drho, lam, trials=trials, tol=tol,
                               seed=seed, guards=guards)
    if not verdicts:
        return verdicts
    one_contact = contact_component(drho, 1)
    expressions = euler_lagrange(lam)
    base_word = tuple(dx(i) for i in range(1, chart.n + 1))
    expected = {(om(K),) + base_word: e for K, e in enumerate(expressions, 1)}
    target = form(chart.raised(), "contact", expected, degree=chart.n + 1)
    lifted = DiffForm(chart.raised(), one_contact.degree, one_contact.mode,
                      one_contact.terms)
    verdicts["1-contact"] = form_equal(lifted, target, trials=trials, tol=tol,
                                       seed=seed, guards=guards)
    return verdicts
