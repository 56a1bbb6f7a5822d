"""Tests for the Lepage equivalent constructors and their criteria."""

from __future__ import annotations

import random
from itertools import permutations, product

import pytest

from lepage.acceptance import _jacobian_lagrangian
from lepage.charts import ChartError, JetChart
from lepage.expr import (
    EqualResult, ExprError, ONE, Sym, ZERO, const, diff, equal, expr_sum,
    levi_civita, sqrt_expr, sym_expr, to_dsl, x, yj, yy,
)
from lepage.forms import (
    DiffForm, VectorField, contract, dx, dy, ext_d, form, form_equal,
    horizontalize, om, to_contact, to_coordinate, volume_form, zero_form,
)
from lepage.equivalents import (
    DerivativeTensors, HorizontalNForm, Lagrangian, _lepage_verdict,
    caratheodory, el_form_check, euler_lagrange, fundamental,
    fundamental_homogeneous, hilbert_caratheodory, is_lepage, lagrangian_of,
    poincare_cartan,
)
from lepage.metric import MetricSpec, krupka_form, minimal_lagrangian

CH21 = JetChart(n=2, m=1, order=1)
CH22 = JetChart(n=2, m=2, order=1)
CH11 = JetChart(n=1, m=1, order=1)


def area_lagrangian(chart: JetChart) -> Lagrangian:
    """Induced-area Lagrange function for the Euclidean configuration metric."""
    M, n = chart.M, chart.n
    assert n == 2
    radicand = expr_sum(
        (yj(K1, 1) * yj(K2, 2) - yj(K2, 1) * yj(K1, 2)) ** 2
        for K1 in range(1, M + 1) for K2 in range(K1 + 1, M + 1))
    return Lagrangian(chart, sqrt_expr(radicand))


def skew_pair_lagrangian() -> Lagrangian:
    """Homogeneous control whose fundamental and product forms differ."""
    L = yj(1, 1) * yj(2, 2) - yj(2, 1) * yj(1, 2) \
        + yj(3, 1) * yj(4, 2) - yj(4, 1) * yj(3, 2)
    return Lagrangian(CH22, L)


def dirichlet_lagrangian() -> Lagrangian:
    return Lagrangian(CH21, expr_sum(yj(3, j) ** 2 for j in (1, 2)))


def vertical_jet_field(chart: JetChart, rng: random.Random) -> VectorField:
    comps = {}
    for K in range(1, chart.M + 1):
        for j in range(1, chart.n + 1):
            parts = [const(rng.randint(-2, 2))]
            if rng.random() < 0.5:
                parts.append(const(rng.randint(-1, 1)) * yj(K, j))
            if rng.random() < 0.3:
                parts.append(const(rng.randint(-1, 1)) * yy(K))
            comps[Sym("y1", K, j)] = expr_sum(parts)
    return VectorField(chart, comps)


# ---------------------------------------------------------------------------
# Lagrangian container
# ---------------------------------------------------------------------------

def test_lagrangian_rejects_second_order():
    raised = CH21.raised()
    with pytest.raises(ChartError):
        Lagrangian(raised, sym_expr(Sym("y2", 1, 1, 1)))
    with pytest.raises(ChartError):
        Lagrangian(CH21, yj(4, 1))


def test_derivative_tensors_memoize_sorted():
    L = yj(1, 1) ** 2 * yj(2, 2)
    t = DerivativeTensors(L)
    a = t.get(((1, 1), (2, 2)))
    b = t.get(((2, 2), (1, 1)))
    assert a is b
    assert equal(a, const(2) * yj(1, 1))


# ---------------------------------------------------------------------------
# h(rho) recovers the Lagrangian; vertical contractions die
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [poincare_cartan, fundamental, caratheodory])
def test_horizontal_part_recovers_lagrangian(make):
    for lam in (area_lagrangian(CH21), dirichlet_lagrangian(),
                skew_pair_lagrangian()):
        rho = make(lam)
        h = horizontalize(rho)
        word = tuple(dx(i) for i in (1, 2))
        assert equal(h.coefficient(word), lam.L, trials=10, seed=1)


@pytest.mark.parametrize("make", [poincare_cartan, fundamental, caratheodory])
def test_vertical_contraction_of_d_is_horizontal_zero(make):
    lam = area_lagrangian(CH21)
    rho = make(lam)
    drho = ext_d(rho)
    rng = random.Random(41)
    for _ in range(5):
        xi = vertical_jet_field(CH21, rng)
        assert horizontalize(contract(xi, drho)).is_zero


def test_bare_volume_scaling_is_not_lepage():
    lam = dirichlet_lagrangian()
    bare = volume_form(CH21).scale(lam.L)
    rng = random.Random(43)
    xi = vertical_jet_field(CH21, rng)
    assert not horizontalize(contract(xi, ext_d(bare))).is_zero


# ---------------------------------------------------------------------------
# structure of the constructors
# ---------------------------------------------------------------------------

def test_poincare_cartan_affine_case_matches_fundamental():
    # affine-in-jets Lagrange functions have no second derivatives
    L = yy(1) * yj(1, 1) + x(2) * yj(3, 2) + yy(2)
    lam = Lagrangian(CH21, L)
    assert (fundamental(lam) - poincare_cartan(lam)).is_zero


def test_fundamental_second_layer():
    # L = y^1_1 y^2_2 has a single mixed second derivative; the two index
    # orders contribute 1/4 each to the om^1 ^ om^2 coefficient
    lam = Lagrangian(CH22, yj(1, 1) * yj(2, 2))
    Z = fundamental(lam)
    theta = poincare_cartan(lam)
    diff_form = Z - theta
    assert equal(diff_form.coefficient((om(1), om(2))), const(1) / const(2))
    assert len(diff_form.terms) == 1
    # the second layer is what makes the vertical contractions die
    rng = random.Random(47)
    dZ = ext_d(Z)
    dtheta = ext_d(theta)
    for _ in range(3):
        xi = vertical_jet_field(CH22, rng)
        assert horizontalize(contract(xi, dZ)).is_zero
        assert horizontalize(contract(xi, dtheta)).is_zero


def test_order_one_base_all_constructors_coincide():
    L = sqrt_expr(ONE + yj(1, 1) ** 2)
    lam = Lagrangian(CH11, L)
    theta = poincare_cartan(lam)
    assert (fundamental(lam) - theta).is_zero
    assert form_equal(caratheodory(lam), theta, trials=8, seed=2).verdict == "equal"


def test_closed_horizontal_form_is_its_own_equivalent():
    # rho = dy^1 ^ dy^2 induces the determinant Lagrange function, whose
    # fundamental equivalent returns rho itself
    rho = HorizontalNForm(CH21, form(CH21, "coordinate", {(dy(1), dy(2)): ONE}))
    lam = lagrangian_of(rho)
    assert equal(lam.L, yj(1, 1) * yj(2, 2) - yj(2, 1) * yj(1, 2))
    Z = fundamental(lam)
    assert form_equal(Z, rho.form, trials=6, seed=3).verdict == "equal"
    assert ext_d(to_coordinate(Z)).is_zero


def test_trivial_lagrangian_closed_and_null():
    lam = Lagrangian(CH21, yj(1, 1))
    assert all(e.is_zero for e in euler_lagrange(lam))
    assert ext_d(fundamental(lam)).is_zero


def test_caratheodory_rejects_zero():
    with pytest.raises(ExprError):
        caratheodory(Lagrangian(CH21, ZERO))


# ---------------------------------------------------------------------------
# homogeneous constructors
# ---------------------------------------------------------------------------

def test_homogeneous_fundamental_matches_generic():
    lam = area_lagrangian(CH21)
    W = fundamental_homogeneous(lam, verify=True, trials=10, seed=1)
    assert all(all(cov.kind == "dy" for cov in word) for word in W.terms)
    assert form_equal(W, fundamental(lam), trials=8, seed=5).verdict == "equal"


def test_homogeneous_constructors_reject_inhomogeneous():
    lam = dirichlet_lagrangian()
    with pytest.raises(ExprError):
        fundamental_homogeneous(lam, trials=10, seed=1)
    with pytest.raises(ExprError):
        hilbert_caratheodory(lam, trials=10, seed=1)


def test_area_equivalents_coincide():
    # both homogeneous constructions collapse to the same pure-dy form
    for chart in (CH21, CH22):
        lam = area_lagrangian(chart)
        W = fundamental_homogeneous(lam, verify=False, trials=10, seed=1)
        HC = hilbert_caratheodory(lam, trials=10, seed=1)
        assert form_equal(W, HC, trials=10, seed=7).verdict == "equal"
        C = caratheodory(lam)
        assert form_equal(C, HC, trials=10, seed=9).verdict == "equal"


def test_skew_pair_control_separates_equivalents():
    lam = skew_pair_lagrangian()
    W = fundamental_homogeneous(lam, verify=True, trials=10, seed=1)
    HC = hilbert_caratheodory(lam, trials=10, seed=1)
    res = form_equal(W, HC, trials=10, seed=11)
    assert res.verdict == "unequal"
    assert res.word is not None
    assert "unequal" in res.describe()


# ---------------------------------------------------------------------------
# Lepage criterion for horizontal coefficient systems
# ---------------------------------------------------------------------------

def test_is_lepage_constant_coefficients():
    rho = HorizontalNForm(CH21, form(CH21, "coordinate",
                                     {(dy(1), dy(2)): const(3),
                                      (dy(1), dy(3)): ONE}))
    assert is_lepage(rho.form, lagrangian_of(rho), trials=10, seed=1).passed


def test_is_lepage_area_form():
    lam = area_lagrangian(CH21)
    W = fundamental_homogeneous(lam, verify=False, trials=10, seed=1)
    rho = HorizontalNForm(CH21, W)
    verdict = is_lepage(rho.form, lagrangian_of(rho), trials=10, seed=1)
    assert verdict.passed
    assert verdict.describe() == "pass"


def test_is_lepage_rejects_jet_dependent_defect():
    rho = HorizontalNForm(CH21, form(CH21, "coordinate",
                                     {(dy(1), dy(2)): yj(1, 1)}))
    verdict = is_lepage(rho.form, lagrangian_of(rho), trials=10, seed=1)
    assert not verdict.passed
    assert "defect at fiber index 1" in verdict.detail


def test_is_lepage_degree_mismatch_fails_with_description():
    # an (n+1)-form cannot carry the Lagrangian volume n-form
    rho = form(CH11, "coordinate", {(dx(1), dy(1)): ONE})
    verdict = is_lepage(rho, Lagrangian(CH11, yj(1, 1) ** 2), trials=5,
                        seed=0)
    assert not verdict.passed
    assert verdict.decided_by == "definitional"
    assert verdict.describe() == ("fail: defect at fiber index 1, base index "
                                  "1: unequal: the forms differ in degree")


def closed_defect(rho: HorizontalNForm, P: int, s: int):
    """Reference h(d/dy^P_s -| d rho) for a pure-dy form, by closed formula.

    Only the jet-dependence of the coefficients survives the contraction, and
    the horizontal dy^K_1 ^ ... ^ dy^K_n pairs with the jet determinant sum.
    """
    n, M = rho.chart.n, rho.chart.M
    pieces = []
    for Ks in product(range(1, M + 1), repeat=n):
        dA = diff(rho.coefficient(Ks), Sym("y1", P, s))
        if dA.is_zero:
            continue
        for p in permutations(range(1, n + 1)):
            term = const(levi_civita(p)) * dA
            for K, j in zip(Ks, p):
                term = term * yj(K, j)
            pieces.append(term)
    return expr_sum(pieces)


ORACLE_TERMS = {
    "constant": {(dy(1), dy(2)): const(3), (dy(1), dy(3)): ONE},
    "jet-dependent": {(dy(1), dy(2)): yj(1, 1)},
    "configuration": {(dy(1), dy(3)): yy(2) * const(2)},
}


@pytest.mark.parametrize("label", [*ORACLE_TERMS, "krupka"])
def test_is_lepage_matches_closed_defect_formula(label):
    # every jet direction: the closed formula is structurally zero exactly
    # where the generic contraction vanishes, and is_lepage fails at the
    # first direction where it does not
    if label == "krupka":
        rho = krupka_form(MetricSpec.euclidean(3), 2)
    else:
        rho = HorizontalNForm(CH21, form(CH21, "coordinate",
                                         ORACLE_TERMS[label]))
    chart = rho.chart
    drho = ext_d(rho.form)
    vanishes = {}
    for s in chart.jet1_symbols():
        vanishes[s] = closed_defect(rho, s.a, s.b).is_zero
        generic = horizontalize(contract(VectorField(chart, {s: ONE}), drho))
        res = form_equal(generic, zero_form(chart, chart.n, generic.mode),
                         trials=10, seed=1)
        assert (res.verdict == "equal") == vanishes[s], s
    verdict = is_lepage(rho.form, lagrangian_of(rho), trials=10, seed=1)
    assert verdict.passed == all(vanishes.values())
    assert verdict.direction == next(
        (s for s in chart.jet1_symbols() if not vanishes[s]), None)
    assert (label == "jet-dependent") == (not verdict.passed)


def test_lepage_horizontal_forms_have_homogeneous_lagrangian():
    from lepage.homogeneity import zermelo_residuals
    rho = HorizontalNForm(CH21, form(CH21, "coordinate",
                                     {(dy(1), dy(3)): yy(2) * const(2)}))
    assert is_lepage(rho.form, lagrangian_of(rho), trials=10, seed=1).passed
    lam = lagrangian_of(rho)
    assert zermelo_residuals(lam.L, CH21, trials=10, seed=1).passed


# ---------------------------------------------------------------------------
# is_lepage's contact path: compare with the Poincare-Cartan form
# ---------------------------------------------------------------------------

INTEGRANDS = {
    "arclength": lambda: minimal_lagrangian(MetricSpec.euclidean(2), 1),
    "area": lambda: minimal_lagrangian(MetricSpec.euclidean(3), 2),
    "jacobian": _jacobian_lagrangian,
}
CONSTRUCTORS = {
    "poincare_cartan": poincare_cartan,
    "fundamental": fundamental,
    "caratheodory": caratheodory,
    "fundamental_homogeneous": lambda lam: fundamental_homogeneous(
        lam, trials=8, seed=0),
    "hilbert_caratheodory": lambda lam: hilbert_caratheodory(
        lam, trials=8, seed=0),
    "krupka": lambda lam: krupka_form(MetricSpec.euclidean(3), 2).form,
}
# the selftest's nine generic cases plus the homogeneous and metric forms
# of the area integrand
CONTACT_CASES = [(i, c) for i in INTEGRANDS
                 for c in ("poincare_cartan", "fundamental", "caratheodory")]
CONTACT_CASES += [("area", c) for c in ("fundamental_homogeneous",
                                        "hilbert_caratheodory", "krupka")]


def definitional(rho: DiffForm, lam: Lagrangian, **options):
    return _lepage_verdict(rho, ext_d(rho), lam, **options)


@pytest.mark.parametrize("integrand,ctor", CONTACT_CASES)
def test_constructors_take_the_contact_path(integrand, ctor):
    lam = INTEGRANDS[integrand]()
    verdict = is_lepage(CONSTRUCTORS[ctor](lam), lam, trials=20, seed=0,
                        guards=[lam.L])
    assert verdict.passed and verdict.carries_lagrangian
    assert verdict.decided_by == "contact"


@pytest.mark.parametrize("ctor", sorted(CONSTRUCTORS))
def test_contact_path_agrees_with_definitional(ctor):
    lam = INTEGRANDS["area"]()
    rho = CONSTRUCTORS[ctor](lam)
    fast = is_lepage(rho, lam, trials=20, seed=0, guards=[lam.L])
    slow = definitional(rho, lam, trials=20, seed=0, guards=[lam.L])
    assert fast.decided_by == "contact"
    assert slow.decided_by == "definitional"
    assert fast.passed and slow.passed and slow.carries_lagrangian


def random_two_contact(chart, rng: random.Random) -> DiffForm:
    """Random polynomial multiple of each om^K ^ om^L on an n = 2 chart."""
    atoms = [x(1), x(2), *(yy(K) for K in range(1, chart.M + 1)),
             *(yj(K, j) for K in range(1, chart.M + 1) for j in (1, 2))]
    terms = {}
    for K in range(1, chart.M + 1):
        for L in range(K + 1, chart.M + 1):
            a, b = rng.sample(atoms, 2)
            terms[(om(K), om(L))] = (const(rng.randint(-3, 3)) * a * b
                                     + const(rng.randint(1, 3)) * a)
    return form(chart, "contact", terms)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_theta_plus_two_contact_form_passes_both_paths(seed):
    lam = dirichlet_lagrangian()
    rho = poincare_cartan(lam) + random_two_contact(CH21, random.Random(seed))
    for candidate in (rho, to_coordinate(rho)):
        verdict = is_lepage(candidate, lam, trials=10, seed=1)
        assert verdict.passed and verdict.decided_by == "contact"
        assert definitional(candidate, lam, trials=10, seed=1).passed


def test_one_contact_perturbation_falls_through_and_fails():
    lam = dirichlet_lagrangian()
    bump = form(CH21, "contact", {(om(1), dx(1)): yj(1, 1)})
    rho = poincare_cartan(lam) + bump
    verdict = is_lepage(rho, lam, trials=10, seed=1)
    assert verdict == definitional(rho, lam, trials=10, seed=1)
    assert verdict.decided_by == "definitional"
    assert not verdict.passed
    assert verdict.detail.startswith("defect at fiber index 1, base index 2")


def test_exact_contact_term_falls_through_and_passes():
    # Theta + d(f om^1) is Lepage but has a different 1-contact part
    lam = dirichlet_lagrangian()
    nu = DiffForm(CH21, 1, "contact", {(om(1),): yy(2) * yj(3, 1)})
    rho = poincare_cartan(lam) + to_contact(ext_d(nu))
    verdict = is_lepage(rho, lam, trials=10, seed=1)
    assert verdict.passed
    assert verdict.decided_by == "definitional"


def test_order_two_chart_falls_through():
    raised = Lagrangian(CH21.raised(), dirichlet_lagrangian().L)
    verdict = is_lepage(poincare_cartan(raised), raised, trials=10, seed=1)
    assert verdict.decided_by == "definitional"


# ---------------------------------------------------------------------------
# Euler-Lagrange expressions
# ---------------------------------------------------------------------------

def test_euler_lagrange_mechanics():
    # free particle: E = -acceleration; the chart has M = n + m components
    lam = Lagrangian(CH11, yj(1, 1) ** 2 / const(2))
    E = euler_lagrange(lam)
    assert equal(E[0], -sym_expr(Sym("y2", 1, 1, 1)))
    assert E[1].is_zero
    # quadratic potential adds the configuration gradient
    lam2 = Lagrangian(CH11, yj(1, 1) ** 2 / const(2) - yy(1) ** 2 / const(2))
    E2 = euler_lagrange(lam2)
    assert equal(E2[0], -yy(1) - sym_expr(Sym("y2", 1, 1, 1)))


def test_euler_lagrange_dirichlet():
    lam = dirichlet_lagrangian()
    E = euler_lagrange(lam)
    assert E[0].is_zero and E[1].is_zero
    lap = expr_sum(sym_expr(Sym("y2", 3, j, j)) for j in (1, 2))
    assert equal(E[2], -const(2) * lap)


def test_el_form_check_dirichlet_style():
    # horizontal forms with constant or configuration coefficients
    rho = HorizontalNForm(CH21, form(CH21, "coordinate",
                                     {(dy(1), dy(2)): yy(3)}))
    verdict = el_form_check(rho, trials=8, seed=3)
    assert verdict.passed


def test_el_form_check_area_form():
    lam = area_lagrangian(CH21)
    W = fundamental_homogeneous(lam, verify=False, trials=10, seed=1)
    verdict = el_form_check(HorizontalNForm(CH21, W), trials=6, seed=3)
    assert verdict.passed


def test_el_form_check_fails_on_unknown_one_contact_part(monkeypatch):
    # a 1-contact comparison whose samples were all skipped is no evidence
    import lepage.equivalents as equivalents
    compare = equivalents.form_equal
    word = (om(1), dx(1), dx(2))

    def skipped(a, b, **options):
        if a.degree == CH21.n + 1:
            return EqualResult("unknown", word=word)
        return compare(a, b, **options)

    monkeypatch.setattr(equivalents, "form_equal", skipped)
    rho = HorizontalNForm(CH21, form(CH21, "coordinate",
                                     {(dy(1), dy(2)): yy(3)}))
    verdict = el_form_check(rho, trials=8, seed=3)
    assert not verdict.passed
    assert verdict.result.verdict == "unknown"
    assert verdict.detail == ("1-contact part mismatch: "
                              "unknown at word om1^dx1^dx2")


def test_el_form_check_gate():
    rho = HorizontalNForm(CH21, form(CH21, "coordinate",
                                     {(dy(1), dy(2)): yj(1, 1)}))
    verdict = el_form_check(rho, trials=6, seed=3)
    assert not verdict.passed
    assert "not a Lepage form" in verdict.detail
