"""Tests for field prolongation, Noether machinery, and quadrature checks."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import lepage.forms

from lepage.charts import AdaptedChart, ChartError, JetChart
from lepage.expr import (
    ONE, PointAssignment, Sym, ZERO, const, diff, equal, evaluate, expr_sum,
    free_symbols, sqrt_expr, sym_expr, wj, x, yj, yy,
)
from lepage.forms import (
    FormError, Immersion, contract, dw, ext_d, form, form_equal, form_vanishes,
    lie_derivative, pullback_immersion, volume_form, zero_form,
)
from lepage.equivalents import (
    HorizontalNForm, Lagrangian, fundamental_homogeneous, poincare_cartan,
)
from lepage.homogeneity import grassmann_form
from lepage.variation import (
    VectorFieldSpec, _gauss_nodes, first_variation_check, noether_current,
    noether_residual, prolong_grassmann, prolong_jet,
    reparameterization_invariance,
)

CH21 = JetChart(n=2, m=1, order=1)
CH11 = JetChart(n=1, m=1, order=1)
AD21 = AdaptedChart(CH21, (1, 2))


def area_lagrangian() -> Lagrangian:
    L = sqrt_expr(expr_sum(
        (yj(K1, 1) * yj(K2, 2) - yj(K2, 1) * yj(K1, 2)) ** 2
        for K1 in range(1, 4) for K2 in range(K1 + 1, 4)))
    return Lagrangian(CH21, L)


def grassmann_area_form():
    lam = area_lagrangian()
    W = fundamental_homogeneous(lam, verify=False, trials=8, seed=1)
    return grassmann_form(HorizontalNForm(CH21, W), AD21)


GRASSMANN_SPEED = sqrt_expr(ONE + wj(3, 1) ** 2 + wj(3, 2) ** 2)


# ---------------------------------------------------------------------------
# closed-form flows of constant and linear fields, the oracle for the
# prolonged fields
# ---------------------------------------------------------------------------

def is_constant(xi: VectorFieldSpec) -> bool:
    return all(not free_symbols(c) for c in xi.components)


def linear_matrix(xi: VectorFieldSpec) -> np.ndarray | None:
    """Coefficient matrix when every component is linear homogeneous."""
    M = xi.chart.M
    out = np.zeros((M, M))
    for K in range(1, M + 1):
        comp = xi.component(K)
        rebuilt = ZERO
        for L in range(1, M + 1):
            c = diff(comp, Sym("y", L))
            val = c.as_fraction()
            if val is None:
                return None
            out[K - 1][L - 1] = float(val)
            rebuilt = rebuilt + c * sym_expr(Sym("y", L))
        if not (rebuilt - comp).is_zero:
            return None
    return out


def flow(xi: VectorFieldSpec, t: float, values: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray]:
    """Flow map and its derivative matrix at time t: a translation for a
    constant field, a matrix exponential for a linear homogeneous one."""
    M = xi.chart.M
    values = np.asarray(values, dtype=float)
    if is_constant(xi):
        shift = np.array([evaluate(xi.component(K), PointAssignment({}))
                          for K in range(1, M + 1)])
        return values + t * shift, np.eye(M)
    A = linear_matrix(xi)
    if A is None:
        raise ChartError("closed-form flow needs a constant or linear field")
    T = pytest.importorskip("scipy.linalg").expm(t * A)
    return T @ values, T


# ---------------------------------------------------------------------------
# field declarations
# ---------------------------------------------------------------------------

def test_field_spec_validation():
    found = "field components live on the configuration space; found"
    for components, text in [((ONE, ONE), "field needs 3 components, got 2"),
                             ((yj(1, 1), ZERO, ZERO), f"{found} y1_1"),
                             ((x(1), ZERO, ZERO), f"{found} x1")]:
        with pytest.raises(ChartError) as info:
            VectorFieldSpec(CH21, components)
        assert str(info.value) == text


def test_field_constructors():
    c = VectorFieldSpec.constant(CH11, (2, -1))
    assert is_constant(c)
    assert equal(c.component(1), const(2))
    rot = VectorFieldSpec.linear(CH11, [[0, -1], [1, 0]])
    assert not is_constant(rot)
    A = linear_matrix(rot)
    assert A is not None and A[0][1] == -1.0 and A[1][0] == 1.0
    assert linear_matrix(VectorFieldSpec(CH11, (yy(1) ** 2, ZERO))) is None


# ---------------------------------------------------------------------------
# prolongation to jets
# ---------------------------------------------------------------------------

def test_prolong_jet_constant():
    P = prolong_jet(VectorFieldSpec.constant(CH21, (1, 2, 3)), order=2)
    for K in range(1, 4):
        for j in (1, 2):
            assert P.component(Sym("y1", K, j)).is_zero
    assert P.component(Sym("y2", 1, 1, 2)).is_zero


def test_prolong_jet_configuration_swap():
    xi = VectorFieldSpec(CH11, (yy(2), ZERO))
    P = prolong_jet(xi)
    assert equal(P.component(Sym("y1", 1, 1)), yj(2, 1))


def test_prolong_jet_rotation():
    rot = VectorFieldSpec.linear(CH11, [[0, -1], [1, 0]])
    P = prolong_jet(rot, order=2)
    assert equal(P.component(Sym("y1", 1, 1)), -yj(2, 1))
    assert equal(P.component(Sym("y1", 2, 1)), yj(1, 1))
    assert equal(P.component(Sym("y2", 1, 1, 1)), -sym_expr(Sym("y2", 2, 1, 1)))


# ---------------------------------------------------------------------------
# prolongation to the quotient chart
# ---------------------------------------------------------------------------

def test_prolong_grassmann_constant():
    P = prolong_grassmann(VectorFieldSpec.constant(CH21, (1, 2, 3)), AD21)
    assert equal(P.component(Sym("w", 3)), const(3))
    assert P.component(Sym("w1", 3, 1)).is_zero
    assert P.component(Sym("w1", 3, 2)).is_zero


def test_prolong_grassmann_expanded_display():
    # slope components expand through the adapted derivative of each piece:
    # Xi^3_i = Delta_i Xi^3 - w3_1 Delta_i Xi^1 - w3_2 Delta_i Xi^2
    xi = VectorFieldSpec(CH21, (yy(3), yy(1) * yy(2), yy(2)))
    P = prolong_grassmann(xi, AD21)
    w1, w2 = sym_expr(Sym("w", 1)), sym_expr(Sym("w", 2))
    s1, s2 = wj(3, 1), wj(3, 2)
    assert equal(P.component(Sym("w1", 3, 1)), -s1 * s1 - s2 * w2)
    assert equal(P.component(Sym("w1", 3, 2)), ONE - s1 * s2 - s2 * w1)


def grassmann_point(rng: np.random.Generator) -> dict:
    vals = {Sym("w", 1): rng.uniform(-1, 1), Sym("w", 2): rng.uniform(-1, 1),
            Sym("w", 3): rng.uniform(-1, 1)}
    vals[Sym("w1", 3, 1)] = rng.uniform(-1, 1)
    vals[Sym("w1", 3, 2)] = rng.uniform(-1, 1)
    return vals


def jets_of_grassmann_point(vals: dict) -> tuple[np.ndarray, np.ndarray]:
    ys = np.array([vals[Sym("w", K)] for K in (1, 2, 3)])
    jets = np.array([[1.0, 0.0], [0.0, 1.0],
                     [vals[Sym("w1", 3, 1)], vals[Sym("w1", 3, 2)]]])
    return ys, jets


def slopes_from_jets(jets: np.ndarray) -> np.ndarray:
    # y^3_j = w^3_1 y^1_j + w^3_2 y^2_j
    return np.linalg.solve(jets[:2, :].T, jets[2, :])


def test_flow_consistency_linear_field():
    # finite-difference of the quotient coordinates along the flow matches
    # the prolonged components
    A = [[0.0, -0.3, 0.1], [0.3, 0.0, -0.2], [0.2, 0.4, 0.0]]
    xi = VectorFieldSpec.linear(CH21, A)
    P = prolong_grassmann(xi, AD21)
    rng = np.random.default_rng(8)
    h = 1e-5
    for _ in range(20):
        vals = grassmann_point(rng)
        ys, jets = jets_of_grassmann_point(vals)
        moved = {}
        for t in (h, -h):
            yt, T = flow(xi, t, ys)
            jt = T @ jets
            moved[t] = (yt, slopes_from_jets(jt))
        assign = PointAssignment(vals)
        for K in (1, 2, 3):
            fd = (moved[h][0][K - 1] - moved[-h][0][K - 1]) / (2 * h)
            assert abs(fd - evaluate(P.component(Sym("w", K)), assign)) < 1e-6
        for i in (1, 2):
            fd = (moved[h][1][i - 1] - moved[-h][1][i - 1]) / (2 * h)
            assert abs(fd - evaluate(P.component(Sym("w1", 3, i)), assign)) < 1e-6


def test_flow_closed_forms():
    c = VectorFieldSpec.constant(CH11, (1.0, -2.0))
    moved, T = flow(c, 0.5, np.array([0.0, 0.0]))
    assert np.allclose(moved, [0.5, -1.0]) and np.allclose(T, np.eye(2))
    rot = VectorFieldSpec.linear(CH11, [[0, -1], [1, 0]])
    moved, T = flow(rot, np.pi / 2, np.array([1.0, 0.0]))
    assert np.allclose(moved, [0.0, 1.0], atol=1e-12)
    with pytest.raises(ChartError):
        flow(VectorFieldSpec(CH11, (yy(1) ** 2, ZERO)), 0.1, np.zeros(2))


def test_prolongation_functoriality():
    # quotient prolongation of a composed map equals the composition of the
    # prolongations, checked on slope coordinates at sample points
    rng = np.random.default_rng(15)
    Amat = np.array([[1.0, 0.2, -0.1], [0.0, 0.9, 0.3], [0.1, -0.2, 1.1]])
    zeta = Immersion(CH21, (x(1) + x(2) ** 2 * const(Fraction(1, 5)),
                            x(2), x(1) * x(2)))
    composed = Immersion(CH21, tuple(
        expr_sum(const(Fraction(Amat[K][L]).limit_denominator(10 ** 6))
                 * zeta.components[L] for L in range(3))
        for K in range(3)))
    sub_direct = composed.adapted_substitution(AD21)
    for _ in range(20):
        pt = PointAssignment({Sym("x", 1): rng.uniform(0.5, 1.5),
                              Sym("x", 2): rng.uniform(0.5, 1.5)})
        jets = np.array([[evaluate(zeta.jet1(K, j), pt) for j in (1, 2)]
                         for K in (1, 2, 3)])
        pushed = Amat @ jets
        slopes = slopes_from_jets(pushed)
        for i, want in zip((1, 2), slopes):
            got = evaluate(sub_direct[Sym("w1", 3, i)], pt)
            assert abs(got - want) < 1e-9


# ---------------------------------------------------------------------------
# invariance residual and currents
# ---------------------------------------------------------------------------

def test_noether_residual_zero_form():
    eta = zero_form(CH21, 2, "adapted", adapted=AD21)
    res = noether_residual(VectorFieldSpec.constant(CH21, (1, 0, 0)), eta)
    assert res.is_zero


def test_noether_residual_mode_gate():
    with pytest.raises(FormError):
        noether_residual(VectorFieldSpec.constant(CH21, (1, 0, 0)),
                         volume_form(CH21))


def is_invariance_generator(xi, eta, **sampling):
    """Sampled verdict on the invariance residual being zero."""
    return form_vanishes(noether_residual(xi, eta), **sampling)


def test_constant_fields_are_invariance_generators():
    WG = grassmann_area_form()
    for K in (1, 2, 3):
        values = [0, 0, 0]
        values[K - 1] = 1
        xi = VectorFieldSpec.constant(CH21, values)
        assert noether_residual(xi, WG).is_zero
        rep = is_invariance_generator(xi, WG, trials=6, seed=2)
        assert rep.verdict == "equal"
        assert rep.describe().startswith("equal (")


def test_scaling_field_breaks_invariance():
    WG = grassmann_area_form()
    xi = VectorFieldSpec(CH21, (ZERO, ZERO, yy(3)))
    rep = is_invariance_generator(xi, WG, trials=8, seed=2)
    assert rep.verdict == "unequal"
    assert rep.describe().startswith("unequal at word ")


def test_rotation_field_is_invariance_generator():
    # rotations of the Euclidean configuration preserve induced area
    WG = grassmann_area_form()
    xi = VectorFieldSpec(CH21, (-yy(2), yy(1), ZERO))
    rep = is_invariance_generator(xi, WG, trials=8, seed=3,
                                  guards=[GRASSMANN_SPEED])
    assert rep.verdict == "equal"


def test_noether_current_zero_field():
    WG = grassmann_area_form()
    cur = noether_current(VectorFieldSpec.constant(CH21, (0, 0, 0)), WG)
    assert cur.is_zero


def test_noether_currents_match_displays():
    # frozen displays of the three constant-field currents on the quotient
    WG = grassmann_area_form()
    LG = GRASSMANN_SPEED
    expected = {
        1: {(dw(3),): wj(3, 2) / LG, (dw(2),): ONE / LG},
        2: {(dw(3),): -wj(3, 1) / LG, (dw(1),): -ONE / LG},
        3: {(dw(1),): -wj(3, 2) / LG, (dw(2),): wj(3, 1) / LG},
    }
    for K, terms in expected.items():
        values = [0, 0, 0]
        values[K - 1] = 1
        cur = noether_current(VectorFieldSpec.constant(CH21, values), WG)
        want = form(CH21, "adapted", terms, adapted=AD21)
        assert form_equal(cur, want, trials=8, seed=4).verdict == "equal"


def test_momentum_current_in_mechanics():
    # translation invariance of the free particle gives the momentum
    lam = Lagrangian(CH11, yj(1, 1) ** 2 / const(2))
    theta = poincare_cartan(lam)
    xi = VectorFieldSpec.constant(CH11, (1, 0))
    cur = noether_current(xi, theta)
    assert equal(cur.coefficient(()), yj(1, 1))


def test_currents_closed_along_plane_extremal():
    WG = grassmann_area_form()
    plane = Immersion(CH21, (x(1), x(2),
                             const(2) * x(1) - const(3) * x(2) + ONE))
    for K in (1, 2, 3):
        values = [0, 0, 0]
        values[K - 1] = 1
        cur = noether_current(VectorFieldSpec.constant(CH21, values), WG)
        pulled = pullback_immersion(cur, plane)
        assert ext_d(pulled).is_zero


def test_current_not_closed_off_extremal():
    WG = grassmann_area_form()
    bent = Immersion(CH21, (x(1), x(2), x(1) ** 2 + x(2) ** 2))
    xi = VectorFieldSpec.constant(CH21, (0, 0, 1))
    pulled = pullback_immersion(noether_current(xi, WG), bent)
    assert not ext_d(pulled).is_zero


# ---------------------------------------------------------------------------
# first variation quadrature
# ---------------------------------------------------------------------------

def setup_variation():
    lam = area_lagrangian()
    W = fundamental_homogeneous(lam, verify=False, trials=8, seed=1)
    HW = HorizontalNForm(CH21, W)
    zeta = Immersion(CH21, (x(1), x(2), x(1) * x(2) * const(Fraction(1, 10))))
    return lam, HW, zeta


def test_first_variation_zero_field():
    _, HW, zeta = setup_variation()
    rep = first_variation_check(HW, VectorFieldSpec.constant(CH21, (0, 0, 0)),
                                zeta, (0.0, 1.0, 0.0, 1.0), points=4)
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_first_variation_constant_field():
    _, HW, zeta = setup_variation()
    xi = VectorFieldSpec.constant(CH21, (0, 0, 1))
    rep = first_variation_check(HW, xi, zeta, (0.0, 1.0, 0.0, 1.0), points=8)
    # vertical translations leave the area integral unchanged, so the
    # volume and boundary contributions cancel
    assert abs(rep.volume_term) > 1e-5
    assert rep.rel_difference <= 1e-9
    assert "relative difference" in rep.describe()


def test_first_variation_nonconstant_field():
    _, HW, zeta = setup_variation()
    xi = VectorFieldSpec(CH21, (ZERO, ZERO, yy(3)))
    rep = first_variation_check(HW, xi, zeta, (0.0, 1.0, 0.0, 1.0), points=12)
    assert abs(rep.lhs) > 1e-4
    assert rep.rel_difference <= 1e-9


def test_first_variation_extremal_drops_volume_term():
    _, HW, _ = setup_variation()
    plane = Immersion(CH21, (x(1), x(2), const(2) * x(1) - x(2) + ONE))
    xi = VectorFieldSpec(CH21, (ZERO, ZERO, yy(1) * yy(2)))
    rep = first_variation_check(HW, xi, plane, (0.0, 1.0, 0.0, 1.0), points=12)
    assert abs(rep.volume_term) < 1e-12
    assert rep.rel_difference <= 1e-9


# ---------------------------------------------------------------------------
# the Gauss-Legendre rule
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)


def test_gauss_legendre_matches_leggauss():
    from numpy.polynomial.legendre import leggauss
    for n in range(1, 65):
        nodes, weights = _gauss_nodes(-1.0, 1.0, n)
        want_nodes, want_weights = leggauss(n)
        assert np.all(np.diff(nodes) > 0)
        assert np.max(np.abs(nodes - want_nodes)) <= 2 * EPS
        # leggauss's own weights are up to 22 eps from the exact rule
        # (n = 41), so they are matched to 32 eps; the test below holds
        # these weights to 2 eps of the exact rule
        assert np.max(np.abs(weights - want_weights)) <= 32 * EPS


@pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 41, 64])
def test_gauss_legendre_matches_exact_rule(n):
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = _gauss_nodes(-1.0, 1.0, n)
    with mpmath.workdps(40):
        for t, w in zip(nodes, weights):
            # Newton on P_n from the float node, at 40 digits
            root = mpmath.mpf(t)
            for _ in range(3):
                before, value = mpmath.mpf(1), root
                for k in range(2, n + 1):
                    before, value = value, ((2 * k - 1) * root * value
                                            - (k - 1) * before) / k
                slope = n * (before - root * value) / (1 - root ** 2)
                root -= value / slope
            exact = 2 / ((1 - root ** 2) * slope ** 2)
            assert abs(t - root) <= EPS
            assert abs(w - exact) <= 2 * EPS


def test_gauss_legendre_integrates_monomials_exactly():
    for n in range(1, 65):
        nodes, weights = _gauss_nodes(-1.0, 1.0, n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(weights * nodes ** k) - exact) <= 1e-14


@pytest.mark.parametrize("points, error", [(0, ValueError), (-1, ValueError),
                                           (2.5, TypeError)])
def test_gauss_legendre_rejects_a_point_count_that_is_not_positive(points,
                                                                   error):
    with pytest.raises(error):
        _gauss_nodes(0.0, 1.0, points)


# ---------------------------------------------------------------------------
# reparameterization invariance
# ---------------------------------------------------------------------------

def test_reparameterization_invariance_homogeneous():
    lam, _, zeta = setup_variation()
    shear = x(2) ** 2 * const(Fraction(1, 10))
    rep = reparameterization_invariance(lam, zeta, shear,
                                        (0.0, 1.0, 0.0, 1.0), points=24)
    assert rep.rel_difference <= 1e-9
    assert "reparameterized" in rep.describe()


def test_reparameterization_detects_inhomogeneous():
    lam = Lagrangian(CH21, expr_sum(yj(3, j) ** 2 for j in (1, 2)) + ONE)
    zeta = Immersion(CH21, (x(1), x(2), x(1) * x(2)))
    shear = x(2) ** 2 * const(Fraction(1, 2))
    rep = reparameterization_invariance(lam, zeta, shear,
                                        (0.0, 1.0, 0.0, 1.0), points=24)
    assert rep.rel_difference > 1e-6


def test_reparameterization_shear_validation():
    lam, _, zeta = setup_variation()
    with pytest.raises(FormError):
        reparameterization_invariance(lam, zeta, x(1), (0, 1, 0, 1), points=4)


# ---------------------------------------------------------------------------
# the Lie derivative of the area forms against Cartan's formula
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def area_form_and_d(kind: str):
    """An area form in R^3 and its exterior derivative, built once."""
    lam = area_lagrangian()
    W = {"fundamental-homogeneous":
         lambda: fundamental_homogeneous(lam, verify=False, trials=8, seed=1),
         "poincare-cartan": lambda: poincare_cartan(lam),
         "grassmann": grassmann_area_form}[kind]()
    return W, ext_d(W)


@pytest.mark.parametrize("components", [
    (ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE),
    (yy(2), -yy(1), ZERO),
], ids=["translation-1", "translation-2", "translation-3", "rotation"])
@pytest.mark.parametrize("kind", [
    "fundamental-homogeneous", "poincare-cartan", "grassmann"])
def test_lie_derivative_of_area_forms_is_cartans_formula(kind, components):
    W, dW = area_form_and_d(kind)
    xi = VectorFieldSpec(CH21, components)
    X = (prolong_grassmann(xi, AD21) if kind == "grassmann"
         else prolong_jet(xi, order=1))
    assert lie_derivative(X, W) == contract(X, dW) + ext_d(contract(X, W))


def test_lie_derivative_takes_no_derivative_along_absent_directions(
        monkeypatch):
    # the area form has no y3 in it, so the translation along y3 costs no diff
    W, _ = area_form_and_d("fundamental-homogeneous")
    X = prolong_jet(VectorFieldSpec.constant(CH21, (0, 0, 1)), order=1)
    calls = []
    real = lepage.forms.diff
    monkeypatch.setattr(lepage.forms, "diff",
                        lambda e, s: calls.append(s) or real(e, s))
    assert lie_derivative(X, W).is_zero
    assert calls == []
