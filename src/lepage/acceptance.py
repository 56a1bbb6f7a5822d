"""End-to-end verification scenarios with fixed seeds and runtime budgets.

Each criterion exercises one advertised behavior of the package, from the
symbolic homogeneity residuals down to the grid solver, and reports a single
pass/fail line.  The registry backs both the ``selftest`` command and the
acceptance test module, so the same code path produces both verdicts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ._numpy import lazy, np
from .charts import AdaptedChart, JetChart
from .equivalents import (HorizontalNForm, Lagrangian, _lepage_verdict,
                          caratheodory, euler_lagrange, fundamental,
                          fundamental_homogeneous, poincare_cartan)
from .expr import (ONE, ZERO, Expr, PointAssignment, Sym, atan_expr, const,
                   equal, evaluate, exp_expr, opaque, sqrt_expr, substitute,
                   sym_expr, x, yj, yy)
from .forms import (DiffForm, Immersion, dx, dy, ext_d, form, form_equal,
                    horizontalize, om, pullback_immersion, to_contact,
                    to_coordinate, wedge, zero_form)
from .homogeneity import grassmann_form, zermelo_residuals
from .metric import (MetricSpec, graph_el_residual, krupka_form,
                     minimal_lagrangian, scherk_expr, verify_coincidence)
from .variation import (VectorFieldSpec, first_variation_check, noether_current,
                        noether_residual, reparameterization_invariance)

minimal = lazy("lepage.minimal")  # run by the first grid criterion

__all__ = ["CriterionResult", "CRITERIA", "run_all", "run_one"]

SQUARE = (-1.0, 1.0, -1.0, 1.0)
UNIT = (0.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one criterion: verdict, human-readable detail, wall time."""

    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.number:2d} {self.title}: {self.detail} [{self.seconds:.2f}s]"


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _random_form(chart: JetChart, degree: int, mode: str,
                 rng: random.Random, terms: int = 3) -> DiffForm:
    """Random form with small integer-coefficient polynomial entries."""
    pool = [dx(i) for i in range(1, chart.n + 1)]
    if mode == "coordinate":
        pool += [dy(K) for K in range(1, chart.M + 1)]
    else:
        pool += [om(K) for K in range(1, chart.M + 1)]
    gens = [ONE]
    gens += [x(i) for i in range(1, chart.n + 1)]
    gens += [yy(K) for K in range(1, chart.M + 1)]
    gens += [yj(K, j) for K in range(1, chart.M + 1)
             for j in range(1, chart.n + 1)]
    acc: dict = {}
    for _ in range(terms):
        word = tuple(rng.sample(pool, degree))
        coeff = const(rng.randint(-3, 3)) * rng.choice(gens) \
            + const(rng.randint(-3, 3)) * rng.choice(gens)
        if coeff.is_zero:
            coeff = const(rng.randint(1, 3))
        acc[word] = acc.get(word, ZERO) + coeff
    acc = {w: c for w, c in acc.items() if not c.is_zero}
    if not acc:
        return zero_form(chart, degree, mode)
    return form(chart, mode, acc)


def _jacobian_lagrangian() -> Lagrangian:
    """Horizontal part of the fiber area element of the first two components."""
    ch = JetChart(2, 1, 1)
    h = horizontalize(form(ch, "coordinate", {(dy(1), dy(2)): ONE}))
    return Lagrangian(ch, h.coefficient((dx(1), dx(2))))


def _scherk_solve(N: int):
    bound = minimal.GridField.dirichlet(SQUARE, (N, N),
                                        minimal.BUILTIN_SURFACES["scherk"])
    return minimal.solve_minimal_surface(bound, tol=1e-10, max_iter=12)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _homogeneity_suite(seed: int) -> tuple[bool, str]:
    """Area integrand passes every slope-weight identity; controls fail."""
    lam = minimal_lagrangian(MetricSpec.euclidean(3), 2)
    report = zermelo_residuals(lam.L, lam.chart, trials=20, seed=seed)
    zero = all(e.is_zero for e in report.residuals.values())
    parts = [f"area integrand: all {len(report.residuals)} residuals normalize to zero"
             if zero else "area integrand residuals do not vanish"]
    ok = zero
    controls = (("affine slope", yj(1, 1) + ONE), ("squared slope", yj(1, 1) ** 2))
    for label, ctrl in controls:
        rep = zermelo_residuals(ctrl, lam.chart, trials=20, seed=seed)
        bad = rep.witness()
        if bad is None:
            ok = False
            parts.append(f"{label} control unexpectedly passes")
        else:
            ij, verdict = bad
            parts.append(f"{label} control fails at index {ij} "
                         f"with residual {verdict.witness_values[0]:.3g}")
    return ok, "; ".join(parts)


def _equivalence_suite(seed: int) -> tuple[bool, str]:
    """Every constructor reproduces the integrand and kills vertical contractions."""
    integrands = (("arclength", minimal_lagrangian(MetricSpec.euclidean(2), 1)),
                  ("area", minimal_lagrangian(MetricSpec.euclidean(3), 2)),
                  ("jacobian", _jacobian_lagrangian()))
    constructors = (("poincare_cartan", poincare_cartan),
                    ("fundamental", fundamental),
                    ("caratheodory", caratheodory))
    failures: list[str] = []
    contractions = 0
    for lname, lam in integrands:
        for cname, ctor in constructors:
            # the definitional check, independent of is_lepage's comparison
            # with the Poincare-Cartan form
            rho = ctor(lam)
            verdict = _lepage_verdict(rho, ext_d(rho), lam, trials=20,
                                      tol=1e-9, seed=seed, guards=[lam.L])
            if not verdict:
                failures.append(f"{lname}/{cname} {verdict.detail}")
                continue
            contractions += len(lam.chart.jet1_symbols())
    if failures:
        return False, "; ".join(failures)
    return True, (f"3 integrands x 3 constructors: horizontal parts match the "
                  f"integrand and {contractions} jet-direction contractions "
                  f"vanish")


def _fundamental_vs_homogeneous(seed: int) -> tuple[bool, str]:
    """The two fundamental constructions agree on area, differ on a pairing."""
    parts: list[str] = []
    ok = True
    for dim in (3, 4):
        lam = minimal_lagrangian(MetricSpec.euclidean(dim), 2)
        res = form_equal(fundamental(lam),
                         fundamental_homogeneous(lam, trials=8, seed=seed),
                         trials=20, tol=1e-9, seed=seed)
        ok = ok and res.verdict == "equal"
        parts.append(f"surface area in R^{dim}: {res.verdict}")
    ch = JetChart(2, 2, 1)
    L = (yj(1, 1) * yj(2, 2) - yj(2, 1) * yj(1, 2)
         + yj(3, 1) * yj(4, 2) - yj(4, 1) * yj(3, 2))
    lam = Lagrangian(ch, L)
    res = form_equal(fundamental_homogeneous(lam, trials=8, seed=seed),
                     caratheodory(lam), trials=20, tol=1e-9, seed=seed,
                     guards=[L])
    if res.witness is not None:
        point = {str(s): round(v, 4) for s, v in res.witness.symbols.items()}
        a, b = res.witness_values
        parts.append(f"antisymmetric pairing separates the homogeneous and "
                     f"product forms at word {res.word}: {a:.6g} vs {b:.6g} "
                     f"at {point}")
    else:
        ok = False
        parts.append("antisymmetric pairing control unexpectedly agrees")
    return ok, "; ".join(parts)


def _metric_coincidence(seed: int) -> tuple[bool, str]:
    """Homogeneous, product, and metric-tensor equivalents coincide pairwise."""
    metrics = (("euclidean", MetricSpec.euclidean(3)),
               ("exponential diagonal", MetricSpec.diagonal(exp_expr(yy(1)), ONE, ONE)))
    parts: list[str] = []
    ok = True
    for label, g in metrics:
        rep = verify_coincidence(g, 2, trials=50, tol=1e-9, seed=seed)
        ok = ok and rep.passed
        if rep.passed:
            parts.append(f"{label}: all pairs agree at 50 samples")
        else:
            parts.append(f"{label}: disagreement {rep.witnesses()}")
    return ok, "; ".join(parts)


def _graph_equation(seed: int) -> tuple[bool, str]:
    """Euler-Lagrange output restricts to the graph equation; controls are trivial."""
    lam = minimal_lagrangian(MetricSpec.euclidean(3), 2)
    E = euler_lagrange(lam)
    graph: dict[Sym, Expr] = {
        Sym("y1", 1, 1): ONE, Sym("y1", 1, 2): ZERO,
        Sym("y1", 2, 1): ZERO, Sym("y1", 2, 2): ONE,
    }
    for i, j in ((1, 1), (1, 2), (2, 2)):
        graph[Sym("y2", 1, i, j)] = ZERO
        graph[Sym("y2", 2, i, j)] = ZERO
    u1, u2 = yj(3, 1), yj(3, 2)
    u11 = sym_expr(Sym("y2", 3, 1, 1))
    u12 = sym_expr(Sym("y2", 3, 1, 2))
    u22 = sym_expr(Sym("y2", 3, 2, 2))
    pde = (ONE + u2 ** 2) * u11 - const(2) * u1 * u2 * u12 \
        + (ONE + u1 ** 2) * u22
    speed = sqrt_expr(ONE + u1 ** 2 + u2 ** 2)
    quotient = substitute(E[2], graph) * speed ** 3 + pde
    scaled = quotient.is_zero or equal(quotient, ZERO, trials=20, seed=seed,
                                       guards=[speed]).verdict == "equal"
    det = Lagrangian(lam.chart, yj(1, 1) * yj(2, 2) - yj(1, 2) * yj(2, 1))
    trivial = all(e.is_zero for e in euler_lagrange(det))
    closed = ext_d(fundamental(det)).is_zero
    ok = scaled and trivial and closed
    parts = ["graph component equals the surface equation scaled by "
             "-speed^-3" if scaled else "graph component does not match "
             "the surface equation"]
    parts.append("jacobian determinant gives identically zero equations"
                 if trivial else "jacobian determinant equations nonzero")
    parts.append("and a closed fundamental form" if closed
                 else "but its fundamental form is not closed")
    return ok, "; ".join(parts)


def _known_solutions(seed: int) -> tuple[bool, str]:
    """Graph equation residuals vanish on the reference solution family."""
    a, b, c = opaque("a"), opaque("b"), opaque("c")
    plane = graph_el_residual(a * x(1) + b * x(2) + c).is_zero
    scherk = graph_el_residual(scherk_expr()).is_zero
    heli = graph_el_residual(atan_expr(x(2) * x(1) ** -1))
    xs = np.linspace(1.0, 2.0, 100)
    worst = 0.0
    for xv in xs:
        for yv in xs:
            point = PointAssignment({Sym("x", 1): xv, Sym("x", 2): yv})
            worst = max(worst, abs(evaluate(heli, point)))
    ok = plane and scherk and worst <= 1e-8
    return ok, (f"opaque-coefficient plane zero: {plane}; "
                f"log-cosine-ratio graph zero: {scherk}; "
                f"arctangent graph max residual {worst:.3g} over 10000 points")


def _newton_convergence(seed: int) -> tuple[bool, str]:
    """Grid refinement shows second order and fast Newton termination."""
    errors: list[float] = []
    iters: list[int] = []
    ok = True
    for N in (17, 33, 65):
        res = _scherk_solve(N)
        exact = minimal.GridField.from_function(
            SQUARE, (N, N), minimal.BUILTIN_SURFACES["scherk"]).values
        errors.append(float(np.abs(res.field.values - exact).max()))
        iters.append(res.iterations)
        ok = ok and res.converged and res.final_residual < 1e-10
        ok = ok and res.iterations <= 12
    orders = [float(np.log2(errors[k] / errors[k + 1])) for k in range(2)]
    ok = ok and all(o >= 1.9 for o in orders)
    return ok, (f"max errors {', '.join(f'{e:.3e}' for e in errors)}; "
                f"observed orders {orders[0]:.2f}, {orders[1]:.2f}; "
                f"Newton iterations {iters}; residuals below 1e-10")


def _conservation_gates(seed: int) -> tuple[bool, str]:
    """Converged currents pass the cell gates; a non-solution fails them."""
    solved = _scherk_solve(65)
    cons = minimal.conservation_residuals(solved.field)
    rec = minimal.reconstruct_and_check(solved.field)
    gate = cons.gate(10.0)
    ok = solved.converged and cons.passed(10.0) and rec.passed
    parab = minimal.GridField.from_function(
        SQUARE, (65, 65), minimal.BUILTIN_SURFACES["paraboloid"])
    pcons = minimal.conservation_residuals(parab)
    # run the control far past the gates so every stage residual is populated
    prec = minimal.reconstruct_and_check(parab, gate_factor=1e30)
    ok = ok and not pcons.passed(10.0) and prec.rovnice_residual > gate
    return ok, (f"converged solution: max circulation {cons.max_circulation:.3e} "
                f"and relation residual {rec.rovnice_residual:.3e} under gate "
                f"{gate:.3e}; paraboloid control: circulation "
                f"{pcons.max_circulation:.3g} and relation residual "
                f"{prec.rovnice_residual:.3g} both exceed it")


def _first_variation(seed: int) -> tuple[bool, str]:
    """Flow derivative of the action matches volume plus boundary terms."""
    lam = minimal_lagrangian(MetricSpec.euclidean(3), 2)
    W = fundamental_homogeneous(lam, trials=8, seed=seed)
    rho = HorizontalNForm(lam.chart, W)
    xi = VectorFieldSpec.constant(lam.chart, (0, 0, 1))
    zeta = Immersion(lam.chart, (x(1), x(2),
                                 x(1) * x(2) * const(Fraction(1, 10))))
    rep = first_variation_check(rho, xi, zeta, UNIT, points=64)
    return rep.rel_difference <= 1e-6, rep.describe()


def _invariance_suite(seed: int) -> tuple[bool, str]:
    """Translation residuals vanish, currents close, reparameterization holds."""
    ch = JetChart(2, 1, 1)
    ad = AdaptedChart(ch, (1, 2))
    euc = MetricSpec.euclidean(3)
    WG = grassmann_form(krupka_form(euc, 2), ad)
    residuals = []
    closed = []
    plane = Immersion(ch, (x(1), x(2),
                           const(2) * x(1) - const(3) * x(2) + ONE))
    for K in (1, 2, 3):
        values = [1 if i == K else 0 for i in (1, 2, 3)]
        xi = VectorFieldSpec.constant(ch, values)
        residuals.append(noether_residual(xi, WG).is_zero)
        pulled = pullback_immersion(noether_current(xi, WG), plane)
        closed.append(ext_d(pulled).is_zero)
    lam = minimal_lagrangian(euc, 2)
    zeta = Immersion(ch, (x(1), x(2), x(1) * x(2) * const(Fraction(1, 10))))
    shear = x(2) ** 2 * const(Fraction(1, 10))
    rep = reparameterization_invariance(lam, zeta, shear, UNIT, points=24)
    ok = all(residuals) and all(closed) and rep.rel_difference <= 1e-9
    return ok, (f"{sum(residuals)}/3 translation residuals vanish; "
                f"{sum(closed)}/3 pulled-back currents are closed along a "
                f"plane solution; {rep.describe()}")


def _exterior_calculus(seed: int) -> tuple[bool, str]:
    """Conversions round-trip, d is nilpotent, products obey the sign rule."""
    rng = random.Random(seed)
    ch = JetChart(2, 1, 1)
    corpus: list[DiffForm] = []
    roundtrips = nilpotent = 0
    for k in range(50):
        degree = 1 + k % 2
        mode = "coordinate" if k % 4 < 2 else "contact"
        a = _random_form(ch, degree, mode, rng)
        corpus.append(a)
        back = (to_coordinate(to_contact(a)) if mode == "coordinate"
                else to_contact(to_coordinate(a)))
        if (back - a).is_zero:
            roundtrips += 1
        if ext_d(ext_d(a)).is_zero:
            nilpotent += 1
    leibniz = 0
    pairs = list(zip(corpus[0::2], corpus[1::2]))
    for a, b in pairs:
        # the differential may leave the contact basis, so take the product
        # rule in the coordinate basis
        a = to_coordinate(a)
        b = to_coordinate(b)
        sign = const((-1) ** a.degree)
        rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)).scale(sign)
        if (ext_d(wedge(a, b)) - rhs).is_zero:
            leibniz += 1
    ok = roundtrips == 50 and nilpotent == 50 and leibniz == len(pairs)
    return ok, (f"{roundtrips}/50 conversion round-trips exact; "
                f"{nilpotent}/50 repeated differentials vanish; "
                f"{leibniz}/{len(pairs)} product rules hold; the selftest "
                f"command surfaces these verdicts through its exit status")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CRITERIA: tuple[tuple[int, str, Callable[[int], tuple[bool, str]], float | None], ...] = (
    (1, "homogeneity residuals", _homogeneity_suite, 5.0),
    (2, "equivalents reproduce the integrand", _equivalence_suite, 30.0),
    (3, "fundamental vs homogeneous construction", _fundamental_vs_homogeneous, None),
    (4, "metric equivalents coincide", _metric_coincidence, None),
    (5, "graph form of the extremal equations", _graph_equation, None),
    (6, "residuals on known solutions", _known_solutions, None),
    (7, "solver convergence order", _newton_convergence, 60.0),
    (8, "discrete conservation gates", _conservation_gates, None),
    (9, "first variation quadrature", _first_variation, None),
    (10, "invariance residuals and currents", _invariance_suite, None),
    (11, "exterior calculus self-checks", _exterior_calculus, None),
)


def run_one(number: int, seed: int = 0) -> CriterionResult:
    """Run a single registered criterion and wrap its verdict."""
    for num, title, fn, budget in CRITERIA:
        if num != number:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn(seed)
        except Exception as ex:  # criterion bugs become failures, not crashes
            passed, detail = False, f"{type(ex).__name__}: {ex}"
        elapsed = time.perf_counter() - start
        if budget is not None:
            if elapsed <= budget:
                detail += f"; within the {budget:.0f}s budget"
            else:
                passed = False
                detail += f"; exceeded the {budget:.0f}s budget"
        return CriterionResult(num, title, passed, detail, elapsed)
    raise ValueError(f"no criterion numbered {number}")


def run_all(seed: int = 0) -> list[CriterionResult]:
    """Run every registered criterion in order."""
    return [run_one(num, seed) for num, _, _, _ in CRITERIA]
