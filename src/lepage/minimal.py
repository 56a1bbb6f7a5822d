"""Minimal-submanifold Lagrangians and a nonparametric graph workbench.

Symbolic side: the metric area Lagrangian sqrt(det(g_KL y^K_j y^L_k)), its
determinant-type Lepage form on fiber differentials, and coincidence checks
among the homogeneous Lepage constructors.  Numeric side: the quasilinear
graph equation (1+u_y^2)u_xx - 2 u_x u_y u_xy + (1+u_x^2)u_yy = 0 on uniform
grids, a damped Newton solver, conservation-law circulations, and potential
reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from numbers import Integral, Real
from typing import Callable, Mapping

from . import _kernels
from ._numpy import np
from .charts import ChartError, JetChart
from .equivalents import (HorizontalNForm, Lagrangian, fundamental_homogeneous,
                          hilbert_caratheodory)
from .expr import (EqualResult, Expr, ExprError, ONE, Sym, ZERO, const,
                   cos_expr, det_expr, diff, expr_sum, free_symbols, log_expr,
                   sqrt_expr, sym_expr, yj)
from .forms import DiffForm, form_equal

__all__ = [
    "MetricSpec", "GridField", "CoincidenceReport", "SolveResult",
    "ConservationReport", "ReconstructionReport",
    "minimal_lagrangian", "krupka_form", "coincidence_report",
    "verify_coincidence", "graph_el_residual", "solve_minimal_surface",
    "conservation_residuals", "reconstruct_and_check",
    "scherk_expr", "BUILTIN_SURFACES",
]


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
# grids
# ---------------------------------------------------------------------------

@dataclass
class GridField:
    """Nodal values on a uniform rectangle grid, boundary row/column fixed."""

    rect: tuple[float, float, float, float]
    values: np.ndarray

    def __post_init__(self):
        a, b, c, d = self.rect
        if not (a < b and c < d):
            raise ValueError("degenerate rectangle")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or min(self.values.shape) < 3:
            raise ValueError("grid needs at least 3 x 3 nodes")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def hx(self) -> float:
        a, b, _, _ = self.rect
        return (b - a) / (self.nx - 1)

    @property
    def hy(self) -> float:
        _, _, c, d = self.rect
        return (d - c) / (self.ny - 1)

    @property
    def xs(self) -> np.ndarray:
        a, b, _, _ = self.rect
        return np.linspace(a, b, self.nx)

    @property
    def ys(self) -> np.ndarray:
        _, _, c, d = self.rect
        return np.linspace(c, d, self.ny)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    @classmethod
    def from_function(cls, rect, shape: tuple[int, int],
                      fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
                      ) -> "GridField":
        out = cls(tuple(map(float, rect)), np.zeros(shape))
        X, Y = out.meshes()
        out.values = np.asarray(fn(X, Y), dtype=float)
        return out

    @classmethod
    def dirichlet(cls, rect, shape: tuple[int, int],
                  fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
                  ) -> "GridField":
        """Boundary data from fn; interior filled by transfinite interpolation."""
        out = cls.from_function(rect, shape, fn)
        u = out.values
        s = np.linspace(0.0, 1.0, out.nx)[:, None]
        t = np.linspace(0.0, 1.0, out.ny)[None, :]
        blend = ((1 - s) * u[0, :][None, :] + s * u[-1, :][None, :]
                 + (1 - t) * u[:, 0][:, None] + t * u[:, -1][:, None]
                 - (1 - s) * (1 - t) * u[0, 0] - (1 - s) * t * u[0, -1]
                 - s * (1 - t) * u[-1, 0] - s * t * u[-1, -1])
        blend[0, :] = u[0, :]
        blend[-1, :] = u[-1, :]
        blend[:, 0] = u[:, 0]
        blend[:, -1] = u[:, -1]
        out.values = blend
        return out

    def interior_derivatives(self) -> dict[str, np.ndarray]:
        """Central-difference jets at the interior nodes."""
        ux, uy, uxx, uyy, uxy = _kernels._stencil_derivatives(
            self.values, self.hx, self.hy)
        return {"ux": ux, "uy": uy, "uxx": uxx, "uxy": uxy, "uyy": uyy}

    def copy(self) -> "GridField":
        return GridField(self.rect, self.values.copy())


# ---------------------------------------------------------------------------
# graph equation, symbolic and numeric
# ---------------------------------------------------------------------------

_BASE_SYMS = (Sym("x", 1), Sym("x", 2))


def graph_el_residual(u):
    """(1+u_y^2)u_xx - 2 u_x u_y u_xy + (1+u_x^2)u_yy.

    Closed-form input (an expression in the two base coordinates) gives the
    symbolic residual; a GridField gives central-difference values at the
    interior nodes.
    """
    if isinstance(u, GridField):
        return _kernels.interior_residual(u.values, u.hx, u.hy)
    if not isinstance(u, Expr):
        raise TypeError("expected an expression or a GridField")
    extra = [s for s in free_symbols(u) if s not in _BASE_SYMS]
    if extra:
        raise ExprError(f"graph function depends on non-base symbols {extra}")
    X1, X2 = _BASE_SYMS
    ux, uy = diff(u, X1), diff(u, X2)
    uxx, uxy, uyy = diff(ux, X1), diff(ux, X2), diff(uy, X2)
    return ((ONE + uy * uy) * uxx - const(2) * ux * uy * uxy
            + (ONE + ux * ux) * uyy)


def scherk_expr() -> Expr:
    """The doubly periodic saddle log(cos x / cos y) as a closed form."""
    return (log_expr(cos_expr(sym_expr(_BASE_SYMS[0])))
            - log_expr(cos_expr(sym_expr(_BASE_SYMS[1]))))


BUILTIN_SURFACES: dict[str, Callable] = {
    "scherk": lambda X, Y: np.log(np.cos(X) / np.cos(Y)),
    "plane": lambda X, Y: 0.5 * X - 0.25 * Y + 1.0,
    "paraboloid": lambda X, Y: X ** 2 + Y ** 2,
}


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

# scipy is imported on the first solve, so processes that never solve do not
# pay for it; the solver looks both names up as module globals.

def csr_matrix(*args, **kwargs):
    """scipy.sparse.csr_matrix, imported on first call."""
    from scipy.sparse import csr_matrix as _csr_matrix
    return _csr_matrix(*args, **kwargs)


def _stencil_csr(S, mx: int, my: int):
    """The 9-point operator S on an (mx, my) grid as a CSR matrix, with row
    and column i*my + j for node (i, j)."""
    return csr_matrix(_kernels.stencil_coo(S, mx, my), shape=(mx * my,) * 2)


_REFINE_STEPS = 30  # LAPACK dsgesv's ITERMAX


def _float32_factor(A):
    """SuperLU of A^T in float32 (A in CSR), or None when it cannot be made.

    A's CSR arrays are read as the CSC arrays of A^T, so no float64 copy of A
    is made, and the factor's values take half the memory of a float64 one.
    None means an entry beyond float32 range or an exactly singular factor.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu
    with np.errstate(over="ignore"):
        data32 = A.data.astype(np.float32)
    if not np.all(np.isfinite(data32)):
        return None
    AT = csc_matrix((data32, A.indices, A.indptr), shape=A.shape[::-1])
    try:
        return splu(AT, permc_spec="MMD_AT_PLUS_A", panel_size=4)
    except RuntimeError:  # "Factor is exactly singular"
        return None


_COARSEST_SIDE = 31  # grids with no longer side are factored directly
_INNER_RTOL = 1e-8   # BiCGSTAB's relative residual target per outer step
_INNER_STEPS = 20    # BiCGSTAB's iteration limit per outer step


def _grid_levels(mx: int, my: int) -> list[tuple[int, int]]:
    """Interior shapes of the multigrid hierarchy, finest first.

    A side of 2m + 1 nodes coarsens to m while both sides are odd, at least
    3, and the longer one exceeds _COARSEST_SIDE.
    """
    shapes = [(mx, my)]
    while mx % 2 and my % 2 and min(mx, my) >= 3 and max(mx, my) > _COARSEST_SIDE:
        mx, my = (mx - 1) // 2, (my - 1) // 2
        shapes.append((mx, my))
    return shapes


def _vcycle(stencils, coarse, level: int, f: np.ndarray) -> np.ndarray:
    """One V(1,1)-cycle for stencils[level] x = f from x = 0."""
    if level == len(stencils) - 1:
        with np.errstate(over="ignore"):
            f32 = f.ravel().astype(np.float32)
        return coarse.solve(f32, trans="T").astype(np.float64).reshape(f.shape)
    k, S = _kernels, stencils[level]
    xp = np.zeros((f.shape[0] + 2, f.shape[1] + 2))
    k.colour_gauss_seidel(S, xp, f)
    x = xp[1:-1, 1:-1]
    r = k.restrict(f - k.stencil_apply(S, x))
    x += k.prolong(_vcycle(stencils, coarse, level + 1, r))
    k.colour_gauss_seidel(S, xp, f, order=(3, 2, 1, 0))
    return x


def _multigrid_solve(S, b: np.ndarray):
    """x with S x = b by float64 refinement of float32 corrections, or None.

    Returns None when the coarsest factor cannot be made, or when a step
    does not shrink the residual or the test still fails after the first
    solve and _REFINE_STEPS refinements.
    """
    from scipy.sparse.linalg import LinearOperator, bicgstab
    k = _kernels
    shapes = _grid_levels(*b.shape)
    stencils = [S]
    for shape in shapes[1:]:
        fine = stencils[-1]
        stencils.append(k.probe_stencil(
            lambda e: k.restrict(k.stencil_apply(fine, k.prolong(e))), *shape))
    coarse = _float32_factor(_stencil_csr(stencils[-1], *shapes[-1]))
    if coarse is None:
        return None

    def grid_map(fn):
        return LinearOperator((b.size, b.size), dtype=np.float64,
                              matvec=lambda v: fn(v.reshape(b.shape)).ravel())
    A = grid_map(lambda v: k.stencil_apply(S, v))
    M = grid_map(lambda v: _vcycle(stencils, coarse, 0, v))
    norm = max(float(np.abs(Sc).sum(axis=(0, 1)).max(initial=0.0)) for Sc in S)
    tol = norm * np.finfo(np.float64).eps * np.sqrt(b.size)
    x, last = np.zeros(b.shape), np.inf
    for solves in range(_REFINE_STEPS + 2):  # the first, then refinements
        r = b - k.stencil_apply(S, x)
        rmax = np.max(np.abs(r))
        if rmax <= np.max(np.abs(x)) * tol:
            return x.ravel()
        if not rmax < last or solves > _REFINE_STEPS:  # nan, or no progress
            return None
        last = rmax
        if len(stencils) == 1:  # the coarse factor-solve itself
            x += _vcycle(stencils, coarse, 0, r)
            continue
        # bicgstab's breakdown tests are absolute, so it sees r at unit scale
        with np.errstate(all="ignore"):
            x += rmax * bicgstab(A, (r / rmax).ravel(), rtol=_INNER_RTOL,
                                 atol=0.0, maxiter=_INNER_STEPS,
                                 M=M)[0].reshape(b.shape)


def spsolve(S, b: np.ndarray) -> np.ndarray:
    """Solve S x = b by a mixed-precision multigrid solve; x comes flat.

    S is a 9-point operator in ``_kernels``' colour-block layout on the
    interior grid of shape ``b.shape``, as the Newton solver's Jacobians
    are.  The grid is coarsened into a multigrid hierarchy: a side of
    2m + 1 nodes becomes m while both sides are odd, at least 3, and the
    longer one exceeds 31 nodes; even sides do not coarsen.  The coarse
    operators are Galerkin products P^T S P with bilinear P, and only the
    coarsest one is factored: once, in float32, by an MMD-ordered SuperLU
    of its transpose with panels of 4 columns.  A float64 loop refines x
    until LAPACK dsgesv's test ||b - S x|| <= ||x|| ||S|| eps sqrt(n)
    holds (max norms), for at most 30 refinements after the first solve
    (Buttari et al., ACM TOMS 34(4), 2008).  On a grid that does not
    coarsen each correction is the float32 factor-solve; on one that
    does, it is BiCGSTAB preconditioned with a V(1,1)-cycle whose smoother
    is four-colour Gauss-Seidel.  When this fails -- S or b outside
    float32 range, a float32 factor that is exactly singular, or a loop
    that stalls or does not reach the test -- S is factored in float64.
    Only an exactly singular float64 factor gives a non-finite x, as
    scipy's spsolve does.
    """
    x = _multigrid_solve(S, b)
    if x is not None:
        return x
    from scipy.sparse.linalg import splu
    try:
        lu = splu(_stencil_csr(S, *b.shape).tocsc(),
                  permc_spec="MMD_AT_PLUS_A", panel_size=4)
    except RuntimeError:  # "Factor is exactly singular"
        return np.full(b.size, np.nan)
    return lu.solve(b.ravel())


@dataclass
class SolveResult:
    field: GridField
    converged: bool
    iterations: int
    history: list[float] = field(default_factory=list)
    message: str = ""

    @property
    def final_residual(self) -> float:
        return self.history[-1] if self.history else float("nan")

    def describe(self) -> str:
        status = "converged" if self.converged else "failed"
        return (f"{status} after {self.iterations} Newton steps, "
                f"max residual {self.final_residual:.3e}"
                + (f" ({self.message})" if self.message else ""))


def _roundoff_floor(u: np.ndarray, hx: float, hy: float) -> float:
    """eps max|u| (2/hx^2 + 2/hy^2)(1 + max|grad u|^2).

    The size of the residual change that rounding u to double precision
    can cause: an ulp of u, amplified by the second-difference stencil and
    by the gradient factors of the equation's coefficients.
    """
    ux, uy = _kernels._stencil_derivatives(u, hx, hy)[:2]
    return (np.finfo(np.float64).eps * float(np.max(np.abs(u)))
            * (2.0 / hx ** 2 + 2.0 / hy ** 2)
            * (1.0 + float(np.max(ux * ux + uy * uy))))


def solve_minimal_surface(boundary: GridField, *, tol: float = 1e-10,
                          max_iter: int = 20) -> SolveResult:
    """Damped Newton iteration on the central-difference graph equation.

    Boundary nodes are Dirichlet data; interior values of the input serve as
    the initial guess.  Steps are halved while they increase the max-norm
    residual.  A step that no halving improves ends the iteration; the
    result counts as converged when the residual is at or below the
    roundoff floor of the grid (``_roundoff_floor``), however small ``tol``.
    ``iterations`` counts the accepted steps, so ``history`` holds
    ``iterations + 1`` residuals on every exit.
    """
    if (isinstance(tol, bool) or not isinstance(tol, Real)
            or not 0 < tol < float("inf")):
        raise ValueError(f"tolerance must be a positive finite number, "
                         f"got {tol!r}")
    if (isinstance(max_iter, bool) or not isinstance(max_iter, Integral)
            or max_iter < 0):
        raise ValueError(f"max_iter must be a non-negative integer, "
                         f"got {max_iter!r}")
    u = boundary.values.copy()
    hx, hy = boundary.hx, boundary.hy
    res = _kernels.interior_residual(u, hx, hy)
    rmax = float(np.max(np.abs(res)))
    history = [rmax]
    for it in range(1, max_iter + 1):
        if rmax < tol:
            return SolveResult(GridField(boundary.rect, u), True, it - 1,
                               history)
        delta = spsolve(_kernels.interior_jacobian_stencil(u, hx, hy), -res)
        if not np.all(np.isfinite(delta)):
            return SolveResult(GridField(boundary.rect, u), False, it - 1,
                               history, "singular Jacobian")
        step = 1.0
        while True:
            trial = u.copy()
            trial[1:-1, 1:-1] += step * delta.reshape(res.shape)
            res_new = _kernels.interior_residual(trial, hx, hy)
            rmax_new = float(np.max(np.abs(res_new)))
            if rmax_new < rmax or step < 1e-8:
                break
            step *= 0.5
        if rmax_new >= rmax:
            # the rejected trial leaves u, and so history[-1], as it was
            floor = _roundoff_floor(u, hx, hy)
            if rmax <= floor:
                return SolveResult(GridField(boundary.rect, u), True, it - 1,
                                   history, f"stagnated at the roundoff "
                                   f"floor {floor:.3e}")
            return SolveResult(GridField(boundary.rect, u), False, it - 1,
                               history, "stagnated under damping")
        u, res, rmax = trial, res_new, rmax_new
        history.append(rmax)
    converged = rmax < tol
    msg = "" if converged else f"residual {rmax:.3e} after {max_iter} steps"
    return SolveResult(GridField(boundary.rect, u), converged, max_iter,
                       history, msg)


# ---------------------------------------------------------------------------
# conservation currents on graphs
# ---------------------------------------------------------------------------

def _current_components(ux: np.ndarray, uy: np.ndarray) -> dict[str, tuple]:
    # the three closed 1-forms P dx + Q dy attached to a minimal graph;
    # their potentials are the f, g, h of the reconstruction step
    S = np.sqrt(1.0 + ux ** 2 + uy ** 2)
    return {
        "f": (ux * uy / S, (1.0 + uy ** 2) / S),
        "g": (-(1.0 + ux ** 2) / S, -ux * uy / S),
        "h": (-uy / S, ux / S),
    }


@dataclass
class ConservationReport:
    """Per-cell circulations of the three graph currents, area-normalized."""

    circulations: dict[str, np.ndarray]
    hx: float
    hy: float

    @property
    def max_circulation(self) -> float:
        return max(float(np.max(np.abs(c))) for c in self.circulations.values())

    def gate(self, factor: float = 10.0) -> float:
        return factor * max(self.hx, self.hy) ** 2

    def passed(self, factor: float = 10.0) -> bool:
        return self.max_circulation <= self.gate(factor)

    def describe(self) -> str:
        parts = [f"{name}: {float(np.max(np.abs(c))):.3e}"
                 for name, c in self.circulations.items()]
        return "max cell circulations " + ", ".join(parts)


def conservation_residuals(u: GridField) -> ConservationReport:
    """Discrete closedness of the graph currents, cell by cell.

    Currents are sampled at the interior nodes, where central differences
    keep the derivative error a smooth field; circulations over boundary
    cells would amplify the one-sided stencil mismatch by 1/h.
    """
    jets = u.interior_derivatives()
    circ = {name: _kernels.cell_circulation(P, Q, u.hx, u.hy)
            for name, (P, Q) in
            _current_components(jets["ux"], jets["uy"]).items()}
    return ConservationReport(circ, u.hx, u.hy)


@dataclass
class ReconstructionReport:
    """Gates of the conservation-to-extremal round trip on one grid."""

    stage: str  # 'ok' or the first failing gate
    max_circulation: float
    rovnice_residual: float
    el_residual: float
    gate: float
    potentials: dict[str, np.ndarray] | None = None

    @property
    def passed(self) -> bool:
        return self.stage == "ok"

    def describe(self) -> str:
        head = "pass" if self.passed else f"fail at {self.stage} gate"
        return (f"{head}: circulation {self.max_circulation:.3e}, "
                f"potential-system residual {self.rovnice_residual:.3e}, "
                f"equation residual {self.el_residual:.3e} "
                f"(gate {self.gate:.3e})")


def _cumulative_trapezoid(y: np.ndarray, d: float) -> np.ndarray:
    # along the last axis from 0, in the operation order of scipy's
    # cumulative_trapezoid(y, dx=d, initial=0), so the sums agree bit for bit
    out = np.zeros(y.shape)
    out[..., 1:] = np.cumsum(d * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)
    return out


def _potential(P: np.ndarray, Q: np.ndarray, hx: float, hy: float) -> np.ndarray:
    # cumulative trapezoid along the first row, then up each column
    row = _cumulative_trapezoid(P[:, 0], hx)
    cols = _cumulative_trapezoid(Q, hy)
    return row[:, None] + cols


def reconstruct_and_check(u: GridField, *,
                          gate_factor: float = 10.0) -> ReconstructionReport:
    """Integrate the currents to potentials f, g, h and close the loop.

    Passes when the currents are numerically closed, the reconstructed
    potentials satisfy u_x f_* + u_y g_* - h_* = 0 in both base directions,
    and the graph equation residual is below the same gate.
    """
    report = conservation_residuals(u)
    gate = report.gate(gate_factor)
    circ_max = report.max_circulation
    jets = u.interior_derivatives()
    ux, uy = jets["ux"], jets["uy"]
    pots = {name: _potential(P, Q, u.hx, u.hy)
            for name, (P, Q) in _current_components(ux, uy).items()}
    rovnice = 0.0
    for axis, h in ((0, u.hx), (1, u.hy)):
        df = np.gradient(pots["f"], h, axis=axis, edge_order=2)
        dg = np.gradient(pots["g"], h, axis=axis, edge_order=2)
        dh = np.gradient(pots["h"], h, axis=axis, edge_order=2)
        rovnice = max(rovnice, float(np.max(np.abs(ux * df + uy * dg - dh))))
    el = float(np.max(np.abs(graph_el_residual(u))))
    if circ_max > gate:
        stage = "closedness"
    elif rovnice > gate:
        stage = "potential-system"
    elif el > gate:
        stage = "equation"
    else:
        stage = "ok"
    return ReconstructionReport(stage, circ_max, rovnice, el, gate, pots)
