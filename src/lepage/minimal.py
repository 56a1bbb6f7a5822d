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
from typing import TYPE_CHECKING, Callable, Mapping

from ._numpy import lazy, np

# The numeric workbench needs only numpy and _kernels: the symbolic layers
# are imported inside the functions that use them, so a process that only
# solves loads none of them, and _kernels is bound lazily, so a process
# that only builds metric Lagrangians runs none of it.
_kernels = lazy("lepage._kernels")
if TYPE_CHECKING:
    from .charts import JetChart
    from .equivalents import HorizontalNForm, Lagrangian
    from .expr import EqualResult, Expr
    from .forms import DiffForm

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
        from .expr import ExprError, free_symbols
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
        from .expr import ONE, ZERO
        return cls(tuple(tuple(ONE if K == L else ZERO for L in range(dim))
                         for K in range(dim)))

    @classmethod
    def diagonal(cls, *diag) -> "MetricSpec":
        from .expr import ZERO
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
    from .charts import ChartError, JetChart
    if n > 3:
        raise ChartError("Gram determinant expansion is guarded to n <= 3")
    if g.dim <= n:
        raise ChartError("metric dimension must exceed the base dimension")
    return JetChart(n=n, m=g.dim - n, order=1)


def minimal_lagrangian(g: MetricSpec, n: int) -> Lagrangian:
    """Area Lagrangian sqrt(det(g_KL y^K_j y^L_k)) of n-dimensional submanifolds."""
    from .equivalents import Lagrangian
    from .expr import det_expr, expr_sum, sqrt_expr, yj
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
    from .equivalents import HorizontalNForm
    from .expr import ONE, ZERO, const, det_expr, yj
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
    from .forms import form_equal
    results = {}
    for (na, fa), (nb, fb) in combinations(forms.items(), 2):
        results[(na, nb)] = form_equal(fa, fb, trials=trials, tol=tol,
                                       seed=seed, guards=guards)
    return CoincidenceReport(results)


def verify_coincidence(g: MetricSpec, n: int, *, trials: int = 50,
                       tol: float = 1e-9, seed: int = 0) -> CoincidenceReport:
    """Compare the three homogeneous Lepage constructions of the area Lagrangian."""
    from .charts import ChartError
    from .equivalents import fundamental_homogeneous, hilbert_caratheodory
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
        # the stencils divide by these products, and the floor and the gate
        # square the spacings
        hx, hy = self.hx, self.hy
        if not all(0.0 < h2 < float("inf")
                   for h2 in (hx * hx, hy * hy, hx * hy)):
            raise ValueError(f"grid spacings hx = {hx!r}, hy = {hy!r} are out "
                             f"of range: hx*hx, hy*hy and hx*hy must be "
                             f"positive and finite")

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

def graph_el_residual(u):
    """(1+u_y^2)u_xx - 2 u_x u_y u_xy + (1+u_x^2)u_yy.

    Closed-form input (an expression in the two base coordinates) gives the
    symbolic residual; a GridField gives central-difference values at the
    interior nodes.
    """
    if isinstance(u, GridField):
        return _kernels.interior_residual(u.values, u.hx, u.hy)
    from .expr import ONE, Expr, ExprError, Sym, const, diff, free_symbols
    if not isinstance(u, Expr):
        raise TypeError("expected an expression or a GridField")
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
    from .expr import Sym, cos_expr, log_expr, sym_expr
    return (log_expr(cos_expr(sym_expr(Sym("x", 1))))
            - log_expr(cos_expr(sym_expr(Sym("x", 2)))))


BUILTIN_SURFACES: dict[str, Callable] = {
    "scherk": lambda X, Y: np.log(np.cos(X) / np.cos(Y)),
    "plane": lambda X, Y: 0.5 * X - 0.25 * Y + 1.0,
    "paraboloid": lambda X, Y: X ** 2 + Y ** 2,
}


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

# scipy is imported only by spsolve's float64 fallback, so processes that
# never fall back do not pay for it; the solver looks spsolve and
# csr_matrix up as module globals.

def csr_matrix(*args, **kwargs):
    """scipy.sparse.csr_matrix, imported on first call."""
    from scipy.sparse import csr_matrix as _csr_matrix
    return _csr_matrix(*args, **kwargs)


def _stencil_csr(S, mx: int, my: int):
    """The 9-point operator S on an (mx, my) grid as a CSR matrix, with row
    and column i*my + j for node (i, j)."""
    return csr_matrix(_kernels.stencil_coo(S, mx, my), shape=(mx * my,) * 2)


_REFINE_STEPS = 30  # LAPACK dsgesv's ITERMAX
_COARSEST_SIDE = 15  # grids with no longer side are solved directly
_INNER_RTOL = 1e-3   # float32 BiCGSTAB's relative residual target per outer step
_INNER_STEPS = 20    # BiCGSTAB's iteration limit per outer step


def _coarse_solver(S, mx: int, my: int):
    """A float32 solve f -> x of S x = f on an (mx, my) grid, or None.

    The grid has at most _COARSEST_SIDE ** 2 nodes, so the matrix is
    inverted densely.  None means an entry beyond float32 range or a matrix
    that float32 finds singular.
    """
    data, (rows, cols) = _kernels.stencil_coo(S, mx, my)
    with np.errstate(over="ignore"):
        data32 = data.astype(np.float32)
    if not np.all(np.isfinite(data32)):
        return None
    A = np.zeros((mx * my,) * 2, dtype=np.float32)
    A[rows, cols] = data32
    try:
        inverse = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # "Singular matrix"
        return None
    if not np.all(np.isfinite(inverse)):
        return None
    return lambda f: inverse @ f


def _grid_levels(mx: int, my: int) -> list[tuple[int, int]]:
    """Interior shapes of the multigrid hierarchy, finest first.

    While the longer side exceeds _COARSEST_SIDE, each side longer than
    _COARSEST_SIDE coarsens, a side of 2m + 1 or 2m nodes to m, and a side
    of _COARSEST_SIDE or fewer stays as it is.  The coarsest grid thus has
    no side longer than _COARSEST_SIDE.
    """
    shapes = [(mx, my)]
    while max(mx, my) > _COARSEST_SIDE:
        mx, my = (n // 2 if n > _COARSEST_SIDE else n for n in (mx, my))
        shapes.append((mx, my))
    return shapes


def _vcycle(stencils, shapes, coarse, level: int,
            f: np.ndarray) -> np.ndarray:
    """One V(1,1)-cycle for stencils[level] x = f from x = 0, on the grids
    of the given interior shapes, in f's dtype."""
    if level == len(stencils) - 1:
        return coarse(f.ravel()).reshape(f.shape)
    k, S = _kernels, stencils[level]
    x = np.zeros_like(f)
    k.colour_gauss_seidel(S, x, f)
    r = k.restrict(k.stencil_residual(S, x, f), shapes[level + 1])
    x += k.prolong(_vcycle(stencils, shapes, coarse, level + 1, r), f.shape)
    k.colour_gauss_seidel(S, x, f, order=(3, 2, 1, 0))
    return x


def _bicgstab(matvec, b: np.ndarray, rtol: float, maxiter: int,
              psolve) -> np.ndarray:
    """Right-preconditioned BiCGSTAB for A x = b from x = 0 (H. A. van der
    Vorst, SIAM J. Sci. Stat. Comput. 13, 1992).

    The arithmetic of scipy 1.17's ``bicgstab`` with atol = rtol ||b||, in
    b's dtype: it stops when ||r|| < atol, and returns the current x on a
    rho or omega breakdown (below eps^2 of that dtype), when <r~, v> = 0,
    or after maxiter steps.

    Besides b it holds x, r and p, v from its matvec to the next update of
    p, and p^ or s^ only until its multiple is added to x; alpha p^ goes
    into x as soon as alpha is known, before s^ is made, which adds the
    same terms to x in the same order as scipy.  b itself serves as the
    shadow residual r~, so neither the caller nor psolve may write to b
    while this runs, and psolve must not write to its argument.  A zero b
    is returned as it is.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return b
    atol = rtol * float(bnorm)
    breakdown = np.finfo(b.dtype).eps ** 2
    x, r = np.zeros_like(b), b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x
        rho = np.dot(b, r)
        if np.abs(rho) < breakdown:
            return x
        if iteration:
            if np.abs(omega) < breakdown:
                return x
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            del v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = psolve(p)
        v = matvec(phat)
        rv = np.dot(b, v)
        if rv == 0:
            return x
        alpha = rho / rv
        phat *= alpha
        x += phat
        del phat
        r -= alpha * v  # r is now scipy's s
        if np.linalg.norm(r) < atol:
            return x
        shat = psolve(r)
        t = matvec(shat)
        omega = np.dot(t, r) / np.dot(t, t)
        shat *= omega
        x += shat
        del shat
        r -= omega * t
        del t
        rho_prev = rho
    return x


def _multigrid_solve(S, b: np.ndarray):
    """x with S x = b by float64 refinement of float32 corrections, or None.

    S serves only the float64 refinement residual b - S x, the test's
    ||S|| and the Galerkin product of the first coarse level.  The set-up
    reads S's blocks once into a list, for ||S||, that product and a
    float32 copy in this order, and drops the list before the first
    correction; the residual then reads S one block at a time, so a
    Jacobian that forms its blocks when read (``_kernels.GraphJacobian``)
    holds no more than one colour's fields while the corrections run.  The
    corrections run in float32, on the float32 copy of S and on coarse
    operators that are each made in float64 from the next finer one and
    kept in float32.  Returns None when an operator is beyond float32
    range, the coarsest solve cannot be made, or a step does not shrink the
    residual or the test still fails after the first solve and
    _REFINE_STEPS refinements.
    """
    k = _kernels
    shapes = _grid_levels(*b.shape)
    level = list(S)
    tol = k.stencil_norm(level) * np.finfo(np.float64).eps * np.sqrt(b.size)
    stencils = []
    for fine, shape in zip(shapes, shapes[1:]):
        # the Galerkin product first, so that the probe's scratch and the
        # float32 copy are not held at once
        coarser = k.probe_stencil(
            lambda e, finer=level: k.restrict(
                k.stencil_apply(finer, k.prolong(e, fine)), shape), *shape)
        stencils.append(k.stencil_blocks(level, np.float32))
        if not all(np.isfinite(Sc).all() for Sc in stencils[-1]):
            return None
        level = coarser
    stencils.append(level)  # the coarsest, solved by `coarse` alone
    coarse = _coarse_solver(level, *shapes[-1])
    if coarse is None:
        return None

    def matvec(v):
        return k.stencil_apply(stencils[0], v.reshape(b.shape)).ravel()

    def psolve(v):
        return _vcycle(stencils, shapes, coarse, 0, v.reshape(b.shape)).ravel()

    x, last = np.zeros(b.shape), np.inf
    for solves in range(_REFINE_STEPS + 2):  # the first, then refinements
        r = k.stencil_residual(S, x, b)
        rmax = np.max(np.abs(r))
        passed = rmax <= np.max(np.abs(x)) * tol
        if passed and (len(stencils) == 1 or rmax == 0):
            return x.ravel()
        if not passed and (not rmax < last or solves > _REFINE_STEPS):
            return None  # nan, or no progress
        last = rmax
        if len(stencils) == 1:  # the coarse solve itself
            with np.errstate(over="ignore"):
                x += coarse(r.ravel().astype(np.float32)).reshape(b.shape)
            continue
        # the breakdown tests are absolute, so BiCGSTAB sees r at unit scale;
        # once the test holds, one more correction settles x further inside
        # it, where a float64 inner solve would have left it
        with np.errstate(all="ignore"):
            r /= rmax
            r = r.astype(np.float32)
            y = _bicgstab(matvec, r.ravel(), _INNER_RTOL, _INNER_STEPS, psolve)
            x += rmax * y.reshape(b.shape)
        if passed:
            return x.ravel()


def spsolve(S, b: np.ndarray) -> np.ndarray:
    """Solve S x = b by a mixed-precision multigrid solve; x comes flat.

    S is a 9-point operator in ``_kernels``' colour-block layout on the
    interior grid of shape ``b.shape``: a list of the four colour blocks,
    or a sequence that forms each when it is read, as the Newton solver's
    Jacobians do, five float64 coefficient fields per node at a time.  The
    solve holds all four blocks only while it sets up; the float64
    refinement residual reads one at a time.  The grid is coarsened into a
    multigrid hierarchy: while the longer side exceeds 15 nodes, each side
    longer than 15 becomes m, from 2m + 1 or 2m nodes, so a thin grid
    coarsens along its long side only.  The coarse
    operators are Galerkin products P^T S P with bilinear P, each made in
    float64 from the next finer one and kept in float32, and only the
    coarsest one, of at most 15 x 15 = 225 nodes, is solved directly, once
    per call: its float32 dense inverse is applied as a matrix-vector
    product.  The solve uses three precisions (Carson & Higham, SIAM J.
    Sci. Comput. 40, 2018): a float64 loop refines x until LAPACK dsgesv's
    test ||b - S x|| <= ||x|| ||S|| eps sqrt(n) holds (max norms), for at
    most 30 refinements after the first solve (Buttari et al., ACM TOMS
    34(4), 2008), and the corrections are float32.  On a grid that does not
    coarsen each correction is the float32 coarse solve, and x is returned
    as soon as the test holds.  On one that does, each correction is
    float32 BiCGSTAB, to a relative residual of 1e-3 or 20 iterations, on a
    float32 copy of S and preconditioned with a float32 V(1,1)-cycle whose
    smoother is four-colour Gauss-Seidel; once the test holds, one more
    correction is made.  When this fails -- S or b outside float32 range, a
    float32 matrix that is singular, or a loop that stalls or does not
    reach the test -- S is factored in float64 by an MMD-ordered SuperLU
    with panels of 4 columns.
    Only an exactly singular float64 factor gives a non-finite x, as
    scipy's spsolve does.  scipy is imported only for that factor, so a
    solve that needs no fallback loads none of it.
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
    ux, uy = _kernels.interior_gradient(u, hx, hy)
    return (np.finfo(np.float64).eps * float(np.max(np.abs(u)))
            * (2.0 / hx ** 2 + 2.0 / hy ** 2)
            * (1.0 + float(np.max(ux * ux + uy * uy))))


def solve_minimal_surface(boundary: GridField, *, tol: float = 1e-10,
                          max_iter: int = 20) -> SolveResult:
    """Damped Newton iteration on the central-difference graph equation.

    Boundary nodes are Dirichlet data; interior values of the input serve as
    the initial guess.  Steps are halved while they increase the max-norm
    residual.  A residual at or below the roundoff floor of the grid
    (``_roundoff_floor``) ends the iteration before the next solve and
    counts as converged, however small ``tol``; a step that no halving
    improves above the floor ends it as a failure.
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
        # below the floor, which steps a solve finds depends on the last
        # bits of the linear solve, so none is tried
        floor = _roundoff_floor(u, hx, hy)
        if rmax <= floor:
            return SolveResult(GridField(boundary.rect, u), True, it - 1,
                               history, f"stagnated at the roundoff floor "
                               f"{floor:.3e}")
        # res becomes the right-hand side; below, only its shape is read
        np.negative(res, out=res)
        delta = spsolve(_kernels.interior_jacobian_stencil(u, hx, hy), res)
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
        del delta  # not held through the next step's solve
        if rmax_new >= rmax:
            # the rejected trial leaves u, and so history[-1], as it was
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

def _current_components(ux: np.ndarray, uy: np.ndarray):
    # the three closed 1-forms P dx + Q dy attached to a minimal graph, as
    # (name, (P, Q)) one at a time; their potentials are the f, g, h of the
    # reconstruction step
    S = np.sqrt(1.0 + ux ** 2 + uy ** 2)
    yield "f", (ux * uy / S, (1.0 + uy ** 2) / S)
    yield "g", (-(1.0 + ux ** 2) / S, -ux * uy / S)
    yield "h", (-uy / S, ux / S)


def _gate(hx: float, hy: float, factor: float) -> float:
    # closed smooth currents circulate O(h^2) per unit cell area
    return factor * max(hx, hy) ** 2


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
        return _gate(self.hx, self.hy, factor)

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
    ux, uy = _kernels.interior_gradient(u.values, u.hx, u.hy)
    circ = {}
    for name, (P, Q) in _current_components(ux, uy):
        circ[name] = _kernels.cell_circulation(P, Q, u.hx, u.hy)
        del P, Q  # before the next pair is made
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


def _potential_defect(pots: dict[str, np.ndarray], ux: np.ndarray,
                      uy: np.ndarray, h: float, axis: int) -> float:
    # max |u_x f' + u_y g' - h'| for the derivatives along one axis, summed
    # in place in that order
    defect = np.gradient(pots["f"], h, axis=axis, edge_order=2)
    defect *= ux
    dg = np.gradient(pots["g"], h, axis=axis, edge_order=2)
    dg *= uy
    defect += dg
    del dg
    defect -= np.gradient(pots["h"], h, axis=axis, edge_order=2)
    return float(np.max(np.abs(defect, out=defect)))


def reconstruct_and_check(u: GridField, *,
                          gate_factor: float = 10.0) -> ReconstructionReport:
    """Integrate the currents to potentials f, g, h and close the loop.

    Passes when the currents are numerically closed, the reconstructed
    potentials satisfy u_x f_* + u_y g_* - h_* = 0 in both base directions,
    and the graph equation residual is below the same gate.  The closedness
    figures are those of ``conservation_residuals``, taken from the same
    current pairs that are integrated.
    """
    ux, uy = _kernels.interior_gradient(u.values, u.hx, u.hy)
    circs, pots = [], {}
    for name, (P, Q) in _current_components(ux, uy):
        circ = _kernels.cell_circulation(P, Q, u.hx, u.hy)
        circs.append(float(np.max(np.abs(circ))))
        del circ  # only its maximum is part of the result
        pots[name] = _potential(P, Q, u.hx, u.hy)
        del P, Q  # before the next pair is made
    gate, circ_max = _gate(u.hx, u.hy, gate_factor), max(circs)
    rovnice = 0.0
    for axis, h in ((0, u.hx), (1, u.hy)):
        rovnice = max(rovnice, _potential_defect(pots, ux, uy, h, axis))
    del ux, uy  # graph_el_residual makes its own
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
