"""A nonparametric minimal-graph workbench on uniform grids, numpy only.

The graph equation (1+u_y^2)u_xx - 2 u_x u_y u_xy + (1+u_x^2)u_yy = 0 by
central differences, a damped Newton solver, conservation-law circulations
and potential reconstruction; the exact side is ``lepage.metric``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable

from ._numpy import lazy, np

# _kernels runs on the first grid operation, so a process that sets up its
# grids and solves later compiles it only then.  Without bytecode caches,
# `import lepage.minimal` took 16.9 ms this way and 20.1 ms with a plain
# import (medians of 30 alternating fresh processes, 2-vCPU Linux).
_kernels = lazy("lepage._kernels")

__all__ = ["GridField", "SolveResult", "ConservationReport",
           "ReconstructionReport", "graph_el_residual",
           "solve_minimal_surface", "conservation_residuals",
           "reconstruct_and_check", "BUILTIN_SURFACES"]


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
        if not all(0.0 < h2 < float("inf") and 1.0 / h2 < float("inf")
                   for h2 in (hx * hx, hy * hy, hx * hy)):
            raise ValueError(f"grid spacings hx = {hx!r}, hy = {hy!r} are out "
                             f"of range: hx*hx, hy*hy and hx*hy and their "
                             f"reciprocals must be positive and finite")

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

    def copy(self) -> "GridField":
        return GridField(self.rect, self.values.copy())


# ---------------------------------------------------------------------------
# graph equation
# ---------------------------------------------------------------------------

def graph_el_residual(u: GridField) -> np.ndarray:
    """(1+u_y^2)u_xx - 2 u_x u_y u_xy + (1+u_x^2)u_yy by central differences
    at the interior nodes."""
    return _kernels.interior_residual(u.values, u.hx, u.hy)


BUILTIN_SURFACES: dict[str, Callable] = {
    "scherk": lambda X, Y: np.log(np.cos(X) / np.cos(Y)),
    "plane": lambda X, Y: 0.5 * X - 0.25 * Y + 1.0,
    "paraboloid": lambda X, Y: X ** 2 + Y ** 2,
}


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

# not called by lepage: perfbench's tracer wraps it by name
def csr_matrix(*args, **kwargs):
    """scipy.sparse.csr_matrix; scipy is optional and loaded on first call."""
    return importlib.import_module("scipy.sparse").csr_matrix(*args, **kwargs)


_REFINE_STEPS = 30  # LAPACK dsgesv's ITERMAX
_COARSEST_SIDE = 15  # grids with no longer side are solved directly
_INNER_RTOL = 1e-3   # BiCGSTAB's relative residual target per outer step
_INNER_STEPS = 20    # BiCGSTAB's iteration limit per outer step


def _coarse_solver(S, mx: int, my: int, dtype):
    """A solve f -> x of S x = f on an (mx, my) grid in ``dtype``, or None.

    The grid has at most _COARSEST_SIDE ** 2 nodes, so the matrix is
    inverted densely.  None means an entry beyond the range of ``dtype`` or
    a matrix that ``dtype`` finds singular.
    """
    data, (rows, cols) = _kernels.stencil_coo(S, mx, my)
    with np.errstate(over="ignore"):
        data = data.astype(dtype)
    if not np.all(np.isfinite(data)):
        return None
    A = np.zeros((mx * my,) * 2, dtype=dtype)
    A[rows, cols] = data
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


def _multigrid_solve(S, b: np.ndarray, dtype):
    """x with S x = b by float64 refinement of ``dtype`` corrections, or None.

    S serves only the float64 refinement residual b - S x, the test's
    ||S|| and the Galerkin product of the first coarse level.  The set-up
    reads S's blocks once into a list, for ||S||, that product and a copy
    in ``dtype`` in this order, and drops the list before the first
    correction; the residual then reads S one block at a time, so a
    Jacobian that forms its blocks when read (``_kernels.GraphJacobian``)
    holds no more than one colour's fields while the corrections run.  The
    corrections run in ``dtype``, on the copy of S and on coarse operators
    that are each made in float64 from the next finer one and kept in
    ``dtype``.  Returns None when an operator is beyond the range of
    ``dtype``, the coarsest solve cannot be made, or a step does not shrink
    the residual or the test still fails after the first solve and
    _REFINE_STEPS refinements.
    """
    k = _kernels
    shapes = _grid_levels(*b.shape)
    level = list(S)
    tol = k.stencil_norm(level) * np.finfo(np.float64).eps * np.sqrt(b.size)
    stencils = []
    for fine, shape in zip(shapes, shapes[1:]):
        # the Galerkin product first, so that the probe's scratch and the
        # copy are not held at once
        coarser = k.probe_stencil(
            lambda e, finer=level: k.restrict(
                k.stencil_apply(finer, k.prolong(e, fine)), shape), *shape)
        stencils.append(k.stencil_blocks(level, dtype))
        if not all(np.isfinite(Sc).all() for Sc in stencils[-1]):
            return None
        level = coarser
    stencils.append(level)  # the coarsest, solved by `coarse` alone
    coarse = _coarse_solver(level, *shapes[-1], dtype)
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
                x += coarse(r.ravel().astype(dtype)).reshape(b.shape)
            continue
        # the breakdown tests are absolute, so BiCGSTAB sees r at unit scale;
        # once the test holds, one more correction settles x further inside
        # it, where a float64 inner solve would have left it
        with np.errstate(all="ignore"):
            r /= rmax
            r = r.astype(dtype)
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
    reach the test -- the same solve runs again with float64 in place of
    float32 throughout: the copy of S, the coarse operators, the dense
    coarse inverse, the V-cycle and BiCGSTAB.  When that fails as well, x
    is all NaN.
    """
    for dtype in (np.float32, np.float64):
        x = _multigrid_solve(S, b, dtype)
        if x is not None:
            return x
    return np.full(b.size, np.nan)


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
