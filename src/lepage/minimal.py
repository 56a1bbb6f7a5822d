"""A nonparametric minimal-graph workbench on uniform grids, numpy only.

The graph equation (1+u_y^2)u_xx - 2 u_x u_y u_xy + (1+u_x^2)u_yy = 0 by
central differences, a damped Newton solver, conservation-law circulations
and potential reconstruction; the exact side is ``lepage.metric``.
"""

from __future__ import annotations

import importlib
from numbers import Integral, Real
from typing import Callable

from . import Frozen, _kernels
from ._numpy import np

# _kernels is imported with this module, not bound lazily: the commands and
# criteria that run this module all solve grids, and compiling its 22.7 KB on
# top of numpy's pages set their peak RSS, about 1 MB higher without a
# bytecode cache.  Neither body touches numpy, which loads at the first grid.

__all__ = ["GridField", "SolveResult", "ConservationReport",
           "ReconstructionReport", "graph_el_residual",
           "solve_minimal_surface", "conservation_residuals",
           "reconstruct_and_check", "BUILTIN_SURFACES"]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class GridField:
    """Nodal values on a uniform rectangle grid, boundary row/column fixed."""

    __slots__ = ("rect", "values")

    def __init__(self, rect: tuple[float, float, float, float],
                 values: np.ndarray):
        a, b, c, d = rect
        if not (a < b and c < d):
            raise ValueError("degenerate rectangle")
        self.rect = rect
        self.values = np.asarray(values, dtype=float)
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
        """Boundary data from fn; interior filled by transfinite interpolation.

        fn is evaluated on the four edges alone, each given as a 2-D mesh of
        one row or one column of nodes.
        """
        out = cls(tuple(map(float, rect)), np.zeros(shape))
        xs, ys = out.xs, out.ys

        def edge(x, y):
            X, Y = np.meshgrid(x, y, indexing="ij")
            return np.asarray(fn(X, Y), dtype=float).ravel()

        first, last = edge(xs[:1], ys), edge(xs[-1:], ys)
        low, high = edge(xs, ys[:1]), edge(xs, ys[-1:])
        s = np.linspace(0.0, 1.0, out.nx)[:, None]
        t = np.linspace(0.0, 1.0, out.ny)[None, :]
        blend = ((1 - s) * first[None, :] + s * last[None, :]
                 + (1 - t) * low[:, None] + t * high[:, None]
                 - (1 - s) * (1 - t) * first[0] - (1 - s) * t * first[-1]
                 - s * (1 - t) * last[0] - s * t * last[-1])
        blend[0, :] = first
        blend[-1, :] = last
        blend[:, 0] = low
        blend[:, -1] = high
        out.values = blend
        return out


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


def _dense_inverse(A: np.ndarray) -> np.ndarray | None:
    """A^-1 by Gauss-Jordan elimination with partial pivoting, in A's dtype,
    or None on an exactly zero pivot.

    The elimination runs on [A | I] and reads A's lower and upper
    bandwidths from its nonzeros.  The downward sweep picks each pivot from
    the rows that can be nonzero in its column, at most the lower bandwidth
    below it, and updates only those rows, from the pivot's column onward in
    A's half and in the columns of I's half that these rows can reach.  The
    upward sweep clears each row's part above the diagonal, at most both
    bandwidths wide, by one vector-matrix product, and divides the row by its
    pivot.  So the work is O(n^2 (lower + upper bandwidth)), not O(n^3), and
    only elementwise numpy and matrix-vector products run: no LAPACK call,
    and OpenBLAS does not map its level-3 work buffer.
    """
    n = A.shape[0]
    rows, cols = np.nonzero(A)
    low = int(np.max(rows - cols, initial=0))
    up = int(np.max(cols - rows, initial=0))
    W = np.zeros((n, 2 * n), dtype=A.dtype)
    W[:, :n] = A
    np.fill_diagonal(W[:, n:], 1)
    for k in range(n):
        end = min(n, k + low + 1)  # rows below end are zero in column k
        p = k + int(np.abs(W[k:end, k]).argmax())
        if W[p, k] == 0:
            return None
        if p != k:
            W[[k, p], k:n + end] = W[[p, k], k:n + end]
        W[k + 1:end, k:n + end] -= (W[k + 1:end, k, None] / W[k, k]
                                    * W[k, k:n + end])
    X = W[:, n:]
    for k in range(n - 1, -1, -1):
        right = min(n, k + low + up + 1)  # U's band in row k
        X[k] -= W[k, k + 1:right] @ X[k + 1:right]
        X[k] /= W[k, k]
    return X.copy()


def _coarse_solver(S, mx: int, my: int, dtype):
    """A solve f -> x of S x = f on an (mx, my) grid in ``dtype``, or None.

    The grid has at most _COARSEST_SIDE ** 2 nodes, so the matrix is
    inverted densely, by ``_dense_inverse``, and the inverse is applied as
    a matrix-vector product.  None means an entry of the matrix or its
    inverse beyond the range of ``dtype``, or an exactly zero pivot.
    """
    data, (rows, cols) = _kernels.stencil_coo(S, mx, my)
    with np.errstate(over="ignore"):
        data = data.astype(dtype)
    if not np.all(np.isfinite(data)):
        return None
    A = np.zeros((mx * my,) * 2, dtype=dtype)
    A[rows, cols] = data
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = _dense_inverse(A)
    if inverse is None or not np.all(np.isfinite(inverse)):
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
    k.colour_gauss_seidel(S, x, f, zero=True)
    r = k.restrict(k.stencil_residual(S, x, f), shapes[level + 1])
    k.prolong_add(x, _vcycle(stencils, shapes, coarse, level + 1, r))
    k.colour_gauss_seidel(S, x, f, order=(3, 2, 1, 0))
    return x


def _bicgstab(matvec, b: np.ndarray, rtol: float, maxiter: int, psolve,
              x: np.ndarray, scale: float) -> None:
    """Right-preconditioned BiCGSTAB for A y = b from y = 0 (H. A. van der
    Vorst, SIAM J. Sci. Stat. Comput. 13, 1992), adding scale y into the
    flat iterate x in place.

    The arithmetic of scipy 1.17's ``bicgstab`` with atol = rtol ||b||, in
    b's dtype: it stops when ||r|| < atol, and on a rho or omega breakdown
    (below eps^2 of that dtype), when <r~, v> = 0, or after maxiter steps.
    y itself is never made: p^ and s^ are multiplied in place by
    alpha scale and omega scale, each rounded to b's dtype, and added into
    x, which may be of a wider dtype, as soon as each is known.  So a zero
    x of b's dtype, with scale 1, ends as scipy's x bit for bit: the same
    terms are added to it in the same order.  The scaled update is made in
    b's dtype: where it leaves that dtype's range it is infinite, and where
    it is subnormal it loses bits.

    Besides b and x it holds r and p, v from its matvec to the next update
    of p, and p^ or s^ only until it is added to x.  b itself serves as
    the shadow residual r~, so neither the caller nor psolve may write to b
    while this runs, and psolve must not write to its argument.  A zero b
    leaves x as it is.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return
    atol = rtol * float(bnorm)
    breakdown = np.finfo(b.dtype).eps ** 2
    r = b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return
        rho = np.dot(b, r)
        if np.abs(rho) < breakdown:
            return
        if iteration:
            if np.abs(omega) < breakdown:
                return
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
            return
        alpha = rho / rv
        phat *= b.dtype.type(alpha * scale)
        x += phat
        del phat
        r -= alpha * v  # r is now scipy's s
        if np.linalg.norm(r) < atol:
            return
        shat = psolve(r)
        t = matvec(shat)
        omega = np.dot(t, r) / np.dot(t, t)
        shat *= b.dtype.type(omega * scale)
        x += shat
        del shat
        r -= omega * t
        del t
        rho_prev = rho


def _multigrid_solve(S, b, dtype):
    """x with S x = b by float64 refinement of ``dtype`` corrections, or None.

    S serves only the float64 refinement residual b - S x and the test's
    ||S||.  The set-up reads each block of S once, for its colour's share
    of ||S|| and, on a grid that coarsens, its copy in ``dtype``
    (``_kernels.block_copy``: a ``SIX`` block's copy keeps five fields and
    forms its centre from them when read), so that there it holds one
    block of S at most.  Each coarse operator is composed in float64 by
    ``_kernels.galerkin_product`` from the next finer level's copy, one
    coarse colour at a time, with no fine-grid scratch, and then replaced
    by its own copy, one colour at a time; the coarsest stays float64 for
    the coarse solver, which copies it itself.  A grid that does not
    coarsen is solved by the coarse solver alone, from S as it is.  b is
    read only by ``b.copy()``, once for each float64 residual, which is
    then written into that fresh b in place: the first, at x = 0, is b
    itself, and each later one reads S one block at a time.  So a Jacobian
    that forms its blocks when read (``GraphJacobian``) holds one colour's
    fields at most while the corrections run, a right-hand side formed when
    read (``GraphRHS``) is held only as the residual, and the last
    ``dtype`` residual is dropped first.  BiCGSTAB runs on the residual
    scaled to unit size and adds its updates, scaled back, into the
    float64 x itself, so neither a ``dtype`` correction nor its float64
    multiple is made.  Returns None when a coupling that stays in the grid
    is beyond the range of ``dtype``, the coarsest solve cannot be made, or
    a step does not shrink the residual or the test still fails after the
    first solve and _REFINE_STEPS refinements.
    """
    k = _kernels
    shapes = _grid_levels(*b.shape)
    level, norms = [], []
    for c, (p, q) in enumerate(k.COLOURS):
        Sc = S[c]
        norms.append(k.colour_norm(Sc, p, q, b.shape))
        level.append(k.block_copy(Sc, dtype) if len(shapes) > 1 else Sc)
        del Sc  # not held while the next colour is formed
    tol = max(norms) * np.finfo(np.float64).eps * np.sqrt(b.size)
    stencils = [level]
    for fine, shape in zip(shapes, shapes[1:]):
        if not k.stencil_finite(level, fine):
            return None
        level = k.galerkin_product(level, fine, shape)
        if shape != shapes[-1]:
            k.stencil_copy(level, dtype)
        stencils.append(level)
    coarse = _coarse_solver(level, *shapes[-1], dtype)
    if coarse is None:
        return None

    def matvec(v):
        return k.stencil_apply(stencils[0], v.reshape(b.shape)).ravel()

    def psolve(v):
        return _vcycle(stencils, shapes, coarse, 0, v.reshape(b.shape)).ravel()

    x, last = np.zeros(b.size), np.inf
    for solves in range(_REFINE_STEPS + 2):  # the first, then refinements
        # a fresh b, into which b - S x is written; at x = 0 the residual is
        # b: every coupling of S that the kernels read is finite
        # (stencil_finite, or the coarse solver's own test)
        r = b.copy()
        if solves:  # a correction that overflowed makes r nan: no progress
            with np.errstate(invalid="ignore", over="ignore"):
                k.stencil_residual(S, x.reshape(b.shape), r, out=r)
        rmax = np.max(np.abs(r))
        passed = rmax <= np.max(np.abs(x)) * tol
        if passed and (len(stencils) == 1 or rmax == 0):
            return x
        if not passed and (not rmax < last or solves > _REFINE_STEPS):
            return None  # nan, or no progress
        last = rmax
        if len(stencils) == 1:  # the coarse solve itself
            with np.errstate(over="ignore"):
                x += coarse(r.ravel().astype(dtype))
            continue
        # the breakdown tests are absolute, so BiCGSTAB sees r at unit scale
        # and adds its correction into x at rmax; once the test holds, one
        # more correction settles x further inside it, where a float64
        # inner solve would have left it
        with np.errstate(all="ignore"):
            r /= rmax
            r = r.astype(dtype)
            _bicgstab(matvec, r.ravel(), _INNER_RTOL, _INNER_STEPS, psolve,
                      x, rmax)
        del r  # not held through the next residual
        if passed:
            return x


def spsolve(S, b) -> np.ndarray:
    """Solve S x = b by a mixed-precision multigrid solve; x comes flat.

    S is a 9-point operator in ``_kernels``' colour-block layout on the
    interior grid of shape ``b.shape``: the four ``_kernels.Block``s, or a
    sequence that forms each when it is read, as the Newton solver's
    Jacobians do.  b is an array of that shape, or an object with its
    ``shape`` and ``size`` whose ``copy()`` forms the array anew, as the
    Newton solver's right-hand side -F(u) (``_kernels.GraphRHS``) does; it
    is read once for each float64 residual b - S x, which is written into
    the fresh copy.  While the longer side exceeds 15 nodes, each side longer
    than 15 coarsens from 2m + 1 or 2m nodes to m.  The coarse operators
    are Galerkin products P^T S P with bilinear P, each composed in float64
    from the float32 copy of the next finer one and kept in float32; only
    the coarsest, of at most 15 x 15 nodes, is solved directly, by its
    float32 dense inverse, made by banded Gauss-Jordan elimination in numpy
    (``_dense_inverse``), not by LAPACK.  Three
    precisions (Carson & Higham, SIAM J. Sci. Comput. 40, 2018): a float64
    loop refines x until LAPACK dsgesv's test ||b - S x|| <= ||x|| ||S||
    eps sqrt(n) holds (max norms), for at most 30 refinements after the
    first solve (Buttari et al., ACM TOMS 34(4), 2008), with float32
    corrections: the coarse solve on a grid that does not coarsen, returned
    once the test holds, and otherwise BiCGSTAB to a relative residual of
    1e-3 or 20 iterations on a float32 copy of S (five fields per node for
    a Jacobian, whose centre is formed from its four arms when read),
    preconditioned with a V(1,1)-cycle of four-colour Gauss-Seidel and
    adding its updates straight into the float64 x, plus one more
    correction once the test holds.
    When that fails (a coupling of S or b beyond float32 range, a
    correction that, scaled back to the residual's size in float32, leaves
    float32's normal range, a zero pivot in the float32 elimination, a
    loop that stalls or misses the test)
    the same solve runs in float64 throughout, with a float64 elimination;
    when that fails too, x is all NaN.
    """
    for dtype in (np.float32, np.float64):
        x = _multigrid_solve(S, b, dtype)
        if x is not None:
            return x
    return np.full(b.size, np.nan)


class SolveResult(Frozen):
    __slots__ = ("field", "converged", "iterations", "history", "message")

    def __init__(self, field: GridField, converged: bool, iterations: int,
                 history: list[float] | None = None, message: str = ""):
        self._freeze(field, converged, iterations,
                     [] if history is None else history, message)

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


def _max_abs(r: np.ndarray) -> float:
    # max |r|, taken in place: r is not read again
    return float(np.max(np.abs(r, out=r)))


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

    The input's values are never written: the iteration starts from the
    input's own array, each accepted step makes a new one, and an exit
    before the first returns a copy, so the result never shares memory
    with the input.  Each step's Jacobian and right-hand side -F(u) are
    formed from u when the linear solve reads them, and only the largest
    |F| of each residual is kept.
    """
    if (isinstance(tol, bool) or not isinstance(tol, Real)
            or not 0 < tol < float("inf")):
        raise ValueError(f"tolerance must be a positive finite number, "
                         f"got {tol!r}")
    if (isinstance(max_iter, bool) or not isinstance(max_iter, Integral)
            or max_iter < 0):
        raise ValueError(f"max_iter must be a non-negative integer, "
                         f"got {max_iter!r}")
    # u is the input's own array until a step is accepted: nothing writes
    # to it, and an exit before that returns a copy
    u = boundary.values
    hx, hy = boundary.hx, boundary.hy

    def result(converged, iterations, message=""):
        values = u.copy() if u is boundary.values else u
        return SolveResult(GridField(boundary.rect, values), converged,
                           iterations, history, message)

    rmax = _max_abs(_kernels.interior_residual(u, hx, hy))
    history = [rmax]
    for it in range(1, max_iter + 1):
        if rmax < tol:
            return result(True, it - 1)
        # below the floor, which steps a solve finds depends on the last
        # bits of the linear solve, so none is tried
        floor = _roundoff_floor(u, hx, hy)
        if rmax <= floor:
            return result(True, it - 1, f"stagnated at the roundoff floor "
                                        f"{floor:.3e}")
        # the right-hand side -F(u), like the Jacobian, is formed from u
        # each time the solve reads it
        delta = spsolve(_kernels.interior_jacobian_stencil(u, hx, hy),
                        _kernels.GraphRHS(u, hx, hy))
        if not np.all(np.isfinite(delta)):
            return result(False, it - 1, "singular Jacobian")
        step = 1.0
        while True:
            trial = u.copy()
            inner = trial[1:-1, 1:-1]
            inner += step * delta.reshape(inner.shape)
            rmax_new = _max_abs(_kernels.interior_residual(trial, hx, hy))
            if rmax_new < rmax or step < 1e-8:
                break
            step *= 0.5
        del delta  # not held through the next step's solve
        if rmax_new >= rmax:
            # the rejected trial leaves u, and so history[-1], as it was
            return result(False, it - 1, "stagnated under damping")
        u, rmax = trial, rmax_new
        history.append(rmax)
    converged = rmax < tol
    return result(converged, max_iter, "" if converged else
                  f"residual {rmax:.3e} after {max_iter} steps")


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


class ConservationReport(Frozen):
    """The largest |circulation| over the grid cells of each of the three
    graph currents, area-normalized, by current name."""

    __slots__ = _compared = ("circulations", "hx", "hy")
    __hash__ = None

    def __init__(self, circulations: dict[str, float], hx: float, hy: float):
        self._freeze(circulations, hx, hy)

    @property
    def max_circulation(self) -> float:
        # nan if any circulation is, which max() would skip unless first
        return float(np.max(list(self.circulations.values())))

    def gate(self, factor: float = 10.0) -> float:
        # closed smooth currents circulate O(h^2) per unit cell area
        return factor * max(self.hx, self.hy) ** 2

    def passed(self, factor: float = 10.0) -> bool:
        return self.max_circulation <= self.gate(factor)

    def describe(self) -> str:
        parts = [f"{name}: {c:.3e}" for name, c in self.circulations.items()]
        return "max cell circulations " + ", ".join(parts)


def _max_circulation(P: np.ndarray, Q: np.ndarray, hx: float,
                     hy: float) -> float:
    circ = _kernels.cell_circulation(P, Q, hx, hy)
    return float(np.max(np.abs(circ, out=circ)))


def _row_bands(n: int, width: int):
    # (lo, i0, i1, hi): bands [i0, i1) of n interior rows of ``width``
    # nodes, ``_kernels.band_rows`` rows each and the last at least two,
    # and the rows [lo, hi) each is read with: one more on either side, for
    # the x-differences and the cells between two bands, and at least
    # three, as np.gradient's one-sided differences at the edges take them
    rows = _kernels.band_rows(width, n)
    for i0 in range(0, max(1, n - 1), rows):
        i1 = i0 + rows if i0 + rows < n - 1 else n
        yield max(0, i0 - 1), i0, i1, min(n, max(i1 + 1, 3))


def _grid_figures(u: GridField, integrate: bool):
    """The largest |circulation| of each current, and with ``integrate``
    the largest potential-system defect and graph equation residual.

    The grid is read in row bands (``_row_bands``), each figure is the
    largest of its bands' maxima, and every value a band takes is the one
    the whole grid gives, so the figures are bit for bit those of the
    whole grid.  A band's potential is the integral down the first interior
    column, made from that column's currents, plus the integral along each
    of the band's rows.
    """
    v, hx, hy = u.values, u.hx, u.hy
    n = u.nx - 2
    if integrate:
        ux, uy = _kernels.interior_gradient(v[:, :3], hx, hy)
        first = {name: P for name, (P, _) in _current_components(ux, uy)}
    circs, defects, el = {}, [], []
    for lo, i0, i1, hi in _row_bands(n, u.ny - 2):
        ux, uy = _kernels.interior_gradient(v[lo:hi + 2], hx, hy)
        own = slice(i0 - lo, i1 - lo)
        cells = slice(i0 - lo, min(i1 + 1, n) - lo)  # their corner rows
        sums = [None, None]
        # u_x f' + u_y g' - h' along each axis, summed in place in that order
        for name, (P, Q) in _current_components(ux, uy):
            circs.setdefault(name, []).append(
                _max_circulation(P[cells], Q[cells], hx, hy))
            if not integrate:
                continue
            pot = _potential(first[name], Q, hx, hy, slice(lo, hi))
            del P, Q  # before the next pair is made
            for axis, d in enumerate(
                    (np.gradient(pot, hx, axis=0, edge_order=2)[own],
                     np.gradient(pot[own], hy, axis=1, edge_order=2))):
                if name == "f":
                    sums[axis] = np.multiply(d, ux[own], out=d)
                elif name == "g":
                    sums[axis] += np.multiply(d, uy[own], out=d)
                else:
                    sums[axis] -= d
        if integrate:
            defects += [_max_abs(d) for d in sums]
            el.append(_max_abs(_kernels.interior_residual(v[i0:i1 + 2],
                                                          hx, hy)))
    # np.max, unlike max(), keeps a nan figure
    circs = {name: float(np.max(c)) for name, c in circs.items()}
    if not integrate:
        return circs
    return circs, float(np.max(defects)), float(np.max(el))


def conservation_residuals(u: GridField) -> ConservationReport:
    """Discrete closedness of the graph currents, cell by cell.

    Currents are sampled at the interior nodes, where central differences
    keep the derivative error a smooth field; circulations over boundary
    cells would amplify the one-sided stencil mismatch by 1/h.  Only each
    current's largest |circulation| is kept, and the grid is read in row
    bands of ``_kernels.band_rows`` rows.
    """
    return ConservationReport(_grid_figures(u, False), u.hx, u.hy)


class ReconstructionReport(Frozen):
    """Gates of the conservation-to-extremal round trip on one grid.

    The figures are maxima over the grid; the potentials they are taken
    from are not kept.  ``conservation`` is the closedness report of the
    currents that were integrated, the one ``conservation_residuals`` gives.
    """

    __slots__ = ("stage", "conservation", "rovnice_residual", "el_residual",
                 "gate")

    def __init__(self, stage: str,  # 'ok' or the first failing gate
                 conservation: ConservationReport, rovnice_residual: float,
                 el_residual: float, gate: float):
        self._freeze(stage, conservation, rovnice_residual, el_residual, gate)

    @property
    def max_circulation(self) -> float:
        return self.conservation.max_circulation

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


def _potential(P: np.ndarray, Q: np.ndarray, hx: float, hy: float,
               rows: slice = slice(None)) -> np.ndarray:
    # cumulative trapezoid down the first column of P, then along each row
    # of Q, which holds P's rows ``rows``
    row = _cumulative_trapezoid(P[:, 0], hx)
    cols = _cumulative_trapezoid(Q, hy)
    return row[rows, None] + cols


def reconstruct_and_check(u: GridField) -> ReconstructionReport:
    """Integrate the currents to potentials f, g, h and close the loop.

    Passes when the currents are numerically closed, the reconstructed
    potentials satisfy u_x f_* + u_y g_* - h_* = 0 in both base directions,
    and the graph equation residual is below the same gate.  The closedness
    report is the one ``conservation_residuals`` gives, taken from the same
    current pairs that are integrated.  The grid is read in row bands of
    ``_kernels.band_rows`` rows: each band's currents are made once, each
    potential is integrated over the band, its two derivatives go into the
    two directions' defects, and only maxima outlive the band, so no array
    of the grid's size is held.
    """
    circs, rovnice, el = _grid_figures(u, True)
    conservation = ConservationReport(circs, u.hx, u.hy)
    gate = conservation.gate()
    figures = (("closedness", conservation.max_circulation),
               ("potential-system", rovnice), ("equation", el))
    # the first gate whose figure is not within it; a nan figure is not
    stage = next((name for name, v in figures if not v <= gate), "ok")
    return ReconstructionReport(stage, conservation, rovnice, el, gate)
