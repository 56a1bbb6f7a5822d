"""Tests for the minimal-submanifold example: the metric area Lagrangians,
their Lepage forms and the symbolic graph equation (``lepage.metric``), and
the numeric graph workbench (``lepage.minimal``)."""

from __future__ import annotations

import gc
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import lepage.homogeneity
import lepage.minimal
from conftest import fresh_python
from lepage import _kernels
from lepage.charts import ChartError, JetChart
from lepage.equivalents import (Lagrangian, fundamental_homogeneous,
                                hilbert_caratheodory, is_lepage, lagrangian_of)
from lepage.expr import (ONE, ExprError, PointAssignment, Sym, atan_expr, const,
                         equal, evaluate, exp_expr, expr_sum, sqrt_expr,
                         substitute, x, yj, yy)
from lepage.homogeneity import zermelo_residuals
from lepage.metric import (MetricSpec, coincidence_report, graph_el_residual,
                           krupka_form, minimal_lagrangian, scherk_expr,
                           verify_coincidence)
from lepage.minimal import (BUILTIN_SURFACES, ConservationReport, GridField,
                            SolveResult, conservation_residuals,
                            reconstruct_and_check, solve_minimal_surface)

EUC2 = MetricSpec.euclidean(2)
EUC3 = MetricSpec.euclidean(3)
SQUARE = (-1.0, 1.0, -1.0, 1.0)


def newton_solve(name: str, N: int):
    bound = GridField.dirichlet(SQUARE, (N, N), BUILTIN_SURFACES[name])
    return solve_minimal_surface(bound, tol=1e-10, max_iter=12)


def scherk_solution(N: int):
    return newton_solve("scherk", N)


# ---------------------------------------------------------------------------
# metric data
# ---------------------------------------------------------------------------

def test_metric_validation():
    for entries, text in [
            (((ONE, ONE),), "metric entries must form a square matrix"),
            (((ONE, yy(1)), (yy(2), ONE)), "metric not symmetric at (1, 2)"),
            (((yj(1, 1), ), ),
             "metric entries may depend on configuration coordinates only")]:
        with pytest.raises(ExprError) as info:
            MetricSpec(entries)
        assert str(info.value) == text


def test_metric_constructors_and_definiteness():
    assert EUC3.dim == 3
    assert EUC3.entry(1, 1) is ONE and EUC3.entry(1, 2).is_zero
    lorentz = MetricSpec.diagonal(const(-1), ONE)
    assert lorentz.dim == 2 and lorentz.entry(1, 1) == const(-1)
    curved = MetricSpec.diagonal(exp_expr(yy(1)), ONE, ONE)
    assert curved.entry(1, 1) == exp_expr(yy(1)) and curved.entry(2, 3).is_zero


# ---------------------------------------------------------------------------
# area Lagrangians
# ---------------------------------------------------------------------------

def test_arclength_lagrangian():
    lam = minimal_lagrangian(EUC2, 1)
    assert equal(lam.L, sqrt_expr(yj(1, 1) ** 2 + yj(2, 1) ** 2)).verdict == "equal"


def test_area_lagrangian_cauchy_binet():
    lam = minimal_lagrangian(EUC3, 2)
    minors = expr_sum((yj(a, 1) * yj(b, 2) - yj(b, 1) * yj(a, 2)) ** 2
                      for a in range(1, 4) for b in range(a + 1, 4))
    assert equal(lam.L, sqrt_expr(minors)).verdict == "equal"


def test_area_lagrangian_graph_substitution():
    lam = minimal_lagrangian(EUC3, 2)
    jets = {Sym("y1", 1, 1): ONE, Sym("y1", 1, 2): const(0),
            Sym("y1", 2, 1): const(0), Sym("y1", 2, 2): ONE}
    on_graph = substitute(lam.L, jets)
    want = sqrt_expr(ONE + yj(3, 1) ** 2 + yj(3, 2) ** 2)
    assert equal(on_graph, want).verdict == "equal"


def test_area_lagrangians_are_homogeneous():
    assert zermelo_residuals(minimal_lagrangian(EUC3, 2)).passed
    curved = MetricSpec.diagonal(exp_expr(yy(1)), ONE, ONE)
    assert zermelo_residuals(minimal_lagrangian(curved, 2)).passed


def test_dimension_guards():
    with pytest.raises(ChartError):
        minimal_lagrangian(EUC2, 2)
    with pytest.raises(ChartError):
        minimal_lagrangian(MetricSpec.euclidean(5), 4)


# ---------------------------------------------------------------------------
# determinant-type Lepage form
# ---------------------------------------------------------------------------

def test_krupka_form_arclength_display():
    K = krupka_form(EUC2, 1)
    speed = sqrt_expr(yj(1, 1) ** 2 + yj(2, 1) ** 2)
    assert equal(K.coefficient((1,)), yj(1, 1) / speed, guards=[speed]).verdict == "equal"
    assert equal(K.coefficient((2,)), yj(2, 1) / speed, guards=[speed]).verdict == "equal"


def test_krupka_form_carries_the_area_lagrangian():
    lam = minimal_lagrangian(EUC3, 2)
    K = krupka_form(EUC3, 2)
    assert equal(lagrangian_of(K).L, lam.L, guards=[lam.L]).verdict == "equal"


def test_krupka_form_is_lepage():
    K = krupka_form(EUC3, 2)
    assert is_lepage(K.form, lagrangian_of(K), trials=10, seed=0).passed


# ---------------------------------------------------------------------------
# coincidence of the homogeneous constructions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric, n", [
    (EUC3, 2),
    (MetricSpec.euclidean(4), 2),
    (MetricSpec.diagonal(exp_expr(yy(1)), ONE, ONE), 2),
    (EUC2, 1),
])
def test_coincidence_across_metrics(metric, n):
    rep = verify_coincidence(metric, n, trials=20, seed=0)
    assert rep.passed
    assert rep.witness() is None
    assert all(r.verdict == "equal" for r in rep.values())


def test_coincidence_checks_homogeneity_once(monkeypatch):
    # the fundamental and product constructions share one Zermelo check
    calls = []
    original = lepage.homogeneity.zermelo_residuals

    def record(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(lepage.homogeneity, "zermelo_residuals", record)
    assert verify_coincidence(EUC3, 2, trials=20, seed=0).passed
    assert calls == [minimal_lagrangian(EUC3, 2)]


def test_coincidence_guard():
    with pytest.raises(ChartError):
        verify_coincidence(MetricSpec.euclidean(4), 3)


def test_coincidence_control_fails():
    # constant antisymmetric pairing on the (2, 2) chart is homogeneous but
    # not of metric type; the product construction deviates
    chart = JetChart(n=2, m=2, order=1)
    L = (yj(1, 1) * yj(2, 2) - yj(2, 1) * yj(1, 2)
         + yj(3, 1) * yj(4, 2) - yj(4, 1) * yj(3, 2))
    lam = Lagrangian(chart, L)
    forms = {"fundamental": fundamental_homogeneous(lam, verify=False),
             "product": hilbert_caratheodory(lam)}
    rep = coincidence_report(forms, trials=10, seed=0, guards=[lam.L])
    assert not rep.passed
    assert rep.witness()[0] == ("fundamental", "product")


# ---------------------------------------------------------------------------
# graph equation, symbolic
# ---------------------------------------------------------------------------

def test_graph_residual_plane():
    u = const(2) * x(1) - const(3) * x(2) + ONE
    assert graph_el_residual(u).is_zero


def test_graph_residual_scherk_symbolic():
    assert graph_el_residual(scherk_expr()).is_zero


def test_graph_residual_helicoid_symbolic():
    assert graph_el_residual(atan_expr(x(2) / x(1))).is_zero


def test_graph_residual_paraboloid():
    r = graph_el_residual(x(1) ** 2 + x(2) ** 2)
    at_origin = evaluate(r, PointAssignment({Sym("x", 1): 0.0, Sym("x", 2): 0.0}))
    assert at_origin == pytest.approx(4.0)
    want = const(4) + const(8) * x(1) ** 2 + const(8) * x(2) ** 2
    assert equal(r, want).verdict == "equal"


def test_graph_residual_input_validation():
    with pytest.raises(Exception):
        graph_el_residual(yy(1) * x(1))
    with pytest.raises(TypeError):
        graph_el_residual("not a surface")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_gridfield_validation():
    with pytest.raises(ValueError, match="^grid needs at least 3 x 3 nodes$"):
        GridField(SQUARE, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="^degenerate rectangle$"):
        GridField((1.0, 1.0, 0.0, 1.0), np.zeros((5, 5)))
    # spacings whose squares or product underflow to 0 or overflow, or are
    # subnormal, so that their reciprocals overflow
    for rect in [(0.0, 1e-170, 0.0, 1.0), (0.0, 1.0, 0.0, 1e-170),
                 (0.0, 1e200, 0.0, 1.0), (0.0, 1.0, 0.0, 1e200),
                 (0.0, 1e-159, 0.0, 1.0), (0.0, 1.0, 0.0, 1e-159)]:
        with pytest.raises(ValueError, match="must be positive and finite"):
            GridField(rect, np.zeros((9, 9)))


def test_gridfield_geometry():
    f = GridField.from_function((0, 2, 0, 1), (5, 3), lambda X, Y: X + Y)
    assert f.nx == 5 and f.ny == 3
    assert f.hx == pytest.approx(0.5) and f.hy == pytest.approx(0.5)
    assert f.values[4, 2] == pytest.approx(3.0)


def test_dirichlet_interpolates_linear_data_exactly():
    f = GridField.dirichlet(SQUARE, (9, 9), BUILTIN_SURFACES["plane"])
    exact = GridField.from_function(SQUARE, (9, 9), BUILTIN_SURFACES["plane"])
    assert np.allclose(f.values, exact.values)


def whole_mesh_dirichlet(rect, shape, fn):
    # Reference: fn on the whole mesh, then the transfinite interpolation
    # of its edges
    u = GridField.from_function(rect, shape, fn).values
    s = np.linspace(0.0, 1.0, shape[0])[:, None]
    t = np.linspace(0.0, 1.0, shape[1])[None, :]
    blend = ((1 - s) * u[0, :][None, :] + s * u[-1, :][None, :]
             + (1 - t) * u[:, 0][:, None] + t * u[:, -1][:, None]
             - (1 - s) * (1 - t) * u[0, 0] - (1 - s) * t * u[0, -1]
             - s * (1 - t) * u[-1, 0] - s * t * u[-1, -1])
    blend[0, :] = u[0, :]
    blend[-1, :] = u[-1, :]
    blend[:, 0] = u[:, 0]
    blend[:, -1] = u[:, -1]
    return blend


@pytest.mark.parametrize("name", sorted(BUILTIN_SURFACES))
def test_dirichlet_evaluates_the_edges_alone_bit_for_bit(name):
    # fn sees the four edges, each as a 2-D mesh of one row or column, and
    # the field is the whole-mesh construction's bit for bit
    fn, seen = BUILTIN_SURFACES[name], []

    def edges_only(X, Y):
        seen.append(X.shape)
        assert X.shape == Y.shape and 1 in X.shape
        return fn(X, Y)

    for rect in (SQUARE, (-1.5, 1.5, -1.5, 1.5), (0.0, 1.0, -0.5, 0.7)):
        for shape in ((3, 3), (17, 17), (18, 33), (129, 5), (257, 257),
                      (1025, 1025)):
            seen.clear()
            got = GridField.dirichlet(rect, shape, edges_only)
            assert sorted(seen) == sorted([(1, shape[1])] * 2
                                          + [(shape[0], 1)] * 2)
            assert_same_bits(got.values, whole_mesh_dirichlet(rect, shape, fn))


def test_interior_derivatives_exact_for_quadratic():
    f = GridField.from_function(SQUARE, (9, 9), BUILTIN_SURFACES["paraboloid"])
    ux, uy, uxx, uyy, uxy = _kernels._stencil_derivatives(f.values, f.hx, f.hy)
    X, Y = f.meshes()
    assert np.allclose(ux, 2 * X[1:-1, 1:-1])
    assert np.allclose(uy, 2 * Y[1:-1, 1:-1])
    assert np.allclose(uxx, 2.0)
    assert np.allclose(uxy, 0.0)
    assert np.allclose(uyy, 2.0)


def test_graph_residual_grid_matches_symbolic():
    f = GridField.from_function(SQUARE, (9, 9), BUILTIN_SURFACES["paraboloid"])
    X, Y = f.meshes()
    want = 4.0 + 8.0 * X[1:-1, 1:-1] ** 2 + 8.0 * Y[1:-1, 1:-1] ** 2
    assert np.allclose(lepage.minimal.graph_el_residual(f), want)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def random_surface(shape=(14, 13)):
    rng = np.random.default_rng(5)
    return np.cumsum(rng.standard_normal(shape), axis=0) * 0.01


# Reference loops: the graph-equation residual and the triplets of its
# interior-to-interior Jacobian, one stencil node at a time.

def residual_loop(u, hx, hy):
    nx, ny = u.shape
    out = np.empty((nx - 2, ny - 2))
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            ux = (u[i + 1, j] - u[i - 1, j]) / (2.0 * hx)
            uy = (u[i, j + 1] - u[i, j - 1]) / (2.0 * hy)
            uxx = (u[i + 1, j] - 2.0 * u[i, j] + u[i - 1, j]) / (hx * hx)
            uyy = (u[i, j + 1] - 2.0 * u[i, j] + u[i, j - 1]) / (hy * hy)
            uxy = (u[i + 1, j + 1] - u[i + 1, j - 1]
                   - u[i - 1, j + 1] + u[i - 1, j - 1]) / (4.0 * hx * hy)
            out[i - 1, j - 1] = ((1.0 + uy * uy) * uxx
                                 - 2.0 * ux * uy * uxy
                                 + (1.0 + ux * ux) * uyy)
    return out


def jacobian_loop(u, hx, hy):
    # boundary nodes are Dirichlet data and contribute no columns
    nx, ny = u.shape
    my = ny - 2
    rows, cols, vals = [], [], []
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            ux = (u[i + 1, j] - u[i - 1, j]) / (2.0 * hx)
            uy = (u[i, j + 1] - u[i, j - 1]) / (2.0 * hy)
            uxx = (u[i + 1, j] - 2.0 * u[i, j] + u[i - 1, j]) / (hx * hx)
            uyy = (u[i, j + 1] - 2.0 * u[i, j] + u[i, j - 1]) / (hy * hy)
            uxy = (u[i + 1, j + 1] - u[i + 1, j - 1]
                   - u[i - 1, j + 1] + u[i - 1, j - 1]) / (4.0 * hx * hy)
            A = 1.0 + uy * uy
            B = 1.0 + ux * ux
            C = -2.0 * ux * uy
            D = 2.0 * ux * uyy - 2.0 * uy * uxy
            E = 2.0 * uy * uxx - 2.0 * ux * uxy
            r = (i - 1) * my + (j - 1)
            for di in range(-1, 2):
                for dj in range(-1, 2):
                    ii = i + di
                    jj = j + dj
                    if ii < 1 or ii > nx - 2 or jj < 1 or jj > ny - 2:
                        continue
                    if di == 0 and dj == 0:
                        v = -2.0 * A / (hx * hx) - 2.0 * B / (hy * hy)
                    elif dj == 0:
                        v = A / (hx * hx) + di * D / (2.0 * hx)
                    elif di == 0:
                        v = B / (hy * hy) + dj * E / (2.0 * hy)
                    else:
                        v = di * dj * C / (4.0 * hx * hy)
                    rows.append(r)
                    cols.append((ii - 1) * my + (jj - 1))
                    vals.append(v)
    return np.array(rows), np.array(cols), np.array(vals)


def circulation_loop(P, Q, hx, hy):
    out = np.empty((P.shape[0] - 1, P.shape[1] - 1))
    for i in range(P.shape[0] - 1):
        for j in range(P.shape[1] - 1):
            bottom = 0.5 * (P[i, j] + P[i + 1, j]) * hx
            right = 0.5 * (Q[i + 1, j] + Q[i + 1, j + 1]) * hy
            top = 0.5 * (P[i + 1, j + 1] + P[i, j + 1]) * hx
            left = 0.5 * (Q[i, j + 1] + Q[i, j]) * hy
            out[i, j] = (bottom + right - top - left) / (hx * hy)
    return out


def in_range(n, steps):
    # [k, a]: index k + steps[a] lies in 0 .. n-1
    shifted = np.arange(n)[:, None] + steps
    return (shifted >= 0) & (shifted < n)


def jacobian_csr_stacked(u, hx, hy):
    # canonical CSR arrays of the Jacobian from a stack of all nine
    # coefficient fields and of their columns, masked down to the in-grid
    # entries
    mx, my = u.shape[0] - 2, u.shape[1] - 2
    ux, uy, uxx, uyy, uxy = _kernels._stencil_derivatives(u, hx, hy)
    A = 1.0 + uy * uy
    B = 1.0 + ux * ux
    C = -2.0 * ux * uy
    D = 2.0 * ux * uyy - 2.0 * uy * uxy
    E = 2.0 * uy * uxx - 2.0 * ux * uxy
    ax, dx = A / (hx * hx), D / (2.0 * hx)
    by, ey = B / (hy * hy), E / (2.0 * hy)
    cxy = C / (4.0 * hx * hy)
    centre = -2.0 * A / (hx * hx) - 2.0 * B / (hy * hy)
    coeffs = np.stack([cxy, ax - dx, -cxy, by - ey, centre, by + ey,
                       -cxy, ax + dx, cxy], axis=-1)
    steps = np.array([-1, 0, 1])
    in_i, in_j = in_range(mx, steps), in_range(my, steps)
    keep = (in_i[:, None, :, None] & in_j[None, :, None, :]).reshape(mx, my, 9)
    offsets = (steps[:, None] * my + steps[None, :]).ravel().astype(np.int32)
    cols = np.arange(mx * my, dtype=np.int32).reshape(mx, my, 1) + offsets
    indptr = np.zeros(mx * my + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2, dtype=np.int32).ravel(), out=indptr[1:])
    return coeffs[keep], cols[keep], indptr


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def stencil_matrix(S, mx, my):
    # the 9-point operator S on an (mx, my) grid as a dense matrix
    data, (rows, cols) = _kernels.stencil_coo(S, mx, my)
    A = np.zeros((mx * my,) * 2)
    A[rows, cols] = data
    return A


def stencil_matvec(S, x, shape):
    # S x from the operator's triplets, flat: np.bincount adds each row's
    # products in (a, b) order, which is the order of their columns, from 0,
    # as a CSR matrix-vector product does
    data, (rows, cols) = _kernels.stencil_coo(S, *shape)
    return np.bincount(rows, data * x.ravel()[cols], shape[0] * shape[1])


def coefficients(S, shape):
    # the operator's (3, 3, mx, my) coefficients from its triplets, 0 where
    # a coupling leaves the grid
    data, (rows, cols) = _kernels.stencil_coo(S, *shape)
    (i, j), (ii, jj) = divmod(rows, shape[1]), divmod(cols, shape[1])
    out = np.zeros((3, 3) + tuple(shape))
    out[ii - i + 1, jj - j + 1, i, j] = data
    return out


def nine_point(arrays):
    # contiguous (3, 3, ...) colour arrays as NINE blocks that view them
    return [_kernels.Block(S.reshape((9,) + S.shape[2:]), _kernels.NINE)
            for S in arrays]


def nine_point_copy(blocks):
    # the operator's blocks in the NINE layout, each coupling as it is
    return [_kernels.Block(np.stack([Sc[ab] for ab in _kernels.NINE]),
                           _kernels.NINE) for Sc in blocks]


def inf_norm(S, shape):
    # the operator's max norm, each row summed as stencil_matvec sums it
    data, (rows, _) = _kernels.stencil_coo(S, *shape)
    return float(np.bincount(rows, np.abs(data), shape[0] * shape[1]).max())


def meets_dsgesv_test(S, x, b):
    # LAPACK dsgesv's test ||b - S x|| <= ||x|| ||S|| eps sqrt(n), max norms
    tol = inf_norm(S, b.shape) * np.finfo(float).eps * np.sqrt(b.size)
    r = b.ravel() - stencil_matvec(S, x, b.shape)
    return np.max(np.abs(r)) <= np.max(np.abs(x)) * tol


def kernel_stencil(u, hx=0.03, hy=0.05):
    return (_kernels.interior_jacobian_stencil(u, hx, hy),
            u.shape[0] - 2, u.shape[1] - 2)


@pytest.mark.parametrize("shape", [(3, 3), (3, 9), (9, 3), (14, 13), (33, 33)])
def test_kernels_match_reference_loops_bit_for_bit(shape):
    u = random_surface(shape)
    hx, hy = 0.03, 0.05
    assert_same_bits(_kernels.interior_residual(u, hx, hy),
                     residual_loop(u, hx, hy))
    P, Q = u, random_surface(shape[::-1]).T
    assert_same_bits(_kernels.cell_circulation(P, Q, hx, hy),
                     circulation_loop(P, Q, hx, hy))
    rows, cols, vals = jacobian_loop(u, hx, hy)
    S, mx, my = kernel_stencil(u, hx, hy)
    # six contiguous float64 coefficient fields per node
    assert all(Sc.fields.shape[0] == 6 and Sc.fields.dtype == np.float64
               and Sc.fields.flags.c_contiguous
               and Sc.layout is _kernels.SIX for Sc in S)
    data, (got_rows, got_cols) = _kernels.stencil_coo(S, mx, my)
    # the loop lists each row's entries in ascending columns
    order = np.lexsort((got_cols, got_rows))
    assert np.array_equal(got_rows[order], rows)
    assert np.array_equal(got_cols[order], cols)
    assert_same_bits(data[order], vals)
    # every Sc[a, b] that stays in the grid is the loop's coefficient bit
    # for bit
    want = np.zeros((3, 3, mx, my))
    (i, j), (ii, jj) = divmod(rows, my), divmod(cols, my)
    want[ii - i + 1, jj - j + 1, i, j] = vals
    for (p, q), Sc in zip(_kernels.COLOURS, S):
        rows_in, cols_in = _kernels._reach(p, mx), _kernels._reach(q, my)
        for a in range(3):
            for b in range(3):
                (k, _), (l, _) = rows_in[a], cols_in[b]
                assert_same_bits(Sc[a, b][k, l],
                                 want[a, b, p::2, q::2][k, l])


def full_grid_fields(u, hx, hy):
    # the six fields of the SIX layout at every interior node, from the
    # full-grid derivatives
    ux, uy, uxx, uyy, uxy = _kernels._stencil_derivatives(u, hx, hy)
    ax = (1.0 + uy * uy) / (hx * hx)
    dx = (2.0 * ux * uyy - 2.0 * uy * uxy) / (2.0 * hx)
    by = (1.0 + ux * ux) / (hy * hy)
    ey = (2.0 * uy * uxx - 2.0 * ux * uxy) / (2.0 * hy)
    return np.stack([ax - dx, ax + dx, by - ey, by + ey,
                     -2.0 * ux * uy / (4.0 * hx * hy), -2.0 * ax - 2.0 * by])


def test_colour_blocks_formed_from_u_are_the_full_grid_fields():
    # each colour block, formed from u's strided neighbours when it is
    # read, holds bit for bit the full-grid fields at its nodes, on odd,
    # even and thin interior grids
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    spacing = st.floats(1e-3, 1e3)

    @hypothesis.settings(derandomize=True, deadline=None)
    @hypothesis.given(st.integers(1, 40), st.integers(1, 40), spacing,
                      spacing, st.integers(0, 2 ** 32 - 1))
    def check(mx, my, hx, hy, seed):
        u = np.random.default_rng(seed).standard_normal((mx + 2, my + 2))
        want = full_grid_fields(u, hx, hy)
        S = _kernels.interior_jacobian_stencil(u, hx, hy)
        assert len(S) == len(_kernels.COLOURS)
        for c, (p, q) in enumerate(_kernels.COLOURS):
            fields = S[c].fields
            assert fields.flags.c_contiguous
            assert_same_bits(fields, np.ascontiguousarray(want[:, p::2, q::2]))
    check()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 9), (14, 13), (33, 33)])
def test_six_field_layout_is_the_nine_point_layout_bit_for_bit(dtype, shape):
    # the Jacobian's SIX blocks and the NINE blocks of the same couplings,
    # each field rounded once to dtype: every coupling that stays in the
    # grid is the same, and the kernels give the same bits on both (the
    # solve's own copy, in the FIVE layout, is tested below)
    S, mx, my = kernel_stencil(random_surface(shape))
    six, nine = [[_kernels.Block(Sc.fields.astype(dtype), Sc.layout)
                  for Sc in blocks] for blocks in (S, nine_point_copy(S))]
    for (p, q), Sc, Sn in zip(_kernels.COLOURS, six, nine):
        assert Sc.layout is _kernels.SIX and Sn.layout is _kernels.NINE
        assert Sc.fields.shape[0] == 6 and Sc.fields.dtype == dtype
        assert Sc.fields.flags.c_contiguous
        rows, cols = _kernels._reach(p, mx), _kernels._reach(q, my)
        for a in range(3):
            for b in range(3):
                (k, _), (l, _) = rows[a], cols[b]
                assert_same_bits(Sc[a, b][k, l], Sn[a, b][k, l])
    x, f = np.random.default_rng(2).standard_normal((2, mx, my), dtype=dtype)
    assert_same_bits(_kernels.stencil_apply(six, x),
                     _kernels.stencil_apply(nine, x))
    assert_same_bits(_kernels.stencil_residual(six, x, f),
                     _kernels.stencil_residual(nine, x, f))
    for order in ((0, 1, 2, 3), (3, 2, 1, 0)):
        x6, x9 = x.copy(), x.copy()
        _kernels.colour_gauss_seidel(six, x6, f, order)
        _kernels.colour_gauss_seidel(nine, x9, f, order)
        assert_same_bits(x6, x9)


def apply_loop(blocks, x):
    # S x node by node in x's dtype: from 0, each in-grid coupling times
    # its neighbour added in (a, b) order, as a CSR row sums its entries
    mx, my = x.shape
    y = np.zeros_like(x)
    for (p, q), Sc in zip(_kernels.COLOURS, blocks):
        couplings = {ab: Sc[ab] for ab in _kernels.NINE}
        for i in range(p, mx, 2):
            for j in range(q, my, 2):
                total = x.dtype.type(0)
                for (a, b), S in couplings.items():
                    if 0 <= i + a - 1 < mx and 0 <= j + b - 1 < my:
                        total += S[i // 2, j // 2] * x[i + a - 1, j + b - 1]
                y[i, j] = total
    return y


def gauss_seidel_loop(blocks, x, f, order):
    # one sweep, colour by colour in ``order``, node by node in x's dtype:
    # x + (f - S x) / S[1, 1] at each node of the colour
    x = x.copy()
    for c in order:
        (p, q), Sc = _kernels.COLOURS[c], blocks[c]
        Sx, centre = apply_loop(blocks, x), Sc[1, 1]
        for i in range(p, x.shape[0], 2):
            for j in range(q, x.shape[1], 2):
                x[i, j] += (f[i, j] - Sx[i, j]) / centre[i // 2, j // 2]
    return x


def test_five_field_copy_forms_its_centre_from_the_arms():
    # the solve's copy of a SIX block keeps five fields, in the FIVE
    # layout: every coupling but the centre reads as in the six-field copy,
    # the centre is -(the sum of the four arms) in the copy's dtype, in
    # every dtype alike, and apply, residual and sweep on the copy give the
    # node-by-node loops' bits
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.integers(1, 9), st.integers(1, 9),
                      st.sampled_from([np.float32, np.float64]),
                      st.integers(0, 2 ** 32 - 1))
    def check(mx, my, dtype, seed):
        rng = np.random.default_rng(seed)
        six = [_kernels.Block(rng.standard_normal(
                   (6, len(range(p, mx, 2)), len(range(q, my, 2)))),
                   _kernels.SIX) for p, q in _kernels.COLOURS]
        five = [_kernels.block_copy(Sc, dtype) for Sc in six]
        for Sc, Sf in zip(six, five):
            assert Sf.layout is _kernels.FIVE
            assert Sf.fields.shape[0] == 5 and Sf.fields.dtype == dtype
            assert Sf.fields.flags.c_contiguous
            whole = Sc.fields.astype(dtype)
            arms = whole[0] + whole[1]
            arms += whole[2]
            arms += whole[3]
            for ab in _kernels.NINE:
                want = (-arms if ab == (1, 1)
                        else _kernels.Block(whole, _kernels.SIX)[ab])
                assert_same_bits(Sf[ab], want)
        x, f = rng.standard_normal((2, mx, my)).astype(dtype)
        Sx = apply_loop(five, x)
        assert_same_bits(_kernels.stencil_apply(five, x), Sx)
        assert_same_bits(_kernels.stencil_residual(five, x, f), f - Sx)
        for order in ((0, 1, 2, 3), (3, 2, 1, 0)):
            got = x.copy()
            _kernels.colour_gauss_seidel(five, got, f, order)
            assert_same_bits(got, gauss_seidel_loop(five, x, f, order))
    check()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1), (3, 9), (14, 13), (33, 33)])
def test_zero_start_sweep_is_the_full_sweep_bit_for_bit(dtype, shape):
    # from x = +0.0 the first colour's product is a zero and is not made;
    # right-hand sides with zeros of both signs give the full sweep's bits,
    # on the solve's five-field copy and on nine-field blocks
    rng = np.random.default_rng(5)
    u = random_surface((shape[0] + 2, shape[1] + 2))
    S = _kernels.interior_jacobian_stencil(u, 0.03, 0.05)
    f = rng.standard_normal(shape).astype(dtype)
    f[rng.random(shape) < 0.3] = 0.0
    f[rng.random(shape) < 0.3] = -0.0
    for blocks in ([_kernels.block_copy(Sc, dtype) for Sc in S],
                   [_kernels.block_copy(Sc, dtype)
                    for Sc in nine_point_copy(S)]):
        for order in ((0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)):
            full, skipped = np.zeros((2,) + shape, dtype)
            _kernels.colour_gauss_seidel(blocks, full, f, order)
            _kernels.colour_gauss_seidel(blocks, skipped, f, order,
                                         zero=True)
            assert_same_bits(skipped, full)


@pytest.mark.parametrize("shape", [(3, 4), (3, 3), (4, 3), (9, 14)])
def test_stencil_finite_reads_only_couplings_in_the_grid(shape):
    # a non-finite coupling that stays in the grid is found; one that
    # reaches a boundary node is not read
    S, mx, my = kernel_stencil(random_surface(shape))
    blocks = nine_point_copy(S)
    assert _kernels.stencil_finite(blocks, (mx, my))
    for c, (p, q) in enumerate(_kernels.COLOURS):
        rows, cols = _kernels._reach(p, mx), _kernels._reach(q, my)
        for a in range(3):
            for b in range(3):
                (k, _), (l, _) = rows[a], cols[b]
                mask = np.zeros(blocks[c].fields.shape[1:], bool)
                mask[k, l] = True
                for inside in (True, False):
                    bad = [_kernels.Block(Sc.fields.copy(), Sc.layout)
                           for Sc in blocks]
                    bad[c][a, b][mask == inside] = np.inf
                    found = not _kernels.stencil_finite(bad, (mx, my))
                    assert found == (inside and mask.any())


def same_float(a, b):
    return float(a).hex() == float(b).hex()


def stencil_norm(blocks, shape):
    # the operator's max norm: the largest colour_norm of its colours
    return max(_kernels.colour_norm(Sc, p, q, shape)
               for (p, q), Sc in zip(_kernels.COLOURS, blocks))


@pytest.mark.parametrize("shape", [(3, 3), (3, 4), (4, 3), (9, 14), (33, 34),
                                   (66, 19)])
def test_stencil_norm_is_the_triplet_row_sum_bit_for_bit(shape):
    # the max norm sums each row's couplings in the grid as the triplets
    # list them, on the Jacobian and on a Galerkin level, and reads no
    # coupling that leaves the grid, whatever it holds
    S, mx, my = kernel_stencil(random_surface(shape))
    six = list(S)
    levels = [(six, (mx, my))]
    shapes = lepage.minimal._grid_levels(mx, my)
    if len(shapes) > 1:
        levels.append((_kernels.galerkin_product(six, *shapes[:2]), shapes[1]))
    for blocks, grid in levels:
        want = inf_norm(blocks, grid)
        assert same_float(stencil_norm(blocks, grid), want)
        for bad in (1e300, np.nan):
            nine = nine_point_copy(blocks)
            for (p, q), Sc in zip(_kernels.COLOURS, nine):
                rows = _kernels._reach(p, grid[0])
                cols = _kernels._reach(q, grid[1])
                for a in range(3):
                    for b in range(3):
                        (k, _), (l, _) = rows[a], cols[b]
                        outside = np.ones(Sc.fields.shape[1:], bool)
                        outside[k, l] = False
                        Sc[a, b][outside] = bad
            assert same_float(stencil_norm(nine, grid), want)
    # the Jacobian's ax - dx couples row 0 of colours (0, q) to boundary
    # nodes only
    for bad in (1e300, np.nan):
        blocks = [_kernels.Block(Sc.fields.copy(), Sc.layout) for Sc in six]
        blocks[0].fields[0, 0] = blocks[1].fields[0, 0] = bad
        assert same_float(stencil_norm(blocks, (mx, my)),
                          inf_norm(six, (mx, my)))


@pytest.mark.parametrize("shape", [(3, 3), (3, 4), (4, 3), (3, 9), (9, 3),
                                   (14, 13), (12, 17), (33, 33)])
def test_jacobian_csr_matches_stacked_kernel(shape):
    # the operator's triplets, which the coarsest solve's dense matrix is
    # filled from, are in row order the Jacobian's canonical CSR arrays
    u = random_surface(shape)
    data, (rows, cols) = _kernels.stencil_coo(*kernel_stencil(u))
    order = np.lexsort((cols, rows))
    want_data, want_cols, want_indptr = jacobian_csr_stacked(u, 0.03, 0.05)
    assert_same_bits(data[order], want_data)
    assert np.array_equal(cols[order], want_cols)
    indptr = np.cumsum(np.bincount(rows, minlength=len(want_indptr) - 1))
    assert np.array_equal(indptr, want_indptr[1:])


def test_jacobian_csr_keeps_exact_zeros():
    # flat data: every first difference vanishes, so the diagonal-neighbour
    # entries are exact zeros that must still be listed
    mx, my = 5, 4
    data, _ = _kernels.stencil_coo(
        *kernel_stencil(np.zeros((mx + 2, my + 2)), 0.1, 0.2))
    # 9 entries per node, minus 3 per node on each side, plus the 4 corners
    assert data.size == 9 * mx * my - 6 * (mx + my) + 4
    assert np.count_nonzero(data == 0.0) == 4 * (mx - 1) * (my - 1)


# ---------------------------------------------------------------------------
# multigrid grid operations
# ---------------------------------------------------------------------------

def interpolation_matrix(m, n):
    # 1-D linear interpolation from m coarse to n fine interior nodes: to
    # 2m + 1, to 2m (the same with the last fine node dropped), or to m
    # (the identity)
    if n == m:
        return np.eye(m)
    P = np.zeros((2 * m + 1, m))
    for c in range(m):
        P[2 * c:2 * c + 3, c] = (0.5, 1.0, 0.5)
    return P[:n]


def prolong(xc, shape):
    # bilinear interpolation from xc's grid to ``shape`` as one array, axis
    # by axis: the reference for _kernels.prolong_add, which adds it in place
    for axis, n in enumerate(shape):
        v = np.moveaxis(xc, axis, 0)
        m = v.shape[0]
        if n == m:
            continue
        out = np.empty((n,) + v.shape[1:], v.dtype)
        out[1::2] = v
        out[0] = 0.5 * v[0]
        out[2:2 * m:2] = 0.5 * (v[:-1] + v[1:])
        if n % 2:  # node 2m
            out[-1] = 0.5 * v[-1]
        xc = np.moveaxis(out, 0, axis)
    return xc


def probe_stencil(apply, mx, my):
    """NINE colour blocks of the 9-point stencil of the linear map ``apply``.

    Nine probes, each the indicator of the nodes with (i mod 3, j mod 3) =
    (s, t): in every 3 x 3 neighbourhood exactly one node is probed, so each
    image entry is one stencil coefficient.  Row i = p + 2k of colour (p, q)
    meets the probed node at offset a - 1 when 2k = s - p - a + 1 (mod 3),
    that is k = 2 (s - p - a + 1) (mod 3).
    """
    arrays = [np.zeros((3, 3, len(range(p, mx, 2)), len(range(q, my, 2))))
              for p, q in _kernels.COLOURS]
    for s in range(3):
        for t in range(3):
            e = np.zeros((mx, my))
            e[s::3, t::3] = 1.0
            y = apply(e)
            for (p, q), Sc in zip(_kernels.COLOURS, arrays):
                yc = y[p::2, q::2]
                for a in range(3):
                    for b in range(3):
                        k0 = 2 * (s - p - a + 1) % 3
                        l0 = 2 * (t - q - b + 1) % 3
                        Sc[a, b, k0::3, l0::3] = yc[k0::3, l0::3]
    return nine_point(arrays)


def probed_galerkin_product(blocks, fine, coarse):
    # the oracle of _kernels.galerkin_product: the coarse operator probed
    # through restrict, the fine operator and prolongation
    return probe_stencil(
        lambda e: _kernels.restrict(
            _kernels.stencil_apply(blocks, prolong(e, fine)), coarse), *coarse)


def probed(u):
    # J from the reference loop, and the kernel's stencil
    rows, cols, vals = jacobian_loop(u, 0.03, 0.05)
    blocks, mx, my = kernel_stencil(u)
    J = np.zeros((mx * my,) * 2)
    J[rows, cols] = vals
    return J, blocks, mx, my


@pytest.mark.parametrize("shape", [(3, 3), (4, 9), (14, 13), (17, 17)])
def test_probe_stencil_recovers_the_jacobian(shape):
    J, blocks, mx, my = probed(random_surface(shape))
    got = probe_stencil(lambda e: (J @ e.ravel()).reshape(mx, my), mx, my)
    assert np.array_equal(coefficients(got, (mx, my)),
                          coefficients(blocks, (mx, my)))
    x, f = np.random.default_rng(1).standard_normal((2, mx, my))
    Sx = _kernels.stencil_apply(blocks, x)
    assert np.allclose(Sx.ravel(), J @ x.ravel(), rtol=1e-14, atol=1e-12)
    assert_same_bits(_kernels.stencil_residual(blocks, x, f), f - Sx)


# (coarse, fine) interior shapes: odd sides 2m + 1, even sides 2m, and
# sides that do not coarsen
TRANSFERS = [((4, 7), (9, 15)), ((4, 7), (8, 14)), ((4, 7), (9, 14)),
             ((4, 7), (4, 15)), ((4, 7), (8, 7)), ((1, 7), (3, 14))]


def test_restrict_is_the_transpose_of_prolong():
    rng = np.random.default_rng(2)
    for coarse, fine in TRANSFERS:
        Px, Py = (interpolation_matrix(m, n) for m, n in zip(coarse, fine))
        xc, f = rng.standard_normal(coarse), rng.standard_normal(fine)
        assert np.allclose(_kernels.prolong_add(np.zeros(fine), xc),
                           Px @ xc @ Py.T, rtol=0, atol=1e-15)
        assert np.allclose(_kernels.restrict(f, coarse), Px.T @ f @ Py,
                           rtol=0, atol=1e-14)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prolong_add_is_x_plus_the_prolonged_grid_bit_for_bit(dtype):
    # the V-cycle adds the interpolated correction into its iterate in
    # place; every sum is the one of x + prolong(xc)
    rng = np.random.default_rng(4)
    for coarse, fine in [*TRANSFERS, ((1, 1), (3, 2)), ((15, 15), (31, 30))]:
        xc = rng.standard_normal(coarse).astype(dtype)
        x = rng.standard_normal(fine).astype(dtype)
        want = x + prolong(xc, fine)
        got = x.copy()
        assert _kernels.prolong_add(got, xc) is got
        assert_same_bits(got, want)


def test_coarse_stencil_is_the_galerkin_product():
    k = _kernels
    for coarse, fine in TRANSFERS:
        J, blocks, mx, my = probed(random_surface((fine[0] + 2, fine[1] + 2)))
        stencil = k.galerkin_product(list(blocks), fine, coarse)
        for got, want in zip(stencil, probed_galerkin_product(blocks, fine,
                                                               coarse)):
            assert got.layout is _kernels.NINE
            assert_same_bits(got.fields, want.fields)
        P = np.kron(*(interpolation_matrix(m, n) for m, n in zip(coarse, fine)))
        want = P.T @ J @ P
        got = stencil_matrix(stencil, *coarse)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-9)
        # the product is itself a 9-point operator, so composing lost nothing
        assert np.count_nonzero(want[np.abs(got) == 0]) == 0


def test_galerkin_product_is_the_probed_product_bit_for_bit():
    # the product composed from the fine stencil equals, byte for byte, the
    # one probed through prolongation, the fine operator and restriction:
    # from a Jacobian's six-field blocks (level 0) and from the 9-point
    # blocks of that product (a coarser level), on odd, even, thin and
    # semi-coarsened grids
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    spacing = st.floats(1e-2, 1e2)

    @hypothesis.settings(max_examples=60)
    @hypothesis.given(st.integers(1, 70), st.integers(1, 70), spacing,
                      spacing, st.integers(0, 2 ** 32 - 1))
    def check(mx, my, hx, hy, seed):
        shapes = lepage.minimal._grid_levels(mx, my)
        hypothesis.assume(len(shapes) > 1)
        u = np.random.default_rng(seed).standard_normal((mx + 2, my + 2))
        level = list(_kernels.interior_jacobian_stencil(u, hx, hy))
        for fine, coarse in list(zip(shapes, shapes[1:]))[:2]:
            got = _kernels.galerkin_product(level, fine, coarse)
            want = probed_galerkin_product(level, fine, coarse)
            for g, w in zip(got, want):
                assert_same_bits(g.fields, w.fields)
            level = got
    check()


@pytest.mark.parametrize("shape", [(65, 65), (66, 35)])
def test_coarse_operators_are_composed_from_the_finer_copy(monkeypatch,
                                                           shape):
    # the solve's finest operator is the float32 copy of each Jacobian
    # colour, and each coarser one the Galerkin product of the next finer
    # level's copy, itself copied to float32 but for the coarsest; the
    # product of a float32 copy is still the probed product bit for bit
    m, seen = lepage.minimal, []
    S, b = one_newton_system("scherk", shape)
    vcycle = m._vcycle

    def recording_vcycle(stencils, shapes, coarse, level, f):
        if not seen:
            seen.append((list(stencils), shapes))
        return vcycle(stencils, shapes, coarse, level, f)

    monkeypatch.setattr(m, "_vcycle", recording_vcycle)
    assert np.all(np.isfinite(m.spsolve(S, b)))
    stencils, shapes = seen[0]
    assert len(stencils) == len(shapes) > 2
    for got, Sc in zip(stencils[0], S):
        assert got.layout is _kernels.FIVE
        assert_same_bits(got.fields,
                         _kernels.block_copy(Sc, np.float32).fields)
    for level in range(1, len(stencils)):
        fine, coarse = shapes[level - 1], shapes[level]
        want = _kernels.galerkin_product(stencils[level - 1], fine, coarse)
        if level == 1:
            probed = probed_galerkin_product(stencils[0], fine, coarse)
            for w, p in zip(want, probed):
                assert_same_bits(w.fields, p.fields)
        if level < len(stencils) - 1:
            _kernels.stencil_copy(want, np.float32)
        for g, w in zip(stencils[level], want):
            assert g.layout is w.layout is _kernels.NINE
            assert_same_bits(g.fields, w.fields)
    assert all(Sc.fields.dtype == np.float64 for Sc in stencils[-1])


def test_colour_gauss_seidel_is_gauss_seidel_in_colour_order():
    A, blocks, mx, my = probed(random_surface((12, 9)))
    rng = np.random.default_rng(3)
    f, x0 = rng.standard_normal((mx, my)), rng.standard_normal((mx, my))
    got = x0.copy()
    _kernels.colour_gauss_seidel(blocks, got, f, order=(2, 0, 3, 1))
    x = x0.ravel().copy()
    for c in (2, 0, 3, 1):
        p, q = _kernels.COLOURS[c]
        for i in range(p, mx, 2):
            for j in range(q, my, 2):
                r = i * my + j
                x[r] += (f.ravel()[r] - A[r] @ x) / A[r, r]
    assert np.allclose(got.ravel(), x, rtol=1e-13, atol=1e-13)


def test_jacobian_matches_central_differences():
    u = random_surface((8, 7))
    hx, hy = 0.03, 0.05
    my = u.shape[1] - 2
    n = (u.shape[0] - 2) * my
    A = stencil_matrix(*kernel_stencil(u, hx, hy))
    eps = 1e-6
    J = np.zeros((n, n))
    for i in range(1, u.shape[0] - 1):
        for j in range(1, u.shape[1] - 1):
            up, dn = u.copy(), u.copy()
            up[i, j] += eps
            dn[i, j] -= eps
            col = (i - 1) * my + (j - 1)
            J[:, col] = (_kernels.interior_residual(up, hx, hy).ravel()
                         - _kernels.interior_residual(dn, hx, hy).ravel()) / (2 * eps)
    assert np.max(np.abs(A - J)) < 1e-6


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

def test_solver_planar_data_is_exact():
    bound = GridField.dirichlet(SQUARE, (17, 17), BUILTIN_SURFACES["plane"])
    res = solve_minimal_surface(bound)
    assert res.converged and res.iterations == 0
    assert res.final_residual == 0.0
    assert "converged" in res.describe()


def test_solver_scherk_convergence_order():
    errors = {}
    for N in (17, 33, 65):
        res = scherk_solution(N)
        assert res.converged and res.iterations <= 12
        assert res.final_residual < 1e-10
        exact = GridField.from_function(SQUARE, (N, N), BUILTIN_SURFACES["scherk"])
        errors[N] = float(np.max(np.abs(res.field.values - exact.values)))
    assert np.log2(errors[17] / errors[33]) >= 1.9
    assert np.log2(errors[33] / errors[65]) >= 1.9


def test_solver_history_is_monotone_after_start():
    res = scherk_solution(33)
    assert res.history == sorted(res.history, reverse=True)


def test_solver_nonconvergence_reports_residual():
    bound = GridField.dirichlet(SQUARE, (33, 33), BUILTIN_SURFACES["scherk"])
    res = solve_minimal_surface(bound, tol=1e-14, max_iter=1)
    assert not res.converged
    assert "residual" in res.message


def test_solver_rejects_bad_tolerance():
    bound = GridField.dirichlet(SQUARE, (9, 9), BUILTIN_SURFACES["plane"])
    with pytest.raises(ValueError):
        solve_minimal_surface(bound, tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-10, True, "1e-10"])
def test_solver_rejects_non_finite_or_non_positive_tolerance(tol):
    bound = GridField.dirichlet(SQUARE, (9, 9), BUILTIN_SURFACES["scherk"])
    with pytest.raises(ValueError, match="tolerance"):
        solve_minimal_surface(bound, tol=tol)


@pytest.mark.parametrize("max_iter", [-3, 2.5, 3.0, True, None])
def test_solver_rejects_non_integer_or_negative_max_iter(max_iter):
    bound = GridField.dirichlet(SQUARE, (9, 9), BUILTIN_SURFACES["scherk"])
    with pytest.raises(ValueError, match="max_iter"):
        solve_minimal_surface(bound, max_iter=max_iter)


def test_solver_accepts_zero_and_numpy_max_iter():
    bound = GridField.dirichlet(SQUARE, (9, 9), BUILTIN_SURFACES["scherk"])
    assert solve_minimal_surface(bound, max_iter=0).iterations == 0
    res = solve_minimal_surface(bound, tol=np.float64(1e-10),
                                max_iter=np.int64(12))
    assert res.converged


@pytest.mark.parametrize("name", ["scherk", "paraboloid"])
def test_solver_stagnation_at_the_roundoff_floor_counts_as_converged(name):
    bound = GridField.dirichlet(SQUARE, (65, 65), BUILTIN_SURFACES[name])
    res = solve_minimal_surface(bound, tol=1e-14, max_iter=20)
    floor = lepage.minimal._roundoff_floor(res.field.values, bound.hx, bound.hy)
    assert res.converged and res.iterations < 20
    assert res.message == f"stagnated at the roundoff floor {floor:.3e}"
    assert 1e-14 < res.final_residual <= floor
    # the same solve reports the history it reports at tol 1e-10, extended
    coarse = solve_minimal_surface(bound, tol=1e-10, max_iter=20)
    assert res.history[:len(coarse.history)] == coarse.history
    # the reported residual is the returned field's own
    own = _kernels.interior_residual(res.field.values, bound.hx, bound.hy)
    assert res.final_residual == float(np.max(np.abs(own)))
    assert res.final_residual < res.history[-2]


def test_solver_stagnation_above_the_floor_still_fails(monkeypatch):
    monkeypatch.setattr(lepage.minimal, "_roundoff_floor",
                        lambda u, hx, hy: 0.0)
    bound = GridField.dirichlet(SQUARE, (65, 65), BUILTIN_SURFACES["scherk"])
    res = solve_minimal_surface(bound, tol=1e-14, max_iter=20)
    assert not res.converged
    assert res.message == "stagnated under damping"


EXITS = {  # exit: tol, max_iter, converged, message, accepted steps
    "converged": (1e-10, 20, True, "", 2),
    "max_iter": (1e-14, 1, False, "residual ", 1),
    "floor": (1e-14, 20, True, "stagnated at the roundoff floor ", 2),
    # with the floor at 0, steps are accepted while the residual, already at
    # roundoff level (1.9e-14 to 1.4e-14 here), keeps shrinking, so this count
    # follows the last bits of the coarse inverse (5 with LAPACK's)
    "damping": (1e-14, 20, False, "stagnated under damping", 6),
    "singular": (1e-10, 20, False, "singular Jacobian", 0),
}


@pytest.mark.parametrize("exit", EXITS)
def test_every_exit_counts_accepted_steps(monkeypatch, exit):
    tol, max_iter, converged, message, steps = EXITS[exit]
    if exit == "damping":
        monkeypatch.setattr(lepage.minimal, "_roundoff_floor",
                            lambda u, hx, hy: 0.0)
    bound = GridField.dirichlet(SQUARE, (17, 17), BUILTIN_SURFACES["scherk"])
    if exit == "singular":
        bound.values[1:-1, 1:-1] = np.nan
    res = solve_minimal_surface(bound, tol=tol, max_iter=max_iter)
    assert res.converged == converged
    assert res.message.startswith(message) and bool(res.message) == bool(message)
    # history holds the start residual and one per accepted step
    assert res.iterations == steps
    assert len(res.history) == steps + 1


# exit: start, tol, max_iter, message, accepted steps
ALIASING = {
    "converged at entry": ("settled", 1e-10, 20, "", 0),
    "converged": ("boundary", 1e-10, 20, "", 2),
    "floor at entry": ("settled", 1e-14, 20, "stagnated at the roundoff", 0),
    "floor": ("boundary", 1e-14, 20, "stagnated at the roundoff", 2),
    "singular": ("nan", 1e-10, 20, "singular Jacobian", 0),
    "damping at entry": ("settled", 1e-14, 20, "stagnated under damping", 0),
    "damping": ("boundary", 1e-14, 20, "stagnated under damping", 6),
    "max_iter 0": ("boundary", 1e-10, 0, "residual ", 0),
    "max_iter": ("boundary", 1e-14, 1, "residual ", 1),
}


@pytest.mark.parametrize("exit", ALIASING)
def test_solver_never_writes_or_returns_its_input(monkeypatch, exit):
    # the Newton loop starts from the input's own array and writes nothing
    # to it; an exit before the first accepted step returns a copy
    start, tol, max_iter, message, steps = ALIASING[exit]
    if exit.startswith("damping"):
        monkeypatch.setattr(lepage.minimal, "_roundoff_floor",
                            lambda u, hx, hy: 0.0)
    field = GridField.dirichlet(SQUARE, (17, 17), BUILTIN_SURFACES["scherk"])
    if start == "settled":  # where the same solve from the boundary ended
        field = solve_minimal_surface(field, tol=tol, max_iter=max_iter).field
    if start == "nan":
        field.values[1:-1, 1:-1] = np.nan
    kept = field.values.copy()
    res = solve_minimal_surface(field, tol=tol, max_iter=max_iter)
    assert res.message.startswith(message) and res.iterations == steps
    assert field.values.tobytes() == kept.tobytes()
    assert not np.shares_memory(res.field.values, field.values)
    if not steps:
        assert_same_bits(res.field.values, kept)


def test_roundoff_floor_formula():
    u = np.zeros((5, 5))
    u[2, 2] = 3.0  # central differences give |grad u| = 3 / (2 h) next to it
    hx, hy = 0.5, 0.25
    want = (np.finfo(float).eps * 3.0 * (2 / hx ** 2 + 2 / hy ** 2)
            * (1 + (3.0 / (2 * hy)) ** 2))
    assert lepage.minimal._roundoff_floor(u, hx, hy) == pytest.approx(want)


def test_solver_leaves_paraboloid_boundary_for_other_interior():
    bound = GridField.dirichlet(SQUARE, (33, 33), BUILTIN_SURFACES["paraboloid"])
    res = solve_minimal_surface(bound, tol=1e-10, max_iter=12)
    assert res.converged
    parab = GridField.from_function(SQUARE, (33, 33), BUILTIN_SURFACES["paraboloid"])
    assert np.max(np.abs(res.field.values - parab.values)) > 0.5
    # the paraboloid itself is nowhere near a discrete solution
    assert np.min(np.abs(lepage.minimal.graph_el_residual(parab))) >= 3.0


SOLVES_WITHOUT_SCIPY = """
import contextlib, io
from lepage.acceptance import run_one
from lepage.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["minsurf", "--grid", "65"]) == 0
    assert main(["minsurf", "--grid", "64"]) == 0
assert run_one(7).passed and run_one(8).passed
"""

# the README's numeric quick tour
NUMERIC_TOUR = """
from lepage.minimal import (BUILTIN_SURFACES, GridField,
                            conservation_residuals, reconstruct_and_check,
                            solve_minimal_surface)
bound = GridField.dirichlet((-1, 1, -1, 1), (65, 65),
                            BUILTIN_SURFACES["scherk"])
out = solve_minimal_surface(bound, tol=1e-10, max_iter=12)
assert out.converged
assert conservation_residuals(out.field).passed()
assert reconstruct_and_check(out.field).passed
"""

# the README's metric quick tour, exact arithmetic only
METRIC_TOUR = """
from lepage.equivalents import is_lepage
from lepage.metric import MetricSpec, krupka_form, minimal_lagrangian
euc = MetricSpec.euclidean(3)
lam = minimal_lagrangian(euc, 2)
assert is_lepage(krupka_form(euc, 2).form, lam, guards=[lam.L]).passed
"""

# with scipy blocked: a solve that needs the float64 run (float32 overflows
# in the operator) and a paraboloid solve from the command line
SCIPY_BLOCKED = """
import contextlib, io, sys
sys.modules["scipy"] = None
import numpy as np
from lepage import _kernels
from lepage.cli import main
from lepage.minimal import BUILTIN_SURFACES, GridField, spsolve
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["minsurf", "--grid", "33", "--boundary", "paraboloid"]) == 0
bound = GridField.dirichlet((-1, 1, -1, 1), (65, 65),
                            BUILTIN_SURFACES["scherk"])
u, hx, hy = bound.values, bound.hx, bound.hy
S = [_kernels.Block(Sc.fields * 1e36, Sc.layout)
     for Sc in _kernels.interior_jacobian_stencil(u, hx, hy)]
b = -_kernels.interior_residual(u, hx, hy)
x = spsolve(S, b).reshape(b.shape)
norm = max(_kernels.colour_norm(Sc, p, q, b.shape)
           for (p, q), Sc in zip(_kernels.COLOURS, S))
tol = norm * np.finfo(float).eps * np.sqrt(b.size)
r = _kernels.stencil_residual(S, x, b)
assert np.max(np.abs(r)) <= np.max(np.abs(x)) * tol
print("solved")
"""

SYMBOLIC_LAYERS = [f"lepage.{name}" for name in (
    "expr", "_dsl", "_sampling", "charts", "forms", "equivalents",
    "homogeneity", "variation", "metric", "acceptance", "cli")]


def test_cli_import_loads_no_scipy():
    # nor do Newton solves, on odd and even grids alike, and solves run
    # with scipy blocked, the float64 run included;
    # the numeric workbench alone loads no symbolic layer either, and the
    # metric area Lagrangians load no numpy
    for code, banned in (("import lepage.cli", []), (SOLVES_WITHOUT_SCIPY, []),
                         (NUMERIC_TOUR, SYMBOLIC_LAYERS),
                         (METRIC_TOUR, ["numpy"])):
        # a None entry blocks an import and is not a loaded module
        report = (f"print(sorted(m for m, mod in sys.modules.items() "
                  f"if mod is not None and (m.startswith('scipy') "
                  f"or m in {banned!r})))")
        out = fresh_python("-c", f"import sys\n{code}\n{report}")
        assert out.stdout.strip() == "[]"
    # lepage.cli binds these lazily, and lepage.minimal imports _kernels:
    # until a command uses one, it is absent or its type stays the lazy
    # loader's, and its body, not even compiled, has not run
    deferred = [f"lepage.{name}" for name in (
        "acceptance", "metric", "minimal", "variation", "homogeneity",
        "_kernels")]
    code = (f"import sys, types, lepage.cli\n"
            f"print(sorted(m for m in {deferred!r} "
            f"if type(sys.modules.get(m)) is types.ModuleType))")
    out = fresh_python("-c", code)
    assert out.stdout.strip() == "[]"
    # a metric problem builds its Lagrangian in lepage.metric and solves no
    # grid, so neither the workbench's body nor the kernels' runs
    problem = Path(__file__).resolve().parents[1] / "problems" / "minimal_r3.json"
    code = (f"import contextlib, io, sys, types\n"
            f"from lepage.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['check-lepage', '--kind', 'krupka', "
            f"'--problem', {str(problem)!r}])\n"
            f"print(code, [m for m in ('lepage.minimal', 'lepage._kernels') "
            f"if type(sys.modules.get(m)) is types.ModuleType])")
    out = fresh_python("-c", code)
    assert out.stdout.strip() == "0 []"
    out = fresh_python("-c", SCIPY_BLOCKED)
    assert out.stdout.strip() == "solved"


# The files of the module bodies run after numpy's began, in a process that
# records each body as it starts; a lepage module compiled there from source
# would hold its tokens and syntax tree on top of numpy's pages
AFTER_NUMPY = """
import os, lepage
numpy = next(i for i, name in enumerate(bodies)
             if name.endswith(os.path.join("numpy", "__init__.py")))
src = os.path.dirname(os.path.dirname(lepage.__file__))
print([os.path.relpath(name, src) for name in bodies[numpy:]
       if name.startswith(os.path.join(src, "lepage", ""))])
"""


@pytest.mark.parametrize("code", [
    "import lepage.minimal as m\n"
    "m.solve_minimal_surface(m.GridField.dirichlet(\n"
    "    (-1, 1, -1, 1), (17, 17), m.BUILTIN_SURFACES['scherk']))",
    "import lepage.acceptance\nassert lepage.acceptance.run_one(7).passed",
    "import contextlib, io\nfrom lepage import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.main(['minsurf', '--grid', '17']) == 0",
], ids=["solve", "criterion-7", "minsurf"])
def test_no_lepage_module_body_starts_after_numpy(code):
    record = ("import sys\nbodies = []\n"
              "sys.addaudithook(lambda event, args: event == 'exec' and "
              "getattr(args[0], 'co_name', '') == '<module>' "
              "and bodies.append(args[0].co_filename))\n")
    assert fresh_python("-c", record + code + AFTER_NUMPY).stdout == "[]\n"


# with numpy's LAPACK entry points made to raise: a Newton solve, a solve
# whose float32 copy overflows so that only the float64 elimination runs,
# and both quadrature checks
LAPACK_BLOCKED = """
import sys
from fractions import Fraction
import numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("a LAPACK routine was called")

for name in ("inv", "solve", "eigvalsh", "eigh"):
    setattr(np.linalg, name, refuse)

from lepage import _kernels
from lepage.equivalents import lagrangian_of
from lepage.expr import const, x
from lepage.forms import Immersion
from lepage.metric import MetricSpec, krupka_form
from lepage.minimal import (BUILTIN_SURFACES, GridField, solve_minimal_surface,
                            spsolve)
from lepage.variation import (VectorFieldSpec, first_variation_check,
                              reparameterization_invariance)

bound = GridField.dirichlet((-1, 1, -1, 1), (33, 33), BUILTIN_SURFACES["scherk"])
assert solve_minimal_surface(bound).converged
bound = GridField.dirichlet((-1, 1, -1, 1), (17, 17), BUILTIN_SURFACES["scherk"])
u, hx, hy = bound.values, bound.hx, bound.hy
S = [_kernels.Block(Sc.fields * 1e36, Sc.layout)
     for Sc in _kernels.interior_jacobian_stencil(u, hx, hy)]
b = -_kernels.interior_residual(u, hx, hy)
step = spsolve(S, b).reshape(b.shape)
norm = max(_kernels.colour_norm(Sc, p, q, b.shape)
           for (p, q), Sc in zip(_kernels.COLOURS, S))
tol = norm * np.finfo(float).eps * np.sqrt(b.size)
r = _kernels.stencil_residual(S, step, b)
assert np.max(np.abs(r)) <= np.max(np.abs(step)) * tol

K = krupka_form(MetricSpec.euclidean(3), 2)
zeta = Immersion(K.chart, (x(1), x(2), x(1) * x(2) * const(Fraction(1, 10))))
rect = (0.0, 1.0, 0.0, 1.0)
xi = VectorFieldSpec.constant(K.chart, (0, 0, 1))
assert first_variation_check(K, xi, zeta, rect, points=4).rel_difference < 1e-12
shear = x(2) ** 2 * const(Fraction(1, 10))
rep = reparameterization_invariance(lagrangian_of(K), zeta, shear, rect,
                                    points=4)
assert rep.rel_difference < 1e-12
print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
"""


def test_solves_and_quadrature_call_no_lapack():
    # a dense LAPACK call makes OpenBLAS map its level-3 work buffer, and
    # leggauss loads numpy.polynomial; neither happens now
    out = fresh_python("-c", LAPACK_BLOCKED, check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_solver_scipy_entry_points_are_module_globals(monkeypatch):
    # the Newton loop looks spsolve up at call time, once per step, so a
    # caller may rebind it; csr_matrix stays bound for callers that wrap it
    m = lepage.minimal
    assert callable(vars(m).get("spsolve"))
    assert "spsolve" in m.solve_minimal_surface.__code__.co_names
    assert callable(vars(m).get("csr_matrix"))
    calls = []
    factor_solve = m.spsolve

    def counting_spsolve(S, b):
        calls.append(b.shape)
        return factor_solve(S, b)

    monkeypatch.setattr(m, "spsolve", counting_spsolve)
    res = scherk_solution(33)
    assert res.converged and res.iterations > 0
    assert calls == [(31, 31)] * res.iterations


def reachable(roots):
    # objects reachable from roots through containers, instances, closures
    # and default arguments, and from arrays to the arrays they view; not
    # through modules, classes or a function's globals
    seen, stack, out = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return out


def test_solver_holds_no_copy_of_the_jacobian_while_factoring(monkeypatch):
    # BiCGSTAB runs within a few percent of a Newton step's memory peak and
    # for most of its time.  The Jacobian forms its six float64 fields per
    # node when a block is read; the solve reads them once to set up, and
    # while BiCGSTAB runs no float64 block and no float64 coefficient array
    # of the fine grid is reachable from the solve's frames:
    # _multigrid_solve, spsolve and the Newton loop
    m, seen = lepage.minimal, []
    inner = m._bicgstab

    def inspecting_bicgstab(matvec, b, rtol, maxiter, psolve, x, scale):
        caller = sys._getframe(1)
        frames = [caller, caller.f_back, caller.f_back.f_back]
        mx, my = frames[0].f_locals["b"].shape
        colours = {(len(range(p, mx, 2)), len(range(q, my, 2)))
                   for p, q in _kernels.COLOURS}
        held = [v for v in reachable([f.f_locals for f in frames])
                if isinstance(v, _kernels.Block)
                and v.fields.dtype == np.float64
                and v.fields.shape[1:] in colours
                or isinstance(v, np.ndarray) and v.dtype == np.float64
                and v.ndim > 2 and v.shape[-2:] in colours]
        seen.append(([f.f_code.co_name for f in frames], len(held)))
        inner(matvec, b, rtol, maxiter, psolve, x, scale)

    monkeypatch.setattr(m, "_bicgstab", inspecting_bicgstab)
    res = scherk_solution(33)
    assert res.converged
    solver = ["_multigrid_solve", "spsolve", "solve_minimal_surface"]
    assert seen and all(names == solver and held == 0 for names, held in seen)


# Reference factor-solve: one float64 MMD-ordered SuperLU of the operator.

def float64_spsolve(S, b):
    scipy_sparse = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    b = b.copy()  # the Newton loop's right-hand side is formed when read
    n = b.size
    J = scipy_sparse.csc_matrix(_kernels.stencil_coo(S, *b.shape),
                                shape=(n, n))
    try:
        lu = linalg.splu(J, permc_spec="MMD_AT_PLUS_A", panel_size=4)
    except RuntimeError:
        return np.full(n, np.nan)
    return lu.solve(b.ravel())


def stencil_of(A, shape):
    # the 9-point operator with matrix A on an interior grid of this shape
    A = np.asarray(A, dtype=float)
    S = probe_stencil(lambda e: (A @ e.ravel()).reshape(shape), *shape)
    assert np.array_equal(stencil_matrix(S, *shape), A)
    return S


def random_stencil(shape, seed):
    # diagonally dominant, with random couplings
    S = general_stencil(shape, seed)
    for Sc in S:
        Sc.fields[4] += 8.0  # the centre
    return S


@pytest.fixture
def factors(monkeypatch):
    """("inv", dtype name, rows) of each matrix given to the coarse solve's
    ``_dense_inverse``, in call order, whether or not it is invertible."""
    calls, original = [], lepage.minimal._dense_inverse

    def record(A):
        calls.append(("inv", A.dtype.name, A.shape[0]))
        return original(A)
    monkeypatch.setattr(lepage.minimal, "_dense_inverse", record)
    return calls


def general_stencil(shape, seed):
    # random couplings with no diagonal dominance, so the elimination pivots
    rng = np.random.default_rng(seed)
    return nine_point([rng.uniform(-1, 1, (3, 3, len(range(p, shape[0], 2)),
                                           len(range(q, shape[1], 2))))
                       for p, q in _kernels.COLOURS])


def max_row_sum(M):
    return float(np.max(np.sum(np.abs(M), axis=1)))


# The coarse solve's elimination against LAPACK's inverse.  The bounds are
# fixed from the dtype's eps: a backward-stable inverse X of an n x n matrix
# has ||A X - I|| <= n eps ||A|| ||X|| (max row sums), and then
# ||X - A^-1|| <= ||A^-1|| ||A X - I||, so two inverses that both meet the
# first bound differ by at most n eps ||A|| (||X|| + ||X_ref||) ||X_ref||.

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make", [random_stencil, general_stencil])
@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 4), (3, 15), (15, 1),
                                   (15, 15)])
def test_dense_inverse_matches_lapack(dtype, make, shape):
    for seed in range(3):
        A = stencil_matrix(make(shape, seed), *shape).astype(dtype)
        X = lepage.minimal._dense_inverse(A)
        assert X.dtype == dtype and X.shape == A.shape
        n, eps = A.shape[0], float(np.finfo(dtype).eps)
        a, x = A.astype(float), X.astype(float)
        ref = np.linalg.inv(A).astype(float)
        bound = n * eps * max_row_sum(a)
        assert max_row_sum(a @ x - np.eye(n)) <= bound * max_row_sum(x)
        assert max_row_sum(a @ ref - np.eye(n)) <= bound * max_row_sum(ref)
        assert (max_row_sum(x - ref) <= bound * (max_row_sum(x)
                + max_row_sum(ref)) * max_row_sum(ref))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_inverse_gives_none_on_an_exactly_zero_pivot(dtype):
    S = random_stencil((5, 4), 0)
    S[1].fields[:, 1, 0] = 0.0  # no coupling at all in one node's row
    singular = [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 1.0]],
                np.zeros((3, 3)), stencil_matrix(S, 5, 4)]
    for A in singular:
        A = np.array(A, dtype=dtype)
        assert np.linalg.matrix_rank(A) < A.shape[0]
        assert lepage.minimal._dense_inverse(A) is None
    # a zero where the first pivot would be is not singular: a swap finds one
    assert lepage.minimal._dense_inverse(
        np.array([[0.0, 1.0], [1.0, 1.0]], dtype=dtype)) is not None


def test_spsolve_matches_dense_solve():
    S = random_stencil((5, 4), 3)
    b = np.random.default_rng(3).standard_normal((5, 4))
    x = lepage.minimal.spsolve(S, b)
    want = np.linalg.solve(stencil_matrix(S, 5, 4), b.ravel())
    assert np.allclose(x, want, rtol=0, atol=1e-13)


def test_spsolve_singular_matrix_gives_non_finite(factors):
    for A in ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]]):
        factors.clear()
        x = lepage.minimal.spsolve(stencil_of(A, (1, 2)), np.array([[1.0, 1.0]]))
        assert factors == [("inv", "float32", 2), ("inv", "float64", 2)]
        assert x.shape == (2,)
        assert not np.all(np.isfinite(x))


def test_solver_nan_interior_reports_singular_jacobian():
    bound = GridField.dirichlet(SQUARE, (9, 9), BUILTIN_SURFACES["plane"])
    bound.values[1:-1, 1:-1] = np.nan
    res = solve_minimal_surface(bound)
    assert not res.converged and res.iterations == 0
    assert res.message == "singular Jacobian"


def test_spsolve_float32_singular_falls_back_to_float64(factors):
    # 1 + 1e-9 rounds to 1 in float32, so only the float64 inverse exists
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
    S, b = stencil_of(A, (1, 2)), np.array([[1.0, 2.0]])
    x = lepage.minimal.spsolve(S, b)
    assert factors == [("inv", "float32", 2), ("inv", "float64", 2)]
    assert meets_dsgesv_test(S, x, b)
    assert (np.max(np.abs(A @ x - b.ravel()))
            <= 4 * np.finfo(float).eps * np.max(np.abs(x)))
    # cond(A) = 4e9, so x carries an error of order cond * eps
    assert np.allclose(x, np.linalg.solve(A, b.ravel()), rtol=1e-6, atol=0)


def test_spsolve_beyond_float32_range_falls_back_to_float64(factors):
    S = [_kernels.Block(Sc.fields * 1e39, Sc.layout)
         for Sc in random_stencil((3, 2), 4)]
    b = np.random.default_rng(4).standard_normal((3, 2))
    x = lepage.minimal.spsolve(S, b)
    # the float32 copy overflows before anything is inverted
    assert factors == [("inv", "float64", 6)]
    assert meets_dsgesv_test(S, x, b)
    want = np.linalg.solve(stencil_matrix(S, 3, 2), b.ravel())
    assert np.allclose(x, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("scale", [1e40, 1e-40])
def test_spsolve_scaled_beyond_float32_updates_falls_back_to_float64(scale):
    # BiCGSTAB's updates, scaled back to the residual's size in float32,
    # overflow or are subnormal, so the float32 run stalls and the float64
    # run solves, quietly
    S, b = one_newton_system("paraboloid", (33, 33))
    b = b * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lepage.minimal._multigrid_solve(S, b, np.float32) is None
        x = lepage.minimal.spsolve(S, b)
    assert meets_dsgesv_test(S, x, b)
    want = lepage.minimal.spsolve(S, b / scale) * scale
    assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))


def test_spsolve_too_ill_conditioned_to_refine_matches_dense_solve(
        factors):
    # a 1-D Laplacian on a 1 x 10 grid, shifted to 4e-10 above singular:
    # cond = 1e10 is beyond what refining a float32 factor can reach
    k = 10
    diag = 2.0 * np.cos(np.pi / (k + 1)) + 4e-10
    A = np.diag(np.full(k, diag)) - np.eye(k, k=1) - np.eye(k, k=-1)
    b = np.ones((1, k))
    S = stencil_of(A, (1, k))
    x = lepage.minimal.spsolve(S, b)
    assert factors == [("inv", "float32", k), ("inv", "float64", k)]
    assert meets_dsgesv_test(S, x, b)
    # both solves carry an error of order cond * eps = 1e-6
    assert np.allclose(x, np.linalg.solve(A, b.ravel()), rtol=1e-5, atol=0)


NEWTON_GRIDS = [(name, N) for name in ("scherk", "paraboloid")
                for N in (65, 129)]


@pytest.mark.parametrize("name, N", NEWTON_GRIDS)
def test_mixed_precision_newton_matches_float64_reference(monkeypatch,
                                                          name, N):
    got = newton_solve(name, N)
    monkeypatch.setattr(lepage.minimal, "spsolve", float64_spsolve)
    want = newton_solve(name, N)
    assert got.converged == want.converged and got.converged
    assert got.iterations == want.iterations
    assert np.allclose(got.history, want.history, rtol=1e-9, atol=0)
    assert np.max(np.abs(got.field.values - want.field.values)) <= 1e-14


@pytest.mark.parametrize("name, N", NEWTON_GRIDS)
def test_each_newton_step_makes_one_float32_factorization(factors, name, N):
    res = newton_solve(name, N)
    assert res.converged and res.iterations > 0
    assert factors == [("inv", "float32", 15 * 15)] * res.iterations


@pytest.mark.parametrize("name", ["scherk", "paraboloid"])
def test_multigrid_factors_only_the_coarsest_grid(factors, name):
    res = newton_solve(name, 257)
    assert res.converged and res.iterations > 0
    # no fallback on a benchmark grid: one float32 inverse per Newton step,
    # each of the 15 x 15 coarsest grid, not of the 255 x 255 interior
    assert factors == [("inv", "float32", 15 * 15)] * res.iterations


def test_grid_levels():
    levels, side = lepage.minimal._grid_levels, lepage.minimal._COARSEST_SIDE
    shapes = [(mx, my) for mx in range(1, 81) for my in range(1, 81)]
    for shape in shapes + [(1, 4095), (4094, 2), (1024, 1023)]:
        got = levels(*shape)
        assert got[0] == shape and max(got[-1]) <= side
        for fine, coarse in zip(got, got[1:]):
            # a step is taken only above the coarsest side; it halves each
            # side above it, 2m + 1 and 2m nodes to m, and keeps the others
            assert max(fine) > side
            for n, m in zip(fine, coarse):
                assert n in (2 * m, 2 * m + 1) if n > side else m == n
    assert levels(511, 511) == [(511, 511), (255, 255), (127, 127),
                                (63, 63), (31, 31), (15, 15)]
    assert levels(255, 255) == [(255, 255), (127, 127), (63, 63), (31, 31),
                                (15, 15)]
    assert levels(63, 63) == [(63, 63), (31, 31), (15, 15)]
    assert levels(31, 31) == [(31, 31), (15, 15)]
    assert levels(62, 15) == [(62, 15), (31, 15), (15, 15)]
    assert levels(1, 63) == [(1, 63), (1, 31), (1, 15)]


def one_newton_system(name, shape):
    bound = GridField.dirichlet(SQUARE, shape, BUILTIN_SURFACES[name])
    u, hx, hy = bound.values, bound.hx, bound.hy
    return (_kernels.interior_jacobian_stencil(u, hx, hy),
            -_kernels.interior_residual(u, hx, hy))


# Reference: one float32 inverse of S, by the coarse solve's elimination,
# refined in float64 until LAPACK dsgesv's test holds, at most 30 times;
# None when it does not.

def refined_float32_solve(S, b):
    tol = inf_norm(S, b.shape) * np.finfo(float).eps * np.sqrt(b.size)
    solve = lepage.minimal._dense_inverse(
        stencil_matrix(S, *b.shape).astype(np.float32))
    x = (solve @ b.ravel().astype(np.float32)).astype(np.float64)
    for _ in range(30):
        r = b.ravel() - stencil_matvec(S, x, b.shape)
        if np.max(np.abs(r)) <= np.max(np.abs(x)) * tol:
            return x
        x += solve @ r.astype(np.float32)
    return None


# grids of at most 15 x 15 interior nodes are inverted densely
@pytest.mark.parametrize("shape", [(17, 17), (16, 17), (9, 17), (17, 3)])
def test_grids_that_do_not_coarsen_keep_the_float32_factor_solve(factors,
                                                                 shape):
    S, b = one_newton_system("paraboloid", shape)
    assert len(lepage.minimal._grid_levels(*b.shape)) == 1
    x = lepage.minimal.spsolve(S, b)
    assert factors == [("inv", "float32", b.size)]
    want = refined_float32_solve(S, b)
    assert want is not None
    assert_same_bits(x, want)


# Thin grids, whose hx and hy differ many times over (5 x 129: 32 times).
# There a residual before the last can sit a few decades above the roundoff
# floor (Scherk: 6.95e-7 against 4.3e-12) and differ from the float64
# reference's by a tenth of the floor, which rtol 1e-9 does not allow; their
# earlier residuals are compared within the floor, as the last one is.
THIN_GRIDS = {(5, 129)}


@pytest.mark.parametrize("name", ["scherk", "paraboloid"])
@pytest.mark.parametrize("shape", [(65, 33), (33, 129), (64, 64), (66, 65),
                                   (18, 18), *THIN_GRIDS])
def test_multigrid_newton_matches_float64_reference_on_rectangles(
        monkeypatch, factors, name, shape):
    levels = lepage.minimal._grid_levels(shape[0] - 2, shape[1] - 2)
    assert len(levels) > 1
    bound = GridField.dirichlet(SQUARE, shape, BUILTIN_SURFACES[name])
    got = solve_minimal_surface(bound, tol=1e-10, max_iter=12)
    mx, my = levels[-1]
    assert factors == [("inv", "float32", mx * my)] * got.iterations
    monkeypatch.setattr(lepage.minimal, "spsolve", float64_spsolve)
    want = solve_minimal_surface(bound, tol=1e-10, max_iter=12)
    assert got.converged == want.converged and got.converged
    assert got.iterations == want.iterations
    # the solves agree to roundoff, and a one-ulp change of the field moves
    # a residual by up to the roundoff floor, where the last residual sits
    floor = lepage.minimal._roundoff_floor(want.field.values, bound.hx, bound.hy)
    earlier = floor if shape in THIN_GRIDS else 0.0
    assert np.allclose(got.history[:-1], want.history[:-1], rtol=1e-9,
                       atol=earlier)
    assert abs(got.history[-1] - want.history[-1]) <= floor
    assert np.max(np.abs(got.field.values - want.field.values)) <= 1e-14


@pytest.mark.parametrize("shape", [(65, 65), (33, 129)])
def test_bicgstab_matches_scipy_bit_for_bit(monkeypatch, shape):
    # every BiCGSTAB call of a multigrid solve, against scipy's on the same
    # float32 operands: right-hand side, operator and V-cycle preconditioner.
    # Into a float32 zero iterate at scale 1, the solution BiCGSTAB adds is
    # scipy's x; the solve's own call then adds it into its float64 iterate
    linalg = pytest.importorskip("scipy.sparse.linalg")
    m = lepage.minimal
    S, b = one_newton_system("paraboloid", shape)
    assert len(m._grid_levels(*b.shape)) > 1
    ours, same = m._bicgstab, []

    def both(matvec, rhs, rtol, maxiter, psolve, iterate, scale):
        kept = rhs.copy()
        x = np.zeros_like(rhs)
        ours(matvec, rhs, rtol, maxiter, psolve, x, 1)
        # rhs doubles as the shadow residual, so nothing may write to it
        assert rhs.tobytes() == kept.tobytes()

        def operator(fn):
            return linalg.LinearOperator((rhs.size,) * 2, matvec=fn,
                                         dtype=np.float32)
        want, _ = linalg.bicgstab(operator(matvec), rhs, rtol=rtol, atol=0.0,
                                  maxiter=maxiter, M=operator(psolve))
        same.append(rhs.dtype == x.dtype == want.dtype == np.float32
                    and x.tobytes() == want.tobytes())
        ours(matvec, rhs, rtol, maxiter, psolve, iterate, scale)

    monkeypatch.setattr(m, "_bicgstab", both)
    assert np.all(np.isfinite(m.spsolve(S, b)))
    assert len(same) > 1 and all(same)


def traced_peak(fn, nodes):
    """fn(), its allocation high-water mark over entry, in float64 arrays of
    `nodes` entries, and where the mark was reached (``peak_site``).  numpy
    reports its buffers to tracemalloc, so the reading does not depend on
    the allocator or the machine."""
    site = [0, ()]

    def locate(frame, event, arg):
        peak = tracemalloc.get_traced_memory()[1]
        if peak > site[0]:
            site[:] = [peak, peak_site(frame, event)]

    tracemalloc.start()
    profile = sys.getprofile()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        sys.setprofile(locate)
        out = fn()
        sys.setprofile(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        sys.setprofile(profile)
        tracemalloc.stop()
    return out, (peak - entry) / (8 * nodes), site[1]


def peak_site(frame, event, depth=5):
    # the innermost function names, outward, of the frame that was running
    # when tracemalloc's peak rose: read at each call and return, a rise is
    # the work of the returning frame, or of the caller of one being entered
    if event == "call":
        frame = frame.f_back
    names = []
    while frame is not None and len(names) < depth:
        names.append(frame.f_code.co_name)
        frame = frame.f_back
    return " < ".join(names)


# float64 values per interior node, solve and checks, by grid side
PEAK_GATES = {257: (10.6, 4.1), 513: (8.9, 1.2)}


def test_newton_solve_and_conservation_check_hold_few_arrays():
    # Scherk grids, which coarsen to 15 x 15.  The Jacobian forms a colour
    # block when it is read, and forming one holds its fields, a quarter of
    # 6 float64 values per node, and the derivatives of the band of its rows
    # being made; the right-hand side -F(u) is formed from u when it is
    # read, too, and the Newton loop holds no copy of its input.  The solve
    # reads each block once as it sets up, for its share of ||S|| and its
    # float32 five-field copy, and composes each coarse operator from the
    # next finer copy; while it corrects it must hold that copy and the
    # coarse float32 operators, the refinement residual, written into the
    # fresh right-hand side, and the float64 iterate, into which BiCGSTAB
    # adds its corrections, the float32 Krylov vectors and the operator's
    # scratch, and no copies of them: the Galerkin product is composed from
    # the stencil, the V-cycle adds its prolonged correction in place, the
    # refinement loop drops its float32 residual before the next residual,
    # and each damped trial's residual is made in bands, as a block's
    # fields are, no band more than a quarter of its rows.  The
    # conservation check and reconstruction read the grid in row bands and
    # keep only maxima, so they stay well under the solve.  At N=257 the
    # solve's peak is in a refinement residual, where a band of the
    # right-hand side is a quarter of the grid; at N=513 it is in
    # BiCGSTAB's V-cycle
    scherk_solution(33)  # lazy set-up happens outside the reading
    for N, (solve_gate, check_gate) in PEAK_GATES.items():
        bound = GridField.dirichlet(SQUARE, (N, N), BUILTIN_SURFACES["scherk"])
        nodes = (N - 2) ** 2
        S = _kernels.interior_jacobian_stencil(bound.values, bound.hx,
                                               bound.hy)
        _, assembly, _ = traced_peak(
            lambda: [S[c].fields.size for c in range(len(S))], nodes)
        res, solve, solve_site = traced_peak(
            lambda: solve_minimal_surface(bound, tol=1e-10, max_iter=12),
            nodes)
        assert res.converged
        (cons, rec), check, check_site = traced_peak(
            lambda: (conservation_residuals(res.field),
                     reconstruct_and_check(res.field)), nodes)
        assert cons.passed() and rec.passed
        assert not [v for v in reachable([cons, rec])
                    if isinstance(v, np.ndarray)]
        assert assembly <= 4.0, f"N={N}: assembly peaks at {assembly:.3f}"
        assert solve <= solve_gate, (f"N={N}: solve peaks at {solve:.3f} "
                                     f"in {solve_site}")
        assert check <= check_gate, (f"N={N}: checks peak at {check:.3f} "
                                     f"in {check_site}")


def test_fallback_ignores_an_overflow_that_no_coupling_reads(factors):
    # cxy is read only by the diagonal couplings, and a one-row interior
    # has none in the grid: an entry of cxy beyond float32 range leaves
    # the float32 solve, and its result, as they were.  With three rows the
    # same entry is read, and the float32 solve gives way to float64
    for shape, first in (((3, 65), ("inv", "float32", 15)),
                         ((5, 65), ("inv", "float64", 3 * 15))):
        S, b = one_newton_system("paraboloid", shape)
        S = [_kernels.Block(Sc.fields.copy(), Sc.layout) for Sc in S]
        want = lepage.minimal.spsolve(S, b)
        S[0].fields[4, 0, 0] = 1e39
        factors.clear()
        x = lepage.minimal.spsolve(S, b)
        assert factors[0] == first
        if shape[0] == 3:
            assert factors == [first]
            assert_same_bits(x, want)


def test_multigrid_solve_meets_the_double_precision_test():
    S, b = one_newton_system("scherk", (129, 129))
    x = lepage.minimal.spsolve(S, b)
    assert meets_dsgesv_test(S, x, b)
    assert np.allclose(x, float64_spsolve(S, b), rtol=0,
                       atol=1e-12 * np.max(np.abs(x)))


def test_multigrid_failure_falls_back_to_float64(factors):
    # a float32 overflow in the operator ends the float32 solve before its
    # coarsest grid is inverted; the float64 solve inverts that grid instead
    S, b = one_newton_system("scherk", (65, 65))
    S = [_kernels.Block(Sc.fields * 1e36, Sc.layout) for Sc in S]
    x = lepage.minimal.spsolve(S, b)
    assert factors == [("inv", "float64", 15 * 15)]
    assert meets_dsgesv_test(S, x, b)
    assert np.allclose(x, float64_spsolve(S, b), rtol=0,
                       atol=1e-13 * np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# conservation laws and reconstruction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_potential_matches_scipy_bit_for_bit(seed):
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(3, 40, size=2)
    P, Q = rng.standard_normal((2, nx, ny))
    hx, hy = rng.uniform(1e-3, 0.5, size=2)
    ref = (integrate.cumulative_trapezoid(P[:, 0], dx=hx, initial=0.0)[:, None]
           + integrate.cumulative_trapezoid(Q, dx=hy, axis=1, initial=0.0))
    assert np.array_equal(lepage.minimal._potential(P, Q, hx, hy), ref)


def test_conservation_planar_zero():
    plane = GridField.from_function(SQUARE, (17, 17), BUILTIN_SURFACES["plane"])
    rep = conservation_residuals(plane)
    assert set(rep.circulations) == {"f", "g", "h"}
    assert rep.max_circulation < 1e-13
    assert rep.passed()


def test_conservation_scherk_refinement():
    maxima = {}
    for N in (17, 33, 65):
        rep = conservation_residuals(scherk_solution(N).field)
        assert rep.passed()
        maxima[N] = rep.max_circulation
    assert maxima[33] < maxima[17] / 2
    assert maxima[65] < maxima[33] / 2


def test_conservation_control_stays_large():
    for N in (17, 65):
        bad = GridField.from_function(SQUARE, (N, N), BUILTIN_SURFACES["paraboloid"])
        rep = conservation_residuals(bad)
        assert rep.max_circulation > 1.0
        assert not rep.passed()
        assert "circulations" in rep.describe()


def test_reconstruction_planar():
    plane = GridField.from_function(SQUARE, (17, 17), BUILTIN_SURFACES["plane"])
    rec = reconstruct_and_check(plane)
    assert rec.passed and rec.stage == "ok"
    assert rec.rovnice_residual < 1e-13
    assert rec.el_residual == 0.0


def test_reconstruction_scherk():
    rec = reconstruct_and_check(scherk_solution(65).field)
    assert rec.passed
    assert rec.rovnice_residual <= rec.gate
    assert rec.el_residual < 1e-10
    assert "pass" in rec.describe()


def test_reconstruction_perturbed_scherk_fails_closedness():
    pert = GridField.from_function(
        SQUARE, (65, 65),
        lambda X, Y: np.log(np.cos(X) / np.cos(Y)) + 0.1 * X * Y)
    rec = reconstruct_and_check(pert)
    assert not rec.passed
    assert rec.stage == "closedness"
    assert "fail at closedness" in rec.describe()


def test_results_and_reports_keep_their_own_state():
    # a history list per result, and reports equal by value to reports alone
    field = GridField(SQUARE, np.zeros((3, 3)))
    a, b = SolveResult(field, False, 0), SolveResult(field, False, 0)
    a.history.append(1.0)
    assert b.history == []
    report = ConservationReport({"f": 0.0}, 0.5, 0.5)
    assert report == ConservationReport({"f": 0.0}, 0.5, 0.5)
    assert report != ConservationReport({"f": 1.0}, 0.5, 0.5)
    assert report != ({"f": 0.0}, 0.5, 0.5)


@pytest.mark.parametrize("name, shape", [("scherk", (33, 33)),
                                         ("scherk", (65, 33)),
                                         ("paraboloid", (33, 33)),
                                         ("paraboloid", (17, 40))])
def test_reconstruction_carries_the_conservation_report(name, shape):
    # the reconstruction's closedness report, from the currents it
    # integrates, is conservation_residuals' own, on solved and unsolved
    # grids
    bound = GridField.dirichlet(SQUARE, shape, BUILTIN_SURFACES[name])
    for field in (bound, solve_minimal_surface(bound, max_iter=12).field):
        rec, cons = reconstruct_and_check(field), conservation_residuals(field)
        assert rec.conservation == cons
        assert list(rec.conservation.circulations) == list(cons.circulations)
        assert all(same_float(rec.conservation.circulations[k], c)
                   for k, c in cons.circulations.items())
        assert same_float(rec.max_circulation, cons.max_circulation)


def whole_grid_figures(u):
    # Reference: the checks as they read the whole grid at once, each
    # current's largest |circulation|, the largest potential-system defect
    # and the largest graph equation residual
    m, hx, hy = lepage.minimal, u.hx, u.hy
    ux, uy = _kernels.interior_gradient(u.values, hx, hy)
    circs, defects = {}, [None, None]
    for name, (P, Q) in m._current_components(ux, uy):
        circs[name] = np.max(np.abs(_kernels.cell_circulation(P, Q, hx, hy)))
        pot = m._potential(P, Q, hx, hy)
        for axis, h in ((0, hx), (1, hy)):
            d = np.gradient(pot, h, axis=axis, edge_order=2)
            if name == "f":
                defects[axis] = d * ux
            elif name == "g":
                defects[axis] += d * uy
            else:
                defects[axis] -= d
    rovnice = np.max([np.max(np.abs(d)) for d in defects])
    el = np.max(np.abs(_kernels.interior_residual(u.values, hx, hy)))
    return circs, rovnice, el


@pytest.mark.parametrize("band", [1, 40, 300, _kernels._BAND_NODES])
@pytest.mark.parametrize("shape", [(5, 5), (33, 33), (34, 34), (129, 33)])
def test_banded_checks_are_the_whole_grid_checks_bit_for_bit(monkeypatch,
                                                             band, shape):
    # bands of about `band` nodes put their seams inside these grids, the
    # last down to two rows; every figure is the whole grid's, bit for bit
    monkeypatch.setattr(_kernels, "_BAND_NODES", band)
    n, width = shape[0] - 2, shape[1] - 2
    bands = list(lepage.minimal._row_bands(n, width))
    assert [(i0, i1) for _, i0, i1, _ in bands] == list(zip(
        [i0 for _, i0, _, _ in bands], [i0 for _, i0, _, _ in bands[1:]] + [n]))
    assert bands[-1][2] - bands[-1][1] >= min(2, n)
    if band < _kernels._BAND_NODES and n > 3:
        assert len(bands) > 1
    for name in ("scherk", "paraboloid"):
        bound = GridField.dirichlet(SQUARE, shape, BUILTIN_SURFACES[name])
        solved = solve_minimal_surface(bound, max_iter=12).field
        for field in (bound, solved):
            circs, rovnice, el = whole_grid_figures(field)
            cons = conservation_residuals(field)
            rec = reconstruct_and_check(field)
            for got in (cons.circulations, rec.conservation.circulations):
                assert list(got) == list(circs)
                assert all(same_float(got[k], c) for k, c in circs.items())
            assert same_float(rec.rovnice_residual, rovnice)
            assert same_float(rec.el_residual, el)


def test_nan_figures_fail_the_conservation_gates():
    # finite data whose slopes square to inf: a current is nan and so are
    # the figures taken from it, and a nan figure is within no gate
    values = np.repeat(np.arange(1.0, 8.0)[:, None] * 1e200, 7, axis=1)
    field = GridField(SQUARE, values)
    with np.errstate(over="ignore", invalid="ignore"):
        cons = conservation_residuals(field)
        rec = reconstruct_and_check(field)
    assert np.isnan(cons.circulations["g"])
    assert np.isnan(cons.max_circulation) and not cons.passed()
    assert np.isnan(rec.max_circulation) and np.isnan(rec.el_residual)
    assert rec.stage == "closedness" and not rec.passed
