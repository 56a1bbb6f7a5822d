"""Vectorized numpy stencil kernels for the graph equation on uniform grids.

``interior_residual`` evaluates the central-difference graph equation at the
interior nodes, ``interior_jacobian_stencil`` writes its Jacobian with
respect to the interior values as a 9-point operator, and
``cell_circulation`` takes trapezoid-rule loop integrals around the grid
cells.  The rest are the Newton solver's grid operations on 9-point
operators: probing a stencil, applying it, a colour Gauss-Seidel sweep,
bilinear prolongation and its transpose, and the operator's sparse
triplets.
"""

from __future__ import annotations

from ._numpy import np

__all__ = ["BACKEND", "interior_residual", "interior_jacobian_stencil",
           "cell_circulation"]

BACKEND = "numpy"


def _stencil_derivatives(u, hx, hy):
    c = u[1:-1, 1:-1]
    ux = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * hx)
    uy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * hy)
    uxx = (u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1]) / (hx * hx)
    uyy = (u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2]) / (hy * hy)
    uxy = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4.0 * hx * hy)
    return ux, uy, uxx, uyy, uxy


def interior_residual(u, hx, hy):
    ux, uy, uxx, uyy, uxy = _stencil_derivatives(u, hx, hy)
    return (1.0 + uy * uy) * uxx - 2.0 * ux * uy * uxy + (1.0 + ux * ux) * uyy


def interior_jacobian_stencil(u, hx, hy):
    """Colour blocks of the interior-to-interior residual Jacobian.

    The layout is that of the 9-point operators below: S[di + 1, dj + 1,
    i, j] is the derivative of the residual at interior node (i, j) with
    respect to u at (i + di, j + dj).  Boundary nodes are Dirichlet data,
    so couplings that reach them are 0.
    """
    mx, my = u.shape[0] - 2, u.shape[1] - 2
    ux, uy, uxx, uyy, uxy = _stencil_derivatives(u, hx, hy)
    A = 1.0 + uy * uy
    B = 1.0 + ux * ux
    C = -2.0 * ux * uy
    D = 2.0 * ux * uyy - 2.0 * uy * uxy
    E = 2.0 * uy * uxx - 2.0 * ux * uxy
    ax, dx = A / (hx * hx), D / (2.0 * hx)
    by, ey = B / (hy * hy), E / (2.0 * hy)
    cxy = C / (4.0 * hx * hy)
    centre = -2.0 * A / (hx * hx) - 2.0 * B / (hy * hy)
    del ux, uy, uxx, uyy, uxy, A, B, C, D, E

    def coefficient(di, dj):  # one mx x my array at a time
        if di and dj:
            return (di * dj) * cxy
        if di:
            return ax + di * dx
        return by + dj * ey if dj else centre

    blocks = [np.empty((3, 3, len(range(p, mx, 2)), len(range(q, my, 2))))
              for p, q in COLOURS]
    # row (column) edge[a] couples at offset a - 1 to a boundary node
    edge = (0, None, -1)
    for a in range(3):
        for b in range(3):
            S = coefficient(a - 1, b - 1)  # a fresh array unless a == b == 1
            if a != 1:
                S[edge[a]] = 0.0
            if b != 1:
                S[:, edge[b]] = 0.0
            for (p, q), Sc in zip(COLOURS, blocks):
                Sc[a, b] = S[p::2, q::2]
    return blocks


def cell_circulation(P, Q, hx, hy):
    """Trapezoid-rule loop integral around each grid cell over the cell area,
    so closed smooth currents give O(h^2)."""
    bottom = 0.5 * (P[:-1, :-1] + P[1:, :-1]) * hx
    right = 0.5 * (Q[1:, :-1] + Q[1:, 1:]) * hy
    top = 0.5 * (P[1:, 1:] + P[:-1, 1:]) * hx
    left = 0.5 * (Q[:-1, 1:] + Q[:-1, :-1]) * hy
    return (bottom + right - top - left) / (hx * hy)


# ---------------------------------------------------------------------------
# 9-point operators on interior grids
# ---------------------------------------------------------------------------
#
# An operator couples interior node (i, j) to (i + di, j + dj) with
# coefficient S[di + 1, dj + 1, i, j]; entries that reach outside the grid
# are zero.  It is stored as four colour blocks, blocks[c] = S[:, :, p::2,
# q::2] for (p, q) = COLOURS[c], each contiguous, so that a Gauss-Seidel
# colour reads its coefficients without strides.  No two nodes of one
# colour share a 9-point stencil.  Coarse node (I, J) sits on fine node
# (2I + 1, 2J + 1), so a fine side of 2m + 1 nodes coarsens to m.

COLOURS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _colour_apply(Sc, xp, p, q):
    # (S x) at the nodes of colour (p, q), x given with a zero border
    mx, my = xp.shape[0] - 2, xp.shape[1] - 2
    y = Sc[0, 0] * xp[p:mx:2, q:my:2]
    for a in range(3):
        for b in range(3):
            if a or b:
                y += Sc[a, b] * xp[a + p:a + mx:2, b + q:b + my:2]
    return y


def stencil_apply(blocks, x):
    """S x on an (mx, my) grid."""
    xp, y = np.zeros((x.shape[0] + 2, x.shape[1] + 2)), np.empty(x.shape)
    xp[1:-1, 1:-1] = x
    for (p, q), Sc in zip(COLOURS, blocks):
        y[p::2, q::2] = _colour_apply(Sc, xp, p, q)
    return y


def colour_gauss_seidel(blocks, xp, f, order=(0, 1, 2, 3)):
    """One Gauss-Seidel sweep for S x = f, colour by colour, in place.

    xp is x with a zero border; each colour is one vectorized update.
    """
    mx, my = f.shape
    for c in order:
        (p, q), Sc = COLOURS[c], blocks[c]
        xp[1 + p:1 + mx:2, 1 + q:1 + my:2] += (
            (f[p::2, q::2] - _colour_apply(Sc, xp, p, q)) / Sc[1, 1])


def prolong(xc):
    """Bilinear interpolation from an (m, n) grid to (2m + 1, 2n + 1)."""
    for axis in (0, 1):
        v = np.moveaxis(xc, axis, 0)
        out = np.empty((2 * v.shape[0] + 1,) + v.shape[1:])
        out[1::2] = v
        out[2:-1:2] = 0.5 * (v[:-1] + v[1:])
        out[0], out[-1] = 0.5 * v[0], 0.5 * v[-1]
        xc = np.moveaxis(out, 0, axis)
    return xc


def restrict(f):
    """The transpose of ``prolong``, from (2m + 1, 2n + 1) to (m, n)."""
    for axis in (0, 1):
        v = np.moveaxis(f, axis, 0)
        f = np.moveaxis(v[1::2] + 0.5 * (v[:-1:2] + v[2::2]), 0, axis)
    return f


def probe_stencil(apply, mx, my):
    """Colour blocks of the 9-point stencil of the linear map ``apply``.

    Nine probes, each the indicator of the nodes with (i mod 3, j mod 3) =
    (s, t): in every 3 x 3 neighbourhood exactly one node is probed, so each
    image entry is one stencil coefficient.  Row i = p + 2k of colour (p, q)
    meets the probed node at offset a - 1 when 2k = s - p - a + 1 (mod 3),
    that is k = 2 (s - p - a + 1) (mod 3).
    """
    blocks = [np.zeros((3, 3, len(range(p, mx, 2)), len(range(q, my, 2))))
              for p, q in COLOURS]
    for s in range(3):
        for t in range(3):
            e = np.zeros((mx, my))
            e[s::3, t::3] = 1.0
            y = apply(e)
            for (p, q), Sc in zip(COLOURS, blocks):
                yc = y[p::2, q::2]
                for a in range(3):
                    for b in range(3):
                        k0 = 2 * (s - p - a + 1) % 3
                        l0 = 2 * (t - q - b + 1) % 3
                        Sc[a, b, k0::3, l0::3] = yc[k0::3, l0::3]
    return blocks


def stencil_coo(blocks, mx, my):
    """(data, (rows, cols)) triplets of the in-grid entries of the stencil."""
    S = np.zeros((3, 3, mx, my))
    for (p, q), Sc in zip(COLOURS, blocks):
        S[:, :, p::2, q::2] = Sc
    node = np.arange(mx * my).reshape(mx, my)
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            i0, i1 = max(0, 1 - a), min(mx, mx + 1 - a)
            j0, j1 = max(0, 1 - b), min(my, my + 1 - b)
            rows.append(node[i0:i1, j0:j1].ravel())
            cols.append(node[i0 + a - 1:i1 + a - 1, j0 + b - 1:j1 + b - 1].ravel())
            vals.append(S[a, b, i0:i1, j0:j1].ravel())
    return np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))
