"""Vectorized numpy stencil kernels for the graph equation on uniform grids.

``interior_residual`` evaluates the central-difference graph equation at the
interior nodes, ``interior_jacobian_csr`` writes its Jacobian with respect to
the interior values as canonical CSR arrays, and ``cell_circulation`` takes
trapezoid-rule loop integrals around the grid cells.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "interior_residual", "interior_jacobian_csr",
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


def _in_range(n, steps):
    # [k, a]: index k + steps[a] lies in 0 .. n-1
    shifted = np.arange(n)[:, None] + steps
    return (shifted >= 0) & (shifted < n)


def interior_jacobian_csr(u, hx, hy):
    """(data, indices, indptr) of the interior-to-interior residual Jacobian.

    Interior node (i, j) is row and column i*my + j.  Each row holds its
    in-grid stencil columns in ascending order, exact zeros included, so the
    arrays are scipy's canonical CSR form with int32 indices.  Boundary nodes
    are Dirichlet data and contribute no columns.
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
    # stencil offsets (di, dj) in row-major order, i.e. ascending columns
    coeffs = np.stack([cxy, ax - dx, -cxy, by - ey, centre, by + ey,
                       -cxy, ax + dx, cxy], axis=-1)
    steps = np.array([-1, 0, 1])
    in_i, in_j = _in_range(mx, steps), _in_range(my, steps)
    keep = (in_i[:, None, :, None] & in_j[None, :, None, :]).reshape(mx, my, 9)
    offsets = (steps[:, None] * my + steps[None, :]).ravel().astype(np.int32)
    cols = np.arange(mx * my, dtype=np.int32).reshape(mx, my, 1) + offsets
    indptr = np.zeros(mx * my + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2, dtype=np.int32).ravel(), out=indptr[1:])
    return coeffs[keep], cols[keep], indptr


def cell_circulation(P, Q, hx, hy):
    """Trapezoid-rule loop integral around each grid cell over the cell area,
    so closed smooth currents give O(h^2)."""
    bottom = 0.5 * (P[:-1, :-1] + P[1:, :-1]) * hx
    right = 0.5 * (Q[1:, :-1] + Q[1:, 1:]) * hy
    top = 0.5 * (P[1:, 1:] + P[:-1, 1:]) * hx
    left = 0.5 * (Q[:-1, 1:] + Q[:-1, :-1]) * hy
    return (bottom + right - top - left) / (hx * hy)
