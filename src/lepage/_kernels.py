"""Vectorized numpy stencil kernels for the graph equation on uniform grids.

``interior_residual`` evaluates the central-difference graph equation at the
interior nodes, ``interior_gradient`` gives its first differences alone,
``interior_jacobian_stencil`` gives its Jacobian with respect to the
interior values as a 9-point operator whose colour blocks hold its six
distinct couplings per node, each block formed from u when a kernel reads
it (``GraphJacobian``), ``GraphRHS`` is the Newton right-hand side -F(u),
formed from u anew each time it is copied, and ``cell_circulation`` takes
trapezoid-rule loop integrals around the grid cells.  The rest are the
Newton solver's grid operations on 9-point operators, in the dtype of their
operands: applying one, its residual, a colour Gauss-Seidel sweep, a copy in
a given dtype and a test that the couplings they read are finite, the max
norm, bilinear prolongation added in place and its transpose, the Galerkin
coarse operator composed from the fine stencil, and the operator's sparse
triplets.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from ._numpy import np

__all__ = ["BACKEND", "interior_residual", "interior_jacobian_stencil",
           "cell_circulation"]

BACKEND = "numpy"


def interior_gradient(u, hx, hy):
    """(u_x, u_y) by central differences at the interior nodes."""
    ux = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * hx)
    uy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * hy)
    return ux, uy


def _stencil_derivatives(u, hx, hy):
    c = u[1:-1, 1:-1]
    ux, uy = interior_gradient(u, hx, hy)
    uxx = (u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1]) / (hx * hx)
    uyy = (u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2]) / (hy * hy)
    uxy = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4.0 * hx * hy)
    return ux, uy, uxx, uyy, uxy


def interior_residual(u, hx, hy):
    """The graph equation at the interior nodes, made in bands of
    ``band_rows`` rows, each from the derivatives of its rows alone."""
    out = np.empty((u.shape[0] - 2, u.shape[1] - 2), np.result_type(u, 1.0))
    rows = band_rows(out.shape[1], out.shape[0])
    for i in range(0, out.shape[0], rows):
        ux, uy, uxx, uyy, uxy = _stencil_derivatives(u[i:i + rows + 2], hx, hy)
        # (1 + uy uy) uxx - 2 ux uy uxy + (1 + ux ux) uyy, operation by
        # operation in that order, in place in uxx and one scratch array
        t = np.multiply(uy, uy)
        t += 1.0
        uxx *= t
        np.multiply(ux, 2.0, out=t)
        t *= uy
        t *= uxy
        uxx -= t
        np.multiply(ux, ux, out=t)
        t += 1.0
        t *= uyy
        np.add(uxx, t, out=out[i:i + rows])
        del ux, uy, uxx, uyy, uxy, t  # not held while the next band's are made
    return out


def interior_jacobian_stencil(u, hx, hy):
    """Colour blocks of the interior-to-interior residual Jacobian at u.

    The layout is that of the 9-point operators below: Sc[a, b] holds, at
    the nodes (i, j) of its colour, the derivative of the residual at (i, j)
    with respect to u at (i + a - 1, j + b - 1).  Each block is a ``Block``
    of layout ``SIX``, 6 values per node instead of 9.  Boundary nodes are
    Dirichlet data, so the couplings that reach them are not part of the
    operator; the block holds the formula's value there, which no kernel
    reads.  The result is a read-only sequence of the four blocks that
    forms a block from u each time it is read and keeps none, so a kernel
    that reads one colour at a time holds one colour's fields; ``list()``
    of it forms all four.  u must not change while the sequence is in use.
    """
    return GraphJacobian(u, hx, hy)


def cell_circulation(P, Q, hx, hy):
    """Trapezoid-rule loop integral around each grid cell over the cell area,
    so closed smooth currents give O(h^2)."""
    # bottom + right - top - left, summed in place in that order
    circ = 0.5 * (P[:-1, :-1] + P[1:, :-1]) * hx
    circ += 0.5 * (Q[1:, :-1] + Q[1:, 1:]) * hy
    circ -= 0.5 * (P[1:, 1:] + P[:-1, 1:]) * hx
    circ -= 0.5 * (Q[:-1, 1:] + Q[:-1, :-1]) * hy
    circ /= hx * hy
    return circ


# ---------------------------------------------------------------------------
# 9-point operators on interior grids
# ---------------------------------------------------------------------------
#
# An operator couples interior node (i, j) to (i + di, j + dj) with
# coefficient S[di + 1, dj + 1, i, j]; entries that reach outside the grid
# are zero.  It is stored as four colour blocks, one per (p, q) in COLOURS,
# for the nodes (p::2, q::2), so that a Gauss-Seidel colour reads its
# coefficients without strides.  Each is a Block: its distinct couplings at
# the block's nodes, and the layout that gives each (a, b) its field and
# sign.  The kernels skip the couplings that leave the grid rather than pad
# the grid, so a block may hold any value there.  No two nodes of one
# colour share a 9-point stencil.
# Coarse node I of a side that coarsens sits on fine node 2I + 1, so a fine
# side of 2m + 1 or 2m nodes coarsens to m.

COLOURS = ((0, 0), (0, 1), (1, 0), (1, 1))


class Block:
    """A colour block of a 9-point operator.

    ``fields`` is a contiguous (k, ...) array, of any float dtype, of the
    block's distinct couplings at its nodes, and ``layout`` maps each (a, b)
    to (terms, negated): Sc[a, b] is the field of index terms[0], a view,
    or the sum of the fields it names, in order, formed in their dtype when
    read, and negated, also when read, if ``negated``.  The kernels subtract
    a negated coupling's products instead of forming it, which is exact, so
    they give the bits of the block whose fields hold each coupling as it is.
    """

    __slots__ = ("fields", "layout")

    def __init__(self, fields, layout):
        self.fields, self.layout = fields, layout

    def signed(self, ab):
        """(S, negated) with Sc[a, b] == -S if negated else S, so that a
        kernel reads a negated coupling without forming it: y - S * x
        equals y + (-S) * x bit for bit."""
        terms, negated = self.layout[ab]
        if len(terms) == 1:
            return self.fields[terms[0]], negated
        S = np.add(self.fields[terms[0]], self.fields[terms[1]])
        for t in terms[2:]:
            S += self.fields[t]
        return S, negated

    def __getitem__(self, ab):
        S, negated = self.signed(ab)
        return -S if negated else S


# any operator, one field per coupling in (a, b) order
NINE = {(a, b): ((3 * a + b,), False) for a in range(3) for b in range(3)}
# the graph equation's Jacobian: ax - dx, ax + dx, by - ey, by + ey, cxy
# and the centre -2 ax - 2 by, for ax = A/hx^2, dx = D/2hx, by = B/hy^2,
# ey = E/2hy and cxy = C/4hxhy, with -cxy at (0, 2) and (2, 0)
SIX = {(0, 1): ((0,), False), (2, 1): ((1,), False), (1, 0): ((2,), False),
       (1, 2): ((3,), False), (0, 0): ((4,), False), (2, 2): ((4,), False),
       (0, 2): ((4,), True), (2, 0): ((4,), True), (1, 1): ((5,), False)}
# the solve's copy of a SIX block: its first five fields, and the centre
# -((ax - dx) + (ax + dx) + (by - ey) + (by + ey)), the sum of the four
# arms, negated, formed when read
FIVE = {**SIX, (1, 1): ((0, 1, 2, 3), True)}


# the fields are made in bands of about this many nodes, whose derivatives
# stay in cache while each field is made from them
_BAND_NODES = 16384


def band_rows(width, rows):
    """The rows in one band of ``rows`` rows of ``width`` nodes: about
    _BAND_NODES nodes, at most a quarter of the rows, rounded up, so that
    no band is the whole, and at least one row."""
    return max(1, min(_BAND_NODES // max(1, width), -(-rows // 4)))


def _band_fields(u, hx, hy, i, q, F):
    # the SIX fields F at the nodes i, i + 2, ... of rows and q, q + 2, ...
    # of columns, from the derivatives of interior_residual taken on
    # strided views of u.  dx, ax, ey and by are written in place into the
    # slots of ax -+ dx and by -+ ey, operation by operation in the order of
    # their formulas (A/hx^2 is (1 + uy uy) / (hx hx), D/2hx is
    # (2 ux uyy - 2 uy uxy) / (2 hx), and so on), and doubling is exact, so
    # every coupling is bit for bit the one written out node by node from
    # full-grid derivatives: A/hx^2 +- D/2hx and so on, and
    # -2A/hx^2 - 2B/hy^2 at the centre
    n, my = F.shape[1], u.shape[1] - 2

    def at(d, e):  # u at the neighbours (d - 1, e - 1) of the nodes
        return u[i + d:i + d + 2 * n - 1:2, q + e:my + e:2]

    ux = at(2, 1) - at(0, 1)
    ux /= 2.0 * hx
    uy = at(1, 2) - at(1, 0)
    uy /= 2.0 * hy
    dx, ax, ey, by, cxy, centre = F
    np.multiply(uy, uy, out=ax)
    ax += 1.0
    ax /= hx * hx
    np.multiply(ux, ux, out=by)
    by += 1.0
    by /= hy * hy
    np.multiply(ux, -2.0, out=cxy)
    cxy *= uy
    cxy /= 4.0 * hx * hy
    ux *= 2.0  # from here on 2 ux and 2 uy, as D and E take them
    uy *= 2.0
    uxy = at(2, 2) - at(2, 0)
    uxy -= at(0, 2)
    uxy += at(0, 0)
    uxy /= 4.0 * hx * hy
    c2 = 2.0 * at(1, 1)
    second = at(1, 2) - c2  # uyy, then uxx
    second += at(1, 0)
    second /= hy * hy
    np.multiply(ux, second, out=dx)
    np.subtract(at(2, 1), c2, out=second)
    second += at(0, 1)
    second /= hx * hx
    np.multiply(uy, second, out=ey)
    np.multiply(uy, uxy, out=second)
    dx -= second
    dx /= 2.0 * hx
    np.multiply(ux, uxy, out=second)
    ey -= second
    ey /= 2.0 * hy
    np.multiply(ax, -2.0, out=centre)
    np.multiply(by, 2.0, out=second)
    centre -= second
    for lo, hi in ((dx, ax), (ey, by)):
        np.subtract(hi, lo, out=second)
        hi += lo
        lo[...] = second


class GraphJacobian(Sequence):
    """The graph equation's Jacobian at u as ``interior_jacobian_stencil``
    gives it: a sequence of the four colour blocks in which block c is a
    ``SIX`` ``Block`` formed from u when it is read."""

    __slots__ = ("u", "hx", "hy")

    def __init__(self, u, hx, hy):
        self.u, self.hx, self.hy = u, hx, hy

    def __len__(self):
        return len(COLOURS)

    def __getitem__(self, c):
        (p, q), u = COLOURS[c], self.u
        mx, my = u.shape[0] - 2, u.shape[1] - 2
        F = np.empty((6, len(range(p, mx, 2)), len(range(q, my, 2))))
        rows = band_rows(F.shape[2], F.shape[1])
        for k in range(0, F.shape[1], rows):
            _band_fields(u, self.hx, self.hy, p + 2 * k, q, F[:, k:k + rows])
        return Block(F, SIX)


class GraphRHS:
    """-F(u), the graph equation's residual at u negated: the right-hand
    side of a Newton step at the interior nodes, formed from u anew by each
    ``copy()``, so that it is held only while it is read.  u must not
    change while it is in use."""

    __slots__ = ("u", "hx", "hy", "shape", "size")

    def __init__(self, u, hx, hy):
        self.u, self.hx, self.hy = u, hx, hy
        self.shape = (u.shape[0] - 2, u.shape[1] - 2)
        self.size = self.shape[0] * self.shape[1]

    def copy(self):
        r = interior_residual(self.u, self.hx, self.hy)
        return np.negative(r, out=r)


@lru_cache(maxsize=None)
def _reach(p, n):
    # by offset a, (nodes, neighbours): the nodes p, p + 2, ... of a side of
    # n nodes whose neighbour at offset a - 1 lies on the side, as a slice
    # of the colour, and those neighbours, as a slice of the side
    out = []
    for s in range(p - 1, p + 2):  # the neighbour of node p
        lo = 1 if s < 0 else 0
        hi = max(lo, min(len(range(p, n, 2)), (n - 1 - s) // 2 + 1))
        out.append((slice(lo, hi), slice(s + 2 * lo, s + 2 * hi, 2)))
    return tuple(out)


def _colour_apply(Sc, x, p, q, centre=None):
    # (S x) at the nodes of colour (p, q), from the couplings that stay in
    # the grid, summed in (a, b) order as a CSR row sums its entries;
    # centre, if given, is Sc.signed((1, 1)), formed by the caller
    rows, cols = _reach(p, x.shape[0]), _reach(q, x.shape[1])
    (k, i), (l, j) = rows[0], cols[0]
    S = Sc[0, 0]
    y = np.empty(S.shape, np.result_type(S, x))
    # nodes whose (0, 0) neighbour is off the grid start from 0
    y[:k.start] = 0.0
    y[:, :l.start] = 0.0
    np.multiply(S[k, l], x[i, j], out=y[k, l])
    for a in range(3):
        for b in range(3):
            if a or b:
                (k, i), (l, j) = rows[a], cols[b]
                S, negated = (centre if (a, b) == (1, 1) and centre is not None
                              else Sc.signed((a, b)))
                yc = y[k, l]
                if negated:
                    yc -= S[k, l] * x[i, j]
                else:
                    yc += S[k, l] * x[i, j]
    return y


# stencil_apply and stencil_residual read each block once, by index, and
# take the result's dtype from the first colour's product, so a sequence
# that forms its blocks when read forms one at a time, and each once

def stencil_apply(blocks, x):
    """S x on an (mx, my) grid."""
    for c, (p, q) in enumerate(COLOURS):
        yc = _colour_apply(blocks[c], x, p, q)
        if not c:
            y = np.empty(x.shape, yc.dtype)
        y[p::2, q::2] = yc
    return y


def stencil_residual(blocks, x, f, out=None):
    """f - S x on an (mx, my) grid, into ``out`` if given, which may be f."""
    for c, (p, q) in enumerate(COLOURS):
        yc = _colour_apply(blocks[c], x, p, q)
        if out is None:
            out = np.empty(f.shape, np.result_type(yc, f))
        np.subtract(f[p::2, q::2], yc, out=out[p::2, q::2])
    return out


def colour_gauss_seidel(blocks, x, f, order=(0, 1, 2, 3), zero=False):
    """One Gauss-Seidel sweep for S x = f, colour by colour, in place.

    Each colour is one vectorized update, which forms the colour's centre
    coupling once, for its product and its division; dividing by -S and
    adding is subtracting the quotient by S, bit for bit.  ``zero`` says
    that x is +0.0 on entry and every coupling in the grid finite, so that
    the first colour's S x is a zero, whose sign f - S x can take only
    where f is a zero, and adding the step to +0.0 drops it: that product
    is not made, and the sweep gives the bits of the full one.
    """
    for n, c in enumerate(order):
        (p, q), Sc = COLOURS[c], blocks[c]
        centre = Sc.signed((1, 1))
        if zero and not n:
            step = np.divide(f[p::2, q::2], centre[0])
        else:
            step = _colour_apply(Sc, x, p, q, centre)
            np.subtract(f[p::2, q::2], step, out=step)
            step /= centre[0]
        xc = x[p::2, q::2]
        if centre[1]:
            xc -= step
        else:
            xc += step


def block_copy(Sc, dtype):
    """The copy of block Sc in ``dtype``: of a ``SIX`` block its first five
    fields, in the ``FIVE`` layout, whose centre is formed from the copied
    arms when read, and of any other block all its fields, in its layout.
    Entries beyond the range of ``dtype`` become infinite."""
    fields, layout = ((Sc.fields[:5], FIVE) if Sc.layout is SIX
                      else (Sc.fields, Sc.layout))
    with np.errstate(over="ignore"):
        return Block(fields.astype(dtype), layout)


def stencil_copy(blocks, dtype):
    """Replace the blocks of the list ``blocks`` by their ``block_copy``s
    in ``dtype``, one colour at a time, so that the list holds no more than
    one colour's block twice."""
    for c, Sc in enumerate(blocks):
        blocks[c] = block_copy(Sc, dtype)


def _in_grid(Sc, p, q, shape):
    # (nodes, S) by (a, b) in order: the nodes of colour (p, q), as slices
    # of the block, whose (a, b) coupling stays in an interior grid of
    # ``shape``, and the field that holds that coupling up to its sign
    rows, cols = _reach(p, shape[0]), _reach(q, shape[1])
    for a in range(3):
        for b in range(3):
            yield (rows[a][0], cols[b][0]), Sc.signed((a, b))[0]


def stencil_finite(blocks, shape):
    """Whether every coupling of the operator on an interior grid of
    ``shape`` that stays in the grid, and so every one the kernels read,
    is finite."""
    return all(np.isfinite(S[nodes]).all()
               for (p, q), Sc in zip(COLOURS, blocks)
               for nodes, S in _in_grid(Sc, p, q, shape))


def colour_norm(Sc, p, q, shape):
    """The largest row sum of |S[a, b]| over the couplings that stay in an
    interior grid of ``shape``, at the nodes of colour (p, q), whose block
    is Sc, each row summed in (a, b) order as a CSR row sums its entries."""
    total = np.zeros(Sc.fields.shape[1:], Sc.fields.dtype)
    for nodes, S in _in_grid(Sc, p, q, shape):
        total[nodes] += np.abs(S[nodes])
    return float(total.max(initial=0.0))


def _interpolated(v, n):
    # bilinear interpolation along axis 0 from v's side to n nodes, as
    # (fine nodes, values) pairs: v at the odd nodes, the mean of the two
    # neighbours at the even ones and half the one at an end; or v itself
    m = v.shape[0]
    if n == m:
        return ((slice(None), v),)
    even = np.empty((len(range(0, n, 2)),) + v.shape[1:], v.dtype)
    even[0] = 0.5 * v[0]
    np.add(v[:-1], v[1:], out=even[1:m])
    even[1:m] *= 0.5
    if n % 2:  # node 2m
        even[m] = 0.5 * v[-1]
    return ((slice(1, 2 * m, 2), v), (slice(0, n, 2), even))


def prolong_add(x, xc):
    """x += P xc in place, rows first, P bilinear interpolation from xc's
    grid to x's: a side of m nodes goes to 2m + 1, or to 2m as if to 2m + 1
    with the last fine node dropped, or stays as it is."""
    for rows, v in _interpolated(xc, x.shape[0]):
        for cols, w in _interpolated(v.T, x.shape[1]):
            x[rows, cols] += w.T
    return x


def restrict(f, shape):
    """The transpose of ``prolong_add``, from a fine grid to ``shape``."""
    for axis, m in enumerate(shape):
        v = np.moveaxis(f, axis, 0)
        if m == v.shape[0]:
            continue
        # v[1::2] + 0.5 (v[:-1:2] + v[2::2]) in f's memory order, where a
        # side of 2m has no node 2m to add
        left, right = v[:-1:2], v[2::2]
        out = np.empty_like(left)
        k = len(right)
        np.add(left[:k], right, out=out[:k])
        out[k:] = left[k:]
        out *= 0.5
        out += v[1::2]
        f = np.moveaxis(out, 0, axis)
    return f


@lru_cache(maxsize=None)
def _windows(P, n, m):
    # The restriction window of coarse nodes I = P, P + 2, ... on a side of
    # n fine nodes coarsened to m, in restrict's order (2I, 2I + 2, 2I + 1,
    # or I on a kept side).  By window node: its fine colour, its slice of
    # it, and by offset a the targets I + A - 1 of weight w != 0 at the
    # neighbour, (A, w, ks), ks the coarse nodes whose window node and
    # neighbour lie on the side.
    K = len(range(P, m, 2))
    if n == m:
        return (P, slice(0, K), tuple((slice(a, a + 1), 1.0, ks) for a, (ks, _)
                                      in enumerate(_reach(P, n)))),

    def span(ok):  # the coarse nodes where ok(2I), as a slice of the colour
        ks = [k for k in range(K) if ok(2 * P + 4 * k)]
        return slice(ks[0], ks[-1] + 1) if ks else slice(0, 0)

    windows = []
    for d in (0, 2, 1):
        # the neighbour 2I + d + a - 1 is 2J + 1 where d + a = 2A
        terms = tuple((slice(s // 2, s // 2 + 1 + s % 2), 1.0 - 0.5 * (s % 2),
                       span(lambda i: 0 <= i + s - 1 < n and i + d < n))
                      for s in range(d, d + 3))
        f, kw = P + d // 2, span(lambda i: i + d < n).stop
        windows.append((d % 2, slice(f, f + 2 * kw, 2), terms))
    return tuple(windows)


def _fold(part, windows):
    # restrict's sum over one side's window, (l + r) / 2 + m, of the shares
    # part(window) made as they are needed.  A share starts from +0.0, so
    # it is never -0.0, and where node 2I + 2 is off the side r is +0.0
    # and l + r is l, as restrict takes it
    t = part(windows[0])
    if len(windows) > 1:
        t += part(windows[1])
        t *= 0.5
        t += part(windows[2])
    return t


def galerkin_product(blocks, fine, coarse):
    """``NINE`` colour blocks, float64, of P^T S P on the interior grid
    ``coarse``: S the colour blocks ``blocks`` on ``fine``, in any float
    dtype, P bilinear interpolation.

    Composed from the fine stencil (Trottenberg, Oosterlee & Schueller,
    *Multigrid*, 2001): at each node of coarse node I's restriction window,
    the sum over (a, b), in the kernels' order, of S[a, b] times the
    bilinear weight (1, 1/2 or 1/4) of the target I + (A - 1, B - 1) at the
    neighbour, the window then combined as ``restrict`` combines it.  Terms
    of weight 0 or off the grid are left out, targets off the grid get 0,
    and every product and sum is taken in float64, so each entry is bit for
    bit the image of the probe that is 1 at the target.
    """
    out = []
    for P, Q in COLOURS:
        rows = _windows(P, fine[0], coarse[0])
        cols = _windows(Q, fine[1], coarse[1])
        shape = (3, 3) + tuple(len(range(p, n, 2))
                               for p, n in zip((P, Q), coarse))

        def part(r, c):
            (f, fr, rterms), (g, fc, cterms) = r, c
            Sc = blocks[COLOURS.index((f, g))]
            Sc = Block(Sc.fields[:, fr, fc], Sc.layout)
            y = np.zeros(shape)
            for a, (A, wa, ks) in enumerate(rterms):
                for b, (B, wb, ls) in enumerate(cterms):
                    S = Sc[a, b][ks, ls]
                    if wa * wb != 1.0:
                        S = np.multiply(S, wa * wb, dtype=np.float64)
                    y[A, B, ks, ls] += S
            return y

        Z = _fold(lambda c: _fold(lambda r: part(r, c), rows), cols)
        for a, ((i, _), (j, _)) in enumerate(zip(_reach(P, coarse[0]),
                                                 _reach(Q, coarse[1]))):
            Z[a, :, :i.start] = Z[a, :, i.stop:] = 0.0
            Z[:, a, :, :j.start] = Z[:, a, :, j.stop:] = 0.0
        out.append(Block(Z.reshape((9,) + shape[2:]), NINE))
    return out


def stencil_coo(blocks, mx, my):
    """(data, (rows, cols)) triplets of the in-grid entries of the stencil."""
    S = np.zeros((3, 3, mx, my))
    for (p, q), Sc in zip(COLOURS, blocks):
        for a in range(3):
            for b in range(3):
                S[a, b, p::2, q::2] = Sc[a, b]
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
