"""Exact scalar expressions over jet-chart coordinates.

Every expression is held in a canonical rational normal form ``num / den``
where ``num`` and ``den`` are polynomials with ``Fraction`` coefficients over
*atoms*.  An atom is a coordinate symbol, the square root of a polynomial
expression, or a function application (opaque symbols with formal partial
derivatives, or one of the built-in analytic functions sin/cos/exp/log/atan).

Two rewrite rules are folded into monomial arithmetic so that normal forms
stay canonical:

* ``sqrt(u)^2 -> u`` (square-root arguments are taken positive on the
  evaluation domain; evaluation rejects points where a radicand is negative),
* ``sin(u)^2 -> 1 - cos(u)^2``.

Because construction always canonicalizes, structural equality of two
results means the computations agree coefficient by coefficient.  ``equal``
settles the remaining cases by seeded random evaluation.

The printable surface syntax is::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' signed-int)?
    atom   := number | ident | 'sqrt(' expr ')' | 'det'N '(' expr-list ')'
            | ident '(' expr-list ')' | '(' expr ')'

with numbers that may be rational literals ``p/q`` and identifiers ``x1``,
``y2``, ``y1_2``, ``y1_12``, ``w3``, ``w3_1``, ``z1_2``, ``a1_2`` (all indices
are single digits).  A name carrying a ``_d`` suffix, e.g. ``g11_d12(...)``,
denotes the formal partial of the opaque function ``g11`` with respect to its
first and second arguments.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Callable, Iterable, Mapping, Sequence

# hashlib.blake2b is this function; importing hashlib would also load
# OpenSSL's libcrypto, about 3 MB per process, for nothing the sampler uses
from _blake2 import blake2b

__all__ = [
    "Sym", "Fun", "Root", "Expr", "PointAssignment", "EqualResult",
    "ExprError", "ParseError", "EvalError", "DomainError",
    "MissingValueError", "ExpressionSizeError",
    "const", "sym_expr", "x", "yy", "yj", "yjk", "ww", "wj", "zz", "aa",
    "sqrt_expr", "opaque", "analytic", "sin_expr", "cos_expr", "exp_expr",
    "log_expr", "atan_expr", "det_expr", "levi_civita",
    "diff", "substitute", "transform_atoms",
    "evaluate", "equal", "parse", "to_dsl", "to_latex", "expr_sum",
    "free_symbols", "opaque_signatures", "sqrt_extract_candidate",
]

NODE_CAP = 500_000  # largest polynomial product, in nodes
GUARD_EPS = 1e-3
DEN_EPS = 1e-9


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    pass


class DomainError(EvalError):
    """Point lies outside the evaluation domain (negative radicand, etc.)."""


class MissingValueError(EvalError):
    pass


class ExpressionSizeError(ExprError):
    pass


# ---------------------------------------------------------------------------
# symbols and atoms
# ---------------------------------------------------------------------------

_KIND_RANK = {"x": 0, "y": 1, "y1": 2, "y2": 3, "w": 4, "w1": 5, "z": 6, "a": 7}


class Sym:
    """A coordinate symbol on a jet or adapted chart.

    kind 'x'  : base coordinate x^a
    kind 'y'  : fiber coordinate y^a
    kind 'y1' : first jet y^a_b
    kind 'y2' : second jet y^a_bc, stored with b <= c
    kind 'w'  : adapted fiber coordinate w^a
    kind 'w1' : adapted jet w^a_b (b is a selected base label)
    kind 'z'  : inverse-minor entry z^a_b
    kind 'a'  : group-element entry a^a_b
    """

    __slots__ = ("kind", "a", "b", "c", "key", "_hash")

    def __init__(self, kind: str, a: int, b: int = 0, c: int = 0):
        if kind not in _KIND_RANK:
            raise ExprError(f"unknown symbol kind {kind!r}")
        if kind == "y2" and b > c:
            b, c = c, b
        self.kind = kind
        self.a = a
        self.b = b
        self.c = c
        self.key = (0, _KIND_RANK[kind], a, b, c)
        self._hash = hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Sym) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return sym_name(self)


def sym_name(s: Sym) -> str:
    if s.kind == "x":
        return f"x{s.a}"
    if s.kind == "y":
        return f"y{s.a}"
    if s.kind == "y1":
        return f"y{s.a}_{s.b}"
    if s.kind == "y2":
        return f"y{s.a}_{s.b}{s.c}"
    if s.kind == "w":
        return f"w{s.a}"
    if s.kind == "w1":
        return f"w{s.a}_{s.b}"
    if s.kind == "z":
        return f"z{s.a}_{s.b}"
    return f"a{s.a}_{s.b}"


ANALYTIC_NAMES = ("sin", "cos", "exp", "log", "atan")


class Fun:
    """A function application atom; opaque unless name is analytic.

    For opaque atoms ``deriv`` is the sorted multi-index of argument slots
    (1-based) with respect to which formal partials were taken.
    """

    __slots__ = ("name", "deriv", "args", "analytic", "key", "_hash")

    def __init__(self, name: str, deriv: tuple[int, ...], args: tuple["Expr", ...],
                 is_analytic: bool):
        self.name = name
        self.deriv = tuple(sorted(deriv))
        self.args = args
        self.analytic = is_analytic
        self.key = (2, name, self.deriv, tuple(a.key for a in args))
        self._hash = hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Fun) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return _atom_str(self)


class Root:
    """sqrt of a polynomial expression (denominator-free by construction)."""

    __slots__ = ("arg", "key", "_hash")

    def __init__(self, arg: "Expr"):
        self.arg = arg
        self.key = (1, arg.key)
        self._hash = hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Root) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return _atom_str(self)


Atom = object  # Sym | Fun | Root
Mono = tuple  # tuple[tuple[Atom, int], ...], sorted by atom key
Poly = dict  # Mono -> Fraction


def _mono_key(mono: Mono):
    return tuple((at.key, e) for at, e in mono)


# ---------------------------------------------------------------------------
# polynomial arithmetic with fold rules
# ---------------------------------------------------------------------------

_EMPTY_MONO: Mono = ()


def _p_const(c: Fraction) -> Poly:
    return {} if c == 0 else {_EMPTY_MONO: c}


def _p_add_into(target: Poly, src: Poly, scale: Fraction = Fraction(1)) -> None:
    for mono, coeff in src.items():
        new = target.get(mono, Fraction(0)) + coeff * scale
        if new == 0:
            target.pop(mono, None)
        else:
            target[mono] = new


def _p_size(p: Poly) -> int:
    return sum(1 + len(m) for m in p)


def _check_size(p: Poly) -> Poly:
    size = _p_size(p)
    if size > NODE_CAP:
        raise ExpressionSizeError(
            f"normal form grew to {size} nodes, above the cap {NODE_CAP}")
    return p


def _fold_square(atom) -> Poly | None:
    """Return the polynomial equal to atom^2 if a fold rule applies."""
    if isinstance(atom, Root):
        return dict(_poly_of(atom.arg.num))
    if isinstance(atom, Fun) and atom.analytic and atom.name == "sin":
        cos_atom = Fun("cos", (), atom.args, True)
        return {_EMPTY_MONO: Fraction(1), ((cos_atom, 2),): Fraction(-1)}
    return None


def _poly_of(terms) -> Poly:
    return dict(terms)


def _mono_mul(m1: Mono, m2: Mono) -> tuple[Mono, Poly | None]:
    """Merge two monomials; return (residual mono, extra poly factor or None)."""
    exps: dict = {}
    for at, e in m1:
        exps[at] = exps.get(at, 0) + e
    for at, e in m2:
        exps[at] = exps.get(at, 0) + e
    extra: Poly | None = None
    residual = []
    for at in exps:
        e = exps[at]
        if e == 0:
            continue
        fold = _fold_square(at) if e >= 2 else None
        if fold is not None:
            q, r = divmod(e, 2)
            fq = _p_pow(fold, q)
            extra = fq if extra is None else _p_mul(extra, fq)
            if r:
                residual.append((at, 1))
        else:
            residual.append((at, e))
    residual.sort(key=lambda pair: pair[0].key)
    return tuple(residual), extra


def _p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono, extra = _mono_mul(m1, m2)
            c = c1 * c2
            if extra is None:
                new = out.get(mono, Fraction(0)) + c
                if new == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = new
            else:
                piece = _p_mul({mono: c}, extra)
                _p_add_into(out, piece)
    return _check_size(out)


def _p_pow(p: Poly, k: int) -> Poly:
    result = _p_const(Fraction(1))
    base = p
    while k > 0:
        if k & 1:
            result = _p_mul(result, base)
        base_needed = k >> 1
        if base_needed:
            base = _p_mul(base, base)
        k = base_needed
    return result


def _atom_content(p: Poly) -> dict:
    """Atoms occurring in every monomial, with their minimal exponents."""
    it = iter(p.items())
    first = next(it, None)
    if first is None:
        return {}
    content = {at: e for at, e in first[0]}
    for mono, _ in it:
        here = dict(mono)
        for at in list(content):
            if at in here:
                content[at] = min(content[at], here[at])
            else:
                del content[at]
        if not content:
            break
    return content


def _p_div_mono(p: Poly, mono_content: dict) -> Poly:
    out: Poly = {}
    for mono, coeff in p.items():
        rebuilt = []
        for at, e in mono:
            e -= mono_content.get(at, 0)
            if e:
                rebuilt.append((at, e))
        out[tuple(rebuilt)] = coeff
    return out


def _p_has_foldable(p: Poly) -> bool:
    for mono in p:
        for at, _ in mono:
            if isinstance(at, Root):
                return True
            if isinstance(at, Fun) and at.analytic and at.name == "sin":
                return True
    return False


def _p_exact_div(num: Poly, den: Poly) -> Poly | None:
    """Exact multivariate division; None when den does not divide num.

    Only attempted when den carries no foldable atoms, so plain polynomial
    division over the occurring atoms is sound.
    """
    if not den:
        return None
    if not num:
        return {}
    if _p_has_foldable(den):
        return None
    atoms = sorted({at for mono in list(num) + list(den) for at, _ in mono},
                   key=lambda a: a.key)
    index = {at: i for i, at in enumerate(atoms)}
    nvars = len(atoms)

    def dense(poly: Poly) -> dict:
        out = {}
        for mono, coeff in poly.items():
            vec = [0] * nvars
            for at, e in mono:
                vec[index[at]] = e
            out[tuple(vec)] = coeff
        return out

    dn = dense(num)
    dd = dense(den)
    lead_d = max(dd)
    lead_dc = dd[lead_d]
    quotient: dict = {}
    guard = 0
    limit = 64 * (len(dn) + 1) * (len(dd) + 1) + 10_000
    while dn:
        guard += 1
        if guard > limit:
            return None
        lead_n = max(dn)
        diff = tuple(a - b for a, b in zip(lead_n, lead_d))
        if any(d < 0 for d in diff):
            return None
        c = dn[lead_n] / lead_dc
        quotient[diff] = quotient.get(diff, Fraction(0)) + c
        for vec, coeff in dd.items():
            tgt = tuple(a + b for a, b in zip(diff, vec))
            new = dn.get(tgt, Fraction(0)) - c * coeff
            if new == 0:
                dn.pop(tgt, None)
            else:
                dn[tgt] = new
    out: Poly = {}
    for vec, coeff in quotient.items():
        mono = tuple((atoms[i], e) for i, e in enumerate(vec) if e)
        mono = tuple(sorted(mono, key=lambda pair: pair[0].key))
        out[mono] = coeff
    return out


# ---------------------------------------------------------------------------
# the Expr wrapper: canonical fractions
# ---------------------------------------------------------------------------

class Expr:
    """Immutable scalar expression in canonical rational normal form."""

    __slots__ = ("num", "den", "key", "_hash", "_syms")

    def __init__(self, num_terms: tuple, den_terms: tuple):
        self.num = num_terms
        self.den = den_terms
        self.key = (
            tuple((_mono_key(m), (c.numerator, c.denominator)) for m, c in num_terms),
            tuple((_mono_key(m), (c.numerator, c.denominator)) for m, c in den_terms),
        )
        self._hash = None
        self._syms = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _freeze(p: Poly) -> tuple:
        return tuple(sorted(p.items(), key=lambda kv: _mono_key(kv[0])))

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        return (self.num == ((_EMPTY_MONO, Fraction(1)),)
                and self.den == ((_EMPTY_MONO, Fraction(1)),))

    def as_fraction(self) -> Fraction | None:
        if self.den != ((_EMPTY_MONO, Fraction(1)),):
            return None
        if not self.num:
            return Fraction(0)
        if len(self.num) == 1 and self.num[0][0] == _EMPTY_MONO:
            return self.num[0][1]
        return None

    # -- hashing / equality -------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key == other.key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key)
        return self._hash

    def __repr__(self):
        return to_dsl(self)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        n1, d1 = _poly_of(self.num), _poly_of(self.den)
        n2, d2 = _poly_of(other.num), _poly_of(other.den)
        if self.den == other.den:
            out = dict(n1)
            _p_add_into(out, n2)
            return _make(out, d1)
        # when one denominator divides the other, keep the larger one
        q = _p_exact_div(d2, d1)
        if q is not None:
            out = _p_mul(n1, q)
            _p_add_into(out, n2)
            return _make(out, d2)
        q = _p_exact_div(d1, d2)
        if q is not None:
            out = _p_mul(n2, q)
            _p_add_into(out, n1)
            return _make(out, d1)
        num = _p_mul(n1, d2)
        _p_add_into(num, _p_mul(n2, d1))
        return _make(num, _p_mul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        return Expr(tuple((m, -c) for m, c in self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        return _make(_p_mul(_poly_of(self.num), _poly_of(other.num)),
                     _p_mul(_poly_of(self.den), _poly_of(other.den)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ExprError("division by the zero expression")
        return _make(_p_mul(_poly_of(self.num), _poly_of(other.den)),
                     _p_mul(_poly_of(self.den), _poly_of(other.num)))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return ONE
        if k < 0:
            if self.is_zero:
                raise ExprError("zero expression to a negative power")
            return _make(_p_pow(_poly_of(self.den), -k),
                         _p_pow(_poly_of(self.num), -k))
        return _make(_p_pow(_poly_of(self.num), k),
                     _p_pow(_poly_of(self.den), k))


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return const(v)
    return NotImplemented


def _make(num: Poly, den: Poly) -> Expr:
    """Canonicalize a raw fraction of polynomials."""
    if not den:
        raise ExprError("division by zero while normalizing")
    if not num:
        return Expr((), ((_EMPTY_MONO, Fraction(1)),))
    # cancel atom content shared by numerator and denominator
    cn = _atom_content(num)
    cd = _atom_content(den)
    shared = {at: min(e, cd[at]) for at, e in cn.items() if at in cd}
    if shared:
        num = _p_div_mono(num, shared)
        den = _p_div_mono(den, shared)
    # clear square roots out of the denominator where they divide every term
    for _ in range(8):
        cd = _atom_content(den)
        root = next((at for at in sorted(cd, key=lambda a: a.key)
                     if isinstance(at, Root)), None)
        if root is None:
            break
        clear = {((root, 1),): Fraction(1)}
        num = _p_mul(num, clear)
        den = _p_mul(den, clear)
    # scale so the denominator's first term has coefficient 1
    den_terms = sorted(den.items(), key=lambda kv: _mono_key(kv[0]))
    lead = den_terms[0][1]
    if lead != 1:
        inv = Fraction(1) / lead
        num = {m: c * inv for m, c in num.items()}
        den = {m: c * inv for m, c in den.items()}
    if den != {_EMPTY_MONO: Fraction(1)}:
        q = _p_exact_div(num, den)
        if q is not None:
            num, den = q, {_EMPTY_MONO: Fraction(1)}
        if not num:
            return Expr((), ((_EMPTY_MONO, Fraction(1)),))
    return Expr(Expr._freeze(num), Expr._freeze(den))


ZERO = Expr((), ((_EMPTY_MONO, Fraction(1)),))
ONE = Expr(((_EMPTY_MONO, Fraction(1)),), ((_EMPTY_MONO, Fraction(1)),))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def const(v) -> Expr:
    c = Fraction(v)
    if c == 0:
        return ZERO
    return Expr(((_EMPTY_MONO, c),), ((_EMPTY_MONO, Fraction(1)),))


def sym_expr(s: Sym) -> Expr:
    return Expr(((((s, 1),), Fraction(1)),), ((_EMPTY_MONO, Fraction(1)),))


def x(i: int) -> Expr:
    return sym_expr(Sym("x", i))


def yy(K: int) -> Expr:
    return sym_expr(Sym("y", K))


def yj(K: int, j: int) -> Expr:
    return sym_expr(Sym("y1", K, j))


def yjk(K: int, j: int, k: int) -> Expr:
    return sym_expr(Sym("y2", K, j, k))


def ww(K: int) -> Expr:
    return sym_expr(Sym("w", K))


def wj(K: int, i: int) -> Expr:
    return sym_expr(Sym("w1", K, i))


def zz(k: int, i: int) -> Expr:
    return sym_expr(Sym("z", k, i))


def aa(i: int, j: int) -> Expr:
    return sym_expr(Sym("a", i, j))


def _int_sqrt_split(n: int) -> tuple[int, int]:
    """n = s^2 * r with r squarefree (trial division; coefficients are small)."""
    s, r, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            r *= d
        d += 1
    return s, r * n


def sqrt_expr(e: Expr) -> Expr:
    """Square root with positive-radicand convention."""
    e = _coerce(e)
    if e.is_zero:
        return ZERO
    num = _poly_of(e.num)
    den = _poly_of(e.den)
    radic = _p_mul(num, den)
    coeffs = list(radic.values())
    g_num = 0
    g_den = 1
    for c in coeffs:
        g_num = math.gcd(g_num, abs(c.numerator))
        g_den = (g_den * c.denominator) // math.gcd(g_den, c.denominator)
    content = Fraction(g_num, g_den) if g_num else Fraction(1)
    sn, rn = _int_sqrt_split(content.numerator)
    sd, rd = _int_sqrt_split(content.denominator)
    scale = Fraction(sn, sd)
    rest = Fraction(rn, rd)
    primitive = {m: c / content for m, c in radic.items()}
    radicand = {m: c * rest.numerator / rest.denominator for m, c in primitive.items()}
    if len(radicand) == 1 and _EMPTY_MONO in radicand and radicand[_EMPTY_MONO] == 1:
        root_part = ONE
    else:
        arg = Expr(Expr._freeze(radicand), ((_EMPTY_MONO, Fraction(1)),))
        root_part = Expr((((((Root(arg)), 1),), Fraction(1)),),
                         ((_EMPTY_MONO, Fraction(1)),))
    return const(scale) * root_part / Expr(e.den, ((_EMPTY_MONO, Fraction(1)),))


def opaque(name: str, *args, deriv: tuple[int, ...] = ()) -> Expr:
    if name in ANALYTIC_NAMES or name == "sqrt":
        raise ExprError(f"{name!r} is reserved for the analytic function")
    exprs = tuple(_coerce(a) for a in args)
    for d in deriv:
        if not 1 <= d <= len(exprs):
            raise ExprError(f"derivative slot {d} out of range for {name!r}")
    atom = Fun(name, tuple(deriv), exprs, False)
    return Expr(((((atom, 1),), Fraction(1)),), ((_EMPTY_MONO, Fraction(1)),))


def analytic(name: str, arg) -> Expr:
    arg = _coerce(arg)
    if name not in ANALYTIC_NAMES:
        raise ExprError(f"unknown analytic function {name!r}")
    f = arg.as_fraction()
    if f is not None:
        if f == 0 and name in ("sin", "atan"):
            return ZERO
        if f == 0 and name == "cos":
            return ONE
        if f == 0 and name == "exp":
            return ONE
        if f == 1 and name == "log":
            return ZERO
    atom = Fun(name, (), (arg,), True)
    return Expr(((((atom, 1),), Fraction(1)),), ((_EMPTY_MONO, Fraction(1)),))


def sin_expr(a) -> Expr:
    return analytic("sin", a)


def cos_expr(a) -> Expr:
    return analytic("cos", a)


def exp_expr(a) -> Expr:
    return analytic("exp", a)


def log_expr(a) -> Expr:
    return analytic("log", a)


def atan_expr(a) -> Expr:
    return analytic("atan", a)


def levi_civita(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a tuple of distinct values; 0 on repeats."""
    seen = list(perm)
    if len(set(seen)) != len(seen):
        return 0
    sign = 1
    order = sorted(range(len(seen)), key=lambda i: seen[i])
    visited = [False] * len(seen)
    for i in range(len(seen)):
        if visited[i]:
            continue
        cycle = 0
        j = i
        while not visited[j]:
            visited[j] = True
            j = order[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def det_expr(rows: Sequence[Sequence[Expr]]) -> Expr:
    """Determinant, expanded via the Levi-Civita sum.  Guarded to n <= 4."""
    n = len(rows)
    if n == 0 or n > 4:
        raise ExprError(f"determinant expansion supports 1 <= n <= 4, got {n}")
    for r in rows:
        if len(r) != n:
            raise ExprError("determinant needs a square matrix")
    total = ZERO
    for perm in permutations(range(n)):
        sign = levi_civita(perm)
        prod = ONE
        for i, p in enumerate(perm):
            prod = prod * _coerce(rows[i][p])
        total = total + const(sign) * prod
    return total


# ---------------------------------------------------------------------------
# structural walks
# ---------------------------------------------------------------------------

def free_symbols(e: Expr) -> frozenset:
    if e._syms is not None:
        return e._syms
    out = set()

    def walk_poly(terms):
        for mono, _ in terms:
            for at, _e in mono:
                if isinstance(at, Sym):
                    out.add(at)
                elif isinstance(at, Root):
                    out.update(free_symbols(at.arg))
                else:
                    for a in at.args:
                        out.update(free_symbols(a))

    walk_poly(e.num)
    walk_poly(e.den)
    result = frozenset(out)
    e._syms = result
    return result


def opaque_signatures(e: Expr) -> set:
    """All (name, deriv, arity) triples of opaque atoms in e."""
    out = set()

    def walk(t: Expr):
        for terms in (t.num, t.den):
            for mono, _ in terms:
                for at, _e in mono:
                    if isinstance(at, Fun):
                        if not at.analytic:
                            out.add((at.name, at.deriv, len(at.args)))
                        for a in at.args:
                            walk(a)
                    elif isinstance(at, Root):
                        walk(at.arg)

    walk(e)
    return out


def transform_atoms(e: Expr, fn: Callable) -> Expr:
    """Rebuild e, replacing each atom by fn(atom) (an Expr or None to keep).

    fn is applied after recursing into function arguments and radicands, so
    replacements compose bottom-up and are trivially capture-free.
    """

    def rebuild_atom(at) -> Expr:
        if isinstance(at, Sym):
            r = fn(at)
            return r if r is not None else sym_expr(at)
        if isinstance(at, Root):
            inner = transform_atoms(at.arg, fn)
            r = fn(at)
            if r is not None:
                return r
            return sqrt_expr(inner)
        new_args = tuple(transform_atoms(a, fn) for a in at.args)
        r = fn(at)
        if r is not None:
            return r
        if at.analytic:
            return analytic(at.name, new_args[0])
        atom = Fun(at.name, at.deriv, new_args, False)
        return Expr(((((atom, 1),), Fraction(1)),), ((_EMPTY_MONO, Fraction(1)),))

    def rebuild_poly(terms) -> Expr:
        total = ZERO
        for mono, coeff in terms:
            piece = const(coeff)
            for at, ex in mono:
                piece = piece * rebuild_atom(at) ** ex
            total = total + piece
        return total

    return rebuild_poly(e.num) / rebuild_poly(e.den)


def substitute(e: Expr, mapping: Mapping[Sym, Expr]) -> Expr:
    """Simultaneous substitution of coordinate symbols; result is normalized."""
    if not mapping:
        return e
    coerced = {s: _coerce(v) for s, v in mapping.items()}

    def fn(atom):
        if isinstance(atom, Sym):
            return coerced.get(atom)
        return None

    return transform_atoms(e, fn)


def sqrt_extract_candidate(e: Expr, cand: Expr) -> Expr:
    """Rewrite sqrt(cand^2 * R) -> cand * sqrt(R) wherever the radicand divides.

    Only valid on the branch where cand > 0; chart code that fixes an
    orientation branch is the intended caller.
    """
    cand = _coerce(cand)
    if cand.den != ((_EMPTY_MONO, Fraction(1)),):
        raise ExprError("square extraction candidate must be polynomial")
    cand_sq = _p_pow(_poly_of(cand.num), 2)

    def fn(atom):
        if not isinstance(atom, Root):
            return None
        radicand = _poly_of(atom.arg.num)
        factor = ONE
        while True:
            q = _p_exact_div(radicand, cand_sq)
            if q is None:
                break
            radicand = q
            factor = factor * cand
        if factor.is_one:
            return None
        return factor * sqrt_expr(Expr(Expr._freeze(radicand),
                                       ((_EMPTY_MONO, Fraction(1)),)))

    return transform_atoms(e, fn)


def cancel_candidate(e: Expr, cand: Expr) -> Expr:
    """Cancel common powers of a known polynomial factor from num and den."""
    cand = _coerce(cand)
    if cand.den != ((_EMPTY_MONO, Fraction(1)),) or cand.is_zero:
        raise ExprError("cancellation candidate must be a nonzero polynomial")
    cp = _poly_of(cand.num)

    def strip(p: Poly) -> tuple[Poly, int]:
        k = 0
        while True:
            q = _p_exact_div(p, cp)
            if q is None or not q:
                return p, k
            p = q
            k += 1

    num, kn = strip(_poly_of(e.num))
    den, kd = strip(_poly_of(e.den))
    k = min(kn, kd)
    if k == 0:
        return e
    keep = _p_pow(cp, kn - k)
    num = _p_mul(num, keep)
    keep = _p_pow(cp, kd - k)
    den = _p_mul(den, keep)
    return _make(num, den)


def expr_sum(items: Iterable[Expr]) -> Expr:
    """Sum that groups summands by denominator before combining."""
    groups: dict = {}
    for it in items:
        it = _coerce(it)
        if it.is_zero:
            continue
        groups.setdefault(it.den, []).append(it)
    total = ZERO
    for den_terms, members in groups.items():
        acc: Poly = {}
        for m in members:
            _p_add_into(acc, _poly_of(m.num))
        total = total + _make(acc, _poly_of(den_terms))
    return total


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def _atom_diff(atom, s: Sym) -> Expr:
    if isinstance(atom, Sym):
        return ONE if atom == s else ZERO
    if isinstance(atom, Root):
        inner = diff(atom.arg, s)
        if inner.is_zero:
            return ZERO
        root = Expr(((((atom, 1),), Fraction(1)),), ((_EMPTY_MONO, Fraction(1)),))
        # d sqrt(u) = du * sqrt(u) / (2 u), keeping denominators root-free
        return inner * root / (const(2) * atom.arg)
    # function application
    total = ZERO
    for slot, arg in enumerate(atom.args, start=1):
        darg = diff(arg, s)
        if darg.is_zero:
            continue
        if atom.analytic:
            u = atom.args[0]
            if atom.name == "sin":
                outer = cos_expr(u)
            elif atom.name == "cos":
                outer = -sin_expr(u)
            elif atom.name == "exp":
                outer = exp_expr(u)
            elif atom.name == "log":
                outer = ONE / u
            else:  # atan
                outer = ONE / (ONE + u * u)
        else:
            partial = Fun(atom.name, atom.deriv + (slot,), atom.args, False)
            outer = Expr(((((partial, 1),), Fraction(1)),),
                         ((_EMPTY_MONO, Fraction(1)),))
        total = total + outer * darg
    return total


def _poly_diff_expr(terms, s: Sym) -> Expr:
    pieces = []
    for mono, coeff in terms:
        for idx, (at, e) in enumerate(mono):
            d = _atom_diff(at, s)
            if d.is_zero:
                continue
            rest = list(mono)
            if e == 1:
                del rest[idx]
            else:
                rest[idx] = (at, e - 1)
            base = Expr(((tuple(rest), coeff * e),), ((_EMPTY_MONO, Fraction(1)),))
            pieces.append(base * d)
    return expr_sum(pieces)


def diff(e: Expr, s: Sym) -> Expr:
    """Exact partial derivative with respect to a coordinate symbol."""
    if s not in free_symbols(e):
        return ZERO
    dn = _poly_diff_expr(e.num, s)
    dd = _poly_diff_expr(e.den, s)
    den_expr = Expr(e.den, ((_EMPTY_MONO, Fraction(1)),))
    num_expr = Expr(e.num, ((_EMPTY_MONO, Fraction(1)),))
    if dd.is_zero:
        return dn / den_expr
    return (dn * den_expr - num_expr * dd) / (den_expr * den_expr)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointAssignment:
    """Numeric values for coordinate symbols and opaque-function signatures.

    ``functions`` maps (name, deriv multi-index) to either a constant or a
    callable taking the evaluated argument tuple.
    """

    symbols: Mapping[Sym, float]
    functions: Mapping[tuple, object] = field(default_factory=dict)

    def describe(self) -> str:
        parts = [f"{sym_name(s)}={v:.6g}"
                 for s, v in sorted(self.symbols.items(), key=lambda kv: kv[0].key)]
        for (name, deriv), v in sorted(self.functions.items(), key=lambda kv: kv[0]):
            label = name if not deriv else f"{name}_d{''.join(map(str, deriv))}"
            if callable(v):
                parts.append(f"{label}=<germ>")
            else:
                parts.append(f"{label}={v:.6g}")
        return ", ".join(parts)


def _eval_atom(atom, assign: PointAssignment) -> float:
    if isinstance(atom, Sym):
        try:
            return float(assign.symbols[atom])
        except KeyError:
            raise MissingValueError(f"no value for symbol {sym_name(atom)}") from None
    if isinstance(atom, Root):
        v = evaluate(atom.arg, assign)
        if v <= 0.0:
            raise DomainError(f"nonpositive radicand {v:.3g}")
        return math.sqrt(v)
    argvals = tuple(evaluate(a, assign) for a in atom.args)
    if atom.analytic:
        u = argvals[0]
        if atom.name == "sin":
            return math.sin(u)
        if atom.name == "cos":
            return math.cos(u)
        if atom.name == "exp":
            if u > 700.0:
                raise DomainError("exp overflow")
            return math.exp(u)
        if atom.name == "log":
            if u <= 0.0:
                raise DomainError(f"log of nonpositive value {u:.3g}")
            return math.log(u)
        return math.atan(u)
    try:
        entry = assign.functions[(atom.name, atom.deriv)]
    except KeyError:
        label = atom.name if not atom.deriv else \
            f"{atom.name}_d{''.join(map(str, atom.deriv))}"
        raise MissingValueError(f"no value for opaque function {label}") from None
    if callable(entry):
        return float(entry(*argvals))
    return float(entry)


def evaluate(e: Expr, assign: PointAssignment) -> float:
    def eval_terms(terms) -> float:
        total = 0.0
        for mono, coeff in terms:
            v = float(coeff)
            for at, ex in mono:
                v *= _eval_atom(at, assign) ** ex
            total += v
        return total

    num = eval_terms(e.num)
    den = eval_terms(e.den)
    if abs(den) < DEN_EPS:
        raise DomainError(f"denominator within {DEN_EPS} of zero")
    return num / den


# ---------------------------------------------------------------------------
# probabilistic equality
# ---------------------------------------------------------------------------

@dataclass
class EqualResult:
    """Verdict of a sampled comparison of two expressions or two forms.

    'unknown' means every sample was skipped; it never passes.  ``word`` is
    the basis word that decided a failed form comparison.
    """

    verdict: str  # 'equal' | 'unequal' | 'unknown'
    witness: PointAssignment | None = None
    witness_values: tuple[float, float] | None = None
    samples: int = 0
    max_deviation: float = 0.0
    word: tuple | None = None

    def __bool__(self) -> bool:
        return self.verdict == "equal"

    def describe(self) -> str:
        if self.verdict == "equal":
            return (f"equal ({self.samples} samples, "
                    f"max deviation {self.max_deviation:.3g})")
        at = "" if self.word is None else \
            f"{self.verdict} at word {'^'.join(c.name() for c in self.word)}"
        if self.verdict == "unknown":
            return at or "unknown (all sampled points violated a domain guard)"
        if self.witness is None:
            return "unequal: the forms differ in degree"
        va, vb = self.witness_values
        head = at + ": " if at else ""
        return (f"{head}unequal: lhs={va:.9g} rhs={vb:.9g} at "
                f"{self.witness.describe()}")


def _stable_seed(*parts) -> int:
    text = "|".join(repr(p) for p in parts)
    digest = blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _draw(rng: random.Random) -> float:
    v = rng.uniform(0.1, 2.0)
    return v if rng.random() < 0.5 else -v


def sample_assignment(symbols, signatures, seed: int, trial: int) -> PointAssignment:
    """Deterministic random point: symbols from +-[0.1, 2], opaque germs hashed."""
    values = {}
    for s in sorted(symbols, key=lambda t: t.key):
        rng = random.Random(_stable_seed(seed, trial, "sym", s.key))
        values[s] = _draw(rng)
    functions = {}
    for name, deriv, _arity in sorted(signatures):
        def germ(*args, _name=name, _deriv=deriv):
            quantized = tuple(round(float(a), 9) for a in args)
            rng = random.Random(_stable_seed(seed, trial, "fun", _name, _deriv,
                                             quantized))
            return _draw(rng)
        functions[(name, deriv)] = germ
    return PointAssignment(values, functions)


def equal(a: Expr, b: Expr, *, trials: int = 20, tol: float = 1e-9,
          seed: int = 0, guards: Sequence[Expr] = ()) -> EqualResult:
    """Decide a == b: exact when normal forms coincide, else by sampling.

    Sample points violating a domain guard (negative radicand, near-zero
    denominator, or a guard expression that fails to stay above a small
    positive threshold) are skipped.  Following the engine contract, a single
    surviving sample suffices for an 'equal' verdict; 'unknown' is returned
    only when every point was skipped.
    """
    a = _coerce(a)
    b = _coerce(b)
    if a == b:
        return EqualResult("equal", samples=0)
    d = a - b
    if d.is_zero:
        return EqualResult("equal", samples=0)
    symbols = set(free_symbols(a)) | set(free_symbols(b))
    signatures = opaque_signatures(a) | opaque_signatures(b)
    for g in guards:
        symbols |= set(free_symbols(g))
        signatures |= opaque_signatures(g)
    used = 0
    worst = 0.0
    for trial in range(trials):
        assign = sample_assignment(symbols, signatures, seed, trial)
        try:
            ok = True
            for g in guards:
                if evaluate(g, assign) <= GUARD_EPS:
                    ok = False
                    break
            if not ok:
                continue
            va = evaluate(a, assign)
            vb = evaluate(b, assign)
        except DomainError:
            continue
        used += 1
        dev = abs(va - vb)
        scale = max(1.0, abs(va), abs(vb))
        worst = max(worst, dev / scale)
        if dev > tol * scale:
            return EqualResult("unequal", witness=assign,
                               witness_values=(va, vb), samples=used,
                               max_deviation=worst)
    if used == 0:
        return EqualResult("unknown")
    return EqualResult("equal", samples=used, max_deviation=worst)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<NUMBER>\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*)
  | (?P<OP>\^|\*|\+|-|\(|\)|,)
  | (?P<WS>\s+)
""", re.VERBOSE)

_COORD_RES = (
    (re.compile(r"^x(\d)$"), lambda m: Sym("x", int(m.group(1)))),
    (re.compile(r"^y(\d)$"), lambda m: Sym("y", int(m.group(1)))),
    (re.compile(r"^y(\d)_(\d)$"), lambda m: Sym("y1", int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^y(\d)_(\d)(\d)$"),
     lambda m: Sym("y2", int(m.group(1)), int(m.group(2)), int(m.group(3)))),
    (re.compile(r"^w(\d)$"), lambda m: Sym("w", int(m.group(1)))),
    (re.compile(r"^w(\d)_(\d)$"), lambda m: Sym("w1", int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^z(\d)_(\d)$"), lambda m: Sym("z", int(m.group(1)), int(m.group(2)))),
    (re.compile(r"^a(\d)_(\d)$"), lambda m: Sym("a", int(m.group(1)), int(m.group(2)))),
)

_OPAQUE_DERIV_RE = re.compile(r"^(?P<base>[A-Za-z][A-Za-z0-9_]*?)_d(?P<slots>\d+)$")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            if m.lastgroup != "WS":
                self.items.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else (None, "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, off = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text!r}", off)


def _resolve_coord(name: str) -> Sym | None:
    for rx, build in _COORD_RES:
        m = rx.match(name)
        if m:
            return build(m)
    return None


# parentheses and function applications together; each level costs the
# parser four frames and later passes over the tree more
MAX_NESTING = 100


def _number(text: str, off: int) -> Fraction:
    # int() and Fraction() refuse integers past Python's digit limit, and
    # the token pattern admits a decimal numerator such as 1.5/2
    try:
        if "/" not in text:
            return Fraction(text)
        p, q = text.split("/")
        if int(q) == 0:
            raise ParseError("zero denominator in rational literal", off)
        return Fraction(int(p), int(q))
    except ValueError:
        shown = (repr(text) if len(text) <= 24 else
                 f"'{text[:10]}...{text[-10:]}' of {len(text)} characters")
        raise ParseError(f"cannot read the number {shown}", off) from None


class _Parser:
    def __init__(self, text: str, chart=None):
        self.toks = _Tokens(text)
        self.chart = chart
        self.arities: dict[str, int] = {}
        self.depth = 0

    def open_group(self, off: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"more than {MAX_NESTING} nested parentheses "
                             f"and function applications", off)

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.toks.peek()
        if kind is not None:
            raise ParseError(f"trailing input {text!r}", off)
        return e

    def expr(self) -> Expr:
        kind, text, off = self.toks.peek()
        negate = False
        if text == "-":
            self.toks.next()
            negate = True
        total = self.term()
        if negate:
            total = -total
        while True:
            kind, text, off = self.toks.peek()
            if text == "+":
                self.toks.next()
                total = total + self.term()
            elif text == "-":
                self.toks.next()
                total = total - self.term()
            else:
                return total

    def term(self) -> Expr:
        total = self.factor()
        while True:
            kind, text, off = self.toks.peek()
            if text == "*":
                self.toks.next()
                total = total * self.factor()
            else:
                return total

    def factor(self) -> Expr:
        base = self.atom()
        kind, text, off = self.toks.peek()
        if text == "^":
            self.toks.next()
            kind, text, off = self.toks.next()
            sign = 1
            if text == "-":
                sign = -1
                kind, text, off = self.toks.next()
            if kind != "NUMBER" or any(ch in text for ch in "./"):
                raise ParseError("exponent must be an integer", off)
            return base ** (sign * int(_number(text, off)))
        return base

    def atom(self) -> Expr:
        kind, text, off = self.toks.next()
        if kind == "NUMBER":
            return const(_number(text, off))
        if text == "(":
            self.open_group(off)
            e = self.expr()
            self.toks.expect(")")
            self.depth -= 1
            return e
        if kind != "IDENT":
            raise ParseError(f"unexpected token {text!r}", off)
        nk, nt, noff = self.toks.peek()
        if nt == "(":
            return self.application(text, off)
        sym = _resolve_coord(text)
        if sym is None:
            raise ParseError(f"unknown identifier {text!r}", off)
        self.validate_sym(sym, off)
        return sym_expr(sym)

    def application(self, name: str, off: int) -> Expr:
        self.toks.expect("(")
        self.open_group(off)
        args = [self.expr()]
        while True:
            kind, text, aoff = self.toks.peek()
            if text == ",":
                self.toks.next()
                args.append(self.expr())
            else:
                break
        self.toks.expect(")")
        self.depth -= 1
        if name == "sqrt":
            if len(args) != 1:
                raise ParseError("sqrt takes one argument", off)
            return sqrt_expr(args[0])
        if name in ANALYTIC_NAMES:
            if len(args) != 1:
                raise ParseError(f"{name} takes one argument", off)
            return analytic(name, args[0])
        m = re.match(r"^det([234])$", name)
        if m:
            n = int(m.group(1))
            if len(args) != n * n:
                raise ParseError(f"det{n} takes {n * n} row-major entries", off)
            rows = [args[i * n:(i + 1) * n] for i in range(n)]
            return det_expr(rows)
        deriv: tuple[int, ...] = ()
        dm = _OPAQUE_DERIV_RE.match(name)
        if dm:
            name = dm.group("base")
            deriv = tuple(int(ch) for ch in dm.group("slots"))
        known = self.arities.get(name)
        if known is not None and known != len(args):
            raise ParseError(
                f"opaque function {name!r} used with arity {len(args)}, "
                f"previously {known}", off)
        self.arities[name] = len(args)
        try:
            return opaque(name, *args, deriv=deriv)
        except ExprError as exc:
            raise ParseError(str(exc), off) from None

    def validate_sym(self, sym: Sym, off: int) -> None:
        chart = self.chart
        if chart is None:
            return
        M = chart.m + chart.n
        if sym.kind == "x" and not 1 <= sym.a <= chart.n:
            raise ParseError(f"base index {sym.a} outside 1..{chart.n}", off)
        if sym.kind in ("y", "w") and not 1 <= sym.a <= M:
            raise ParseError(f"fiber index {sym.a} outside 1..{M}", off)
        if sym.kind in ("y1", "y2"):
            if not 1 <= sym.a <= M:
                raise ParseError(f"fiber index {sym.a} outside 1..{M}", off)
            for j in (sym.b, sym.c):
                if j and not 1 <= j <= chart.n:
                    raise ParseError(f"base index {j} outside 1..{chart.n}", off)
        if sym.kind == "y2" and chart.order < 2:
            raise ParseError("second-order symbol on a first-order chart", off)


def parse(text: str, chart=None) -> Expr:
    """Parse surface syntax into a canonical expression."""
    return _Parser(text, chart).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _atom_str(atom) -> str:
    if isinstance(atom, Sym):
        return sym_name(atom)
    if isinstance(atom, Root):
        return f"sqrt({to_dsl(atom.arg)})"
    name = atom.name
    if atom.deriv:
        name = f"{name}_d{''.join(map(str, atom.deriv))}"
    return f"{name}({', '.join(to_dsl(a) for a in atom.args)})"


def _poly_str(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for idx, (mono, coeff) in enumerate(terms):
        factors = [f"{_atom_str(at)}^{e}" if e != 1 else _atom_str(at)
                   for at, e in mono]
        mag = abs(coeff)
        body = "*".join(factors)
        if not factors:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if idx == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def to_dsl(e: Expr) -> str:
    """Canonical printable form; parse(to_dsl(e)) rebuilds e."""
    num_str = _poly_str(e.num)
    if e.den == ((_EMPTY_MONO, Fraction(1)),):
        return num_str
    den_str = _poly_str(e.den)
    if len(e.num) > 1 or e.num[0][0] != _EMPTY_MONO or e.num[0][1] < 0:
        num_str = f"({num_str})"
    return f"{num_str}*({den_str})^-1"


def _atom_latex(atom, exp: int) -> str:
    if isinstance(atom, Sym):
        s = atom
        if s.kind == "x":
            core = f"x^{{{s.a}}}"
        elif s.kind == "y":
            core = f"y^{{{s.a}}}"
        elif s.kind == "y1":
            core = f"y^{{{s.a}}}_{{{s.b}}}"
        elif s.kind == "y2":
            core = f"y^{{{s.a}}}_{{{s.b}{s.c}}}"
        elif s.kind == "w":
            core = f"w^{{{s.a}}}"
        elif s.kind == "w1":
            core = f"w^{{{s.a}}}_{{{s.b}}}"
        elif s.kind == "z":
            core = f"z^{{{s.a}}}_{{{s.b}}}"
        else:
            core = f"a^{{{s.a}}}_{{{s.b}}}"
    elif isinstance(atom, Root):
        core = f"\\sqrt{{{to_latex(atom.arg)}}}"
    else:
        name = atom.name
        if name in ANALYTIC_NAMES:
            args = to_latex(atom.args[0])
            core = f"\\{name}\\left({args}\\right)"
        else:
            sub = f"_{{,{''.join(map(str, atom.deriv))}}}" if atom.deriv else ""
            args = ", ".join(to_latex(a) for a in atom.args)
            core = f"{name}{sub}\\left({args}\\right)"
    if exp == 1:
        return core
    return f"{core}^{{{exp}}}" if not core.endswith("}") else f"\\left({core}\\right)^{{{exp}}}"


def _poly_latex(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for idx, (mono, coeff) in enumerate(terms):
        factors = [_atom_latex(at, e) for at, e in mono]
        mag = abs(coeff)
        if mag == 1 and factors:
            coeff_str = ""
        elif mag.denominator == 1:
            coeff_str = str(mag.numerator)
        else:
            coeff_str = f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
        body = (coeff_str + ("\\," if coeff_str and factors else "")
                + "\\,".join(factors)) or "1"
        if idx == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def to_latex(e: Expr) -> str:
    num = _poly_latex(e.num)
    if e.den == ((_EMPTY_MONO, Fraction(1)),):
        return num
    return f"\\frac{{{num}}}{{{_poly_latex(e.den)}}}"
