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
results means the computations agree coefficient by coefficient.  ``==``
compares the terms themselves, which every expression holds once; the hash
is that of ``Expr.key``, a nested tuple built on first use and not kept.
``equal`` settles the remaining cases by seeded random evaluation.

The surface syntax is described in ``lepage._dsl``, which holds the parser
and printers; ``lepage._sampling`` holds the evaluation, sample points and
verdict classes behind ``evaluate`` and ``equal``.  Both are split off so
that no process compiles the core in one piece: without a bytecode cache,
compiling costs 70-90 bytes of peak memory per source byte.  The public
functions stay here and recurse through those helpers, so the three modules
import each other, each as its last statement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "Sym", "Fun", "Root", "Expr", "PointAssignment", "EqualResult", "Verdicts",
    "ExprError", "ParseError", "EvalError", "DomainError",
    "MissingValueError", "ExpressionSizeError",
    "const", "sym_expr", "x", "yy", "yj", "yjk", "ww", "wj", "zz", "aa",
    "sqrt_expr", "opaque", "analytic", "sin_expr", "cos_expr", "exp_expr",
    "log_expr", "atan_expr", "det_expr", "levi_civita",
    "diff", "substitute", "transform_atoms",
    "evaluate", "equal", "parse", "to_dsl", "to_latex", "expr_sum",
    "free_symbols", "opaque_signatures",
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

# kind -> (letter, number of lower indices), in rank order
_SYM_KINDS = {"x": ("x", 0), "y": ("y", 0), "y1": ("y", 1), "y2": ("y", 2),
              "w": ("w", 0), "w1": ("w", 1), "z": ("z", 1), "a": ("a", 1)}
_KIND_RANK = {kind: rank for rank, kind in enumerate(_SYM_KINDS)}
_KIND_OF = {spelling: kind for kind, spelling in _SYM_KINDS.items()}


class _Keyed:
    """Base of ``Fun``, ``Root`` and ``forms.Covector``: equal within one
    class by ``key``, and hashed by ``_hash``, which the constructor takes
    once.  ``Sym`` is not one of them: it is interned, one object per
    symbol, and compares and hashes by identity."""

    __slots__ = ("key", "_hash")

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.key == other.key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # through the constructor, whose parameters are the slots in order, so
        # that a copy takes its hash where it is loaded: a Fun's key holds its
        # name, and a string hashes differently in each process
        return type(self), tuple(getattr(self, name)
                                 for name in type(self).__slots__)


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

    Symbols are interned: the constructor returns the one object per symbol
    from ``_table``, so ``==`` and ``hash`` are those of the object, and a
    copy or an unpickled symbol is that object too.  The table holds one
    entry per distinct symbol the process builds, bounded by the index
    ranges of its charts, and never frees one.
    """

    __slots__ = ("kind", "a", "b", "c", "key")
    _table: dict = {}  # key -> the symbol

    def __new__(cls, kind: str, a: int, b: int = 0, c: int = 0):
        rank = _KIND_RANK.get(kind)
        if rank is None:
            raise ExprError(f"unknown symbol kind {kind!r}")
        if kind == "y2" and b > c:
            b, c = c, b
        key = (0, rank, a, b, c)
        self = cls._table.get(key)
        if self is None:
            self = object.__new__(cls)
            self.kind = kind
            self.a = a
            self.b = b
            self.c = c
            self.key = key
            cls._table[key] = self
        return self

    def __reduce__(self):
        return Sym, (self.kind, self.a, self.b, self.c)

    def __repr__(self):
        return sym_name(self)


def _spelling(s: Sym) -> tuple[str, str]:
    """The letter of s and the digits of its lower indices."""
    letter, lower = _SYM_KINDS[s.kind]
    return letter, "".join(str(i) for i in (s.b, s.c)[:lower])


def sym_name(s: Sym) -> str:
    letter, lower = _spelling(s)
    return f"{letter}{s.a}_{lower}" if lower else f"{letter}{s.a}"


class Fun(_Keyed):
    """A function application atom; opaque unless name is analytic.

    For opaque atoms ``deriv`` is the sorted multi-index of argument slots
    (1-based) with respect to which formal partials were taken.
    """

    __slots__ = ("name", "deriv", "args", "analytic")

    def __init__(self, name: str, deriv: tuple[int, ...], args: tuple["Expr", ...],
                 is_analytic: bool):
        self.name = name
        self.deriv = tuple(sorted(deriv))
        self.args = args
        self.analytic = is_analytic
        self.key = (2, name, self.deriv, tuple([a.key for a in args]))
        self._hash = hash(self.key)

    def __repr__(self):
        return _atom_str(self)


class Root(_Keyed):
    """sqrt of a polynomial expression (denominator-free by construction)."""

    __slots__ = ("arg",)

    def __init__(self, arg: "Expr"):
        self.arg = arg
        self.key = (1, arg.key)
        self._hash = hash(self.key)

    def __repr__(self):
        return _atom_str(self)


Atom = object  # Sym | Fun | Root
Mono = tuple  # tuple[tuple[Atom, int], ...], sorted by atom key
Poly = dict  # Mono -> Fraction


# The core builds its tuples from lists, not generators.  In CPython, tuple()
# of a generator is allocated for 10 items and shrunk, so when it dies it
# joins the free list of its own length, which only tuples made at that
# length take from: those lists fill to 2000 entries each and keep them, and
# at lengths 4-7 they held over 0.5 MB of a `check-lepage` process.
def _mono_key(mono: Mono):
    return tuple([(at.key, e) for at, e in mono])


# ---------------------------------------------------------------------------
# polynomial arithmetic with fold rules
# ---------------------------------------------------------------------------

_EMPTY_MONO: Mono = ()
# the terms of the polynomial 1, the denominator of every polynomial
_UNIT_TERMS = ((_EMPTY_MONO, Fraction(1)),)


def _p_const(c: Fraction) -> Poly:
    return {} if c == 0 else {_EMPTY_MONO: c}


def _p_add_into(target: Poly, src: Poly) -> None:
    for mono, coeff in src.items():
        old = target.get(mono)
        new = coeff if old is None else old + coeff
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


def _foldable(atom) -> bool:
    """Whether a power of atom folds: a root, or an analytic sin."""
    return isinstance(atom, Root) or (isinstance(atom, Fun) and atom.analytic
                                      and atom.name == "sin")


def _fold_square(atom) -> Poly | None:
    """Return the polynomial equal to atom^2 if a fold rule applies."""
    if isinstance(atom, Root):
        return dict(atom.arg.num)
    if isinstance(atom, Fun) and atom.analytic and atom.name == "sin":
        cos_atom = Fun("cos", (), atom.args, True)
        return {_EMPTY_MONO: Fraction(1), ((cos_atom, 2),): Fraction(-1)}
    return None


def _mono_mul(m1: Mono, m2: Mono) -> tuple[Mono, Poly | None]:
    """Merge two monomials; return (residual mono, extra poly factor or None).

    Both are sorted by atom key, and so is the result.  Atoms are matched
    by key, not identity, as a ``Fun`` or ``Root`` may be built twice."""
    # an atom of one factor keeps its (atom, exponent) pair: products share pairs
    merged = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        p1, p2 = m1[i], m2[j]
        k1, k2 = p1[0].key, p2[0].key
        if k1 < k2:
            merged.append(p1)
            i += 1
        elif k2 < k1:
            merged.append(p2)
            j += 1
        else:
            merged.append((p2[0], p1[1] + p2[1]))
            i += 1
            j += 1
    merged.extend(m1[i:])
    merged.extend(m2[j:])
    extra: Poly | None = None
    residual = []
    for pair in merged:
        at, e = pair
        fold = _fold_square(at) if e >= 2 else None
        if fold is not None:
            q, r = divmod(e, 2)
            fq = _p_pow(fold, q)
            extra = fq if extra is None else _p_mul(extra, fq)
            if r:
                residual.append((at, 1))
        else:
            residual.append(pair)
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
                old = out.get(mono)
                new = c if old is None else old + c
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


def _atom_content(monos: Iterable[Mono]) -> dict:
    """Atoms occurring in every monomial, with their minimal exponents."""
    it = iter(monos)
    first = next(it, None)
    if first is None:
        return {}
    content = {at: e for at, e in first}
    for mono in it:
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
        for pair in mono:
            k = mono_content.get(pair[0], 0)
            if not k:
                rebuilt.append(pair)
            elif pair[1] != k:
                rebuilt.append((pair[0], pair[1] - k))
        out[tuple(rebuilt)] = coeff
    return out


def _p_has_foldable(p: Poly) -> bool:
    return any(_foldable(at) for mono in p for at, _ in mono)


def _degrees(p: Poly) -> dict:
    """The highest exponent of each atom of p."""
    out: dict = {}
    for mono in p:
        for at, e in mono:
            if e > out.get(at, 0):
                out[at] = e
    return out


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
    # deg_a(q*den) = deg_a(q) + deg_a(den) for every atom a, so den divides
    # num only if no atom has a higher degree in den than in num; this also
    # makes den's atoms a subset of num's
    num_deg = _degrees(num)
    for at, k in _degrees(den).items():
        if k > num_deg.get(at, 0):
            return None
    return _p_dense_div(num, den, sorted(num_deg, key=lambda a: a.key))


def _p_dense_div(num: Poly, den: Poly, atoms: list) -> Poly | None:
    """Divide num by den term by term, as exponent vectors over atoms (every
    atom of both, in key order); None when a leading term does not divide
    or the loop outruns its guard."""
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
        diff = tuple([a - b for a, b in zip(lead_n, lead_d)])
        if any(d < 0 for d in diff):
            return None
        c = dn[lead_n] / lead_dc
        old = quotient.get(diff)
        quotient[diff] = c if old is None else old + c
        for vec, coeff in dd.items():
            tgt = tuple([a + b for a, b in zip(diff, vec)])
            old = dn.get(tgt)
            new = -(c * coeff) if old is None else old - c * coeff
            if new == 0:
                dn.pop(tgt, None)
            else:
                dn[tgt] = new
    out: Poly = {}
    for vec, coeff in quotient.items():
        # atoms are in key order, so the monomial is too
        out[tuple([(atoms[i], e) for i, e in enumerate(vec) if e])] = coeff
    return out


# ---------------------------------------------------------------------------
# the Expr wrapper: canonical fractions
# ---------------------------------------------------------------------------

class Expr:
    """Immutable scalar expression in canonical rational normal form."""

    __slots__ = ("num", "den", "_hash", "_syms")

    def __init__(self, num_terms: tuple, den_terms: tuple):
        self.num = num_terms
        self.den = den_terms
        self._hash = None
        self._syms = None

    @property
    def key(self) -> tuple:
        """The terms as nested tuples of atom keys; built on each call, not stored."""
        return tuple([tuple([(_mono_key(m), (c.numerator, c.denominator))
                             for m, c in terms]) for terms in (self.num, self.den)])

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
        return self.num == _UNIT_TERMS and self.den == _UNIT_TERMS

    def as_fraction(self) -> Fraction | None:
        if self.den != _UNIT_TERMS:
            return None
        if not self.num:
            return Fraction(0)
        if len(self.num) == 1 and self.num[0][0] == _EMPTY_MONO:
            return self.num[0][1]
        return None

    # -- hashing / equality -------------------------------------------------

    def __eq__(self, other):
        # as comparing keys: a symbol is one object per key, other atoms
        # compare by key, and Fractions are normalised
        return self is other or (isinstance(other, Expr) and self.num == other.num
                                 and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key)
        return self._hash

    def __reduce__(self):
        # without the cached hash and symbols
        return Expr, (self.num, self.den)

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
        n1, d1 = dict(self.num), dict(self.den)
        n2, d2 = dict(other.num), dict(other.den)
        if self.den == other.den:
            _p_add_into(n1, n2)
            return _make(n1, d1)
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
        return Expr(tuple([(m, -c) for m, c in self.num]), self.den)

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
        product = _scale(self, other)
        if product is None:
            product = _scale(other, self)
        if product is None:
            product = _make(_p_mul(dict(self.num), dict(other.num)),
                            _p_mul(dict(self.den), dict(other.den)))
        return product

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ExprError("division by the zero expression")
        return _make(_p_mul(dict(self.num), dict(other.den)),
                     _p_mul(dict(self.den), dict(other.num)))

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
            return _make(_p_pow(dict(self.den), -k),
                         _p_pow(dict(self.num), -k))
        return _make(_p_pow(dict(self.num), k),
                     _p_pow(dict(self.den), k))


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return const(v)
    return NotImplemented


def _scale(e: Expr, t: Expr) -> Expr | None:
    """The product e*t without `_make`, or None when it may need `_make`.

    Let e = n/d, as `_make` left it, and let t = c*m be one term over 1.
    When m has no foldable atom, and d's atom content holds no root and
    does not meet m, `_make(c*m*n, d)` changes nothing but the order of
    the terms:
    - no monomial folds, as m brings no foldable atom and n holds none
      squared;
    - the content the two sides share is that of n and d, which `_make`
      left empty;
    - no root is cleared, and d's leading coefficient stays 1;
    - with the atoms as independent variables, as `_p_exact_div` takes
      them, d is coprime to m, so d divides c*m*n only if it divides n,
      which `_make` found it does not. When d has foldable atoms the
      division is never tried, and d = 1 needs none.
    """
    if len(t.num) != 1 or t.den != _UNIT_TERMS:
        return None
    mono = t.num[0][0]
    if any(_foldable(at) for at, _ in mono):
        return None
    if e.den != _UNIT_TERMS:
        content = _atom_content(m for m, _ in e.den)
        if content and (any(isinstance(at, Root) for at in content)
                        or any(at in content for at, _ in mono)):
            return None
    return Expr(Expr._freeze(_p_mul(dict(e.num), dict(t.num))), e.den)


def _make(num: Poly, den: Poly) -> Expr:
    """Canonicalize a raw fraction of polynomials.

    Cancels the atom content numerator and denominator share and clears one
    root from the denominator's content until neither step applies, so that
    `_make` of the result's terms changes nothing.  The rounds are finitely
    many: a cleared root leaves the denominator, and only roots nested in
    its radicand, less deep, come in.
    """
    if not den:
        raise ExprError("division by zero while normalizing")
    if not num:
        return ZERO
    while True:
        cn = _atom_content(num)
        cd = _atom_content(den)
        shared = {at: min(e, cd[at]) for at, e in cn.items() if at in cd}
        if shared:
            num = _p_div_mono(num, shared)
            den = _p_div_mono(den, shared)
            cd = _atom_content(den)
        root = next((at for at in sorted(cd, key=lambda a: a.key)
                     if isinstance(at, Root)), None)
        if root is None:
            break
        clear = {((root, 1),): Fraction(1)}
        num = _p_mul(num, clear)
        den = _p_mul(den, clear)
    # scale so the denominator's first term has coefficient 1, keeping
    # den_terms, the denominator in canonical order, sorted once
    den_terms = sorted(den.items(), key=lambda kv: _mono_key(kv[0]))
    lead = den_terms[0][1]
    if lead != 1:
        inv = Fraction(1) / lead
        num = {m: c * inv for m, c in num.items()}
        den = {m: c * inv for m, c in den.items()}
        den_terms = [(m, den[m]) for m, _ in den_terms]
    if den != {_EMPTY_MONO: Fraction(1)}:
        q = _p_exact_div(num, den)
        if q is not None:
            num, den_terms = q, _UNIT_TERMS
        if not num:
            return ZERO
    return Expr(Expr._freeze(num), tuple(den_terms))


ZERO = Expr((), _UNIT_TERMS)
ONE = Expr(_UNIT_TERMS, _UNIT_TERMS)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def const(v) -> Expr:
    c = Fraction(v)
    if c == 0:
        return ZERO
    return Expr(((_EMPTY_MONO, c),), _UNIT_TERMS)


def _atom_expr(atom) -> Expr:
    """The expression made of one atom."""
    return Expr(((((atom, 1),), Fraction(1)),), _UNIT_TERMS)


def sym_expr(s: Sym) -> Expr:
    return _atom_expr(s)


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
    num = dict(e.num)
    den = dict(e.den)
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
        arg = Expr(Expr._freeze(radicand), _UNIT_TERMS)
        root_part = _atom_expr(Root(arg))
    return const(scale) * root_part / Expr(e.den, _UNIT_TERMS)


def opaque(name: str, *args, deriv: tuple[int, ...] = ()) -> Expr:
    if name in ANALYTIC_NAMES or name == "sqrt":
        raise ExprError(f"{name!r} is reserved for the analytic function")
    exprs = tuple(_coerce(a) for a in args)
    for d in deriv:
        if not 1 <= d <= len(exprs):
            raise ExprError(f"derivative slot {d} out of range for {name!r}")
    return _atom_expr(Fun(name, tuple(deriv), exprs, False))


def analytic(name: str, arg) -> Expr:
    arg = _coerce(arg)
    if name not in _ANALYTIC:
        raise ExprError(f"unknown analytic function {name!r}")
    special = _ANALYTIC[name].special.get(arg.as_fraction())
    if special is not None:
        return special
    return _atom_expr(Fun(name, (), (arg,), True))


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


def _exp_value(u: float) -> float:
    if u > 700.0:
        raise DomainError("exp overflow")
    return math.exp(u)


def _log_value(u: float) -> float:
    if u <= 0.0:
        raise DomainError(f"log of nonpositive value {u:.3g}")
    return math.log(u)


class _Analytic(NamedTuple):
    value: Callable[[float], float]  # raises DomainError off the domain
    derivative: Callable[[Expr], Expr]
    special: dict  # rational argument -> exact value


_ANALYTIC = {
    "sin": _Analytic(math.sin, cos_expr, {0: ZERO}),
    "cos": _Analytic(math.cos, lambda u: -sin_expr(u), {0: ONE}),
    "exp": _Analytic(_exp_value, exp_expr, {0: ONE}),
    "log": _Analytic(_log_value, lambda u: ONE / u, {1: ZERO}),
    "atan": _Analytic(math.atan, lambda u: ONE / (ONE + u * u), {0: ZERO}),
}
ANALYTIC_NAMES = tuple(_ANALYTIC)


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
        return _atom_expr(Fun(at.name, at.deriv, new_args, False))

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
            _p_add_into(acc, dict(m.num))
        total = total + _make(acc, dict(den_terms))
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
        # d sqrt(u) = du * sqrt(u) / (2 u), keeping denominators root-free
        return inner * _atom_expr(atom) / (const(2) * atom.arg)
    # function application
    total = ZERO
    for slot, arg in enumerate(atom.args, start=1):
        darg = diff(arg, s)
        if darg.is_zero:
            continue
        if atom.analytic:
            outer = _ANALYTIC[atom.name].derivative(atom.args[0])
        else:
            outer = _atom_expr(
                Fun(atom.name, atom.deriv + (slot,), atom.args, False))
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
            base = Expr(((tuple(rest), coeff * e),), _UNIT_TERMS)
            pieces.append(base * d)
    return expr_sum(pieces)


def diff(e: Expr, s: Sym) -> Expr:
    """Exact partial derivative with respect to a coordinate symbol."""
    if s not in free_symbols(e):
        return ZERO
    dn = _poly_diff_expr(e.num, s)
    dd = _poly_diff_expr(e.den, s)
    den_expr = Expr(e.den, _UNIT_TERMS)
    num_expr = Expr(e.num, _UNIT_TERMS)
    if dd.is_zero:
        return dn / den_expr
    return (dn * den_expr - num_expr * dd) / (den_expr * den_expr)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, assign: PointAssignment, *,
             strict: bool = False) -> float:
    """The value of e at a point.

    With ``strict``, as for a sampled comparison, a nonzero term that
    underflows to 0 raises DomainError, and a product, sum or quotient
    that overflows to inf or nan raises OverflowError, as a power that
    leaves float range always does; so no value that lost its magnitude is
    returned.
    """
    return _evaluate(e, assign, strict)[0]


# ---------------------------------------------------------------------------
# probabilistic equality
# ---------------------------------------------------------------------------

def equal(a: Expr, b: Expr, *, trials: int = 20, tol: float = 1e-9,
          seed: int = 0, guards: Sequence[Expr] = ()) -> EqualResult:
    """Decide a == b: exact when normal forms coincide, else by sampling.

    Sample points violating a domain guard (negative radicand, near-zero
    denominator, or a guard expression that fails to stay above a small
    positive threshold) are skipped, and so are points where a value
    leaves float range: a power, product, sum or quotient that overflows,
    or a nonzero term that underflows to 0 (as a huge power or coefficient
    does), since such a value cannot tell the two sides apart.  A sample
    agrees when |a - b| <= tol times the largest of |a|, |b| and the
    sides' term magnitudes (the sum of the numerator's |terms| over
    |denominator|), so scaling both sides changes no verdict.  Following
    the engine contract, a single surviving sample suffices for an 'equal'
    verdict; 'unknown' is returned only when every point was skipped.
    """
    a = _coerce(a)
    b = _coerce(b)
    if a == b or (a - b).is_zero:
        return EqualResult("equal", decided_by="structural")
    symbols = set(free_symbols(a)) | set(free_symbols(b))
    signatures = opaque_signatures(a) | opaque_signatures(b)
    for g in guards:
        symbols |= set(free_symbols(g))
        signatures |= opaque_signatures(g)
    skipped = {"guard": 0, "domain": 0, "overflow": 0}
    samples, worst = 0, 0.0
    for trial in range(trials):
        assign = sample_assignment(symbols, signatures, seed, trial)
        try:
            if any(evaluate(g, assign, strict=True) <= GUARD_EPS for g in guards):
                skipped["guard"] += 1
                continue
            va, ma = _evaluate(a, assign, True)
            vb, mb = _evaluate(b, assign, True)
        except (DomainError, OverflowError) as exc:
            skipped["domain" if isinstance(exc, DomainError) else "overflow"] += 1
            continue
        samples += 1
        dev = abs(va - vb)
        scale = max(abs(va), abs(vb), ma, mb)
        worst = max(worst, dev / scale if scale else 0.0)
        if dev > tol * scale:
            return EqualResult("unequal", assign, (va, vb), samples, worst,
                               skipped=skipped)
    return EqualResult("equal" if samples else "unknown", samples=samples,
                       max_deviation=worst, skipped=skipped)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse(text: str, chart=None) -> Expr:
    """Parse surface syntax into a canonical expression; with a chart, each
    coordinate symbol must pass ``chart.check_symbol``."""
    return _Parser(text, chart).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def to_dsl(e: Expr) -> str:
    """Canonical printable form; parse(to_dsl(e)) rebuilds e."""
    num_str = _poly_str(e.num)
    if e.den == _UNIT_TERMS:
        return num_str
    den_str = _poly_str(e.den)
    if len(e.num) > 1 or e.num[0][0] != _EMPTY_MONO or e.num[0][1] < 0:
        num_str = f"({num_str})"
    return f"{num_str}*({den_str})^-1"


def to_latex(e: Expr) -> str:
    num = _poly_latex(e.num)
    if e.den == _UNIT_TERMS:
        return num
    return f"\\frac{{{num}}}{{{_poly_latex(e.den)}}}"


# last: these modules read this one's names, and either side may load first
from ._sampling import (EqualResult, PointAssignment, Verdicts, _evaluate,
                        sample_assignment)
from ._dsl import _Parser, _atom_str, _poly_latex, _poly_str
