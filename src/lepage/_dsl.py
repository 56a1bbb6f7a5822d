"""The surface syntax of exact expressions: tokenizer, parser and printers.

The machinery of ``lepage.expr.parse``, ``to_dsl`` and ``to_latex``, split
off so that no process compiles the exact core in one piece.  The printable
surface syntax is::

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

import re
from fractions import Fraction


_TOKEN_RE = re.compile(r"""
    (?P<NUMBER>\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*)
  | (?P<OP>\^|\*|\+|-|\(|\)|,)
  | (?P<WS>\s+)
""", re.VERBOSE)

# a letter, one upper index digit and the lower index digits
_COORD_RE = re.compile(r"([a-z])(\d)(?:_(\d+))?")

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
    m = _COORD_RE.fullmatch(name)
    if m is None:
        return None
    letter, upper, lower = m.group(1), m.group(2), m.group(3) or ""
    kind = _KIND_OF.get((letter, len(lower)))
    return None if kind is None else Sym(kind, int(upper), *map(int, lower))


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
        if self.chart is not None:
            try:
                self.chart.check_symbol(sym)
            except ExprError as exc:
                raise ParseError(str(exc), off) from None
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


def _atom_str(atom) -> str:
    if isinstance(atom, Sym):
        return sym_name(atom)
    if isinstance(atom, Root):
        return f"sqrt({to_dsl(atom.arg)})"
    name = atom.name
    if atom.deriv:
        name = f"{name}_d{''.join(map(str, atom.deriv))}"
    return f"{name}({', '.join(to_dsl(a) for a in atom.args)})"


# decimal digits per printed integer literal, under Python's int-to-str
# limit (4300 by default), which the parser's literals share
_LITERAL_DIGITS = 4000


def _int_str(n: int) -> str:
    # n >= 0 in decimal; past _LITERAL_DIGITS digits as a parenthesized sum
    # of literals times powers of ten, which parses back to n
    chunk = 10 ** _LITERAL_DIGITS
    if n < chunk:
        return str(n)
    parts, k = [], 0
    while n:
        n, c = divmod(n, chunk)
        if c:
            parts.append(f"{c}*10^{k}" if k else str(c))
        k += _LITERAL_DIGITS
    return "(" + " + ".join(reversed(parts)) + ")"


def _magnitude_str(mag: Fraction) -> str:
    # |coefficient| as a factor: p/q as a literal, or p*q^-1 when either may
    # be too long for one (3 bits per decimal digit undercounts, 2^3 < 10)
    p, q = mag.numerator, mag.denominator
    if max(p, q).bit_length() <= 3 * _LITERAL_DIGITS:
        return str(mag)
    return _int_str(p) if q == 1 else f"{_int_str(p)}*{_int_str(q)}^-1"


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
            body = _magnitude_str(mag)
        elif mag != 1:
            body = f"{_magnitude_str(mag)}*{body}"
        if idx == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def _atom_latex(atom, exp: int) -> str:
    if isinstance(atom, Sym):
        letter, lower = _spelling(atom)
        core = f"{letter}^{{{atom.a}}}" + (f"_{{{lower}}}" if lower else "")
    elif isinstance(atom, Root):
        core = f"\\sqrt{{{to_latex(atom.arg)}}}"
    else:
        name = atom.name
        if atom.analytic:
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


# last: lepage.expr imports this module at its end; used only inside calls
from .expr import (ANALYTIC_NAMES, Expr, ExprError, ParseError, Root, Sym,
                   _KIND_OF, _spelling, analytic, const, det_expr, opaque,
                   sqrt_expr, sym_expr, sym_name, to_dsl, to_latex)
