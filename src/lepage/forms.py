"""Differential forms on jet charts and adapted charts.

A form is a map from strictly increasing wedge words to scalar coefficients.
Words are tuples of covectors sorted by a fixed rank order

    dx < dy < dy_j < om < om_j < dw < dw_j < omt

Basis modes restrict which covector kinds may occur:

* ``coordinate``      dx, dy, dy_j            (jet chart)
* ``contact``         dx, om, om_j            (jet chart)
* ``adapted``         dw, dw_j                (adapted chart)
* ``adapted-contact`` dw^i, omt, dw_j         (adapted chart)
* ``base``            dx with coefficients in the base variables only

The contact covectors are

    om^K   = dy^K   - y^K_l dx^l         (l = 1..n)
    om^K_j = dy^K_j - y^K_jl dx^l
    omt^s  = dw^s   - w^s_i dw^i         (i over the selected labels)

and they are written down once: ``_DIFFERENTIAL`` pairs each contact kind
with its differential and ``_slopes`` gives the (slope, base covector)
terms.  ``_CONTACT_MODE`` pairs each basis of differentials with the contact
basis on the same chart, and one routine, ``_change_basis``, does every move
between them: the four public converters, ``form_equal``, ``ext_d``,
``lie_derivative``, ``horizontalize``, ``contact_component``,
``pullback_immersion`` and ``reduce_contact_ideal`` all go through it, and a
move across chart families raises there.  ``horizontalize`` and the pairing
in ``contract`` read the slopes too, and every constructor and checker goes
through these.

Words are sorted, signed and summed in one place, ``form``: ``wedge``,
``ext_d``, ``contract``, ``lie_derivative`` and ``substitute_covectors`` hand
it their (word, coefficient) pairs, and only ``DiffForm.__add__`` also sums
coefficients by word, of two forms already sorted.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import lru_cache, reduce
from itertools import combinations

from . import Frozen
from .charts import AdaptedChart, JetChart
from .expr import (
    EqualResult, Expr, ExprError, ONE, Sym, ZERO, _Keyed, const, diff,
    equal, expr_sum, free_symbols, substitute, sym_expr, to_dsl,
)

__all__ = [
    "Covector", "DiffForm", "FormError", "Immersion", "VectorField",
    "dx", "dy", "dyj", "om", "omj", "dw", "dwj", "omt",
    "form", "zero_form", "volume_form", "wedge", "wedge_all", "ext_d",
    "contract", "horizontalize", "contact_component",
    "to_contact", "to_coordinate", "lie_derivative",
    "pullback_immersion", "to_adapted_contact", "from_adapted_contact",
    "reduce_contact_ideal", "form_equal", "form_vanishes", "form_to_json",
]


class FormError(ExprError):
    pass


# ---------------------------------------------------------------------------
# covectors
# ---------------------------------------------------------------------------

# kind -> LaTeX stem, in rank order; a kind ending in 1 carries a lower index
_COV_LATEX = {"dx": "\\mathrm{d}x", "dy": "\\mathrm{d}y", "dy1": "\\mathrm{d}y",
              "om": "\\omega", "om1": "\\omega", "dw": "\\mathrm{d}w",
              "dw1": "\\mathrm{d}w", "omt": "\\tilde{\\omega}"}
_COV_RANK = {kind: rank for rank, kind in enumerate(_COV_LATEX)}
# each contact kind and the differential it is formed from
_DIFFERENTIAL = {"om": "dy", "om1": "dy1", "omt": "dw"}
_CONTACT = {d: c for c, d in _DIFFERENTIAL.items()}
# each differential kind and the coordinate kind it differentiates
_COORDINATE = {"dx": "x", "dy": "y", "dy1": "y1", "dw": "w", "dw1": "w1"}
_COVECTOR = {s: d for d, s in _COORDINATE.items()}


class Covector(_Keyed):
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind: str, a: int, b: int = 0):
        if kind not in _COV_RANK:
            raise FormError(f"unknown covector kind {kind!r}")
        self.kind = kind
        self.a = a
        self.b = b
        self.key = (_COV_RANK[kind], a, b)
        self._hash = hash(("cov", self.key))

    def name(self) -> str:
        if self.kind.endswith("1"):
            return f"{self.kind[:-1]}{self.a}_{self.b}"
        return f"{self.kind}{self.a}"

    def latex(self) -> str:
        lower = f"_{{{self.b}}}" if self.kind.endswith("1") else ""
        return f"{_COV_LATEX[self.kind]}^{{{self.a}}}{lower}"

    def __repr__(self):
        return self.name()


def dx(i: int) -> Covector:
    return Covector("dx", i)


def dy(K: int) -> Covector:
    return Covector("dy", K)


def dyj(K: int, j: int) -> Covector:
    return Covector("dy1", K, j)


def om(K: int) -> Covector:
    return Covector("om", K)


def omj(K: int, j: int) -> Covector:
    return Covector("om1", K, j)


def dw(K: int) -> Covector:
    return Covector("dw", K)


def dwj(s: int, i: int) -> Covector:
    return Covector("dw1", s, i)


def omt(s: int) -> Covector:
    return Covector("omt", s)


_MODE_KINDS = {
    "coordinate": {"dx", "dy", "dy1"},
    "contact": {"dx", "om", "om1"},
    "adapted": {"dw", "dw1"},
    "adapted-contact": {"dw", "dw1", "omt"},
    "base": {"dx"},
}
# each basis of differentials and the contact basis on the same chart
_CONTACT_MODE = {"coordinate": "contact", "adapted": "adapted-contact"}
_DIFFERENTIAL_MODE = {c: d for d, c in _CONTACT_MODE.items()}

Word = tuple  # tuple[Covector, ...] strictly increasing by key


def _sort_word(word: Sequence[Covector]) -> tuple[int, Word | None]:
    """Sort a covector tuple by insertion, flipping the sign once per swap;
    a word that repeats a covector gives (0, None)."""
    out = list(word)
    sign = 1
    for i, cov in enumerate(word):
        j = i
        while j and out[j - 1].key > cov.key:
            out[j] = out[j - 1]
            sign = -sign
            j -= 1
        # the sorted prefix holds an equal covector only next to this one
        if j and out[j - 1].key == cov.key:
            return 0, None
        out[j] = cov
    return sign, tuple(out)


# ---------------------------------------------------------------------------
# the form class
# ---------------------------------------------------------------------------

class DiffForm:
    """Exterior form with scalar-expression coefficients."""

    __slots__ = ("chart", "adapted", "degree", "mode", "terms")

    def __init__(self, chart: JetChart, degree: int, mode: str,
                 terms: Mapping[Word, Expr] | None = None,
                 adapted: AdaptedChart | None = None):
        if mode not in _MODE_KINDS:
            raise FormError(f"unknown basis mode {mode!r}")
        if mode.startswith("adapted") and adapted is None:
            raise FormError(f"mode {mode!r} needs an adapted chart")
        self.chart = chart
        self.adapted = adapted
        self.degree = degree
        self.mode = mode
        clean: dict[Word, Expr] = {}
        allowed = _MODE_KINDS[mode]
        for word, coeff in (terms or {}).items():
            if len(word) != degree:
                raise FormError(
                    f"word {word} has length {len(word)}, degree is {degree}")
            for cov in word:
                if cov.kind not in allowed:
                    raise FormError(f"covector {cov!r} not allowed in mode {mode!r}")
            if list(word) != sorted(word, key=lambda c: c.key):
                raise FormError(f"word {word} is not sorted")
            if not coeff.is_zero:
                clean[word] = coeff
        self.terms = clean

    # -- basics --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: tuple(c.key for c in kv[0]))

    def coefficient(self, word: Sequence[Covector]) -> Expr:
        sign, sorted_word = _sort_word(tuple(word))
        if sorted_word is None:
            return ZERO
        c = self.terms.get(sorted_word, ZERO)
        return c if sign == 1 else -c

    def map_coefficients(self, fn: Callable[[Expr], Expr]) -> "DiffForm":
        return DiffForm(self.chart, self.degree, self.mode,
                        {w: fn(c) for w, c in self.terms.items()},
                        adapted=self.adapted)

    def __add__(self, other: "DiffForm") -> "DiffForm":
        self._compatible(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, ZERO) + c
        return DiffForm(self.chart, self.degree, self.mode, out,
                        adapted=self.adapted)

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + other.scale(const(-1))

    def scale(self, factor) -> "DiffForm":
        factor = factor if isinstance(factor, Expr) else const(factor)
        return self.map_coefficients(lambda c: c * factor)

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.mode == other.mode
                and self.degree == other.degree and self.terms == other.terms)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for word, coeff in self.items():
            label = "^".join(c.name() for c in word) or "1"
            parts.append(f"({to_dsl(coeff)}) {label}")
        return " + ".join(parts)

    def _compatible(self, other: "DiffForm") -> None:
        if self.mode != other.mode or self.degree != other.degree:
            raise FormError(
                f"incompatible forms: {self.mode}/{self.degree} vs "
                f"{other.mode}/{other.degree}")


def zero_form(chart: JetChart, degree: int, mode: str = "coordinate",
              adapted: AdaptedChart | None = None) -> DiffForm:
    return DiffForm(chart, degree, mode, {}, adapted=adapted)


def form(chart: JetChart, mode: str, terms: Mapping | Iterable[tuple],
         adapted: AdaptedChart | None = None,
         degree: int | None = None) -> DiffForm:
    """The form of (word, coefficient) pairs, given as a mapping from words
    or as an iterable of pairs: the one place where words are sorted, signed
    and summed.

    Each word is sorted and its coefficient signed by the sort; a word that
    repeats a covector, or a zero coefficient, adds nothing.  Coefficients
    are summed by sorted word in the order given.  The degree is ``degree``,
    or else the length of the first word.
    """
    acc: dict[Word, Expr] = {}
    for word, coeff in terms.items() if isinstance(terms, Mapping) else terms:
        if degree is None:
            degree = len(word)
        coeff = coeff if isinstance(coeff, Expr) else const(coeff)
        sign, sorted_word = _sort_word(word)
        if sorted_word is not None and not coeff.is_zero:
            add = coeff if sign == 1 else -coeff
            acc[sorted_word] = acc.get(sorted_word, ZERO) + add
    if degree is None:
        raise FormError("cannot infer the degree of an empty term map")
    return DiffForm(chart, degree, mode, acc, adapted=adapted)


def volume_form(chart: JetChart) -> DiffForm:
    word = tuple(dx(i) for i in range(1, chart.n + 1))
    return DiffForm(chart, chart.n, "contact", {word: ONE})


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    if a.mode != b.mode:
        raise FormError(f"wedge across modes {a.mode!r} and {b.mode!r}")
    # a pair that shares a covector is skipped before its product is formed
    terms = ((wa + wb, ca * cb) for wa, ca in a.terms.items()
             for wb, cb in b.terms.items() if set(wa).isdisjoint(wb))
    return form(a.chart, a.mode, terms, adapted=a.adapted,
                degree=a.degree + b.degree)


def wedge_all(factors: Sequence[DiffForm]) -> DiffForm:
    return reduce(wedge, factors)


# ---------------------------------------------------------------------------
# covector substitution machinery
# ---------------------------------------------------------------------------

def substitute_covectors(a: DiffForm, fn: Callable[[Covector], list],
                         new_mode: str) -> DiffForm:
    """Rewrite each covector as a linear combination given by fn; the result
    keeps a's adapted chart if new_mode is an adapted mode."""
    def terms():
        for word, coeff in a.terms.items():
            expanded = [((), coeff)]
            for cov in word:
                branches = fn(cov)
                expanded = [(w + (branch_cov,), c) for w, partial in expanded
                            for branch_coeff, branch_cov in branches
                            if not (c := partial * branch_coeff).is_zero]
            yield from expanded

    adapted = a.adapted if new_mode.startswith("adapted") else None
    return form(a.chart, new_mode, terms(), adapted=adapted, degree=a.degree)


def _coordinate(cov: Covector) -> Sym:
    """The coordinate that a differential covector differentiates."""
    return Sym(_COORDINATE[cov.kind], cov.a, cov.b)


def _slopes(cov: Covector, a: DiffForm) -> list[tuple[Sym, Covector]]:
    """The (slope, base covector) pairs of the contact covector over cov.

    cov is a contact covector or its differential, on the chart of a; the
    contact covector is the differential minus the slopes times the bases.
    """
    kind = _DIFFERENTIAL.get(cov.kind, cov.kind)
    if kind == "dw":
        return [(Sym("w1", cov.a, i), dw(i)) for i in a.adapted.selected]
    ls = range(1, a.chart.n + 1)
    if kind == "dy":
        return [(Sym("y1", cov.a, l), dx(l)) for l in ls]
    return [(Sym("y2", cov.a, cov.b, l), dx(l)) for l in ls]


def _change_basis(a: DiffForm, mode: str) -> DiffForm:
    """Rewrite a into mode by the contact definitions.

    Into a contact mode each differential becomes its contact covector plus
    the slope terms (dy^K_j = om^K_j + y^K_jl dx^l raises the order of the
    coefficients); out of one each contact covector becomes its differential
    minus them.  dx and the selected dw^i are base covectors and stay.  Only
    the modes that ``_CONTACT_MODE`` pairs are moved between.
    """
    if a.mode == mode:
        return a
    into_contact = _CONTACT_MODE.get(a.mode) == mode
    if not into_contact and _DIFFERENTIAL_MODE.get(a.mode) != mode:
        raise FormError(f"cannot move mode {a.mode!r} to the {mode!r} basis")
    partner = _CONTACT if into_contact else _DIFFERENTIAL

    def fn(cov: Covector):
        kind = partner.get(cov.kind)
        if kind is None or (kind == "omt" and cov.a not in a.adapted.complement):
            return [(ONE, cov)]
        return [(ONE, Covector(kind, cov.a, cov.b))] + [
            (sym_expr(s) if into_contact else -sym_expr(s), base)
            for s, base in _slopes(cov, a)]

    return substitute_covectors(a, fn, mode)


def to_contact(a: DiffForm) -> DiffForm:
    """Definitional rewrite into the contact basis on the jet chart."""
    return _change_basis(a, "contact")


def to_coordinate(a: DiffForm) -> DiffForm:
    return _change_basis(a, "coordinate")


def to_adapted_contact(a: DiffForm) -> DiffForm:
    return _change_basis(a, "adapted-contact")


def from_adapted_contact(a: DiffForm) -> DiffForm:
    return _change_basis(a, "adapted")


# ---------------------------------------------------------------------------
# exterior derivative, contraction, horizontalization
# ---------------------------------------------------------------------------

def _differentials(f: Expr, a: DiffForm) -> list[tuple[Sym, Covector]]:
    """The symbols of f in key order, each with its differential on a's chart."""
    adapted = a.mode.startswith("adapted")
    syms = free_symbols(f)
    if not adapted and any(s.kind == "y2" for s in syms):
        raise FormError(
            "exterior derivative needs second-order covectors for "
            "second-order coefficients; not representable here")
    allowed = _MODE_KINDS["adapted" if adapted else "coordinate"]
    out = []
    for s in sorted(syms, key=lambda t: t.key):
        kind = _COVECTOR.get(s.kind)
        # the slopes w^s_i are coordinates for s in the complement only
        if kind in allowed and (kind != "dw1" or s.a in a.adapted.complement):
            out.append((s, Covector(kind, s.a, s.b)))
        elif adapted:
            raise FormError(
                f"adapted coefficient depends on {s!r}; forms on the "
                "quotient chart use only fiber and contact-slope symbols")
        elif a.mode == "base":
            raise FormError(f"base-mode coefficient depends on {s!r}")
        else:
            raise FormError(f"coefficient depends on foreign symbol {s!r}")
    return out


def _differential_basis(a: DiffForm) -> DiffForm:
    """a in the basis of differentials: contact covectors are rewritten."""
    return _change_basis(a, _DIFFERENTIAL_MODE.get(a.mode, a.mode))


def ext_d(a: DiffForm) -> DiffForm:
    """Exterior derivative; contact-basis input is converted first."""
    src = _differential_basis(a)
    terms = (((cov,) + word, diff(coeff, s)) for word, coeff in src.terms.items()
             for s, cov in _differentials(coeff, src))
    return form(src.chart, src.mode, terms, adapted=src.adapted,
                degree=src.degree + 1)


class VectorField(Frozen):
    """Vector field with components keyed by the coordinate they differentiate."""

    __slots__ = ("chart", "components", "adapted")

    def __init__(self, chart: JetChart, components: Mapping[Sym, Expr],
                 adapted: AdaptedChart | None = None):
        self._freeze(chart, components, adapted)

    def component(self, s: Sym) -> Expr:
        return self.components.get(s, ZERO)


def _pair(field: VectorField, cov: Covector, a: DiffForm) -> Expr:
    """The value of cov, a covector of the form a, on field."""
    kind = _DIFFERENTIAL.get(cov.kind)
    if kind is None:
        return field.component(_coordinate(cov))
    base = field.component(Sym(_COORDINATE[kind], cov.a, cov.b))
    correction = expr_sum(sym_expr(s) * field.component(_coordinate(b))
                          for s, b in _slopes(cov, a))
    return base - correction


def contract(field: VectorField, a: DiffForm) -> DiffForm:
    """Interior product i_X a."""
    if a.degree == 0:
        raise FormError("cannot contract a 0-form")

    def terms():
        for word, coeff in a.terms.items():
            for pos, cov in enumerate(word):
                add = coeff * _pair(field, cov, a)
                yield word[:pos] + word[pos + 1:], -add if pos % 2 else add

    return form(a.chart, a.mode, terms(), adapted=a.adapted,
                degree=a.degree - 1)


def horizontalize(a: DiffForm) -> DiffForm:
    """The horizontal part along prolonged immersions (dx-words only), in
    coordinate mode; a base-mode form is its own horizontal part."""
    src = a if a.mode == "base" else _change_basis(a, "coordinate")

    def fn(cov: Covector):
        if cov.kind == "dx":
            return [(ONE, cov)]
        return [(sym_expr(s), base) for s, base in _slopes(cov, src)]

    return substitute_covectors(src, fn, "coordinate")


def contact_component(a: DiffForm, k: int) -> DiffForm:
    """The k-contact part of the order-raised form (k counts contact factors)."""
    c = _change_basis(a, "contact")
    out = {w: coeff for w, coeff in c.terms.items()
           if sum(1 for cov in w if cov.kind in _DIFFERENTIAL) == k}
    return DiffForm(c.chart, c.degree, "contact", out, adapted=c.adapted)


# ---------------------------------------------------------------------------
# Lie derivative and pullback
# ---------------------------------------------------------------------------

def lie_derivative(field: VectorField, a: DiffForm) -> DiffForm:
    """Lie derivative L_X a by the coordinate formula

        L_X(f dz^I) = X(f) dz^I
                      + f sum_k dz^i1 ^ .. ^ d(X^ik) ^ .. ^ dz^in,

    where X(f) = sum_s X^s df/ds and X^ik is the component of X along z^ik.
    Contact-basis input is converted first, as in ``ext_d``.  f is
    differentiated only along the symbols where X has a nonzero component;
    the result equals Cartan's formula i_X d a + d i_X a.
    """
    src = _differential_basis(a)

    def terms():
        for word, coeff in src.terms.items():
            along = [(field.component(s), s)
                     for s, _ in _differentials(coeff, src)]
            yield word, expr_sum(c * diff(coeff, s) for c, s in along
                                 if not c.is_zero)
            for pos, cov in enumerate(word):
                comp = field.component(_coordinate(cov))
                for s, dcov in _differentials(comp, src):
                    # d(X^ik) in place of dz^ik; the sort signs it
                    yield (word[:pos] + (dcov,) + word[pos + 1:],
                           coeff * diff(comp, s))

    return form(src.chart, src.mode, terms(), adapted=src.adapted,
                degree=src.degree)


class Immersion(Frozen):
    """Closed-form immersion of the base into the configuration space."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: JetChart, components: tuple[Expr, ...]):
        if len(components) != chart.M:
            raise FormError(
                f"immersion needs {chart.M} components, got "
                f"{len(components)}")
        for c in components:
            for s in sorted(free_symbols(c), key=lambda t: t.key):
                if s.kind != "x":
                    raise FormError(
                        f"immersion components depend on base variables only, "
                        f"found {s!r}")
        self._freeze(chart, components)

    def jet1(self, K: int, j: int) -> Expr:
        return diff(self.components[K - 1], Sym("x", j))

    def jet2(self, K: int, j: int, k: int) -> Expr:
        return diff(self.jet1(K, j), Sym("x", k))

    def substitution(self, order: int = 2) -> dict[Sym, Expr]:
        chart = self.chart
        out: dict[Sym, Expr] = {}
        for K in range(1, chart.M + 1):
            out[Sym("y", K)] = self.components[K - 1]
            for j in range(1, chart.n + 1):
                out[Sym("y1", K, j)] = self.jet1(K, j)
                if order >= 2:
                    for k in range(j, chart.n + 1):
                        out[Sym("y2", K, j, k)] = self.jet2(K, j, k)
        return out

    def adapted_substitution(self, ad: AdaptedChart) -> dict[Sym, Expr]:
        """Values of the adapted coordinates along the prolonged immersion."""
        jets = self.substitution(order=1)
        return {s: substitute(v, jets) for s, v in ad.w_in_terms_of_y().items()}


def pullback_immersion(a: DiffForm, zeta: Immersion) -> DiffForm:
    """Pull a form back along the prolonged immersion; result is base-mode.

    A differential pulls back to the differential of its coordinate's value
    along the immersion, and a contact covector to zero.
    """
    if a.mode == "base":
        return a
    if a.mode.startswith("adapted"):
        src = _change_basis(a, "adapted")
        coeff_map = zeta.adapted_substitution(a.adapted)
    else:
        src, coeff_map = a, zeta.substitution()
    xs = range(1, a.chart.n + 1)

    def fn(cov: Covector):
        if cov.kind == "dx":
            return [(ONE, cov)]
        if cov.kind in _DIFFERENTIAL:
            return []  # contact covectors vanish along prolongations
        value = coeff_map[_coordinate(cov)]
        return [(diff(value, Sym("x", j)), dx(j)) for j in xs]

    src = src.map_coefficients(lambda c: substitute(c, coeff_map))
    return substitute_covectors(src, fn, "base")


# ---------------------------------------------------------------------------
# contact ideal on adapted charts
# ---------------------------------------------------------------------------

def reduce_contact_ideal(a: DiffForm) -> DiffForm:
    """Normal form of an adapted form modulo the contact ideal.

    The ideal is generated by the adapted contact covectors and their
    differentials.  After rewriting into the adapted-contact basis, terms
    carrying a contact factor are dropped and the span of (d contact) wedge
    (basis words) is eliminated by exact Gaussian reduction; generator
    coefficients are constants, so no division by symbols occurs.
    """
    c = _change_basis(a, "adapted-contact")
    residual = DiffForm(c.chart, c.degree, c.mode,
                        {w: coeff for w, coeff in c.terms.items()
                         if all(cov.kind != "omt" for cov in w)},
                        adapted=c.adapted)
    if c.degree < 2 or residual.is_zero:
        return residual
    for g in _contact_generators(c.adapted, c.degree):
        residual = _eliminate(residual, g)
    return residual


@lru_cache
def _contact_generators(ad: AdaptedChart, degree: int) -> tuple[DiffForm, ...]:
    """The generators (sum_i dw^i ^ dw^s_i) ^ chi of degree ``degree``, over
    omt-free basis words chi in key order, each reduced against the earlier
    ones (RREF); they depend on the chart and the degree only."""
    basis = [dw(i) for i in ad.selected]
    basis += [dwj(s, i) for s in ad.complement for i in ad.selected]
    gens: list[DiffForm] = []
    for s in ad.complement:
        for chi in combinations(basis, degree - 2):
            gen = form(ad.chart, "adapted-contact",
                       [((dw(i), dwj(s, i)) + chi, ONE) for i in ad.selected],
                       adapted=ad, degree=degree)
            for g in gens:
                gen = _eliminate(gen, g)
            if not gen.is_zero:
                gens.append(gen)
    return tuple(gens)


def _eliminate(f: DiffForm, g: DiffForm) -> DiffForm:
    """f less the multiple of g that clears g's largest word from f."""
    w = g.items()[-1][0]
    return f - g.scale(f.terms[w] / g.terms[w]) if w in f.terms else f


# ---------------------------------------------------------------------------
# comparison and serialization
# ---------------------------------------------------------------------------

def form_equal(a: DiffForm, b: DiffForm, *, trials: int = 20, tol: float = 1e-9,
               seed: int = 0, guards: Sequence[Expr] = ()) -> EqualResult:
    """Coefficient-wise comparison of a with b moved into a's basis mode
    (by ``_change_basis``, which does every mode move).

    A failure is the first unequal coefficient's verdict, or else the last
    unknown one, with ``word`` set; 'equal' sums the coefficients' samples
    and keeps their largest deviation, and is structural when every
    coefficient was; ``skipped`` sums the skip counts of the coefficients
    compared.
    """
    if a.degree != b.degree:
        return EqualResult("unequal", decided_by="structural")
    b = _change_basis(b, a.mode)
    words = sorted(set(a.terms) | set(b.terms),
                   key=lambda w: tuple(c.key for c in w))
    skipped = {"guard": 0, "domain": 0, "overflow": 0}
    samples, worst, unknown = 0, 0.0, None
    for word in words:
        res = equal(a.terms.get(word, ZERO), b.terms.get(word, ZERO),
                    trials=trials, tol=tol, seed=seed, guards=guards)
        for reason, k in res.skipped.items():
            skipped[reason] += k
        if res.verdict != "equal":
            # shares the running skip counts, so an unknown verdict ends
            # with every word's
            res = EqualResult(res.verdict, res.witness, res.witness_values,
                              res.samples, res.max_deviation, word, skipped,
                              res.decided_by)
            if res.verdict == "unequal":
                return res
            unknown = res
        samples += res.samples
        worst = max(worst, res.max_deviation)
    if unknown is not None:
        return unknown
    return EqualResult("equal", samples=samples, max_deviation=worst,
                       skipped=skipped,
                       decided_by="sampled" if samples else "structural")


def form_vanishes(a: DiffForm, **options) -> EqualResult:
    """The zero test of a form: ``form_equal`` with 0·a, its zero form."""
    return form_equal(a, a.scale(ZERO), **options)


def form_to_json(a: DiffForm) -> dict:
    return {
        "degree": a.degree,
        "mode": a.mode,
        "terms": [{"word": [c.name() for c in word], "coeff": to_dsl(coeff)}
                  for word, coeff in a.items()],
    }
