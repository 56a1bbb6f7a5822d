"""Evaluation at a point, seeded sample points and comparison verdicts.

The machinery of ``lepage.expr.evaluate`` and ``equal``, split off so that no
process compiles the exact core in one piece; import the classes from there.
"""

from __future__ import annotations

import math
import random
from typing import Mapping

# hashlib.blake2b is this function; importing hashlib would also load
# OpenSSL's libcrypto, about 3 MB per process, for nothing the sampler uses
from _blake2 import blake2b

from . import Frozen


class PointAssignment(Frozen):
    """Numeric values for coordinate symbols and opaque-function signatures.

    ``functions`` maps (name, deriv multi-index) to either a constant or a
    callable taking the evaluated argument tuple.
    """

    __slots__ = _compared = ("symbols", "functions")
    __hash__ = None

    def __init__(self, symbols: Mapping[Sym, float],
                 functions: Mapping[tuple, object] | None = None):
        self._freeze(symbols, {} if functions is None else functions)

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


def _eval_atom(atom, assign: PointAssignment, strict: bool) -> float:
    if isinstance(atom, Sym):
        try:
            return float(assign.symbols[atom])
        except KeyError:
            raise MissingValueError(f"no value for symbol {sym_name(atom)}") from None
    if isinstance(atom, Root):
        v = evaluate(atom.arg, assign, strict=strict)
        if v <= 0.0:
            raise DomainError(f"nonpositive radicand {v:.3g}")
        return math.sqrt(v)
    argvals = tuple(evaluate(a, assign, strict=strict) for a in atom.args)
    if atom.analytic:
        return _ANALYTIC[atom.name].value(argvals[0])
    try:
        entry = assign.functions[(atom.name, atom.deriv)]
    except KeyError:
        label = atom.name if not atom.deriv else \
            f"{atom.name}_d{''.join(map(str, atom.deriv))}"
        raise MissingValueError(f"no value for opaque function {label}") from None
    if callable(entry):
        return float(entry(*argvals))
    return float(entry)


def _evaluate(e: Expr, assign: PointAssignment,
              strict: bool) -> tuple[float, float]:
    # (value, size) of e at a point, where size is the sum of the
    # numerator's |terms| over |denominator|: the magnitude that the
    # value's rounding error follows, taken in the same pass
    def eval_terms(terms) -> tuple[float, float]:
        total = size = 0.0
        for mono, coeff in terms:
            v = float(coeff)
            zero_atom = False
            for at, ex in mono:
                a = _eval_atom(at, assign, strict)
                zero_atom = zero_atom or a == 0.0
                v *= a ** ex
            if strict and not zero_atom and v == 0.0:
                raise DomainError("a term underflows to 0")
            total += v
            size += abs(v)
        if strict and not math.isfinite(size):
            raise OverflowError("a sum of terms overflows")
        return total, size

    num, size = eval_terms(e.num)
    den = eval_terms(e.den)[0]
    if abs(den) < DEN_EPS:
        raise DomainError(f"denominator within {DEN_EPS} of zero")
    v, size = num / den, size / abs(den)
    if strict and not math.isfinite(size):
        raise OverflowError("a quotient overflows")
    return v, size


class EqualResult(Frozen):
    """Verdict of a sampled comparison of two expressions or two forms.

    'unknown' means every sample was skipped; it never passes.  ``word`` is
    the basis word that decided a failed form comparison.  ``skipped`` counts
    skipped samples by reason: 'guard', 'domain' (DomainError) and 'overflow'.
    ``decided_by`` is 'structural' when normal forms (or form degrees)
    decided without a sample, else 'sampled'.
    """

    __slots__ = _compared = ("verdict", "witness", "witness_values", "samples",
                             "max_deviation", "word", "skipped", "decided_by")
    __hash__ = None

    def __init__(self, verdict: str,  # 'equal' | 'unequal' | 'unknown'
                 witness: PointAssignment | None = None,
                 witness_values: tuple[float, float] | None = None,
                 samples: int = 0, max_deviation: float = 0.0,
                 word: tuple | None = None,
                 skipped: dict[str, int] | None = None,
                 decided_by: str = "sampled"):  # 'structural' | 'sampled'
        if skipped is None:
            skipped = {"guard": 0, "domain": 0, "overflow": 0}
        self._freeze(verdict, witness, witness_values, samples, max_deviation,
                     word, skipped, decided_by)

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


class Verdicts(dict):
    """Comparisons keyed by label, in the order they were taken.

    Passes, as a property and as a truth value, when every comparison is
    equal; ``witness()`` is the first (label, result) that is not.
    """

    @property
    def passed(self) -> bool:
        return all(self.values())

    def __bool__(self) -> bool:
        return self.passed

    def witness(self) -> tuple[object, EqualResult] | None:
        return next(((label, res) for label, res in self.items() if not res),
                    None)


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


# last: lepage.expr imports this module at its end; used only inside calls
from .expr import (DEN_EPS, DomainError, Expr, MissingValueError, Root, Sym,
                   _ANALYTIC, evaluate, sym_name)
