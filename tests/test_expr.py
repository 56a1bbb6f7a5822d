"""Tests for the scalar expression engine."""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

import pytest

import lepage.expr as expr_module
from lepage.expr import (
    DomainError, EqualResult, ExpressionSizeError, ParseError, PointAssignment,
    Sym, aa, analytic, atan_expr, cancel_candidate, const, cos_expr, det_expr,
    diff, equal, evaluate, exp_expr, expr_sum, free_symbols, levi_civita,
    log_expr, opaque, parse, sin_expr, sqrt_expr,
    sqrt_extract_candidate, substitute, sym_expr, to_dsl, to_latex, wj, ww, x,
    yj, yjk, yy, zz, ZERO, ONE,
)


# ---------------------------------------------------------------------------
# random expression corpus
# ---------------------------------------------------------------------------

SYMS = [Sym("x", 1), Sym("x", 2), Sym("y", 1), Sym("y", 2),
        Sym("y1", 1, 1), Sym("y1", 1, 2), Sym("y1", 2, 1), Sym("y1", 2, 2)]


def random_expr(rng: random.Random, depth: int):
    """A random expression tree of bounded depth (polynomial plus sqrt/opaque)."""
    if depth == 0:
        pick = rng.random()
        if pick < 0.5:
            return sym_expr(rng.choice(SYMS))
        if pick < 0.8:
            return const(Fraction(rng.randint(-4, 4)))
        return opaque("F", sym_expr(rng.choice(SYMS[:4])))
    op = rng.random()
    if op < 0.35:
        return random_expr(rng, depth - 1) + random_expr(rng, depth - 1)
    if op < 0.7:
        return random_expr(rng, depth - 1) * random_expr(rng, depth - 1)
    if op < 0.8:
        return random_expr(rng, depth - 1) - random_expr(rng, depth - 1)
    if op < 0.9:
        return random_expr(rng, depth - 1) ** rng.randint(1, 2)
    # keep radicands positive so evaluation stays inside the domain
    inner = random_expr(rng, depth - 1)
    return sqrt_expr(inner * inner + 1)


def assignment_for(exprs, seed=0):
    symbols = set()
    signatures = set()
    from lepage.expr import opaque_signatures
    for e in exprs:
        symbols |= set(free_symbols(e))
        signatures |= opaque_signatures(e)
    rng = random.Random(seed)
    values = {s: rng.uniform(0.2, 1.5) for s in sorted(symbols, key=lambda t: t.key)}
    funcs = {}
    for name, deriv, _ in sorted(signatures):
        val = rng.uniform(0.2, 1.5)
        funcs[(name, deriv)] = val
    return PointAssignment(values, funcs)


# ---------------------------------------------------------------------------
# normal form behaviour
# ---------------------------------------------------------------------------

def test_basic_expansion_and_cancellation():
    a, b = yj(1, 1), yj(2, 1)
    assert to_dsl((a + b) * (a - b)) == to_dsl(a * a - b * b)
    assert ((a + b) ** 2 - (a * a + 2 * a * b + b * b)).is_zero
    assert (a / a).is_one
    s = sqrt_expr(a * a + 1)
    assert (s * s - (a * a + 1)).is_zero
    assert (s / s).is_one
    # rationalized denominator: 1/sqrt(u) = sqrt(u)/u
    inv = 1 / s
    assert to_dsl(inv) == "(sqrt(1 + y1_1^2))*(1 + y1_1^2)^-1"


def test_normalize_idempotent_on_random_corpus():
    rng = random.Random(7)
    for _ in range(60):
        e = random_expr(rng, rng.randint(1, 4))
        # rebuilding from the printed form gives the identical normal form
        assert parse(to_dsl(e)) == e


def test_fraction_arithmetic_exact():
    e = const(Fraction(1, 3)) + const(Fraction(1, 6))
    assert e.as_fraction() == Fraction(1, 2)
    assert (const(2) ** -1).as_fraction() == Fraction(1, 2)


def test_sqrt_rational_content_extraction():
    a = yj(1, 1)
    assert to_dsl(sqrt_expr(4 * a * a + 4)) == "2*sqrt(1 + y1_1^2)"
    assert sqrt_expr(const(9)).as_fraction() == 3
    assert to_dsl(sqrt_expr(const(8))) == "2*sqrt(2)"


def test_sqrt_of_square_is_not_collapsed():
    # sqrt(u^2) is |u|, not u; the engine must keep it opaque
    a = yj(1, 1)
    s = sqrt_expr(a * a)
    assert not (s - a).is_zero


def test_sin_square_fold():
    u = x(1)
    e = sin_expr(u) ** 2 + cos_expr(u) ** 2
    assert e.is_one
    e4 = sin_expr(u) ** 4
    expanded = (1 - cos_expr(u) ** 2) ** 2
    assert e4 == expanded


def test_expr_sum_groups_denominators():
    a = yj(1, 1)
    s = sqrt_expr(a * a + 1)
    total = expr_sum([a / s, 1 / s, (a - 1) / s])
    assert (total - (2 * a) / s).is_zero


def test_cancel_candidate_and_sqrt_extract():
    a, b = wj(3, 1), wj(3, 2)
    delta = ww(1) * ww(2) - ww(3)  # stand-in polynomial candidate
    R = 1 + a * a + b * b
    e = (delta * delta * a) / (delta * delta * R)
    assert cancel_candidate(e, delta) == a / R
    s = sqrt_expr(delta * delta * R)
    extracted = sqrt_extract_candidate(s, delta)
    assert extracted == delta * sqrt_expr(R)


def test_node_cap_raises(monkeypatch):
    monkeypatch.setattr(expr_module, "NODE_CAP", 1000)
    base = expr_sum([yj(1, 1), yj(2, 1), yy(1), yy(2), x(1), x(2), const(1)])
    with pytest.raises(ExpressionSizeError):
        e = base
        for _ in range(12):
            e = e * e


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_diff_polynomial_rules():
    a, b = yj(1, 1), yj(2, 1)
    e = a ** 3 * b + 2 * a
    assert diff(e, Sym("y1", 1, 1)) == 3 * a ** 2 * b + 2
    assert diff(e, Sym("y1", 2, 1)) == a ** 3
    assert diff(e, Sym("x", 1)).is_zero


def test_diff_commutes_on_random_trees():
    rng = random.Random(11)
    for _ in range(40):
        e = random_expr(rng, rng.randint(1, 4))
        s1, s2 = rng.sample(SYMS, 2)
        assert diff(diff(e, s1), s2) == diff(diff(e, s2), s1)


def test_leibniz_on_random_trees():
    rng = random.Random(13)
    for _ in range(40):
        f = random_expr(rng, rng.randint(1, 3))
        g = random_expr(rng, rng.randint(1, 3))
        s = rng.choice(SYMS)
        lhs = diff(f * g, s)
        rhs = diff(f, s) * g + f * diff(g, s)
        assert (lhs - rhs).is_zero


def test_diff_opaque_multi_index_symmetrized():
    g = opaque("g", yy(1), yy(2))
    d12 = diff(diff(g, Sym("y", 1)), Sym("y", 2))
    d21 = diff(diff(g, Sym("y", 2)), Sym("y", 1))
    assert d12 == d21
    assert "g_d12(y1, y2)" in to_dsl(d12)


def test_diff_sqrt_keeps_denominator_root_free():
    a = yj(1, 1)
    u = a * a + 1
    d = diff(sqrt_expr(u), Sym("y1", 1, 1))
    # d sqrt(u) = a sqrt(u) / u in rationalized form
    assert d == a * sqrt_expr(u) / u


def test_diff_analytic_rules_numeric():
    u = x(1)
    cases = [
        (sin_expr(u), lambda t: math.cos(t)),
        (cos_expr(u), lambda t: -math.sin(t)),
        (exp_expr(u), lambda t: math.exp(t)),
        (log_expr(u), lambda t: 1 / t),
        (atan_expr(u), lambda t: 1 / (1 + t * t)),
    ]
    for e, expected in cases:
        d = diff(e, Sym("x", 1))
        val = evaluate(d, PointAssignment({Sym("x", 1): 0.7}))
        assert val == pytest.approx(expected(0.7), rel=1e-12)


def test_second_jet_symbol_index_symmetry():
    e = yjk(1, 2, 1)  # stored as y1_12
    assert to_dsl(e) == "y1_12"
    assert diff(e, Sym("y2", 1, 1, 2)).is_one


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_simultaneous():
    a, b = yy(1), yy(2)
    e = a * b
    swapped = substitute(e, {Sym("y", 1): b, Sym("y", 2): a})
    assert swapped == e  # product is symmetric
    e2 = a - b
    assert substitute(e2, {Sym("y", 1): b, Sym("y", 2): a}) == b - a


def test_substitute_into_functions_and_roots():
    g = opaque("g", yy(1))
    e = sqrt_expr(g * g + 1) + g
    sub = substitute(e, {Sym("y", 1): x(1) + 1})
    expected = sqrt_expr(opaque("g", x(1) + 1) ** 2 + 1) + opaque("g", x(1) + 1)
    assert sub == expected


def test_substitute_numeric_consistency():
    rng = random.Random(17)
    for _ in range(20):
        e = random_expr(rng, 3)
        target = Sym("y1", 1, 1)
        repl = random_expr(rng, 2)
        sub = substitute(e, {target: repl})
        assign = assignment_for([e, repl, sub], seed=rng.randint(0, 10 ** 6))
        try:
            inner = evaluate(repl, assign)
            direct = evaluate(sub, assign)
            patched = PointAssignment({**assign.symbols, target: inner},
                                      assign.functions)
            via = evaluate(e, patched)
        except DomainError:
            continue
        assert direct == pytest.approx(via, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# evaluation and equality
# ---------------------------------------------------------------------------

def test_evaluate_domain_errors():
    a = yj(1, 1)
    s = sqrt_expr(a)
    with pytest.raises(DomainError):
        evaluate(s, PointAssignment({Sym("y1", 1, 1): -1.0}))
    with pytest.raises(DomainError):
        evaluate(1 / a, PointAssignment({Sym("y1", 1, 1): 0.0}))
    with pytest.raises(DomainError):
        evaluate(log_expr(a), PointAssignment({Sym("y1", 1, 1): -2.0}))


def test_equal_exact_and_sampled():
    a, b = yj(1, 1), yj(2, 1)
    assert equal((a + b) ** 2, a * a + 2 * a * b + b * b).verdict == "equal"
    r = equal(a * b, b * a + 1)
    assert r.verdict == "unequal"
    assert r.witness is not None
    assert "y1_1" in r.witness.describe()


def test_equal_handles_opaque_functions():
    g = opaque("g", yy(1))
    dg = diff(g, Sym("y", 1))
    # chain rule identity: d/dy g(y)^2 = 2 g g'
    lhs = diff(g * g, Sym("y", 1))
    assert equal(lhs, 2 * g * dg).verdict == "equal"
    assert equal(lhs, 2 * g).verdict == "unequal"


def test_equal_unknown_when_all_points_skipped():
    a = yj(1, 1)
    # radicand -1 - a^2 is always negative on the sampling box
    s = sqrt_expr(-1 - a * a)
    r = equal(s, s + 1)
    assert r.verdict == "unknown"


def test_equal_respects_guards():
    a = yj(1, 1)
    e1 = sqrt_expr(a * a)  # |a|
    r = equal(e1, a, guards=[a])  # restrict sampling to a > 0
    assert r.verdict == "equal"
    assert equal(e1, a).verdict == "unequal"


def test_equal_deterministic_for_seed():
    a, b = yj(1, 1), yj(2, 1)
    r1 = equal(a * b, a + b, seed=5)
    r2 = equal(a * b, a + b, seed=5)
    assert r1.verdict == r2.verdict == "unequal"
    assert r1.witness.symbols == r2.witness.symbols


def test_sampler_seed_is_an_8_byte_blake2b_of_the_parts():
    # the sampler takes blake2b from _blake2, which is hashlib's own function,
    # so every sampled point, witness and report stays what hashlib gave
    import hashlib
    assert expr_module.blake2b is hashlib.blake2b
    for parts in ((0, 0, "sym", Sym("x", 1).key), (7, 19),
                  (1702, 3, "sym", Sym("y1", 2, 1).key),
                  (-4, 2, "fun", "g11", (1, 2), (0.5, -1.25))):
        text = "|".join(map(repr, parts))
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        assert expr_module._stable_seed(*parts) == \
            int.from_bytes(digest, "big")
    assert expr_module._stable_seed(0, 0, "sym", Sym("x", 1).key) == \
        7265411456830401962
    s = Sym("y1", 2, 1)
    point = expr_module.sample_assignment({s}, set(), 1702, 3)
    assert point.symbols[s] == -0.5551567960312814


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def test_parse_grammar_forms():
    assert parse("y1_1 * y2_2 - y1_2 * y2_1") == det_expr(
        [[yj(1, 1), yj(1, 2)], [yj(2, 1), yj(2, 2)]])
    assert parse("3/2 * x1^2").as_fraction() is None
    assert parse("0.25").as_fraction() == Fraction(1, 4)
    assert parse("sqrt(1 + y1_1^2)") == sqrt_expr(1 + yj(1, 1) ** 2)
    assert parse("g11(y1, y2)") == opaque("g11", yy(1), yy(2))
    assert parse("g11_d2(y1, y2)") == opaque("g11", yy(1), yy(2), deriv=(2,))
    assert parse("-x1 + x2") == -x(1) + x(2)
    assert parse("(y1 + y2)^-1") == 1 / (yy(1) + yy(2))
    assert parse("w3_1^2") == wj(3, 1) ** 2
    assert parse("z1_2 * a2_1") == zz(1, 2) * aa(2, 1)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse("x1 + ")
    assert err.value.offset == 5
    with pytest.raises(ParseError):
        parse("x1 +* x2")
    with pytest.raises(ParseError):
        parse("q9")
    with pytest.raises(ParseError):
        parse("x1^y1")
    with pytest.raises(ParseError):
        parse("det2(x1, x2)")
    with pytest.raises(ParseError):
        parse("F(x1) + F(x1, x2)")  # inconsistent arity


def test_parse_nesting_limit_counts_groups_and_applications():
    assert parse("(" * 100 + "x1" + ")" * 100) == x(1)
    with pytest.raises(ParseError, match="more than 100 nested") as err:
        parse("(" * 101 + "x1" + ")" * 101)
    assert err.value.offset == 100
    nested = yy(1)
    for _ in range(50):
        nested = sqrt_expr(nested)
    assert parse("sqrt(" * 50 + "(" * 50 + "y1" + ")" * 100) == nested
    with pytest.raises(ParseError, match="more than 100 nested"):
        parse("sqrt(" * 50 + "(" * 51 + "y1" + ")" * 101)
    with pytest.raises(ParseError, match="more than 100 nested"):
        parse("(" * 250 + "x1" + ")" * 250)


@pytest.mark.parametrize("text", [
    "1" * 4400, "1/" + "3" * 4400, "2" * 4400 + "/3", "0." + "5" * 4400,
    "x1^" + "2" * 4400, "1.5/2",
])
def test_parse_unreadable_numbers_raise_parse_error(text):
    with pytest.raises(ParseError, match="cannot read the number"):
        parse(text)


def test_parse_chart_validation():
    from lepage.charts import JetChart
    chart = JetChart(n=2, m=1, order=1)
    with pytest.raises(ParseError):
        parse("x3", chart)
    with pytest.raises(ParseError):
        parse("y4", chart)
    with pytest.raises(ParseError):
        parse("y1_12", chart)  # second order on first-order chart
    assert parse("y3_2", chart) == yj(3, 2)


def test_print_parse_roundtrip_on_printed_corpus():
    rng = random.Random(23)
    for _ in range(100):
        e = random_expr(rng, rng.randint(1, 4))
        printed = to_dsl(e)
        reparsed = parse(printed)
        assert reparsed == e
        assert to_dsl(reparsed) == printed


def test_latex_output_smoke():
    e = sqrt_expr(1 + yj(1, 1) ** 2) / (2 * yy(1))
    s = to_latex(e)
    assert "\\sqrt" in s and "\\frac" in s
    assert to_latex(sin_expr(x(1))) == "\\sin\\left(x^{1}\\right)"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_levi_civita_signs():
    assert levi_civita((1, 2, 3)) == 1
    assert levi_civita((2, 1, 3)) == -1
    assert levi_civita((1, 1, 2)) == 0
    assert levi_civita((3, 1, 2)) == 1


def test_det_expansion_sizes():
    rows = [[opaque(f"m{i}{j}") if False else yy(i * 3 + j + 1) for j in range(3)]
            for i in range(3)]
    # use distinct fiber symbols; det3 expands into 6 signed monomials
    d = det_expr([[yy(1), yy(2), yy(3)], [yy(4), yy(5), yy(6)], [yy(7), yy(8), yy(9)]])
    assert len(d.num) == 6
    with pytest.raises(Exception):
        det_expr([[ONE] * 5 for _ in range(5)])


def test_free_symbols_and_node_count():
    e = sqrt_expr(1 + yj(1, 1) ** 2) * opaque("g", yy(2))
    syms = free_symbols(e)
    assert Sym("y1", 1, 1) in syms and Sym("y", 2) in syms
