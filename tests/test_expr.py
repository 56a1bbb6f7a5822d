"""Tests for the scalar expression engine."""

from __future__ import annotations

import copy
import math
import os
import pickle
import random
import re
from fractions import Fraction

import pytest

import lepage._sampling as sampling_module
import lepage.expr as expr_module
from lepage.expr import (
    DomainError, EqualResult, ExpressionSizeError, ParseError, PointAssignment,
    Sym, Verdicts, aa, analytic, atan_expr, const, cos_expr, det_expr, diff,
    equal, evaluate, exp_expr, expr_sum, free_symbols, levi_civita, log_expr,
    opaque, parse, sin_expr, sqrt_expr, substitute, sym_expr, to_dsl,
    to_latex, wj, x, yj, yjk, yy, zz, ZERO, ONE,
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


def test_node_cap_raises(monkeypatch):
    monkeypatch.setattr(expr_module, "NODE_CAP", 1000)
    base = expr_sum([yj(1, 1), yj(2, 1), yy(1), yy(2), x(1), x(2), const(1)])
    # base^8 has 13 299 nodes, above the patched cap and far below the real
    # one, so a patch that misses the module _check_size reads fails at once
    with pytest.raises(ExpressionSizeError, match="above the cap 1000"):
        e = base
        for _ in range(3):
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


@pytest.mark.parametrize("e, sub, printed", [
    # sin(0) and exp(0) take their special values
    (sin_expr(yy(1)) + exp_expr(yy(1) * yy(2)), {Sym("y", 1): ZERO}, "1"),
    (atan_expr(yy(1)) + sin_expr(yy(2)),
     {Sym("y", 1): ZERO, Sym("y", 2): yy(1)}, "sin(y1)"),
    (exp_expr(yy(1)) * cos_expr(yy(2)), {Sym("y", 1): yy(2) + 1},
     "cos(y2)*exp(1 + y2)"),
])
def test_substitute_into_analytic_functions(e, sub, printed):
    assert to_dsl(substitute(e, sub)) == printed


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


def test_equal_skips_samples_that_overflow():
    a = yj(1, 1)
    # 2^2000 is beyond a float, so every point is skipped
    assert equal(const(2) ** 2000 * a, a).verdict == "unknown"
    # a^999 overflows where |a| > 1; the points with |a| < 1 still count
    r = equal(a ** 999 + a, a ** 999 + 2 * a)
    assert r.verdict == "unequal" and abs(r.witness.symbols[Sym("y1", 1, 1)]) < 1


def test_equal_skips_samples_that_lose_their_magnitude():
    a = yj(1, 1)
    # |a| > 1 overflows a^99999999 and |a| < 1 underflows it to 0, where
    # both sides would read 0 and look equal
    assert equal(a ** 99999999, 2 * a ** 99999999).verdict == "unknown"
    assert equal(const(2) ** -2000 * a, a).verdict == "unknown"
    # 10^308 * sqrt(a^2 + 4) is a finite coefficient times a value >= 2,
    # whose product is inf on both sides
    big = const(10) ** 308 * sqrt_expr(a * a + 4)
    assert equal(big, big + a).verdict == "unknown"
    # a term that is 0 because an atom is 0 is no underflow
    b = yj(2, 1)
    point = PointAssignment({Sym("y1", 1, 1): 0.0, Sym("y1", 2, 1): 1.5})
    assert evaluate(a * b ** 3 + b, point, strict=True) == 1.5


def test_equal_respects_guards():
    a = yj(1, 1)
    e1 = sqrt_expr(a * a)  # |a|
    r = equal(e1, a, guards=[a])  # restrict sampling to a > 0
    assert r.verdict == "equal"
    assert equal(e1, a).verdict == "unequal"


def test_equal_counts_skipped_samples_by_reason():
    a, b = yj(1, 1), yj(2, 1)
    # the guard rejects b <= GUARD_EPS before sqrt(a) with a < 0 leaves the
    # domain; the points with a, b > 0 agree
    r = equal(sqrt_expr(a) * sqrt_expr(b), sqrt_expr(a * b), guards=[b])
    assert r.verdict == "equal"
    assert r.skipped["guard"] > 0 and r.skipped["domain"] > 0
    assert r.skipped["overflow"] == 0
    assert r.samples + sum(r.skipped.values()) == 20
    assert r.describe() == (f"equal ({r.samples} samples, "
                            f"max deviation {r.max_deviation:.3g})")
    huge = equal(const(2) ** 2000 * a, a)
    assert huge.skipped == {"guard": 0, "domain": 0, "overflow": 20}
    tiny = equal(const(2) ** -2000 * a, a)
    assert tiny.skipped == {"guard": 0, "domain": 20, "overflow": 0}
    assert equal(a, a).skipped == {"guard": 0, "domain": 0, "overflow": 0}


@pytest.mark.parametrize("text", [
    "sqrt(2)*sqrt(3) - sqrt(6)",
    "exp(y1)*exp(y2) - exp(y1 + y2)",
    "cos(2*y1) - 2*cos(y1)^2 + 1",
])
def test_zero_test_samples_the_zeros_the_normal_form_misses(text):
    e = parse(text)
    assert not e.is_zero
    res = equal(e, ZERO)
    assert res.verdict == "equal" and res.decided_by == "sampled"
    assert res.samples == 20


@pytest.mark.parametrize("text", [
    "(x1 + 1)^2 - x1^2 - 2*x1 - 1",
    "sin(y1)^2 + cos(y1)^2 - 1",
    "sqrt(8) - 2*sqrt(2)",
])
def test_zero_test_passes_structural_zeros_with_no_sample(text):
    res = equal(parse(text), ZERO)
    assert res.verdict == "equal" and res.decided_by == "structural"
    assert res.samples == 0


def test_zero_test_fails_a_small_nonzero_multiple():
    res = equal(parse("1/1000000000000*y1_1"), ZERO)
    assert res.verdict == "unequal" and res.samples == 1


def test_equal_records_how_it_was_decided():
    a, b = yj(1, 1), yj(2, 1)
    assert equal(a, a).decided_by == "structural"
    same = equal((a + b) ** 2, a * a + const(2) * a * b + b * b)
    assert same.verdict == "equal" and same.decided_by == "structural"
    assert same.samples == 0
    # sqrt(a) sqrt(b) = sqrt(a b) holds only where a, b > 0: no normal form
    # decides it, the guarded samples do
    roots = equal(sqrt_expr(a) * sqrt_expr(b), sqrt_expr(a * b),
                  guards=[a, b])
    assert roots.verdict == "equal" and roots.decided_by == "sampled"
    assert roots.samples > 0
    assert equal(a, b).decided_by == "sampled"


def test_equal_result_is_frozen():
    res = equal(yj(1, 1), yj(2, 1))
    with pytest.raises(AttributeError):
        res.verdict = "equal"
    with pytest.raises(AttributeError):
        res.decided_by = "structural"


def test_verdicts_and_points_compare_by_value_with_their_own_tables():
    a, b = EqualResult("equal"), EqualResult("equal")
    assert a == b and a.skipped == {"guard": 0, "domain": 0, "overflow": 0}
    a.skipped["guard"] += 1
    assert a != b and b.skipped["guard"] == 0
    assert b != ("equal", None, None, 0, 0.0, None, b.skipped, "sampled")
    p = PointAssignment({Sym("x", 1): 0.5})
    q = PointAssignment({Sym("x", 1): 0.5})
    assert p == q and p.functions == {} and p.functions is not q.functions
    assert p != (p.symbols, p.functions)


def test_verdicts_pass_rule_and_first_witness():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    entries = st.lists(
        st.tuples(st.integers(-20, 20),
                  st.sampled_from(["equal", "unequal", "unknown"])),
        max_size=8, unique_by=lambda entry: entry[0])

    @hyp.given(entries)
    def check(entries):
        results = [(label, EqualResult(verdict)) for label, verdict in entries]
        verdicts = Verdicts(results)
        expected = all(res.verdict == "equal" for _, res in results)
        assert verdicts.passed is expected and bool(verdicts) is expected
        assert verdicts.passed is all(verdicts.values())
        # the first failure in the order the comparisons were taken
        failing = [(label, res) for label, res in results if not res]
        assert verdicts.witness() == (failing[0] if failing else None)

    check()
    unknown = Verdicts(a=EqualResult("equal"), b=EqualResult("unknown"))
    assert not unknown.passed and not unknown
    assert unknown.witness() == ("b", unknown["b"])


def test_equal_tolerance_follows_the_terms():
    a = yj(1, 1)
    # a nonzero residual is unequal to 0 however small a constant scales it
    for c in (Fraction(1, 10 ** 12), Fraction(1), Fraction(10 ** 12)):
        assert equal(const(c) * a * a, const(0)).verdict == "unequal"
        assert equal(const(c) * (a + 1) ** 2,
                     const(c) * (a * a + 2 * a + 1)).verdict == "equal"
    # rounding error is measured against the terms, not the value: the
    # difference of equal radicals rounds to about 1e-16 of its terms
    root = sqrt_expr(const(2)) * sqrt_expr(const(3)) - sqrt_expr(const(6))
    assert not root.is_zero
    r = equal(root, const(0))
    assert r.verdict == "equal" and r.samples == 20
    assert r.max_deviation < 1e-15


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
    assert sampling_module.blake2b is hashlib.blake2b
    for parts in ((0, 0, "sym", Sym("x", 1).key), (7, 19),
                  (1702, 3, "sym", Sym("y1", 2, 1).key),
                  (-4, 2, "fun", "g11", (1, 2), (0.5, -1.25))):
        text = "|".join(map(repr, parts))
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        assert sampling_module._stable_seed(*parts) == \
            int.from_bytes(digest, "big")
    assert sampling_module._stable_seed(0, 0, "sym", Sym("x", 1).key) == \
        7265411456830401962
    s = Sym("y1", 2, 1)
    point = sampling_module.sample_assignment({s}, set(), 1702, 3)
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


def test_every_atom_reprs_as_its_dsl_text():
    for text in ("x1", "y1_2", "sqrt(x1)", "g11(y1, y2)", "g11_d2(y1, y2)",
                 "sin(1 + x1)"):
        [(mono, coeff)] = parse(text).num
        [(atom, power)] = mono
        assert (coeff, power) == (1, 1)
        assert repr(atom) == str(atom) == text


def test_parse_determinants():
    assert parse("det2(y1_1, y1_2, y2_1, y2_2)") == det_expr(
        [[yj(1, 1), yj(1, 2)], [yj(2, 1), yj(2, 2)]])
    entries = [[yj(K, j) for j in (1, 2, 3)] for K in (1, 2, 3)]
    e = parse("det3(" + ", ".join(to_dsl(v) for row in entries for v in row)
              + ")")
    assert e == det_expr(entries)
    assert parse(to_dsl(e)) == e


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


def test_literals_too_long_for_one_token_print_as_sums_of_powers():
    # a literal of more digits than int() reads is printed as a sum of
    # shorter ones times powers of ten, and parses back
    a = yj(1, 1)
    for e in (const(2) ** 20000, -(const(3) ** 9000) * a + const(5) / 7,
              a / (const(2) ** 20000 + 1), const(10) ** 8000,
              const(2) ** 20000 / 7 * a):
        printed = to_dsl(e)
        assert parse(printed) == e
        assert max(map(len, re.findall(r"\d+", printed))) <= 4000
    assert to_dsl(-(const(10) ** 3999)) == "-1" + "0" * 3999


def test_latex_output_smoke():
    e = sqrt_expr(1 + yj(1, 1) ** 2) / (2 * yy(1))
    s = to_latex(e)
    assert "\\sqrt" in s and "\\frac" in s
    assert to_latex(sin_expr(x(1))) == "\\sin\\left(x^{1}\\right)"


def test_latex_of_opaque_functions_and_their_derivatives():
    assert to_latex(opaque("g", x(1), x(2), deriv=(1,))) == \
        "g_{,1}\\left(x^{1}, x^{2}\\right)"
    assert to_latex(opaque("g", x(1))) == "g\\left(x^{1}\\right)"


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


# ---------------------------------------------------------------------------
# properties of equality and hashing
# ---------------------------------------------------------------------------

def ref_key(e) -> tuple:
    """The key every Expr stored before equality compared terms directly."""
    def mono_key(mono):
        return tuple((at.key, k) for at, k in mono)

    return (tuple((mono_key(m), (c.numerator, c.denominator)) for m, c in e.num),
            tuple((mono_key(m), (c.numerator, c.denominator)) for m, c in e.den))


def _expr_strategy(st):
    leaves = st.one_of(
        st.sampled_from([sym_expr(s) for s in SYMS[:6]]),
        st.fractions(-3, 3, max_denominator=4).map(const))

    def extend(inner):
        pairs = st.tuples(inner, inner)
        return st.one_of(
            pairs.map(lambda p: p[0] + p[1]),
            pairs.map(lambda p: p[0] - p[1]),
            pairs.map(lambda p: p[0] * p[1]),
            pairs.map(lambda p: p[0] / (p[1] * p[1] + 1)),
            inner.map(lambda e: sqrt_expr(e * e + 1)),
            inner.map(exp_expr),
            pairs.map(lambda p: opaque("F", p[0], p[1])))

    return st.recursive(leaves, extend, max_leaves=5)


def test_equality_and_hash_follow_the_reference_key():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    exprs = _expr_strategy(st)

    @hyp.settings(max_examples=150, derandomize=True, deadline=None)
    @hyp.given(exprs, exprs)
    def check(e, f):
        # pairs equal by construction, a pair sharing a numerator, and a
        # random pair
        pairs = [(e * f, f * e), (e + f, f + e), (e, parse(to_dsl(e))),
                 (e, expr_module.Expr(e.num, e.den)), (e, e / (f * f + 1)),
                 (e, f)]
        for u, v in pairs:
            assert hash(u) == hash(ref_key(u))
            assert (u == v) is (ref_key(u) == ref_key(v))
            assert (v == u) is (u == v)
        assert e * f == f * e and e + f == f + e
        assert parse(to_dsl(e)) == e

    check()


def _exponents(e):
    # every exponent stored in e's terms and in the terms of its atoms'
    # arguments and radicands
    for terms in (e.num, e.den):
        for mono, _ in terms:
            for at, k in mono:
                yield k
                if isinstance(at, expr_module.Root):
                    yield from _exponents(at.arg)
                elif isinstance(at, expr_module.Fun):
                    for inner in at.args:
                        yield from _exponents(inner)


def test_stored_exponents_stay_positive():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    exprs = _expr_strategy(st)

    @hyp.settings(max_examples=150, derandomize=True, deadline=None)
    @hyp.given(exprs, exprs, st.integers(-3, 3), st.sampled_from(SYMS[:6]))
    def check(e, f, k, s):
        results = [e + f, e - f, e * f, e / (f * f + 1), diff(e, s),
                   diff(e * f, s)]
        if k >= 0 or not e.is_zero:
            results.append(e ** k)
        for r in results:
            assert all(p >= 1 for p in _exponents(r))

    check()


# ---------------------------------------------------------------------------
# interned symbols, and monomials merged by atom key
# ---------------------------------------------------------------------------

def test_symbols_are_interned():
    assert Sym("x", 3) is Sym("x", 3)
    assert Sym("y1", 2, 1) is not Sym("y1", 1, 2)
    assert Sym("y", 1) is not Sym("w", 1)
    s = Sym("y2", 1, 2, 1)
    assert s is Sym("y2", 1, 1, 2) and (s.b, s.c) == (1, 2)
    assert yjk(3, 2, 1).num == yjk(3, 1, 2).num


def test_copies_and_pickles_of_a_symbol_are_the_symbol():
    s = Sym("y2", 2, 2, 1)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin is s
    e = yjk(2, 1, 2) * x(1) + sqrt_expr(yy(1) ** 2 + 1)
    for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e
        assert {id(t) for t in free_symbols(twin)} == {id(t) for t in
                                                       free_symbols(e)}


def test_an_unknown_symbol_kind_raises_and_leaves_the_table_alone():
    size = len(Sym._table)
    for args in (("q", 1), ("y3", 1, 2, 1), ("", 0)):
        with pytest.raises(expr_module.ExprError) as info:
            Sym(*args)
        assert str(info.value) == f"unknown symbol kind {args[0]!r}"
    assert len(Sym._table) == size


def dict_mono_mul(m1, m2):
    """The rule `_mono_mul` followed before it merged: the pairs gathered in a
    dict by atom, folded, then sorted by atom key."""
    pairs = {}
    for pair in m1:
        pairs[pair[0]] = pair
    for pair in m2:
        at = pair[0]
        old = pairs.get(at)
        pairs[at] = pair if old is None else (at, old[1] + pair[1])
    extra = None
    residual = []
    for pair in pairs.values():
        at, e = pair
        fold = expr_module._fold_square(at) if e >= 2 else None
        if fold is not None:
            q, r = divmod(e, 2)
            fq = expr_module._p_pow(fold, q)
            extra = fq if extra is None else expr_module._p_mul(extra, fq)
            if r:
                residual.append((at, 1))
        else:
            residual.append(pair)
    residual.sort(key=lambda pair: pair[0].key)
    return tuple(residual), extra


def _merge_atoms():
    """Atoms in groups of equal keys: each Root and Fun is built twice, as
    two objects that compare equal, and a Sym is one object."""
    def atom(e):
        (((at, _),), _), = e.num
        return at

    def twice(make):
        return [atom(make()), atom(make())]

    return [[Sym("x", 1)], [Sym("y", 1)], [Sym("y1", 1, 1)],
            [Sym("y2", 1, 1, 2)], [Sym("w1", 2, 1)],
            twice(lambda: sqrt_expr(x(1) + 2)), twice(lambda: sqrt_expr(yy(1))),
            twice(lambda: sin_expr(x(2))), twice(lambda: cos_expr(x(2))),
            twice(lambda: opaque("F", x(1), yy(1))),
            twice(lambda: opaque("F", x(1), yy(1), deriv=(2,))),
            twice(lambda: exp_expr(yj(1, 1)))]


def _random_mono(rng, groups):
    picked = rng.sample(groups, rng.randint(0, 5))
    pairs = [(rng.choice(group), rng.randint(1, 3)) for group in picked]
    return tuple(sorted(pairs, key=lambda pair: pair[0].key))


def test_merged_monomials_match_the_dict_rule():
    groups = _merge_atoms()
    for group in groups[5:]:
        assert group[0] is not group[1] and group[0] == group[1]
    rng = random.Random(45)
    folds = twins = 0
    for _ in range(3000):
        m1, m2 = _random_mono(rng, groups), _random_mono(rng, groups)
        mono, extra = expr_module._mono_mul(m1, m2)
        want_mono, want_extra = dict_mono_mul(m1, m2)
        assert expr_module._mono_key(mono) == expr_module._mono_key(want_mono)
        assert mono == want_mono and extra == want_extra
        keys = [at.key for at, _ in mono]
        assert keys == sorted(set(keys)), mono
        folds += extra is not None
        twins += any(a is not b and a == b for a, _ in m1 for b, _ in m2)
    assert folds > 300 and twins > 300, (folds, twins)
    # twins merge into one power, and sqrt(u)^2 and sin(u)^2 fold
    root, sin, fun = groups[5], groups[7], groups[9]
    assert expr_module._mono_mul(((fun[0], 1),), ((fun[1], 2),)) == (
        ((fun[1], 3),), None)
    assert expr_module._mono_mul(((root[0], 1),), ((root[1], 1),)) == (
        (), dict(root[0].arg.num))
    mono, extra = expr_module._mono_mul(((sin[0], 2),), ((root[1], 1),))
    assert mono == ((root[1], 1),)
    assert extra == dict_mono_mul(((sin[0], 2),), ())[1]


def _monos(e):
    # every monomial of e's terms and of its atoms' arguments and radicands
    for terms in (e.num, e.den):
        for mono, _ in terms:
            yield mono
            for at, _ in mono:
                if isinstance(at, expr_module.Root):
                    yield from _monos(at.arg)
                elif isinstance(at, expr_module.Fun):
                    for inner in at.args:
                        yield from _monos(inner)


def test_make_keeps_every_monomial_sorted_by_key():
    rng = random.Random(4)
    for _ in range(200):
        e = random_expr(rng, 3)
        f = random_expr(rng, 2)
        for r in (e, e * f, e / (f * f + 1), diff(e * f, rng.choice(SYMS))):
            for mono in _monos(r):
                keys = [at.key for at, _ in mono]
                assert keys == sorted(set(keys)), to_dsl(r)


# ---------------------------------------------------------------------------
# ring axioms, and the shortcuts of the exact core against its general path
# ---------------------------------------------------------------------------

def test_ring_axioms_and_linearity_of_diff():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    exprs = _expr_strategy(st)
    decided = {"structural": 0, "sampled": 0}

    @hyp.settings(max_examples=100)
    @hyp.given(exprs, exprs, exprs, st.fractions(-3, 3, max_denominator=4),
               st.sampled_from(SYMS[:6]))
    def check(a, b, c, k, s):
        laws = [((a * b) * c, a * (b * c)), ((a + b) + c, a + (b + c)),
                (a * (b + c), a * b + a * c),
                (diff(a + b, s), diff(a, s) + diff(b, s)),
                (diff(k * a, s), k * diff(a, s))]
        if not b.is_zero:
            laws.append(((a / b) * b, a))
        for lhs, rhs in laws:
            res = equal(lhs, rhs, seed=1)
            assert res, (to_dsl(lhs), to_dsl(rhs), res.describe())
            decided[res.decided_by] += 1

    check()
    # the normal form, not the sampler, decides most of the laws
    assert decided["structural"] > 4 * decided["sampled"]


def _factor_atoms():
    # symbols, a root, an analytic sin, and a root of a sum
    return [x(1), x(2), yj(1, 1), sqrt_expr(x(1)), sin_expr(x(2)),
            sqrt_expr(x(1) + x(2) ** 2)]


def _term_strategy(st):
    """c*m for a small c and a product m of up to three atoms."""
    monos = st.lists(st.sampled_from(_factor_atoms()), max_size=3).map(
        lambda fs: math.prod(fs, start=ONE))
    coeffs = st.fractions(-3, 3, max_denominator=4).filter(lambda c: c != 0)
    return st.tuples(coeffs, monos).map(lambda p: const(p[0]) * p[1])


def _quotient_strategy(st):
    """n/d from sums of terms, d with and without monomial content."""
    polys = st.lists(_term_strategy(st), min_size=1, max_size=3).map(expr_sum)
    dens = st.tuples(polys, _term_strategy(st)).map(lambda p: p[0] * p[1])
    return st.tuples(polys, st.one_of(polys, dens, st.just(ONE))).filter(
        lambda p: not p[1].is_zero).map(lambda p: p[0] / p[1])


def _many_roots():
    # nine roots in the denominator's content, each cleared in its own round
    return ONE / math.prod((sqrt_expr(x(1) + k) for k in range(1, 10)),
                           start=ONE)


def test_make_leaves_its_own_output_unchanged():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    # content shared only after a root is cleared, nine roots to clear, and
    # a draw that once came out of `_make` with content still shared
    @hyp.example(x(1) / (sqrt_expr(x(1)) * x(2)))
    @hyp.example(_many_roots())
    @hyp.example(parse("(3/4*x1*x2^2*sqrt(x1) + 3/4*x1^2*sqrt(x1))"
                       "*(x1*y1_1*sin(x2))^-1"))
    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(st.one_of(_quotient_strategy(st), _expr_strategy(st)))
    def check(e):
        again = expr_module._make(dict(e.num), dict(e.den))
        assert (again.num, again.den) == (e.num, e.den), to_dsl(e)
        assert parse(to_dsl(e)) == e

    check()


def test_single_term_product_matches_the_general_path():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    shortcut = {"taken": 0, "declined": 0}

    root = sqrt_expr(x(1))
    # a denominator whose content holds nine roots
    many_roots = _many_roots()

    # cases random draws seldom reach: m meets d's content, a root in m
    # folds into d, content n and d share only after a root is cleared,
    # and a denominator cleared of nine roots
    @hyp.example(ONE / (x(1) * (x(2) + 1)), x(1))
    @hyp.example(root / x(1), root)
    @hyp.example(x(1) / (root * x(2)), x(3))
    @hyp.example(many_roots, x(2))
    @hyp.settings(max_examples=300)
    @hyp.given(_quotient_strategy(st), _term_strategy(st))
    def check(e, t):
        general = expr_module._make(
            expr_module._p_mul(dict(e.num), dict(t.num)),
            expr_module._p_mul(dict(e.den), dict(t.den)))
        fast = expr_module._scale(e, t)
        if fast is None:
            shortcut["declined"] += 1
        else:
            shortcut["taken"] += 1
            assert (fast.num, fast.den) == (general.num, general.den), (
                to_dsl(e), to_dsl(t))
        for product in (e * t, t * e):
            assert (product.num, product.den) == (general.num, general.den)

    check()
    assert min(shortcut.values()) > 50, shortcut


def test_degree_test_leaves_exact_division_unchanged():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    polys = st.lists(_term_strategy(st), min_size=1, max_size=3).map(expr_sum)
    divides = {True: 0, False: 0}

    def atoms_of(*ps):
        found = {at for p in ps for mono in p for at, _ in mono}
        return sorted(found, key=lambda at: at.key)

    @hyp.settings(max_examples=300)
    @hyp.given(polys, polys, st.booleans())
    def check(a, b, multiple):
        num = expr_module._p_mul(dict(a.num), dict(b.num)) if multiple \
            else dict(a.num)
        den = dict(b.num)
        quotient = expr_module._p_exact_div(num, den)
        if num and den and not expr_module._p_has_foldable(den):
            without = expr_module._p_dense_div(num, den, atoms_of(num, den))
            assert quotient == without
        divides[quotient is not None] += 1

    check()
    assert min(divides.values()) > 50, divides


# ---------------------------------------------------------------------------
# sympy as an independent oracle for diff
# ---------------------------------------------------------------------------

ORACLE_SYMS = (Sym("x", 1), Sym("y", 1), Sym("y1", 1, 1))


def to_sympy(sp, e):
    """The sympy expression of e, read from its printed form."""
    return sp.sympify(to_dsl(e).replace("^", "**"))


def test_diff_agrees_with_sympy():
    hyp = pytest.importorskip("hypothesis")
    sp = pytest.importorskip("sympy")
    st = hyp.strategies
    gens = [sym_expr(s) for s in ORACLE_SYMS]
    monos = st.tuples(st.integers(-3, 3),
                      st.lists(st.sampled_from(gens), min_size=1, max_size=2))
    polys = st.lists(monos, min_size=1, max_size=3).map(
        lambda ms: expr_sum(const(c) * math.prod(fs, start=ONE) for c, fs in ms))
    functions = st.sampled_from([sin_expr, cos_expr, exp_expr, log_expr,
                                 atan_expr, sqrt_expr])

    def extend(inner):
        pairs = st.tuples(inner, inner)
        return st.one_of(pairs.map(lambda p: p[0] + p[1]),
                         pairs.map(lambda p: p[0] * p[1]),
                         st.tuples(functions, inner).map(lambda p: p[0](p[1])))

    # every example applies a function to a composition of polynomials
    exprs = st.tuples(functions, st.recursive(polys, extend, max_leaves=3)).map(
        lambda p: p[0](p[1]))
    decided = {"exact": 0, "sampled": 0, "unknown": 0}

    def same_at_points(lhs, rhs, e, rng) -> bool | None:
        # None when every point leaves the domain of e or of a value
        seen = False
        for _ in range(3):
            point = {s: Fraction(rng.randint(1, 20), 10) * rng.choice((-1, 1))
                     for s in ORACLE_SYMS}
            try:
                evaluate(e, PointAssignment({s: float(v) for s, v in point.items()}))
            except (DomainError, OverflowError):
                continue
            subs = {sp.Symbol(str(s)): sp.Rational(v.numerator, v.denominator)
                    for s, v in point.items()}
            a, b = (sp.N(t, 30, subs=subs) for t in (lhs, rhs))
            if not all(v.is_finite and v.is_real for v in (a, b)):
                continue
            seen = True
            if abs(a - b) > sp.Float("1e-20", 30) * max(1, abs(a)):
                return False
        return True if seen else None

    @hyp.settings(max_examples=50)
    @hyp.given(st.tuples(exprs, exprs).map(lambda p: p[0] * p[1]),
               st.sampled_from(ORACLE_SYMS), st.integers(0, 2**32))
    def check(e, s, seed):
        lhs = sp.diff(to_sympy(sp, e), sp.Symbol(str(s)))
        rhs = to_sympy(sp, diff(e, s))
        if sp.expand(lhs - rhs) == 0:
            decided["exact"] += 1
            return
        same = same_at_points(lhs, rhs, e, random.Random(seed))
        # a difference sympy cannot simplify is no evidence of inequality
        assert same is not False, (to_dsl(e), s)
        decided["sampled" if same else "unknown"] += 1

    check()
    assert decided["unknown"] < decided["exact"] + decided["sampled"]
