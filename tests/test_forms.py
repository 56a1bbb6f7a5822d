"""Tests for the exterior calculus on jet and adapted charts."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, prod
from typing import Mapping, Sequence

import pytest

from lepage.acceptance import _random_form as criterion11_random_form
from lepage.charts import AdaptedChart, JetChart
from lepage.expr import (
    ONE, Expr, Sym, ZERO, const, cos_expr, equal, expr_sum, free_symbols,
    levi_civita, sin_expr, sqrt_expr, sym_expr, to_dsl, wj, ww, x, yj, yy,
)
from lepage.forms import (
    Covector, DiffForm, FormError, Immersion, VectorField, contact_component, contract, dw, dwj, dx, dy, dyj,
    ext_d, form, form_equal,
    from_adapted_contact, horizontalize, lie_derivative, om,
    omj, omt, pullback_immersion, reduce_contact_ideal, to_adapted_contact,
    to_contact, to_coordinate, volume_form, wedge, wedge_all, zero_form,
)
from lepage.variation import VectorFieldSpec, prolong_grassmann, prolong_jet

CH21 = JetChart(n=2, m=1, order=1)
CH22 = JetChart(n=2, m=2, order=1)


def random_form(chart: JetChart, degree: int, mode: str, rng: random.Random,
                terms: int = 3) -> DiffForm:
    """Random form with small integer-coefficient polynomial entries."""
    if mode == "coordinate":
        pool = [dx(i) for i in range(1, chart.n + 1)]
        pool += [dy(K) for K in range(1, chart.M + 1)]
    elif mode == "contact":
        pool = [dx(i) for i in range(1, chart.n + 1)]
        pool += [om(K) for K in range(1, chart.M + 1)]
    else:
        raise ValueError(mode)
    gens = [const(1)]
    gens += [x(i) for i in range(1, chart.n + 1)]
    gens += [yy(K) for K in range(1, chart.M + 1)]
    gens += [yj(K, j) for K in range(1, chart.M + 1)
             for j in range(1, chart.n + 1)]
    acc: dict = {}
    for _ in range(terms):
        word = tuple(rng.sample(pool, degree))
        coeff = expr_sum(const(rng.randint(-3, 3)) * rng.choice(gens)
                         for _ in range(2))
        if coeff.is_zero:
            coeff = const(rng.randint(1, 3))
        acc[word] = acc.get(word, ZERO) + coeff
    acc = {w: c for w, c in acc.items() if not c.is_zero}
    if not acc:
        return zero_form(chart, degree, mode)
    return form(chart, mode, acc)


def test_atoms_and_covectors_hash_their_keys_and_compare_within_one_class():
    # the hash values that set and dict orders, and so printed term orders,
    # follow; a covector is hashed apart from the atom keys
    assert hash(Sym("y1", 3, 1)) == hash((0, 2, 3, 1, 0))
    assert hash(dx(1)) == hash(("cov", (0, 1, 0)))
    s = Sym("x", 1)
    twin = object.__new__(Covector)  # a covector carrying the symbol's key
    twin.key, twin._hash = s.key, hash(s)
    assert s != twin and twin != s and len({s, twin}) == 2


# ---------------------------------------------------------------------------
# words and wedges
# ---------------------------------------------------------------------------

def test_word_sorting_and_signs():
    a = form(CH21, "coordinate", {(dy(1), dx(1)): ONE})
    b = form(CH21, "coordinate", {(dx(1), dy(1)): ONE})
    assert (a + b).is_zero
    # repeated covector collapses
    repeated = wedge(form(CH21, "coordinate", {(dx(1),): ONE}),
                     form(CH21, "coordinate", {(dx(1),): yy(1)}))
    assert repeated.is_zero


def test_wedge_anticommutes_and_associates():
    rng = random.Random(7)
    for _ in range(10):
        a = random_form(CH21, 1, "coordinate", rng)
        b = random_form(CH21, 1, "coordinate", rng)
        c = random_form(CH21, 1, "coordinate", rng)
        assert (wedge(a, b) + wedge(b, a)).is_zero
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert (lhs - rhs).is_zero


def test_wedge_degree_sign():
    rng = random.Random(3)
    a = random_form(CH21, 2, "coordinate", rng)
    b = random_form(CH21, 1, "coordinate", rng)
    # a ^ b = (-1)^{2*1} b ^ a
    assert (wedge(a, b) - wedge(b, a)).is_zero


def test_coefficient_skew_access():
    a = form(CH21, "coordinate", {(dy(1), dy(2)): x(1)})
    assert equal(a.coefficient((dy(2), dy(1))), -x(1))
    assert a.coefficient((dy(1), dy(1))).is_zero
    assert a.coefficient((dy(1), dy(3))).is_zero


def test_form_validation_errors():
    with pytest.raises(FormError):
        DiffForm(CH21, 1, "base", {(dy(1),): ONE})
    with pytest.raises(FormError):
        DiffForm(CH21, 1, "coordinate", {(om(1),): ONE})
    with pytest.raises(FormError):
        DiffForm(CH21, 2, "coordinate", {(dy(1),): ONE})
    with pytest.raises(FormError):
        DiffForm(CH21, 1, "adapted", {(dw(1),): ONE})  # needs adapted chart
    with pytest.raises(FormError):
        form(CH21, "coordinate", {})


# the covectors of CH22 in coordinate mode, and of AD22 in adapted-contact
# mode, each with the symbols its coefficients may read
SIGN_POOLS = {
    "coordinate": (
        [dx(i) for i in (1, 2)] + [dy(K) for K in range(1, 5)]
        + [dyj(K, j) for K in range(1, 5) for j in (1, 2)],
        [Sym("x", i) for i in (1, 2)] + [Sym("y", K) for K in range(1, 5)]
        + [Sym("y1", K, j) for K in range(1, 5) for j in (1, 2)]),
    "adapted-contact": (
        [dw(i) for i in (1, 2)] + [omt(s) for s in (3, 4)]
        + [dwj(s, i) for s in (3, 4) for i in (1, 2)],
        [Sym("w", K) for K in range(1, 5)]
        + [Sym("w1", s, i) for s in (3, 4) for i in (1, 2)]),
}


def test_form_signs_a_permuted_word_by_its_permutation():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    pool, syms = SIGN_POOLS["coordinate"]

    @st.composite
    def cases(draw):
        word = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5,
                             unique=True))
        word = tuple(sorted(word, key=lambda c: c.key))
        perm = tuple(draw(st.permutations(range(1, len(word) + 1))))
        return word, perm, draw(_polys(st, syms))

    @hyp.settings(max_examples=80)
    @hyp.given(cases())
    def check(case):
        word, perm, c = case
        permuted = tuple(word[p - 1] for p in perm)
        assert form(CH22, "coordinate", {permuted: c}) == \
            form(CH22, "coordinate", {word: c}).scale(levi_civita(perm))

    check()


def test_form_drops_a_word_that_repeats_a_covector():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    pool, _ = SIGN_POOLS["coordinate"]

    @st.composite
    def words(draw):
        word = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                             unique=True))
        repeat = draw(st.sampled_from(word))
        word.insert(draw(st.integers(0, len(word))), repeat)
        return tuple(word)

    @hyp.settings(max_examples=60)
    @hyp.given(words())
    def check(word):
        zero = form(CH22, "coordinate", {word: x(1) + ONE})
        assert zero.is_zero and zero.degree == len(word)

    check()


def test_wedge_is_graded_commutative_and_associative_to_degree_three():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def one_form(draw, mode):
        pool, syms = SIGN_POOLS[mode]
        degree = draw(st.integers(1, 3))
        words = st.lists(st.sampled_from(pool), min_size=degree,
                         max_size=degree, unique=True).map(tuple)
        terms = draw(st.dictionaries(words, _polys(st, syms), min_size=1,
                                     max_size=3))
        adapted = AD22 if mode == "adapted-contact" else None
        return form(CH22, mode, terms, adapted=adapted, degree=degree)

    triples = st.sampled_from(sorted(SIGN_POOLS)).flatmap(
        lambda mode: st.tuples(*[one_form(mode)] * 3))

    @hyp.settings(max_examples=40)
    @hyp.given(triples)
    def check(forms):
        a, b, c = forms
        sign = (-1) ** (a.degree * b.degree)
        assert wedge(a, b) == wedge(b, a).scale(sign)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    check()


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------

def test_contact_coordinate_roundtrip():
    rng = random.Random(11)
    for _ in range(8):
        a = random_form(CH21, 2, "coordinate", rng)
        assert (to_coordinate(to_contact(a)) - a).is_zero
        b = random_form(CH21, 1, "contact", rng)
        assert (to_contact(to_coordinate(b)) - b).is_zero


# Reference engine: the coordinate <-> contact exchange on skew coefficient
# tensors with binomial weights, an independent derivation of what
# to_contact/to_coordinate do by covector substitution.  It handles
# first-order words (dx with dy, or dx with om) only.

def _tensor_get(T: Mapping, Ks: Sequence[int], Is: Sequence[int]) -> Expr:
    ks = tuple(Ks)
    iss = tuple(Is)
    if len(set(ks)) != len(ks) or len(set(iss)) != len(iss):
        return ZERO
    sk = levi_civita(tuple(sorted(range(len(ks)), key=lambda t: ks[t])[t] + 1
                           for t in range(len(ks)))) if ks else 1
    si = levi_civita(tuple(sorted(range(len(iss)), key=lambda t: iss[t])[t] + 1
                           for t in range(len(iss)))) if iss else 1
    val = T.get((tuple(sorted(ks)), tuple(sorted(iss))), ZERO)
    sign = sk * si
    return val if sign == 1 else -val


def _perm_sign_rel(perm: Sequence[int], base: Sequence[int]) -> int:
    index = {v: i for i, v in enumerate(base)}
    return levi_civita(tuple(index[v] + 1 for v in perm))


def _extract_tensors(a: DiffForm, fiber_kind: str) -> dict[int, dict]:
    """Split a first-order form into skew tensors per contact/fiber degree."""
    q = a.degree
    tensors: dict[int, dict] = {}
    for word, coeff in a.terms.items():
        Ks = tuple(c.a for c in word if c.kind == fiber_kind)
        Is = tuple(c.a for c in word if c.kind == "dx")
        if len(Ks) + len(Is) != q:
            raise FormError(
                f"tensor conversion expects words over dx and {fiber_kind}")
        l = len(Ks)
        # stored words put the dx block first; the tensor convention puts the
        # fiber block first, which costs the block-swap sign below
        sign = -1 if (l * (q - l)) % 2 else 1
        tensors.setdefault(l, {})[(Ks, Is)] = coeff if sign == 1 else -coeff
    return tensors


def _rebuild_from_tensors(chart: JetChart, q: int, tensors: Mapping[int, Mapping],
                          fiber_kind: str, mode: str) -> DiffForm:
    fiber_cov = {"dy": dy, "om": om}[fiber_kind]
    out: dict = {}
    for l, T in tensors.items():
        for (Ks, Is), coeff in T.items():
            if coeff.is_zero:
                continue
            sign = -1 if (l * (q - l)) % 2 else 1
            word = tuple(dx(i) for i in Is) + tuple(fiber_cov(K) for K in Ks)
            out[word] = out.get(word, ZERO) + (coeff if sign == 1 else -coeff)
    return DiffForm(chart, q, mode, out)


def _convert_tensor_family(tensors: Mapping[int, Mapping], q: int,
                           chart: JetChart, alternating_sign: bool) -> dict[int, dict]:
    """The binomial-weighted exchange between coordinate and contact tensors.

    For each target fiber degree k,

        T'_{K1..Kk i_{k+1}..i_q} = sum_{l=k}^{q} (+-1)^{l-k} C(q-k, q-l)
            Alt(i_{k+1}..i_q) [ T_{K1..Kk Q_{k+1}..Q_l i_{l+1}..i_q}
                                y^{Q_{k+1}}_{i_{k+1}} ... y^{Q_l}_{i_l} ]

    with the minus signs present exactly in the contact-to-coordinate
    direction.
    """
    M, n = chart.M, chart.n
    out: dict[int, dict] = {}
    for k in range(0, q + 1):
        if q - k > n:
            continue
        target: dict = {}
        for Ks in combinations(range(1, M + 1), k):
            for Is in combinations(range(1, n + 1), q - k):
                pieces = []
                for l in range(k, q + 1):
                    T = tensors.get(l)
                    if T is None:
                        continue
                    take = l - k  # jet factors consumed from the free base slots
                    if take > len(Is):
                        continue
                    weight = Fraction(comb(q - k, q - l),
                                      factorial(q - k) if Is else 1)
                    if alternating_sign and take % 2:
                        weight = -weight
                    for perm in permutations(Is):
                        psign = _perm_sign_rel(perm, Is)
                        iy, irest = perm[:take], perm[take:]
                        for Qs in product(range(1, M + 1), repeat=take):
                            val = _tensor_get(T, Ks + Qs, irest)
                            if val.is_zero:
                                continue
                            factor = ONE
                            for Q, ii in zip(Qs, iy):
                                factor = factor * sym_expr(Sym("y1", Q, ii))
                            pieces.append(const(psign * weight) * val * factor)
                total = expr_sum(pieces)
                if not total.is_zero:
                    target[(Ks, Is)] = total
        if target:
            out[k] = target
    return out


def tensor_basis_convert(a: DiffForm, target: str) -> DiffForm:
    """Exchange coordinate and contact bases through the skew tensors."""
    if a.mode == target:
        return a
    if a.mode == "coordinate" and target == "contact":
        tensors = _extract_tensors(a, "dy")
        converted = _convert_tensor_family(tensors, a.degree, a.chart,
                                           alternating_sign=False)
        return _rebuild_from_tensors(a.chart, a.degree, converted, "om", "contact")
    if a.mode == "contact" and target == "coordinate":
        tensors = _extract_tensors(a, "om")
        converted = _convert_tensor_family(tensors, a.degree, a.chart,
                                           alternating_sign=True)
        return _rebuild_from_tensors(a.chart, a.degree, converted, "dy",
                                     "coordinate")
    raise FormError(f"cannot convert mode {a.mode!r} to {target!r}")


def assert_engines_agree(a: DiffForm) -> None:
    """Both engines give the same representation in both directions."""
    if a.mode == "coordinate":
        forward, backward = to_contact, to_coordinate
        there, home = "contact", "coordinate"
    else:
        forward, backward = to_coordinate, to_contact
        there, home = "coordinate", "contact"
    converted = forward(a)
    assert tensor_basis_convert(a, there) == converted
    assert tensor_basis_convert(converted, home) == backward(converted)


def criterion11_corpus() -> list[DiffForm]:
    """The 50 forms that selftest criterion 11 draws at seed 0."""
    rng = random.Random(0)
    chart = JetChart(2, 1, 1)
    return [criterion11_random_form(chart, 1 + k % 2,
                                    "coordinate" if k % 4 < 2 else "contact",
                                    rng)
            for k in range(50)]


def test_tensor_conversion_matches_definitional():
    rng = random.Random(23)
    for degree in (1, 2):
        for _ in range(10):
            assert_engines_agree(random_form(CH21, degree, "coordinate", rng))
            assert_engines_agree(random_form(CH21, degree, "contact", rng))
    for degree in (1, 2, 3):
        assert_engines_agree(random_form(CH22, degree, "coordinate", rng,
                                         terms=4))


def test_tensor_conversion_matches_definitional_on_criterion11_corpus():
    corpus = criterion11_corpus()
    assert len(corpus) == 50
    for a in corpus:
        assert_engines_agree(a)


def test_tensor_oracle_rejects_second_order_words():
    a = form(CH21, "coordinate", {(dx(1), dyj(1, 2)): ONE})
    with pytest.raises(FormError):
        tensor_basis_convert(a, "contact")


def test_contact_decomposition_is_complete():
    rng = random.Random(5)
    a = random_form(CH22, 2, "coordinate", rng, terms=5)
    c = to_contact(a)
    total = zero_form(CH22, 2, "contact")
    for k in range(3):
        total = total + contact_component(c, k)
    assert (total - c).is_zero


def test_base_form_is_its_own_horizontal_part():
    a = form(CH21, "base", {(dx(1), dx(2)): x(1)})
    h = horizontalize(a)
    assert h.mode == "coordinate" and h.terms == a.terms


def test_horizontal_part_is_zero_contact_component():
    rng = random.Random(9)
    a = random_form(CH21, 2, "coordinate", rng)
    h = horizontalize(a)
    p0 = contact_component(a, 0)
    word = (dx(1), dx(2))
    assert equal(h.coefficient(word), p0.coefficient(word))


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def test_d_squared_zero():
    rng = random.Random(13)
    for mode in ("coordinate", "contact"):
        for _ in range(6):
            a = random_form(CH21, 1, mode, rng)
            assert ext_d(ext_d(a)).is_zero


def test_d_leibniz():
    rng = random.Random(17)
    for _ in range(6):
        a = random_form(CH21, 1, "coordinate", rng)
        b = random_form(CH21, 1, "coordinate", rng)
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b) - wedge(a, ext_d(b))
        assert (lhs - rhs).is_zero


def test_d_of_function_differential():
    f = x(1) * yy(1) + sin_expr(yy(2))
    df = ext_d(form(CH21, "coordinate", {(): f}))
    assert equal(df.coefficient((dx(1),)), yy(1))
    assert equal(df.coefficient((Covector("dy", 1),)), x(1))
    assert equal(df.coefficient((dy(2),)), cos_expr(yy(2)))


def test_d_contact_generator():
    # d omega^K = - d y^K_l ^ dx^l = dx^l ^ dy^K_l
    a = form(CH21, "contact", {(om(3),): ONE})
    da = ext_d(a)
    expect = form(CH21.raised(), "coordinate",
                  {(dx(l), dyj(3, l)): ONE for l in (1, 2)})
    assert form_equal(da, expect, trials=6, seed=1).verdict == "equal"


def test_d_rejects_second_order_coefficients():
    raised = CH21.raised()
    bad = form(raised, "coordinate",
               {(dx(1),): sym_expr(Sym("y2", 1, 1, 1))})
    with pytest.raises(FormError):
        ext_d(bad)


def test_base_mode_d():
    a = form(CH21, "base", {(dx(1),): x(1) * x(2) ** 2})
    da = ext_d(a)
    assert equal(da.coefficient((dx(2), dx(1))), const(2) * x(1) * x(2))
    with pytest.raises(FormError):
        ext_d(form(CH21, "base", {(dx(1),): yy(1)}))


# ---------------------------------------------------------------------------
# contraction and Lie derivative
# ---------------------------------------------------------------------------

def vertical_field(rng: random.Random, chart: JetChart) -> VectorField:
    comps = {}
    for K in range(1, chart.M + 1):
        for j in range(1, chart.n + 1):
            comps[Sym("y1", K, j)] = const(rng.randint(-2, 2)) + \
                const(rng.randint(0, 1)) * yj(K, j)
    return VectorField(chart, comps)


def test_contract_antiderivation():
    rng = random.Random(19)
    X = VectorField(CH21, {Sym("x", 1): yy(1), Sym("y", 2): x(2),
                           Sym("y1", 3, 1): const(2)})
    for _ in range(6):
        a = random_form(CH21, 1, "coordinate", rng)
        b = random_form(CH21, 2, "coordinate", rng)
        lhs = contract(X, wedge(a, b))
        rhs = wedge(contract(X, a), b) - wedge(a, contract(X, b))
        assert (lhs - rhs).is_zero


def test_contract_twice_zero():
    rng = random.Random(29)
    X = VectorField(CH21, {Sym("y", 1): yy(2), Sym("y", 3): x(1)})
    a = random_form(CH21, 2, "coordinate", rng)
    assert contract(X, contract(X, a)).is_zero


def test_contact_pairing():
    # i_X omega^K picks the vertical y-component relative to the prolongation
    X = VectorField(CH21, {Sym("y", 2): yy(1), Sym("x", 1): x(2)})
    a = form(CH21, "contact", {(om(2),): ONE})
    c = contract(X, a)
    expect = yy(1) - yj(2, 1) * x(2)
    assert equal(c.coefficient(()), expect)


def test_contract_commutes_with_basis_change():
    rng = random.Random(31)
    X = VectorField(CH21, {Sym("y", 1): yy(2), Sym("y1", 2, 2): x(1),
                           Sym("x", 2): yy(3)})
    for _ in range(5):
        a = random_form(CH21, 2, "contact", rng)
        lhs = to_coordinate(contract(X, a))
        rhs = contract(X, to_coordinate(a))
        assert (lhs - rhs).is_zero


def test_lie_derivative_commutes_with_d():
    X = VectorField(CH21, {Sym("y", 1): yy(2) * x(1), Sym("x", 2): yy(1)})
    a = form(CH21, "coordinate", {(dy(2),): yy(1) * x(2)})
    lhs = ext_d(lie_derivative(X, a))
    rhs = lie_derivative(X, ext_d(a))
    assert (lhs - rhs).is_zero


# ---------------------------------------------------------------------------
# adapted charts and the contact ideal
# ---------------------------------------------------------------------------

AD21 = AdaptedChart(CH21, (1, 2))


def test_adapted_contact_roundtrip():
    a = form(CH21, "adapted",
             {(dw(3), dw(1)): ww(3) * wj(3, 2), (dwj(3, 1), dw(2)): ONE},
             adapted=AD21)
    rt = from_adapted_contact(to_adapted_contact(a))
    assert (rt - a).is_zero


def test_adapted_contact_generator_definition():
    # omt^s = dw^s - w^s_i dw^i over the selected indices
    a = form(CH21, "adapted-contact", {(omt(3),): ONE}, adapted=AD21)
    c = from_adapted_contact(a)
    assert equal(c.coefficient((dw(3),)), ONE)
    assert equal(c.coefficient((dw(1),)), -wj(3, 1))
    assert equal(c.coefficient((dw(2),)), -wj(3, 2))


def test_contract_pairs_omt_in_the_forms_chart():
    # omt^2 = dw^2 - w^2_1 dw^1 on the form's chart, whatever the field carries
    ch = JetChart(1, 1, 1)
    ad = AdaptedChart(ch, (1,))
    a = DiffForm(ch, 1, "adapted-contact", {(omt(2),): ONE}, adapted=ad)
    comps = {Sym("w", 1): ONE, Sym("w", 2): ONE}
    expect = ONE - wj(2, 1)
    for field_chart in (None, ad):
        X = VectorField(ch, comps, adapted=field_chart)
        assert contract(X, a).coefficient(()) == expect


def test_contact_ideal_kills_generators():
    lhs = form(CH21, "adapted-contact", {(omt(3), dw(1)): ww(2) * wj(3, 1)},
               adapted=AD21)
    assert reduce_contact_ideal(lhs).is_zero
    d_omt = form(CH21, "adapted",
                 {(dw(1), dwj(3, 1)): ONE, (dw(2), dwj(3, 2)): ONE},
                 adapted=AD21)
    chi = form(CH21, "adapted", {(dwj(3, 1),): ww(3)}, adapted=AD21)
    assert reduce_contact_ideal(wedge(d_omt, chi)).is_zero


def test_contact_ideal_keeps_quotient():
    b = form(CH21, "adapted", {(dw(1), dw(2)): ww(3)}, adapted=AD21)
    rb = reduce_contact_ideal(b)
    assert not rb.is_zero
    # adding ideal terms does not change the reduction
    noise = form(CH21, "adapted-contact", {(omt(3), dw(2)): wj(3, 1)},
                 adapted=AD21)
    again = reduce_contact_ideal(to_adapted_contact(b) + noise)
    assert (again - rb).is_zero


AD22 = AdaptedChart(CH22, (1, 2))


def test_contact_ideal_inter_reduces_generators():
    # 3-forms meet generators (dw^1 ^ dw^s_1 + dw^2 ^ dw^s_2) ^ chi that share
    # their largest word, so the normal form needs the generators reduced
    # against each other first
    b = form(CH22, "adapted", {(dw(2), dwj(3, 2), dwj(4, 2)): ONE},
             adapted=AD22)
    rb = reduce_contact_ideal(b)
    assert rb == form(CH22, "adapted-contact",
                      {(dw(1), dwj(3, 1), dwj(4, 2)): -ONE}, adapted=AD22)
    b = b + form(CH22, "adapted", {(dwj(3, 1), dwj(3, 2), dwj(4, 1)): ww(3)},
                 adapted=AD22)
    rb = reduce_contact_ideal(b)
    basis = [dw(1), dw(2)] + [dwj(s, i) for s in (3, 4) for i in (1, 2)]
    c = ww(3) - const(2) * wj(4, 1)
    for s in (3, 4):
        d_omt = form(CH22, "adapted",
                     {(dw(1), dwj(s, 1)): c, (dw(2), dwj(s, 2)): c},
                     adapted=AD22)
        for chi in basis:
            gen = wedge(d_omt, form(CH22, "adapted", {(chi,): ONE},
                                    adapted=AD22))
            assert reduce_contact_ideal(b + gen) == rb


AD31 = AdaptedChart(JetChart(3, 1, 1), (1, 2, 3))

# forms with symbolic coefficients whose words meet the generators' pivots,
# each with its normal form: the coefficients' DSL text by word
CONTACT_IDEAL_PINS = {
    "2-form-n2m2": (AD22, "adapted", {
        (dw(2), dwj(3, 2)): ww(3),
        (dw(2), dwj(4, 2)): wj(4, 1) * ww(3),
        (dw(1), dwj(4, 1)): const(2),
        (dw(1), dw(2)): sin_expr(ww(4)),
        (dwj(3, 1), dwj(4, 2)): wj(3, 2),
        (dw(1), dw(3)): ww(4)}, {
        ("dw1", "dw2"): "w4*w3_2 + sin(w4)",
        ("dw1", "dw3_1"): "-w3",
        ("dw1", "dw4_1"): "2 - w3*w4_1",
        ("dw3_1", "dw4_2"): "w3_2"}),
    "3-form-n2m2": (AD22, "adapted", {
        (dw(2), dwj(3, 2), dwj(4, 2)): ww(3),
        (dw(2), dwj(3, 2), dwj(4, 1)): ww(4) * wj(3, 1),
        (dw(1), dw(2), dwj(4, 2)): const(3),
        (dwj(3, 1), dwj(3, 2), dwj(4, 1)): ww(3),
        (dw(1), dw(3), dwj(4, 2)): wj(4, 2)}, {
        ("dw1", "dw3_1", "dw4_1"): "-w4*w3_1",
        ("dw1", "dw3_1", "dw4_2"): "-w3",
        ("dw3_1", "dw3_2", "dw4_1"): "w3"}),
    "2-form-n3m1": (AD31, "adapted", {
        (dw(3), dwj(4, 3)): ww(4),
        (dw(2), dwj(4, 2)): wj(4, 1),
        (dw(1), dw(4)): wj(4, 3),
        (dwj(4, 1), dwj(4, 2)): cos_expr(ww(2))}, {
        ("dw1", "dw2"): "w4_2*w4_3",
        ("dw1", "dw3"): "w4_3^2",
        ("dw1", "dw4_1"): "-w4",
        ("dw2", "dw4_2"): "-w4 + w4_1",
        ("dw4_1", "dw4_2"): "cos(w2)"}),
    "3-form-n3m1-omt": (AD31, "adapted-contact", {
        (dw(1), dw(2), omt(4)): ww(4),
        (dw(1), dw(3), dwj(4, 3)): ww(4) * wj(4, 2),
        (dw(2), dw(3), dwj(4, 3)): wj(4, 1),
        (dw(3), dwj(4, 1), dwj(4, 3)): ww(4) - wj(4, 3),
        (dw(1), dw(2), dw(3)): const(5)}, {
        ("dw1", "dw2", "dw3"): "5",
        ("dw1", "dw2", "dw4_1"): "w4_1",
        ("dw1", "dw2", "dw4_2"): "-w4*w4_2",
        ("dw2", "dw4_1", "dw4_2"): "-w4 + w4_3"}),
}


@pytest.mark.parametrize("case", CONTACT_IDEAL_PINS)
def test_contact_ideal_normal_form_is_pinned(case):
    ad, mode, terms, expected = CONTACT_IDEAL_PINS[case]
    rb = reduce_contact_ideal(form(ad.chart, mode, terms, adapted=ad))
    assert rb.mode == "adapted-contact"
    assert {tuple(c.name() for c in w): to_dsl(coeff)
            for w, coeff in rb.items()} == expected


def test_adapted_d_rejects_minor_entries():
    bad = form(CH21, "adapted", {(dw(1),): wj(1, 2)}, adapted=AD21)
    with pytest.raises(FormError):
        ext_d(bad)


# ---------------------------------------------------------------------------
# immersions and pullbacks
# ---------------------------------------------------------------------------

def plane_immersion() -> Immersion:
    return Immersion(CH21, (x(1), x(2),
                            const(2) * x(1) - const(3) * x(2) + const(1)))


def test_immersion_validation():
    for components, text in [
            ((x(1), x(2)), "immersion needs 3 components, got 2"),
            ((x(1), x(2), yy(1)),
             "immersion components depend on base variables only, found y1")]:
        with pytest.raises(FormError) as info:
            Immersion(CH21, components)
        assert str(info.value) == text


def test_contact_forms_pull_back_to_zero():
    zeta = Immersion(CH21, (x(1), x(2), x(1) * x(2)))
    for word in [(om(3),), (om(1), dx(2)), (om(2), om(3))]:
        a = form(CH21, "contact", {word: yy(3) * x(1)})
        assert pullback_immersion(a, zeta).is_zero


def test_pullback_commutes_with_d():
    zeta = Immersion(CH21, (x(1), x(2), sin_expr(x(1)) * x(2)))
    a = form(CH21, "coordinate", {(dy(3),): yy(3) * yj(3, 1)})
    lhs = pullback_immersion(ext_d(a), zeta)
    rhs = ext_d(pullback_immersion(a, zeta))
    assert form_equal(lhs, rhs, trials=6, seed=2).verdict == "equal"


def test_pullback_of_horizontal_volume():
    zeta = plane_immersion()
    L = expr_sum(yj(K, 1) ** 2 for K in range(1, 4))
    a = volume_form(CH21).scale(L)
    p = pullback_immersion(a, zeta)
    # jets of the plane: y^1_1 = 1, y^2_1 = 0, y^3_1 = 2
    assert equal(p.coefficient((dx(1), dx(2))), const(5))


def test_adapted_substitution_solves_slopes():
    zeta = Immersion(CH21, (x(1) + x(2), x(1) - x(2), x(1) * x(2)))
    sub = zeta.adapted_substitution(AD21)
    # chain rule: d_j zeta^s = sum_t (d_j zeta^{i_t}) w^s_{i_t}
    for j in (1, 2):
        lhs = zeta.jet1(3, j)
        rhs = expr_sum(zeta.jet1(it, j) * sub[Sym("w1", 3, it)]
                       for it in AD21.selected)
        assert equal(lhs, rhs)


def test_pullback_adapted_matches_jet():
    zeta = Immersion(CH21, (x(1), x(2), x(1) ** 2 + x(2)))
    a = form(CH21, "adapted", {(dw(3),): ww(3)}, adapted=AD21)
    p = pullback_immersion(a, zeta)
    val = x(1) ** 2 + x(2)
    assert equal(p.coefficient((dx(1),)), val * const(2) * x(1))
    assert equal(p.coefficient((dx(2),)), val)


# ---------------------------------------------------------------------------
# comparison and serialization
# ---------------------------------------------------------------------------

def test_form_equal_across_modes():
    a = form(CH21, "coordinate", {(dy(1), dx(2)): yy(2)})
    b = to_contact(a)
    assert form_equal(a, b, trials=5, seed=0).verdict == "equal"
    c = b + form(CH21, "contact", {(om(1), dx(2)): const(1)})
    res = form_equal(a, c, trials=5, seed=0)
    assert res.verdict == "unequal"
    assert res.word is not None
    assert "unequal at word" in res.describe()


JET_1 = form(CH21, "coordinate", {(dy(1),): yy(2)})
ADAPTED_1 = form(CH21, "adapted", {(dw(3),): ww(3)}, adapted=AD21)
BASE_1 = form(CH21, "base", {(dx(1),): x(1)})
FAMILY_CROSSINGS = {
    **{f"{move.__name__}-{mode}": (move, a)
       for move in (to_contact, to_coordinate)
       for mode, a in (("adapted", ADAPTED_1),
                       ("adapted-contact", to_adapted_contact(ADAPTED_1)),
                       ("base", BASE_1))},
    **{f"{move.__name__}-{mode}": (move, a)
       for move in (to_adapted_contact, from_adapted_contact)
       for mode, a in (("coordinate", JET_1), ("contact", to_contact(JET_1)),
                       ("base", BASE_1))},
    "horizontalize-adapted": (horizontalize, ADAPTED_1),
    "contact_component-adapted": (lambda a: contact_component(a, 0),
                                  ADAPTED_1),
    "reduce_contact_ideal-coordinate": (reduce_contact_ideal, JET_1),
    "form_equal-coordinate-adapted": (lambda a: form_equal(JET_1, a),
                                      ADAPTED_1),
}


@pytest.mark.parametrize("case", FAMILY_CROSSINGS)
def test_moves_across_chart_families_raise(case):
    # the jet chart's bases and the adapted chart's are never converted
    # into each other, and base forms have no contact basis
    move, a = FAMILY_CROSSINGS[case]
    with pytest.raises(FormError, match=r"cannot move mode '[a-z-]+' to the "
                                        r"'[a-z-]+' basis"):
        move(a)


def test_form_equal_degree_mismatch_describes_itself():
    res = form_equal(form(CH21, "coordinate", {(dx(1),): ONE}),
                     volume_form(CH21), trials=5, seed=0)
    assert not res and res.verdict == "unequal"
    assert res.word is None and res.witness is None
    assert res.describe() == "unequal: the forms differ in degree"


def test_form_equal_verdict_fields():
    # no coefficient difference is a structural zero, so each is sampled
    root2, root3, root5, root6, root10 = (sqrt_expr(const(k))
                                          for k in (2, 3, 5, 6, 10))
    a = form(CH21, "coordinate", {(dx(1),): root2 * root3,
                                  (dx(2),): root2 * root5 * yy(1)})
    b = form(CH21, "coordinate", {(dx(1),): root6, (dx(2),): root10 * yy(1)})
    res = form_equal(a, b, trials=5, seed=0)
    assert res.verdict == "equal" and res.word is None
    assert res.samples == 10 and res.max_deviation < 1e-12
    unequal = form_equal(a, b + form(CH21, "coordinate", {(dx(1),): ONE}),
                         trials=5, seed=0)
    assert unequal.word == (dx(1),)
    assert unequal.describe().startswith("unequal at word dx1: unequal: lhs=")
    # a guard that never holds skips every sample
    unknown = form_equal(a, b, trials=5, seed=0, guards=[-ONE])
    assert unknown.verdict == "unknown" and not unknown
    assert unknown.witness is None and unknown.word == (dx(2),)
    assert unknown.describe() == "unknown at word dx2"


def test_form_equal_sums_skip_counts_over_coefficients():
    root2, root3, root6 = (sqrt_expr(const(k)) for k in (2, 3, 6))
    per_word = equal(root2 * root3, root6, trials=8, seed=1, guards=[yy(1)])
    assert 0 < per_word.skipped["guard"] < 8
    c = form(CH21, "coordinate", {(dx(1),): root6, (dx(2),): root2 * root3})
    d = form(CH21, "coordinate", {(dx(1),): root2 * root3, (dx(2),): root6})
    both = form_equal(c, d, trials=8, seed=1, guards=[yy(1)])
    assert both.verdict == "equal"
    assert both.skipped["guard"] == 2 * per_word.skipped["guard"]
    assert both.samples == 2 * per_word.samples
    unknown = form_equal(c, d, trials=8, seed=1, guards=[-ONE])
    assert unknown.verdict == "unknown"
    assert unknown.skipped == {"guard": 16, "domain": 0, "overflow": 0}


def test_form_equal_records_how_it_was_decided():
    a, b = yj(1, 1), yj(3, 2)
    # every coefficient difference normalizes to zero
    c = form(CH21, "coordinate", {(dx(1),): (a + b) ** 2, (dx(2),): a * b})
    d = form(CH21, "coordinate", {(dx(1),): a * a + const(2) * a * b + b * b,
                                  (dx(2),): b * a})
    res = form_equal(c, d, trials=5, seed=0)
    assert res.verdict == "equal" and res.decided_by == "structural"
    assert res.samples == 0
    assert form_equal(c, to_contact(d), trials=5, seed=0).decided_by == \
        "structural"
    # one sampled coefficient makes the whole comparison sampled
    root2, root3, root6 = (sqrt_expr(const(k)) for k in (2, 3, 6))
    e = c + form(CH21, "coordinate", {(dy(1),): root2 * root3})
    f = d + form(CH21, "coordinate", {(dy(1),): root6})
    mixed = form_equal(e, f, trials=5, seed=0)
    assert mixed.verdict == "equal" and mixed.decided_by == "sampled"
    # differing degrees decide without a sample
    assert form_equal(c, volume_form(CH21)).decided_by == "structural"


# ---------------------------------------------------------------------------
# properties of the basis changes
# ---------------------------------------------------------------------------

def _polys(st, syms):
    """Small integer polynomials in syms."""
    gens = [sym_expr(s) for s in syms]
    monos = st.tuples(st.integers(-3, 3),
                      st.lists(st.sampled_from(gens), max_size=2))
    return st.lists(monos, min_size=1, max_size=3).map(
        lambda ms: expr_sum(const(c) * prod(fs, start=ONE) for c, fs in ms))


def _basis_strategies(st):
    """Strategies for forms, vector fields and immersions on CH21, all with
    small integer polynomial coefficients unless forms gets coeffs."""
    def polys(syms):
        return _polys(st, syms)

    @st.composite
    def forms(draw, mode, pool, syms, adapted=None, coeffs=None, max_degree=2):
        degree = draw(st.integers(1, max_degree))
        words = st.lists(st.sampled_from(pool), min_size=degree,
                         max_size=degree, unique=True).map(tuple)
        coeffs = polys(syms) if coeffs is None else coeffs
        terms = draw(st.dictionaries(words, coeffs, min_size=1, max_size=3))
        return form(CH21, mode, terms, adapted=adapted)

    def fields(syms, adapted=None):
        return st.dictionaries(st.sampled_from(syms), polys(syms),
                               max_size=3).map(
            lambda comps: VectorField(CH21, comps, adapted=adapted))

    def immersions(selected=(1, 2)):
        # x^k in the k-th selected label plus terms of degree two and more,
        # so the selected minor of the jets is 1 at the origin
        higher = polys([Sym("x", 1), Sym("x", 2)]).map(lambda p: p * x(1) * x(2))

        def immersion(qs):
            return Immersion(CH21, tuple(
                q + (x(selected.index(K) + 1) if K in selected else ZERO)
                for K, q in enumerate(qs, start=1)))

        return st.tuples(higher, higher, higher).map(immersion)

    return forms, fields, immersions


def test_jet_basis_changes_are_exact_and_define_contact_forms():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    forms, fields, immersions = _basis_strategies(st)
    n, M = CH21.n, CH21.M
    syms = [Sym("x", i) for i in range(1, n + 1)]
    syms += [Sym("y", K) for K in range(1, M + 1)]
    syms += [Sym("y1", K, j) for K in range(1, M + 1) for j in range(1, n + 1)]
    pools = {
        "coordinate": [dx(i) for i in range(1, n + 1)]
        + [dy(K) for K in range(1, M + 1)]
        + [dyj(K, j) for K in range(1, M + 1) for j in range(1, n + 1)],
        "contact": [dx(i) for i in range(1, n + 1)]
        + [om(K) for K in range(1, M + 1)]
        + [omj(K, j) for K in range(1, M + 1) for j in range(1, n + 1)],
    }
    a_forms = st.sampled_from(sorted(pools)).flatmap(
        lambda mode: forms(mode, pools[mode], syms))

    @hyp.settings(max_examples=40)
    @hyp.given(a_forms, fields(syms), immersions())
    def check(a, X, zeta):
        there, back = ((to_contact, to_coordinate) if a.mode == "coordinate"
                       else (to_coordinate, to_contact))
        assert back(there(a)) == a
        assert back(contract(X, there(a))) == contract(X, a)
        # the contact covectors pull back to zero along prolongations, and
        # the coordinate-mode pullback reads the immersion's own jets
        c = to_contact(a)
        lhs = pullback_immersion(to_coordinate(c), zeta)
        assert (lhs - pullback_immersion(contact_component(c, 0), zeta)).is_zero

    check()


def test_adapted_basis_changes_are_exact_and_define_contact_forms():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    forms, fields, immersions = _basis_strategies(st)

    @st.composite
    def cases(draw):
        ad = AdaptedChart(CH21, draw(st.sampled_from([(1, 2), (1, 3), (2, 3)])))
        slopes = [(s, i) for s in ad.complement for i in ad.selected]
        syms = [Sym("w", K) for K in range(1, CH21.M + 1)]
        syms += [Sym("w1", s, i) for s, i in slopes]
        pools = {
            "adapted": [dw(K) for K in range(1, CH21.M + 1)]
            + [dwj(s, i) for s, i in slopes],
            "adapted-contact": [dw(i) for i in ad.selected]
            + [omt(s) for s in ad.complement] + [dwj(s, i) for s, i in slopes],
        }
        mode = draw(st.sampled_from(sorted(pools)))
        return (draw(forms(mode, pools[mode], syms, ad)),
                draw(fields(syms, ad)), draw(immersions(ad.selected)))

    @hyp.settings(max_examples=25)
    @hyp.given(cases())
    def check(case):
        a, X, zeta = case
        there, back = ((to_adapted_contact, from_adapted_contact)
                       if a.mode == "adapted"
                       else (from_adapted_contact, to_adapted_contact))
        assert back(there(a)) == a
        assert back(contract(X, there(a))) == contract(X, a)
        # omt pulls back to zero: only the omt-free words survive
        c = to_adapted_contact(a)
        free = DiffForm(CH21, c.degree, c.mode, adapted=c.adapted, terms={
            w: v for w, v in c.terms.items() if all(cv.kind != "omt" for cv in w)})
        lhs = pullback_immersion(c, zeta)
        assert (lhs - pullback_immersion(free, zeta)).is_zero

    check()


# ---------------------------------------------------------------------------
# the Lie derivative against Cartan's formula
# ---------------------------------------------------------------------------

def _polynomial(e: Expr) -> bool:
    return e.den == ONE.den


def cartan(X: VectorField, a: DiffForm) -> DiffForm:
    """The oracle: L_X a = i_X d a + d i_X a."""
    return contract(X, ext_d(a)) + ext_d(contract(X, a))


def test_lie_derivative_is_cartans_formula():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    forms, fields, _ = _basis_strategies(st)
    n, M = CH21.n, CH21.M
    ys = [Sym("y", K) for K in range(1, M + 1)]
    jet_syms = [Sym("x", i) for i in range(1, n + 1)] + ys
    jet_syms += [Sym("y1", K, j) for K in range(1, M + 1)
                 for j in range(1, n + 1)]

    def coeffs(syms):
        # polynomials, and polynomials over a positive polynomial
        rationals = st.tuples(_polys(st, syms), _polys(st, syms)).map(
            lambda pq: pq[0] / (pq[1] * pq[1] + ONE))
        return st.one_of(_polys(st, syms), rationals)

    specs = st.tuples(*[_polys(st, ys)] * M).map(
        lambda comps: VectorFieldSpec(CH21, comps))

    @st.composite
    def cases(draw):
        mode = draw(st.sampled_from(
            ["coordinate", "contact", "adapted", "adapted-contact"]))
        if mode in ("coordinate", "contact"):
            pool = [dx(i) for i in range(1, n + 1)]
            if mode == "coordinate":
                pool += [dy(K) for K in range(1, M + 1)]
                pool += [dyj(K, j) for K in range(1, M + 1)
                         for j in range(1, n + 1)]
            else:  # om^K_j would need second-order coefficients for d
                pool += [om(K) for K in range(1, M + 1)]
            a = draw(forms(mode, pool, jet_syms, coeffs=coeffs(jet_syms),
                           max_degree=3))
            X = draw(st.one_of(specs.map(lambda xi: prolong_jet(xi, order=1)),
                               fields(jet_syms)))
            return a, X
        ad = AdaptedChart(CH21, draw(st.sampled_from([(1, 2), (1, 3), (2, 3)])))
        slopes = [(s, i) for s in ad.complement for i in ad.selected]
        syms = [Sym("w", K) for K in range(1, M + 1)]
        syms += [Sym("w1", s, i) for s, i in slopes]
        pool = [dwj(s, i) for s, i in slopes]
        if mode == "adapted":
            pool += [dw(K) for K in range(1, M + 1)]
        else:
            pool += [dw(i) for i in ad.selected] + [omt(s) for s in ad.complement]
        a = draw(forms(mode, pool, syms, ad, coeffs=coeffs(syms), max_degree=3))
        X = draw(st.one_of(specs.map(lambda xi: prolong_grassmann(xi, ad)),
                           fields(syms, ad)))
        return a, X

    @hyp.settings(max_examples=60)
    @hyp.given(cases())
    def check(case):
        a, X = case
        lie, oracle = lie_derivative(X, a), cartan(X, a)
        assert (lie - oracle).is_zero
        # Cartan's route can leave a common factor in a rational coefficient
        # that the normal form does not cancel: L_X of dw3_1^dw3_2/(1 + w1^2)
        # along X = w1^2 d/dw3 + 2 w1 d/dw3_1 is 2/(1 + w1^2) dw1^dw3_2, and
        # Cartan's formula gives (2 + 2 w1^2)/(1 + w1^2)^2 there
        if all(_polynomial(c) for c in [*a.terms.values(),
                                         *X.components.values()]):
            assert lie == oracle

    check()


def test_lie_derivative_keeps_the_basis_of_differentials():
    X = VectorField(CH21, {Sym("y", 1): yy(2), Sym("x", 1): yj(3, 2)})
    a = form(CH21, "contact", {(om(1), dx(2)): yy(3) * x(1)})
    assert lie_derivative(X, a).mode == "coordinate"
    assert lie_derivative(X, a) == cartan(X, a)
    Xw = VectorField(CH21, {Sym("w", 3): ww(1), Sym("w1", 3, 2): ww(2)},
                     adapted=AD21)
    b = form(CH21, "adapted-contact", {(omt(3), dw(1)): wj(3, 1)}, adapted=AD21)
    assert lie_derivative(Xw, b).mode == "adapted"
    assert lie_derivative(Xw, b) == cartan(Xw, b)


@pytest.mark.parametrize("bad", [
    form(CH21.raised(), "coordinate", {(dx(1),): sym_expr(Sym("y2", 1, 1, 1))}),
    form(CH21, "adapted", {(dw(1),): wj(1, 2)}, adapted=AD21),
], ids=["second-order", "minor-entry"])
def test_lie_derivative_rejects_what_ext_d_rejects(bad):
    X = VectorField(CH21, {Sym("x", 1): ONE, Sym("w", 1): ONE})
    with pytest.raises(FormError) as by_d:
        ext_d(bad)
    with pytest.raises(FormError) as by_lie:
        lie_derivative(X, bad)
    assert str(by_lie.value) == str(by_d.value)
