"""Property tests of the sparse term kernel in kpeterson.polynomials.

Poly arithmetic is checked against sympy's sparse rings over QQ (a test
oracle only); SymFunc and the power-sum conversions are checked against Poly
through to_poly/from_poly and against their own inverses.  The packed-int
multiply is checked against a plain tuple loop kept here as the reference,
on both exponent layouts, and the packed exact division against the
tuple-heap division it replaced, kept here as ``reference_exact_div``.
``grouped_product``, with power slots (Horner's rule) and indexed slots, is
checked against ``helpers.reference_grouped_product``, a term-by-term sum.
The ring maps of the symmetric-function layer
(to_p_dict, from_p_dict, kappa, expand_in_vars), which run as one
Poly.substitute each, are checked against term-by-term product loops.
"""

import heapq
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring

from helpers import Powers, reference_grouped_product, reference_kappa_p
from kpeterson.peterson import kappa
from kpeterson.polynomials import (
    Poly,
    grouped_product,
    power_table,
    terms_add,
    terms_exact_div,
    terms_mul,
)
from kpeterson.scalars import Rational, exact_quotient, normalize
from kpeterson.symfunc import (
    _H_IN_P,
    _P_IN_H,
    SymFunc,
    _ensure_newton,
    _h_expansion,
    from_p_dict,
    to_p_dict,
)

VARS = ("x1", "x2", "x3")
SYMPY_RING = ring(",".join(VARS), QQ)[0]

coeffs = st.builds(Rational, st.integers(-5, 5), st.integers(1, 4))


def polys(max_size=5, min_size=0):
    exps = st.tuples(*[st.integers(0, 3)] * len(VARS))
    nonzero = coeffs.filter(bool)
    return st.dictionaries(exps, nonzero, min_size=min_size, max_size=max_size).map(
        lambda d: Poly(VARS, d)
    )


def symfuncs(max_size=4, min_size=0):
    exps = st.lists(st.integers(0, 2), max_size=3)
    pairs = st.lists(st.tuples(exps, coeffs), min_size=min_size, max_size=max_size)
    return pairs.map(
        lambda items: sum(
            (SymFunc.monomial(e, c) for e, c in items), SymFunc.zero()
        )
    )


def to_sympy(p: Poly):
    return SYMPY_RING.from_dict(
        {e: QQ(int(c.numerator), int(c.denominator)) for e, c in p.terms.items()}
    )


def sympy_exquo(a: Poly, b: Poly):
    try:
        return to_sympy(a).exquo(to_sympy(b))
    except ExactQuotientFailed:
        return None


@given(polys(), polys())
def test_poly_mul_matches_sympy(a, b):
    assert to_sympy(a * b) == to_sympy(a) * to_sympy(b)


@given(polys(3), polys(3, min_size=1), polys(2, min_size=1))
def test_poly_exact_div_matches_sympy(a, b, r):
    for f in (a * b, a * b + r):
        q = f.exact_div(b)
        expected = sympy_exquo(f, b)
        if expected is None:
            assert q is None
        else:
            assert q is not None and to_sympy(q) == expected


WIDE = 7  # h1..h6: wider than any monomial the strategy builds


def via_poly(f: SymFunc) -> Poly:
    return f.to_poly(WIDE)


@given(symfuncs(), symfuncs())
def test_symfunc_add_mul_match_poly(f, g):
    assert via_poly(f + g) == via_poly(f) + via_poly(g)
    assert via_poly(f * g) == via_poly(f) * via_poly(g)
    assert via_poly(f - g) == via_poly(f) - via_poly(g)


@given(symfuncs(3), symfuncs(3, min_size=1), symfuncs(2, min_size=1))
def test_symfunc_exact_div_matches_poly(a, b, r):
    if b.is_zero():
        return  # the drawn terms cancelled
    for f in (a * b, a * b + r):
        q = f.exact_div(b)
        expected = via_poly(f).exact_div(via_poly(b))
        if expected is None:
            assert q is None
        else:
            assert q == SymFunc.from_poly(expected)
    assert (a * b).exact_div(b) == a


@given(symfuncs())
def test_p_dict_roundtrip(f):
    assert from_p_dict(to_p_dict(f)) == f


@given(symfuncs(3), st.integers(0, 3))
def test_kappa_is_an_involution(f, d):
    assert kappa(d, kappa(d, f)) == f


# -- the packed multiply against a tuple loop ------------------------------------


def reference_mul(t1, t2):
    """Tuple-loop product of two term maps: slot sums, with the shorter
    tuple read as padded by zeros (the trimmed layout) and the result as
    long as the longer operand tuple."""
    acc = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(a + b for a, b in zip_longest(e1, e2, fillvalue=0))
            acc[e] = acc.get(e, 0) + Fraction(c1) * c2
    return {e: c for e, c in acc.items() if c}


def trim(e):
    while e and e[-1] == 0:
        e = e[:-1]
    return e


def assert_normalized(terms):
    for c in terms.values():
        assert type(c) in (int, Fraction)
        assert type(c) is int or c.denominator != 1


mixed_coeffs = st.one_of(st.integers(-9, 9), coeffs).filter(bool).map(normalize)
big_exps = st.integers(0, 300)


def fixed_terms(width=3):
    exps = st.tuples(*[big_exps] * width)
    return st.dictionaries(exps, mixed_coeffs, max_size=5)


def trimmed_terms():
    exps = st.lists(big_exps, max_size=4).map(lambda e: trim(tuple(e)))
    return st.dictionaries(exps, mixed_coeffs, max_size=5)


@given(fixed_terms(), fixed_terms())
def test_packed_mul_matches_tuple_loop_fixed_width(t1, t2):
    got = terms_mul(t1, t2)
    assert got == reference_mul(t1, t2)
    assert all(len(e) == 3 for e in got)
    assert_normalized(got)


@given(trimmed_terms(), trimmed_terms())
def test_packed_mul_matches_tuple_loop_trimmed(t1, t2):
    got = terms_mul(t1, t2)
    assert got == reference_mul(t1, t2)
    assert all(e == trim(e) for e in got)
    assert_normalized(got)


@pytest.mark.parametrize(
    "a, b", [(255, 1), (128, 128), (255, 256), (256, 256), (511, 1), (300, 212), (300, 300)]
)
def test_field_width_holds_slot_sums_across_byte_boundaries(a, b):
    t1 = {(a, 0, b): 1, (0, b, 0): 2, (1, 1, 1): -1}
    t2 = {(b, a, 0): 3, (a, 0, a): Fraction(1, 2), (0, 0, 0): 5}
    assert terms_mul(t1, t2) == reference_mul(t1, t2)
    s1 = {(a,): 1, (0, b): 2, (): -1}
    s2 = {(b, a): 3, (0, 0, a): 1}
    assert terms_mul(s1, s2) == reference_mul(s1, s2)


@given(fixed_terms(), fixed_terms())
def test_mixed_coefficients_normalized(t1, t2):
    a, b = Poly(VARS, t1), Poly(VARS, t2)
    for result in (a * b, a + b, a - b, a * 3, a * Fraction(2, 3), -a):
        assert_normalized(result.terms)


@given(polys(3), polys(3, min_size=1))
def test_exact_div_coefficients_normalized(a, b):
    q = (a * b).exact_div(b)
    assert q == a
    assert_normalized(q.terms)


def test_integral_fractions_become_ints():
    half = Poly.monomial(VARS, (1, 0, 0), Fraction(1, 2))
    product = half * Poly.monomial(VARS, (0, 1, 0), 2)
    assert product.terms == {(1, 1, 0): 1}
    assert type(product.terms[(1, 1, 0)]) is int
    total = half + half
    assert type(total.terms[(1, 0, 0)]) is int
    assert type(Poly.const(VARS, Fraction(4, 2)).constant_term()) is int
    assert type(SymFunc.const(Fraction(6, 3)).constant_term()) is int


def test_exact_div_inexact_leading_quotient_is_a_fraction():
    x = Poly.variable(VARS, "x1")
    q = (x * 3).exact_div(x * 2)
    assert q.terms == {(0, 0, 0): Fraction(3, 2)}
    assert type(q.terms[(0, 0, 0)]) is Fraction
    q = (x * 4).exact_div(x * 2)
    assert q.terms == {(0, 0, 0): 2} and type(q.terms[(0, 0, 0)]) is int


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly.monomial(VARS, (1, -1, 0))
    with pytest.raises(ValueError):
        Poly.from_json({"vars": list(VARS), "terms": [{"coeff": "1", "exps": [0, -2, 0]}]})


# -- the grouped product against a plain sum of products ---------------------------


def as_table(slot):
    """The grouped_product table of a test slot: a power_table for Powers
    (a power slot when the base is a Poly), a list lookup otherwise."""
    return power_table(slot.base) if isinstance(slot, Powers) else slot.__getitem__


leaves = st.one_of(polys(3), mixed_coeffs)
entries = st.one_of(polys(2), mixed_coeffs, st.just(1), st.just(0))
units = st.sampled_from([0, 1, -1])
bases = st.one_of(polys(2), mixed_coeffs, units, units.map(lambda c: Poly.const(VARS, c)))


@st.composite
def grouped_sums(draw):
    """(parts, slots): each slot indexed (a list, entry 0 drawn like any
    other) or Powers of a Poly or number base (a power slot for a Poly, an
    indexed slot for a number); a slot whose largest exponent is 0 is unused
    by every key."""
    slots, tops = [], []
    for top in draw(st.lists(st.integers(0, 4), max_size=3)):
        if draw(st.booleans()):
            slots.append(Powers(draw(bases)))
        else:
            slots.append(draw(st.lists(entries, min_size=top + 1, max_size=top + 1)))
        tops.append(top)
    keys = st.tuples(*[st.integers(0, top) for top in tops])
    return draw(st.dictionaries(keys, leaves, max_size=6)), slots


X1 = Poly.monomial(VARS, (1, 0, 0))
X2 = Poly.monomial(VARS, (0, 1, 0))


@given(grouped_sums())
@example(({}, []))
@example(({}, [[1, 2]]))
@example(({(): 3}, []))
@example(({(0, 0): 2, (0, 1): Fraction(1, 2)}, [[1], [1, 1]]))
@example(({(0,): 2, (1,): -1}, [[X1, 5]]))
@example(({(0,): 2, (3,): X2}, [Powers(X1 + 1)]))  # gapped exponents {0, 3}
@example(({(0, 3): X1, (2, 0): 3}, [Powers(Fraction(-1, 2)), Powers(X2 - 2)]))
@example(({(2,): 3}, [Powers(X1)]))  # the only key has a positive exponent
@example(({(2, 1): X1}, [Powers(-1), [X2, X1 - X2]]))
@example(({(0,): X2, (2,): 5, (3,): X1}, [Powers(0)]))
@example(({(1, 0): X1, (3, 2): -2}, [Powers(1), Powers(-1)]))
@example(({(1, 0, 2): X1, (3, 2, 0): -2}, [Powers(Poly.const(VARS, c)) for c in (0, 1, -1)]))
def test_grouped_product_matches_sum_of_products(case):
    parts, slots = case
    zero = Poly.zero(VARS)
    got = grouped_product(parts, [as_table(slot) for slot in slots], zero)
    assert isinstance(got, Poly) and got.vars == VARS
    assert got == reference_grouped_product(parts, slots, zero)


@given(polys(3), st.integers(0, 6))
def test_power_table_matches_pow(base, e):
    power = power_table(base)
    assert power(e) == base**e
    assert power(e) is power(e)


# -- the ring maps of Lambda against term-by-term product loops ---------------------


def reference_to_p_dict(f: SymFunc) -> dict:
    """Each h-monomial of f multiplied out over the p-images of its h_i."""
    out: dict = {}
    for e, c in f.terms.items():
        term = {(): c}
        for i, exp in enumerate(e, start=1):
            if exp:
                _ensure_newton(i)
                for _ in range(exp):
                    term = terms_mul(term, _H_IN_P[i])
        out = terms_add(out, term)
    return out


def reference_from_p_dict(d: dict) -> SymFunc:
    """Each p-monomial of d multiplied out over the h-images of its p_i."""
    total = SymFunc.zero()
    for e, c in d.items():
        term = SymFunc.const(c)
        for i, exp in enumerate(e, start=1):
            if exp:
                _ensure_newton(i)
                for _ in range(exp):
                    term = term * _P_IN_H[i]
        total = total + term
    return total


def reference_kappa(d: int, f: SymFunc) -> SymFunc:
    """kappa_d applied in the p-basis: to p, each p_i to kappa_d(p_i), back."""
    total: dict = {}
    for exps, coeff in reference_to_p_dict(f).items():
        term = {(): coeff}
        for i, e in enumerate(exps, start=1):
            for _ in range(e):
                term = terms_mul(term, reference_kappa_p(d, i))
        total = terms_add(total, term)
    return reference_from_p_dict(total)


def reference_expand_in_vars(f: SymFunc, num_vars: int) -> Poly:
    """Each h-monomial of f multiplied out over the x-expansions of its h_i."""
    variables = tuple(f"x{i}" for i in range(1, num_vars + 1))
    out = Poly.zero(variables)
    for e, c in f.terms.items():
        term = Poly.const(variables, c)
        for i, exp in enumerate(e, start=1):
            for _ in range(exp):
                term = term * _h_expansion(i, num_vars)
        out = out + term
    return out


# zero, a constant, a monomial in the widest generator alone (the narrower ones
# absent) and monomials of mixed widths
EDGE_SYMFUNCS = (
    SymFunc.zero(),
    SymFunc.const(Fraction(-3, 2)),
    SymFunc.monomial((0, 0, 2), 3),
    SymFunc.monomial((0, 0, 0, 1)) + SymFunc.monomial((1,), Fraction(1, 2)) + 4,
)


def with_edge_cases(*rest):
    """Run a test on each of EDGE_SYMFUNCS, with `rest` as its other arguments."""

    def decorate(test):
        for f in EDGE_SYMFUNCS:
            test = example(f, *rest)(test)
        return test

    return decorate


def is_trimmed(terms) -> bool:
    return all(e == trim(e) for e in terms)


@given(symfuncs())
@with_edge_cases()
def test_to_p_dict_matches_product_loop(f):
    got = to_p_dict(f)
    assert got == reference_to_p_dict(f)
    assert is_trimmed(got)
    assert_normalized(got)


@given(symfuncs())
@with_edge_cases()
def test_from_p_dict_matches_product_loop(f):
    p_dict = f.terms  # read as a p-dict
    got = from_p_dict(p_dict)
    assert got == reference_from_p_dict(p_dict)
    assert is_trimmed(got.terms)
    assert_normalized(got.terms)


@given(symfuncs(3), st.integers(0, 4))
@with_edge_cases(0)
@with_edge_cases(3)
def test_kappa_matches_p_basis_loop(f, d):
    got = kappa(d, f)
    assert got == reference_kappa(d, f)
    assert is_trimmed(got.terms)


@given(symfuncs(3), st.integers(0, 4))
@with_edge_cases(0)
@with_edge_cases(3)
def test_expand_in_vars_matches_product_loop(f, num_vars):
    got = f.expand_in_vars(num_vars)
    assert got.vars == tuple(f"x{i}" for i in range(1, num_vars + 1))
    assert got == reference_expand_in_vars(f, num_vars)


@given(symfuncs(3), st.integers(0, 4))
def test_symfunc_pow_matches_repeated_product(f, k):
    expected = SymFunc.one()
    for _ in range(k):
        expected = expected * f
    assert f**k == expected


# -- the packed exact division against the tuple-heap division ----------------------


def reference_exact_div(t, divisor):
    """The tuple-heap division the packed one replaced: single-divisor
    reduction in graded-lex order over exponent tuples, the leading term
    tracked through a lazy max-heap of (-degree, negated tuple) keys."""
    if not divisor:
        raise ZeroDivisionError("polynomial division by zero")
    dlt_exps, dlt_coeff = max(divisor.items(), key=lambda item: (sum(item[0]), item[0]))
    quotient = {}
    rem = dict(t)
    heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
    heapq.heapify(heap)
    while heap:
        exps = heapq.heappop(heap)[2]
        coeff = rem.get(exps)
        if not coeff:
            continue
        q_exps = tuple(a - b for a, b in zip(exps, dlt_exps))
        if any(e < 0 for e in q_exps):
            return None
        q_coeff = exact_quotient(coeff, dlt_coeff)
        quotient[q_exps] = q_coeff
        for e, c in divisor.items():
            target = tuple(a + b for a, b in zip(e, q_exps))
            old = rem.get(target)
            s = normalize((old or 0) - q_coeff * c)
            if s:
                rem[target] = s
                if old is None and target != exps:
                    heapq.heappush(heap, (-sum(target), tuple(-x for x in target), target))
            else:
                rem.pop(target, None)
    return quotient


def div_terms(min_size=0, max_size=4):
    exps = st.tuples(*[st.integers(0, 5)] * len(VARS))
    return st.dictionaries(exps, mixed_coeffs, min_size=min_size, max_size=max_size)


def assert_division_matches(t, divisor):
    got = terms_exact_div(t, divisor)
    assert got == reference_exact_div(t, divisor)
    if got is not None:
        assert_normalized(got)
        assert terms_mul(got, divisor) == t
    return got


X1, X2 = {(1, 0, 0): 1}, {(0, 1, 0): 1}


@given(div_terms(), div_terms(min_size=1), div_terms())
@example({}, X1, {})  # the zero dividend
@example({}, {(3, 1, 0): 1, (0, 0, 1): 2}, {(0, 0, 0): 5})  # a constant by a degree-4 divisor
@example({}, {(0, 2, 0): 2}, {(1, 0, 0): Fraction(1, 3)})  # a lower-degree dividend
@example({(1, 1, 0): Fraction(1, 2)}, {(1, 0, 0): 1, (0, 1, 0): -1}, {(2, 0, 0): 1})  # inexact
# inexact, and a lex reduction would raise x2 past the field width of degree 3
@example({}, {(1, 0, 0): 1, (0, 3, 0): -1}, {(3, 0, 0): 1})
def test_packed_exact_div_matches_tuple_heap(a, b, r):
    for t in (terms_mul(a, b), terms_add(terms_mul(a, b), r), r):
        assert_division_matches(t, b)


@pytest.mark.parametrize("a, b", [(255, 1), (127, 128), (255, 256), (300, 212), (511, 1)])
def test_packed_exact_div_across_field_widths(a, b):
    divisor = {(b, 0, 1): 3, (0, a, 0): Fraction(1, 2), (1, 1, 1): -1}
    quotient = {(a, 0, b): 1, (0, b, 0): 2, (0, 0, 0): 5}
    assert assert_division_matches(terms_mul(quotient, divisor), divisor) == quotient
    assert assert_division_matches(terms_add(terms_mul(quotient, divisor), X2), divisor) is None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_div_by_tau_sigma_factors(n):
    from kpeterson.peterson import phi_context

    ctx = phi_context(n)
    one, h1 = Poly.const(ctx.hvars, 1), Poly.variable(ctx.hvars, "h1")
    for factor in ctx.factors:
        # a dividend of lower degree than the divisor, and the zero dividend
        for low in (one * 7, h1, h1 * Fraction(2, 3) + 1):
            assert low.exact_div(factor) is None
            assert reference_exact_div(low.terms, factor.terms) is None
        assert Poly.zero(ctx.hvars).exact_div(factor) == Poly.zero(ctx.hvars)
        for other in ctx.factors:
            product = factor * other
            assert assert_division_matches(product.terms, factor.terms) == other.terms
            assert assert_division_matches((product + h1).terms, factor.terms) is None


@given(symfuncs(3), symfuncs(3, min_size=1), symfuncs(2, min_size=1))
def test_symfunc_exact_div_matches_tuple_heap(a, b, r):
    if b.is_zero():
        return  # the drawn terms cancelled
    for f in (a * b, a * b + r, r):
        width = max(map(len, (*f.terms, *b.terms)), default=0) + 1
        expected = reference_exact_div(f.to_poly(width).terms, b.to_poly(width).terms)
        q = f.exact_div(b)
        if expected is None:
            assert q is None
        else:
            assert q == SymFunc.from_poly(Poly(f.to_poly(width).vars, expected))
