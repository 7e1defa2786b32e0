"""Property tests of the sparse term kernel in kpeterson.polynomials.

Poly arithmetic is checked against sympy's sparse rings over QQ (a test
oracle only); SymFunc and the power-sum conversions are checked against Poly
through to_poly/from_poly and against their own inverses.
"""

from hypothesis import given
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import ring

from kpeterson.peterson import kappa
from kpeterson.polynomials import Poly
from kpeterson.scalars import Rational
from kpeterson.symfunc import SymFunc, from_p_dict, to_p_dict

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
