import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import reference_evaluate
from kpeterson.polynomials import Poly
from kpeterson.scalars import Rational

VARS = ("x1", "x2", "x3")


def poly_strategy():
    coeffs = st.integers(-5, 5)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda d: Poly(VARS, {e: Rational(c) for e, c in d.items() if c})
    )


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@given(poly_strategy(), poly_strategy())
def test_exact_division_of_products(a, b):
    if b.is_zero():
        return
    q = (a * b).exact_div(b)
    assert q == a


def test_exact_division_failure_returns_none():
    x1 = Poly.variable(VARS, "x1")
    x2 = Poly.variable(VARS, "x2")
    assert (x1 * x1 + x2).exact_div(x1 + 1) is None


def test_truediv_raises_on_inexact():
    x1 = Poly.variable(VARS, "x1")
    with pytest.raises(ValueError):
        (x1 + 1) / Poly.variable(VARS, "x2")


@given(poly_strategy(), poly_strategy())
def test_evaluation_is_a_homomorphism(a, b):
    point = {"x1": Rational(2, 3), "x2": Rational(-1, 2), "x3": Rational(5)}
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


values = st.one_of(
    st.integers(-4, 4),
    st.builds(Rational, st.integers(-6, 6), st.integers(1, 5)),
)
fraction_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.builds(Rational, st.integers(-6, 6).filter(bool), st.integers(1, 4)),
    max_size=6,
).map(lambda d: Poly(VARS, d))


@given(fraction_polys, st.tuples(values, values, values))
def test_evaluation_matches_fraction_powers(p, point):
    # The int evaluation (one division by prod q_j^D_j at the end) against
    # the sum over cached Fraction powers; ints and zeros among the values.
    point = dict(zip(VARS, point))
    got = p.evaluate(point)
    assert got == reference_evaluate(p, point) and type(got) is Rational


def test_evaluation_reads_every_variable():
    x1 = Poly.variable(VARS, "x1")
    with pytest.raises(KeyError):
        (x1 + 1).evaluate({"x1": 1, "x2": 2})
    assert Poly.zero(VARS).evaluate(dict.fromkeys(VARS, 3)) == 0


def test_specialize_drops_variables():
    x1 = Poly.variable(VARS, "x1")
    x2 = Poly.variable(VARS, "x2")
    p = x1 * x2 + x2 * 3 + 1
    q = p.substitute({"x2": Rational(0)}, ("x1", "x3"))
    assert q.vars == ("x1", "x3") and q == Poly.const(("x1", "x3"), 1)


def _random_poly(rng, variables, max_terms=4, max_exp=2):
    total = Poly.zero(variables)
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        coeff = Rational(rng.randint(-4, 4), rng.randint(1, 3))
        total = total + Poly.monomial(variables, exps, coeff)
    return total


def test_substitute_matches_evaluation():
    # source x1..x3, y; target y, z1, z2 and an unused foreign zeta.  Images
    # share target variables, x3's image is a constant, and y is kept.
    rng = random.Random(5)
    source = ("x1", "x2", "x3", "y")
    target = ("zeta", "y", "z1", "z2")
    for _ in range(40):
        p = _random_poly(rng, source, max_exp=3)
        images = {
            "x1": _random_poly(rng, target[1:]).with_vars(target),
            "x2": _random_poly(rng, target[1:]).with_vars(target),
            "x3": Rational(rng.randint(-3, 3), rng.randint(1, 2)),
        }
        q = p.substitute(images, target)
        assert q.vars == target and q.degree_in("zeta") == 0
        for _ in range(3):
            point = {v: Rational(rng.randint(-5, 5), rng.randint(1, 4)) for v in target}
            values = {
                name: img.evaluate(point) if isinstance(img, Poly) else img
                for name, img in images.items()
            }
            values["y"] = point["y"]
            assert q.evaluate(point) == p.evaluate(values)


def test_substitute_drops_and_ignores_unused_variables():
    # an unused source variable (zeta) need not be in the target, and an
    # image for a name the polynomial does not have is ignored
    source = ("zeta", "x1", "x2")
    x1, x2 = Poly.variable(source, "x1"), Poly.variable(source, "x2")
    target = ("z1", "z2")
    z1, z2 = Poly.variable(target, "z1"), Poly.variable(target, "z2")
    images = {"x1": 1 - z1, "x2": 1 - z2, "x3": z1}
    assert (x1 * x2).substitute(images, target) == (1 - z1) * (1 - z2)
    with pytest.raises(ValueError):
        Poly.variable(source, "zeta").substitute(images, target)
    same = z1 + z2 * z2
    assert same.substitute({}, target) is same


def test_swap_and_embed_vars():
    x1 = Poly.variable(VARS, "x1")
    x2 = Poly.variable(VARS, "x2")
    p = x1 * x1 + x2
    assert p.swap_vars("x1", "x2") == x2 * x2 + x1
    wide = p.with_vars(("x0",) + VARS)
    assert wide.degree_in("x1") == 2 and wide.vars[0] == "x0"


def test_json_roundtrip_and_determinism():
    rng = random.Random(3)
    terms = {
        (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)): Rational(
            rng.randint(-5, 5) or 1, rng.randint(1, 7)
        )
        for _ in range(6)
    }
    p = Poly(VARS, terms)
    data = p.to_json()
    assert Poly.from_json(data) == p
    assert data == p.to_json()
