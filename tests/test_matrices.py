import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_det_bareiss, reference_matmul, reference_sparse_gauss_jordan
from kpeterson.matrices import DecompositionError, RingMatrix, _det_wedge, wedges
from kpeterson.polynomials import Poly
from kpeterson.scalars import Rational
from kpeterson.symfunc import SymFunc


def identity(n):
    return RingMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def reference_gauss_jordan(rows, rhs_rows):
    """Dense Gauss-Jordan over Fraction, first non-zero pivot in each
    column: the independent reference for RingMatrix.inverse and solve."""
    n = len(rows)
    aug = [
        [Rational(x) for x in row] + [Rational(b) for b in extra]
        for row, extra in zip(rows, rhs_rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Rational(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# Mostly zeros and small integers, with some non-unit and fractional entries,
# so that both unit and non-unit pivots occur and many draws are singular.
entries = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-3, 3),
    st.builds(Rational, st.integers(-4, 4), st.integers(1, 3)),
)


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    rhs = draw(st.lists(entries, min_size=n, max_size=n))
    return rows, rhs


def _reference_or_singular(rows, rhs_rows):
    try:
        return reference_gauss_jordan(rows, rhs_rows)
    except ZeroDivisionError:
        return None


@settings(max_examples=300)
@given(square_systems())
@example(([[0, 1, 2], [3, 0, 1], [1, 1, 0]], [1, 2, 3]))  # zero leading pivot: a row exchange
@example(([[1, 0, 1], [0, 1, 1], [1, 1, 2]], [1, 0, 2]))  # singular: only the last pivot is zero
@example(([], []))  # 0 x 0
def test_inverse_matches_reference(system):
    rows, _ = system
    n = len(rows)
    expected = _reference_or_singular(rows, [[int(i == j) for j in range(n)] for i in range(n)])
    if expected is None:
        with pytest.raises(ZeroDivisionError):
            RingMatrix(rows).inverse()
    else:
        got = RingMatrix(rows).inverse().rows
        assert [list(r) for r in got] == expected
        assert all(type(x) is int for r in got for x in r if x.denominator == 1)


@settings(max_examples=300)
@given(square_systems())
@example(([[0, 1, 2], [3, 0, 1], [1, 1, 0]], [1, 2, 3]))  # zero leading pivot: a row exchange
@example(([[1, 0, 1], [0, 1, 1], [1, 1, 2]], [1, 0, 2]))  # singular: only the last pivot is zero
@example(([], []))  # 0 x 0
def test_solve_matches_reference(system):
    rows, rhs = system
    expected = _reference_or_singular(rows, [[b] for b in rhs])
    if expected is None:
        with pytest.raises(ZeroDivisionError):
            RingMatrix(rows).solve(rhs)
    else:
        assert RingMatrix(rows).solve(rhs) == [row[0] for row in expected]


def _integral_entries_are_int(rows):
    return all(type(x) is int for row in rows for x in row if x.denominator == 1)


@settings(max_examples=300)
@given(square_systems())
@example(([[0, 0], [1, 2]], [1, 1]))  # singular
@example(([[0, 1], [1, 0]], [2, 3]))  # zero leading minor
@example(([[2, 3], [3, 5]], [1, 0]))  # non-unit pivots, integral inverse
@example(([[Rational(1, 2), Rational(2, 3)], [Rational(3, 4), 2]], [1, Rational(-1, 5)]))
def test_int_elimination_matches_fraction_elimination(system):
    # The int elimination (rows scaled to int, Bareiss with row exchanges,
    # back substitution on det * X) against the sparse Fraction Gauss-Jordan,
    # which divides each pivot row through.
    rows, rhs = system
    n = len(rows)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    for rhs_rows, run in (
        (eye, lambda m: m.inverse().rows),
        ([[b] for b in rhs], lambda m: [[x] for x in m.solve(rhs)]),
    ):
        try:
            expected = reference_sparse_gauss_jordan(rows, rhs_rows)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                run(RingMatrix(rows))
            continue
        got = run(RingMatrix(rows))
        assert [list(r) for r in got] == expected
        assert _integral_entries_are_int(got)


def test_integral_inverse_with_non_unit_pivots_stays_int():
    m = RingMatrix([[2, 3, 0], [3, 5, 0], [0, 0, -1]])
    inv = m.inverse()
    assert inv.rows == ((5, -3, 0), (-3, 2, 0), (0, 0, -1))
    assert all(type(x) is int for row in inv.rows for x in row)


@st.composite
def product_pairs(draw):
    n, k, m = (draw(st.integers(1, 7)) for _ in range(3))
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    return a, b


@settings(max_examples=300)
@given(product_pairs())
def test_int_product_matches_dot_products(pair):
    a, b = pair
    got = (RingMatrix(a) * RingMatrix(b)).rows
    assert [list(r) for r in got] == reference_matmul(a, b)
    assert _integral_entries_are_int(got)


def test_product_over_other_rings_keeps_dot_products():
    variables = ("a", "b")
    x, y = (Poly.variable(variables, v) for v in variables)
    m = RingMatrix([[x, 1], [y, x * y]])
    assert (m * m).rows == tuple(map(tuple, reference_matmul(m.rows, m.rows)))


def _per_minor(rows):
    m, n = RingMatrix(rows), len(rows)
    principal = [m.minor(range(1, i + 1), range(1, i + 1)) for i in range(1, n + 1)]
    last = [m.minor(range(1, i + 1), [*range(1, i), n]) for i in range(1, n + 1)]
    return principal, last


@settings(max_examples=300)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
@example([[0, 1, 2], [1, 0, 3], [Rational(1, 2), 4, 5]])  # zero leading minor
@example([[1, 2, 3], [2, 4, Rational(7, 3)], [5, 1, 0]])  # zero second leading minor
@example([[0, Rational(1, 2)], [3, 0]])  # zero first leading minor, non-zero E_1
@example([[1, 0, 0, 2], [0, 1, 0, 3], [1, 1, 0, 1], [0, 0, 1, 1]])  # zero minor of order n - 1
@example([[0]])  # the 1 x 1 zero matrix
def test_leading_minors_match_minors(rows):
    # One Bareiss pass reads every xi^{1..i}_{1..i} and xi^{1..i-1,n}_{1..i};
    # a vanishing leading minor hands the rest to the wedges of the rows.
    got = RingMatrix(rows).leading_minors()
    assert got == _per_minor(rows)
    assert all(type(x) is Rational for part in got for x in part)


def test_leading_minors_over_polynomials():
    variables = ("a", "b", "c")
    a, b, c = (Poly.variable(variables, v) for v in variables)
    rows = [[a, b, 1], [c, a * b, b], [1, c, a]]
    assert RingMatrix(rows).leading_minors() == _per_minor(rows)
    h = SymFunc.h
    rows = [[h(2), h(3), 0, h(1)], [1, h(1) * 2, h(2), 0], [0, 1, h(1), h(3)], [h(1), 0, 1, h(2)]]
    assert RingMatrix(rows).leading_minors() == _per_minor(rows)
    with pytest.raises(ValueError):
        RingMatrix([[1, 2]]).leading_minors()


@settings(max_examples=200)
@given(st.lists(
    st.dictionaries(st.integers(0, 5), entries, max_size=6).map(lambda v: list(v.items())),
    max_size=6,
))
@example([])  # no vectors: no levels
@example([[(0, 1), (2, 3)], [], [(1, 2)]])  # an empty vector: every level from it on is empty
@example([[(0, 0), (3, 2)], [(3, 0), (0, 1), (5, 0)]])  # zero entries
def test_wedges_match_reference_minors(vectors):
    # Level i at the index set S is the minor of the first i vectors as
    # columns over the rows S, with zero minors dropped.
    levels = list(wedges(vectors))
    assert len(levels) == len(vectors)
    for i, level in enumerate(levels, 1):
        columns = [dict(v) for v in vectors[:i]]
        expected = {}
        for rows in combinations(range(6), i):
            block = RingMatrix([[c.get(r, 0) for c in columns] for r in rows])
            minor = reference_det_bareiss(block)
            if minor:
                expected[sum(1 << r for r in rows)] = minor
        assert level == expected


@settings(max_examples=300)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
@example([[0, 1], [1, 0]])  # a zero pivot that det() would exchange away
@example([[2, 4], [1, 2]])  # det 0 at order n: the LU still exists
def test_lu_is_doolittle(rows):
    # X = L V, L unit lower triangular with L^{-1} L = I, V upper
    # triangular; or the first vanishing leading minor of order k < n.
    m, n = RingMatrix(rows), len(rows)
    orders = [k for k in range(1, n) if not m.minor(range(1, k + 1), range(1, k + 1))]
    if orders:
        with pytest.raises(DecompositionError) as err:
            m.lu()
        assert err.value.index == orders[0]
        assert str(err.value) == f"leading minor of order {orders[0]} vanishes"
        return
    L, L_inv, V = m.lu()
    assert L * V == m
    assert L_inv * L == identity(n)
    for i in range(1, n + 1):
        assert L[i, i] == 1
        for j in range(i + 1, n + 1):
            assert L[i, j] == 0 and L_inv[i, j] == 0 and V[j, i] == 0
    values = [x for f in (L, L_inv, V) for row in f.rows for x in row]
    assert all(type(x) is int or x.denominator > 1 for x in values)


def test_lu_rejects_non_square():
    with pytest.raises(ValueError):
        RingMatrix([[1, 2]]).lu()


def test_minor_examples():
    eye = identity(4)
    assert eye.minor([1, 2], [1, 2]) == 1
    variables = ("a", "b", "c", "d")
    a, b, c, d = (Poly.variable(variables, v) for v in variables)
    m = RingMatrix([[a, b], [c, d]])
    assert m.minor([1, 2], [1, 2]) == a * d - b * c
    m3 = RingMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert m3.det() == -3


def test_minor_rejects_non_square_selection():
    m = RingMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.minor([1], [1, 2])


def test_bareiss_matches_cofactor():
    rng = random.Random(11)
    for size in (2, 3, 4, 5):
        rows = [
            [Rational(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)]
            for _ in range(size)
        ]
        m = RingMatrix(rows)
        assert reference_det_bareiss(m) == _det_wedge(m.rows)


def test_symfunc_cofactor_matches_bareiss_7x7():
    # det() takes every non-rational matrix as the wedge of its rows,
    # whatever its size; Bareiss divides exactly and is the independent
    # reference.
    from kpeterson.symfunc import SymFunc

    rng = random.Random(7)
    for _ in range(2):
        rows = [
            [
                sum(
                    (SymFunc.h(k) * rng.randint(-2, 2) for k in range(3)),
                    SymFunc.zero(),
                )
                if rng.random() < 0.6
                else SymFunc.zero()
                for _ in range(7)
            ]
            for _ in range(7)
        ]
        m = RingMatrix(rows)
        assert m.det() == _det_wedge(m.rows) == reference_det_bareiss(m)
        assert not m.det().is_zero()


@settings(max_examples=300)
@given(st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_rational_det_matches_cofactor(rows):
    # det() clears denominators row by row and runs Bareiss in int; the
    # wedge of the rows never divides.  Many draws are singular or have a
    # zero leading pivot.
    got = RingMatrix(rows).det()
    assert type(got) is Rational
    assert got == (_det_wedge(rows) if rows else 1)


def test_rational_det_row_swap_and_singular():
    half = Rational(1, 2)
    swap = RingMatrix([[0, half, 2], [Rational(3, 4), 1, 0], [1, 0, Rational(-5, 3)]])
    assert swap.det() == _det_wedge(swap.rows) == Rational(-11, 8)
    singular = RingMatrix([[0, 1, half], [0, 3, Rational(3, 2)], [2, 0, 7]])
    assert singular.det() == 0 and type(singular.det()) is Rational
    assert type(RingMatrix([[1, 2], [3, 4]]).det()) is Rational


def test_determinant_commutes_with_evaluation():
    variables = ("x1", "x2")
    rng = random.Random(5)
    for _ in range(10):
        rows = [
            [
                Poly(
                    variables,
                    {
                        (rng.randint(0, 2), rng.randint(0, 2)): Rational(
                            rng.randint(-4, 4) or 1
                        )
                        for _ in range(3)
                    },
                )
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        m = RingMatrix(rows)
        point = {"x1": Rational(rng.randint(-5, 5), 3), "x2": Rational(2, 7)}
        det_then_eval = m.det().evaluate(point)
        eval_then_det = RingMatrix(
            [[entry.evaluate(point) for entry in row] for row in rows]
        ).det()
        assert det_then_eval == eval_then_det


def test_singular_det_zero_and_inverse_raises():
    m = RingMatrix([[1, 2], [2, 4]])
    assert m.det() == 0
    with pytest.raises(ZeroDivisionError):
        m.inverse()


def test_inverse_and_solve():
    rng = random.Random(2)
    m = RingMatrix(
        [[Rational(rng.randint(1, 9), rng.randint(1, 4)) + (3 if i == j else 0) for j in range(4)] for i in range(4)]
    )
    eye = m * m.inverse()
    assert eye == identity(4)
    rhs = [Rational(i + 1) for i in range(4)]
    x = m.solve(rhs)
    got = [sum((m[i + 1, j + 1] * x[j] for j in range(4)), Rational(0)) for i in range(4)]
    assert got == rhs
