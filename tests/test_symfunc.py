import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    hall_pair,
    random_symfunc,
    reference_p_perp,
    reference_perp,
    reference_schur,
    schur_expansion,
)
from kpeterson.partitions import Partition, all_partitions_up_to
from kpeterson.scalars import Rational
from kpeterson.symfunc import (
    SymFunc,
    _h_perp_monomial,
    from_p_dict,
    p_perp,
    perp,
    schur,
    to_p_dict,
)

h = SymFunc.h


def p(i):
    return from_p_dict({(0,) * (i - 1) + (1,): Rational(1)})


class TestSchur:
    def test_examples(self):
        assert schur(Partition()) == SymFunc.one()
        assert schur(Partition([1, 1])) == h(1) ** 2 - h(2)
        assert schur(Partition([2, 1])) == h(2) * h(1) - h(3)

    def test_matches_cofactor_reference(self):
        shapes = list(all_partitions_up_to(8)) + [
            Partition(p) for p in ([5, 5, 3, 1], [4, 4, 4, 4, 2], [6, 1, 1, 1, 1, 1, 1])
        ]
        for lam in shapes:
            assert schur(lam) == reference_schur(lam), lam

    def test_lr_positivity_small(self):
        for lam in all_partitions_up_to(3):
            for mu in all_partitions_up_to(6 - lam.weight):
                if lam.weight + mu.weight > 6 or not lam.parts or not mu.parts:
                    continue
                expansion = schur_expansion(schur(lam) * schur(mu))
                for nu, coeff in expansion.items():
                    assert coeff == int(coeff) and coeff >= 0, (lam, mu, nu, coeff)


class TestPBasis:
    def test_examples(self):
        assert to_p_dict(h(1)) == {(1,): 1}
        assert p(2) == 2 * h(2) - h(1) ** 2
        assert p(3) == 3 * h(3) - 3 * h(1) * h(2) + h(1) ** 3

    def test_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(20):
            f = random_symfunc(rng, max_index=4, max_terms=4, max_exp=2)
            assert from_p_dict(to_p_dict(f)) == f


class TestPerp:
    def test_examples(self):
        assert perp(p(1), h(2)) == h(1)
        assert perp(h(2), SymFunc.one()) == SymFunc.zero()
        s11 = schur(Partition([1, 1]))
        assert perp(s11, s11) == SymFunc.one()

    def test_p_perp_rule(self):
        for i in range(1, 4):
            for j in range(5):
                assert p_perp(i, h(j)) == h(j - i)

    @settings(max_examples=200)
    @given(
        st.dictionaries(
            st.lists(st.integers(0, 3), max_size=6).map(tuple),
            st.one_of(
                st.integers(-9, 9),
                st.builds(Rational, st.integers(-9, 9), st.integers(1, 6)),
            ),
            max_size=5,
        ),
        st.integers(1, 6),
    )
    @example({}, 1)  # g = 0
    @example({(): 5}, 1)  # g constant
    @example({(2,): 1, (0, 1): -2}, 1)  # p_1-perp(h1^2 - 2 h2) = 0
    @example({(0, 0, 0, 0, 0, 2): Rational(1, 2), (1, 0, 1): 3}, 6)
    def test_p_perp_matches_reference(self, terms, i):
        g = sum((SymFunc.monomial(e, c) for e, c in terms.items()), SymFunc.zero())
        got = p_perp(i, g)
        assert got == reference_p_perp(i, g)
        assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())

    @pytest.mark.parametrize("i", [0, -1, -3])
    def test_p_perp_rejects_non_generator(self, i):
        # p_0 is not a generator; p_0-perp used to return 2*h2*h1 on h2*h1
        with pytest.raises(ValueError, match="i >= 1"):
            p_perp(i, h(2) * h(1))

    def test_h_perp_rule(self):
        for k in range(6):
            for j in range(7):
                assert perp(h(k), h(j)) == h(j - k), (k, j)

    def test_h_perp_monomial_at_and_below_zero(self):
        for exps in [(), (1,), (0, 2), (3, 0, 1)]:
            assert _h_perp_monomial(0, exps) == {exps: 1}
            assert _h_perp_monomial(-1, exps) == {}
            assert _h_perp_monomial(-4, exps) == {}

    @settings(max_examples=200)
    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    @example(-1, 5)  # f = 0
    @example(5, -1)  # g = 0
    @example(-2, 5)  # f constant
    @example(-3, -4)  # deg f > deg g
    def test_matches_p_basis_reference(self, f_seed, g_seed):
        def draw(seed):
            if seed == -1:
                return SymFunc.zero()
            if seed == -2:
                return SymFunc.const(Rational(-7, 3))
            if seed == -3:
                return h(4) * h(3) * 2 - h(5) ** 2 + Rational(1, 2)
            if seed == -4:
                return h(2) * h(1) - 3
            return random_symfunc(random.Random(seed), max_index=4, max_terms=4, max_exp=2)

        f, g = draw(f_seed), draw(g_seed)
        assert perp(f, g) == reference_perp(f, g)

    def test_linear_and_multiplicative(self):
        rng = random.Random(23)
        for _ in range(8):
            f = random_symfunc(rng, max_index=2, max_terms=2, max_exp=2)
            g = random_symfunc(rng, max_index=2, max_terms=2, max_exp=1)
            u = random_symfunc(rng, max_index=3, max_terms=3, max_exp=2)
            c = Rational(rng.randint(1, 5), rng.randint(1, 3))
            assert perp(f + g * c, u) == perp(f, u) + perp(g, u) * c
            # adjoint of a product: (fg)-perp = f-perp then g-perp
            assert perp(f * g, u) == perp(f, perp(g, u))

    def test_adjoint_of_multiplication(self):
        rng = random.Random(29)
        for _ in range(8):
            f = random_symfunc(rng, max_index=2, max_terms=2, max_exp=1)
            g = random_symfunc(rng, max_index=3, max_terms=2, max_exp=1)
            u = random_symfunc(rng, max_index=3, max_terms=2, max_exp=1)
            assert hall_pair(perp(f, g), u) == hall_pair(g, f * u)


class TestSymFunc:
    def test_division_exact_and_inexact(self):
        f = (h(2) + h(1)) * (h(3) - 2 * h(1) ** 2)
        assert f / (h(2) + h(1)) == h(3) - 2 * h(1) ** 2
        assert f.exact_div(h(2) + 1) is None

    def test_lambda_n_membership(self):
        assert (h(1) * h(2)).in_lambda_n(3)
        assert not h(3).in_lambda_n(3)

    def test_json_roundtrip_and_order(self):
        f = h(2) * h(1) ** 2 - h(3) * 5 + SymFunc.const(Rational(1, 2))
        data = f.to_json()
        assert SymFunc.from_json(data) == f
        degrees = [sum(item["monomial"]) for item in data]
        assert degrees == sorted(degrees, reverse=True)
        assert data == f.to_json()

    def test_to_poly_roundtrip(self):
        f = h(1) ** 2 - h(2) + 3
        assert SymFunc.from_poly(f.to_poly(3)) == f
        with pytest.raises(ValueError):
            h(3).to_poly(3)

