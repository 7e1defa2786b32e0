import random

import pytest

from helpers import hall_pair, random_symfunc, schur_expansion
from kpeterson.partitions import Partition, all_partitions_up_to
from kpeterson.scalars import Rational
from kpeterson.symfunc import (
    SymFunc,
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

