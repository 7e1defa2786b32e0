import random

import pytest

from helpers import (
    classical_lr,
    reference_enumerate_svt,
    reference_klr_coeff,
    stable_product_expansion,
)
from kpeterson.grothendieck import (
    SetValuedTableau,
    _enumerate_svt,
    builds,
    column_word,
    dual_groth,
    klr_coeff,
    stable_groth_vars,
)
from kpeterson.partitions import (
    Partition,
    all_partitions_up_to,
    partitions_in_rectangle,
)
from kpeterson.polynomials import Poly
from kpeterson.scalars import Rational
from kpeterson.symfunc import SymFunc, schur

h = SymFunc.h


def _filling(cells):
    return frozenset(cells.items())


class TestDualGroth:
    def test_examples(self):
        assert dual_groth(Partition([2])) == h(2)
        assert dual_groth(Partition([1, 1])) == h(1) ** 2 - h(2) + h(1)
        assert dual_groth(Partition()) == SymFunc.one()

    def test_top_degree_is_schur(self):
        for lam in all_partitions_up_to(6):
            g = dual_groth(lam)
            assert g.top_part() == schur(lam), lam

    def test_lambda_n_membership_inside_rectangles(self):
        for n in (3, 4, 5):
            for i in range(1, n):
                for mu in partitions_in_rectangle(i, n - i):
                    assert dual_groth(mu).in_lambda_n(n)


class TestTableaux:
    def test_column_word_examples(self):
        t = SetValuedTableau(Partition([1]), {(1, 1): {3}})
        assert column_word(t) == (3,)
        t = SetValuedTableau(Partition([1]), {(1, 1): {1, 2}})
        assert column_word(t) == (2, 1)
        t = SetValuedTableau(
            Partition([2, 1]), {(1, 1): {1}, (1, 2): {2}, (2, 1): {2}}
        )
        assert column_word(t) == (2, 1, 2)

    def test_semistandard_validation(self):
        with pytest.raises(ValueError):
            SetValuedTableau(Partition([2]), {(1, 1): {2}, (1, 2): {1}})
        with pytest.raises(ValueError):
            SetValuedTableau(Partition([1, 1]), {(1, 1): {1}, (2, 1): {1}})
        with pytest.raises(ValueError):
            SetValuedTableau(Partition([1]), {(1, 1): set()})

    def test_walk_matches_reference(self):
        # the walk fills cells in column-word order and the reference column
        # by column left to right, so they are compared as sets of fillings
        for shape in all_partitions_up_to(5):
            for max_entry in range(0, 6):
                for letters in [None, *range(shape.weight - 1, shape.weight + 6)]:
                    got = [_filling(c) for c in _enumerate_svt(shape, max_entry, letters)]
                    expected = {
                        _filling(c)
                        for c in reference_enumerate_svt(shape, max_entry, letters)
                    }
                    assert len(set(got)) == len(got), (shape, max_entry, letters)
                    assert set(got) == expected, (shape, max_entry, letters)

    def test_pruned_walk_yields_the_fillings_that_build_nu(self):
        # given (lam, nu), the walk yields exactly the fillings of the
        # unpruned walk whose column word builds nu on lam
        parts = list(all_partitions_up_to(6))
        for nu in parts:
            for lam in parts:
                if not nu.contains(lam):
                    continue
                letters = nu.weight - lam.weight
                for mu in parts:
                    if mu.weight > letters or len(mu) > len(nu):
                        continue
                    got = [
                        _filling(c)
                        for c in _enumerate_svt(mu, len(nu), letters, lam, nu)
                    ]
                    expected = {
                        _filling(c)
                        for c in reference_enumerate_svt(mu, len(nu), letters)
                        if builds(column_word(SetValuedTableau(mu, c)), lam, nu)
                    }
                    assert len(set(got)) == len(got), (lam, mu, nu)
                    assert set(got) == expected, (lam, mu, nu)

    def test_builds_examples(self):
        assert builds((1,), Partition(), Partition([1]))
        assert builds((1, 1), Partition(), Partition([2]))
        assert not builds((2,), Partition(), Partition([1]))
        assert builds((2, 1, 2), Partition([1]), Partition([2, 2]))
        assert not builds((1,), Partition(), Partition([2]))


class TestKLR:
    def test_matches_unpruned_reference(self):
        parts = list(all_partitions_up_to(6))
        for nu in parts:
            for lam in parts:
                for mu in parts:
                    assert klr_coeff(lam, mu, nu) == reference_klr_coeff(lam, mu, nu), (
                        lam,
                        mu,
                        nu,
                    )

    def test_base_cases(self):
        for mu in all_partitions_up_to(4):
            assert klr_coeff(Partition(), mu, mu) == 1

    def test_single_box_product(self):
        one = Partition([1])
        assert klr_coeff(one, one, Partition([2, 1])) == 1
        assert klr_coeff(one, one, Partition([2])) == 1
        assert klr_coeff(one, one, Partition([1, 1])) == 1

    def test_matches_product_expansion_oracle(self):
        # the signed expansion of G_lam * G_mu carries c^nu with sign
        # (-1)^{|nu|-|lam|-|mu|}
        lam, mu = Partition([1]), Partition([1])
        expansion = stable_product_expansion(lam, mu, 3)
        for nu, coeff in expansion.items():
            sign = (-1) ** (nu.weight - lam.weight - mu.weight)
            assert klr_coeff(lam, mu, nu) == sign * coeff, nu
        lam2, mu2 = Partition([2]), Partition([1, 1])
        expansion = stable_product_expansion(lam2, mu2, 3)
        for nu, coeff in expansion.items():
            sign = (-1) ** (nu.weight - lam2.weight - mu2.weight)
            assert klr_coeff(lam2, mu2, nu) == sign * coeff, nu

    def test_top_degree_matches_classical_lr(self):
        for lam in all_partitions_up_to(3):
            if not lam.parts:
                continue
            for mu in all_partitions_up_to(5 - lam.weight):
                if not mu.parts:
                    continue
                for nu in all_partitions_up_to(lam.weight + mu.weight):
                    if nu.weight != lam.weight + mu.weight:
                        continue
                    assert klr_coeff(lam, mu, nu) == classical_lr(lam, mu, nu), (
                        lam,
                        mu,
                        nu,
                    )

    def test_rectangle_delta_rule_small(self):
        from kpeterson.partitions import complement

        for n in (3, 4, 5):
            for d in range(1, min(3, n - 1) + 1):
                rect = Partition.rectangle(d, n - d)
                for lam in partitions_in_rectangle(d, n - d):
                    target = complement(lam, d, n)
                    for mu in all_partitions_up_to(rect.weight):
                        expected = 1 if mu == target else 0
                        assert klr_coeff(lam, mu, rect) == expected


class TestStableGroth:
    def test_examples(self):
        v1 = ("x1",)
        assert stable_groth_vars(Partition([1]), 1) == Poly.variable(v1, "x1")
        assert stable_groth_vars(Partition(), 3) == Poly.const(("x1", "x2", "x3"), 1)
        v2 = ("x1", "x2")
        x1, x2 = Poly.variable(v2, "x1"), Poly.variable(v2, "x2")
        assert stable_groth_vars(Partition([1]), 2) == x1 + x2 - x1 * x2

    def test_zero_when_too_long(self):
        assert stable_groth_vars(Partition([1, 1, 1]), 2).is_zero()

    def test_symmetry_at_random_points(self):
        rng = random.Random(31)
        for lam in (Partition([2, 1]), Partition([2, 2]), Partition([3, 1])):
            g = stable_groth_vars(lam, 3)
            for _ in range(5):
                pt = {
                    f"x{i}": Rational(rng.randint(-9, 9), rng.randint(1, 9))
                    for i in range(1, 4)
                }
                swapped = dict(pt)
                swapped["x1"], swapped["x2"] = pt["x2"], pt["x1"]
                assert g.evaluate(pt) == g.evaluate(swapped)
                rotated = {"x1": pt["x2"], "x2": pt["x3"], "x3": pt["x1"]}
                assert g.evaluate(pt) == g.evaluate(rotated)
