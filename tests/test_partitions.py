import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpeterson.partitions import (
    Partition,
    Permutation,
    complement,
    conjugate,
    partitions_in_rectangle,
)

partitions = st.lists(st.integers(1, 6), max_size=5).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


class TestPartition:
    def test_strips_trailing_zeros(self):
        assert Partition([3, 1, 0, 0]).parts == (3, 1)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_text_format(self):
        assert Partition.from_text("3,2,1").parts == (3, 2, 1)
        assert Partition.from_text("").parts == ()
        assert Partition([3, 2, 1]).to_text() == "3,2,1"

    def test_conjugate_examples(self):
        assert conjugate(Partition()) == Partition()
        assert conjugate(Partition([6, 5, 2, 1])) == Partition([4, 3, 2, 2, 2, 1])
        assert conjugate(Partition([2, 2])) == Partition([2, 2])

    @given(partitions)
    def test_conjugate_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    def test_complement_examples(self):
        assert complement(Partition([6, 5, 2, 1]), 4, 10) == Partition([5, 4, 1])
        assert complement(Partition.rectangle(3, 4), 3, 7) == Partition()
        assert complement(Partition(), 1, 2) == Partition([1])

    def test_complement_rejects_outside_rectangle(self):
        with pytest.raises(ValueError):
            complement(Partition([3]), 1, 3)

    @given(st.integers(1, 4), st.integers(2, 4), st.data())
    def test_complement_involution(self, d, width, data):
        lams = list(partitions_in_rectangle(d, width))
        lam = data.draw(st.sampled_from(lams))
        n = d + width
        assert complement(complement(lam, d, n), d, n) == lam

    def test_rectangle_enumeration_count(self):
        from math import comb

        for d in (1, 2, 3):
            for w in (1, 2, 3):
                got = len(list(partitions_in_rectangle(d, w)))
                assert got == comb(d + w, d)


class TestPermutation:
    def test_text_formats(self):
        assert Permutation.from_text("1423").images == (1, 4, 2, 3)
        assert Permutation.from_text("1,4,2,3").images == (1, 4, 2, 3)
        assert Permutation([1, 4, 2, 3]).to_text() == "1423"

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])

    def test_descents_and_length(self):
        w = Permutation([1, 4, 2, 3])
        assert w.descents == frozenset({2})
        assert w.length == 2
        assert Permutation.longest(4).length == 6

    def test_compose_inverse(self):
        w = Permutation([3, 1, 4, 2])
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()

    def test_power_matches_repeated_product(self):
        rng = random.Random(107)
        for n in range(1, 13):
            for _ in range(10):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                w = Permutation(images)
                k = rng.randint(-2 * n, 2 * n)
                factor = w if k >= 0 else w.inverse()
                expected = Permutation.identity(n)
                for _ in range(abs(k)):
                    expected = expected * factor
                assert w**k == expected, (w, k)

    def test_cycle(self):
        assert Permutation.cycle(4, 0).images == (2, 3, 4, 1)
        assert Permutation.cycle(4, 2).images == (1, 2, 4, 3)
        for n, i in ((4, 4), (4, -1), (0, 0)):
            with pytest.raises(ValueError):
                Permutation.cycle(n, i)

    def test_built_permutations_pass_validation(self):
        # products, powers, inverses, cycles, identity and longest skip the
        # check; each must be what validated construction accepts
        rng = random.Random(109)
        for n in range(1, 9):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            w = Permutation(images)
            built = [
                w * w,
                w ** rng.randint(-n, n),
                w.inverse(),
                Permutation.cycle(n, rng.randrange(n)),
                Permutation.identity(n),
                Permutation.longest(n),
            ]
            for v in built:
                assert Permutation(v.images) == v and type(v.images) is tuple
        for bad in ([2, 3], [0, 1], ["1", "1"], [1, 2, 2]):
            with pytest.raises(ValueError):
                Permutation(bad)
