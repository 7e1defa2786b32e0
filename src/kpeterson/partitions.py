"""Partitions and permutations.

Text formats: a partition is comma-separated parts ("3,2,1"; empty string is
the empty partition), a permutation is its one-line notation, either as a
digit string ("1423") or comma-separated ("1,4,2,3").
"""

from __future__ import annotations

from itertools import permutations as _itertools_permutations

__all__ = [
    "Partition",
    "Permutation",
    "conjugate",
    "complement",
    "partitions_in_rectangle",
    "partitions_of",
    "all_partitions_up_to",
]


class Partition:
    """A weakly decreasing sequence of positive integers.

    Trailing zeros in the input are stripped on construction (complements
    naturally produce them).

    >>> Partition([3, 2, 2, 0]).parts
    (3, 2, 2)
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        cleaned = tuple(int(p) for p in parts)
        for a, b in zip(cleaned, cleaned[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {cleaned}")
        if cleaned and cleaned[-1] < 0:
            raise ValueError(f"negative part in {cleaned}")
        while cleaned and cleaned[-1] == 0:
            cleaned = cleaned[:-1]
        object.__setattr__(self, "parts", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        return cls(_ints(text.split(",") if text.strip() else [], text, "partition"))

    @classmethod
    def rectangle(cls, rows: int, cols: int) -> "Partition":
        return cls([cols] * rows)

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-indexed), zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: other fits inside self cell by cell."""
        return all(other.part(i) <= self.part(i) for i in range(1, len(other) + 1))

    def fits_in(self, rows: int, cols: int) -> bool:
        return len(self.parts) <= rows and (not self.parts or self.parts[0] <= cols)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram.

    >>> conjugate(Partition([6, 5, 2, 1])).parts
    (4, 3, 2, 2, 2, 1)
    """
    if not lam.parts:
        return Partition()
    return Partition(
        sum(1 for p in lam.parts if p >= c) for c in range(1, lam.parts[0] + 1)
    )


def complement(lam: Partition, d: int, n: int) -> Partition:
    """The complement of lam inside the d x (n-d) rectangle, rotated.

    >>> complement(Partition([6, 5, 2, 1]), 4, 10).parts
    (5, 4, 1)
    """
    if not lam.fits_in(d, n - d):
        raise ValueError(f"{lam!r} does not fit in the {d}x{n - d} rectangle")
    return Partition(n - d - lam.part(d + 1 - a) for a in range(1, d + 1))


def partitions_in_rectangle(rows: int, cols: int):
    """All partitions fitting in a rows x cols box, largest-first per row."""

    def rec(row, maxpart):
        if row == rows:
            yield ()
            return
        for p in range(maxpart, -1, -1):
            if p == 0:
                yield ()
                return
            for rest in rec(row + 1, p):
                yield (p,) + rest

    for parts in rec(0, cols):
        yield Partition(parts)


def partitions_of(m: int, max_part: int | None = None):
    """All partitions of m with parts bounded by max_part."""
    if max_part is None:
        max_part = m

    def rec(remaining, bound):
        if remaining == 0:
            yield ()
            return
        for p in range(min(bound, remaining), 0, -1):
            for rest in rec(remaining - p, p):
                yield (p,) + rest

    for parts in rec(m, max_part):
        yield Partition(parts)


def all_partitions_up_to(max_weight: int, max_part: int | None = None):
    for m in range(max_weight + 1):
        yield from partitions_of(m, max_part)


class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> w = Permutation([1, 4, 2, 3])
    >>> w.length, sorted(w.descents)
    (2, [2])
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(v) for v in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _built(cls, images) -> "Permutation":
        """A permutation from images that this class computed from valid
        permutations, so they are not checked again."""
        w = object.__new__(cls)
        object.__setattr__(w, "images", tuple(images))
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        body = text.strip()
        return cls(_ints(body.split(",") if "," in body else body, text, "permutation"))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._built(range(1, n + 1))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls._built(range(n, 0, -1))

    @classmethod
    def cycle(cls, n: int, i: int) -> "Permutation":
        """The cyclic permutation (i+1, i+2, ..., n), fixing 1..i."""
        if not 0 <= i < n:
            raise ValueError(f"need 0 <= i < n, got i = {i}, n = {n}")
        images = list(range(1, n + 1))
        for j in range(i + 1, n):
            images[j - 1] = j + 1
        images[n - 1] = i + 1
        return cls._built(images)

    def to_text(self) -> str:
        if len(self.images) <= 9:
            return "".join(str(v) for v in self.images)
        return ",".join(str(v) for v in self.images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (self * other)(i) = self(other(i))."""
        return Permutation._built([self.images[v - 1] for v in other.images])

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for pos, v in enumerate(self.images, start=1):
            inv[v - 1] = pos
        return Permutation._built(inv)

    def __pow__(self, k: int) -> "Permutation":
        """w^k for any integer k in O(n): each cycle is walked once."""
        im, result = self.images, [0] * len(self.images)
        for start in im:
            if not result[start - 1]:
                cycle = [start]
                while im[cycle[-1] - 1] != start:
                    cycle.append(im[cycle[-1] - 1])
                for pos, v in enumerate(cycle):
                    result[v - 1] = cycle[(pos + k) % len(cycle)]
        return Permutation._built(result)

    @property
    def length(self) -> int:
        """Number of inversions."""
        im = self.images
        return sum(
            1
            for i in range(len(im))
            for j in range(i + 1, len(im))
            if im[i] > im[j]
        )

    @property
    def descents(self) -> frozenset:
        im = self.images
        return frozenset(i for i in range(1, len(im)) if im[i - 1] > im[i])

    def times_s(self, i: int) -> "Permutation":
        """Right multiplication by the simple transposition s_i."""
        im = list(self.images)
        im[i - 1], im[i] = im[i], im[i - 1]
        return Permutation(im)

    def is_identity(self) -> bool:
        return all(v == pos for pos, v in enumerate(self.images, start=1))


def all_permutations(n: int):
    for images in _itertools_permutations(range(1, n + 1)):
        yield Permutation(images)


def _ints(pieces, text: str, name: str) -> list:
    """The pieces of text as ints; a ValueError names the text if one is not."""
    try:
        return [int(p) for p in pieces]
    except ValueError:
        raise ValueError(f"{name} {text!r} is not a comma-separated list of integers") from None
