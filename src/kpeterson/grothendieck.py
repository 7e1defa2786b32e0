"""Dual and stable Grothendieck polynomials and K-theoretic LR coefficients.

The dual basis elements g_lambda come from an explicit determinant in the
h's whose top-degree part is the Schur function.  Stable Grothendieck
polynomials in finitely many variables and the LR coefficients are computed
by one walk over set-valued tableaux in column-word order; the LR rule
counts tableaux whose column word builds nu on lambda, and the walk ends a
branch as soon as the word read so far cannot.

Sign convention: G_lambda(x_1..x_d) = sum_T (-1)^{|T| - |lambda|} x^T.
"""

from __future__ import annotations

from itertools import combinations

from .matrices import RingMatrix
from .partitions import Partition
from .polynomials import Poly
from .symfunc import SymFunc, _geom_series_coeffs

__all__ = [
    "dual_groth",
    "SetValuedTableau",
    "column_word",
    "builds",
    "klr_coeff",
    "stable_groth_vars",
]


def dual_groth(lam: Partition) -> SymFunc:
    """The dual stable Grothendieck polynomial g_lambda in the h-basis.

    Determinant with (i, j) entry sum_m (-1)^m C(1-i, m) h_{lambda_i+j-i-m};
    the top-degree component is the Schur function s_lambda.

    >>> dual_groth(Partition([1, 1])).to_str()
    'h1^2 - h2 + h1'
    """
    parts = tuple(lam)
    ell = len(parts)
    if ell == 0:
        return SymFunc.one()
    rows = []
    for i in range(1, ell + 1):
        # (-1)^m * C(1-i, m) is the coefficient of v^m in (1-v)^{-(i-1)}
        series = _geom_series_coeffs(i - 1, parts[i - 1] + ell - i + 1)
        row = []
        for j in range(1, ell + 1):
            top = parts[i - 1] + j - i
            entry = SymFunc.zero()
            for m in range(top + 1):
                if series[m]:
                    entry = entry + SymFunc.h(top - m) * series[m]
            row.append(entry)
        rows.append(row)
    return RingMatrix(rows).det()


class SetValuedTableau:
    """A filling of a Young diagram with non-empty finite sets of positive
    integers, rows weakly increasing and columns strictly increasing in the
    max/min sense."""

    __slots__ = ("shape", "cells")

    def __init__(self, shape: Partition, cells: dict):
        cells = {rc: frozenset(s) for rc, s in cells.items()}
        expected = {
            (r, c)
            for r in range(1, len(shape) + 1)
            for c in range(1, shape.part(r) + 1)
        }
        if set(cells) != expected:
            raise ValueError("cells do not match the shape")
        for rc, s in cells.items():
            if not s or any(v < 1 for v in s):
                raise ValueError(f"bad cell set at {rc}: {set(s)}")
        for (r, c), s in cells.items():
            left = cells.get((r, c - 1))
            if left is not None and max(left) > min(s):
                raise ValueError(f"row condition fails at {(r, c)}")
            up = cells.get((r - 1, c))
            if up is not None and max(up) >= min(s):
                raise ValueError(f"column condition fails at {(r, c)}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cells", cells)

    def __setattr__(self, name, value):
        raise AttributeError("SetValuedTableau is immutable")

    def __repr__(self):
        rows = []
        for r in range(1, len(self.shape) + 1):
            rows.append(
                [sorted(self.cells[(r, c)]) for c in range(1, self.shape.part(r) + 1)]
            )
        return f"SetValuedTableau({rows})"


def column_word(tab: SetValuedTableau) -> tuple:
    """Read columns right to left, each top to bottom, cell sets in
    decreasing order.

    >>> t = SetValuedTableau(Partition([2, 1]),
    ...     {(1, 1): {1}, (1, 2): {2}, (2, 1): {2}})
    >>> column_word(t)
    (2, 1, 2)
    """
    shape = tab.shape
    word = []
    width = shape.part(1)
    for c in range(width, 0, -1):
        for r in range(1, len(shape) + 1):
            if shape.part(r) >= c:
                word.extend(sorted(tab.cells[(r, c)], reverse=True))
    return tuple(word)


def builds(word, lam: Partition, nu: Partition) -> bool:
    """True iff adding a box to row w for each letter w keeps a partition
    shape at every step, starting from lam and ending exactly at nu."""
    current = list(lam)
    for r in word:
        if r == len(current) + 1:
            current.append(1)
        elif 1 <= r <= len(current):
            current[r - 1] += 1
            if r > 1 and current[r - 1] > current[r - 2]:
                return False
        else:
            return False
    return current == list(nu)


def _enumerate_svt(
    shape: Partition,
    max_entry: int,
    letters: int | None = None,
    lam: Partition | None = None,
    nu: Partition | None = None,
):
    """Yield cell dicts of set-valued tableaux of the given shape with
    entries in {1..max_entry}; if letters is given, with exactly that many
    letters in total.

    Cells are filled in column-word order: columns right to left, each top
    to bottom.  So a cell's entries exceed the largest of the cell above it
    (the column condition, a lower bound) and are at most the least of the
    cell to its right (the row condition, an upper bound).  A cell in row r
    holds at most max_entry - r + 1 letters (its entries exceed the r - 1
    above it), so with a letter count a branch ends as soon as the cells
    left cannot take one letter each or cannot hold the letters still owed.

    Given lam and nu, a shape starts at lam and each letter w, read in
    column-word order (a cell's letters in decreasing order), adds a box to
    its row w.  A branch ends as soon as a box would leave a partition or
    pass nu, so with letters = |nu| - |lam| the walk yields exactly the
    fillings whose column word builds nu on lam."""
    order = [
        (r, c)
        for c in range(shape.part(1), 0, -1)
        for r in range(1, len(shape) + 1)
        if shape.part(r) >= c
    ]
    ncells = len(order)
    room = [0] * (ncells + 1)  # room[k]: the most letters cells k.. can hold
    for k in range(ncells - 1, -1, -1):
        room[k] = room[k + 1] + max(0, max_entry - order[k][0] + 1)
    if max_entry < 1 or (letters is not None and letters < ncells):
        if ncells == 0 and (letters is None or letters == 0):
            yield {}
        return
    rows = cap = None  # the shape built so far, and nu, as rows 1..width
    if nu is not None:
        width = max(max_entry, len(nu))
        cap = list(nu) + [0] * (width - len(nu))
        rows = list(lam) + [0] * (width - len(lam))
    cells: dict = {}

    def add_boxes(subset) -> bool:
        """Add the subset's boxes, largest letter first; on a box that leaves
        a partition or passes nu, take back those added and return False."""
        for i in range(len(subset) - 1, -1, -1):
            w = subset[i]
            if rows[w - 1] == cap[w - 1] or (w > 1 and rows[w - 1] == rows[w - 2]):
                for v in subset[i + 1:]:
                    rows[v - 1] -= 1
                return False
            rows[w - 1] += 1
        return True

    def fill(k: int, used: int):
        if k == ncells:
            if letters is None or used == letters:
                yield dict(cells)
            return
        r, c = order[k]
        up = cells.get((r - 1, c))
        lo = max(up) + 1 if up is not None else 1
        right = cells.get((r, c + 1))
        hi = min(right) if right is not None else max_entry
        remaining_cells = ncells - k - 1
        min_size, max_size = 1, hi - lo + 1
        if letters is not None:
            min_size = max(1, letters - used - room[k + 1])
            max_size = min(max_size, letters - used - remaining_cells)
        pool = range(lo, hi + 1)
        for size in range(min_size, max_size + 1):
            for subset in combinations(pool, size):
                if rows is not None and not add_boxes(subset):
                    continue
                cells[(r, c)] = frozenset(subset)
                yield from fill(k + 1, used + size)
                if rows is not None:
                    for w in subset:
                        rows[w - 1] -= 1
        cells.pop((r, c), None)

    yield from fill(0, 0)


def klr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """K-theoretic Littlewood-Richardson coefficient c_{lam,mu}^{nu}: counts
    set-valued tableaux of shape mu whose column word builds nu on lam.

    The walk is pruned on the word prefix, so it completes only fillings
    that build nu; each is still built as a SetValuedTableau and counted
    only if ``builds`` accepts its column word, the unpruned definition.

    >>> klr_coeff(Partition([1]), Partition([1]), Partition([2, 1]))
    1
    """
    if not nu.contains(lam):
        return 0
    letters = nu.weight - lam.weight
    if letters < mu.weight:
        return 0
    max_entry = len(nu)
    if len(mu) > max_entry:
        return 0
    count = 0
    for cells in _enumerate_svt(mu, max_entry, letters, lam, nu):
        tab = SetValuedTableau(mu, cells)
        if builds(column_word(tab), lam, nu):
            count += 1
    return count


def stable_groth_vars(lam: Partition, d: int) -> Poly:
    """The stable Grothendieck polynomial G_lambda(x_1, ..., x_d).

    >>> stable_groth_vars(Partition([1]), 2).to_str()
    '-x1*x2 + x1 + x2'
    """
    variables = tuple(f"x{i}" for i in range(1, d + 1))
    if len(lam) > d:
        return Poly.zero(variables)
    terms: dict = {}
    for cells in _enumerate_svt(lam, d):
        exps = [0] * d
        size = 0
        for s in cells.values():
            size += len(s)
            for v in s:
                exps[v - 1] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + (1 if (size - lam.weight) % 2 == 0 else -1)
    return Poly(variables, {e: c for e, c in terms.items() if c})
