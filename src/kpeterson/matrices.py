"""Dense matrices over a generic commutative ring.

Entries only need +, -, * (with each other and with ints).  Minors that
cannot divide -- determinants over every ring but the rationals, and leading
minors no rational elimination reaches -- are read off one ``wedges``.

A matrix of ``int``/``Fraction`` entries is computed in ``int``: each row
(or column) is scaled by the lcm of its denominators, the arithmetic runs
on the integers, and each output entry is one division at the end.  Products
are ``int`` dot products of scaled rows and columns.  Every elimination is
one fraction-free Bareiss loop, ``_bareiss``: it serves the determinant
(with row exchanges; a ``Fraction`` det / (product of the scales)), the
leading minors xi^{1..i}_{1..i} and xi^{1..i-1,n}_{1..i} (read off its
pivot rows), ``lu`` (one pass over [s X | I] gives L, L^{-1} and V of
X = L V), and ``inverse`` and ``solve`` (one pass with row exchanges over
[X | B], then back substitution on det * X); the minors and ``lu`` make no
row exchanges.  Products, LU factors, inverses and solutions are normalized
(``int`` where integral); determinants and minors are ``Fraction``.
"""

from __future__ import annotations

from itertools import chain
from math import prod
from operator import mul

from .scalars import Rational, clear_denominators, exact_quotient, is_rational

__all__ = ["RingMatrix", "DecompositionError", "wedges"]


class DecompositionError(ValueError):
    """A required minor vanished; .index names the failing condition."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class RingMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        """Entry access, 1-based: m[i, j]."""
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        return isinstance(other, RingMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"RingMatrix({[list(r) for r in self.rows]})"

    def __mul__(self, other):
        if isinstance(other, RingMatrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            if _is_rational(self.rows) and _is_rational(other.rows):
                return RingMatrix(_mul_rational(self.rows, other.rows))
            cols = list(zip(*other.rows))
            return RingMatrix(
                [
                    [_dot(row, col) for col in cols]
                    for row in self.rows
                ]
            )
        return RingMatrix([[a * other for a in row] for row in self.rows])

    def submatrix(self, row_idx, col_idx):
        """Submatrix from 1-based row/column index sequences."""
        return RingMatrix(
            [[self.rows[i - 1][j - 1] for j in col_idx] for i in row_idx]
        )

    def minor(self, row_idx, col_idx):
        """Exact minor determinant xi^{cols}_{rows}; selections must be square."""
        row_idx, col_idx = tuple(row_idx), tuple(col_idx)
        if len(row_idx) != len(col_idx):
            raise ValueError("non-square minor selection")
        return self.submatrix(row_idx, col_idx).det()

    def leading_minors(self):
        """(P, E) with P[i-1] = xi^{1..i}_{1..i} and
        E[i-1] = xi^{1..i-1,n}_{1..i} for i = 1..n, of a square matrix.

        Rational entries take one ``_bareiss`` pass, without row exchanges,
        over the rows scaled to ``int``: pivot row i - 1 holds
        xi^{1..i-1,j}_{1..i} times the scales of rows 1..i at column j.
        The minors it does not reach, after a vanishing leading minor and
        for every other ring, are read off level i of the rows' ``wedges``.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("leading minors of a non-square matrix")
        principal, last = [], []
        rows = self.rows
        if _is_rational(rows):
            scaled = [clear_denominators(row) for row in rows]
            steps, _ = _bareiss([row for row, _ in scaled], exchange=False)
            scale = 1
            for k, (row, s) in enumerate(scaled[:steps + 1]):
                scale *= s
                principal.append(Rational(row[k], scale))
                last.append(Rational(row[n - 1], scale))
            if steps == n - 1:
                return principal, last
            rows = [[Rational(a) for a in row] for row in rows]
        zero = rows[0][0] * 0
        vectors = ([(j, a) for j, a in enumerate(row) if a] for row in rows)
        for i, minors in enumerate(wedges(vectors), 1):
            if i > len(principal):
                principal.append(minors.get((1 << i) - 1, zero))
                last.append(minors.get((1 << i - 1) - 1 | 1 << n - 1, zero))
        return principal, last

    def lu(self):
        """Doolittle X = L V without row exchanges, for rational entries:
        (L, L^{-1}, V) with L unit lower triangular and V upper triangular,
        entries normalized.

        One ``_bareiss`` pass over [s X | I], s the lcm of X's denominators,
        keeps the multipliers below the diagonal.  With d_k the leading
        minor of order k of s X (d_0 = 1) and indices from 0, row i then
        holds d_i s V_ij from the diagonal on, d_i (L^{-1})_ij in the right
        half and d_{j+1} L_ij below the diagonal, so each entry is one
        division.  Raises ``DecompositionError`` at the first vanishing
        leading minor of order k < n, with index k.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("LU decomposition of a non-square matrix")
        flat, s = clear_denominators(list(chain.from_iterable(self.rows)))
        m = [flat[i * n:(i + 1) * n] + [int(i == j) for j in range(n)] for i in range(n)]
        steps, _ = _bareiss(m, exchange=False)
        if steps < n - 1:
            raise DecompositionError(f"leading minor of order {steps + 1} vanishes", steps + 1)
        d = [1] + [m[k][k] for k in range(n - 1)]
        span = range(n)
        L = [[exact_quotient(m[i][j], d[j + 1]) if j < i else int(i == j) for j in span]
             for i in span]
        L_inv = [[exact_quotient(m[i][n + j], d[i]) if j <= i else 0 for j in span]
                 for i in span]
        V = [[exact_quotient(m[i][j], s * d[i]) if j >= i else 0 for j in span]
             for i in span]
        return RingMatrix(L), RingMatrix(L_inv), RingMatrix(V)

    # -- determinants -----------------------------------------------------

    def det(self):
        """Bareiss in ``int`` for rational entries (a ``Fraction``), the
        exterior product of the rows for every other ring."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if self.nrows == 0:
            return Rational(1)
        if _is_rational(self.rows):
            return _det_rational(self.rows)
        return _det_wedge(self.rows)

    # -- field operations (rational entries) -------------------------------

    def inverse(self):
        """Inverse over the rationals; entries are ``int`` where integral."""
        n = self.nrows
        return RingMatrix(self._solve([[int(i == j) for j in range(n)] for i in range(n)]))

    def solve(self, rhs):
        """Solve self * x = rhs for a rational vector; raises if singular."""
        return [row[0] for row in self._solve([[b] for b in rhs])]

    def _solve(self, rhs_rows):
        """The rows of X = self^{-1} rhs_rows over the rationals, normalized;
        raises ZeroDivisionError if self is singular.

        Each row of [self | rhs_rows] is scaled to ``int`` by the lcm of its
        denominators, and one ``_bareiss`` pass with row exchanges makes the
        left half upper triangular, with d = +-det of it as the last pivot.
        d X is integral (Cramer's rule), so back substitution on d X takes
        exact ``int`` quotients, and each entry of X is one division by d.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("solving needs a square matrix")
        if not n:
            return []
        m = [clear_denominators([*row, *extra])[0] for row, extra in zip(self.rows, rhs_rows)]
        steps, _ = _bareiss(m)
        if steps < n - 1 or not m[-1][n - 1]:
            raise ZeroDivisionError("singular matrix")
        d = m[-1][n - 1]
        dx = [None] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            dx[i] = [
                (d * b - sum(row[j] * dx[j][k] for j in range(i + 1, n))) // row[i]
                for k, b in enumerate(row[n:])
            ]
        return [[exact_quotient(v, d) for v in row] for row in dx]


def _is_rational(rows) -> bool:
    return is_rational(chain.from_iterable(rows))


def _mul_rational(a_rows, b_rows):
    """The rows of A * B for int/Fraction entries: A's rows and B's columns
    are scaled to ``int``, so each entry is one ``int`` dot product and one
    division, normalized."""
    cols = [clear_denominators(col) for col in zip(*b_rows)]
    out = []
    for row in a_rows:
        row, s = clear_denominators(row)
        out.append(
            [exact_quotient(sum(map(mul, row, col)), s * t) for col, t in cols]
        )
    return out


def _det_rational(rows):
    """det of int/Fraction rows as a Fraction: each row is scaled by the lcm
    of its denominators, and Bareiss runs on the integer rows."""
    rows = [clear_denominators(row) for row in rows]
    m = [row for row, _ in rows]
    steps, sign = _bareiss(m)
    d = sign * m[-1][-1] if steps == len(m) - 1 else 0
    return Rational(d, prod(s for _, s in rows))


def _det_wedge(rows):
    """det of n >= 1 rows over any ring: the last level of the ``wedges`` of
    the matrix turned by 180 degrees (same det), rows last first.  So the
    largest minors are multiplied by the first row's entries, single h's in
    ``dual_groth``; rows first to last took 20 times longer there."""
    n = len(rows)
    *_, minors = wedges([(n - 1 - j, a) for j, a in enumerate(row) if a] for row in rows[::-1])
    return minors.get((1 << n) - 1, rows[0][0] * 0)


def wedges(vectors):
    """Yield, after each sparse vector [(index, entry), ...], the exterior
    product so far as {bitmask S: minor of the vectors as columns over the
    rows S}, without zero minors and without division.  Adding index k to S
    flips the sign once for each index of S above k."""
    wedge = {0: 1}
    for vector in vectors:
        grown: dict = {}
        for mask, minor in wedge.items():
            for k, entry in vector:
                key = mask | 1 << k
                if key == mask:
                    continue
                term = minor * entry if mask else entry  # the empty product is 1
                if (mask >> k).bit_count() % 2:
                    term = -term
                grown[key] = grown[key] + term if key in grown else term
        wedge = {mask: minor for mask, minor in grown.items() if minor}
        yield wedge


def _bareiss(m, exchange=True):
    """Fraction-free elimination on the integer rows m (consumed, at least
    as many columns as rows): step k replaces each entry (i, j), i, j > k,
    by (p m_ij - m_ik m_kj) // p', p the pivot m_kk and p' the one before,
    every quotient exact, and leaves the multiplier m_ik in place.
    Counting from 0, row i ends holding at each column j >= i the minor of
    rows 0..i and columns 0..i-1, j.

    A zero pivot is swapped for a row below when ``exchange`` allows one.
    The elimination stops before a zero pivot that stays; the result is
    (steps taken, n - 1 in full, so rows up to that index are final; the
    sign of the exchanges)."""
    n = len(m)
    sign = 1
    prev = None  # previous pivot; None means 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = exchange and next((r for r in range(k + 1, n) if m[r][k]), None)
            if not swap:
                return k, sign
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1:]:
            factor = row[k]
            for j in range(k + 1, len(row)):
                num = pivot * row[j] - factor * pivot_row[j]
                row[j] = num if prev is None else num // prev
        prev = pivot
    return n - 1, sign


def _dot(row, col):
    it = iter(zip(row, col))
    a, b = next(it)
    total = a * b
    for a, b in it:
        total = total + a * b
    return total
