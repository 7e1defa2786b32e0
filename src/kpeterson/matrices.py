"""Dense matrices over a generic commutative ring.

Entries only need +, -, * (with each other and with ints) and, for the
fraction-free path, an exact __truediv__.  Determinants: memoized cofactor
expansion (one minor per subset of columns, no division) for every ring but
the rationals.  A rational determinant is computed in ``int``: each row is
scaled by the lcm of its denominators, fraction-free Bareiss runs on the
integer rows with exact ``//``, and the result is the ``Fraction``
det / (product of the scales).  The same Bareiss loop, dividing with ``/``,
is ``_det_bareiss``, the division-based reference for the cofactor
expansion over any ring with exact division.

``inverse`` and ``solve`` (rational entries) share one Gauss-Jordan
elimination over sparse rows whose integral entries stay ``int``
(``scalars.normalize``); it prefers unit pivots, so the integral 720x720
f-monomial matrix of the quantization map is inverted without a Fraction.
"""

from __future__ import annotations

from math import lcm
from operator import floordiv, truediv

from .scalars import Rational, exact_quotient, normalize, rat

__all__ = ["RingMatrix"]


class RingMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    @classmethod
    def identity(cls, n: int, one=1, zero=0):
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

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

    # -- determinants -----------------------------------------------------

    def det(self):
        """Bareiss in ``int`` for rational entries (a ``Fraction``), memoized
        cofactor expansion for every other ring."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if self.nrows == 0:
            return Rational(1)
        if all(isinstance(x, (int, Rational)) for row in self.rows for x in row):
            return _det_rational(self.rows)
        return self._det_cofactor()

    def _det_cofactor(self):
        n = self.nrows
        zero = self.rows[0][0] * 0
        cache: dict = {}

        def expand(row, cols):
            if not cols:
                return None  # sentinel: empty product is the ring's one
            key = cols
            if key in cache:
                return cache[key]
            total = zero
            sign = 1
            for k, j in enumerate(cols):
                a = self.rows[row][j]
                if a:
                    sub = expand(row + 1, cols[:k] + cols[k + 1:])
                    contrib = a if sub is None else a * sub
                    total = total + contrib if sign > 0 else total - contrib
                sign = -sign
            cache[key] = total
            return total

        result = expand(0, tuple(range(n)))
        return result if result is not None else Rational(1)

    def _det_bareiss(self):
        """Fraction-free Bareiss over any ring whose ``/`` divides exactly
        (ints become Fractions); the division-based reference for the
        cofactor expansion."""
        return _bareiss([[rat(x) for x in row] for row in self.rows], truediv)

    # -- field operations (rational entries) -------------------------------

    def inverse(self):
        """Inverse over the rationals (sparse Gauss-Jordan); entries are
        ``int`` where integral, as ``scalars.normalize`` gives them."""
        n = self.nrows
        return RingMatrix(
            self._gauss_jordan([[int(i == j) for j in range(n)] for i in range(n)])
        )

    def solve(self, rhs):
        """Solve self * x = rhs for a rational vector; raises if singular."""
        return [row[0] for row in self._gauss_jordan([[b] for b in rhs])]

    def _gauss_jordan(self, rhs_rows):
        """Reduce the augmented matrix [self | rhs_rows] to [I | X] over the
        rationals and return the rows of X, normalized.

        Each augmented row is a sparse {column: value} dict whose values are
        ``int`` while they are integral.  Column by column, the pivot row is
        chosen among the unplaced rows with a non-zero entry in that column:
        one whose entry is +-1 if there is one, then the one with the fewest
        non-zeros, then the lowest index.  A unit pivot keeps an integer row
        integral.  Eliminating a column touches only the non-zero columns of
        the pivot row.  X is unique, so the pivot order does not change the
        answer.
        """
        n = self.nrows
        if n != self.ncols:
            raise ValueError("Gauss-Jordan elimination needs a square matrix")
        aug = []
        for row, extra in zip(self.rows, rhs_rows):
            entries = {j: normalize(x) for j, x in enumerate(row) if x}
            entries.update((n + k, normalize(b)) for k, b in enumerate(extra) if b)
            aug.append(entries)
        unplaced = set(range(n))
        pivot_rows = [None] * n
        for col in range(n):
            best = None
            for r in unplaced:
                p = aug[r].get(col)
                if p:
                    key = (p != 1 and p != -1, len(aug[r]), r)
                    if best is None or key < best:
                        best = key
            if best is None:
                raise ZeroDivisionError("singular matrix")
            r = best[2]
            unplaced.discard(r)
            pivot = aug[r]
            p = pivot[col]
            if p != 1:
                pivot = {j: exact_quotient(v, p) for j, v in pivot.items()}
                aug[r] = pivot
            pivot_rows[col] = pivot
            for other in aug:
                factor = other.get(col)
                if factor and other is not pivot:
                    for j, v in pivot.items():
                        value = other.get(j, 0) - factor * v
                        if type(value) is not int:
                            value = normalize(value)
                        if value:
                            other[j] = value
                        else:
                            del other[j]
        width = len(rhs_rows[0]) if rhs_rows else 0
        return [[row.get(n + k, 0) for k in range(width)] for row in pivot_rows]


def _det_rational(rows):
    """det of int/Fraction rows as a Fraction: each row is scaled by the lcm
    of its denominators, and Bareiss runs on the integer rows."""
    int_rows = []
    scale = 1
    for row in rows:
        s = lcm(*(x.denominator for x in row))
        int_rows.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    return Rational(_bareiss(int_rows, floordiv), scale)


def _bareiss(m, divide):
    """The determinant of the square list-of-lists m (consumed), by
    fraction-free elimination: every quotient divide(num, previous pivot) is
    exact."""
    n = len(m)
    zero = m[0][0] * 0
    sign = 1
    prev = None  # previous pivot; None means 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            factor = row[k]
            for j in range(k + 1, n):
                num = pivot * row[j] - factor * pivot_row[j]
                row[j] = num if prev is None else divide(num, prev)
            row[k] = zero
        prev = pivot
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def _dot(row, col):
    it = iter(zip(row, col))
    a, b = next(it)
    total = a * b
    for a, b in it:
        total = total + a * b
    return total
