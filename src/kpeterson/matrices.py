"""Dense matrices over a generic commutative ring.

Entries only need +, -, * (with each other and with ints) and, for the
fraction-free path, an exact __truediv__.  Determinants: Bareiss for
rational entries, memoized cofactor expansion for small symbolic matrices
(every matrix in this artifact is at most 6x6).
"""

from __future__ import annotations

from .scalars import Rational, rat

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

    def __add__(self, other):
        return RingMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        return RingMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

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
        """Bareiss for rational entries or above 6x6, memoized cofactor
        expansion otherwise."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return Rational(1)
        if n > 6 or all(
            isinstance(x, (int, Rational)) for row in self.rows for x in row
        ):
            return self._det_bareiss()
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
        n = self.nrows
        m = [
            [rat(x) if isinstance(x, int) else x for x in row] for row in self.rows
        ]
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
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                    m[i][j] = num if prev is None else num / prev
                m[i][k] = zero
            prev = m[k][k]
        return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]

    # -- field operations (rational entries) -------------------------------

    def inverse(self):
        """Inverse over the rationals (Gauss-Jordan)."""
        n = self.nrows
        return RingMatrix(
            self._gauss_jordan([[int(i == j) for j in range(n)] for i in range(n)])
        )

    def solve(self, rhs):
        """Solve self * x = rhs for a rational vector; raises if singular."""
        return [row[0] for row in self._gauss_jordan([[b] for b in rhs])]

    def _gauss_jordan(self, rhs_rows):
        """Reduce the augmented matrix [self | rhs_rows] to [I | X] over the
        rationals and return the rows of X."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("Gauss-Jordan elimination needs a square matrix")
        aug = [
            [rat(x) for x in row] + [rat(b) for b in extra]
            for row, extra in zip(self.rows, rhs_rows)
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


def _dot(row, col):
    it = iter(zip(row, col))
    a, b = next(it)
    total = a * b
    for a, b in it:
        total = total + a * b
    return total
