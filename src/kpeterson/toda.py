"""Relativistic Toda Lax matrices and the alpha/beta correspondence.

A point of the phase space is (z, Q) with z_1...z_n = 1; its Lax matrix is
L = A B^{-1} with A upper bidiagonal (z_i diagonal, -1 superdiagonal) and B
unipotent lower bidiagonal (-Q_i z_i subdiagonal).  The spectral invariants
F_i and the partial invariants F^(m)_i, the companion matrix of the common
characteristic polynomial, the T/S tau-functions, and the RU decomposition
that realizes the correspondence between Lax matrices and polynomial
classes phi all live here.

Each construction reads its matrix's structure, over any coefficient ring:
every Toda polynomial comes from one recurrence (``_f_table``), in z and Q
taken as exact rationals at a point or as z/Q polynomials.  It gives the
F^(m)_i, and the characteristic minor of alpha as the invariants of the
chain z_2..z_n; the quantization map reads it at z = 1 - x.  L is written
entry by entry.  A class phi is kept as its zeta-coefficients, and
phi(C_gamma) is built once, over the rational or symmetric-function
coordinates of phi, row by row as the remainders of phi*zeta^j modulo the
characteristic polynomial (valid for every gamma), one remainder step a
row.  beta reads everything off that one matrix X: T/S are its leading
minors from one fraction-free elimination (``RingMatrix.leading_minors``),
det X = S_n, and the point (z, Q) is a ratio of T's and S's.
``is_phi_of_companion`` checks a built X by its first row and the row
recurrence of C_gamma.  The RU decomposition is one Doolittle LU
(``RingMatrix.lu``) of X with its column n moved first; its three factors
give U, U^{-1} and R, so beta takes L = U C_gamma U^{-1} as two products.
No decomposition solves a system and nothing is inverted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

from .matrices import DecompositionError, RingMatrix
from .polynomials import Poly, zq_vars
from .scalars import Rational, rat
from .symfunc import SymFunc

__all__ = [
    "TodaPoint",
    "SpectralParams",
    "TruncSeriesPhi",
    "DecompositionError",
    "YConditionError",
    "f_invariant",
    "fq_poly_z",
    "partial_invariants",
    "lax_matrix",
    "companion_matrix",
    "phi_of_companion",
    "is_phi_of_companion",
    "ts_functions",
    "ru_decompose",
    "alpha",
    "beta_full",
    "minor_formulas",
    "random_z_point",
    "gamma_of_point",
]


class YConditionError(ValueError):
    """A (Y_0)..(Y_3) condition failed; .condition names it."""

    def __init__(self, condition: str):
        super().__init__(f"condition {condition} fails")
        self.condition = condition


@dataclass(frozen=True)
class TodaPoint:
    n: int
    z: tuple
    Q: tuple

    def __post_init__(self):
        if len(self.z) != self.n or len(self.Q) != self.n - 1:
            raise ValueError("wrong component counts")
        if prod(self.z) != 1:
            raise ValueError("z_1...z_n must equal 1")


@dataclass(frozen=True)
class SpectralParams:
    gamma: tuple  # (gamma_1, ..., gamma_n), gamma_n = 1

    def __post_init__(self):
        if not self.gamma or self.gamma[-1] != 1:
            raise ValueError("gamma_n must be 1")

    @property
    def n(self) -> int:
        return len(self.gamma)

    @classmethod
    def unipotent(cls, n: int) -> "SpectralParams":
        return cls(tuple(Rational(comb(n, i)) for i in range(1, n + 1)))

    def char_poly_coeffs(self):
        """Ascending coefficients of zeta^n + sum (-1)^i gamma_i zeta^{n-i}."""
        return [rat(g) * (-1) ** i for i, g in enumerate(self.gamma, 1)][::-1] + [Rational(1)]


class TruncSeriesPhi:
    """A polynomial class of degree <= n-1, given by the coordinates
    c_0..c_{n-1} with phi = sum (-1)^i c_i (zeta-1)^i and stored as the
    ascending zeta-coefficients of phi, which every consumer reads.
    Coefficients are Rational or SymFunc."""

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, c):
        c = list(c)
        if len(c) != n:
            raise ValueError("need exactly n coordinates")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_coeffs", tuple(_binomial_flip(c)))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeriesPhi is immutable")

    @property
    def c(self):
        """The coordinates c_0..c_{n-1}."""
        return tuple(_binomial_flip(self._coeffs))

    def __eq__(self, other):
        return isinstance(other, TruncSeriesPhi) and self._coeffs == other._coeffs

    def __repr__(self):
        return f"TruncSeriesPhi(n={self.n}, c={list(self.c)})"

    @classmethod
    def from_zeta_coeffs(cls, n: int, coeffs) -> "TruncSeriesPhi":
        """From ascending coefficients of phi(zeta), degree <= n-1, stored as
        given and padded with zeros to n entries.  Trailing zeros beyond
        zeta^{n-1} are dropped; a non-zero one raises ValueError."""
        coeffs = list(coeffs)
        if any(coeffs[n:]):
            raise ValueError(f"phi has degree above n - 1 = {n - 1}")
        phi = cls.__new__(cls)
        object.__setattr__(phi, "n", n)
        object.__setattr__(phi, "_coeffs", tuple((coeffs + [0] * n)[:n]))
        return phi

    def to_zeta_coeffs(self):
        """Ascending coefficients of phi(zeta), as a new list."""
        return list(self._coeffs)

    @classmethod
    def symbolic_unipotent(cls, n: int) -> "TruncSeriesPhi":
        """The symmetric-function specialization c_i/c_0 = h_i with c_0 = 1."""
        return cls(n, [SymFunc.h(i) for i in range(n)])

    def scaled(self, factor) -> "TruncSeriesPhi":
        return TruncSeriesPhi.from_zeta_coeffs(self.n, [a * factor for a in self._coeffs])

    def normalized(self) -> "TruncSeriesPhi":
        """Monic representative (top zeta-coefficient 1); rational only."""
        top = self._coeffs[-1]
        if not top:
            raise YConditionError("Y1")
        return self.scaled(Rational(1) / top)


def _binomial_flip(values):
    """w_i = (-1)^i sum_{j >= i} C(j, i) v_j.  It takes the ascending
    zeta-coefficients of phi to the coordinates c_i of
    phi = sum (-1)^i c_i (zeta-1)^i and, being an involution, back."""
    n = len(values)
    out = []
    for i in range(n):
        total = values[i]
        for j in range(i + 1, n):
            total = total + values[j] * comb(j, i)
        out.append(-total if i % 2 else total)
    return out


# -- spectral invariants -------------------------------------------------------


def _f_table(z, Q):
    """table[m][i] = F^(m)_i (0 <= i <= m <= n, table[0] = [1]) over the ring
    of z_1..z_n, Q_1..Q_{n-1}: the sum over i-subsets I of {1..m} of
    prod_{j in I} z_j (1 - Q_j)^[j+1 not in I], Q_n = 0.  The scan over j
    keeps per subset size the sum with j not in I, whose factors are settled
    (F^(j-1)), and the sum with j in I, whose 1 - Q_j waits on j + 1."""
    zero = z[0] * 0
    row = unsettled = [zero + 1]  # F^(j-1), and F^(j-1) at Q_{j-1} = 0
    table = [row]
    for zj, qj in zip(z, [*Q, 0]):
        with_j = [zero] + [u * zj for u in unsettled]
        row = row + [zero]
        unsettled = [f + t for f, t in zip(row, with_j)]
        row = [f + t * (1 - qj) for f, t in zip(row, with_j)]
        table.append(row)
    return table


@lru_cache(maxsize=None)
def _zq_table(n: int):
    return _f_table(*_symbolic_entries(zq_vars(n), n))


def _table_entry(table, m: int, i: int):
    """table[m][i] of an ``_f_table`` of n = len(table) - 1, zero for i > m."""
    if not (1 <= m < len(table) and 0 <= i):
        raise ValueError("need 1 <= m <= n and i >= 0")
    return table[m][i] if i <= m else table[0][0] * 0


def fq_poly_z(n: int, m: int, i: int) -> Poly:
    """F^(m)_i over z1..zn, Q1..Q_{n-1} (zero for i > m): a sum of plain
    monomials, which the Peterson map evaluates fastest."""
    return _table_entry(_zq_table(n), m, i)


def f_invariant(n: int, i: int) -> Poly:
    """The spectral invariant F_i(z, Q) = F^(n)_i."""
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    return _zq_table(n)[n][i]


def partial_invariants(pt: TodaPoint):
    """The values F^(m)_i(z, Q) at a point, as ``_f_table`` indexes them."""
    return _f_table(*_point_entries(pt))


def gamma_of_point(pt: TodaPoint) -> SpectralParams:
    return SpectralParams(tuple(partial_invariants(pt)[pt.n][1:]))


# -- Lax matrices ---------------------------------------------------------------


def _lax(z, Q) -> RingMatrix:
    """L = A B^{-1} entry by entry over the ring of z and Q: with
    P_ij = prod_{j <= k < i} Q_k z_k = B^{-1}_ij, L_ij = z_i P_ij - P_{i+1,j}
    for i >= j (Q_n = 0), -1 on the superdiagonal and zero above it."""
    n, zero = len(z), z[0] * 0
    Q = [*Q, 0]
    rows = [[zero] * n for _ in range(n)]
    for j in range(n):
        p = zero + 1
        for i in range(j, n):
            below = p * Q[i] * z[i]
            rows[i][j], p = z[i] * p - below, below
        if j + 1 < n:
            rows[j][j + 1] = zero - 1
    return RingMatrix(rows)


def _char_minor(z, Q):
    """The ascending zeta-coefficients of Delta_{1,1}(zeta*B - A), over the
    ring of the entries z_i, Q_i.  Rows and columns 2..n of B and A are the
    Lax pair of the chain z_2..z_n, Q_2..Q_{n-1} (B's block is unipotent),
    so the minor is that chain's characteristic polynomial: the coefficient
    of zeta^{n-1-i} is (-1)^i F_i(z_2..z_n; Q_2..Q_{n-1})."""
    row = _f_table(z[1:], Q[1:])[-1] if len(z) > 1 else [z[0] * 0 + 1]
    return [-f if i % 2 else f for i, f in enumerate(row)][::-1]


def _point_entries(pt: TodaPoint):
    return [rat(v) for v in pt.z], [rat(v) for v in pt.Q]


def _symbolic_entries(variables, n: int):
    z = [Poly.variable(variables, f"z{i}") for i in range(1, n + 1)]
    Q = [Poly.variable(variables, f"Q{i}") for i in range(1, n)]
    return z, Q


def lax_matrix(pt: TodaPoint) -> RingMatrix:
    """L = A B^{-1} at a rational point."""
    return _lax(*_point_entries(pt))


def lax_matrix_symbolic(n: int) -> RingMatrix:
    """L = A B^{-1} over the z/Q polynomial ring (B^{-1} is polynomial)."""
    return _lax(*_symbolic_entries(zq_vars(n), n))


def char_minor_phi_symbolic(n: int) -> Poly:
    """Delta_{1,1} over the symbolic z/Q polynomial ring with zeta."""
    coeffs = _char_minor(*_symbolic_entries(zq_vars(n), n))
    return Poly(
        ("zeta",) + zq_vars(n),
        {(e, *exps): c for e, poly in enumerate(coeffs) for exps, c in poly.terms.items()},
    )


# -- companion matrix and T/S determinants ----------------------------------------


def companion_matrix(params: SpectralParams) -> RingMatrix:
    """C_gamma = J + sum (-1)^{i-1} gamma_i E_{n, n-i+1}."""
    n = params.n
    rows = [[Rational(0)] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = Rational(1)
    for i, g in enumerate(params.gamma, 1):
        rows[n - 1][n - i] = rat(g) * (-1) ** (i - 1)
    return RingMatrix(rows)


def phi_of_companion(phi: TruncSeriesPhi, params: SpectralParams) -> RingMatrix:
    """phi(C_gamma), over the coefficient ring of phi: row j + 1 is the
    remainder of phi*zeta^j modulo the monic characteristic polynomial chi,
    so the row below a row r is one remainder step,
    (0, r_1..r_{n-1}) - r_n (chi_0..chi_{n-1}).  Since
    e_1^T C_gamma^k = e_{k+1}^T for k < n, e_1^T p(C_gamma) is the
    coefficient vector of any p of degree < n, and row j + 1 of phi(C_gamma)
    is e_1^T C_gamma^j phi(C_gamma) = e_1^T (zeta^j phi mod chi)(C_gamma)."""
    n = phi.n
    if params.n != n:
        raise ValueError("size mismatch")
    chi = params.char_poly_coeffs()
    rows = [phi.to_zeta_coeffs()]
    for _ in range(n - 1):
        r = rows[-1]
        rows.append([-(r[-1] * chi[0])] + [a - r[-1] * b for a, b in zip(r, chi[1:n])])
    return RingMatrix(rows)


def is_phi_of_companion(
    X: RingMatrix, phi: TruncSeriesPhi, params: SpectralParams
) -> bool:
    """Whether X = phi(C_gamma): X's first row holds phi's
    zeta-coefficients and each next row is the row above times C_gamma.
    Since e_{i+1}^T = e_i^T C_gamma, every polynomial p(C_gamma) of degree
    < n has this shape with p's coefficients as its first row, and the first
    row and the recurrence fix X.  Row r times C_gamma is r shifted right by
    one plus r_n times the last row of C_gamma, so the check takes O(n^2)
    ring operations and no matrix product."""
    last = companion_matrix(params).rows[-1]
    if list(X.rows[0]) != phi.to_zeta_coeffs():
        return False
    return all(
        list(below) == [r[-1] * last[0]] + [a + r[-1] * c for a, c in zip(r, last[1:])]
        for r, below in zip(X.rows, X.rows[1:])
    )


def _ts_minors(X: RingMatrix):
    """(T, S) off the leading minors of X = phi(C_gamma), one elimination:
    S_i = xi^{1..i}_{1..i}(X) and T_i = (-1)^{n-i} xi^{1..i-1,n}_{1..i}(X)."""
    n = X.nrows
    S, last = X.leading_minors()
    return [t * (-1) ** (n - i) for i, t in enumerate(last, 1)], S


def ts_functions(phi: TruncSeriesPhi, params: SpectralParams):
    """The tau-functions T_1..T_n, S_1..S_n of phi: the leading minors of
    phi(C_gamma) that ``_ts_minors`` reads.  The rows of phi(C_gamma) are
    phi*zeta^j modulo the characteristic polynomial, a coordinate map with
    basis determinant 1 for every gamma.  Rescaling phi by a constant c
    multiplies T_i and S_i by c^i.
    """
    return _ts_minors(phi_of_companion(phi, params))


# -- decompositions ----------------------------------------------------------------


def ru_decompose(X: RingMatrix):
    """(R, U, U^{-1}) with X = U^{-1} R, R in B*sigma (upper triangular
    shifted one column left, only the (1,n) corner surviving in the last
    column) and U in N_- epsilon (alternating-sign diagonal, lower
    triangular); needs the minors xi^{1..k-1,n}_{1..k}(X), k < n, non-zero
    (index k).  X with its column n moved first is a Doolittle LU, L V, so
    U = epsilon L^{-1}, U^{-1} = L epsilon, and R = U X is epsilon V with
    V's first column moved last: in B*sigma by construction."""
    if not X[1, X.nrows]:
        raise DecompositionError("x_{1,n} = 0", 1)
    try:
        L, L_inv, V = RingMatrix([(row[-1], *row[:-1]) for row in X.rows]).lu()
    except DecompositionError as exc:
        k = exc.index
        raise DecompositionError(f"minor xi^{{1..{k - 1},n}}_{{1..{k}}} vanishes", k) from None
    U = RingMatrix([[-x if i % 2 else x for x in row] for i, row in enumerate(L_inv.rows)])
    U_inv = RingMatrix([[-x if j % 2 else x for j, x in enumerate(row)] for row in L.rows])
    R = RingMatrix(
        [[-x if i % 2 else x for x in (*row[1:], row[0])] for i, row in enumerate(V.rows)]
    )
    return R, U, U_inv


def ru_ratio_formula(X: RingMatrix, i: int):
    """(-1)^{i+1} xi^{1..i,n}_{1..i,i+1}(X) / xi^{1..i-1,n}_{1..i-1,i}(X)."""
    num = X.minor(list(range(1, i + 1)) + [i + 1], list(range(1, i + 1)) + [X.nrows])
    den = X.minor(list(range(1, i)) + [i], list(range(1, i)) + [X.nrows])
    return Rational((-1) ** (i + 1)) * num / den


# -- the alpha / beta correspondence ------------------------------------------------


def alpha(pt: TodaPoint) -> TruncSeriesPhi:
    """The polynomial class [Delta_{1,1}] of a Toda point (monic, degree
    n-1), read off the F-table of the chain z_2..z_n (``_char_minor``)."""
    coeffs = _char_minor(*_point_entries(pt))
    assert len(coeffs) == pt.n and coeffs[-1] == 1
    return TruncSeriesPhi.from_zeta_coeffs(pt.n, coeffs)


@dataclass(frozen=True)
class BetaData:
    point: TodaPoint
    L: RingMatrix
    R: RingMatrix
    U: RingMatrix
    T: tuple
    S: tuple
    X: RingMatrix  # phi(C_gamma) of the normalized phi


def beta_full(phi: TruncSeriesPhi, params: SpectralParams) -> BetaData:
    """beta(phi), the inverse of alpha on the open locus, with what it is
    read from; raises YConditionError naming the first failing condition.
    phi is normalized (Y1) and X = phi(C_gamma) is built once; one
    elimination gives its leading minors, T and S, with det X = S_n (Y0),
    and Y2, Y3 ask T_i, S_i != 0 for i < n.  The point is read off the
    tau-functions,
    z_i = T_i S_{i-1} / (S_i T_{i-1}) and Q_i = T_{i-1} T_{i+1} / T_i^2
    (T_0 = S_0 = 1), and the RU decomposition X = U^{-1} R gives
    L = U C_gamma U^{-1} as two products."""
    n = phi.n
    phi = phi.normalized()  # raises YConditionError("Y1") when impossible
    X = phi_of_companion(phi, params)
    T, S = _ts_minors(X)
    if not S[-1]:
        raise YConditionError("Y0")
    for i in range(1, n):
        if not T[i - 1]:
            raise YConditionError(f"Y2[{i}]")
    for i in range(1, n):
        if not S[i - 1]:
            raise YConditionError(f"Y3[{i}]")
    R, U, U_inv = ru_decompose(X)
    L = U * companion_matrix(params) * U_inv
    T0, S0 = (Rational(1), *T), (Rational(1), *S)
    z = tuple(T0[i] * S0[i - 1] / (S0[i] * T0[i - 1]) for i in range(1, n + 1))
    Q = tuple(T0[i - 1] * T0[i + 1] / T0[i] ** 2 for i in range(1, n))
    return BetaData(TodaPoint(n, z, Q), L, R, U, tuple(T), tuple(S), X)


def minor_formulas(phi: TruncSeriesPhi, params: SpectralParams) -> bool:
    """Check that ``phi_of_companion`` builds phi(C_gamma)
    (``is_phi_of_companion``), so that T_i = (-1)^{n-i}
    xi^{1..i-1,n}_{1..i}(phi(C)) and S_i = xi^{1..i}_{1..i}(phi(C)), which
    ``ts_functions`` reads off that matrix, are the tau-functions of phi."""
    return is_phi_of_companion(phi_of_companion(phi, params), phi, params)


# -- sampling ------------------------------------------------------------------------


def _random_rational(rng):
    num = rng.randint(-9, 9)
    while num == 0:
        num = rng.randint(-9, 9)
    return Rational(num, rng.randint(1, 9))


def random_z_point(n: int, rng) -> TodaPoint:
    """A random rational point of the open locus: non-zero z with product 1
    and non-zero Q.  Its trailing minors of L (condition Z_3) never vanish,
    so nothing is rejected: A is upper and B^{-1} unipotent lower
    triangular, so the trailing principal minor of L = A B^{-1} on rows
    i+1..n is that of A, z_{i+1}...z_n."""
    z = [_random_rational(rng) for _ in range(n - 1)]
    Q = tuple(_random_rational(rng) for _ in range(n - 1))
    return TodaPoint(n, (*z, Rational(1) / prod(z)), Q)
