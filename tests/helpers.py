"""Independent oracles used by the tests.

These deliberately take different routes from the code under test: the Hall
pairing and basis expansions go through explicit monomial expansions in
finitely many variables, and Littlewood-Richardson numbers come from a
dominance peel of Schur products.  ``random_unipotent_point`` samples Toda
points on the unipotent spectrum through beta.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from kpeterson.grothendieck import SetValuedTableau, builds, column_word, stable_groth_vars
from kpeterson.matrices import DecompositionError, RingMatrix
from kpeterson.partitions import Partition
from kpeterson.polynomials import Poly, grouped_product, power_table, zq_vars
from kpeterson.scalars import Rational, exact_quotient, normalize, rat
from kpeterson.symfunc import SymFunc, _geom_series_coeffs, _sorted_terms, _trim, schur, to_p_dict
from kpeterson.toda import SpectralParams, TodaPoint, TruncSeriesPhi, beta_full

_MAX_TRIES = 10000  # rejection-sampling attempts; the loci are dense


def random_rational(rng, allow_zero=True):
    num = rng.randint(-9, 9)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-9, 9)
    return Rational(num, rng.randint(1, 9))


def random_symfunc(rng, max_index=4, max_terms=4, max_exp=2) -> SymFunc:
    total = SymFunc.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = [rng.randint(0, max_exp) for _ in range(rng.randint(1, max_index))]
        total = total + SymFunc.monomial(exps, random_rational(rng, allow_zero=False))
    return total


def hall_pair(f: SymFunc, g: SymFunc):
    """Hall inner product via monomial expansion: <f, h_lambda> is the
    coefficient of x^lambda in f, extended over g's h-monomials."""
    deg = max(f.degree(), g.degree(), 1)
    expansion = f.expand_in_vars(deg)
    total = Rational(0)
    for exps, coeff in g.terms.items():
        indices = []
        for i in range(len(exps), 0, -1):
            indices.extend([i] * exps[i - 1])
        key = tuple(indices) + (0,) * (deg - len(indices))
        total += coeff * expansion.terms.get(key, Rational(0))
    return total


def _next_leading(poly: Poly, previous):
    """The lex-leading exponent of poly, which a Schur peel must have
    strictly lowered from `previous` (None on the first step); a peel by a
    wrong s_lambda would otherwise never end."""
    exps = max(poly.terms)
    if previous is not None and exps >= previous:
        raise ValueError(f"Schur peel did not lower the leading exponent {previous}")
    return exps


def schur_expansion(f: SymFunc) -> dict:
    """Expand f over Schur functions by the dominance peel on a monomial
    expansion (enough variables to be faithful)."""
    if f.is_zero():
        return {}
    num_vars = max(f.degree(), 1)
    poly = f.expand_in_vars(num_vars)
    out = {}
    exps = None
    while not poly.is_zero():
        exps = _next_leading(poly, exps)
        coeff = poly.terms[exps]
        parts = [e for e in exps if e]
        if list(exps[: len(parts)]) != sorted(parts, reverse=True) or any(
            exps[len(parts):]
        ):
            raise ValueError(f"not symmetric: leading exponent {exps}")
        lam = Partition(parts)
        out[lam] = coeff
        poly = poly - schur(lam).expand_in_vars(num_vars) * coeff
    return out


def classical_lr(lam: Partition, mu: Partition, nu: Partition):
    """LR coefficient from a Schur-product peel."""
    product = schur(lam) * schur(mu)
    return schur_expansion(product).get(nu, Rational(0))


def stable_product_expansion(lam: Partition, mu: Partition, num_vars: int) -> dict:
    """Expand G_lam * G_mu over the stable basis in num_vars variables by
    peeling minimal-degree dominant monomials."""
    poly = stable_groth_vars(lam, num_vars).with_vars(
        tuple(f"x{i}" for i in range(1, num_vars + 1))
    ) * stable_groth_vars(mu, num_vars).with_vars(
        tuple(f"x{i}" for i in range(1, num_vars + 1))
    )
    out = {}
    while not poly.is_zero():
        min_deg = min(sum(e) for e in poly.terms)
        exps = max((e for e in poly.terms if sum(e) == min_deg))
        coeff = poly.terms[exps]
        parts = [e for e in exps if e]
        if list(exps[: len(parts)]) != sorted(parts, reverse=True) or any(
            exps[len(parts):]
        ):
            raise ValueError(f"unexpected leading exponent {exps}")
        nu = Partition(parts)
        out[nu] = coeff
        poly = poly - stable_groth_vars(nu, num_vars).with_vars(poly.vars) * coeff
    return out


def reference_enumerate_svt(shape, max_entry, letters):
    """The set-valued tableau walk pruned from above only, filling columns
    left to right: a cell takes at most the letters left after one for each
    cell still to fill, and the letter count is tested at the last cell.
    The reference for the walk in column-word order that also prunes from
    below and on the word prefix."""
    order = [
        (r, c)
        for c in range(1, shape.part(1) + 1)
        for r in range(1, len(shape) + 1)
        if shape.part(r) >= c
    ]
    ncells = len(order)
    if max_entry < 1 or (letters is not None and letters < ncells):
        if ncells == 0 and (letters is None or letters == 0):
            yield {}
        return
    cells = {}

    def fill(k, used):
        if k == ncells:
            if letters is None or used == letters:
                yield dict(cells)
            return
        r, c = order[k]
        lo = 1
        if (r, c - 1) in cells:
            lo = max(lo, max(cells[(r, c - 1)]))
        if (r - 1, c) in cells:
            lo = max(lo, max(cells[(r - 1, c)]) + 1)
        max_size = max_entry - lo + 1
        if letters is not None:
            max_size = min(max_size, letters - used - (ncells - k - 1))
        for size in range(1, max_size + 1):
            for subset in combinations(range(lo, max_entry + 1), size):
                cells[(r, c)] = frozenset(subset)
                yield from fill(k + 1, used + size)
        cells.pop((r, c), None)

    yield from fill(0, 0)


def reference_klr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """c_{lam,mu}^{nu} by the unpruned walk: every filling of mu with
    |nu| - |lam| letters, counted when its column word builds nu on lam."""
    if not nu.contains(lam):
        return 0
    letters = nu.weight - lam.weight
    if letters < mu.weight or len(mu) > len(nu):
        return 0
    count = 0
    for cells in reference_enumerate_svt(mu, len(nu), letters):
        if builds(column_word(SetValuedTableau(mu, cells)), lam, nu):
            count += 1
    return count


def lift_to_symfunc(poly: Poly, num_vars: int) -> SymFunc:
    """Invert the monomial expansion of a symmetric polynomial of degree at
    most num_vars, degree by degree through the Schur peel."""
    total = SymFunc.zero()
    remaining = poly
    exps = None
    while not remaining.is_zero():
        exps = _next_leading(remaining, exps)
        coeff = remaining.terms[exps]
        parts = [e for e in exps if e]
        lam = Partition(parts)
        total = total + schur(lam) * coeff
        remaining = remaining - schur(lam).expand_in_vars(num_vars).with_vars(
            remaining.vars
        ) * coeff
    return total


def reference_grouped_product(parts, tables, zero):
    """sum of part * prod_j tables[j][key[j]], one term at a time."""
    total = zero
    for key, part in parts.items():
        term = part
        for table, e in zip(tables, key):
            term = table[e] * term
        total = total + term
    return total


class Powers:
    """A power slot for the reference: base**e by e plain multiplies."""

    def __init__(self, base):
        self.base = base

    def __getitem__(self, e):
        value = 1
        for _ in range(e):
            value = value * self.base
        return value

    def __repr__(self):
        return f"Powers({self.base!r})"


def reference_kappa_p(d: int, i: int) -> dict:
    """kappa_d(p_i) as a p-dict: d - C(i,1)p_1 + C(i,2)p_2 - ... +/- p_i."""
    out = {(): d} if d else {}
    for j in range(1, i + 1):
        out[(0,) * (j - 1) + (1,)] = (-1) ** j * comb(i, j)
    return out


def reference_p_perp(i: int, g: SymFunc) -> SymFunc:
    """p_i-perp as a derivation with p_i-perp h_j = h_{j-i}, by list surgery
    on each exponent vector."""
    acc: dict = {}
    for e, c in g.terms.items():
        for j in range(len(e)):
            if not e[j]:
                continue
            # remove one factor h_{j+1}, append h_{j+1-i}
            coeff = c * e[j]
            new = list(e)
            new[j] -= 1
            target = j + 1 - i
            if target < 0:
                continue
            if target > 0:
                if len(new) < target:
                    new.extend([0] * (target - len(new)))
                new[target - 1] += 1
            key = _trim(new)
            s = normalize(acc.get(key, 0) + coeff)
            if s:
                acc[key] = s
            else:
                del acc[key]
    return SymFunc(acc)


def reference_perp(f: SymFunc, g: SymFunc) -> SymFunc:
    """f-perp g through the p-basis: expand f over p-monomials (Fraction
    coefficients) and apply p_i-perp once per factor of each."""
    total = SymFunc.zero()
    for e, c in _sorted_terms(to_p_dict(f)):
        image = g
        for i, exp in enumerate(e, start=1):
            for _ in range(exp):
                if image.is_zero():
                    break
                image = reference_p_perp(i, image)
        total = total + image * c
    return total


def reference_schur(lam) -> SymFunc:
    """det(h_{lambda_i + j - i}) by RingMatrix.det, the wedge of the rows."""
    parts = tuple(lam)
    rows = [[SymFunc.h(parts[i] + j - i) for j in range(len(parts))] for i in range(len(parts))]
    return RingMatrix(rows).det() if parts else SymFunc.one()


def reference_d_det(theta, a, n) -> SymFunc:
    """D[theta; a] as the d x d determinant of SymFunc entries
    sum_i h_i * series_j[m - a_j - i], by RingMatrix.det, the wedge of the
    rows."""
    d = len(theta)
    if d == 0:
        return SymFunc.one()
    phi = [SymFunc.h(i) for i in range(n)]
    columns = []
    for theta_j, a_j in zip(theta, a):
        series = _geom_series_coeffs(theta_j, n)
        col = []
        for m in range(n):
            entry = SymFunc.zero()
            for i in range(max(0, m - a_j) + 1):
                l = m - a_j - i
                if l >= 0 and series[l]:
                    entry = entry + phi[i] * series[l]
            col.append(entry)
        columns.append(col)
    rows = [[columns[j][n - d + i] for j in range(d)] for i in range(d)]
    det = RingMatrix(rows).det()
    sign = (-1) ** (d * (d - 1) // 2)
    return det * sign if sign < 0 else det


def reference_f_subset_sum(n: int, m: int, i: int) -> Poly:
    """F^(m)_i over z1..zn, Q1..Q_{n-1} as the subset sum itself: over the
    i-subsets I of {1..m}, prod_{j in I} z_j prod_{j in I, j+1 not in I}
    (1 - Q_j), with Q_n = 0."""
    if not (1 <= m <= n and 0 <= i):
        raise ValueError("need 1 <= m <= n and i >= 0")
    variables = zq_vars(n)
    total = Poly.zero(variables)
    for subset in combinations(range(1, m + 1), i):
        chosen = set(subset)
        term = Poly.const(variables, 1)
        for j in subset:
            term = term * Poly.variable(variables, f"z{j}")
            if j + 1 not in chosen and j != n:
                term = term * (1 - Poly.variable(variables, f"Q{j}"))
        total = total + term
    return total


# -- the Fraction routines that the int paths of the rational matrix layer
# -- replaced, and the solve-based Toda decompositions that the LU replaced,
# -- kept as references


def reference_sparse_gauss_jordan(rows, rhs_rows):
    """X = rows^{-1} rhs_rows by the sparse Gauss-Jordan elimination over
    Fraction values (integral ones kept ``int``): unit pivots first, then
    the sparsest row, then the lowest index; a non-unit pivot row is divided
    through by its pivot."""
    n = len(rows)
    aug = []
    for row, extra in zip(rows, rhs_rows):
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
                    value = normalize(other.get(j, 0) - factor * v)
                    if value:
                        other[j] = value
                    else:
                        del other[j]
    width = len(rhs_rows[0]) if rhs_rows else 0
    return [[row.get(n + k, 0) for k in range(width)] for row in pivot_rows]


def reference_matmul(a_rows, b_rows):
    """A * B by one dot product per entry, in the entries' own arithmetic."""
    out = []
    for row in a_rows:
        out_row = []
        for col in zip(*b_rows):
            total = row[0] * col[0]
            for x, y in zip(row[1:], col[1:]):
                total = total + x * y
            out_row.append(total)
        out.append(out_row)
    return out


def reference_conjugate(U, C):
    """U * C * U^{-1} by two dot-product matrix products, with U^{-1} from
    the Fraction Gauss-Jordan elimination."""
    n = len(U)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return reference_matmul(
        reference_matmul(U, C), reference_sparse_gauss_jordan(U, eye)
    )


def reference_conjugate_companion(U, params):
    """L = U C_gamma U^{-1} for U lower triangular with a +-1 diagonal, row
    by row from L U = U C_gamma, substituting from the last column:
    L_ij = U_jj (M_ij - sum_{k > j} L_ik U_kj) with M = U C_gamma, which is
    U shifted one column right plus U_nn times C_gamma's last row in row n."""
    from kpeterson.toda import companion_matrix

    n = len(U)
    last = companion_matrix(params).rows[-1]
    rows = []
    for i in range(n):
        shifted = [0, *U[i][:-1]]
        if i == n - 1:
            shifted = [m + U[i][i] * c for m, c in zip(shifted, last)]
        row = [0] * n
        for j in range(n - 1, -1, -1):
            total = shifted[j]
            for k in range(j + 1, n):
                if row[k] and U[k][j]:
                    total -= row[k] * U[k][j]
            row[j] = total if U[j][j] > 0 else -total
        rows.append(row)
    return rows


def reference_ru_decompose(X: RingMatrix):
    """(R, U) with X = U^{-1} R by n - 1 linear solves: row i of U solves
    the system of the minor xi^{1..i-2,n}_{1..i-1}(X), with U_ii = (-1)^{i-1}."""
    n = X.nrows
    if not X[1, n]:
        raise DecompositionError("x_{1,n} = 0", 1)
    urows = [[Rational(0)] * n for _ in range(n)]
    urows[0][0] = Rational(1)
    for i in range(2, n + 1):
        cols = list(range(1, i - 1)) + [n]
        diag = Rational((-1) ** (i - 1))
        system = RingMatrix(
            [[rat(X.rows[k - 1][j - 1]) for k in range(1, i)] for j in cols]
        )
        rhs = [-diag * rat(X.rows[i - 1][j - 1]) for j in cols]
        try:
            sol = system.solve(rhs)
        except ZeroDivisionError:
            raise DecompositionError(
                f"minor xi^{{1..{i - 2},n}}_{{1..{i - 1}}} vanishes", i - 1
            ) from None
        for k, v in enumerate(sol):
            urows[i - 1][k] = v
        urows[i - 1][i - 1] = diag
    U = RingMatrix(urows)
    return U * X, U


def reference_lax_to_point(L: RingMatrix) -> TodaPoint:
    """(z, Q) off a Lax matrix through M = L^{-1} (``RingMatrix.inverse``):
    Q_i = -M_{i+1,i} and z_i = M_{1,i-1}/M_{1,i}, since the first
    row of M telescopes 1/(z_1..z_i).  Unlike a read of L's entries it holds
    when some Q_k is 0 or 1."""
    n = L.nrows
    M = L.inverse()
    z = []
    prev = Rational(1)
    for i in range(1, n + 1):
        cur = M[1, i]
        if not cur:
            raise ValueError("Lax matrix outside the parametrized locus")
        z.append(prev / cur)
        prev = rat(cur)
    Q = tuple(-rat(M[i + 1, i]) for i in range(1, n))
    return TodaPoint(n, tuple(z), Q)


def _poly_mod(coeffs, modulus):
    """Reduce an ascending coefficient list modulo a monic modulus list."""
    coeffs = list(coeffs)
    deg_m = len(modulus) - 1
    while len(coeffs) > deg_m:
        lead = coeffs[-1]
        if lead:
            shift = len(coeffs) - 1 - deg_m
            for k in range(deg_m + 1):
                coeffs[shift + k] = coeffs[shift + k] - lead * modulus[k]
        coeffs.pop()
    return coeffs


def reference_ts_functions(phi, params):
    """T_i = (-1)^{n-i} xi^{1..i-1,n}_{1..i}(B) and S_i = xi^{1..i}_{1..i}(B),
    one ``RingMatrix.minor`` each, with row j of B the remainder of
    phi * zeta^j modulo the characteristic polynomial."""
    n = phi.n
    zero = phi.c[0] * 0
    modulus = params.char_poly_coeffs()
    rows = [phi.to_zeta_coeffs()]
    for _ in range(n - 1):
        rows.append(_poly_mod([zero] + rows[-1], modulus))
    B = RingMatrix(rows)
    T = [
        B.minor(range(1, i + 1), [*range(1, i), n]) * (-1) ** (n - i)
        for i in range(1, n + 1)
    ]
    S = [B.minor(range(1, i + 1), range(1, i + 1)) for i in range(1, n + 1)]
    return T, S


def reference_continuant(z, Q, variables) -> Poly:
    """Delta_{1,1}(zeta*B - A) as a Poly over `variables` (zeta and every
    variable of z and Q), by the continuant run on Polys in zeta."""
    zeta = Poly.variable(variables, "zeta")
    prev, cur = Poly.zero(variables), Poly.const(variables, 1)
    for k in range(1, len(z)):
        prev, cur = cur, zeta * (cur + prev * (Q[k - 1] * z[k - 1])) - cur * z[k]
    return cur


def reference_evaluate(poly: Poly, point: dict):
    """poly at a point by grouped_product over cached Fraction powers."""
    tables = [power_table(rat(point[v])) for v in poly.vars]
    return grouped_product(poly.terms, tables, Rational(0))


def reference_det_bareiss(m: RingMatrix):
    """Fraction-free Bareiss with row exchanges over any ring whose ``/``
    divides exactly (ints become Fractions): the division-based reference
    for the wedge determinant and for the ``int`` elimination."""
    rows = [[rat(x) for x in row] for row in m.rows]
    n, sign, prev = len(rows), 1, None
    if not n:
        return Rational(1)
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if swap is None:
                return rows[0][0] * 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for row in rows[k + 1:]:
            factor = row[k]
            for j in range(k + 1, n):
                num = pivot * row[j] - factor * rows[k][j]
                row[j] = num if prev is None else num / prev
        prev = pivot
    return -rows[-1][-1] if sign < 0 else rows[-1][-1]


def random_unipotent_point(n: int, rng) -> TodaPoint:
    """A random rational point whose spectral invariants are the binomial
    coefficients (characteristic polynomial (zeta-1)^n), built through beta
    from a random polynomial class."""
    uni = SpectralParams.unipotent(n)
    for _ in range(_MAX_TRIES):
        coeffs = [random_rational(rng, allow_zero=True) for _ in range(n - 1)]
        coeffs.append(Rational(1))
        phi = TruncSeriesPhi(n, coeffs)
        try:
            return beta_full(phi, uni).point
        except (ValueError, ZeroDivisionError):
            continue
    raise RuntimeError("sampling failed; the locus should be dense")
