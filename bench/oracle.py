"""Reference computations that stand apart from the program under test.

Everything here is plain ``fractions.Fraction`` arithmetic on lists and
dicts.  Nothing calls the program's polynomial, symmetric-function or matrix
code: program outputs are read as data (term maps, factored denominators,
matrix rows) and evaluated at seeded random rational points.

Symmetric functions are evaluated at a point h* = (h_1*, h_2*, ...) of the
free polynomial ring in the h's; every identity the workloads check is an
identity in that ring, so agreement at a random rational point is the test
(a wrong output survives only on a proper subvariety, which a random point
misses).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb

H_COUNT = 12  # h_1..h_12; no checked quantity uses a higher index


def frac(value) -> Fraction:
    """Any exact rational the program may hold (int, Fraction, mpq)."""
    return Fraction(int(value.numerator), int(value.denominator))


def random_rational(rng) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def to_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def from_text(text: str) -> Fraction:
    return Fraction(text)


# -- dense linear algebra ----------------------------------------------------


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination with row pivoting."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        for r in range(c + 1, n):
            factor = m[r][c] / m[c][c]
            if factor:
                for k in range(c, n):
                    m[r][k] -= factor * m[c][k]
    return result


def matmul(a, b):
    return [
        [sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def char_poly(a):
    """Faddeev-LeVerrier: [c_0 = 1, c_1, ..., c_n] with
    det(t I - a) = sum_k c_k t^(n-k)."""
    n = len(a)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        am = matmul(a, m)
        m = [[am[i][j] + coeffs[-1] * ident[i][j] for j in range(n)] for i in range(n)]
        am = matmul(a, m)
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
    return coeffs


def lower_unipotent_inverse(b):
    """Inverse of a unit lower-triangular matrix by forward substitution."""
    n = len(b)
    inv = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            total = Fraction(int(i == j))
            for k in range(i):
                total -= b[i][k] * inv[k][j]
            inv[i][j] = total
    return inv


# -- partitions and permutations ---------------------------------------------


def trim(parts) -> tuple:
    return tuple(p for p in parts if p)


def rectangle_partitions(rows: int, cols: int) -> list:
    """Every partition inside a rows x cols box, as trimmed tuples."""
    out = []

    def grow(prefix, bound):
        if len(prefix) == rows:
            out.append(trim(prefix))
            return
        for p in range(bound + 1):
            grow(prefix + (p,), p)

    grow((), cols)
    return sorted(set(out))


def partitions_up_to(weight: int) -> list:
    out = []

    def grow(prefix, remaining, bound):
        out.append(prefix)
        for p in range(min(bound, remaining), 0, -1):
            grow(prefix + (p,), remaining - p, p)

    grow((), weight, weight)
    return sorted(out)


def part(lam, i: int) -> int:
    return lam[i - 1] if i <= len(lam) else 0


def complement(lam, d: int, n: int) -> tuple:
    """Complement of lam in the d x (n-d) box, rotated by 180 degrees."""
    return trim((n - d) - part(lam, d + 1 - a) for a in range(1, d + 1))


def grassmannian(lam, d: int, n: int) -> tuple:
    """w(a) = lam_{d+1-a} + a for a <= d, the other values increasing."""
    head = [part(lam, d + 1 - a) + a for a in range(1, d + 1)]
    return tuple(head + [v for v in range(1, n + 1) if v not in head])


def permutations_of(n: int) -> list:
    return list(permutations(range(1, n + 1)))


def descents(w) -> list:
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


# -- the h-point and the symmetric functions evaluated at it ------------------


class HPoint:
    """Values h_0 = 1, h_1*, ..., with h_k = 0 for k < 0."""

    def __init__(self, values):
        self.values = [Fraction(1)] + [Fraction(v) for v in values]
        self._g: dict = {}

    def h(self, k: int) -> Fraction:
        return self.values[k] if k >= 0 else Fraction(0)

    def schur(self, lam) -> Fraction:
        """Jacobi-Trudi: det(h_{lam_i - i + j})."""
        ell = len(lam)
        return det([[self.h(lam[i] - i + j) for j in range(ell)] for i in range(ell)])

    def g(self, lam) -> Fraction:
        """Dual stable Grothendieck g_lam: row i holds the coefficients of
        h(t) (1-t)^-(i-1); row 1 is the Jacobi-Trudi row."""
        lam = trim(lam)
        if lam not in self._g:
            ell = len(lam)
            rows = []
            for i in range(1, ell + 1):
                row = []
                for j in range(1, ell + 1):
                    top = lam[i - 1] + j - i
                    if i == 1:
                        row.append(self.h(top))
                    else:
                        row.append(
                            sum(
                                (comb(m + i - 2, m) * self.h(top - m) for m in range(top + 1)),
                                Fraction(0),
                            )
                        )
                rows.append(row)
            self._g[lam] = det(rows)
        return self._g[lam]

    def d_value(self, theta, a, n: int) -> Fraction:
        """D[theta; a] at level n: the bottom d rows (u^(n-d)..u^(n-1)) of
        the coefficient columns of u^(a_j) (1-u)^(-theta_j) H(u), with
        H(u) = sum_i h_i u^i, signed by (-1)^(d(d-1)/2)."""
        d = len(theta)
        columns = []
        for theta_j, a_j in zip(theta, a):
            series = [_binomial_series(theta_j, l) for l in range(n)]
            shifted = [Fraction(0)] * a_j + series
            col = [
                sum((self.h(i) * shifted[m - i] for i in range(m + 1)), Fraction(0))
                for m in range(n)
            ]
            columns.append(col)
        rows = [[columns[j][n - d + i] for j in range(d)] for i in range(d)]
        sign = -1 if (d * (d - 1) // 2) % 2 else 1
        return sign * det(rows)

    def symfunc(self, f) -> Fraction:
        """A program SymFunc: terms map exponent vectors (slot k-1 holds the
        exponent of h_k) to coefficients."""
        total = Fraction(0)
        for exps, coeff in f.terms.items():
            term = frac(coeff)
            for k, e in enumerate(exps, start=1):
                if e:
                    term *= self.values[k] ** e
            total += term
        return total


def _binomial_series(theta: int, l: int) -> int:
    """Coefficient of u^l in (1-u)^(-theta)."""
    if theta >= 0:
        return comb(theta + l - 1, l) if theta else int(l == 0)
    return (-1) ** l * comb(-theta, l)


def random_hpoint(rng, n: int) -> HPoint:
    """A random h-point at which every tau_i and sigma_i of level n is
    non-zero, so that Phi_n is defined there."""
    while True:
        point = HPoint([random_rational(rng) for _ in range(H_COUNT)])
        tau, sigma = tau_sigma(point, n)
        if all(tau) and all(sigma):
            return point


def tau_sigma(point: HPoint, n: int):
    """tau_i = g_{R_i}, sigma_i = sum of g_mu over mu in R_i, for i = 0..n,
    with R_i the i x (n-i) rectangle and the boundary values 1."""
    tau = [Fraction(1)]
    sigma = [Fraction(1)]
    for i in range(1, n):
        tau.append(point.g((n - i,) * i))
        sigma.append(sum((point.g(mu) for mu in rectangle_partitions(i, n - i)), Fraction(0)))
    tau.append(Fraction(1))
    sigma.append(Fraction(1))
    return tau, sigma


class PhiPoint:
    """z*, Q* = the images of z_i, Q_i under Phi_n evaluated at an h-point."""

    def __init__(self, point: HPoint, n: int):
        self.point = point
        self.n = n
        tau, sigma = tau_sigma(point, n)
        self.tau, self.sigma = tau, sigma
        self.z = [tau[i] * sigma[i - 1] / (sigma[i] * tau[i - 1]) for i in range(1, n + 1)]
        self.Q = [tau[i - 1] * tau[i + 1] / tau[i] ** 2 for i in range(1, n)]
        self.factor = {f"tau{i}": tau[i] for i in range(1, n)}
        self.factor.update({f"sigma{i}": sigma[i] for i in range(1, n)})

    def values(self) -> dict:
        out = {f"z{i}": self.z[i - 1] for i in range(1, self.n + 1)}
        out.update({f"x{i}": 1 - self.z[i - 1] for i in range(1, self.n + 1)})
        out.update({f"Q{i}": self.Q[i - 1] for i in range(1, self.n)})
        return out

    def locfrac(self, image) -> Fraction:
        """A program LocFrac: numerator over h1..h_{n-1}, denominator a
        monomial in the named tau/sigma factors."""
        num = Fraction(0)
        for exps, coeff in image.num.terms.items():
            term = frac(coeff)
            for name, e in zip(image.num.vars, exps):
                if e:
                    term *= self.point.h(int(name[1:])) ** e
            num += term
        den = Fraction(1)
        for name, e in zip(image.ctx.factor_names, image.den):
            if e:
                den *= self.factor[name] ** e
        return num / den

    def f_value(self, m: int, i: int) -> Fraction:
        return f_value(self.n, m, i, self.z, self.Q)


def f_value(n: int, m: int, i: int, z, Q) -> Fraction:
    """F^(m)_i(z, Q): sum over i-subsets I of {1..m} of prod_{j in I} z_j
    prod_{j in I, j+1 not in I, j < n} (1 - Q_j)."""
    total = Fraction(0)
    for subset in combinations(range(1, m + 1), i):
        term = Fraction(1)
        for j in subset:
            term *= z[j - 1]
            if j + 1 not in subset and j != n:
                term *= 1 - Q[j - 1]
        total += term
    return total


def eval_poly(poly, values: dict) -> Fraction:
    """A program Poly (variable names and a term map) at named values."""
    vals = [values[v] for v in poly.vars]
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = frac(coeff)
        for v, e in zip(vals, exps):
            if e:
                term *= v**e
        total += term
    return total


# -- Grothendieck polynomials by isobaric divided differences ----------------


def _poly_add(acc: dict, exps, coeff):
    s = acc.get(exps, 0) + coeff
    if s:
        acc[exps] = s
    else:
        acc.pop(exps, None)


def _isobaric(f: dict, i: int) -> dict:
    """pi_i f = d_i((1 - x_{i+1}) f), d_i the divided difference in the
    (0-based) positions i, i+1."""
    g: dict = {}
    for exps, c in f.items():
        _poly_add(g, exps, c)
        bumped = list(exps)
        bumped[i + 1] += 1
        _poly_add(g, tuple(bumped), -c)
    out: dict = {}
    for exps, c in g.items():
        a, b = exps[i], exps[i + 1]
        if a == b:
            continue
        lo, hi, sign = (b, a, 1) if a > b else (a, b, -1)
        # (x^a y^b - x^b y^a) / (x - y) = sign * (xy)^lo * sum_k x^(hi-lo-1-k) y^k
        for k in range(hi - lo):
            new = list(exps)
            new[i], new[i + 1] = lo + hi - lo - 1 - k, lo + k
            _poly_add(out, tuple(new), sign * c)
    return out


class Grothendieck:
    """G_w over x_1..x_n: x^delta for the longest element, and
    G_w = pi_i G_{w s_i} whenever w(i) < w(i+1)."""

    def __init__(self):
        self._cache: dict = {}

    def __call__(self, w) -> dict:
        w = tuple(w)
        if w not in self._cache:
            n = len(w)
            if w == tuple(range(n, 0, -1)):
                self._cache[w] = {tuple(range(n - 1, -1, -1)): Fraction(1)}
            else:
                i = next(i for i in range(n - 1) if w[i] < w[i + 1])
                swapped = list(w)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                self._cache[w] = _isobaric(self(swapped), i)
        return self._cache[w]


def eval_dict_poly(poly: dict, values) -> Fraction:
    total = Fraction(0)
    for exps, c in poly.items():
        term = Fraction(c)
        for v, e in zip(values, exps):
            if e:
                term *= v**e
        total += term
    return total


# -- the f-monomial basis of the staircase span ------------------------------


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _poly_add(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def f_monomial(n: int, exps) -> dict:
    """prod_j e_{i_j}(1 - x_1, ..., 1 - x_j) over x_1..x_n."""
    one = {(0,) * n: Fraction(1)}
    result = one
    for j, k in enumerate(exps, start=1):
        if not k:
            continue
        # e_k of y_1..y_j with y_t = 1 - x_t, built up one variable at a time
        table = [one]
        for t in range(j):
            y = {(0,) * n: Fraction(1), tuple(int(s == t) for s in range(n)): Fraction(-1)}
            table = [
                _sum(table[r] if r < len(table) else {}, _poly_mul(y, table[r - 1]) if r else {})
                for r in range(min(k, t + 1) + 1)
            ]
        result = _poly_mul(result, table[k])
    return result


def _sum(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        _poly_add(out, e, c)
    return out
