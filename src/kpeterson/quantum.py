"""Grothendieck polynomials, the quantization map, and the lambda-map.

Grothendieck polynomials are built by isobaric divided differences from the
staircase monomial; the quantization map rewrites a polynomial over the
f-monomial basis (products of elementary symmetric polynomials in 1-x_1,
..., 1-x_j) and replaces each basis element by its Q-deformation F^(j)_i.
Both come from the one table of partial invariants in ``toda``: the basis
factors are that table at z = y = 1 - x and Q = 0, ``fq_poly`` reads it at
z = 1 - x, and ``fq_poly_z`` (re-exported here) reads it over z/Q.
The Peterson images are the paper's D-ratios phi(F^(m)_i) = D(theta)/tau_m:
phi(G^Q_w) sums the f-basis coordinates of G_w over the numerators D(theta),
over the one denominator tau_1 ... tau_{n-1}, and is reduced once.  Both
sums run through ``polynomials.grouped_product``.

The lambda-map factors w (normalized to w(1)=1 by the long cycle) into
cyclic permutations c_1^{m_1} ... c_{n-2}^{m_{n-2}}, applied right to left;
the k-conjugate goes through the (k+1)-core bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import product
from math import comb, prod

from .matrices import RingMatrix
from .partitions import Partition, Permutation, conjugate
from .peterson import LocFrac, d_plain, phi_context
from .polynomials import Poly, grouped_product, xq_vars
from .scalars import normalize
from .symfunc import SymFunc
from .toda import _f_table, _table_entry, fq_poly_z

__all__ = [
    "groth_poly",
    "pi_op",
    "fq_poly",
    "fq_poly_z",
    "quantize",
    "quantum_groth",
    "s_q_poly",
    "grassmannian_perm",
    "KBoundedPartition",
    "lambda_map",
    "k_conjugate",
    "g_tilde",
    "phi_groth_image",
    "NotInSpanError",
    "NonPolynomialImageError",
]


class NotInSpanError(ValueError):
    """The polynomial does not lie in the f-monomial span L_n."""


class NonPolynomialImageError(ValueError):
    """phi(G^Q_w) times the descent tau-product failed to be polynomial."""


# -- Grothendieck polynomials ------------------------------------------------------


def pi_op(f: Poly, i: int) -> Poly:
    """Isobaric divided difference pi_i f = ((1-x_{i+1})f - (1-x_i)s_i f)
    / (x_i - x_{i+1})."""
    xi = Poly.variable(f.vars, f"x{i}")
    xi1 = Poly.variable(f.vars, f"x{i + 1}")
    swapped = f.swap_vars(f"x{i}", f"x{i + 1}")
    numerator = (1 - xi1) * f - (1 - xi) * swapped
    quotient = numerator.exact_div(xi - xi1)
    assert quotient is not None, "isobaric divided difference must divide"
    return quotient


@lru_cache(maxsize=None)
def groth_poly(w) -> Poly:
    """The Grothendieck polynomial of w, over x1..xn.

    Computed from the staircase monomial for the longest element by applying
    pi down any reduced path (the result is word-independent); the canonical
    path takes the smallest ascent at each step.
    """
    n = w.n
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    if w == w.longest(n):
        exps = tuple(n - i for i in range(1, n + 1))
        return Poly.monomial(variables, exps)
    for i in range(1, n):
        if w(i) < w(i + 1):
            return pi_op(groth_poly(w.times_s(i)), i)
    raise AssertionError("unreachable: only the longest element has no ascent")


# -- quantization -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _xq_table(n: int):
    xq = [Poly.variable(xq_vars(n), v) for v in xq_vars(n)]
    return _f_table([1 - xj for xj in xq[:n]], xq[n:])


def fq_poly(n: int, m: int, i: int) -> Poly:
    """F^(m)_i over x1..xn, Q1..Q_{n-1}: the F-table at z_j = 1 - x_j."""
    return _table_entry(_xq_table(n), m, i)


class QuantizeContext:
    """The f-monomial basis of the staircase span L_n, by the f-coordinates
    of each staircase monomial.

    In y = 1 - x the basis monomials prod_j e_{i_j}(y_1, ..., y_j) are the
    ``_f_table`` at z = y, Q = 0, integral on the staircase y-monomials.  In
    ``_peel`` order their coordinate matrix is unit lower triangular, so the
    coordinates of each x^a = prod_j (1 - y_j)^{a_j} follow by forward
    substitution in ``int``, with no division.  ``coords[r]`` holds the
    non-zero (basis exponents, coordinate) pairs of staircase monomial r in
    basis order (3,791 of 14,400 at n = 5), so an expansion walks only the
    terms of its input; ``inverse`` is the same coordinates as a dense
    matrix, built on first use.
    """

    def __init__(self, n: int):
        self.n = n
        self.xvars = tuple(f"x{i}" for i in range(1, n + 1))
        self.basis = list(product(*[range(j + 1) for j in range(1, n)]))
        self.staircase = [e + (0,) for e in product(*[range(n - j + 1) for j in range(1, n)])]
        self.stair_index = {e: i for i, e in enumerate(self.staircase)}
        # the basis in y, one factor at a time over a dict keyed by the
        # exponent prefix, so each prefix product is formed once
        yvars = tuple(f"y{i}" for i in range(1, n + 1))
        products = {(): Poly.const(yvars, 1)}
        for factors in _f_table([Poly.variable(yvars, v) for v in yvars], [0] * (n - 1))[1:n]:
            products = {
                prefix + (i,): part * factor
                for prefix, part in products.items()
                for i, factor in enumerate(factors)
            }
        columns = [
            [(self.stair_index[e], a) for e, a in products[exps].terms.items()]
            for exps in self.basis
        ]
        pivots = _peel(columns)
        self.coords = []
        for a in self.staircase:
            rest = [0] * len(self.staircase)
            for b in product(*[range(k + 1) for k in a]):
                rest[self.stair_index[b]] = (-1) ** sum(b) * prod(map(comb, a, b))
            found = []
            for r, c in pivots:
                v = rest[r]
                if v:
                    found.append((c, v))
                    for s, entry in columns[c]:
                        rest[s] -= v * entry
            self.coords.append([(self.basis[c], v) for c, v in sorted(found)])

    @cached_property
    def inverse(self) -> RingMatrix:
        """Row c, column r: the c-th coordinate of staircase monomial r."""
        columns = [dict(column) for column in self.coords]
        return RingMatrix([[col.get(exps, 0) for col in columns] for exps in self.basis])

    def expand(self, p: Poly) -> dict:
        """The non-zero coefficients of p over the f-monomial basis, keyed by
        the basis exponents (i_1, ..., i_{n-1})."""
        for v in p.vars:
            if p.degree_in(v) > 0 and not v.startswith("x"):
                raise NotInSpanError(f"variable {v} is not allowed in L_n")
        coords: dict = {}
        for e, coeff in p.with_vars(self.xvars).terms.items():
            if e not in self.stair_index:
                raise NotInSpanError(f"monomial with exponents {e} is outside the staircase span")
            for exps, a in self.coords[self.stair_index[e]]:
                coords[exps] = coords.get(exps, 0) + a * coeff
        return {exps: normalize(c) for exps, c in coords.items() if c}


@lru_cache(maxsize=None)
def quantize_context(n: int) -> QuantizeContext:
    if n < 1:
        raise ValueError(f"quantization needs n >= 1, got n = {n}")
    return QuantizeContext(n)


def _peel(columns):
    """The pivots (row, column) of a square integer matrix, given by its
    sparse columns of (row, entry) pairs, in an order that makes it unit
    lower triangular: each pivot row has one non-zero entry, 1, in the
    columns not yet placed.  Rows are taken first in, first out as they
    reach one such entry; raises ArithmeticError when the peel stalls or
    meets a pivot other than 1."""
    rows = [{} for _ in columns]
    for c, column in enumerate(columns):
        for r, a in column:
            rows[r][c] = a
    pivots = []
    queue = [r for r, row in enumerate(rows) if len(row) == 1]
    for r in queue:  # grows while it is read
        if list(rows[r].values()) != [1]:
            raise ArithmeticError(f"the peel meets {rows[r]} in row {r}")
        c = next(iter(rows[r]))
        pivots.append((r, c))
        for s, _ in columns[c]:
            del rows[s][c]
            if len(rows[s]) == 1:
                queue.append(s)
    if len(pivots) < len(columns):
        raise ArithmeticError(f"the peel stalls after {len(pivots)} of {len(columns)} pivots")
    return pivots


def quantize(p: Poly, n: int) -> Poly:
    """The quantization map: expand p over the f-monomial basis and replace
    each basis monomial prod_j e_{i_j}(1 - x_1, ..., 1 - x_j) by the
    F-monomial prod_j F^(j)_{i_j}, summed by ``grouped_product``.

    Raises NotInSpanError when p is not in the staircase span L_n, and
    ValueError when n < 1.
    """
    return grouped_product(
        quantize_context(n).expand(p),
        [partial(fq_poly, n, j) for j in range(1, n)],
        Poly.zero(xq_vars(n)),
    )


@lru_cache(maxsize=None)
def quantum_groth(w) -> Poly:
    """The quantum Grothendieck polynomial: quantized G_w, and 1 for the
    empty permutation.  Specializing every Q_i to 0 recovers G_w."""
    return quantize(groth_poly(w), w.n) if w.n else groth_poly(w)


def s_q_poly(lam: Partition, d: int, n: int) -> Poly:
    """The quantized Schur determinant det(F^(d+j-1)_{lambda'_i - i + j})."""
    return _quantized_schur_det(lam, d, n, partial(fq_poly, n), Poly.const(xq_vars(n), 1))


def _quantized_schur_det(lam: Partition, d: int, n: int, entry, one):
    """det(entry(d+j-1, lambda'_i - i + j)), where entry(m, k) is (the image
    of) F^(m)_k, entries with k < 0 are zero and the empty partition gives
    `one`."""
    if not lam.fits_in(d, n - d):
        raise ValueError("lambda must fit in the d x (n-d) rectangle")
    lam_c = conjugate(lam)
    s = len(lam_c)
    if s == 0:
        return one
    zero = one * 0
    rows = []
    for i in range(1, s + 1):
        row = []
        for j in range(1, s + 1):
            k = lam_c.part(i) - i + j
            row.append(entry(d + j - 1, k) if k >= 0 else zero)
        rows.append(row)
    return RingMatrix(rows).det()


# -- Grassmannian permutations and the lambda-map -------------------------------------


def grassmannian_perm(lam: Partition, d: int, n: int):
    """w_{lambda,d}: w(a) = lambda_{d+1-a} + a on 1..d, the complementary
    values in increasing order afterwards; descent set within {d}."""
    if not lam.fits_in(d, n - d):
        raise ValueError("lambda must fit in the d x (n-d) rectangle")
    head = [lam.part(d + 1 - a) + a for a in range(1, d + 1)]
    tail = [v for v in range(1, n + 1) if v not in set(head)]
    return Permutation(head + tail)


@dataclass(frozen=True)
class KBoundedPartition:
    """A partition with parts at most k."""

    partition: Partition
    k: int

    def __post_init__(self):
        if self.partition.parts and self.partition.parts[0] > self.k:
            raise ValueError("parts must be at most k")


def lambda_map(w) -> KBoundedPartition:
    """Factor the w(1)=1 coset representative as c_1^{m_1}...c_{n-2}^{m_{n-2}}
    (composition right to left) and read off the partition
    (1^{m_1} 2^{m_2} ...)."""
    n = w.n
    if n < 1:
        raise ValueError(f"the lambda-map needs a permutation of length >= 1, got {w.to_text()!r}")
    k = n - 1
    c0 = Permutation.cycle(n, 0)
    t = (1 - w(1)) % n
    cur = (c0 ** t) * w
    assert cur(1) == 1
    parts = []
    for i in range(1, n - 1):
        m = cur(i + 1) - (i + 1)
        if not 0 <= m <= k - i:
            raise ValueError(f"no cyclic factorization at step {i}")
        cur = (Permutation.cycle(n, i) ** (-m)) * cur
        parts.extend([i] * m)
    if not cur.is_identity():
        raise ValueError("cyclic factorization did not terminate")
    parts.sort(reverse=True)
    return KBoundedPartition(Partition(parts), k)


# -- k-conjugation through (k+1)-cores --------------------------------------------------


def bounded_to_core(mu: Partition, k: int) -> Partition:
    """The (k+1)-core of a k-bounded partition: rows are placed bottom-up,
    each shifted right just enough that its rightmost mu_i cells have hooks
    at most k and the cells left of them have hooks at least k+2."""
    if mu.parts and mu.parts[0] > k:
        raise ValueError(f"partition {mu.to_text()!r} is not {k}-bounded")
    rows: list = []  # lengths, bottom row first
    heights: list = []  # heights[j - 1]: the placed rows that reach column j

    def leg(j):
        return heights[j - 1] if j <= len(heights) else 0

    for part in reversed(mu.parts):
        shift = max(0, (rows[-1] if rows else 0) - part)
        while True:
            length = part + shift
            if (length - (shift + 1)) + leg(shift + 1) + 1 <= k and (
                shift == 0 or (length - shift) + leg(shift) + 1 >= k + 2
            ):
                break
            shift += 1
        rows.append(length)
        # rows grow bottom-up, so the new row reaches every occupied column
        heights = [h + 1 for h in heights] + [1] * (length - len(heights))
    return Partition(reversed(rows))


def core_to_bounded(core: Partition, k: int) -> Partition:
    """Inverse direction: count the cells of hook length at most k per row.
    Cell (i, j) has hook (core_i - j) + (core'_j - i) + 1, read off the
    column heights core'."""
    heights = conjugate(core)
    return Partition(
        sum(1 for j in range(1, row + 1) if (row - j) + (heights.part(j) - i) + 1 <= k)
        for i, row in enumerate(core.parts, 1)
    )


def k_conjugate(mu: Partition, k: int) -> Partition:
    """The k-conjugate: transpose the (k+1)-core and come back.  An
    involution; the ordinary conjugate on partitions inside a rectangle R_d.
    """
    core = bounded_to_core(mu, k)
    assert core_to_bounded(core, k) == mu, "core bijection failed"
    return core_to_bounded(conjugate(core), k)


# -- images under the Peterson map -------------------------------------------------------


@lru_cache(maxsize=None)
def _f_numerator(n: int, m: int, i: int) -> Poly:
    """D(theta), theta_a = m - a - [a > m - i]: phi(F^(m)_i) times tau_m,
    for 0 <= i <= m (D(m-1, ..., 0) = tau_m)."""
    theta = tuple(m - a - (a > m - i) for a in range(1, m + 1))
    return d_plain(theta, n).to_poly(n)


@lru_cache(maxsize=None)
def phi_f_image(n: int, m: int, i: int) -> LocFrac:
    """phi(F^(m)_i), reduced: the D-ratio D(theta)/tau_m of lambda = (1^i),
    theta_a = m - (lambda_{m+1-a} + a), tau_n = 1; zero for i > m.
    ``reduce`` makes one trial division of D(theta) by tau_m.  The suite
    f-images compares the unreduced substitution image with this value."""
    if not (1 <= m <= n and i >= 0):
        raise ValueError("need 1 <= m <= n and i >= 0")
    ctx = phi_context(n)
    if i > m:
        return ctx.zero
    den = tuple(int(k == m - 1) for k in range(n - 1)) + (0,) * (n - 1)
    return ctx.reduce(LocFrac(ctx, _f_numerator(n, m, i), den))


@lru_cache(maxsize=None)
def phi_groth_image(w) -> LocFrac:
    """phi(G^Q_w), reduced: the f-monomial coordinates of G_w summed by
    ``grouped_product`` over the numerators of phi(F^(j)_i) = D_j[i]/tau_j,
    over the one denominator tau_1 ... tau_{n-1}."""
    n = w.n
    ctx = phi_context(n)
    num = grouped_product(
        quantize_context(n).expand(groth_poly(w)),
        [partial(_f_numerator, n, j) for j in range(1, n)],
        ctx.zero.num,
    )
    return ctx.reduce(LocFrac(ctx, num, (1,) * (n - 1) + (0,) * (n - 1)))


@lru_cache(maxsize=None)
def g_tilde(w) -> SymFunc:
    """phi(G^Q_w) * prod_{i in Des(w)} tau_i, read as a symmetric function:
    PhiContext.times_taus on the reduced image.  The image is in lowest
    terms and the tau/sigma factors are irreducible and pairwise
    non-associate (n <= 8), so nothing is left to divide.

    Raises NonPolynomialImageError if the product is not a polynomial in
    Lambda_(n), i.e. a factor of the denominator is left over.
    """
    if w.n < 2:
        raise ValueError(f"g_tilde needs a permutation of length >= 2, got {w.to_text()!r}")
    product = phi_context(w.n).times_taus(phi_groth_image(w), w.descents)
    if not product.is_polynomial():
        raise NonPolynomialImageError(
            f"phi(G^Q_{w.to_text()}) * tau(Des) has residual denominator"
        )
    return product.symfunc()


def phi_s_q_image(lam: Partition, d: int, n: int) -> LocFrac:
    """phi(S^Q_{lam,d}) computed as the determinant of the entrywise images
    of the quantized Schur matrix (phi is a ring homomorphism)."""
    return _quantized_schur_det(lam, d, n, partial(phi_f_image, n), phi_context(n).one)
