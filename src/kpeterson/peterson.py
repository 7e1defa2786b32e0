"""The symmetric-function side of the Peterson map.

tau_i = g_{R_i} and sigma_i = sum of g_mu over mu inside R_i are the
denominators of the substitution homomorphism (tau_i by the determinant of
``dual_groth``, sigma_i as the D-determinant D[i..1; i-1..0])

    z_i |-> tau_i sigma_{i-1} / (sigma_i tau_{i-1}),
    Q_i |-> tau_{i-1} tau_{i+1} / tau_i^2,

with x_i = 1 - z_i.  PhiContext keeps this substitution as one table of
tau/sigma factor exponents; the z_i and Q_i images and the image of every
z/Q polynomial are read off it, the latter summed by
``polynomials.grouped_product`` with one power slot per factor, in the fixed
slot order tau_{n-1}, sigma_{n-1}, tau_{n-2}, ..., tau_1, sigma_1 (see
PhiContext._apply_monomial for why).  A polynomial with x_i is rewritten into
z/Q first, so there is one evaluation path.  Every image is a LocFrac: a
numerator polynomial in h_1..h_{n-1} over a denominator kept in factored
form as a monomial in {tau_i, sigma_i}.  LocFrac arithmetic never divides;
PhiContext.reduce, the only place that tries exact division, brings each
finished image to lowest terms once.  The D-determinant family (Cauchy-Binet
over the ``wedges`` of the truncated-series columns and cached Jacobi-Trudi
minors, in int), its recursions, the kappa_d involution (one substitution of
the images kappa_d(h_i), each a closed-form int combination of h_0..h_i),
and the skew-operator identities complete the toolkit; none of them goes
through the p-basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .grothendieck import dual_groth
from .matrices import RingMatrix, wedges
from .partitions import Partition
from .polynomials import Poly, grouped_product, power_table, zq_vars
from .scalars import Rational
from .symfunc import (
    SymFunc, _geom_series_coeffs, _jacobi_trudi_minor, _substitute, _times_h, p_perp, perp, schur
)

__all__ = [
    "TauSigmaTable",
    "DSpec",
    "tau_sigma",
    "d_det",
    "kappa",
    "PhiContext",
    "phi_context",
    "phi_apply",
    "d_recursion_check",
    "d_base_check",
    "sigma_identity_check",
    "kernel_det_identity",
    "perp_d_check",
    "skew_rectangle_check",
]


@dataclass(frozen=True)
class TauSigmaTable:
    n: int
    tau: tuple  # tau_0 .. tau_n
    sigma: tuple  # sigma_0 .. sigma_n


@lru_cache(maxsize=None)
def tau_sigma(n: int) -> TauSigmaTable:
    """tau_i = g_{R_i} for the i x (n-i) rectangle R_i, and sigma_i =
    sum_{mu in R_i} g_mu, computed as the one D-determinant D[i..1; i-1..0]
    at level n (the tests check the sum for 2 <= n <= 8); boundary values 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    tau = [SymFunc.one()]
    sigma = [SymFunc.one()]
    for i in range(1, n):
        tau.append(dual_groth(Partition.rectangle(i, n - i)))
        sigma.append(d_det(DSpec(tuple(range(i, 0, -1)), tuple(range(i)[::-1]), n)))
    tau.append(SymFunc.one())
    sigma.append(SymFunc.one())
    return TauSigmaTable(n, tuple(tau), tuple(sigma))


# -- the D-determinant family ---------------------------------------------------


@dataclass(frozen=True)
class DSpec:
    """Column data for D[theta_1..theta_d; a_1..a_d] at level n."""

    theta: tuple
    a: tuple
    n: int

    def __post_init__(self):
        if len(self.theta) != len(self.a):
            raise ValueError("theta and a must have equal length")
        if len(self.theta) > self.n:
            raise ValueError("d must be at most n")
        if any(ai < 0 for ai in self.a):
            raise ValueError("a_i must be non-negative")

    @property
    def d(self) -> int:
        return len(self.theta)

    def replace_theta(self, j: int, value: int) -> "DSpec":
        theta = list(self.theta)
        theta[j] = value
        return DSpec(tuple(theta), self.a, self.n)

    def replace_a(self, j: int, value: int) -> "DSpec":
        a = list(self.a)
        a[j] = value
        return DSpec(self.theta, tuple(a), self.n)

    def swap_columns(self, i: int, j: int) -> "DSpec":
        theta, a = list(self.theta), list(self.a)
        theta[i], theta[j] = theta[j], theta[i]
        a[i], a[j] = a[j], a[i]
        return DSpec(tuple(theta), tuple(a), self.n)


@lru_cache(maxsize=None)
def _d_det_cached(theta: tuple, a: tuple, n: int) -> SymFunc:
    if any(a_j >= n for a_j in a):  # an empty column of K
        return SymFunc.zero()
    series = [_geom_series_coeffs(theta_j, n) for theta_j in theta]
    columns = [[(k, s[k - a_j]) for k in range(a_j, n) if s[k - a_j]] for s, a_j in zip(series, a)]
    # reversed, the columns give the sign (-1)^{d(d-1)/2}; {0: 1} is d = 0
    *_, minors = {0: 1}, *wedges(columns[::-1])
    acc: dict = {}
    for rows, minor in minors.items():
        for e, v in _jacobi_trudi_minor(n - len(theta), rows).items():
            acc[e] = acc.get(e, 0) + minor * v
    return SymFunc({e: v for e, v in acc.items() if v})


def d_det(spec: DSpec) -> SymFunc:
    """D[theta; a]: the bracket of the column functions
    (1-zeta)^{a_j} zeta^{-theta_j}, evaluated through the truncated-series
    expansion in u = 1 - zeta (zeta^{-m} = sum C(m+l-1, l) u^l).

    The d x d matrix of that expansion is the product H K of the d x n
    Jacobi-Trudi block H[r][k] = h_{n-d+r-k} and the n x d integer matrix
    K[k][j] = series_j[k - a_j] of the truncated series, so by Cauchy-Binet
    D = (-1)^{d(d-1)/2} sum_{|S| = d} det K[S, :] det H[:, S].  The integer
    minors det K[S, :] are the last level of ``matrices.wedges`` over K's
    columns (a column with a_j >= n is empty, and D is then zero); each
    Jacobi-Trudi minor det H[:, S] depends only on (n - d, S) and is
    computed once and cached.  All arithmetic is in int.

    Always lands in Lambda_(n): only h_0..h_{n-1} can appear.
    """
    return _d_det_cached(spec.theta, spec.a, spec.n)


def d_plain(theta_vec, n: int) -> SymFunc:
    """D(theta_1, ..., theta_d) with all a_i = 0."""
    theta_vec = tuple(theta_vec)
    return d_det(DSpec(theta_vec, (0,) * len(theta_vec), n))


# -- the kappa involution ----------------------------------------------------------


@lru_cache(maxsize=None)
def _kappa_h(d: int, i: int) -> SymFunc:
    """kappa_d(h_i) = sum_{k=0}^{i} (-1)^k C(d+i-1, i-k) h_k, for i >= 1.

    kappa_d is f |-> f(1 - x_1, ..., 1 - x_d) on d variables, and
    prod_j 1/(1 - t(1 - x_j)) = (1 - t)^{-d} H(-t/(1 - t)) with
    H(t) = sum_k h_k t^k; the coefficient of t^i is this sum.
    """
    coeffs = ((k, (-1) ** k * comb(d + i - 1, i - k)) for k in range(i + 1))
    return SymFunc({_times_h((), k): c for k, c in coeffs if c})


def kappa(d: int, f: SymFunc) -> SymFunc:
    """The ring involution kappa_d with kappa_d(p_i) = d + sum_{j=1}^{i}
    (-1)^j C(i, j) p_j.  It sends each h_i to ``_kappa_h(d, i)``, one
    substitution in the h-basis."""
    return SymFunc(_substitute(f.terms, lambda i: _kappa_h(d, i).terms))


# -- localized fractions and the Phi_n homomorphism ----------------------------------


class LocFrac:
    """num / prod(factors^den): the one value type of a Phi_n image, a Poly
    numerator in h_1..h_{n-1} over a denominator kept as exponents of the
    tau/sigma factors (in the order of PhiContext.factor_names).

    +, -, * and ** never divide, so a result need not be in lowest terms;
    PhiContext.reduce brings a value there, and is_polynomial and symfunc
    read the representation as it stands.  ctx.factor_product(den) expands
    the denominator.  + and == multiply each numerator only by the factors
    of the other denominator that its own lacks, and not at all when there
    are none; against a number they scale the expanded denominator by it,
    with no multiply.  The keyword ``reduce`` only accepts False (kept for
    callers that still pass it).
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num: Poly, den: tuple, *, reduce: bool = False):
        if reduce:
            raise TypeError("LocFrac does not reduce; call PhiContext.reduce")
        if num.is_zero():
            den = (0,) * len(den)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("LocFrac is immutable")

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):
            return LocFrac(self.ctx, self.num * other, self.den)
        return LocFrac(
            self.ctx,
            self.num * other.num,
            tuple(a + b for a, b in zip(self.den, other.den)),
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a LocFrac")
        return self.ctx.one * power_table(self)(k)

    def __neg__(self):
        return LocFrac(self.ctx, -self.num, self.den)

    def __add__(self, other):
        ctx = self.ctx
        if isinstance(other, (int, Rational)):
            return LocFrac(ctx, self.num + ctx.times_factors(other, self.den), self.den)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        left, right = self._cross(other)
        return LocFrac(ctx, left + right, tuple(map(max, self.den, other.den)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        ctx = self.ctx
        if isinstance(other, (int, Rational)):
            return self.num == ctx.times_factors(other, self.den)
        if self.den == other.den:
            return self.num == other.num
        left, right = self._cross(other)
        return left == right

    def _cross(self, other):
        """The two numerators over the least common denominator: each times
        the factors of the other denominator that its own lacks, with
        exponents max(0, b - a)."""
        times = self.ctx.times_factors
        return (
            times(self.num, [max(0, b - a) for a, b in zip(self.den, other.den)]),
            times(other.num, [max(0, a - b) for a, b in zip(self.den, other.den)]),
        )

    def __bool__(self):
        return not self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not any(self.den)

    def symfunc(self) -> SymFunc:
        if not self.is_polynomial():
            raise ValueError("denominator is non-trivial")
        return SymFunc.from_poly(self.num)

    def __repr__(self):
        den = "*".join(
            f"{name}^{e}" if e > 1 else name
            for name, e in zip(self.ctx.factor_names, self.den)
            if e
        )
        return f"LocFrac({self.num.to_str()} / {den or '1'})"


class PhiContext:
    """Everything needed to apply Phi_n: the tau/sigma factor basis as
    h-polynomials and the generator table (_build_contrib).  The generator
    images read off it are in lowest terms as read: no tau/sigma factor of a
    denominator divides the numerator (checked for n <= 8)."""

    def __init__(self, n: int):
        self.n = n
        table = tau_sigma(n)
        names, factors = [], []
        for i in range(1, n):
            names.append(f"tau{i}")
            factors.append(table.tau[i].to_poly(n))
        for i in range(1, n):
            names.append(f"sigma{i}")
            factors.append(table.sigma[i].to_poly(n))
        self.factor_names = tuple(names)
        self.factors = tuple(factors)
        self.hvars = tuple(f"h{i}" for i in range(1, n))
        self._factor_boxes = [[f.degree_in(h) for h in self.hvars] for f in factors]
        self._slot_order = tuple(
            j for i in range(n - 1, 0, -1) for j in (i - 1, n - 2 + i)
        )
        self._slot_powers = [power_table(factors[j]) for j in self._slot_order]
        self._product_cache: dict = {}
        k = len(self.factors)
        self.one = LocFrac(self, Poly.const(self.hvars, 1), (0,) * k)
        self.zero = LocFrac(self, Poly.zero(self.hvars), (0,) * k)
        self._zq_contrib = self._build_contrib()
        self._x_to_z = {
            f"x{i}": 1 - Poly.variable(zq_vars(n), f"z{i}") for i in range(1, n + 1)
        }

    def from_symfunc(self, f: SymFunc) -> LocFrac:
        return LocFrac(self, f.to_poly(self.n), self.one.den)

    def _build_contrib(self) -> dict:
        """The generator table of Phi_n: z_i -> tau_i sigma_{i-1} /
        (sigma_i tau_{i-1}) and Q_i -> tau_{i-1} tau_{i+1} / tau_i^2, each as
        (factor index, exponent) pairs.  tau_i sits at index i-1 and sigma_i
        at n-2+i; the units tau_0 = sigma_0 = tau_n = sigma_n = 1 are
        dropped."""
        n = self.n

        def tau(i, e):
            return [(i - 1, e)] if 1 <= i <= n - 1 else []

        def sigma(i, e):
            return [(n - 2 + i, e)] if 1 <= i <= n - 1 else []

        contrib = {}
        for i in range(1, n + 1):
            contrib[f"z{i}"] = tuple(
                tau(i, 1) + sigma(i - 1, 1) + sigma(i, -1) + tau(i - 1, -1)
            )
        for i in range(1, n):
            contrib[f"Q{i}"] = tuple(tau(i - 1, 1) + tau(i + 1, 1) + tau(i, -2))
        return contrib

    def factor_product(self, exps: tuple) -> Poly:
        exps = tuple(exps)
        if exps not in self._product_cache:
            self._product_cache[exps] = grouped_product(
                {tuple([exps[j] for j in self._slot_order]): 1},
                self._slot_powers,
                self.zero.num,
            )
        return self._product_cache[exps]

    def times_factors(self, num, exps):
        """num * factor_product(exps), with no multiply when exps is zero; a
        number num scales the product (``terms_scale``) instead of
        multiplying it out."""
        return num * self.factor_product(exps) if any(exps) else num

    def exponent_range(self, p: Poly):
        """(lo, hi): the least and the largest exponent of each tau/sigma
        factor over the images of the monomials of a z/x/Q polynomial p, read
        off the generator table.  x_i = 1 - z_i counts with exponents 0 and
        those of z_i.  A product's range lies within the sum of its factors'
        ranges, so a parser can bound a product before it expands it."""
        k = len(self.factors)
        lows, highs = [], []
        for exps in p.terms:
            low, high = [0] * k, [0] * k
            for v, e in zip(p.vars, exps):
                if not e:
                    continue
                if v[0] == "x":
                    for idx, mult in self._zq_contrib["z" + v[1:]]:
                        low[idx] += e * min(mult, 0)
                        high[idx] += e * max(mult, 0)
                else:
                    for idx, mult in self._zq_contrib[v]:
                        low[idx] += e * mult
                        high[idx] += e * mult
            lows.append(low)
            highs.append(high)
        if not lows:
            return [0] * k, [0] * k
        return [min(col) for col in zip(*lows)], [max(col) for col in zip(*highs)]

    def box_cells(self, lo, hi) -> int:
        """The cells prod_j (D_j + 1) of the box that holds the numerator of
        an image with factor exponents in [lo, hi], plus those of the box of
        its denominator, where D_j is the predicted degree in h_j.
        _apply_monomial shifts every exponent vector by the common
        denominator max(0, -lo), so numerator exponents stay within
        hi - min(lo, 0)."""
        total = 0
        for exps in (
            [h - min(l, 0) for l, h in zip(lo, hi)],
            [max(-l, 0) for l in lo],
        ):
            cells = 1
            for j in range(len(self.hvars)):
                cells *= 1 + sum(e * box[j] for e, box in zip(exps, self._factor_boxes))
            total += cells
        return total

    def reduce(self, frac: LocFrac) -> LocFrac:
        """frac in lowest terms: each factor of the denominator is divided out
        of the numerator while it divides.  For n <= 8 the factors are
        irreducible and pairwise non-associate, so the result does not depend
        on how frac was computed."""
        num, den = frac.num, list(frac.den)
        for idx, factor in enumerate(self.factors):
            while den[idx] > 0:
                q = num.exact_div(factor)
                if q is None:
                    break
                num = q
                den[idx] -= 1
        return LocFrac(self, num, tuple(den))

    def apply_frac(self, p: Poly, reduce_result: bool = True) -> LocFrac:
        """Image of a polynomial in z_i / x_i / Q_i under Phi_n, in lowest
        terms unless reduce_result is false.  p is first rewritten into the
        z/Q ring with x_i = 1 - z_i (Poly.substitute), so every input is
        evaluated on the monomial path; variables that do not occur in p
        are ignored."""
        for v in p.vars:
            if v not in self._zq_contrib and v not in self._x_to_z and p.degree_in(v) > 0:
                raise ValueError(f"variable {v!r} not in the domain of Phi_{self.n}")
        total = self._apply_monomial(p.substitute(self._x_to_z, zq_vars(self.n)))
        return self.reduce(total) if reduce_result else total

    def _apply_monomial(self, p: Poly) -> LocFrac:
        """Fast path: every z^a Q^b monomial maps to a monomial in the
        tau/sigma factors, so the image is assembled over one common
        factored denominator with no division at all.

        The numerator is one ``grouped_product`` whose power slots run in
        _slot_order, tau_{n-1}, sigma_{n-1}, tau_{n-2}, sigma_{n-2}, ...,
        tau_1, sigma_1 (factor_product uses the same order); the stored
        factor order of den is unchanged.  The order decides how large the
        group sums grow that Horner's rule multiplies by each factor.  The
        unreduced Phi_5(F_1..F_5) take 0.60 s in the stored order, 0.42 s
        reversed, 0.35-0.37 s with sigma-first pairs and 0.36-0.37 s in
        this order, and Phi_6(F_1) takes 10.3 s in the stored order against
        5.9 s in this one (CPU time, one process each, Python 3.11, Intel
        Xeon).
        """
        k = len(self.factors)
        contrib = self._zq_contrib
        gmap: dict = {}
        for exps, coeff in p.terms.items():
            g = [0] * k
            for v, e in zip(p.vars, exps):
                if e:
                    for idx, mult in contrib[v]:
                        g[idx] += mult * e
            key = tuple(g)
            s = gmap.get(key, 0) + coeff
            if s:
                gmap[key] = s
            else:
                del gmap[key]
        if not gmap:
            return self.zero
        common = tuple(max(0, -min(col)) for col in zip(*gmap))
        order = self._slot_order
        shifted = {
            tuple([g[j] + common[j] for j in order]): coeff for g, coeff in gmap.items()
        }
        num = grouped_product(shifted, self._slot_powers, self.zero.num)
        return LocFrac(self, num, common)


@lru_cache(maxsize=None)
def phi_context(n: int) -> PhiContext:
    return PhiContext(n)


def phi_apply(p: Poly, n: int) -> LocFrac:
    """Apply the substitution homomorphism Phi_n to a polynomial in the
    z/x/Q variables; exact, in lowest terms over a tau/sigma monomial."""
    return phi_context(n).apply_frac(p)


# -- identity checks -----------------------------------------------------------------


def d_recursion_check(spec: DSpec) -> bool:
    """Column antisymmetry, the theta/a exchange recursion, and the a_i = n
    vanishing rule, all against direct evaluation."""
    value = d_det(spec)
    d, n = spec.d, spec.n
    for j in range(d - 1):
        if d_det(spec.swap_columns(j, j + 1)) != -value:
            return False
    for j in range(d):
        lowered = d_det(spec.replace_theta(j, spec.theta[j] - 1))
        raised = d_det(spec.replace_a(j, spec.a[j] + 1))
        if lowered + raised != value:
            return False
    for j in range(d):
        if not d_det(spec.replace_a(j, n)).is_zero():
            return False
    if any(ai >= n for ai in spec.a) and not value.is_zero():
        return False
    return True


def d_base_check(lam: Partition, d: int, n: int) -> bool:
    """D[0..0; n-lambda_d-1, ..., n-lambda_1-d] equals the Schur function."""
    if not lam.fits_in(d, n - d):
        raise ValueError("lambda must fit in the d x (n-d) rectangle")
    a = tuple(n - j - lam.part(d + 1 - j) for j in range(1, d + 1))
    return d_det(DSpec((0,) * d, a, n)) == schur(lam)


def kernel_value(theta: int, a: int, i: int) -> int:
    """Binomial path count K^theta_{a,i} = C(i-a+theta-1, theta-1) for
    theta >= 0, the coefficient of v^{i-a} in (1-v)^{-theta}; for theta = 0
    the empty path exists only when a = i."""
    return _geom_series_coeffs(theta, i - a + 1)[i - a] if i >= a else 0


def kernel_det_identity(n: int, d: int, i_vec: tuple) -> bool:
    """det(K^{d-l+1}_{d-l, i_m}) = sum over n > a_1 > ... > a_d >= 0 of
    det(K^{d-l}_{a_l, i_m}), for a fixed decreasing index vector."""

    def kernel_det(rows):
        """det(K^{theta_l}_{a_l, i_m}) for the rows (theta_l, a_l), in int."""
        return RingMatrix([[kernel_value(t, a, i) for i in i_vec] for t, a in rows]).det()

    lhs = kernel_det([(d - l + 1, d - l) for l in range(1, d + 1)])
    rhs = sum(
        kernel_det([(d - l, a) for l, a in enumerate(a_vec, start=1)])
        for a_vec in combinations(range(n - 1, -1, -1), d)
    )
    return lhs == rhs


def sigma_identity_check(n: int, d: int) -> bool:
    """The column-sum lattice-path identity: D[d..1; d-1..0] equals the sum
    of D[d-1..0; a] over strictly decreasing a in [0, n)."""
    if not 1 <= d <= n - 1:
        raise ValueError("need 1 <= d <= n-1")
    lhs = d_det(
        DSpec(tuple(range(d, 0, -1)), tuple(range(d - 1, -1, -1)), n)
    )
    rhs = SymFunc.zero()
    theta = tuple(range(d - 1, -1, -1))
    for a_vec in combinations(range(n - 1, -1, -1), d):
        rhs = rhs + d_det(DSpec(theta, a_vec, n))
    return lhs == rhs


def perp_d_check(i: int, d: int, spec: DSpec) -> bool:
    """p_i-perp shifts one a_j by i; kappa_d(p_i)-perp lowers one theta_j by
    i.  Both checked against direct evaluation."""
    if spec.d != d:
        raise ValueError("spec size differs from d")
    value = d_det(spec)
    lhs_p = p_perp(i, value)
    rhs_p = SymFunc.zero()
    for j in range(d):
        rhs_p = rhs_p + d_det(spec.replace_a(j, spec.a[j] + i))
    if lhs_p != rhs_p:
        return False
    # kappa_d(p_i) = d + sum_{j=1}^{i} (-1)^j C(i, j) p_j, and a constant's
    # perp is multiplication by it
    lhs_k = value * d
    for j in range(1, i + 1):
        lhs_k = lhs_k + p_perp(j, value) * ((-1) ** j * comb(i, j))
    rhs_k = SymFunc.zero()
    for j in range(d):
        rhs_k = rhs_k + d_det(spec.replace_theta(j, spec.theta[j] - i))
    return lhs_k == rhs_k


def skew_rectangle_check(lam: Partition, d: int, n: int) -> bool:
    """kappa_d(s_lambda)-perp applied to g_{R_d} equals
    D(d-i_1, ..., d-i_d) with i_a = lambda_{d+1-a} + a."""
    if not lam.fits_in(d, n - d):
        raise ValueError("lambda must fit in the d x (n-d) rectangle")
    lhs = perp(kappa(d, schur(lam)), tau_sigma(n).tau[d])
    theta = tuple(d - (lam.part(d + 1 - a) + a) for a in range(1, d + 1))
    return lhs == d_det(DSpec(theta, (0,) * d, n))
