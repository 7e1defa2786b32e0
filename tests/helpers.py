"""Independent oracles used by the tests.

These deliberately take different routes from the code under test: the Hall
pairing and basis expansions go through explicit monomial expansions in
finitely many variables, and Littlewood-Richardson numbers come from a
dominance peel of Schur products.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from kpeterson.grothendieck import stable_groth_vars
from kpeterson.matrices import RingMatrix
from kpeterson.partitions import Partition
from kpeterson.peterson import _geom_series_coeffs
from kpeterson.polynomials import Poly, zq_vars
from kpeterson.scalars import Rational, normalize
from kpeterson.symfunc import SymFunc, _sorted_terms, _trim, schur, to_p_dict


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
    """det(h_{lambda_i + j - i}) by RingMatrix's cofactor expansion."""
    parts = tuple(lam)
    rows = [[SymFunc.h(parts[i] + j - i) for j in range(len(parts))] for i in range(len(parts))]
    return RingMatrix(rows).det() if parts else SymFunc.one()


def reference_d_det(theta, a, n) -> SymFunc:
    """D[theta; a] as the d x d determinant of SymFunc entries
    sum_i h_i * series_j[m - a_j - i], by RingMatrix's cofactor expansion."""
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
