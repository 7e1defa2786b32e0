"""Sparse multivariate polynomials over exact rationals.

This module holds the one sparse term-dict kernel of the package: add,
scale, multiply and exact division over ``{exponent tuple: Rational}`` maps
with non-zero coefficients.  ``Poly``, ``SymFunc`` and the power-sum dicts of
the symmetric-function layer all call it.  Multiplication takes the exponent
combiner as an argument: ``_add_exps`` for the fixed-width tuples of a Poly,
``_mono_mul`` for the trimmed tuples of the h- and p-bases.

A Poly has a fixed, ordered variable tuple and a term map from exponent
vectors to non-zero Rational coefficients.  This one type backs the z/Q and
x/Q polynomial rings, the zeta-polynomials of the Toda layer, and (through
the h1..h_{n-1} variable set) the symmetric-function workhorse arithmetic of
the Peterson map.  ``f_subset_sum`` builds the Toda invariants F^(m)_i in
either the z/Q or the x/Q ring.
"""

from __future__ import annotations

import heapq
from itertools import combinations

from .scalars import Rational, rat, rational_from_text, rational_to_text

__all__ = ["Poly"]


# -- the sparse term kernel ---------------------------------------------------


def _add_exps(e1, e2):
    """Product of two monomials with exponent tuples of one fixed width."""
    return tuple(a + b for a, b in zip(e1, e2))


def _mono_mul(e1, e2):
    """Product of two monomials with trailing-zero-trimmed exponent tuples."""
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    return tuple(a + b for a, b in zip(e1, e2)) + e1[len(e2):]


def terms_add(t1, t2):
    out = dict(t1)
    for e, c in t2.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def terms_scale(t, c):
    return {e: v * c for e, v in t.items()} if c else {}


def terms_mul(t1, t2, combine=_add_exps):
    """Product of two term maps; `combine` multiplies two exponent tuples."""
    # iterate over the smaller factor for speed
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    acc = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = combine(e1, e2)
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                del acc[e]
    return acc


def terms_exact_div(t, divisor):
    """Quotient of two fixed-width term maps, or None if inexact.

    Single-divisor reduction in graded-lex order (leading terms tracked
    through a lazy max-heap): succeeds iff divisor divides t exactly in the
    polynomial ring.
    """
    if not divisor:
        raise ZeroDivisionError("polynomial division by zero")
    dlt_exps, dlt_coeff = max(
        divisor.items(), key=lambda item: (sum(item[0]), item[0])
    )
    quotient = {}
    rem = dict(t)
    heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
    heapq.heapify(heap)
    while heap:
        exps = heapq.heappop(heap)[2]
        coeff = rem.get(exps)
        if not coeff:
            continue  # stale heap entry
        q_exps = tuple(a - b for a, b in zip(exps, dlt_exps))
        if any(e < 0 for e in q_exps):
            return None
        q_coeff = coeff / dlt_coeff
        quotient[q_exps] = q_coeff
        for e, c in divisor.items():
            target = _add_exps(e, q_exps)
            old = rem.get(target)
            s = (old or 0) - q_coeff * c
            if s:
                rem[target] = s
                if old is None and target != exps:
                    heapq.heappush(
                        heap, (-sum(target), tuple(-x for x in target), target)
                    )
            else:
                rem.pop(target, None)
    return quotient


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        object.__setattr__(self, "vars", tuple(variables))
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, value):
        value = rat(value)
        if not value:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: Rational(1)})

    @classmethod
    def monomial(cls, variables, exps, coeff=1):
        coeff = rat(coeff)
        if not coeff:
            return cls.zero(variables)
        return cls(variables, {tuple(exps): coeff})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), Rational(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        idx = self.vars.index(name)
        return max((e[idx] for e in self.terms), default=0)

    def sorted_terms(self):
        """Terms in descending graded-lex order; deterministic."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __eq__(self, other):
        if isinstance(other, (int, Rational)):
            return self.is_constant() and self.constant_term() == rat(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        merged = _merge_vars(self.vars, other.vars)
        return self.with_vars(merged).terms == other.with_vars(merged).terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly({self.to_str()})"

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Rational)):
            return Poly.const(self.vars, other)
        if isinstance(other, Poly):
            if other.vars == self.vars:
                return other
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.vars, terms_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.vars, terms_add(self.terms, (-other).terms))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):
            return Poly(self.vars, terms_scale(self.terms, rat(other)))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.vars, terms_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def exact_div(self, divisor: "Poly"):
        """Exact polynomial division; returns the quotient or None."""
        divisor = self._coerce(divisor)
        quotient = terms_exact_div(self.terms, divisor.terms)
        return None if quotient is None else Poly(self.vars, quotient)

    def __truediv__(self, other):
        if isinstance(other, (int, Rational)):
            return self * (Rational(1) / rat(other))
        q = self.exact_div(other)
        if q is None:
            raise ValueError("inexact polynomial division")
        return q

    # -- variable management, substitution ------------------------------

    def with_vars(self, variables):
        """Embed into a polynomial ring with a superset of the variables."""
        variables = tuple(variables)
        pos = []
        for v in self.vars:
            pos.append(variables.index(v))
        terms = {}
        for e, c in self.terms.items():
            new = [0] * len(variables)
            for p, exp in zip(pos, e):
                new[p] = exp
            terms[tuple(new)] = c
        return Poly(variables, terms)

    def swap_vars(self, name1: str, name2: str):
        i, j = self.vars.index(name1), self.vars.index(name2)
        terms = {}
        for e, c in self.terms.items():
            new = list(e)
            new[i], new[j] = new[j], new[i]
            terms[tuple(new)] = c
        return Poly(self.vars, terms)

    def specialize(self, values: dict):
        """Substitute Rational values for a subset of the variables."""
        idxs = {self.vars.index(name): rat(v) for name, v in values.items()}
        keep = [i for i in range(len(self.vars)) if i not in idxs]
        new_vars = tuple(self.vars[i] for i in keep)
        acc = {}
        for e, c in self.terms.items():
            factor = c
            for i, v in idxs.items():
                if e[i]:
                    factor = factor * v ** e[i]
            if not factor:
                continue
            key = tuple(e[i] for i in keep)
            s = acc.get(key, 0) + factor
            if s:
                acc[key] = s
            else:
                del acc[key]
        return Poly(new_vars, acc)

    def evaluate(self, point: dict):
        """Evaluate at Rational values for all variables."""
        total = Rational(0)
        vals = [rat(point[v]) for v in self.vars]
        for e, c in self.terms.items():
            term = c
            for v, exp in zip(vals, e):
                if exp:
                    term = term * v**exp
            total += term
        return total

    def coeff_list(self, name: str):
        """Coefficients [c0, c1, ...] of a univariate polynomial."""
        if [v for v in self.vars if self.degree_in(v) > 0 and v != name]:
            raise ValueError("not univariate in " + name)
        idx = self.vars.index(name)
        out = [Rational(0)] * (self.degree_in(name) + 1)
        for e, c in self.terms.items():
            out[e[idx]] = c
        return out

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [
                {"coeff": rational_to_text(c), "exps": list(e)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data):
        variables = tuple(data["vars"])
        terms = {
            tuple(t["exps"]): rational_from_text(t["coeff"]) for t in data["terms"]
        }
        return cls(variables, terms)

    def to_str(self):
        return format_terms(
            (
                "*".join(v if x == 1 else f"{v}^{x}" for v, x in zip(self.vars, e) if x),
                c,
            )
            for e, c in self.sorted_terms()
        )


def format_terms(pairs) -> str:
    """Join (monomial text, coefficient) pairs into `c*m + m - m - c`; an
    empty monomial text stands for 1 and no pairs give "0"."""
    chunks = []
    for body, c in pairs:
        if not body:
            chunk = rational_to_text(c)
        elif c == 1:
            chunk = body
        elif c == -1:
            chunk = "-" + body
        else:
            chunk = rational_to_text(c) + "*" + body
        chunks.append(chunk)
    if not chunks:
        return "0"
    out = chunks[0]
    for chunk in chunks[1:]:
        out += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
    return out


def _merge_vars(v1, v2):
    merged = list(v1)
    for v in v2:
        if v not in merged:
            merged.append(v)
    return tuple(merged)


def zq_vars(n: int):
    return tuple(f"z{i}" for i in range(1, n + 1)) + tuple(
        f"Q{i}" for i in range(1, n)
    )


def xq_vars(n: int):
    return tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"Q{i}" for i in range(1, n)
    )


def f_subset_sum(n: int, m: int, i: int, variables, z) -> Poly:
    """F^(m)_i over `variables`: the sum over i-subsets I of {1..m} of
    prod_{j in I} z(j) prod_{j in I, j+1 not in I} (1 - Q_j), with Q_n = 0,
    where z(j) is the polynomial that stands for z_j."""
    if not (1 <= m <= n and 0 <= i):
        raise ValueError("need 1 <= m <= n and i >= 0")
    total = Poly.zero(variables)
    for subset in combinations(range(1, m + 1), i):
        chosen = set(subset)
        term = Poly.const(variables, 1)
        for j in subset:
            term = term * z(j)
            if j + 1 not in chosen and j != n:
                term = term * (1 - Poly.variable(variables, f"Q{j}"))
        total = total + term
    return total
