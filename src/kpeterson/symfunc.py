"""Symmetric functions in the complete homogeneous basis.

A SymFunc is an exact-rational linear combination of monomials in h1, h2,
...; the monomial h2*h1^2 is stored as the exponent vector (2, 1) (exponent
of h_i at slot i-1, trailing zeros trimmed).  Schur functions (each one
cached Jacobi-Trudi minor, ``_jacobi_trudi_minor``, which the D-determinants
of ``peterson`` share), the p-basis conversions (Newton's identities) and
the Hall-pairing skew operators live here.  The skew operators are linear
maps of h-monomials in int (``_linear_map``): p_i-perp is the derivation
h_j -> h_{j-i}, and f-perp composes the h_k-perp of the factors of each
h-monomial of f, read off the coproduct Delta h_k = sum_t h_t (x) h_{k-t}.
No computation goes through the p-basis.  A ring map of Lambda given by the
images of its generators -- h to p, p to h, kappa_d, the expansion in
finitely many variables -- is one Poly.substitute in the generators up to
the widest monomial (``_substitute``).

Serialization format: a JSON list of {"coeff": "p/q", "monomial": [i1, i2,
...]} with the monomial written as its weakly decreasing index multiset and
the list in descending graded-lex order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .partitions import Partition
from .polynomials import Poly, format_terms, power_table, terms_add, terms_mul, terms_scale
from .scalars import Rational, normalize, rat, rational_from_text, rational_to_text

__all__ = ["SymFunc", "schur", "to_p_dict", "from_p_dict", "perp"]


def _geom_series_coeffs(theta: int, n: int):
    """Coefficients of (1-v)^{-theta} up to v^{n-1} (integer list)."""
    if theta == 0:
        return [1] + [0] * (n - 1)
    if theta > 0:
        return [comb(theta + l - 1, l) for l in range(n)]
    m = -theta
    return [((-1) ** l) * comb(m, l) if l <= m else 0 for l in range(n)]


def _trim(exps):
    exps = tuple(exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def _mono_degree(exps):
    return sum((i + 1) * e for i, e in enumerate(exps))


def _mono_key(exps):
    return (_mono_degree(exps), exps)


def _sorted_terms(terms):
    """Items of a term map in descending graded-lex order."""
    return sorted(terms.items(), key=lambda t: _mono_key(t[0]), reverse=True)


class SymFunc:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, value):
        value = normalize(value)
        return cls({(): value} if value else {})

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def h(cls, i: int):
        """The complete homogeneous generator h_i (h_0 = 1, h_{<0} = 0)."""
        if i < 0:
            return cls.zero()
        if i == 0:
            return cls.one()
        return cls({(0,) * (i - 1) + (1,): 1})

    @classmethod
    def h_monomial(cls, indices, coeff=1):
        """Product h_{i1} h_{i2} ... from a multiset of indices >= 1."""
        exps = [0] * (max(indices) if indices else 0)
        for i in indices:
            exps[i - 1] += 1
        return cls.monomial(exps, coeff)

    @classmethod
    def monomial(cls, exps, coeff=1):
        coeff = normalize(coeff)
        if not coeff:
            return cls.zero()
        return cls({_trim(exps): coeff})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not e for e in self.terms)

    def constant_term(self):
        return self.terms.get((), 0)

    def degree(self) -> int:
        return max((_mono_degree(e) for e in self.terms), default=0)

    def homogeneous_part(self, d: int) -> "SymFunc":
        return SymFunc({e: c for e, c in self.terms.items() if _mono_degree(e) == d})

    def top_part(self) -> "SymFunc":
        return self.homogeneous_part(self.degree())

    def in_lambda_n(self, n: int) -> bool:
        """True iff only h_1..h_{n-1} occur."""
        return all(len(e) <= n - 1 for e in self.terms)

    def sorted_terms(self):
        return _sorted_terms(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Rational)):
            return self.is_constant() and self.constant_term() == rat(other)
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"SymFunc({self.to_str()})"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Rational)):
            return SymFunc.const(other)
        if isinstance(other, SymFunc):
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SymFunc(terms_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return SymFunc({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):
            return SymFunc(terms_scale(self.terms, other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SymFunc(terms_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        return self._coerce(power_table(self)(k))

    def exact_div(self, divisor: "SymFunc"):
        """Exact division in the h-polynomial ring, or None if inexact.

        Done in h_1..h_w with w the widest monomial of either operand: a
        division there is exact iff it is exact in Lambda.
        """
        divisor = self._coerce(divisor)
        width = max(map(len, (*self.terms, *divisor.terms)), default=0)
        q = self.to_poly(width + 1).exact_div(divisor.to_poly(width + 1))
        return None if q is None else SymFunc.from_poly(q)

    def __truediv__(self, other):
        if isinstance(other, (int, Rational)):
            return self * (Rational(1) / rat(other))
        q = self.exact_div(other)
        if q is None:
            raise ValueError("inexact division of symmetric functions")
        return q

    # -- conversions ---------------------------------------------------------

    def to_poly(self, n: int) -> Poly:
        """As a polynomial in variables h1..h_{n-1}; requires Lambda_(n)."""
        if not self.in_lambda_n(n):
            raise ValueError(f"not in Lambda_({n})")
        return _widen(self.terms, n - 1)

    @classmethod
    def from_poly(cls, p: Poly) -> "SymFunc":
        for i, v in enumerate(p.vars, start=1):
            if v != f"h{i}":
                raise ValueError(f"unexpected variable {v} for an h-polynomial")
        return cls({_trim(e): c for e, c in p.terms.items()})

    def expand_in_vars(self, num_vars: int) -> Poly:
        """Image in finitely many variables x1..x_N (each h_i expanded)."""
        variables = tuple(f"x{i}" for i in range(1, num_vars + 1))
        poly = _widen(self.terms, _width(self.terms))
        images = {v: _h_expansion(i, num_vars) for i, v in enumerate(poly.vars, 1)}
        return poly.substitute(images, variables)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        out = []
        for e, c in self.sorted_terms():
            indices = []
            for i in range(len(e), 0, -1):
                indices.extend([i] * e[i - 1])
            out.append({"coeff": rational_to_text(c), "monomial": indices})
        return out

    @classmethod
    def from_json(cls, data) -> "SymFunc":
        total = cls.zero()
        for item in data:
            coeff = rational_from_text(item["coeff"])
            total = total + cls.h_monomial(list(item["monomial"]), coeff)
        return total

    def to_str(self):
        return format_terms(
            (
                "*".join(
                    f"h{i}" if e[i - 1] == 1 else f"h{i}^{e[i - 1]}"
                    for i in range(len(e), 0, -1)
                    if e[i - 1]
                ),
                c,
            )
            for e, c in self.sorted_terms()
        )


def _width(terms) -> int:
    return max(map(len, terms), default=0)


def _widen(terms, width: int) -> Poly:
    """A trimmed term dict as a Poly over generators h1..h_width."""
    return Poly(
        tuple(f"h{i}" for i in range(1, width + 1)),
        {e + (0,) * (width - len(e)): c for e, c in terms.items()},
    )


def _substitute(terms, image) -> dict:
    """The ring map that sends generator i to image(i), on trimmed term dicts.

    image(i) is a trimmed term dict no wider than i, so the result is no
    wider than `terms`: one Poly.substitute in the generators up to the
    widest monomial of `terms`, trimmed back.
    """
    width = _width(terms)
    poly = _widen(terms, width)
    images = {v: _widen(image(i), width) for i, v in enumerate(poly.vars, 1)}
    return {_trim(e): c for e, c in poly.substitute(images, poly.vars).terms.items()}


@lru_cache(maxsize=None)
def _h_expansion(i: int, num_vars: int) -> Poly:
    variables = tuple(f"x{j}" for j in range(1, num_vars + 1))
    terms = {}
    for combo in combinations_with_replacement(range(num_vars), i):
        exps = [0] * num_vars
        for j in combo:
            exps[j] += 1
        terms[tuple(exps)] = 1
    return Poly(variables, terms)


# -- Schur functions -----------------------------------------------------------


def _times_h(exps: tuple, i: int) -> tuple:
    """The monomial exps times h_i (h_0 = 1), trimmed."""
    if i == 0:
        return exps
    if len(exps) < i:
        exps = exps + (0,) * (i - len(exps))
    return exps[: i - 1] + (exps[i - 1] + 1,) + exps[i:]


@lru_cache(maxsize=None)
def _jacobi_trudi_minor(m: int, cols: int) -> dict:
    """det(h_{m + r - s_c}) over rows r = 0..k-1 and the k columns
    s_0 < ... < s_{k-1} set in the bitmask cols, as an int term dict.

    Laplace expansion along the last row, r = k - 1, over the cached minors
    of the first k - 1 rows; h_0 = 1 and h_{<0} = 0.  The cached dict is
    shared: callers must not mutate it.
    """
    if not cols:
        return {(): 1}
    r = cols.bit_count() - 1
    acc: dict = {}
    c, rest = 0, cols
    while rest:
        low = rest & -rest
        rest ^= low
        s = low.bit_length() - 1
        index = m + r - s
        if index >= 0:
            sign = -1 if (r + c) % 2 else 1
            minor = _jacobi_trudi_minor(m, cols ^ low)
            for e, v in minor.items():
                key = _times_h(e, index)
                acc[key] = acc.get(key, 0) + sign * v
        c += 1
    return {e: v for e, v in acc.items() if v}


def schur(lam) -> SymFunc:
    """Jacobi-Trudi determinant det(h_{lambda_i + j - i}).

    Transposed, it is det(h_{m + r - s_i}) with m = lambda_1 and the
    strictly increasing columns s_i = m - lambda_i + i: one cached
    ``_jacobi_trudi_minor``.

    >>> from kpeterson.partitions import Partition
    >>> schur(Partition([1, 1])).to_str()
    'h1^2 - h2'
    """
    parts = Partition(lam).parts
    if not parts:
        return SymFunc.one()
    m = parts[0]
    cols = sum(1 << (m - part + i) for i, part in enumerate(parts))
    return SymFunc(_jacobi_trudi_minor(m, cols))


# -- power-sum basis ------------------------------------------------------------

# h_m written in the p's and p_m written in the h's, by Newton's identities:
# m*h_m = sum_{i=1}^{m} p_i h_{m-i}.
_H_IN_P: list = [{(): 1}]
_P_IN_H: list = [ SymFunc.one() ]


def _p_gen(i: int):
    return {(0,) * (i - 1) + (1,): 1}


def _ensure_newton(m: int):
    while len(_H_IN_P) <= m:
        k = len(_H_IN_P)
        acc: dict = {}
        for i in range(1, k + 1):
            acc = terms_add(acc, terms_mul(_p_gen(i), _H_IN_P[k - i]))
        _H_IN_P.append(terms_scale(acc, Rational(1, k)))
    while len(_P_IN_H) <= m:
        k = len(_P_IN_H)
        total = SymFunc.h(k) * k
        for i in range(1, k):
            total = total - SymFunc.h(k - i) * _P_IN_H[i]
        _P_IN_H.append(total)


def to_p_dict(f: SymFunc) -> dict:
    """Expand f over monomials in p_1, p_2, ... (exponent-vector keys)."""
    _ensure_newton(_width(f.terms))
    return _substitute(f.terms, _H_IN_P.__getitem__)


def from_p_dict(d: dict) -> SymFunc:
    """Inverse of to_p_dict."""
    _ensure_newton(_width(d))
    return SymFunc(_substitute(d, lambda i: _P_IN_H[i].terms))


# -- skew operators (Hall-pairing adjoints) --------------------------------------


def _linear_map(terms: dict, image, k: int) -> dict:
    """The linear map that sends each monomial exps to the int term dict
    image(k, exps), applied to a term dict."""
    acc: dict = {}
    for exps, c in terms.items():
        for mono, v in image(k, exps).items():
            acc[mono] = acc.get(mono, 0) + c * v
    return {e: normalize(c) for e, c in acc.items() if c}


def _p_perp_monomial(i: int, exps: tuple) -> dict:
    """p_i-perp of the h-monomial exps.  p_i-perp = i d/dp_i is the derivation
    with p_i-perp h_j = h_{j-i} (Macdonald I.5), so each factor h_j, j >= i,
    becomes h_{j-i} with the multiplicity of h_j as coefficient; no two j
    give the same monomial."""
    return {
        _times_h(_trim(exps[: j - 1] + (m - 1,) + exps[j:]), j - i): m
        for j, m in enumerate(exps, start=1)
        if m and j >= i
    }


def p_perp(i: int, g: SymFunc) -> SymFunc:
    """Apply p_i-perp, for i >= 1 (p_0 is not a generator of Lambda)."""
    if i < 1:
        raise ValueError(f"p_i-perp needs i >= 1, got {i}")
    return SymFunc(_linear_map(g.terms, _p_perp_monomial, i))


@lru_cache(maxsize=None)
def _h_perp_monomial(k: int, exps: tuple) -> dict:
    """h_k-perp of the h-monomial exps, as a term dict with int coefficients.

    h_0-perp is the identity and h_k-perp = 0 for k < 0 (and for k above the
    degree).  Otherwise the coproduct Delta h_k = sum_t h_t (x) h_{k-t}, with
    h_t-perp h_j = h_{j-t}, peels the widest factor off exps = h_j * rest:

        h_k-perp(h_j * rest) = sum_{t=0}^{min(k, j)} h_{j-t} * h_{k-t}-perp(rest).

    The coefficients are positive, so nothing cancels.  The cached dict is
    shared: callers must not mutate it.
    """
    if k == 0:
        return {exps: 1}
    if k < 0 or k > _mono_degree(exps):
        return {}
    j = len(exps)
    rest = _trim(exps[:-1] + (exps[-1] - 1,))
    out: dict = {}
    for t in range(min(k, j) + 1):
        for mono, c in _h_perp_monomial(k - t, rest).items():
            key = _times_h(mono, j - t)
            out[key] = out.get(key, 0) + c
    return out


def perp(f: SymFunc, g: SymFunc) -> SymFunc:
    """The skew operator f-perp applied to g (Hall-pairing adjoint of
    multiplication by f).

    Worked in the h-basis: (fg)-perp = f-perp o g-perp, so each term
    c * h_{nu_1} h_{nu_2} ... of f applies h_{nu_1}-perp, h_{nu_2}-perp, ...
    to g in turn (``_h_perp_monomial``, cached per monomial) and scales the
    image by c.
    """
    total: dict = {}
    for e, c in f.terms.items():
        image = g.terms
        for k in range(len(e), 0, -1):
            for _ in range(e[k - 1]):
                image = _linear_map(image, _h_perp_monomial, k)
        total = terms_add(total, terms_scale(image, c))
    return SymFunc(total)
