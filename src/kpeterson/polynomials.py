"""Sparse multivariate polynomials over exact rationals.

This module holds the one sparse term-dict kernel of the package: add,
scale, multiply and exact division over ``{exponent tuple: int | Fraction}``
maps with non-zero coefficients.  A coefficient is an ``int`` whenever it is
integral and a ``Fraction`` only when it is not (``scalars.normalize``).
``Poly``, ``SymFunc`` and the power-sum dicts of the symmetric-function layer
all call it, with two tuple layouts: the fixed-width tuples of a Poly and the
trailing-zero-trimmed tuples of the h- and p-bases.  Inside a call the
exponent tuples are packed into ints, one bit field per variable, so that
adding two keys multiplies two monomials; the maps the kernel returns always
hold tuples.  ``_mul_add`` is the one multiply-add loop over packed maps:
``terms_mul`` packs both operands, runs it once and unpacks the product,
and ``grouped_product`` packs each part and table entry once and runs every
step of its sum through it, unpacking only the final sum.
``terms_exact_div`` packs for the length of one division, with a
total-degree field on top, so that int order is graded-lex order.
``grouped_product`` is the one routine for sums of the shape
sum c * prod_j T_j[e_j], grouped slot by slot: substitution of a Poly, the
Phi_n image of a z/Q polynomial, the quantization map and the Phi_n image
of a quantized Grothendieck polynomial all evaluate through it.
``power_table`` is the one cache of powers, and a table of that type with a
Poly base marks a power slot, which ``grouped_product`` runs by Horner's rule
(multiplying by the base itself, not by a cached higher power); the power
slots are those of substitution by polynomials and of the Phi_n image.
Tables whose entries are not powers (the quantization map, the f-basis
columns and the D(theta) numerators of phi(G^Q_w)) are indexed slots, each
group sum multiplied by its own entry.  Evaluation at a point is one flat
sum over integer tables p^e q^(D-e) for a value p/q, with one division at
the end: on small polynomials grouping costs more than it saves.

A Poly has a fixed, ordered variable tuple and a term map from exponent
vectors to non-zero coefficients.  This one type backs the z/Q and x/Q
polynomial rings, the zeta-polynomials of the Toda layer, and (through the
h1..h_{n-1} variable set) the symmetric-function workhorse arithmetic of
the Peterson map.  ``Poly.substitute`` replaces variables by polynomials;
it is the one rewrite between the z/Q and x/Q rings (x_i = 1 - z_i).
"""

from __future__ import annotations

import heapq
from itertools import chain, zip_longest
from operator import lshift

from .scalars import (
    Rational,
    exact_quotient,
    normalize,
    rat,
    rational_from_text,
    rational_to_text,
)

__all__ = ["Poly"]


# -- the sparse term kernel ---------------------------------------------------


def terms_add(t1, t2):
    out = dict(t1)
    for e, c in t2.items():
        s = normalize(out.get(e, 0) + c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def terms_scale(t, c):
    return {e: normalize(v * c) for e, v in t.items()} if c else {}


def _pack(terms, shifts):
    """A term map keyed by packed ints: slot i of each exponent tuple at bit
    shifts[i]."""
    return {sum(map(lshift, e, shifts)): c for e, c in terms.items()}


_ONE = {0: 1}  # the packed constant 1


def _mul_add(acc, t1, t2):
    """acc += t1 * t2 over packed term maps: adding two packed keys
    multiplies the two monomials.  The one multiply-add loop of the kernel;
    a sum that cancels stays in acc as a zero."""
    if len(t1) > len(t2):
        t1, t2 = t2, t1
    get = acc.get
    pairs = t2.items()
    for k1, c1 in t1.items():
        for k2, c2 in pairs:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


def _add(acc, t):
    """acc += t over packed term maps."""
    get = acc.get
    for k, c in t.items():
        acc[k] = get(k, 0) + c


def _unpack(acc, bits, width, pad):
    """The non-zero terms of a packed map with normalized coefficients,
    keyed by tuples of `width` fields of `bits` bits, each cut back to the
    shortest length of at least pad that holds every non-zero field."""
    mask = (1 << bits) - 1
    shifts = range(0, bits * width, bits)
    fields = [shifts[:i] for i in range(width + 1)]
    out = {}
    for k, c in acc.items():
        if c:
            slots = fields[max(pad, -(-k.bit_length() // bits))]
            out[tuple([(k >> s) & mask for s in slots])] = normalize(c)
    return out


def terms_mul(t1, t2):
    """Product of two term maps, in either exponent-tuple layout.

    Both maps are packed, slot i at bit i * bits, with bits wide enough for
    the call's largest per-slot exponent sum, so that no packed sum carries
    between slots; they are multiplied by ``_mul_add`` and read back into
    tuples padded to the shortest operand tuple, which keeps both the fixed
    width of a Poly and the trailing-zero-trimmed tuples of SymFunc and the
    p-dicts (a product of trimmed monomials never ends in a zero slot).
    Exponents must not be negative.
    """
    if not t1 or not t2:
        return {}
    top1 = map(max, zip_longest(*t1, fillvalue=0))
    top2 = map(max, zip_longest(*t2, fillvalue=0))
    slot_sums = [a + b for a, b in zip_longest(top1, top2, fillvalue=0)]
    bits = max(max(slot_sums, default=0).bit_length(), 1)
    width = len(slot_sums)
    shifts = range(0, bits * width, bits)
    acc = {}
    _mul_add(acc, _pack(t1, shifts), _pack(t2, shifts))
    return _unpack(acc, bits, width, min(map(len, chain(t1, t2))))


def terms_exact_div(t, divisor):
    """Quotient of two fixed-width term maps, or None if inexact.

    Single-divisor reduction in graded-lex order: succeeds iff divisor
    divides t exactly in the polynomial ring.  For the length of the call
    each exponent tuple is packed into one int, the total degree in the top
    field and then e_0, e_1, ... from the most significant field down, so
    that int order is graded-lex order.  Every term met during the reduction
    has a total degree at most that of t (the leading term never grows), so
    fields as wide as the larger of the two total degrees, plus one guard
    bit each, cannot carry into each other; a lex packing could, because a
    less significant slot may outgrow the dividend during an inexact
    division.  The leading term is tracked through a lazy max-heap of packed
    keys, the remainder is keyed by them, and only the quotient is unpacked.
    """
    if not divisor:
        raise ZeroDivisionError("polynomial division by zero")
    if not t:
        return {}
    top = max(sum(e) for e in chain(t, divisor))
    bits = top.bit_length() + 1
    width = len(next(iter(divisor)))
    shifts = range(bits * width, -1, -bits)  # degree field first, then e_0..
    slot_shifts = shifts[1:]

    def pack(e):
        return sum(map(lshift, (sum(e), *e), shifts))

    guard = sum(1 << (s + bits - 1) for s in shifts)
    packed_div = [(pack(e), c) for e, c in divisor.items()]
    dlt, dlt_coeff = max(packed_div)
    rem = {pack(e): c for e, c in t.items()}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    mask = (1 << bits) - 1
    quotient = {}
    while heap:
        k = -heapq.heappop(heap)
        coeff = rem.get(k)
        if not coeff:
            continue  # stale heap entry
        q = (k | guard) - dlt
        if q & guard != guard:
            return None  # some slot of the divisor's leading term is larger
        q -= guard
        q_coeff = exact_quotient(coeff, dlt_coeff)
        quotient[tuple([(q >> s) & mask for s in slot_shifts])] = q_coeff
        for kd, c in packed_div:
            target = kd + q
            old = rem.get(target)
            s = normalize((old or 0) - q_coeff * c)
            if s:
                rem[target] = s
                if old is None:
                    heapq.heappush(heap, -target)
            else:
                rem.pop(target, None)
    return quotient


def grouped_product(parts: dict, tables, zero):
    """sum of part * prod_j tables[j](key[j]) over the {key: part} of `parts`.

    The parts are grouped on slot 0, each group is summed recursively over
    slots 1, 2, ..., and the group sums S_e of a slot are combined with its
    table.  A table maps an exponent to a Poly or a number.  A power slot,
    whose table is a ``power_table`` of a Poly T, runs Horner's rule from
    its top exponent down, acc <- acc * T^(e_prev - e) + S_e, and ends with
    acc * T^(e_min): each step multiplies by T itself unless exponents are
    missing, never by a higher power of a group sum.  Any other table is an
    indexed slot: each S_e is multiplied by its own entry and the products
    are added.  That covers a list lookup or a cached function, whose
    entries need not be powers, and a ``power_table`` of a number (a
    variable substituted by a number), where Horner's rule was not faster.
    An entry equal to one is not multiplied.  Parts and entries are numbers
    or Polys in the ring of `zero`, and every key has one slot per table.

    The whole sum runs in one packed key space (``_pack``, a number c being
    the constant {0: c}): every variable gets a field as wide as the
    largest exponent any term can reach, the largest over the parts plus,
    per slot, e_max * (exponent in T) for a power slot or the largest
    exponent over the entries used for an indexed slot, so that no partial
    sum carries between fields.  Each part and each entry is packed once
    per call, every level multiplies and adds packed maps (``_mul_add``,
    ``_add``), and only the final sum is normalized and unpacked.  The
    result has the type of `zero` (a Poly in its ring, or a number), and is
    `zero` for no parts.
    """
    if not parts:
        return zero
    width = len(tables)
    variables = zero.vars if isinstance(zero, Poly) else ()
    power_slots = [isinstance(t, power_table) and isinstance(t.powers[1], Poly) for t in tables]
    used = [set(column) for column in zip(*parts)]
    indexed = [{} if h else {e: t(e) for e in es} for t, h, es in zip(tables, power_slots, used)]

    def tops(values):
        columns = zip(*chain.from_iterable(v.terms for v in values if isinstance(v, Poly)))
        return [max(column) for column in columns]

    bound = tops(parts.values())
    for table, power_slot, exps, entries in zip(tables, power_slots, used, indexed):
        if power_slot:
            slot_tops = [max(exps) * top for top in tops([table.powers[1]])]
        else:
            slot_tops = tops(entries.values())
        bound = [a + b for a, b in zip_longest(bound, slot_tops, fillvalue=0)]
    bits = max(max(bound, default=0).bit_length(), 1)
    shifts = range(0, bits * len(variables), bits)

    def pack(value):
        if isinstance(value, Poly):
            if value.vars != variables:
                raise ValueError(f"variable mismatch: {value.vars} vs {variables}")
            return _pack(value.terms, shifts)
        return {0: value} if value else {}

    packed = [{e: pack(v) for e, v in entries.items()} for entries in indexed]

    def entry(j, e):
        cache = packed[j]
        if e not in cache:
            cache[e] = pack(tables[j](e))
        return cache[e]

    def times(factor, t):
        if factor == _ONE:
            return t
        acc = {}
        _mul_add(acc, factor, t)
        return acc

    def level(group, j):
        if j == width:
            (leaf,) = group.values()
            return pack(leaf)
        slots: dict = {}
        for key, part in group.items():
            slots.setdefault(key[j], {})[key] = part
        if power_slots[j]:
            exps = sorted(slots, reverse=True)
            total = level(slots[exps[0]], j + 1)
            for above, e in zip(exps, exps[1:]):
                acc = dict(level(slots[e], j + 1))
                _mul_add(acc, total, entry(j, above - e))
                total = {k: c for k, c in acc.items() if c}
            return times(entry(j, exps[-1]), total)
        acc = {}
        for e in sorted(slots):
            factor, group_sum = entry(j, e), level(slots[e], j + 1)
            if factor == _ONE:
                _add(acc, group_sum)
            else:
                _mul_add(acc, factor, group_sum)
        return {k: c for k, c in acc.items() if c}

    total = level(parts, 0)
    if not isinstance(zero, Poly):
        value = normalize(total.get(0, 0))
        return value if type(value) is type(zero) else zero + value
    return Poly(variables, _unpack(total, bits, len(variables), len(variables)))


class power_table:
    """e -> base**e, each power computed once from the one before.  A table
    of this type with a Poly base marks a power slot of ``grouped_product``."""

    __slots__ = ("powers",)

    def __init__(self, base):
        self.powers = [1, base]

    def __call__(self, e):
        powers = self.powers
        while len(powers) <= e:
            powers.append(powers[-1] * powers[1])
        return powers[e]


def _exponents(exps):
    """An exponent tuple from user input; packing needs every entry >= 0."""
    exps = tuple(exps)
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {exps}")
    return exps


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
        value = normalize(value)
        if not value:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        idx = variables.index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exps: 1})

    @classmethod
    def monomial(cls, variables, exps, coeff=1):
        exps = _exponents(exps)
        coeff = normalize(coeff)
        if not coeff:
            return cls.zero(variables)
        return cls(variables, {exps: coeff})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), 0)

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
            return Poly(self.vars, terms_scale(self.terms, other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.vars, terms_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return self._coerce(power_table(self)(k))

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
        return self.substitute({}, variables)

    def swap_vars(self, name1: str, name2: str):
        i, j = self.vars.index(name1), self.vars.index(name2)
        terms = {}
        for e, c in self.terms.items():
            new = list(e)
            new[i], new[j] = new[j], new[i]
            terms[tuple(new)] = c
        return Poly(self.vars, terms)

    def substitute(self, images: dict, variables):
        """The polynomial over `variables` that replaces each variable named
        in `images` by its image, a Poly over `variables` or a number, all at
        once.  Every other variable of self keeps its name and must be in
        `variables` unless it does not occur; names in `images` that are not
        variables of self are ignored.  The terms are grouped by their
        substituted exponents and summed by ``grouped_product`` over cached
        powers of the images.

        >>> v = ("x1", "x2")
        >>> x1, x2 = Poly.variable(v, "x1"), Poly.variable(v, "x2")
        >>> (x1 * x2 + x1).substitute({"x1": 1 - x2}, v).to_str()
        '-x2^2 + 1'
        >>> (x1 * x2).substitute({"x2": 3}, ("x1",)).to_str()
        '3*x1'
        """
        variables = tuple(variables)
        subs = [i for i, v in enumerate(self.vars) if v in images]
        if not subs and self.vars == variables:
            return self
        kept = []
        for i, v in enumerate(self.vars):
            if v in variables and v not in images:
                kept.append((i, variables.index(v)))
            elif v not in images and self.degree_in(v):
                raise ValueError(f"variable {v!r} has no image in {variables}")
        groups: dict = {}
        for e, c in self.terms.items():
            new = [0] * len(variables)
            for i, j in kept:
                new[j] = e[i]
            groups.setdefault(tuple([e[i] for i in subs]), {})[tuple(new)] = c
        return grouped_product(
            {key: Poly(variables, terms) for key, terms in groups.items()},
            [power_table(images[self.vars[i]]) for i in subs],
            Poly.zero(variables),
        )

    def evaluate(self, point: dict):
        """Evaluate at Rational values for all variables, in ``int``: with
        x_j = p_j / q_j and D_j the degree in x_j, the flat sum of
        c * prod_j p_j^e_j q_j^(D_j - e_j) over the variables that occur,
        divided once by prod_j q_j^D_j."""
        values = [point[v] for v in self.vars]
        tops = [max(column) for column in zip(*self.terms)]
        tables, denominator = [], 1
        for i, top in enumerate(tops):
            if top:
                p, q = values[i].numerator, values[i].denominator
                powers = [q**top]
                for _ in range(top):
                    powers.append(powers[-1] // q * p)
                tables.append((i, powers))
                denominator *= powers[0]
        total = 0
        for e, c in self.terms.items():
            for i, powers in tables:
                c = c * powers[e[i]]
            total += c
        return Rational(total, denominator)

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
            _exponents(t["exps"]): normalize(rational_from_text(t["coeff"]))
            for t in data["terms"]
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

