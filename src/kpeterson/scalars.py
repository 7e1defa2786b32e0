"""Exact rational scalars.

Everything in this package computes over the rationals, exactly.  The scalar
type is the standard library's ``fractions.Fraction``, which keeps the
denominator positive and the fraction reduced after every operation.

Polynomial coefficients are ``int`` or ``Fraction``: ``normalize`` stores an
integral value as an ``int`` (integer arithmetic is several times faster than
``Fraction`` arithmetic, and every tau/sigma factor and Phi_n numerator has
integer coefficients) and keeps a ``Fraction`` only when it is not integral.
``exact_quotient`` divides two such coefficients without ever producing a
float.  ``clear_denominators`` scales a row of such values to ``int`` by the
lcm of their denominators.  Toda points are ``Fraction`` tuples, but the
rational matrix layer (``RingMatrix`` determinants, products, leading
minors, the LU behind the RU decomposition, ``inverse`` and ``solve``)
clears the denominators and computes on the integers, with one division per
result: a determinant or minor is a ``Fraction``, and a matrix entry is
normalized, so an integral inverse is all ``int``.  The quantization map's
basis coordinates never leave ``int``: its triangular peel has unit pivots.
"""

from __future__ import annotations

from fractions import Fraction as Rational
from math import lcm

__all__ = [
    "Rational",
    "rat",
    "normalize",
    "exact_quotient",
    "is_rational",
    "clear_denominators",
    "rational_from_text",
    "rational_to_text",
]


def rat(value):
    """Coerce an int or Rational to Rational."""
    if isinstance(value, int):
        return Rational(value)
    return value


def normalize(value):
    """An int or Rational as a coefficient: an int when it is integral.

    >>> normalize(Rational(6, 3)), normalize(Rational(1, 2))
    (2, Fraction(1, 2))
    """
    if type(value) is int:
        return value
    if value.denominator == 1:
        return int(value.numerator)
    return value


def exact_quotient(a, b):
    """a / b for int or Rational coefficients, normalized; int / int never
    becomes a float.

    >>> exact_quotient(6, 3), exact_quotient(3, 2)
    (2, Fraction(3, 2))
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Rational(a, b) if r else q
    return normalize(Rational(a) / b)


def is_rational(values) -> bool:
    """Whether every value is an int or a Rational."""
    return all(isinstance(x, (int, Rational)) for x in values)


def clear_denominators(values):
    """(values * s as ints, s), with s the lcm of the denominators.

    >>> clear_denominators([Rational(1, 2), 3, Rational(-2, 3)])
    ([3, 18, -4], 6)
    """
    s = lcm(*(x.denominator for x in values))
    return [x.numerator * (s // x.denominator) for x in values], s


def rational_from_text(text: str):
    """Parse ``"p/q"`` or ``"p"`` into a Rational.

    >>> rational_to_text(rational_from_text("-3/6"))
    '-1/2'
    """
    body = text.strip()
    if "/" in body:
        p, q = body.split("/", 1)
        return Rational(int(p), int(q))
    return Rational(int(body))


def rational_to_text(value) -> str:
    """Format a Rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    return str(rat(value))
