"""Exact rational scalars.

Everything in this package computes over the rationals, exactly.  The scalar
type is the standard library's ``fractions.Fraction``, which keeps the
denominator positive and the fraction reduced after every operation.
"""

from __future__ import annotations

from fractions import Fraction as Rational

__all__ = ["Rational", "rat", "rational_from_text", "rational_to_text"]


def rat(value):
    """Coerce an int or Rational to Rational."""
    if isinstance(value, int):
        return Rational(value)
    return value


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
