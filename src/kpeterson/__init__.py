"""Exact-arithmetic computer algebra for the K-theoretic Peterson map.

Layers: exact scalars and generic-ring matrices; symmetric functions with
Schur and dual stable Grothendieck bases and Hall-pairing skew operators;
the relativistic Toda Lax correspondence; the Peterson substitution
homomorphism with its D-determinant toolkit; quantum Grothendieck
polynomials and the lambda-map; and named verification suites behind a CLI.
"""

__version__ = "0.1.0"

from .partitions import Partition, Permutation, complement, conjugate
from .polynomials import Poly
from .scalars import Rational
from .symfunc import SymFunc, perp, schur
from .matrices import RingMatrix

__all__ = [
    "__version__",
    "Partition",
    "Permutation",
    "conjugate",
    "complement",
    "Poly",
    "Rational",
    "SymFunc",
    "schur",
    "perp",
    "RingMatrix",
]
