"""Exact computational toolkit for zero-product balanced and zero-product
determined finite-dimensional associative algebras.

All arithmetic is exact (arbitrary-precision rationals or prime-field
residues); every non-trivial verdict is backed by an independently
re-checkable certificate.  The rationals are `zpbal.rationals.QQ`, imported
only where a rational field is asked for.
"""

from zpbal.fields import PrimeField, field_from_name
from zpbal.algebra import Algebra, Element

__all__ = ["PrimeField", "field_from_name", "Algebra", "Element"]
