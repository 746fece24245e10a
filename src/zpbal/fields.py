"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values.  Over the rationals a scalar is an `int`
when it is integral and a reduced `fractions.Fraction` with positive
denominator otherwise; over a prime field it is an `int` residue in [0, p).
A field object supplies the arithmetic, the parsing/formatting of the
textual syntax ("p/q" over the rationals, a decimal residue over a prime
field), and enumeration where finite.  Parsed scalars are integers or
strings; a float or a bool is a ParseError, so no inexact value enters
through an input file.

The rationals live in `zpbal.rationals`, which `field_from_name("Q")` imports
when it is asked for them, so a process over a prime field never loads
`fractions`.

The zero test of a vector and the conversions between a dense vector and a
sparse row live here, beside `Scalar`, because the verifier needs them and
loads no linear algebra; `zpbal.linalg` imports them from this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Sequence, Union

from zpbal.errors import AmbientMismatch, ParseError

if TYPE_CHECKING:
    from fractions import Fraction

    from zpbal.linalg import Row, Sparse, Vector

Scalar = Union[int, "Fraction"]  # a Fraction only for a non-integral rational


def vec_is_zero(u) -> bool:
    return not any(u)  # ints and Fractions are falsy exactly at zero


# The conversions at the dense boundary are private helpers of `linalg` and of
# the certificate code, not field arithmetic.  `fields` is no layer perfbench's
# tracer wraps, so, like `vec_is_zero`, they are plain calls in a traced run.
def _dense(field: Field, v: Row, n: int) -> Vector:
    """The length-n list with v's entries and zeros elsewhere."""
    if type(v) is int:
        return [(v >> j) & 1 for j in range(n)]
    out = [field.zero] * n
    for j, a in v.items():
        out[j] = a
    return out


def _sparse(v: Union[Vector, Sparse], ambient: int) -> Sparse:
    """v as a map: a dict is taken as given, a list is checked for length."""
    if type(v) is dict:
        return v
    if len(v) != ambient:
        raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient}")
    return {j: a for j, a in enumerate(v) if a}


# Miller-Rabin with the first thirteen primes as bases decides primality
# exactly below this bound (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality test; ValueError for a possible prime beyond `_MR_LIMIT`."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only below {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the two supported base fields."""

    name: str
    characteristic: int
    zero: Scalar
    one: Scalar

    def is_finite(self) -> bool:
        return self.characteristic != 0

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def of_int(self, n: int) -> Scalar:
        raise NotImplementedError

    def parse(self, text) -> Scalar:
        raise NotImplementedError

    def format(self, a) -> Union[str, int]:
        raise NotImplementedError

    def parse_vector(self, values: Sequence) -> List[Scalar]:
        """`parse` of each entry; the first invalid entry raises its ParseError."""
        raise NotImplementedError

    def format_vector(self, v: Sequence[Scalar]) -> List[Union[str, int]]:
        """`format` of each entry."""
        raise NotImplementedError

    def elements(self) -> Iterator[Scalar]:
        """Every field element exactly once, in a fixed deterministic order."""
        raise NotImplementedError


class PrimeField(Field):
    """The prime field of p elements, residues stored normalized in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        return pow(a, -1, self.p)

    def of_int(self, n):
        return n % self.p

    def parse(self, text):
        if type(text) is int:  # no bool
            return text % self.p
        if not isinstance(text, str):
            raise ParseError(f"invalid residue {text!r} for {self.name}: not an integer or a string")
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise ParseError(f"invalid residue {text!r} for {self.name}") from exc

    def format(self, a):
        return a % self.p

    def parse_vector(self, values):
        p = self.p
        if set(map(type, values)) <= {int}:  # every entry an int: no bool, float or string
            if all(0 <= a < p for a in set(values)):  # residues already: a C-level copy
                return list(values)
            return [a % p for a in values]
        return [self.parse(a) for a in values]

    def format_vector(self, v):
        p = self.p
        return [a % p for a in v]

    def elements(self):
        return iter(range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def field_from_name(name: str) -> Field:
    """Resolve "Q" or "F<p>" to a field object."""
    if name == "Q":
        from zpbal.rationals import QQ  # only a rational process pays for `fractions`

        return QQ
    if name.startswith("F"):
        try:
            p = int(name[1:])
        except ValueError:
            raise ParseError(f"unknown field {name!r}")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise ParseError(str(exc))
    raise ParseError(f"unknown field {name!r}")
