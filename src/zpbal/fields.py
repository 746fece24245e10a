"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values: `fractions.Fraction` over the rationals
(always stored reduced with positive denominator) and `int` residues in
[0, p) over a prime field.  A field object supplies the arithmetic, the
parsing/formatting of the textual syntax ("p/q" over the rationals, a
decimal residue over a prime field), and enumeration where finite.  Parsed
scalars are integers or strings; a float or a bool is a ParseError, so no
inexact value enters through an input file.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterator, Union

from zpbal.errors import InfiniteFieldError, ParseError

Scalar = Union[Fraction, int]


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


def _max_digits() -> int:
    """The digit limit Python applies to int(str), or its default where it is off."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


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

    def div(self, a, b):
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

    def elements(self) -> Iterator[Scalar]:
        """Every field element exactly once, in a fixed deterministic order."""
        raise NotImplementedError

    def __ne__(self, other):
        return not self.__eq__(other)


class Rationals(Field):
    """The field of arbitrary-precision rationals."""

    name = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def of_int(self, n):
        return Fraction(n)

    def parse(self, text):
        if type(text) is not int and not isinstance(text, str):  # no bool, no float
            raise ParseError(f"invalid rational scalar {text!r}: not an integer or a string")
        if isinstance(text, str) and "e" in text.lower():  # "1e<n>" expands to n digits
            try:
                exponent = int(text[text.lower().rindex("e") + 1:])
            except ValueError:
                exponent = 0  # not an exponent: Fraction decides
            limit = _max_digits()
            if abs(exponent) + len(text) > limit:
                raise ParseError(f"rational scalar {text[:40]!r} expands to more than {limit} digits")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"invalid rational scalar {text!r}") from exc

    def format(self, a):
        return str(a)

    def elements(self):
        raise InfiniteFieldError("the rationals cannot be enumerated")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


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

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return (a * pow(b, -1, self.p)) % self.p

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

    def elements(self):
        return iter(range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = Rationals()


def field_from_name(name: str) -> Field:
    """Resolve "Q" or "F<p>" to a field object."""
    if name == "Q":
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
