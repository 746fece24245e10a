"""The field of rationals, `QQ`.

Kept out of `zpbal.fields` so that a process over a prime field never imports
`fractions` (and with it `decimal` and `numbers`); `field_from_name("Q")`
imports this module.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from zpbal.errors import InfiniteFieldError, ParseError
from zpbal.fields import Field


def _max_digits() -> int:
    """The digit limit Python applies to int(str), or its default where it is off."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


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

    def parse_vector(self, values):
        # each distinct token is parsed once: certificate vectors are mostly "0".
        # Only str and int tokens are memoised, since True == 1 and 1.0 == 1
        # would otherwise find the entry of a valid token and skip the ParseError.
        memo: dict = {}
        out = []
        for a in values:
            if type(a) is str or type(a) is int:
                x = memo.get(a)
                if x is None:
                    x = memo[a] = self.parse(a)
            else:
                x = self.parse(a)
            out.append(x)
        return out

    def format_vector(self, v):
        return [str(a) for a in v]

    def elements(self):
        raise InfiniteFieldError("the rationals cannot be enumerated")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


QQ = Rationals()
