"""The field of rationals, `QQ`.

A rational has one normal form: a Python `int` when it is integral, and a
reduced `fractions.Fraction` otherwise.  Every operation returns that form,
so arithmetic on the 0 and ±1 structure constants of the usual examples stays
on ints and never enters Fraction's pure-Python code.  An int and the integral
`Fraction` equal to it compare and hash equal and print the same, so the
representation never shows in a verdict, a report or a file.

Kept out of `zpbal.fields` so that a process over a prime field never imports
`fractions` (and with it `decimal` and `numbers`); `field_from_name("Q")`
imports this module.  This module imports `fractions` itself only when `inv`
or `parse` first builds a non-integral rational: a plain ASCII integer token,
at most a leading "-" and digits, parses with `int`, so a process whose
scalars all stay integral never loads it.  Every other token still goes
through `Fraction`, which decides what is valid.
"""

from __future__ import annotations

import sys

from zpbal.errors import InfiniteFieldError, ParseError
from zpbal.fields import Field


def _max_digits() -> int:
    """The digit limit Python applies to int(str), or its default where it is off."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


_TOKENS: dict = {}  # valid str or int token -> its normal form, for `Rationals.parse`
_TOKEN_LIMIT = 4096  # emptied at this size, so a long-lived process cannot grow it without bound


def _fraction(*args):
    """`fractions.Fraction(*args)`.  The first call imports the module and
    rebinds this name to the class, so later calls cost no import."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(*args)


def _normal(r):
    """r in normal form: an int when integral, else the reduced Fraction."""
    return r if type(r) is int or r.denominator != 1 else r.numerator


class Rationals(Field):
    """The field of arbitrary-precision rationals, in the normal form above."""

    name = "Q"
    characteristic = 0
    zero = 0
    one = 1

    def add(self, a, b):
        return _normal(a + b)

    def sub(self, a, b):
        return _normal(a - b)

    def mul(self, a, b):
        return _normal(a * b)

    def neg(self, a):
        return _normal(-a)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in Q")
        if type(a) is int:
            return a if abs(a) == 1 else _fraction(1, a)
        return _normal(_fraction(a.denominator, a.numerator))

    def of_int(self, n):
        return n

    def parse(self, text):
        # One memo for every token parsed: a certificate file repeats "0", "1"
        # and "-1" thousands of times.  It is read only for str and int tokens,
        # since True == 1 and 1.0 == 1 would otherwise find the entry of a
        # valid token and skip the ParseError.
        if type(text) is str or type(text) is int:
            x = _TOKENS.get(text)
            if x is not None:
                return x
        elif not isinstance(text, str):  # no bool, no float
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
            if type(text) is int:
                x = text
            elif text.isascii() and (text[1:] if text[:1] == "-" else text).isdigit():
                x = int(text)
            else:
                x = _normal(_fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"invalid rational scalar {text!r}") from exc
        if len(_TOKENS) >= _TOKEN_LIMIT:
            _TOKENS.clear()
        _TOKENS[text] = x
        return x

    def format(self, a):
        return str(a)

    def parse_vector(self, values):
        return [self.parse(a) for a in values]

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
