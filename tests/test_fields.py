import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from zpbal.errors import InfiniteFieldError, ParseError
from zpbal.fields import PrimeField, QQ, _is_prime, field_from_name

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_rational_arithmetic_exact():
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    assert QQ.mul(Fraction(-2, 4), Fraction(2)) == Fraction(-1)


def test_prime_field_arithmetic():
    assert F2.add(1, 1) == 0
    assert F3.mul(2, 2) == 1
    assert F5.div(3, 4) == (3 * pow(4, -1, 5)) % 5
    assert F3.neg(1) == 2
    assert F5.inv(2) == 3


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.div(Fraction(1), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        F3.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_enumeration():
    assert list(F2.elements()) == [0, 1]
    assert list(F3.elements()) == [0, 1, 2]
    with pytest.raises(InfiniteFieldError):
        list(QQ.elements())


def test_field_from_name():
    assert field_from_name("Q") == QQ
    assert field_from_name("F7") == PrimeField(7)
    with pytest.raises(ParseError):
        field_from_name("F4")  # not prime
    with pytest.raises(ParseError):
        field_from_name("R")


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_canonical_forms():
    # equality is representation equality: everything stays reduced/normalized
    a = QQ.parse("2/4")
    assert a == Fraction(1, 2) and a.denominator == 2
    assert F5.parse("12") == 2
    assert QQ.format(Fraction(3)) == "3"
    assert QQ.format(Fraction(-1, 2)) == "-1/2"
    assert F3.format(5) == 2


def test_parse_rejects_floats_and_booleans():
    for field in (QQ, F2, F3):
        for bad in (0.1, 1.9, 2.0, True, False):
            with pytest.raises(ParseError):
                field.parse(bad)
        assert field.parse(1) == field.one and field.parse("1") == field.one


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_prime_field_axioms(a, b, c):
    f = F5
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_primality_is_exact():
    assert all(_is_prime(n) == _trial_division(n) for n in range(-2, 5000))
    # strong pseudoprimes to the first four, seven and nine prime bases
    for n in (3215031751, 341550071728321, 3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime(1000000000000000003) and _is_prime(2 ** 61 - 1)
    with pytest.raises(ParseError, match="too large"):
        field_from_name(f"F{2 ** 89 - 1}")  # a prime above 3.3e24 cannot be decided exactly
    assert not _is_prime(2 ** 100)  # a composite with a small factor still can


def _run(code):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=5)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_short_inputs_return_promptly():
    assert _run("from zpbal.fields import field_from_name\n"
                "print(field_from_name('F1000000000000000003').name)") == "F1000000000000000003\n"
    assert "ParseError" in _run(
        "from zpbal.errors import ParseError\nfrom zpbal.fields import QQ\n"
        "try:\n    QQ.parse('1e100000000')\nexcept ParseError as exc:\n    print(type(exc).__name__, exc)")


def test_rational_exponent_limit():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
    assert QQ.parse("1e-3") == Fraction(1, 1000)
    assert QQ.parse(f"1e{limit - 10}") == 10 ** (limit - 10)
    for text in (f"1e{limit}", f"1E-{limit}", "1e" + "9" * (limit + 1)):
        with pytest.raises(ParseError):
            QQ.parse(text)
