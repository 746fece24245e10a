import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from zpbal.errors import InfiniteFieldError, ParseError
from zpbal.fields import PrimeField, _is_prime, field_from_name
from zpbal.rationals import QQ, _TOKEN_LIMIT, _TOKENS

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_rational_arithmetic_exact():
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.mul(Fraction(-2, 4), Fraction(2)) == Fraction(-1)


def test_prime_field_arithmetic():
    assert F2.add(1, 1) == 0
    assert F3.mul(2, 2) == 1
    assert F3.neg(1) == 2
    assert F5.inv(2) == 3


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
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


# Integral Fractions too: a table built by hand may hold Fraction(2, 1).
q_scalars = st.integers(-10 ** 20, 10 ** 20) | st.fractions(min_value=-50, max_value=50, max_denominator=6)


def _is_normal(r):
    """The normal form of a rational: an int when integral, a Fraction otherwise."""
    return type(r) is int if Fraction(r).denominator == 1 else type(r) is Fraction


@given(q_scalars, q_scalars)
def test_rational_ops_return_the_normal_form(a, b):
    fa, fb = Fraction(a), Fraction(b)
    for got, want in ((QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
                      (QQ.mul(a, b), fa * fb), (QQ.neg(a), -fa)):
        assert got == want and _is_normal(got)
    if a:
        assert QQ.inv(a) == 1 / fa and _is_normal(QQ.inv(a))


def test_rational_constants_and_integral_parses_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.of_int(-7)) is int and QQ.of_int(-7) == -7
    for text, value in (("4/2", 2), ("3", 3), (3, 3), ("-4/4", -1), ("0/5", 0), ("1e2", 100)):
        assert type(QQ.parse(text)) is int and QQ.parse(text) == value
    assert type(QQ.parse("2/4")) is Fraction


def test_rational_token_memo_is_shared_and_bounded():
    """One memo serves every parse of a process: a bool or float equal to a
    memoised token is still rejected, and the memo never passes its limit."""
    QQ.parse_vector(["1", 1, "2/4"])
    assert QQ.parse_vector(["2/4", 1]) == [Fraction(1, 2), 1]
    for bad in (True, 1.0):
        with pytest.raises(ParseError):
            QQ.parse_vector(["1", bad])
    for n in range(2 * _TOKEN_LIMIT):
        assert QQ.parse(f"{n}/3") == Fraction(n, 3)
        assert len(_TOKENS) <= _TOKEN_LIMIT
    assert QQ.parse("1") == 1 and "1" in _TOKENS


RATIONAL_TEXT = (
    st.integers(-10 ** 30, 10 ** 30).map(str)
    | st.builds(lambda p, q: f"{p}/{q}", st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
    | st.decimals(min_value=-1000, max_value=1000, places=3).map(str)
)


@given(RATIONAL_TEXT)
def test_rational_format_of_a_parse_is_the_fraction_text(text):
    value = QQ.parse(text)
    assert _is_normal(value)
    assert QQ.format(value) == str(Fraction(text))


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
        "from zpbal.errors import ParseError\nfrom zpbal.rationals import QQ\n"
        "try:\n    QQ.parse('1e100000000')\nexcept ParseError as exc:\n    print(type(exc).__name__, exc)")


def test_rational_exponent_limit():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
    assert QQ.parse("1e-3") == Fraction(1, 1000)
    assert QQ.parse(f"1e{limit - 10}") == 10 ** (limit - 10)
    for text in (f"1e{limit}", f"1E-{limit}", "1e" + "9" * (limit + 1)):
        with pytest.raises(ParseError):
            QQ.parse(text)


def _outcome(compute):
    """The value computed, or the ParseError message raised."""
    try:
        return compute()
    except ParseError as exc:
        return f"ParseError: {exc}"


FIELDS = st.sampled_from((F2, F3, F5, QQ))
TOKENS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30),
    st.integers(-60, 60).map(str),
    st.fractions(min_value=-9, max_value=9, max_denominator=12).map(str),
    st.sampled_from(["0", "-0", "x", "", "1/0", "1e2", " 3 ", "2.5"]),
)
NOT_SCALARS = (True, False, 0.5, 2.0, None, [1])


@given(FIELDS, st.lists(TOKENS, max_size=24))
def test_vector_parse_and_format_equal_the_scalar_ones(field, values):
    want = _outcome(lambda: [field.parse(a) for a in values])
    got = _outcome(lambda: field.parse_vector(values))
    assert got == want and [type(a) for a in got] == [type(a) for a in want]
    if isinstance(want, list):
        formatted = field.format_vector(want)
        assert formatted == [field.format(a) for a in want]
        assert [type(a) for a in formatted] == [type(field.format(a)) for a in want]


@given(FIELDS, st.lists(TOKENS, max_size=12), st.sampled_from(NOT_SCALARS), st.integers(0, 12))
def test_vector_parse_rejects_what_scalar_parse_rejects(field, values, bad, pos):
    values = values[:pos] + [bad] + values[pos:]
    want = _outcome(lambda: [field.parse(a) for a in values])
    assert isinstance(want, str)
    assert _outcome(lambda: field.parse_vector(values)) == want


_VECTOR_REJECTS = textwrap.dedent("""
    import sys
    from zpbal.errors import ParseError
    from zpbal.fields import PrimeField
    from zpbal.rationals import QQ

    if not sys.flags.optimize:
        sys.exit("run with python -O")

    def outcome(compute):
        try:
            return compute()
        except ParseError as exc:
            return str(exc)

    checked = 0
    for field in (PrimeField(2), PrimeField(3), PrimeField(5), QQ):
        valid = [0, 1, "1", "2", 7, "0"]
        for bad in (True, False, 0.5, 2.0, None, [1]):
            for pos in range(len(valid) + 1):
                values = valid[:pos] + [bad] + valid[pos:]
                want = outcome(lambda: [field.parse(a) for a in values])
                got = outcome(lambda: field.parse_vector(values))
                if not isinstance(want, str) or got != want:
                    sys.exit(f"{field} {values!r}: {got!r} != {want!r}")
                checked += 1
    print(checked)
""")


def test_vector_parse_rejects_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", _VECTOR_REJECTS], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(4 * 6 * 7)
