"""Precision contexts, rational conversion, and digit tools."""

import random
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from fractions import Fraction

import pytest

from conftest import agreed_digits, rational_to_decimal
from hittime.numerics import (
    PrecisionTooLowError,
    digit_string,
    make_context,
    round_to_digits,
)


def test_make_context_boundaries():
    ctx = make_context(30)
    assert ctx.working_digits == 30
    assert ctx.internal_digits == 45
    with pytest.raises(PrecisionTooLowError):
        make_context(29)


def test_make_context_large():
    ctx = make_context(1200)
    assert ctx.internal_digits >= 1210


def test_rational_to_decimal_examples():
    ctx = make_context(30)
    assert digit_string(rational_to_decimal(Fraction(1, 6), ctx), 10) == "0.1666666667"
    assert digit_string(rational_to_decimal(Fraction(2, 7), ctx), 10) == "0.2857142857"
    assert rational_to_decimal(Fraction(0, 1), ctx) == 0


def test_rational_to_decimal_unit_in_last_place():
    ctx = make_context(40)
    rng = random.Random(2024)
    for _ in range(200):
        q = Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**12))
        got = rational_to_decimal(q, ctx)
        err = abs(Fraction(got) - q)
        if q != 0:
            assert err <= abs(q) * Fraction(1, 10**ctx.working_digits)


def test_determinism_byte_identical():
    ctx = make_context(50)
    a = str(rational_to_decimal(Fraction(355, 113), ctx))
    b = str(rational_to_decimal(Fraction(355, 113), ctx))
    assert a == b


def test_coarse_refines_to_fine():
    # The coarse-precision digits of a finer evaluation match the coarse
    # evaluation to within one unit in the last place.
    coarse = make_context(35)
    fine = make_context(90)
    rng = random.Random(7)
    for _ in range(100):
        q = Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**9))
        at_coarse = round_to_digits(rational_to_decimal(q, coarse), 35)
        refined = round_to_digits(rational_to_decimal(q, fine), 35)
        ulp = Decimal(1).scaleb(at_coarse.adjusted() - 34)
        assert abs(at_coarse - refined) <= ulp


def test_fraction_field_axioms():
    rng = random.Random(99)
    for _ in range(300):
        a = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 1000))
        b = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 1000))
        c = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 1000))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + b).denominator > 0
        if b != 0:
            assert (a / b) * b == a


def test_digit_string_significant_digits():
    assert digit_string(Decimal("123.456789"), 5) == "123.46"
    assert digit_string(Decimal("1.508850331472307815412722898448210123557E-1023"), 10) \
        == "1.508850331E-1023"


def test_digit_string_directed_rounding_of_fractions():
    # a Fraction is rounded once from its exact value, in the asked direction
    assert digit_string(Fraction(2, 3), 5) == "0.66667"
    assert digit_string(Fraction(2, 3), 5, ROUND_FLOOR) == "0.66666"
    assert digit_string(Fraction(2, 3), 5, ROUND_CEILING) == "0.66667"
    assert digit_string(Fraction(-2, 3), 5, ROUND_FLOOR) == "-0.66667"
    assert digit_string(Fraction(1, 4), 5, ROUND_CEILING) == "0.25"
    assert digit_string(Fraction(0), 5, ROUND_CEILING) == "0"
    assert digit_string(Decimal("1.23456"), 3, ROUND_CEILING) == "1.24"
    rng = random.Random(11)
    for _ in range(200):
        q = Fraction(rng.randrange(-10**30, 10**30), rng.randrange(1, 10**30))
        assert Fraction(Decimal(digit_string(q, 20, ROUND_FLOOR))) <= q
        assert Fraction(Decimal(digit_string(q, 20, ROUND_CEILING))) >= q


def test_agreed_digits_cases():
    assert agreed_digits(Decimal("0.123456"), Decimal("0.123499"), 6) == 4
    assert agreed_digits(Decimal("1"), Decimal("2"), 10) == 0
    assert agreed_digits(Decimal("5"), Decimal("5"), 12) == 12
    assert agreed_digits(Decimal("0"), Decimal("0"), 9) == 9
    assert agreed_digits(Decimal("1"), Decimal("-1"), 9) == 0
    assert agreed_digits(Decimal("1"), Decimal("10"), 9) == 0

