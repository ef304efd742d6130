"""Helpers shared by the test modules."""

from decimal import Decimal

from hittime.numerics import round_to_digits


def agreed_digits(a: Decimal, b: Decimal, digits: int) -> int:
    """Number of leading significant digits on which ``a`` and ``b`` agree.

    Both values are first rounded to ``digits`` significant digits; the
    count compares sign, decimal exponent and then digit-by-digit, so it is
    conservative near rounding boundaries.  Returns ``digits`` on full
    agreement (including both values being zero).
    """
    ra = round_to_digits(a, digits)
    rb = round_to_digits(b, digits)
    if ra == rb:
        return digits
    if ra.is_zero() or rb.is_zero():
        return 0
    if ra.is_signed() != rb.is_signed():
        return 0
    if ra.adjusted() != rb.adjusted():
        return 0
    da = ra.as_tuple().digits
    db = rb.as_tuple().digits
    n = 0
    for xa, xb in zip(da, db):
        if xa != xb:
            break
        n += 1
    return n
