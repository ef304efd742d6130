"""Helpers shared by the test modules, and the hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized profile that prints the
blob reproducing any failing example, so a red CI run replays locally.
"""

import os
from decimal import Decimal
from fractions import Fraction

from hypothesis import settings

from hittime.numerics import round_to_digits
from hittime.walkmodel import RESCALE_BITS, TruncationSolution, fraction_bits

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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


def forward_reference(target, die, n, s_min, ctx) -> TruncationSolution:
    """The forward kernel's stepping rule on plain lists, for 0 <= s_min <= n.

    The row r is a floor twin and a ceiling twin, each a list of M ints on
    2^-(c + shift), c = ``fraction_bits(ctx)``.  A non-target state (asked
    of ``target.membership``) adds r[0] to the run's sum and maps r to
    ``r[1:] + r[0] / M`` with ``r[0] / M`` appended, the division rounded
    down or up; a target, or the cutoff, ends the run: its sum is shifted
    onto e's scale 2^-c (rounded the same way) and added to e.  A target
    then drops r[0] and rescales r by 2^RESCALE_BITS while the ceiling
    twin's sum lies in (0, 2^c); a sum of 0 ends the walk.
    """
    m, bits = die.sides, fraction_bits(ctx)
    one = 1 << bits
    lo = [one] + [0] * (m - 1)
    hi = list(lo)
    e_lo = e_hi = run_lo = run_hi = shift = 0
    for s in range(s_min, n + 2):
        if s <= n and not target.membership(s):
            run_lo, run_hi = run_lo + lo[0], run_hi + hi[0]
            q_lo, q_hi = lo[0] // m, -(-hi[0] // m)
            lo = [v + q_lo for v in lo[1:]] + [q_lo]
            hi = [v + q_hi for v in hi[1:]] + [q_hi]
            continue
        e_lo += run_lo >> shift
        e_hi -= -run_hi >> shift
        run_lo = run_hi = 0
        if s > n:
            break
        lo, hi = lo[1:] + [0], hi[1:] + [0]
        if not sum(hi):
            break
        while sum(hi) < one:
            lo = [v << RESCALE_BITS for v in lo]
            hi = [v << RESCALE_BITS for v in hi]
            shift += RESCALE_BITS
    return TruncationSolution(cutoff=n, start=s_min,
                              e_lo=Fraction(e_lo, one), e_hi=Fraction(e_hi, one),
                              p_lo=Fraction(sum(lo), one << shift),
                              p_hi=Fraction(sum(hi), one << shift))
