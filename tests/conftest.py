"""Helpers shared by the test modules, and the hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized profile that prints the
blob reproducing any failing example, so a red CI run replays locally.
"""

import math
import os
from decimal import Decimal
from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

from hittime.numerics import round_to_digits
from hittime.walkmodel import RESCALE_BITS, TargetSet, TruncationSolution, fraction_bits

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


def forward_reference(target, die, n, s_min, ctx, jump_min=math.inf) -> TruncationSolution:
    """The forward kernel's rule on plain lists, for 0 <= s_min <= n.

    The row r is a floor twin and a ceiling twin, each a list of M ints on
    2^-(c + shift), c = ``fraction_bits(ctx)``.  The targets, asked of
    ``target.membership``, split the states into runs of non-target states.

    A run is stepped state by state: each state adds r[0] to the run's sum
    and maps r to ``r[1:] + r[0] / M`` with ``r[0] / M`` appended, the
    division rounded down or up; at the run's end its sum is shifted onto
    e's scale 2^-c (rounded the same way) and added to e.

    With ``jump_min``, a run of g >= jump_min states may instead be jumped
    as in the kernel: the cached power A^span (M rows per twin, each a unit
    row stepped span times on 2^-c, with h summing each row's r[0]) first
    advances ``min(g - span, max(g // M^2, jump_min))`` steps if
    ``span <= g``, and if span then equals g, r becomes ``r A^g`` and e
    gains ``r h``, each a full dot product per twin, floored or ceiled.

    A target then drops r[0] and rescales r by 2^RESCALE_BITS while the
    ceiling twin's sum lies in (0, 2^c); a sum of 0 ends the walk.
    """
    m, bits = die.sides, fraction_bits(ctx)
    one = 1 << bits

    def step(row, up):
        q = -(-row[0] // m) if up else row[0] // m
        return [v + q for v in row[1:]] + [q]

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    lo = [one] + [0] * (m - 1)
    hi = list(lo)
    unit = [[one if j == i else 0 for j in range(m)] for i in range(m)]
    power = {up: [list(row) for row in unit] for up in (False, True)}  # keyed by "rounds up"
    h = {False: [0] * m, True: [0] * m}
    e_lo = e_hi = shift = span = 0
    p = s_min
    for t in [s for s in range(s_min, n + 1) if target.membership(s)] + [n + 1]:
        g = t - p
        if jump_min <= g and span <= g:
            d = min(g - span, max(g // (m * m), jump_min))
            for up, rows in power.items():
                for i, row in enumerate(rows):
                    for _ in range(d):
                        h[up][i] += row[0]
                        row = step(row, up)
                    rows[i] = row
            span += d
        if jump_min <= g == span:
            e_lo += dot(lo, h[False]) >> (bits + shift)
            e_hi -= -dot(hi, h[True]) >> (bits + shift)
            lo = [dot(lo, col) >> bits for col in zip(*power[False])]
            hi = [-(-dot(hi, col) >> bits) for col in zip(*power[True])]
        else:
            run_lo = run_hi = 0
            for _ in range(g):
                run_lo, run_hi = run_lo + lo[0], run_hi + hi[0]
                lo, hi = step(lo, False), step(hi, True)
            e_lo += run_lo >> shift
            e_hi -= -run_hi >> shift
        if t > n:
            break
        lo, hi = lo[1:] + [0], hi[1:] + [0]
        if not sum(hi):
            break
        while sum(hi) < one:
            lo = [v << RESCALE_BITS for v in lo]
            hi = [v << RESCALE_BITS for v in hi]
            shift += RESCALE_BITS
        p = t + 1
    return TruncationSolution(cutoff=n, start=s_min,
                              e_lo=Fraction(e_lo, one), e_hi=Fraction(e_hi, one),
                              p_lo=Fraction(sum(lo), one << shift),
                              p_hi=Fraction(sum(hi), one << shift))


def fraction_tables(target, n, s_min, die):
    """Exact (E, P) for the states s_min .. n by the plain-Fraction recurrence.

    E = 1 + mean and P = mean of the M values above, off the targets; 0 on
    targets; beyond the cutoff E = 0 and P = 1.
    """
    m = die.sides
    size = n - s_min + 1
    e_arr = [Fraction(0)] * (size + m)
    p_arr = [Fraction(0)] * size + [Fraction(1)] * m
    for s in range(n, s_min - 1, -1):
        idx = s - s_min
        if not target.membership(s):
            e_arr[idx] = 1 + sum(e_arr[idx + 1:idx + m + 1]) / m
            p_arr[idx] = sum(p_arr[idx + 1:idx + m + 1]) / m
    return e_arr[:size], p_arr[:size]


@st.composite
def finite_targets(draw):
    """A cutoff N <= 300 and a finite target answerable up to N.

    Complete lists may run past N and include 0 and/or N; bounded lists
    and predicate tables declare a bound at or above N.  Dense predicate
    tables drive P far below 10^-20 at the larger cutoffs.
    """
    n = draw(st.integers(0, 300))
    form = draw(st.sampled_from(["complete", "bounded", "predicate", "dense"]))
    if form == "complete":
        elements = draw(st.sets(st.integers(0, n + 20)))
        elements |= draw(st.sets(st.sampled_from([0, n]), min_size=1))
        return n, TargetSet.from_list(sorted(elements))
    bound = draw(st.integers(n, n + 20))
    if form == "bounded":
        elements = draw(st.sets(st.integers(0, bound), min_size=1))
        return n, TargetSet.from_list(sorted(elements), bound=bound)
    if form == "predicate":
        flags = draw(st.lists(st.booleans(), min_size=bound + 1, max_size=bound + 1))
    else:
        # Mostly targets, but every gap-th state is open, so walks keep
        # surviving with ever smaller probability instead of none at all.
        gap = draw(st.integers(2, 3))
        rnd = draw(st.randoms(use_true_random=False))
        flags = [h % gap != 0 and rnd.random() < 0.9 for h in range(bound + 1)]
    return n, TargetSet(frozenset(h for h, flag in enumerate(flags) if flag), bound)
