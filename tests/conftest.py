"""Helpers shared by the test modules, and the hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized profile that prints the
blob reproducing any failing example, so a red CI run replays locally.
"""

import decimal
import math
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from hittime.numerics import PrecisionContext, round_to_digits
from hittime.oracle import McResult, _result_from_sums
from hittime.walkmodel import DieModel, TargetSet, TruncationSolution, fraction_bits

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def rational_to_decimal(q: Fraction, ctx: PrecisionContext,
                        rounding: str = decimal.ROUND_HALF_EVEN) -> Decimal:
    """Evaluate an exact rational at the context's internal precision.

    The single division is correctly rounded in the given direction, so
    ``ROUND_FLOOR`` gives a lower and ``ROUND_CEILING`` an upper bound on
    ``q``; either way the result is within one unit in the last internal
    digit.
    """
    return round_to_digits(q, ctx.internal_digits, rounding)


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


# The bits a jump keeps below the mass of r.  forward_reference keeps its
# own copy, so a change to the kernel's cut fails the equality tests
# instead of moving both sides.
CUT_GUARD = 8


def forward_reference(target, die, n, s_min, ctx, jump_min=math.inf,
                      twins=False, zero_row_stops=True) -> TruncationSolution:
    """The forward kernel's rule on plain lists, for 0 <= s_min <= n.

    The row r is a floor twin and a ceiling twin, each a list of M ints on
    2^-c, c = ``fraction_bits(ctx)``, the scale of e too.  The targets,
    asked of ``target.membership``, split the states into runs of
    non-target states.  rho = (2M + floor(M^2 / 2^CUT_GUARD)) (p - s_min)
    bounds the floor twin's l1 deficit before state p.

    A run is stepped state by state: each state adds r[0] to e and maps r
    to ``r[1:] + r[0] / M`` with ``r[0] / M`` appended, the division
    rounded down or up.

    With ``jump_min``, a run of g >= max(jump_min, M) states is instead
    jumped as in the kernel if the floor twin's cached power A^span (M
    rows, each a unit row stepped span times on 2^-c) has ``span <= g``.
    A twin whose M rows all read (Mx, (M-1)x, ..., x) is settled: a step
    of either rounding passes Mx / M = x on and gives it back, so it is
    A^g for every g >= span.  The floor power advances toward g in pieces
    of at most max(jump_min, M) steps, as the kernel's, and stops between
    pieces once settled.  The ceiling power keeps its own span: it steps
    toward g one step at a time, stopping once settled, and restarts from
    the unit rows when g is below its span, so each twin is A^g of its
    own rounding.  r then becomes ``r' = r A^g``, a full dot
    product per twin, using the power cut to what r's mass can see: with
    ``cut = c - bitlen(sum(lo) + rho) - CUT_GUARD`` (at least 0), each term
    of an entry of A^g (the differences along its row, of which the entry
    is the suffix sum) is divided by 2^cut, rounded down or up, and the
    products are shifted by c - cut, rounded the same way.  e gains
    ``2 (r' . (g+j) - r . j) / (M+1)`` over j = 0 .. M-1, rounded down with
    the lower r' and ``lo . j + (M-1) rho`` for r . j, or up with the upper
    r' and the lower r.  A floor twin that is all zero adds nothing to
    e_lo, jumped or stepped: a zero row stays zero, and the exact terms
    still to come are nonnegative.  With ``zero_row_stops`` False its
    jumps still add their negative ``-2 (M-1) rho / (M+1)``, the rule
    before the kernel stopped at a zero row.

    A target then drops r[0]; a ceiling twin summing to 0 ends the walk.

    The result takes the floor twin's e and sum(r) as its lower ends.  By
    default its upper ends are the kernel's a priori ones: e_lo + W_E and
    p_lo + W_P, with W_P = rho at p = N + 1 and W_E = (N - s_min + 1)
    (4 W_P + 1), and p_hi = 0 once the walk has ended.  With ``twins`` they
    are the ceiling twin's instead, the widths it measures.
    """
    m, bits = die.sides, fraction_bits(ctx)
    one = 1 << bits
    rate = 2 * m + m * m // (1 << CUT_GUARD)

    def step(row, up):
        q = -(-row[0] // m) if up else row[0] // m
        return [v + q for v in row[1:]] + [q]

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def down(x, k):
        return x >> k

    def up(x, k):
        return -(-x >> k)

    def settled(rows):
        # every row (Mx, (M-1)x, ..., x): a step of either rounding passes
        # Mx / M = x on and gives the row back
        fixed = [(m - j) * rows[0][-1] for j in range(m)]
        return all(row == fixed for row in rows)

    def advance(rows, span, g, piece, rounds_up):
        # step toward g in pieces of at most `piece` steps, stopping
        # between pieces at a settled twin, which is A^g already
        while span < g and not settled(rows):
            d = min(g - span, piece)
            for _ in range(d):
                rows = [step(row, rounds_up) for row in rows]
            span += d
        return rows, span

    def cut_rows(rows, k, rnd):
        cut = []
        for row in rows:
            terms = [rnd(a - b, k) for a, b in zip(row, row[1:] + [0])]
            cut.append([sum(terms[j:]) for j in range(m)])
        return cut

    lo = [one] + [0] * (m - 1)
    hi = list(lo)
    unit = [[one if j == i else 0 for j in range(m)] for i in range(m)]
    power = {rounds_up: [list(row) for row in unit] for rounds_up in (False, True)}
    e_lo = e_hi = 0
    span = {rounds_up: 0 for rounds_up in (False, True)}
    p = s_min
    least = max(jump_min, m)
    for t in [s for s in range(s_min, n + 1) if target.membership(s)] + [n + 1]:
        g = t - p
        if least <= g and span[False] <= g:
            power[False], span[False] = advance(power[False], span[False], g, least, False)
            if span[True] > g:
                power[True], span[True] = [list(row) for row in unit], 0
            power[True], span[True] = advance(power[True], span[True], g, 1, True)
            rho = rate * (p - s_min)
            k = max(0, bits - (sum(lo) + rho).bit_length() - CUT_GUARD)
            new_lo = [down(dot(lo, col), bits - k) for col in zip(*cut_rows(power[False], k, down))]
            new_hi = [up(dot(hi, col), bits - k) for col in zip(*cut_rows(power[True], k, up))]
            after, before = range(g, g + m), range(m)
            if any(lo) or not zero_row_stops:
                e_lo += (2 * (dot(new_lo, after) - dot(lo, before) - (m - 1) * rho)) // (m + 1)
            e_hi += -((2 * (dot(lo, before) - dot(new_hi, after))) // (m + 1))
            lo, hi = new_lo, new_hi
        else:
            for _ in range(g):
                e_lo, e_hi = e_lo + lo[0], e_hi + hi[0]
                lo, hi = step(lo, False), step(hi, True)
        if t > n:
            break
        lo, hi = lo[1:] + [0], hi[1:] + [0]
        if not sum(hi):
            break
        p = t + 1
    p_lo, p_hi = sum(lo), sum(hi)
    if not twins:
        width_p = rate * (n + 1 - s_min)
        e_hi = e_lo + (n + 1 - s_min) * (4 * width_p + 1)
        p_hi = p_lo + width_p if p_hi else 0
    return TruncationSolution(cutoff=n, start=s_min,
                              e_lo=Fraction(e_lo, one), e_hi=Fraction(e_hi, one),
                              p_lo=Fraction(p_lo, one), p_hi=Fraction(p_hi, one))


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
    return n, TargetSet(tuple(h for h, flag in enumerate(flags) if flag), bound)


# The Monte Carlo draw's shape: walks running at once and rolls per
# slice.  mc_reference keeps its own copy, so a change to the oracle's
# draw fails the equality test instead of moving both sides.
MC_POOL = 1 << 14
MC_SLICE = 8


def mc_reference(cfg) -> McResult:
    """``simulate_hitting``'s draw, kept over walk indices into per-trial arrays.

    ``pool`` lists the running walks' trial indices in pool order.  Each
    slice draws a (pool size) x width array of faces 1 .. M in the
    narrowest type that holds M, the width being ``MC_SLICE`` or what the
    walk with most rolls has left of ``max_steps``.  A walk that hits in
    it records T = its earlier rolls + the roll it hit on, and leaves; so
    does a walk that ends the slice past a finite target's horizon or
    after ``max_steps`` rolls, counted as capped.  The next trials by
    index then join at the end of the pool until it holds ``MC_POOL``.
    Targets are found by ``np.isin`` against the squares of the roots
    ``math.isqrt`` brackets, or against the finite target's member list.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    m = cfg.die.sides
    target = cfg.target
    bound = target.horizon
    if target.membership(cfg.start):
        return _result_from_sums(cfg.trials, 0, 0, 0)
    members = None if bound is None else target.members_upto(bound)

    sums = np.full(cfg.trials, cfg.start, dtype=np.int64)
    rolls = np.zeros(cfg.trials, dtype=np.int64)
    pool = np.arange(min(cfg.trials, MC_POOL))
    joined = pool.size
    completed = 0
    capped = 0
    sum_t = 0
    sum_t_sq = 0
    while pool.size > 0:
        width = min(MC_SLICE, cfg.max_steps - int(rolls[pool].max()))
        faces = rng.integers(1, m + 1, size=(pool.size, width), dtype=np.min_scalar_type(m))
        paths = sums[pool, None] + np.cumsum(faces, axis=1, dtype=np.int64)
        if members is None:
            roots = np.arange(math.isqrt(int(paths.min())),
                              math.isqrt(int(paths.max())) + 1)
            hits = np.isin(paths, roots * roots)
        else:
            hits = np.isin(paths, members)
        hit_any = hits.any(axis=1)
        first = np.argmax(hits, axis=1)
        if hit_any.any():
            t_vals = rolls[pool[hit_any]] + first[hit_any] + 1
            completed += int(hit_any.sum())
            sum_t += int(t_vals.sum())
            sum_t_sq += int((t_vals * t_vals).sum())
        sums[pool] = paths[:, -1]
        rolls[pool] += width
        pool = pool[~hit_any]
        out = rolls[pool] == cfg.max_steps
        if bound is not None:
            # Past the declared bound the walk can never be seen to hit.
            out |= sums[pool] > bound
        capped += int(out.sum())
        pool = pool[~out]
        fresh = min(cfg.trials - joined, MC_POOL - pool.size)
        pool = np.concatenate([pool, np.arange(joined, joined + fresh)])
        joined += fresh

    return _result_from_sums(completed, capped, sum_t, sum_t_sq)


def merge_results(a: McResult, b: McResult) -> McResult:
    """Combine partitioned batches; exact, hence order-independent."""
    return _result_from_sums(a.trials_completed + b.trials_completed,
                             a.capped_trials + b.capped_trials,
                             a.sum_t + b.sum_t,
                             a.sum_t_sq + b.sum_t_sq)


def simulate_ever_hit(n: int, trials: int, seed: int,
                      die: DieModel = DieModel(6)) -> float:
    """Fraction of walks from 0 that visit ``n`` before exceeding it.

    Each roll advances by at least 1, so ``n`` rolls always suffice to
    reach or pass ``n``; one block of that many rolls decides every trial.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = die.sides
    hits = 0
    remaining = trials
    chunk_size = max(1, min(MC_POOL, (1 << 21) // n))
    while remaining > 0:
        chunk = min(remaining, chunk_size)
        remaining -= chunk
        rolls = 1 + np.floor(m * rng.random((chunk, n))).astype(np.int64)
        paths = np.cumsum(rolls, axis=1)
        reached = paths >= n
        first = np.argmax(reached, axis=1)
        hits += int((paths[np.arange(chunk), first] == n).sum())
    return hits / trials


def pn_reference(n: int) -> Fraction:
    """Exact p_n from the six-term recurrence, one Fraction step at a time."""
    window = [Fraction(0)] * 6  # p_{k-1} .. p_{k-6}, seeded with p_0 = 1
    window[0] = Fraction(1)
    if n == 0:
        return Fraction(1)
    value = Fraction(0)
    for _ in range(n):
        value = sum(window) / 6
        window = [value] + window[:5]
    return value


def pn_numerators_six_term(n_max: int) -> list[int]:
    """[Q_0, ..., Q_n_max], Q_n = 6^n p_n, from the six-term recurrence.

    Multiplying p_n = (p_{n-1} + ... + p_{n-6}) / 6 by 6^n gives
    Q_n = sum over j = 1..6 of 6^(j-1) Q_{n-j}, with Q_0 = 1 and Q_n = 0
    for n < 0.
    """
    q = [1]
    for n in range(1, n_max + 1):
        q.append(sum(6**(j - 1) * q[n - j] for j in range(1, 7) if j <= n))
    return q
