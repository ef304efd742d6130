"""Cumulative-sum walk, target sets, and the truncated recursions.

The process adds i.i.d. uniform increments from ``{1, ..., M}`` to a running
sum until the sum lies in a target set of nonnegative integers.  For a
cutoff ``N`` two quantities are solved at a requested start state:

* the truncated expected hitting time ``E_N(s)``, with value 0 on target
  states ``<= N`` and 0 beyond the cutoff, and otherwise
  ``E_N(s) = 1 + (E_N(s+1) + ... + E_N(s+M)) / M``;
* the overshoot probability ``P_s`` of crossing the cutoff before hitting
  the target, with value 0 on target states ``<= N``, 1 beyond the cutoff,
  and otherwise the plain average of the M forward neighbors.

Both recursions depend only on the M states above ``s``.
:func:`solve_pair` walks forward from the start state, keeping the value
there as an affine function of an M-state window.  Between targets the
window map is one fixed matrix A, so a long run of g non-target states is
crossed in one jump by a cached power A^g.  A shifts unit rows,
e_i A = e_(i-1), so row i of A^g is row 0 of A^(g-i), rounding included,
and A^g is kept as the one scalar sequence that row 0 passes on, two
values per run on the squares: O(K M^2) big-integer operations in constant
memory for N = K^2, and O(1) per state for short runs.  It works in fixed
point: every value is a Python int standing for that int times a power of
2, so every rounding step is explicit and directed, and a twin rounding
down and a twin rounding up enclose the exact values.  The result, a
:class:`TruncationSolution`, holds both enclosures as exact
:class:`~fractions.Fraction` bounds; nothing is rounded to decimals here.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .numerics import PrecisionContext

__all__ = [
    "ConfigError",
    "DieModel",
    "TargetSet",
    "TargetSetError",
    "CutoffExceedsBoundError",
    "TruncationSolution",
    "fraction_bits",
    "solve_pair",
]

# Progress callbacks fire every this many states during a solve.
PROGRESS_INTERVAL = 1 << 20

# Runs of at least this many non-target states may be crossed in one jump
# by a cached power of the window map (see solve_pair).
JUMP_MIN = 128

# Bits carried below the context's internal digits.  solve_pair's twins
# round a few times per state or per jump, so on the squares the width of
# E_N's enclosure grows like 7 K^2 units of 2^-c (measured in
# certify.recommended_digits); these bits keep it far below one unit in
# the last internal digit.
GUARD_BITS = 128

# Bits of a jump's products kept below the mass of r: each jump cuts the
# cached power's q window to what sum(r) can see, less these bits, so a
# cut costs each product at most about 2^-CUT_GUARD units.
CUT_GUARD = 8


class ConfigError(ValueError):
    """Invalid input (an option, size or target); any other ValueError is internal."""


class TargetSetError(ConfigError):
    """Malformed target-set definition (file syntax, emptiness, ordering)."""


class CutoffExceedsBoundError(ConfigError):
    """The requested cutoff lies beyond the target's declared bound."""


@dataclass(frozen=True)
class DieModel:
    """Fair die with faces ``1..sides``; increments are uniform on that set."""

    sides: int = 6

    def __post_init__(self) -> None:
        if self.sides < 2:
            raise ConfigError(f"die must have at least 2 sides, got {self.sides}")


@dataclass(frozen=True)
class TargetSet:
    """Membership oracle over the nonnegative integers.

    ``elements`` of ``None`` means the perfect squares (unbounded,
    membership by integer square root, 0 excluded); otherwise it is the
    finite set of target states.  A ``declared_bound`` of ``None`` means
    membership is answerable for every nonnegative integer: always for
    squares, and for explicit lists that enumerate the complete target set.
    A bounded target only answers membership up to its bound, and solves
    beyond it are refused.
    """

    elements: frozenset[int] | None = None
    declared_bound: int | None = None

    @classmethod
    def perfect_squares(cls) -> "TargetSet":
        return cls()

    @classmethod
    def from_list(cls, elements: list[int], bound: int | None = None) -> "TargetSet":
        """Explicit target set.

        ``bound=None`` declares the list complete (membership answerable
        everywhere); a numeric bound declares it complete only up to there.
        """
        if not elements:
            raise TargetSetError("explicit target set is empty")
        prev = -1
        for e in elements:
            if e < 0:
                raise TargetSetError(f"target elements must be nonnegative, got {e}")
            if e <= prev:
                raise TargetSetError("target elements must be strictly increasing")
            prev = e
        if bound is not None and bound < elements[-1]:
            raise TargetSetError(
                f"declared bound {bound} is below the largest element {elements[-1]}"
            )
        return cls(elements=frozenset(elements), declared_bound=bound)

    @classmethod
    def from_file(cls, path: str | Path) -> "TargetSet":
        """Parse the explicit-list file format.

        One nonnegative integer per line, strictly increasing.  Without a
        header the file is taken as the complete target set; an optional
        first line ``# bound <declared_bound>`` declares instead that only
        elements up to that bound are enumerated.
        """
        bound: int | None = None
        elements: list[int] = []
        try:
            lines = Path(path).read_text().splitlines()
        except UnicodeDecodeError:
            raise TargetSetError(f"target file {str(path)!r} is not text") from None
        start = 0
        if lines and lines[0].startswith("#"):
            parts = lines[0].split()
            if len(parts) == 3 and parts[0] == "#" and parts[1] == "bound":
                try:
                    bound = int(parts[2])
                except ValueError:
                    raise TargetSetError(f"bad bound header: {lines[0]!r}") from None
            else:
                raise TargetSetError(f"unrecognized header line: {lines[0]!r}")
            start = 1
        for ln in lines[start:]:
            ln = ln.strip()
            if not ln:
                continue
            try:
                elements.append(int(ln))
            except ValueError:
                raise TargetSetError(f"bad target element: {ln!r}") from None
        return cls.from_list(elements, bound)

    def membership(self, h: int) -> bool:
        """Whether ``h`` is a target state; defined for 0 <= h <= bound."""
        if h < 0:
            raise ValueError("states are nonnegative")
        if self.elements is None:
            if h < 1:
                return False
            r = math.isqrt(h)
            return r * r == h
        if self.declared_bound is not None and h > self.declared_bound:
            raise CutoffExceedsBoundError(
                f"membership({h}) undefined beyond declared bound {self.declared_bound}"
            )
        return h in self.elements

    def ensure_bound(self, n: int) -> None:
        if self.declared_bound is not None and n > self.declared_bound:
            raise CutoffExceedsBoundError(
                f"cutoff {n} exceeds target's declared bound {self.declared_bound}"
            )

    def members_upto(self, n: int) -> list[int]:
        """Target states ``<= n`` in ascending order; ``n`` within the bound."""
        self.ensure_bound(n)
        if self.elements is None:
            return [k * k for k in range(1, math.isqrt(n) + 1)]
        return sorted(h for h in self.elements if h <= n)

    @property
    def horizon(self) -> int | None:
        """Largest state a walk may reach and still eventually hit.

        ``None`` for squares (every band holds a square).  A monotone walk
        that passes the horizon of a finite or bounded target can never be
        observed to hit it.
        """
        if self.elements is None:
            return None
        if self.declared_bound is None:
            return max(self.elements)
        return self.declared_bound


def fraction_bits(ctx: PrecisionContext) -> int:
    """Fraction bits c of the solver's fixed point for a context.

    c = ceil(internal_digits * log2(10)) + GUARD_BITS; a value v stands
    for v * 2^-c.
    """
    return (10 ** ctx.internal_digits).bit_length() + GUARD_BITS


@dataclass(frozen=True)
class TruncationSolution:
    """Exact bounds ``e_lo <= E_N(s) <= e_hi`` and ``p_lo <= P_s <= p_hi``.

    One solve's result at start state ``start`` for cutoff ``cutoff``;
    ``e_n_value`` and ``overshoot_prob`` name the lower ends.
    """

    cutoff: int
    start: int
    e_lo: Fraction
    e_hi: Fraction
    p_lo: Fraction
    p_hi: Fraction

    @property
    def e_n_value(self) -> Fraction:
        return self.e_lo

    @property
    def overshoot_prob(self) -> Fraction:
        return self.p_lo


def solve_pair(target: TargetSet, die: DieModel, n: int, s_min: int,
               ctx: PrecisionContext,
               progress: Callable[[float, int], None] | None = None) -> TruncationSolution:
    """Forward fixed-point solve returning the solution pair at ``s_min``.

    Start states above the cutoff report the boundary values (0, 1)
    exactly.  Otherwise the states ``s_min .. n`` are covered in ascending
    order, and about every ``PROGRESS_INTERVAL`` states ``progress(d, G)``
    is called with the number d of the G runs of non-target states (the
    gaps before, between and after the targets) covered so far, plus the
    covered share of the current run and the target that ends it, so d
    rises within one long run too.

    The kernel keeps the value at ``s_min`` as an affine function of the
    M-state window above the states covered so far::

        v(s_min) = e + r[0] v(p) + ... + r[M-1] v(p+M-1),

    starting from ``p = s_min``, ``r = (1, 0, ..., 0)`` and ``e = 0``.  The
    same row r serves E_N and P, which differ only in their constant term
    (1 and 0), carried by e for E_N alone.  Covering state p eliminates
    v(p) from the window:

    * a target state has ``v(p) = 0``, so r shifts left and its last entry
      is 0;
    * a non-target state has ``v(p) = mean(v(p+1), ..., v(p+M))``, plus 1
      for E_N, so ``r <- r A`` with A the window map
      (``r'[j] = r[j+1] + r[0]/M``, ``r'[M-1] = r[0]/M``) and
      ``e <- e + r[0]``.

    Once p passes the cutoff every window state is a boundary state, so
    ``E_N(s_min) = e`` and ``P_s = r[0] + ... + r[M-1]``.

    A run of g non-target states between targets applies A^g, and adds
    ``r h_g`` to e with ``h_g = (I + A + ... + A^(g-1)) e_0``, the r[0]
    summed over the run.  Runs of at least ``JUMP_MIN`` states use one
    cached power ``A^span``: when ``g >= span``, the power advances
    toward g by at most ``max(g // M^2, JUMP_MIN)`` A-steps, and if it
    reaches g the run is crossed in one jump, ``r <- r A^g``.  The power
    only advances, so on the squares (runs of 2k states) it costs two
    A-steps per run.  Every other run steps r state by state.  An A-step
    of the power costs about one state step, so the cap keeps what is
    spent advancing toward a run the power does not reach to about 1/M^2
    of the cost of stepping that run.

    Every row, r and the cached power alike, is kept per twin in one
    difference form: the last M values d that it passed on, newest first,
    and r[0].  A step passes x = r[0] / M on, rounded down in the lower
    twin and up in the upper one, and ``r'[j] = r[j+1] + x``, so
    ``r[j] = d[0] + ... + d[M-1-j]``, and r[0] gains x and loses the oldest
    d.  A target is a step that passes 0 on, and the walk ends once the
    upper twin's d are all 0.  One loop steps both twins of either row.

    The power is e_0 stepped span times.  Row i of A^span is e_i stepped
    span times; its first i steps have r[0] = 0, so they are exact shifts
    in either twin, and the row is e_0 stepped span - i times, rounding
    included.  e_0 passed on one value, q_(-M) = one, before the steps;
    step t passes q_t on and has r[0] = c_t, so, with every other q before
    t = 0 zero::

        c_t = q_(t-1) + ... + q_(t-M)
        A^span[i][j] = q_(span-i-1) + ... + q_(span-i-(M-j))  for i <= span

    Advancing the power by d steps passes d values of q per twin, of which
    the last 2M - 1 are kept.  A jump reads them with q_(-M) as 0, which
    leaves row i = g + j of A^g, e_j, to the shift: it forms
    ``D_k = r . (q_k, ..., q_(k-M+1))`` for k = g-1 .. g-M, and then
    ``(r A^g)[j] = D_(g-1) + ... + D_(g-M+j) + one r[g+j]``, with r[g+j] = 0
    past the window, is the same integer as the full product.  The floored
    or ceiled partial sums F_i = (D_(g-1) + ... + D_(g-1-i)) / one are
    r'[M-1-i] but for the shift, so the differences of r' are
    F_i - F_(i-1), plus those of r shifted by g.

    Two identities on Python ints give these sums with one product of
    full-size factors per jump, in the lower twin; every other product has
    a short or a few-word factor.  With S = sum(lo), base b = q_(g-1) and
    delta_t = q_t - b in the lower twin, one product serves every window::

        D_k = S b + lo . (delta_k, ..., delta_(k-M+1))

    The upper twin adds to each lower sum one fused dot, with slack =
    hi - lo and x a q window::

        hi . x_hi = lo . x_lo + sum(slack) b
                    + (hi || slack) . (x_hi - x_lo || x_lo - b)

    A is a mixing stochastic matrix, so q_t converges like |w|^t, where
    |w| < 1 is the largest modulus of A's other eigenvalues (about
    2^-0.454 for M = 6): on long runs delta is hundreds of bits shorter
    than q, and the twins differ by a few words throughout.  Both sides of
    each identity are the same integer, so the floor and ceiling that
    follow act on exactly the sums of the plain products: the twins, and
    the proof below, are unchanged.

    A jump's E term ``r h_g`` comes from Wald's identity: the mean roll is
    (M+1)/2, so ``l(s) = -2s/(M+1)`` solves E_N's off-target recursion
    everywhere, ``l(s) = 1 + mean(l(s+1), ..., l(s+M))``.  Covering the
    run's g states from p with l in place of v, as above, moves the same
    constants ``r h_g`` into e and leaves ``r' = r A^g`` on the window at
    p + g, so ``r . l(p, ..., p+M-1) = r h_g + r' . l(p+g, ..., p+g+M-1)``.
    A is stochastic, so sum(r') = sum(r), the terms in p cancel, and::

        r h_g = 2/(M+1) (r' . (g, ..., g+M-1) - r . (0, ..., M-1))

    exactly.  The jump adds ``2 (lo' . (g+j) - hi . j) / (M+1)`` to e_lo,
    rounded down, and ``2 (hi' . (g+j) - lo . j) / (M+1)`` to e_hi, rounded
    up, with lo', hi' the twins of r' and j = 0 .. M-1.  The term rises
    with r' and falls with r, so each end takes r' from its own twin and r
    from the other.  Stepped runs still add r[0] to e state by state.

    The kernel works in fixed point on 2^-c, c = :func:`fraction_bits`,
    with two twins of every quantity: one that rounds every division by M
    and every right shift (after a product, or onto e's scale) down, and
    one that rounds them up.  r stands on e's grid, so as its mass P
    falls it keeps fewer bits: E_N and P reach the answer only through
    absolute errors.  A jump's products see no more of the power than r's
    mass can use.  With ``cut = c - bitlen(sum(hi)) - CUT_GUARD`` (at least
    0), the q window is divided by 2^cut, rounded down in the lower twin
    and up in the upper one, and the products are
    shifted by c - cut, not c.  The cut values are nonnegative and rounded
    outward, so the proof below covers them.  A row sum of at most M(M+1)/2
    cut values of q, each short by less than 2^cut, times sum(r) <
    2^(c - cut - CUT_GUARD), costs r less than M(M+1)/2 2^-CUT_GUARD units
    of 2^-c per twin and jump.

    The twins enclose the exact values.  Claim: at every stage
    ``lo <= r <= hi`` entrywise, ``e_lo <= e <= e_hi``, and likewise for
    the cached power, all on their common scales.  It holds at the start,
    where every quantity is exact.  Every operation the kernel applies is
    built from sums and products of nonnegative numbers (the entries of r,
    of A and its powers, and the constant 1/M) followed by one floor in
    the lower twin and one ceiling in the upper twin; sums and products of
    nonnegative numbers are monotone in every argument, so ordered inputs
    give ordered outputs, and the floor keeps the lower result below the
    exact one and the ceiling keeps the upper result above it.  The one
    difference, a jump's E term, takes each argument from the side that
    keeps it ordered.  Target shifts are exact.  So by induction over the
    covered states the claim holds at the cutoff, where
    ``e_lo <= E_N(s_min) <= e_hi`` and ``sum(lo) <= P_s <= sum(hi)``.
    A ceiling maps positive to positive and 0 to 0, so the upper twin is 0
    exactly where the exact value is: ``p_hi == 0`` exactly when P is 0.

    P's enclosure is narrow in absolute terms.  Let a = P - sum(lo) and
    b = sum(hi) - P, in units of 2^-c, with P here the exact row's sum,
    at most 1.  A step keeps P (A is stochastic), and its division by M
    moves each twin's sum by at most M - 1, so it raises a and b by at
    most M - 1 each.  A drop removes an entry lying between its twins, so
    it raises neither.  A jump over g states keeps P; each power row used
    is e_0 stepped at most g times, so its sum is within (M - 1) g units
    of 2^c, and with the cut and the M final roundings a jump raises a by
    at most (M - 1) g + M + M(M+1)/2 2^-CUT_GUARD and b by at most
    (1 + b 2^-c)(M - 1) g + M + M(M+1)/2 2^-CUT_GUARD.  Every jump covers
    at least one of the at most N - s_min + 1 non-target states, so

        p_hi - p_lo <= 4 M (N - s_min + 1) 2^-c

    whenever M(M + 1) <= 2^CUT_GUARD and 4 M^2 (N + 1) <= 2^c.  P itself
    may be far smaller: below 2^-c, p_lo can be 0 while p_hi > 0.
    """
    if n < 0:
        raise ValueError("cutoff must be nonnegative")
    if s_min < 0:
        raise ValueError("start state must be nonnegative")
    if s_min > n:
        return TruncationSolution(cutoff=n, start=s_min, e_lo=Fraction(0),
                                  e_hi=Fraction(0), p_lo=Fraction(1), p_hi=Fraction(1))
    members = target.members_upto(n)
    members = members[bisect.bisect_left(members, s_min):]
    return _forward(members, die.sides, n, s_min, fraction_bits(ctx), progress)


def _forward(members: list[int], m: int, n: int, s_min: int, bits: int,
             progress: Callable[[float, int], None] | None) -> TruncationSolution:
    one = 1 << bits
    # e_0's differences, newest first: its one is q_(-M)
    unit = [0] * (m - 1) + [one]
    # the row r per twin (see solve_pair): its differences and r[0]
    row, row0 = [deque(unit, maxlen=m) for _ in range(2)], [one, one]
    e_lo = e_hi = 0
    # the cached power A^span per twin: e_0 stepped span times, keeping
    # q_(span-1) .. q_(span-2M+1), and its r[0]
    span = 0
    power = [deque(unit + [0] * (m - 1), maxlen=2 * m - 1) for _ in range(2)]
    power0 = [one, one]
    p = s_min
    report_at = s_min + PROGRESS_INTERVAL - 1

    def covered(s: int) -> None:
        # s lies in the run p .. t - 1 or is its closing state t
        nonlocal report_at
        if progress is not None and s >= report_at:
            report_at = s + PROGRESS_INTERVAL
            progress(gap + (s - p + 1) / (t - p + 1), len(members) + 1)

    for gap, t in enumerate(members + [n + 1]):
        g = t - p
        if JUMP_MIN <= g and span <= g:
            d = min(g - span, max(g // (m * m), JUMP_MIN))
            _step(power, power0, m, d)
            span += d
        if JUMP_MIN <= g == span:
            # r[M-1] .. r[0], per twin
            rev_lo, rev_hi = (list(itertools.accumulate(q)) for q in row)
            # the power's q window, oldest first, cut to what r's mass can see
            cut = max(0, bits - sum(rev_hi).bit_length() - CUT_GUARD)
            w_lo = [v >> cut for v in reversed(power[0])]
            w_hi = [-(-v >> cut) for v in reversed(power[1])]
            if g < m:  # the window must not see q_(-M)
                w_lo[m - 1 - g] = w_hi[m - 1 - g] = 0
            d_lo, d_hi = _jump_products(rev_lo, rev_hi, w_lo, w_hi)
            keep = bits - cut
            # r'[M-1-i] <- (D_(g-1) + ... + D_(g-1-i) + 2^keep r[g+M-1-i]) / 2^keep,
            # where the multiple of 2^keep, r shifted by g, passes the
            # rounding whole
            pad = [0] * min(g, m)
            new_lo = [(v >> keep) + x for v, x in zip(itertools.accumulate(d_lo), pad + rev_lo)]
            new_hi = [-(-v >> keep) + x for v, x in zip(itertools.accumulate(d_hi), pad + rev_hi)]
            # r h_g = 2/(M+1) (r' . (g+j) - r . j), each end taking r from
            # the opposite twin
            after, before = range(g + m - 1, g - 1, -1), range(m - 1, -1, -1)
            e_lo += 2 * (_dot(new_lo, after) - _dot(rev_hi, before)) // (m + 1)
            e_hi -= 2 * (_dot(rev_lo, before) - _dot(new_hi, after)) // (m + 1)
            for q, new in zip(row, (new_lo, new_hi)):
                q.extend(map(operator.sub, new, [0, *new]))  # pushes out all M old ones
            row0[:] = new_lo[-1], new_hi[-1]
        else:
            while g:  # in pieces, so long stretches report progress
                run = min(g, PROGRESS_INTERVAL)
                add_lo, add_hi = _step(row, row0, m, run)
                e_lo += add_lo
                e_hi += add_hi
                g -= run
                covered(t - g - 1)
        if t > n:
            break
        _drop(row, row0, m)
        if not any(row[1]):
            break  # no walk survives: e is final and P is 0
        covered(t)
        p = t + 1
    p_lo, p_hi = (sum(itertools.accumulate(q)) for q in row)
    return TruncationSolution(cutoff=n, start=s_min,
                              e_lo=Fraction(e_lo, one), e_hi=Fraction(e_hi, one),
                              p_lo=Fraction(p_lo, one), p_hi=Fraction(p_hi, one))


def _step(rows: list[deque], r0: list[int], m: int, g: int) -> tuple[int, int]:
    """Apply the window map g times to both twins; return each one's sum of r[0].

    ``rows`` holds the values each twin passed on, newest first (at least
    the last M), and ``r0`` each twin's r[0], the sum of the last M; both
    are updated in place.  A step passes x = r[0] / M on, rounded down in
    the lower twin and up in the upper one.
    """
    (q_lo, q_hi), (c_lo, c_hi) = rows, r0
    push_lo, push_hi, oldest = q_lo.appendleft, q_hi.appendleft, m - 1
    sum_lo = sum_hi = 0
    for _ in itertools.repeat(None, g):
        sum_lo += c_lo
        sum_hi += c_hi
        x = c_lo // m
        c_lo += x - q_lo[oldest]
        push_lo(x)
        x = -(-c_hi // m)
        c_hi += x - q_hi[oldest]
        push_hi(x)
    r0[:] = c_lo, c_hi
    return sum_lo, sum_hi


def _drop(rows: list[deque], r0: list[int], m: int) -> None:
    """Cover a target state: each twin passes 0 on, and r[0] loses its oldest difference."""
    for k, q in enumerate(rows):
        r0[k] -= q[m - 1]
        q.appendleft(0)


def _dot(a: list[int], b) -> int:
    return sum(map(operator.mul, a, b))


def _jump_products(lo: list[int], hi: list[int], q_lo: list[int],
                   q_hi: list[int]) -> tuple[list[int], list[int]]:
    """A jump's exact sums ``D_(g-1), ..., D_(g-M)``, per twin.

    ``lo`` and ``hi`` hold r[M-1] .. r[0], and ``q_*`` q_(g-2M+1) .. q_(g-1),
    so D_(g-1-k) is the row's dot with ``q_*[M-1-k:2M-1-k]``.  Uses the two
    identities in :func:`solve_pair`, so the jump costs one product of
    full-size factors.
    """
    m = len(lo)
    b = q_lo[-1]
    delta = [*(v - b for v in q_lo[:-1]), 0]
    base = sum(lo) * b
    starts = range(m - 1, -1, -1)
    out_lo = [base + _dot(lo, delta[k:k + m]) for k in starts]
    # upper twin: one fused dot per sum, on the lower twin's base
    fused = hi + list(map(operator.sub, hi, lo))  # hi || slack
    twin = list(map(operator.sub, q_hi, q_lo))
    base = (sum(hi) - sum(lo)) * b
    out_hi = [low + base + _dot(fused, twin[k:k + m] + delta[k:k + m])
              for k, low in zip(starts, out_lo)]
    return out_lo, out_hi
