"""Cumulative-sum walk, target sets, and the truncated backward recursions.

The process adds i.i.d. uniform increments from ``{1, ..., M}`` to a running
sum until the sum lies in a target set of nonnegative integers.  For a
cutoff ``N`` two quantities are solved backward from ``s = N`` down to the
requested start state:

* the truncated expected hitting time ``E_N(s)``, with value 0 on target
  states ``<= N`` and 0 beyond the cutoff, and otherwise
  ``E_N(s) = 1 + (E_N(s+1) + ... + E_N(s+M)) / M``;
* the overshoot probability ``P_s`` of crossing the cutoff before hitting
  the target, with value 0 on target states ``<= N``, 1 beyond the cutoff,
  and otherwise the plain average of the M forward neighbors.

Both recursions depend only on the M states above ``s``, so a window of M
values and its running sum suffice: O(1) memory, O(N) time.  The sweep
works in fixed point: every value is a Python int standing for that int
times ``2^-b`` (:func:`fraction_bits`).  Each window sum slides exactly,
``S <- S + v(s) - v(s+M)``, so the one division by M per value is the only
rounding step.  Each quantity is swept once, with every division rounded
down, so the swept values are proven lower bounds; :class:`Enclosure`
derives the matching upper bounds from them in closed form.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from .numerics import PrecisionContext, rational_to_decimal

__all__ = [
    "DieModel",
    "TargetSet",
    "TargetSetError",
    "CutoffExceedsBoundError",
    "Enclosure",
    "TruncationSolution",
    "fraction_bits",
    "sweep_pair",
    "solve_pair",
]

# Progress callbacks fire every this many states during a sweep.
PROGRESS_INTERVAL = 1 << 20

# Bits carried below the context's internal digits.  They absorb the
# sweep's rounding: the upper bound on P is the lower one divided by
# 1 - (N+1) M 2^-b at most (see Enclosure.from_fixed), so while
# (N+1) M < 2^64 their gap stays below one unit in the last internal digit.
GUARD_BITS = 64

# Step, in bits, by which the P window is rescaled once its sum drops
# below 1 (see sweep_pair).
RESCALE_BITS = 64


class TargetSetError(ValueError):
    """Malformed target-set definition (file syntax, emptiness, ordering)."""


class CutoffExceedsBoundError(ValueError):
    """The requested cutoff lies beyond the target's declared bound."""


@dataclass(frozen=True)
class DieModel:
    """Fair die with faces ``1..sides``; increments are uniform on that set."""

    sides: int = 6

    def __post_init__(self) -> None:
        if self.sides < 2:
            raise ValueError(f"die must have at least 2 sides, got {self.sides}")

    @property
    def mean(self) -> Fraction:
        return Fraction(self.sides + 1, 2)


@dataclass(frozen=True)
class TargetSet:
    """Membership oracle over the nonnegative integers.

    ``elements`` of ``None`` means the perfect squares (unbounded,
    membership by integer square root, 0 excluded); otherwise it is the
    finite set of target states, from an explicit list or a predicate
    tabulated up to a bound.  A ``declared_bound`` of ``None`` means
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
    def from_predicate(cls, pred: Callable[[int], bool], bound: int) -> "TargetSet":
        """The states ``0..bound`` satisfying ``pred``, bounded at ``bound``."""
        if bound < 0:
            raise TargetSetError("predicate table bound must be nonnegative")
        return cls(elements=frozenset(h for h in range(bound + 1) if pred(h)),
                   declared_bound=bound)

    @classmethod
    def dense_from(cls, start: int, bound: int) -> "TargetSet":
        """All integers in ``[start, bound]`` -- handy degenerate target."""
        return cls.from_predicate(lambda h: h >= start, bound)

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
        lines = Path(path).read_text().splitlines()
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
    """Fraction bits b of the sweep's fixed point for a context.

    b = ceil(internal_digits * log2(10)) + GUARD_BITS; a sweep value v
    stands for v * 2^-b.
    """
    return (10 ** ctx.internal_digits).bit_length() + GUARD_BITS


@dataclass(frozen=True)
class Enclosure:
    """Exact rational bounds ``e_lo <= E_N(s) <= e_hi``, ``p_lo <= P_s <= p_hi``."""

    e_lo: Fraction
    e_hi: Fraction
    p_lo: Fraction
    p_hi: Fraction

    @classmethod
    def from_fixed(cls, e: int, p: tuple[int, int], states: int, die: DieModel,
                   ctx: PrecisionContext) -> "Enclosure":
        """The bounds proven by one state ``(s, e, p)`` of :func:`sweep_pair`.

        ``states`` is the number of states swept down to this one,
        ``n - s + 1``.  The lower bounds are the swept values themselves,
        ``e_lo = e / 2^b`` with b = :func:`fraction_bits` and
        ``p_lo / 2^p_bits`` from ``p = (p_lo, p_bits)``: every division by
        M rounds down and the recursions' coefficients are nonnegative, so
        by backward induction each stays below the exact value.  Both upper
        bounds follow from the same values in closed form.

        E.  Write ``d(s) = 2^b E_N(s) - e(s)``.  The sweep sets
        ``e(s) = 2^b + floor(S / M)`` with S the integer sum of the window's
        e values, and floor(S/M) falls short of S/M by one of
        0, 1/M, ..., (M-1)/M.  Subtracting this from the exact recursion
        scaled by 2^b gives::

            d(s) = (d(s+1) + ... + d(s+M)) / M + f(s),   0 <= f(s) <= (M-1)/M,

        with d = 0 on target states and beyond the cutoff.  So
        ``M d / (M-1)`` satisfies E_N's own recursion with ``<=`` in place
        of ``=``, and backward induction from the cutoff gives
        ``0 <= d(s) <= (M-1)/M * E_N(s)``.  Solving
        ``2^b E_N - e <= (M-1)/M * E_N`` for E_N::

            E_N(s) <= M e / (M 2^b - (M-1)) = (e + (M-1) e / (M 2^b - (M-1))) / 2^b,

        and rounding that correction up gives ``e_hi``.

        P.  Let ``delta = M 2^-b`` and ``q(s) = p_lo(s) / 2^p_bits(s)``.
        The sweep keeps the integer window sum S of P either 0 or at least
        2^b (its rescale rule).  Beyond the cutoff ``q = P = 1``.  At a
        non-target state ``p_lo = floor(S / M)``:

        * if S = 0, every window value is 0.  A non-target p_lo is 0 only
          when its own S is (S < M < 2^b), so by induction from the cutoff
          P is 0 wherever p_lo is, and P_s = 0;
        * otherwise ``p_lo > S/M - 1 >= (S/M)(1 - delta)``, and shifts are
          exact, so ``q(s) > (1 - delta)`` times the window mean of q.

        Backward induction on ``k = n - s + 1`` then gives
        ``P_s <= q(s) (1 - delta)^-k``, and Bernoulli's inequality
        ``(1 - delta)^k >= 1 - k delta`` turns that into::

            P_s <= q(s) / (1 - k M 2^-b),

        valid while ``k M < 2^b`` (checked).  ``p_hi`` is this bound,
        exactly; it is 0 exactly when ``p_lo`` is.
        """
        m = die.sides
        bits = fraction_bits(ctx)
        p_lo, p_bits = p
        slack = (1 << bits) - states * m
        if slack <= 0:
            raise ValueError(f"bound on P needs states * M < 2^{bits}, got {states} * {m}")
        e_hi = e - (-(m - 1) * e // ((m << bits) - (m - 1)))
        return cls(e_lo=Fraction(e, 1 << bits), e_hi=Fraction(e_hi, 1 << bits),
                   p_lo=Fraction(p_lo, 1 << p_bits),
                   p_hi=Fraction(p_lo << bits, slack << p_bits))

    def lower_decimals(self, ctx: PrecisionContext) -> tuple[Decimal, Decimal]:
        """``(e_lo, p_lo)`` rounded down at the context's internal precision."""
        return (rational_to_decimal(self.e_lo, ctx, decimal.ROUND_FLOOR),
                rational_to_decimal(self.p_lo, ctx, decimal.ROUND_FLOOR))


@dataclass(frozen=True)
class TruncationSolution:
    """Solution pair at one start state for one cutoff.

    ``enclosure`` holds the exact bounds the sweep proves; ``e_n_value``
    and ``overshoot_prob`` are its lower endpoints rounded down to decimals
    (:meth:`Enclosure.lower_decimals`).
    """

    cutoff: int
    start: int
    e_n_value: Decimal
    overshoot_prob: Decimal
    enclosure: Enclosure


def sweep_pair(target: TargetSet, die: DieModel, n: int, s_min: int,
               ctx: PrecisionContext,
               progress: Callable[[int], None] | None = None,
               ) -> Iterator[tuple[int, int, tuple[int, int]]]:
    """Backward fixed-point solve streaming ``(s, e, (p_lo, p_bits))``.

    States are yielded in descending order ``s = n .. s_min``; pass ``e``,
    ``p`` and the swept-state count ``n - s + 1`` to
    :meth:`Enclosure.from_fixed` for the bounds they prove.  ``e`` is
    E_N(s) on the scale 2^-b, b = :func:`fraction_bits`, and ``p_lo`` is
    P_s on the scale 2^-p_bits, each from one sweep that rounds every
    division by M down.

    P falls to 10^-1000 and below at full scale, so its window carries a
    block exponent: whenever the window sum drops below 2^b (but not to
    0), every P window value and the sum are shifted left by
    ``RESCALE_BITS``, which is exact, and ``p_bits`` is b plus the total
    shift.  The window sum is thus 0 or at least 2^b at every state, which
    the closed-form upper bound on P relies on.

    Target states are met by a pointer descending through
    :meth:`TargetSet.members_upto`.  The arguments are checked on the
    call, before the first state is requested.
    """
    if n < 0:
        raise ValueError("cutoff must be nonnegative")
    if s_min < 0:
        raise ValueError("start state must be nonnegative")
    if s_min > n:
        raise ValueError("sweep requires s_min <= N; states above N are boundary")
    members = target.members_upto(n)
    return _fixed_sweep(members, die.sides, n, s_min, fraction_bits(ctx), progress)


def _fixed_sweep(members: list[int], m: int, n: int, s_min: int, bits: int,
                 progress: Callable[[int], None] | None,
                 ) -> Iterator[tuple[int, int, tuple[int, int]]]:
    one = 1 << bits
    # Slot s % M holds the values for state s + M; beyond the cutoff E = 0
    # and P = 1 exactly.
    ew = [0] * m
    lw = [one] * m
    e_sum = 0
    lo_sum = m * one
    p_bits = bits
    next_member = members.pop() if members else -1

    countdown = PROGRESS_INTERVAL
    for s in range(n, s_min - 1, -1):
        if s == next_member:
            next_member = members.pop() if members else -1
            e = lo = 0
        else:
            e = one + e_sum // m
            lo = lo_sum // m

        if progress is not None:
            countdown -= 1
            if countdown == 0:
                countdown = PROGRESS_INTERVAL
                progress(s)

        yield s, e, (lo, p_bits)

        i = s % m
        e_sum += e - ew[i]
        ew[i] = e
        lo_sum += lo - lw[i]
        lw[i] = lo
        while 0 < lo_sum < one:
            lw = [v << RESCALE_BITS for v in lw]
            lo_sum <<= RESCALE_BITS
            p_bits += RESCALE_BITS


def solve_pair(target: TargetSet, die: DieModel, n: int, s_min: int,
               ctx: PrecisionContext,
               progress: Callable[[int], None] | None = None) -> TruncationSolution:
    """Backward sweep returning the solution pair at ``s_min``.

    Start states above the cutoff report the boundary values (0, 1)
    exactly.  The fixed-point values are converted once, at the end.
    """
    if s_min > n:
        enclosure = Enclosure(e_lo=Fraction(0), e_hi=Fraction(0),
                              p_lo=Fraction(1), p_hi=Fraction(1))
    else:
        for _, e, p in sweep_pair(target, die, n, s_min, ctx, progress):
            pass
        enclosure = Enclosure.from_fixed(e, p, n - s_min + 1, die, ctx)
    e_val, p_val = enclosure.lower_decimals(ctx)
    return TruncationSolution(cutoff=n, start=s_min, e_n_value=e_val,
                              overshoot_prob=p_val, enclosure=enclosure)
