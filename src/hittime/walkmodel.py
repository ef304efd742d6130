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

Both recursions depend only on the M states above ``s``, so a rolling
window of ``M + 1`` slots (indexed ``s mod (M+1)``) suffices: O(1) memory,
O(N) time.  Per state the arithmetic is pinned to one fixed operation
order -- neighbors summed in ascending state order, then one division by M
-- so that the rolling window and the materialized solver
:func:`hittime.oracle.dp_tables` produce digit-identical results at equal
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from .numerics import PrecisionContext

__all__ = [
    "DieModel",
    "TargetSet",
    "TargetSetError",
    "CutoffExceedsBoundError",
    "TruncationSolution",
    "sweep_pair",
    "solve_pair",
]

# Progress callbacks fire every this many states during a sweep.
PROGRESS_INTERVAL = 1 << 20


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


@dataclass(frozen=True)
class TruncationSolution:
    """Solution pair at one start state for one cutoff."""

    cutoff: int
    start: int
    e_n_value: Decimal
    overshoot_prob: Decimal
    die: DieModel
    target: TargetSet


def sweep_pair(target: TargetSet, die: DieModel, n: int, s_min: int,
               ctx: PrecisionContext,
               progress: Callable[[int], None] | None = None,
               ) -> Iterator[tuple[int, Decimal, Decimal]]:
    """Backward rolling-window solve streaming ``(s, E_N(s), P_s)``.

    States are yielded in descending order ``s = n .. s_min``, with the
    per-state operation order fixed as in the module docstring.  Target
    states are met by a pointer descending through
    :meth:`TargetSet.members_upto`.
    """
    if n < 0:
        raise ValueError("cutoff must be nonnegative")
    if s_min < 0:
        raise ValueError("start state must be nonnegative")
    if s_min > n:
        raise ValueError("sweep requires s_min <= N; states above N are boundary")
    members = target.members_upto(n)

    c = ctx.context()
    add = c.add
    div = c.divide
    zero = Decimal(0)
    one = Decimal(1)
    m = die.sides
    m_dec = Decimal(m)
    width = m + 1

    # Slots hold the values for states s+1 .. s+width; beyond the cutoff
    # E = 0 and P = 1 exactly.
    ew = [zero] * width
    pw = [one] * width
    next_member = members.pop() if members else -1

    countdown = PROGRESS_INTERVAL
    for s in range(n, s_min - 1, -1):
        i = s % width
        if s == next_member:
            next_member = members.pop() if members else -1
            e = p = zero
        else:
            w = (i + 1) % width
            acc_e = ew[w]
            acc_p = pw[w]
            for j in range(2, width):
                w = (i + j) % width
                acc_e = add(acc_e, ew[w])
                acc_p = add(acc_p, pw[w])
            e = add(one, div(acc_e, m_dec))
            p = div(acc_p, m_dec)
        ew[i] = e
        pw[i] = p

        if progress is not None:
            countdown -= 1
            if countdown == 0:
                countdown = PROGRESS_INTERVAL
                progress(s)

        yield s, e, p


def solve_pair(target: TargetSet, die: DieModel, n: int, s_min: int,
               ctx: PrecisionContext,
               progress: Callable[[int], None] | None = None) -> TruncationSolution:
    """Backward sweep returning the solution pair at ``s_min``.

    Start states above the cutoff report the boundary values (0, 1).
    """
    if s_min > n:
        return TruncationSolution(cutoff=n, start=s_min, e_n_value=Decimal(0),
                                  overshoot_prob=Decimal(1), die=die, target=target)
    e_val = p_val = None
    for _, e, p in sweep_pair(target, die, n, s_min, ctx, progress):
        e_val, p_val = e, p
    assert e_val is not None and p_val is not None
    return TruncationSolution(cutoff=n, start=s_min, e_n_value=e_val,
                              overshoot_prob=p_val, die=die, target=target)
