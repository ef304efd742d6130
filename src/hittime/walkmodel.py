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
2, and every rounding step rounds down, so the values it computes are
lower bounds; the upper bounds lie a proven a priori width above them.
The result, a :class:`TruncationSolution`, holds both enclosures as exact
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

# Bits carried below the context's internal digits.  solve_pair rounds a
# few times per state or per jump, and its proven width of E_N's enclosure
# is about 8 M N^2 units of 2^-c, 2^56.7 units at N = 7000^2; these bits
# keep it far below one unit in the last internal digit.
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
    finite set of target states as one strictly increasing tuple, which
    membership bisects and :meth:`members_upto` slices.  A
    ``declared_bound`` of ``None`` means membership is answerable for
    every nonnegative integer: always for squares, and for explicit lists
    that enumerate the complete target set.  A bounded target only answers
    membership up to its bound, and solves beyond it are refused.
    """

    elements: tuple[int, ...] | None = None
    declared_bound: int | None = None

    def __post_init__(self) -> None:
        members = self.elements
        if not members:  # the squares, or a bounded table with no target
            return
        if members[0] < 0:
            raise TargetSetError(f"target elements must be nonnegative, got {members[0]}")
        if not all(map(operator.lt, members, members[1:])):
            raise TargetSetError("target elements must be strictly increasing")
        if self.declared_bound is not None and self.declared_bound < members[-1]:
            raise TargetSetError(
                f"declared bound {self.declared_bound} is below the largest element {members[-1]}"
            )

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
        return cls(elements=tuple(elements), declared_bound=bound)

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
        i = bisect.bisect_left(self.elements, h)
        return i < len(self.elements) and self.elements[i] == h

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
        return list(self.elements[:bisect.bisect_right(self.elements, n)])

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
            return self.elements[-1]
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
    summed over the run.  A run of at least L = max(``JUMP_MIN``, M)
    states with ``g >= span`` is crossed in one jump, ``r <- r A^g``, with
    one cached power ``A^span``.  First the power advances toward g in
    pieces of at most L A-steps, and between pieces it stops if its kept
    values of q (below) are all one value x.  Then it is a fixed point:
    its r[0] is M x, so a step passes M x / M = x on and leaves it as it
    was, and A^span is A^g, rounding included, for every g >= span.  span
    counts only the A-steps taken, so a later run no shorter than span is
    jumped with none.  On the squares (runs of 2k states) the power
    advances two A-steps per run; a lone long run costs the A-steps to
    the fixed point, about c/0.454 on a six-sided die (c below).  Every
    other run steps r state by state.  An A-step costs about one state
    step, and the power only advances, at most g - span steps toward a
    run of g, so an advance never costs more than stepping the run it
    reaches.  The rows used are exactly the rows stepping would give, so
    the widths below hold.

    The cached power, and r while it is stepped, are kept in one
    difference form: the last M values d that the row passed on, newest
    first, and r[0].  A step passes x = r[0] / M on, rounded down, and
    ``r'[j] = r[j+1] + x``, so ``r[j] = d[0] + ... + d[M-1-j]``, and r[0]
    gains x and loses the oldest d.  A target is a step that passes 0 on.
    One loop steps either row.  A jump reads r as its values and leaves
    r' as its values, so r stays in that form, a target shifting it to
    ``(r[1], ..., r[M-1], 0)``, until a run is stepped: its differences
    are rebuilt once, there.

    The power is e_0 stepped span times.  Row i of A^span is e_i stepped
    span times; its first i steps have r[0] = 0, so they are exact shifts,
    and the row is e_0 stepped span - i times, rounding included.  Step t
    passes q_t on and has r[0] = c_t, so c_0 = one and, with every q
    before t = 0 zero::

        c_t = q_(t-1) + ... + q_(t-M)  for t >= 1
        A^span[i][j] = q_(span-i-1) + ... + q_(span-i-(M-j))  for i < span

    Advancing the power by d steps passes d values of q, of which the last
    2M - 1 are kept.  A jump crosses g >= M states, so the rows of A^g it
    uses, i <= M - 1 < g, read only the kept q_(g-1) .. q_(g-2M+1): it
    forms ``D_k = r . (q_k, ..., q_(k-M+1))`` for k = g-1 .. g-M, and then
    ``(r A^g)[j] = D_(g-1) + ... + D_(g-M+j)`` is the same integer as the
    full product.  The floored partial sums
    F_i = (D_(g-1) + ... + D_(g-1-i)) / one are r'[M-1-i], so the
    differences of r' are F_i - F_(i-1).

    Two identities on Python ints give these sums in fewer products.
    With S = sum(r), base b = q_(g-1) and delta_t = q_t - b, one product
    serves every window::

        D_k = S b + r . (delta_k, ..., delta_(k-M+1))

    A is a mixing stochastic matrix, so q_t converges like |w|^t, where
    |w| < 1 is the largest modulus of A's other eigenvalues (about
    2^-0.454 for M = 6): on long runs delta is hundreds of bits shorter
    than q, though on the first jumps it is nearly as long.  The M dots
    with delta form one Hankel matrix-vector product, which
    :func:`_jump_products` splits into 2x2 blocks for a six-sided die
    (Fan and Hasan, IEEE Trans. Computers 56, 2007; the transposed
    Karatsuba of Hanrot, Quercia and Zimmermann, AAECC 14, 2004): 18
    products in place of 36, so a jump's sums cost 19.  Both
    sides of each identity are the same integer, so the floor that
    follows acts on exactly the sums of the plain products.

    *A flat window.*  After the cut (below), the 2M - 1 kept values of q
    are often one value b: on the squares at K = 1200 and 240 digits,
    every jump from k = 709 on, 491 of 1,136.  Then every delta is 0 and
    every D_k is S b, so F_i is (i+1) S b and, the products being
    shifted by c - cut, ``r'[M-1-i] = ((i+1) S b) / 2^(c-cut)``, rounded
    down: one full-size product in place of 19, and no partial sums.  These are the
    integers the products give, so the floors, the bounds and the widths
    below are unchanged.  The check, the cut window's largest value equal
    to its smallest, runs on every jump: q is not monotone, so a later
    window need not be flat.

    A jump's E term ``r h_g`` comes from Wald's identity: the mean roll is
    (M+1)/2, so ``l(s) = -2s/(M+1)`` solves E_N's off-target recursion
    everywhere, ``l(s) = 1 + mean(l(s+1), ..., l(s+M))``.  Covering the
    run's g states from p with l in place of v, as above, moves the same
    constants ``r h_g`` into e and leaves ``r' = r A^g`` on the window at
    p + g, so ``r . l(p, ..., p+M-1) = r h_g + r' . l(p+g, ..., p+g+M-1)``.
    A is stochastic, so sum(r') = sum(r), the terms in p cancel, and::

        r h_g = 2/(M+1) (r' . (g, ..., g+M-1) - r . (0, ..., M-1))

    exactly.  Stepped runs still add r[0] to e state by state.

    The kernel works in fixed point on 2^-c, c = :func:`fraction_bits`,
    and rounds every division by M and every right shift (after a product,
    or onto e's scale) down.  Write lo and e_lo for its row and constant,
    and r and e for the exact ones, all in units of 2^-c.  lo stands on
    e's grid, so as its mass P falls it keeps fewer bits: E_N and P reach
    the answer only through absolute errors.  A jump's products see no
    more of the power than r's mass can use.  With
    ``cut = c - bitlen(sum(lo) + rho) - CUT_GUARD`` (at least 0), where
    rho >= sum(r) - sum(lo) is the bound below, the q window is divided by
    2^cut, rounded down, and the products are shifted by c - cut, not c.
    A row sum of at most M(M+1)/2 cut values of q, each short by less than
    2^cut, times sum(lo) < 2^(c - cut - CUT_GUARD), costs lo less than
    M(M+1)/2 2^-CUT_GUARD units per jump.

    Only the lower ends are computed; the upper ends are a priori widths
    above them, proven here.

    *The lower end.*  At every stage ``lo <= r`` entrywise and
    ``e_lo <= e``, and likewise for the cached power.  It holds at the
    start, where every quantity is exact.  Every operation but one is
    built from sums and products of nonnegative numbers (the entries of r,
    of A and its powers, and the constant 1/M) followed by one floor; such
    sums and products are monotone in every argument, so a lower input
    gives a lower output, and the floor keeps it lower.  Target shifts are
    exact.  The one difference, a jump's E term, adds
    ``2 (lo' . (g+j) - lo . j - (M-1) rho) / (M+1)`` over j = 0 .. M-1,
    rounded down, where lo' <= r' and rho is the bound below at the jump's
    first state: r - lo >= 0 has l1 norm at most rho and j <= M - 1, so
    ``r . j <= lo . j + (M-1) rho``.  By induction over the covered states
    ``e_lo <= E_N(s_min)`` and ``p_lo = sum(lo) <= P_s`` at the cutoff.

    *rho.*  Let a = sum(r) - sum(lo), the l1 norm of r - lo >= 0, and
    kappa = 2M + floor(M^2 / 2^CUT_GUARD), which is 2M for M <= 15.  Then
    ``a <= rho = kappa (p - s_min)`` before state p is covered.  At the
    start a = 0.  A is nonnegative with unit row sums, so
    ``|x A|_1 = |x|_1`` for x >= 0 (Seneta, Non-negative Matrices and
    Markov Chains, ch. 3): a step keeps the l1 norm of r - lo and its one
    floor, added to M entries, loses at most M - 1 more.  A target drops
    an entry of r and one of lo below it, so a does not rise.  A jump over
    g >= 1 states keeps the norm of (r - lo) A^g; each power row used is
    e_0 stepped at most g times (a settled power's rows are those of the
    steps it skips), so its floors lose at most (M - 1) g
    units of its sum, and as lo's mass is at most P <= 1 they cost lo at
    most (M - 1) g units; the cut costs less than M(M+1)/2 2^-CUT_GUARD,
    which is below 1 + floor(M^2 / 2^CUT_GUARD), and the M final floors
    less than M.  So a jump raises a by less than kappa g, for every
    g >= 1 and so for every ``JUMP_MIN`` >= 1.

    *W_P.*  Once p passes the cutoff, ``P_s - p_lo = a`` is at most::

        W_P = kappa (N - s_min + 1)

    units of 2^-c, and ``p_hi = p_lo + W_P``.  P itself may be far
    smaller: below 2^-c, p_lo can be 0 while p_hi > 0.

    *W_E.*  e - e_lo grows only on non-target states, and rho <= W_P
    throughout.  A stepped state adds ``r[0] - lo[0] <= a <= W_P``.  A
    jump over g states from p adds less than
    ``2 ((g+M-1) a' + (M-1) rho) / (M+1) + 1``, with a' <= W_P the deficit
    after it: ``(r' - lo') . (g+j) <= (g+M-1) a'``,
    ``lo . j + (M-1) rho - r . j <= (M-1) rho``, and the floor loses less
    than 1.  As g + 2M - 2 <= (2M - 1) g for g >= 1, and 2 (2M - 1) <
    4 (M + 1), that is less than g (4 W_P + 1).  At most N - s_min + 1
    states are not targets, so::

        E_N(s_min) - e_lo <= W_E = (N - s_min + 1) (4 W_P + 1)

    units of 2^-c, and ``e_hi = e_lo + W_E``: about 8M (N - s_min + 1)^2,
    or 2^56.7 units at M = 6 and N = 7000^2.  Like any a priori forward
    error bound (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3) it takes each rounding at its worst and measures nothing: each
    state's deficit may be of order N, so the width is of order N^2.

    *P = 0 exactly.*  The exact row is positive on its first k entries and
    0 beyond them, with k = 1 at the start (r = e_0).  A step or a jump
    from k >= 1 has r[0] > 0, so it leaves every entry positive: k = M.  A
    target shifts r left: k - 1.  So P = sum(r) is 0 exactly when k
    reaches 0: at s_min itself when it is a target, or else at the M-th
    target in a row, since a die with faces 1 .. M steps over no shorter
    block.  So P = 0 exactly when s_min is a target or the targets in
    [s_min, N] hold M consecutive states, which the kernel reads once off
    the sorted members, and then ``p_hi = 0``: ``p_hi == 0`` exactly when
    P is 0.  From that target on e is final and lo = 0 (0 <= lo <= r), so
    the zero-row stop below ends the walk there.

    *A zero row.*  Every difference lo passes on is nonnegative: a step
    passes a floor of lo[0] / M >= 0, a target passes 0, and a jump's
    ``new`` is nondecreasing, floors of partial sums of nonnegative
    products.  So lo[0], the sum of the last M of
    them, is lo's largest entry, and lo is zero exactly when lo[0] is 0.
    Once it is, after a target, the walk steps, jumps and advances the
    power no more:

    * a zero row stays zero: a step passes on 0 / M = 0, a target shifts
      zeros, and a jump's products are 0;
    * e_lo is already a lower bound: r >= lo = 0, so every exact
      contribution to e still to come, r[0] per state, is nonnegative,
      and ``e_lo <= e <= E_N(s_min)``;
    * W_E still covers the gap: a = sum(r) does not rise after the stop
      (A keeps the l1 norm, a target drops an entry), so each skipped
      state adds at most ``r[0] <= a <= W_P`` and each skipped jump over
      g states at most ``g a <= g (4 W_P + 1)``, within their shares of
      W_E;
    * W_P still covers P: ``p_lo = 0`` and ``P = a <= W_P``.

    A jump after the stop no longer subtracts its ``2 (M-1) rho / (M+1)``,
    so e_lo can only rise, toward E_N.
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
    # the bound on r's l1 deficit grows by at most this many units per
    # covered state (see solve_pair)
    rate = 2 * m + (m * m >> CUT_GUARD)
    # P = 0 exactly: s_min is a target or M consecutive states are (see solve_pair)
    zero_p = members[:1] == [s_min] or m - 1 in map(operator.sub, members[m - 1:], members)
    # runs of at least this many states may be jumped
    least = max(JUMP_MIN, m)
    # e_0's differences, newest first: r[0] = one is their sum
    unit = [0] * (m - 1) + [one]
    # the row r (see solve_pair): its differences and r[0]; after a jump
    # r[M-1] .. r[0] in rev instead, until a run is stepped
    row, row0, rev = deque(unit, maxlen=m), one, None
    e = 0
    # the cached power A^span: e_0 stepped span times, keeping
    # q_(span-1) .. q_(span-2M+1), and its r[0]
    span = 0
    power, power0 = deque(unit + [0] * (m - 1), maxlen=2 * m - 1), one
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
        if least <= g and span <= g:
            # a fixed power is A^g already (see solve_pair)
            while span < g and not _fixed(power):
                d = min(g - span, least)
                power0 = _step(power, power0, m, d)[0]
                span += d
            rho = rate * (p - s_min)
            if rev is None:
                rev = list(itertools.accumulate(row))
            total = sum(rev)
            # the power's q window, cut to what r's mass can see
            cut = max(0, bits - (total + rho).bit_length() - CUT_GUARD)
            keep = bits - cut
            b = power[0] >> cut
            if power[-1] >> cut == b and max(power) >> cut == min(power) >> cut:
                # a flat window (see solve_pair): every D_k is total b
                base = total * b
                new = [(i + 1) * base >> keep for i in range(m)]
            else:
                # r'[M-1-i] <- (D_(g-1) + ... + D_(g-1-i)) / 2^keep
                new = [v >> keep for v in itertools.accumulate(
                    _jump_products(rev, [v >> cut for v in reversed(power)]))]
            # r h_g = 2/(M+1) (r' . (g+j) - r . j), with r . j read as its
            # upper bound, this row's r . j plus (M-1) rho
            after, before = range(g + m - 1, g - 1, -1), range(m - 1, -1, -1)
            e += 2 * (_dot(new, after) - _dot(rev, before) - (m - 1) * rho) // (m + 1)
            rev = new
        else:
            if rev is not None:
                row.extend(map(operator.sub, rev, [0, *rev]))  # pushes out all M old ones
                row0, rev = rev[-1], None
            while g:  # in pieces, so long stretches report progress
                run = min(g, PROGRESS_INTERVAL)
                row0, add = _step(row, row0, m, run)
                e += add
                g -= run
                covered(t - g - 1)
        if t > n:
            break
        if rev is None:
            row0 = _drop(row, row0, m)
        else:
            rev = [0, *rev[:-1]]
            row0 = rev[-1]
        covered(t)
        p = t + 1
        if not row0:
            break  # a zero row stays zero (see solve_pair): e_lo is final
    p_lo = sum(itertools.accumulate(row) if rev is None else rev)
    width_p = rate * (n + 1 - s_min)
    width_e = (n + 1 - s_min) * (4 * width_p + 1)
    return TruncationSolution(cutoff=n, start=s_min,
                              e_lo=Fraction(e, one), e_hi=Fraction(e + width_e, one),
                              p_lo=Fraction(p_lo, one),
                              p_hi=Fraction(0 if zero_p else p_lo + width_p, one))


def _step(row: deque, r0: int, m: int, g: int) -> tuple[int, int]:
    """Apply the window map g times; return the new r[0] and the sum of r[0] over the steps.

    ``row`` holds the values the row passed on, newest first (at least the
    last M), and is updated in place; ``r0`` is its r[0], the sum of the
    last M.  A step passes x = r[0] / M on, rounded down.
    """
    push, oldest = row.appendleft, m - 1
    total = 0
    for _ in itertools.repeat(None, g):
        total += r0
        x = r0 // m
        r0 += x - row[oldest]
        push(x)
    return r0, total


def _fixed(power: deque) -> bool:
    """Whether the kept values q_(span-1) .. q_(span-2M+1) are all one value x.

    Then the power is a fixed point: its r[0] is M x, so a step passes x
    on and leaves it as it was (see :func:`solve_pair`).
    """
    return power.count(power[0]) == len(power)


def _drop(row: deque, r0: int, m: int) -> int:
    """Cover a target state: pass 0 on; return r[0] less its oldest difference."""
    r0 -= row[m - 1]
    row.appendleft(0)
    return r0


def _dot(a: list[int], b) -> int:
    return sum(map(operator.mul, a, b))


def _jump_products(r: list[int], q: list[int]) -> list[int]:
    """A jump's exact sums ``D_(g-1), ..., D_(g-M)``.

    ``r`` holds r[M-1] .. r[0], and ``q`` q_(g-2M+1) .. q_(g-1), so
    D_(g-1-k) is r's dot with ``q[M-1-k:2M-1-k]``.  With the identity in
    :func:`solve_pair`, D_(g-1-k) = S b + y_(M-1-k), where

        y_k = d[k] x[0] + ... + d[k+M-1] x[M-1],   k = 0 .. M-1,

    x = r and d = delta, oldest first (its last entry, delta_(g-1), is 0).
    The y form a Hankel matrix-vector product, split in 18 products for
    M = 6 (Fan and Hasan, IEEE Trans. Computers 56, 2007; transposed
    Karatsuba, Hanrot, Quercia and Zimmermann, AAECC 14, 2004), not 36.

    With the 2x2 Hankel blocks T_j = (d[2j], d[2j+1], d[2j+2])
    and X_a = (x[2a], x[2a+1]), the outputs Y_a = (y[2a], y[2a+1]) are
    ``Y_a = T_a X_0 + T_(a+1) X_1 + T_(a+2) X_2``.  Six block products::

        P = T2 (X0+X1+X2)      U = (T1-T2)(X0+X1)    V = (T3-T2)(X1+X2)
        A = (T0-T1) X0         B = (T4-T3) X2        C = (T1+T3-2 T2) X1

    give Y0 = P+U+A, Y1 = P+U+V-C and Y2 = P+V+B (expand: each T_j X_a
    appears once, the rest cancel).  A block (a, c, e) times (u, v) is
    (a u + c v, c u + e v), three products: with p = c (u+v), it is
    (p + (a-c) u, p + (e-c) v).  Every step is exact on Python ints, so
    the sums are the plain dots' integers.  Other dice take the plain M^2
    dots.
    """
    m = len(r)
    b = q[-1]
    base = sum(r) * b
    if m != 6:
        delta = [*(v - b for v in q[:-1]), 0]
        return [base + _dot(r, delta[k:k + m]) for k in range(m - 1, -1, -1)]
    x0, x1, x2, x3, x4, x5 = r
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9 = (v - b for v in q[:-1])
    # d10 = 0.  The outer split's block differences:
    t12 = (d2 - d4, d3 - d5, d4 - d6)  # T1 - T2
    t32 = (d6 - d4, d7 - d5, d8 - d6)  # T3 - T2
    # P = T2 (X0+X1+X2)
    u, v = x0 + x2 + x4, x1 + x3 + x5
    a, c, e = d4, d5, d6
    p = c * (u + v)
    p0, p1 = p + (a - c) * u, p + (e - c) * v
    # U = (T1-T2)(X0+X1)
    u, v = x0 + x2, x1 + x3
    a, c, e = t12
    p = c * (u + v)
    u0, u1 = p + (a - c) * u, p + (e - c) * v
    # V = (T3-T2)(X1+X2)
    u, v = x2 + x4, x3 + x5
    a, c, e = t32
    p = c * (u + v)
    v0, v1 = p + (a - c) * u, p + (e - c) * v
    # A = (T0-T1) X0
    a, c, e = d0 - d2, d1 - d3, t12[0]
    p = c * (x0 + x1)
    a0, a1 = p + (a - c) * x0, p + (e - c) * x1
    # B = (T4-T3) X2
    a, c, e = t32[2], d9 - d7, -d8
    p = c * (x4 + x5)
    b0, b1 = p + (a - c) * x4, p + (e - c) * x5
    # C = (T1+T3-2 T2) X1
    a, c, e = t12[0] + t32[0], t12[1] + t32[1], t12[2] + t32[2]
    p = c * (x2 + x3)
    c0, c1 = p + (a - c) * x2, p + (e - c) * x3
    pu0, pu1 = base + p0 + u0, base + p1 + u1
    pv0, pv1 = base + p0 + v0, base + p1 + v1
    return [pv1 + b1, pv0 + b0, pu1 + v1 - c1, pu0 + v0 - c0, pu1 + a1, pu0 + a0]
