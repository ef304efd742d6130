"""Independent verification paths: materialized DP and Monte Carlo.

``dp_tables`` solves the two truncated recursions by backward substitution
over dense arrays in integers scaled by powers of M, and returns exact
rationals; the solver's bounds must contain its values.
``simulate_hitting`` rolls the raw process with a counter-based Philox
generator, so a run is reproducible from its seed.  It keeps one pool of
running walks and steps it in slices of a few rolls: walks that finish
leave after each slice and the next waiting trials take their places, so
every slice is as wide as the pool allows and no roll is drawn that no
walk reads.  Faces are drawn as bounded integers in the narrowest type
that holds M, one byte for a die of up to 255 sides, and widened once.
Each slice is a (walks x width) array, and every pass over it runs down
its long axis: prefix sums add one column into the next, the last column
holds each walk's largest sum, and the first hit of each walk is read
from its membership row taken as one 64-bit word.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .walkmodel import ConfigError, DieModel, TargetSet

__all__ = [
    "EXACT_DP_MAX_N",
    "SizeCapError",
    "AllTrialsCappedError",
    "McConfig",
    "McResult",
    "dp_tables",
    "exact_dp",
    "simulate_hitting",
]

EXACT_DP_MAX_N = 5000

# At most this many walks run at once, each slice rolls each of them this
# many times, and a finished walk's place goes to the next waiting trial.
# On the squares E[T] is about 7, so an 8-roll slice retires most of the
# pool and few drawn rolls go unread.  Both sizes fix which draw drives
# which roll, so changing either changes every seed's estimate.  A slice's
# (1 << 14) x 8 int64 running sums, 1 MB, are the largest array the loop
# holds; its prefix sums are 7 column adds and its first hits one 64-bit
# word per walk.  A finite target's membership table (one bool per state
# up to the highest one a walk can reach) is capped at _TABLE_MAX states.
_POOL = 1 << 14
_SLICE = 8
_TABLE_MAX = 1 << 27


class SizeCapError(ConfigError):
    """Exact solve or simulation table requested beyond its size cap."""


class AllTrialsCappedError(ArithmeticError):
    """Every simulated trial was capped; no estimate is possible.

    A trial is capped when its walk reaches the step cap, or passes the
    target's horizon, the last state it could still hit, without hitting.

    The mean over no completed trial is 0/0, hence an ``ArithmeticError``.
    """


def dp_tables(target: TargetSet, n: int, s_min: int = 0,
              die: DieModel = DieModel(6)) -> tuple[list[Fraction], list[Fraction]]:
    """Exact (E, P) tables for all states s_min .. n, index ``s - s_min``.

    The recursions run on the integers ``E'(s) = M^(n+1-s) E(s)`` and
    ``P'(s) = M^(n+1-s) P(s)``.  Off the targets, with j = 1 .. M,

        E'(s) = M^(n+1-s) + sum_j M^(j-1) E'(s+j),
        P'(s) = sum_j M^(j-1) P'(s+j),

    where a neighbor beyond the cutoff has E = 0 and P = 1, so it adds
    nothing to E' and ``M^(j-1) M^(n+1-s-j) = M^(n-s)`` to P'.  Both are 0
    on target states.  The values become :class:`Fraction` only on return.
    Dense arrays, full M-neighbor sums and a :meth:`TargetSet.membership`
    query per state keep this solver independent of the forward kernel's
    window map and of the member list it walks
    (:meth:`TargetSet.members_upto`), so a fault in either cannot reach
    both sides of a comparison with the kernel.
    """
    e_arr, p_arr = _scaled_tables(target, n, s_min, die)
    scale = die.sides ** (n + 1 - s_min)
    e_tab, p_tab = [], []
    for e, p in zip(e_arr, p_arr):
        e_tab.append(Fraction(e, scale))
        p_tab.append(Fraction(p, scale))
        scale //= die.sides
    return e_tab, p_tab


def _scaled_tables(target: TargetSet, n: int, s_min: int,
                   die: DieModel) -> tuple[list[int], list[int]]:
    """``dp_tables``' integers E'(s) and P'(s), on the scales M^(n+1-s)."""
    if n < 0 or s_min < 0 or s_min > n:
        raise ValueError("need 0 <= s_min <= N")
    target.ensure_bound(n)
    m = die.sides
    size = n - s_min + 1
    weights = [m ** j for j in range(m)]  # M^(j-1) for neighbor s + j
    e_arr = [0] * size
    p_arr = [0] * size
    scale = 1
    for s in range(n, s_min - 1, -1):
        idx = s - s_min
        beyond, scale = scale, scale * m  # M^(n-s) and M^(n+1-s)
        if target.membership(s):
            continue  # arrays already hold exact zeros
        acc_e = scale
        acc_p = 0
        for j, w in enumerate(weights, 1):
            if s + j > n:
                acc_p += beyond
            else:
                acc_e += w * e_arr[idx + j]
                acc_p += w * p_arr[idx + j]
        e_arr[idx] = acc_e
        p_arr[idx] = acc_p
    return e_arr, p_arr


def exact_dp(target: TargetSet, n: int, s: int,
             die: DieModel = DieModel(6)) -> tuple[Fraction, Fraction]:
    """Exact rational (E_N(s), P_s) by backward substitution.

    States above the cutoff report the boundary pair (0, 1).
    """
    if n < 0:
        raise ValueError("cutoff must be nonnegative")
    if s > n:
        return Fraction(0), Fraction(1)
    if n > EXACT_DP_MAX_N:
        raise SizeCapError(f"exact solve capped at N <= {EXACT_DP_MAX_N}, got {n}")
    e_arr, p_arr = _scaled_tables(target, n, s, die)
    scale = die.sides ** (n + 1 - s)
    return Fraction(e_arr[0], scale), Fraction(p_arr[0], scale)


@dataclass(frozen=True)
class McConfig:
    """Simulation request: how many trials, from where, against what.

    A start past the target's horizon is refused: no walk from it can hit.
    """

    trials: int
    seed: int
    die: DieModel = DieModel(6)
    target: TargetSet = TargetSet.perfect_squares()
    start: int = 0
    max_steps: int = 10**6

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if self.start < 0:
            raise ConfigError("start must be nonnegative")
        horizon = self.target.horizon
        if horizon is not None and self.start > horizon:
            raise ConfigError(f"start {self.start} lies past the target's horizon {horizon}: "
                              "no walk from it can hit")
        if not 0 <= self.seed < 1 << 128:
            # Philox keys are 128-bit
            raise ConfigError(f"seed must lie in [0, 2^128), got {self.seed}")
        if self.start + self.max_steps * self.die.sides > np.iinfo(np.int64).max:
            # The walks' int64 sums would wrap to negative values.  No walk
            # rolls past max_steps, since simulate_hitting trims its slices.
            raise ConfigError("start + max_steps * die sides must stay below 2^63")


@dataclass(frozen=True)
class McResult:
    """Sample statistics over completed trials.

    ``capped_trials`` counts trials that hit the step cap or ran past the
    target's declared bound without hitting; any nonzero count flags the
    mean as invalid for estimating the true expectation.  ``sum_t`` and
    ``sum_t_sq`` are exact integer accumulators kept so that partitioned
    results merge exactly and order-independently.
    """

    mean: float
    std_error: float
    trials_completed: int
    capped_trials: int
    sum_t: int
    sum_t_sq: int

    @property
    def flagged(self) -> bool:
        return self.capped_trials > 0


def _result_from_sums(completed: int, capped: int, sum_t: int, sum_t_sq: int) -> McResult:
    if completed == 0:
        raise AllTrialsCappedError("every trial was capped: each walk reached the step cap "
                                   "or passed the target's horizon without hitting")
    mean = Fraction(sum_t, completed)
    if completed > 1:
        var = (Fraction(sum_t_sq) - Fraction(sum_t * sum_t, completed)) / (completed - 1)
        std_error = math.sqrt(float(var) / completed)
    else:
        std_error = float("inf")
    return McResult(mean=float(mean), std_error=std_error,
                    trials_completed=completed, capped_trials=capped,
                    sum_t=sum_t, sum_t_sq=sum_t_sq)


@functools.cache
def _squares_below() -> np.ndarray:
    """Membership of every state below 2^16 in the squares, built on first use."""
    table = np.zeros(1 << 16, dtype=bool)
    table[np.arange(1, 1 << 8) ** 2] = True
    return table


def _membership_mask(table: np.ndarray | None, values: np.ndarray, top: int) -> np.ndarray:
    """Vectorized membership for nonnegative int64 ``values`` at most ``top``.

    ``table`` is ``None`` for the squares, which are looked up in
    :func:`_squares_below` unless ``top`` lies past it; only then is each
    value checked through an exact float ``sqrt``.  A finite target's
    ``table`` ends in a non-member slot that every larger value reads.
    The caller treats walks past the horizon as dead (capped).
    """
    if table is None:
        below = _squares_below()
        if top < below.size:
            return below[values]
        r = np.sqrt(values.astype(np.float64)).astype(np.int64)
        return ((r * r == values) | ((r + 1) * (r + 1) == values)) & (values >= 1)
    if top < table.size:
        return table[values]
    return table[np.minimum(values, table.size - 1)]


def _first_hits(hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a 2-D bool array that hold a True, and each one's first column.

    Returns a bool array over the rows and, for the rows it marks, in
    order, the int64 column of their first True.  Each row, at most
    ``_SLICE`` = 8 columns wide, is read as one little-endian 64-bit word
    of eight bools, padded with False to eight columns; a wider row
    raises.  In a nonzero word x, x & -x keeps the lowest set bit, bit 8b
    of the first True byte b, and multiplying it by 0x0001020304050607
    moves b into the top byte (the int64 product wraps, and b <= 7 leaves
    the sign bit clear).
    """
    rows, width = hits.shape
    if width % 8:
        padded = np.zeros((rows, width + (-width) % 8), dtype=bool)
        padded[:, :width] = hits
        hits = padded
    (x,) = hits.view("<i8").T
    hit = x != 0
    x = x[hit]
    return hit, (x & -x) * 0x0001020304050607 >> 56


def simulate_hitting(cfg: McConfig) -> McResult:
    """Estimate the expected hitting time by rolling the raw process.

    Uses the counter-based Philox 4x64 generator keyed by ``cfg.seed``;
    die rolls are bounded integers drawn uniformly from 1 .. M by numpy's
    unbiased (Lemire) method, so every roll is an exactly fair face.
    Trials that reach ``max_steps`` rolls, or that pass the target's
    horizon without hitting (after which the monotone walk provably never
    hits), are counted in ``capped_trials`` and excluded from the mean.

    One pool of at most ``_POOL`` walks is stepped ``_SLICE`` rolls at a
    time, fewer when a walk would otherwise roll past ``max_steps``.  A
    slice draws a (walks x width) array of faces in the narrowest integer
    type that holds M (``np.min_scalar_type``) and widens it once to int64
    for the running sums, formed by adding each column into the next.
    The last column, every walk's largest sum, decides whether the
    squares' lookup table covers the slice, and :func:`_first_hits` reads
    which walks hit and on which roll from the membership rows, one 64-bit
    word each.  After the slice, walks that hit, passed the horizon or
    reached ``max_steps`` leave, the others keep their order, and the next
    waiting trials join at the end with sum ``start`` and no rolls.  Each
    walk carries its roll count, so a hit on the slice's roll i is
    T = rolls + 1 + i.

    A finite target is looked up in a bool table over the states up to
    ``min(horizon, start + max_steps * M)``; :class:`SizeCapError` is
    raised, before anything is allocated, when that passes ``_TABLE_MAX``.
    """
    m = cfg.die.sides
    target = cfg.target
    bound = target.horizon
    if target.membership(cfg.start):
        return _result_from_sums(cfg.trials, 0, 0, 0)
    table = None
    if bound is not None:
        # No walk gets past start + max_steps * M, so members above that
        # are never read; the extra slot stands for every larger state.
        top = min(bound, cfg.start + cfg.max_steps * m)
        if top >= _TABLE_MAX:
            raise SizeCapError(f"simulation's membership table capped at {_TABLE_MAX} "
                               f"states, but walks can reach state {top}")
        table = np.zeros(top + 2, dtype=bool)
        table[target.members_upto(top)] = True

    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    face = np.min_scalar_type(m)
    completed = 0
    capped = 0
    sum_t = 0
    sum_t_sq = 0
    waiting = cfg.trials
    sums = np.empty(0, dtype=np.int64)  # the running walks' sums, in pool order
    rolls = np.empty(0, dtype=np.int64)  # and how many rolls each has taken
    while True:
        join = min(waiting, _POOL - sums.size)
        if join:
            waiting -= join
            sums = np.concatenate((sums, np.full(join, cfg.start, dtype=np.int64)))
            rolls = np.concatenate((rolls, np.zeros(join, dtype=np.int64)))
        if sums.size == 0:
            break
        # Walks at max_steps have left, so the width is at least 1.
        width = min(_SLICE, cfg.max_steps - int(rolls.max()))
        paths = rng.integers(1, m + 1, size=(sums.size, width), dtype=face).astype(np.int64)
        # Prefix sums column by column: the columns are long and the rows short.
        paths[:, 0] += sums
        for j in range(1, width):
            paths[:, j] += paths[:, j - 1]
        # Each walk's largest sum, since faces are at least 1, is copied out,
        # so the slice is freed before its first hits are read; no two
        # slices' arrays are ever held at once.
        sums = paths[:, -1].copy()
        hits = _membership_mask(table, paths, int(sums.max()))
        del paths
        hit_any, first = _first_hits(hits)
        del hits
        if first.size:
            t_vals = rolls[hit_any] + 1 + first
            completed += t_vals.size
            sum_t += int(t_vals.sum())
            sum_t_sq += int((t_vals * t_vals).sum())
        rolls += width
        done = rolls >= cfg.max_steps
        if bound is not None:
            # Past the declared bound the walk can never be seen to hit.
            done |= sums > bound
        keep = ~hit_any
        capped += int(np.count_nonzero(keep & done))
        keep &= ~done
        sums = sums[keep]
        rolls = rolls[keep]

    return _result_from_sums(completed, capped, sum_t, sum_t_sq)
