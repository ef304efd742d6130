"""Certified error bounds for the perfect-square target.

With cutoff N = K^2 (K >= 4), the expected residual time beyond the cutoff,
conditional on overshooting, lies strictly between two closed-form series

    L_N = (1/6) * Sigma(5; 5/7 - eps, 2/7 - eps)
    U_N =         Sigma(1; 5/7 + eps, 2/7 + eps)

where

    Sigma(d; r, t) = t * [ (2K+1-d)/(1-r) + 2(K+1) r/(1-r)^2 + r(1+r)/(1-r)^3 ]

sums the band-by-band geometric weights in closed form, and eps bounds
|p_m - 2/7| for every gap m the series weigh.  A walk that crosses a
square (K+j)^2, j >= 0, from below lands at most 5 past it, so it stands
m >= 2(K+j) + 1 - 5 >= 2K - 4 short of the next square, which it then
hits with probability p_m.  So eps is :func:`hittime.hitprob.epsilon`
at 2K - 4: the exact supremum of |p_m - 2/7| over m >= 2K - 4, rounded
up.  At eps = 0 the series collapse to the exact linear forms
L = 7K/6 + 8/3 and U = 7K + 20.

Combining with the truncated solve at start state s,

    0 < E(s) - (E_N(s) + L_N * P_s) < (U_N - L_N) * P_s.

Every quantity here is an exact rational, never a rounded approximation:
the forward solve (:func:`~hittime.walkmodel.solve_pair`) encloses E_N(s)
and P_s between the exact rationals of its rounded-down values and those
plus proven a priori widths
(:class:`~hittime.walkmodel.TruncationSolution`), L_N and U_N are the
exact series values at an upper bound on eps, and the composed endpoints

    lower = E_lo + L_N * P_lo,    upper = E_hi + U_N * P_hi

satisfy lower < E(s) < upper.  The number of certified digits is the
length of the decimal prefix shared by the two endpoints, which the
interval cannot straddle.  Nothing is rounded until the report prints it,
outward (:func:`hittime.cli.certification_report`).

An estimate is a function of K and the start state alone: the solve's
fixed-point grid follows K (:func:`solve_digits`), and no precision is
passed in.  How many digits to print, and the cap that keeps the
reported count inside them, belong to the report; digits printed past
what the enclosure supports are rounding residue of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import hitprob, walkmodel
from .numerics import MIN_WORKING_DIGITS, make_context

__all__ = [
    "DivergentSeriesError",
    "InvertedIntervalError",
    "OvershootBounds",
    "CertifiedEstimate",
    "sigma_series",
    "overshoot_bounds",
    "compose_estimate",
    "certify_squares",
    "certified_digit_count",
    "recommended_digits",
    "solve_digits",
    "MIN_K",
]

MIN_K = 4


class DivergentSeriesError(ValueError):
    """Series ratio outside (0, 1); the geometric sums do not converge."""


class InvertedIntervalError(ValueError):
    """Certified interval with upper end not above its lower end (internal failure)."""


@dataclass(frozen=True)
class OvershootBounds:
    """Residual-time bounds (L, U) beyond the cutoff N = K^2.

    Both are the exact series values at ``epsilon_n``, which bounds
    |p_m - 2/7| for every m >= 2K - 4.
    """

    K: int
    epsilon_n: Fraction
    lower: Fraction
    upper: Fraction


@dataclass(frozen=True)
class CertifiedEstimate:
    """Point value, rigorous radius, and certified digit count at one cutoff.

    Every real is exact.  ``solution`` and ``bounds`` are the solve and the
    overshoot bounds the interval was composed from.
    """

    point_value: Fraction
    error_radius: Fraction
    certified_digits: int
    solution: walkmodel.TruncationSolution
    bounds: OvershootBounds

    @property
    def exact(self) -> bool:
        """Degenerate case: no path crosses the cutoff, so the radius is 0."""
        return self.solution.p_hi == 0


def sigma_series(d: int, r: Fraction, t: Fraction, k: int) -> Fraction:
    """Closed form of sum_j [ (K+1+j)^2 - K^2 - d ] r^j t over j >= 0.

    Exact in :class:`~fractions.Fraction` arithmetic: a three-term
    expression, with no truncated summation involved.
    """
    if d not in (1, 5):
        raise ValueError(f"d must be 1 or 5, got {d}")
    if not 0 < r < 1:
        raise DivergentSeriesError(f"series ratio must lie in (0, 1), got {r}")
    one_minus = 1 - r
    return t * (Fraction(2 * k + 1 - d) / one_minus
                + 2 * (k + 1) * r / one_minus**2
                + r * (1 + r) / one_minus**3)


def overshoot_bounds(k: int) -> OvershootBounds:
    """Bounds L, U for cutoff N = K^2, valid for every start state <= N.

    The series are evaluated exactly at ``epsilon(2K - 4)``, the supremum
    of |p_m - 2/7| over m >= 2K - 4 rounded up.  L decreases and U
    increases in eps, so both stay on their safe side.  A K below
    :data:`MIN_K` is an input error.
    """
    if k < MIN_K:
        raise walkmodel.ConfigError(f"K must be >= {MIN_K}, got {k}")
    eps = hitprob.epsilon(2 * k - 4)
    r_minus = Fraction(5, 7) - eps
    r_plus = Fraction(5, 7) + eps
    t_minus = Fraction(2, 7) - eps
    t_plus = Fraction(2, 7) + eps
    if not r_plus < 1:
        raise DivergentSeriesError(f"5/7 + epsilon must stay below 1 (K={k})")
    if not t_minus > 0:
        raise DivergentSeriesError(f"2/7 - epsilon must stay positive (K={k})")
    return OvershootBounds(K=k, epsilon_n=eps,
                           lower=sigma_series(5, r_minus, t_minus, k) / 6,
                           upper=sigma_series(1, r_plus, t_plus, k))


def certified_digit_count(lower: Fraction, upper: Fraction) -> int:
    """Number of decimal places on which ``lower`` and ``upper`` agree.

    The integer parts must match as well, else the count is 0.  Comparison
    is exact and conservative: a tie at the d-th place does not count as
    agreement beyond it.  Agreement to d places needs
    ``10^d (upper - lower) < 1``, and implies agreement to fewer places,
    so the count is found walking down from the largest such d to the
    first depth where the endpoints agree.
    """
    if not lower < upper:
        raise InvertedIntervalError("certified interval is empty or inverted")
    width = upper - lower
    num, den = width.numerator, width.denominator
    # 10^d num < den needs d < log10(den / num), which is below
    # (bits of den - bits of num + 1) log10(2).
    d = math.floor((den.bit_length() - num.bit_length() + 1) * math.log10(2)) + 1
    while d >= 0 and 10**d * num >= den:
        d -= 1
    while d >= 0 and (lower.numerator * 10**d // lower.denominator
                      != upper.numerator * 10**d // upper.denominator):
        d -= 1
    return max(d, 0)


def recommended_digits(k: int) -> int:
    """Default printed precision of ``hittime certify`` at cutoff root K.

    P_0, and with it the radius (U_N - L_N) P_0, decays roughly like
    10^(-0.146 K), so about 0.15 K digits are what the interval can
    certify.  The report counts at most the decimal places its printed
    point shows (:func:`hittime.cli.certification_report`), one fewer
    than the printed digits for a point in [1, 10), so the 60 digits of
    slack keep that cap 59 digits above 0.15 K, and so above the radius's
    leading zeros, at every K.  It is a default, not a minimum: fewer
    printed digits, down to :data:`~hittime.numerics.MIN_WORKING_DIGITS`,
    report a count capped lower, from the same estimate.  The solve runs
    on the grid of :func:`solve_digits`, whatever is printed.
    """
    return math.ceil(0.15 * k) + 60


def solve_digits(k: int) -> int:
    """Working digits of the grid :func:`certify_squares` solves on.

    A function of K alone: ``max(MIN_WORKING_DIGITS, ceil(K log10(7/5)))``.
    The radius (U_N - L_N) P_0 is what limits the certified digits, and
    P_0 is about (5/7)^K: a walk passes each of the K squares up to N
    and misses it with probability about 1 - 2/7, as p_m tends to 2/7.
    So the radius has about K log10(7/5), or 0.146 K, leading zeros
    (2^-569.5 at K = 1200), and no digit past them can be certified.  The
    solve only needs its enclosure narrow against that radius; more bits
    refine digits the interval cannot certify.

    With these d digits the grid has c = walkmodel.fraction_bits of
    d + GUARD_DIGITS digits plus GUARD_BITS, at least
    K log2(7/5) + 177 bits, and the solve's proven widths, W_E and
    U_N W_P units of 2^-c (:func:`~hittime.walkmodel.solve_pair`), grow
    like 48 N^2: both are known a priori (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3).  Measured, the widths
    ``(e_hi - e_lo) + U_N (p_hi - p_lo)`` lie 147 bits below the radius
    at K = 1200 (c = 763), 145.5 at K = 2000 (c = 1152) and 138 at
    K = 7000 (c = 3577); for K <= 205,
    where MIN_WORKING_DIGITS sets the grid, 153 to 268 bits.  The margin
    falls by about 3.5 bits per doubling of K, as the widths grow like K^4
    and U_N - L_N like K, so it stays above 100 bits to K of about 10^7.
    The radius is then (U_N - L_N) P_0 to within a relative 2^-138, and
    from start 0 certified_digits is that of a solve at the printed
    precision at every K checked.  An exact estimate, from a start on a
    square, has no radius: its digits are those W_E pins down on this
    grid, at least 72 places, of which the report counts at most the
    decimal places its printed point shows.
    """
    return max(MIN_WORKING_DIGITS, math.ceil(k * math.log10(7 / 5)))


def compose_estimate(solution: walkmodel.TruncationSolution,
                     bounds: OvershootBounds) -> CertifiedEstimate:
    """Combine a truncated solve with overshoot bounds into an estimate.

    The interval ``(E_lo + L P_lo, E_hi + U P_hi)`` is composed exactly.
    When ``P_hi == 0`` no path crosses the cutoff: the truncation is exact,
    the estimate is flagged ``exact`` with radius 0, and its certified
    digits are those the solve's enclosure ``[E_lo, E_hi]`` pins down.
    The interval is never empty: ``E_hi - E_lo`` is W_E >= 1 unit of the
    grid when the start lies at or below the cutoff, and above it
    ``P = 1`` and ``U > L``.
    """
    lower = solution.e_lo + bounds.lower * solution.p_lo
    upper = solution.e_hi + bounds.upper * solution.p_hi
    return CertifiedEstimate(
        point_value=lower, error_radius=Fraction(0) if solution.p_hi == 0 else upper - lower,
        certified_digits=certified_digit_count(lower, upper),
        solution=solution, bounds=bounds)


def certify_squares(k: int, start: int = 0, progress=None) -> CertifiedEstimate:
    """Certified estimate of the expected hitting time to the squares.

    Runs the truncated solve at cutoff N = K^2 on a fair six-sided
    die, evaluates the overshoot constants, and composes the certified
    interval.  The true expectation lies strictly inside
    ``(point_value, point_value + error_radius)``.  The result depends on
    K and the start alone: the solve runs on the grid of
    :func:`solve_digits`, and the digits to print are the report's
    (:func:`hittime.cli.certification_report`).
    """
    bounds = overshoot_bounds(k)
    n = k * k
    if not 0 <= start <= n:
        raise walkmodel.ConfigError("start state must lie in [0, N]")
    target = walkmodel.TargetSet.perfect_squares()
    die = walkmodel.DieModel(6)
    solution = walkmodel.solve_pair(target, die, n, start,
                                    make_context(solve_digits(k)), progress)
    return compose_estimate(solution, bounds)
