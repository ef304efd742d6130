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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import hitprob, walkmodel
from .numerics import GUARD_DIGITS, PrecisionContext, PrecisionTooLowError

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
    working_digits: int
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
    increases in eps, so both stay on their safe side.
    """
    if k < MIN_K:
        raise ValueError(f"K must be >= {MIN_K}, got {k}")
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
    """Minimum working precision for certifying at cutoff root K.

    P_0, and with it the radius (U_N - L_N) P_0, decays roughly like
    10^(-0.146 K), so about 0.15 K digits are what the interval can
    certify.  The point must be carried that deep and beyond: the solve's
    enclosure of E_N(0) is W_E = (N + 1)(48 (N + 1) + 1) units of 2^-c
    wide, c = walkmodel.fraction_bits(ctx), proven in
    :func:`~hittime.walkmodel.solve_pair`: 2^41.5, 2^46.5, 2^49.5 and
    2^56.7 units at K = 500, 1200, 2000 and 7000 with 135, 240, 360 and
    1200 digits.  That lies 355, 360, 368 and 726 bits below the radius,
    with the 60 digits of slack, the guard digits and the guard bits, so
    rounding never costs a certified digit.
    """
    return math.ceil(0.15 * k) + 60


def compose_estimate(solution: walkmodel.TruncationSolution,
                     bounds: OvershootBounds, ctx: PrecisionContext) -> CertifiedEstimate:
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
    digits = min(certified_digit_count(lower, upper), ctx.working_digits - GUARD_DIGITS)
    return CertifiedEstimate(
        point_value=lower, error_radius=Fraction(0) if solution.p_hi == 0 else upper - lower,
        certified_digits=digits, working_digits=ctx.working_digits,
        solution=solution, bounds=bounds)


def certify_squares(k: int, ctx: PrecisionContext, start: int = 0,
                    progress=None) -> CertifiedEstimate:
    """Certified estimate of the expected hitting time to the squares.

    Runs the truncated solve at cutoff N = K^2 on a fair six-sided
    die, evaluates the overshoot constants, and composes the certified
    interval.  The true expectation lies strictly inside
    ``(point_value, point_value + error_radius)``.
    """
    if k < MIN_K:
        raise ValueError(f"K must be >= {MIN_K}, got {k}")
    required = recommended_digits(k)
    if ctx.working_digits < required:
        raise PrecisionTooLowError(
            f"certifying K={k} needs at least {required} working digits "
            f"(got {ctx.working_digits}); the overshoot probability decays "
            f"like 10^(-0.146 K) and would be lost to roundoff")
    n = k * k
    if not 0 <= start <= n:
        raise walkmodel.ConfigError("start state must lie in [0, N]")
    bounds = overshoot_bounds(k)
    target = walkmodel.TargetSet.perfect_squares()
    die = walkmodel.DieModel(6)
    solution = walkmodel.solve_pair(target, die, n, start, ctx, progress)
    return compose_estimate(solution, bounds, ctx)
