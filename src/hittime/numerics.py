"""Arithmetic substrate: fixed-precision decimal floats and exact rationals.

A :class:`PrecisionContext` sets the precision of the two computations
that take one: the roots (:func:`hittime.hitprob.compute_roots`), in a
:class:`decimal.Context` carrying ``working_digits + GUARD_DIGITS``
significant digits, and the solve's fixed-point grid
(:func:`hittime.walkmodel.solve_pair`).  Certification takes none: it
works in exact :class:`fractions.Fraction` values, and its solve's grid
follows K.  Exact values become decimals only when printed, each rounded
once (:func:`round_to_digits`, :func:`digit_string`), bounds toward the
side they bound, and identical operation sequences at identical
precision reproduce identical digit strings.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "MIN_WORKING_DIGITS",
    "GUARD_DIGITS",
    "PrecisionTooLowError",
    "PrecisionContext",
    "make_context",
    "digit_string",
    "round_to_digits",
]

MIN_WORKING_DIGITS = 30
# Digits carried internally beyond the working precision.  They keep the
# roundoff of `hittime roots`' Newton loop below the printed digits and,
# through internal_digits, widen the solver's fixed point; certify's
# report counts at most working - GUARD_DIGITS digits.
GUARD_DIGITS = 15

# Generous exponent range: overshoot probabilities sit around 1e-1000 and
# intermediate squares go lower still; nothing here should ever clamp.
_EMAX = 10**9
_EMIN = -(10**9)


class PrecisionTooLowError(ValueError):
    """Requested working precision is below the supported minimum."""


@dataclass(frozen=True)
class PrecisionContext:
    """Working decimal precision.

    ``working_digits`` is the precision results are reported at; every
    operation carries :data:`GUARD_DIGITS` more internally.
    """

    working_digits: int

    def __post_init__(self) -> None:
        if self.working_digits < MIN_WORKING_DIGITS:
            raise PrecisionTooLowError(
                f"working_digits must be >= {MIN_WORKING_DIGITS}, got {self.working_digits}"
            )

    @property
    def internal_digits(self) -> int:
        return self.working_digits + GUARD_DIGITS

    def context(self) -> decimal.Context:
        """A fresh half-even decimal context at internal precision.

        Callers typically bind this once per computation; contexts are
        cheap to create and immutable by convention here.
        """
        return decimal.Context(
            prec=self.internal_digits, rounding=decimal.ROUND_HALF_EVEN, Emax=_EMAX, Emin=_EMIN
        )


def make_context(working_digits: int) -> PrecisionContext:
    """Create a :class:`PrecisionContext`; refuses working_digits < 30."""
    return PrecisionContext(working_digits)


def round_to_digits(x: Decimal | Fraction, digits: int,
                    rounding: str = decimal.ROUND_HALF_EVEN) -> Decimal:
    """Round ``x`` to ``digits`` significant digits in the given direction.

    A :class:`~fractions.Fraction` is rounded once, correctly, from its
    exact value, so ``ROUND_FLOOR`` and ``ROUND_CEILING`` give a lower and
    an upper bound on it.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    c = decimal.Context(prec=digits, rounding=rounding, Emax=_EMAX, Emin=_EMIN)
    if isinstance(x, Fraction):
        return c.divide(Decimal(x.numerator), Decimal(x.denominator))
    return c.plus(x)


def digit_string(x: Decimal | Fraction, digits: int,
                 rounding: str = decimal.ROUND_HALF_EVEN) -> str:
    """Canonical decimal digit string of ``x`` at ``digits`` significant digits.

    Plain positional form for moderate exponents, scientific form otherwise,
    exactly as :class:`decimal.Decimal` prints; byte-stable across runs.
    ``rounding`` picks the direction (:func:`round_to_digits`).
    """
    return str(round_to_digits(x, digits, rounding))

