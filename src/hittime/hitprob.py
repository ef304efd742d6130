"""Ever-hit probabilities p_n, the decay bound epsilon, and characteristic roots.

Starting the walk at 0, the probability p_n that the running sum of fair
six-sided die rolls ever equals n obeys the order-6 linear recurrence

    p_n = (p_{n-1} + p_{n-2} + p_{n-3} + p_{n-4} + p_{n-5} + p_{n-6}) / 6,
    p_0 = 1,  p_n = 0 for n < 0.

Subtracting it at n - 1 from it at n gives 6 p_n = 7 p_{n-1} - p_{n-7} for
n >= 2, so the integers Q_n = 6^n p_n obey

    Q_0 = Q_1 = 1,  Q_n = 7 Q_{n-1} - 6^6 Q_{n-7}  (n >= 2; Q_n = 0 for n < 0).

That one integer recurrence (:func:`pn_numerators`) gives every exact
value here: the fractions p_n = Q_n / 6^n, the ``pn`` table, and
:func:`epsilon`, the exact supremum of |p_m - 2/7| over m >= n, rounded
up, whose value at n = 2K - 4 feeds the certified overshoot constants for
the perfect-square cutoff N = K^2.

The characteristic polynomial 6 z^6 - z^5 - z^4 - z^3 - z^2 - z - 1 has
the root 1 plus five roots of modulus < 1: one real negative root u and two
complex-conjugate pairs v and w.  p_n converges to 2/7 at the geometric
rate of the dominant subunit modulus |w|, within the paper's envelope
(5/7)|w|^n.  The roots are seeded at machine precision from the companion
matrix and then Newton-refined at full working precision; they serve
``hittime roots`` and the tests, and no certified bound depends on them.
"""

from __future__ import annotations

import decimal
import itertools
from collections import deque
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .numerics import PrecisionContext

__all__ = [
    "RootRefinementError",
    "DecimalComplex",
    "CharacteristicRoots",
    "pn_numerators",
    "pn_exact",
    "compute_roots",
    "epsilon",
]

# epsilon is rounded up onto the dyadic grid with this many significant
# bits, which keeps the overshoot series' fractions short.
_EPSILON_BITS = 64

# Descending-power coefficients of the characteristic polynomial and its
# derivative: 6 z^6 - z^5 - z^4 - z^3 - z^2 - z - 1.
_POLY = (6, -1, -1, -1, -1, -1, -1)
_DPOLY = (36, -5, -4, -3, -2, -1)

_NEWTON_MAX_ITER = 200


class RootRefinementError(RuntimeError):
    """Newton refinement failed to converge (internal failure)."""


class DecimalComplex(NamedTuple):
    """Complex number as a (real, imaginary) pair of decimals."""

    re: Decimal
    im: Decimal


@dataclass(frozen=True)
class CharacteristicRoots:
    """The six characteristic roots, classified, at one working precision."""

    root_unit: Decimal
    u: Decimal
    v_plus: DecimalComplex
    v_minus: DecimalComplex
    w_plus: DecimalComplex
    w_minus: DecimalComplex
    modulus_u: Decimal
    modulus_v: Decimal
    modulus_w: Decimal


def pn_numerators() -> Iterator[int]:
    """Yield Q_n = 6^n p_n for n = 0, 1, 2, ... without end.

    Q_n = 1 mod 6 for every n (7 = 1 and 6^6 = 0 mod 6), so Q_n / 6^n is
    p_n in lowest terms.
    """
    yield 1
    yield 1
    last = deque([0] * 5 + [1, 1], maxlen=7)  # Q_{n-7} .. Q_{n-1}
    while True:
        q = 7 * last[-1] - 6**6 * last[0]
        last.append(q)
        yield q


def pn_exact(n: int) -> Fraction:
    """Exact rational p_n for n >= 0."""
    if n < 0:
        raise ValueError(f"pn_exact needs n >= 0, got {n}")
    return Fraction(next(itertools.islice(pn_numerators(), n, None)), 6**n)


def _c_add(c: decimal.Context, a: DecimalComplex, b: DecimalComplex) -> DecimalComplex:
    return DecimalComplex(c.add(a.re, b.re), c.add(a.im, b.im))


def _c_sub(c: decimal.Context, a: DecimalComplex, b: DecimalComplex) -> DecimalComplex:
    return DecimalComplex(c.subtract(a.re, b.re), c.subtract(a.im, b.im))


def _c_mul(c: decimal.Context, a: DecimalComplex, b: DecimalComplex) -> DecimalComplex:
    re = c.subtract(c.multiply(a.re, b.re), c.multiply(a.im, b.im))
    im = c.add(c.multiply(a.re, b.im), c.multiply(a.im, b.re))
    return DecimalComplex(re, im)


def _c_div(c: decimal.Context, a: DecimalComplex, b: DecimalComplex) -> DecimalComplex:
    den = c.add(c.multiply(b.re, b.re), c.multiply(b.im, b.im))
    num = _c_mul(c, a, DecimalComplex(b.re, c.minus(b.im)))
    return DecimalComplex(c.divide(num.re, den), c.divide(num.im, den))


def _horner(c: decimal.Context, coeffs: tuple[int, ...], z: DecimalComplex) -> DecimalComplex:
    acc = DecimalComplex(Decimal(coeffs[0]), Decimal(0))
    for k in coeffs[1:]:
        acc = _c_mul(c, acc, z)
        acc = _c_add(c, acc, DecimalComplex(Decimal(k), Decimal(0)))
    return acc


def _step_negligible(step: Decimal, scale: Decimal, prec: int) -> bool:
    """True once a Newton step is within a few ulps of the iterate."""
    if step == 0:
        return True
    return step.adjusted() <= scale.adjusted() - prec + 3


def _newton_complex(c: decimal.Context, seed: complex) -> DecimalComplex:
    z = DecimalComplex(Decimal(float(seed.real)), Decimal(float(seed.imag)))
    for _ in range(_NEWTON_MAX_ITER):
        f = _horner(c, _POLY, z)
        fp = _horner(c, _DPOLY, z)
        step = _c_div(c, f, fp)
        z = _c_sub(c, z, step)
        if (_step_negligible(step.re, z.re, c.prec)
                and _step_negligible(step.im, z.im, c.prec)):
            return z
    raise RootRefinementError("complex Newton refinement did not converge")


def _modulus(c: decimal.Context, z: DecimalComplex) -> Decimal:
    return c.sqrt(c.add(c.multiply(z.re, z.re), c.multiply(z.im, z.im)))


def compute_roots(ctx: PrecisionContext) -> CharacteristicRoots:
    """All six characteristic roots at the context's precision.

    Seeds come from the companion-matrix eigenvalues at machine precision;
    each non-unit root is then Newton-refined on the degree-6 polynomial
    until the iteration reaches a fixed point of the working precision.
    The root at 1 is exact and not refined.
    """
    seeds = np.roots(_POLY)
    complex_seeds = sorted((z for z in seeds if z.imag > 1e-6), key=abs)
    real_negative = [z.real for z in seeds if abs(z.imag) <= 1e-6 and z.real < 0]
    if len(complex_seeds) != 2 or len(real_negative) != 1:
        raise RootRefinementError("unexpected companion-matrix root layout")

    c = ctx.context()
    u = _newton_complex(c, complex(real_negative[0], 0)).re
    v_plus = _newton_complex(c, complex_seeds[0])
    w_plus = _newton_complex(c, complex_seeds[1])
    v_minus = DecimalComplex(v_plus.re, c.minus(v_plus.im))
    w_minus = DecimalComplex(w_plus.re, c.minus(w_plus.im))

    return CharacteristicRoots(
        root_unit=Decimal(1),
        u=u,
        v_plus=v_plus,
        v_minus=v_minus,
        w_plus=w_plus,
        w_minus=w_minus,
        modulus_u=c.abs(u),
        modulus_v=_modulus(c, v_plus),
        modulus_w=_modulus(c, w_plus),
    )


def epsilon(n: int) -> Fraction:
    """Upper bound on |p_m - 2/7| for every m >= n: the supremum, rounded up.

    d_m = p_m - 2/7 is the mean of the six d's before it for every m >= 1,
    since 2/7 solves the recurrence too (with d_j = -2/7 for j < 0).  So
    each d_m with m >= n + 6 is a mean of six d's with indices in [n, m),
    and by induction on m no |d_m| exceeds the window maximum
    max |d_j| over n <= j <= n + 5.  That maximum is attained, so it is the
    supremum over m >= n exactly.  It is computed from the integers Q_j and
    rounded up onto the dyadic grid of ``_EPSILON_BITS`` (64) significant
    bits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    window = itertools.islice(pn_numerators(), n, n + 6)
    # |d_j| = |7 Q_j - 2 6^j| / (7 6^j), all over the denominator 7 6^(n+5)
    num = max(abs(7 * q - 2 * 6**j) * 6**(n + 5 - j)
              for j, q in enumerate(window, start=n))
    den = 7 * 6**(n + 5)
    # the grid depends on the value alone: 2^63 <= (num / den) 2^shift < 2^64
    shift = _EPSILON_BITS + den.bit_length() - num.bit_length()
    if num << shift >= den << _EPSILON_BITS:
        shift -= 1
    return Fraction(-((-num << shift) // den), 1 << shift)
