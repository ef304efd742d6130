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
(5/7)|w|^n.  Each root is Newton-refined at full working precision from a
fixed double-precision seed, in plain ``Decimal`` arithmetic under one
decimal context; the roots serve ``hittime roots`` and the tests, and no
certified bound depends on them.
"""

from __future__ import annotations

import decimal
import itertools
from collections import deque
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, NamedTuple

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

# Descending-power coefficients of the characteristic polynomial
# 6 z^6 - z^5 - z^4 - z^3 - z^2 - z - 1.
_POLY = (6, -1, -1, -1, -1, -1, -1)

# Newton seeds for u, v+ and w+ (|u| < |v| < |w| < 1): np.roots(_POLY)
# in doubles, fixed so the roots do not depend on numpy's eigensolver.
_SEEDS = (
    complex(-0.6703320476030975, 0.0),
    complex(-0.3756951992252603, 0.5701751610114127),
    complex(0.29419455636014147, 0.6683670974433016),
)

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


def _newton(seed: complex, prec: int) -> DecimalComplex:
    """Newton on ``_POLY`` from ``seed`` in the current decimal context.

    Stops once each part of a step is within 10^3 units in the last of
    ``prec`` digits of the iterate.
    """
    zr, zi = Decimal(seed.real), Decimal(seed.imag)
    for _ in range(_NEWTON_MAX_ITER):
        # one Horner pass: f(z) and f'(z) together
        fr, fi, dr, di = Decimal(_POLY[0]), Decimal(0), Decimal(0), Decimal(0)
        for a in _POLY[1:]:
            dr, di = dr * zr - di * zi + fr, dr * zi + di * zr + fi
            fr, fi = fr * zr - fi * zi + a, fr * zi + fi * zr
        den = dr * dr + di * di
        sr, si = (fr * dr + fi * di) / den, (fi * dr - fr * di) / den
        zr, zi = zr - sr, zi - si
        if all(s == 0 or s.adjusted() <= z.adjusted() - prec + 3
               for s, z in ((sr, zr), (si, zi))):
            return DecimalComplex(zr, zi)
    raise RootRefinementError("Newton refinement did not converge")


def compute_roots(ctx: PrecisionContext) -> CharacteristicRoots:
    """All six characteristic roots at the context's precision.

    Each non-unit root is Newton-refined from its seed in ``_SEEDS``; the
    root at 1 is exact.
    """
    with decimal.localcontext(ctx.context()) as c:
        u, v, w = (_newton(seed, c.prec) for seed in _SEEDS)
        return CharacteristicRoots(
            root_unit=Decimal(1), u=u.re,
            v_plus=v, v_minus=DecimalComplex(v.re, -v.im),
            w_plus=w, w_minus=DecimalComplex(w.re, -w.im),
            modulus_u=abs(u.re),
            modulus_v=(v.re * v.re + v.im * v.im).sqrt(),
            modulus_w=(w.re * w.re + w.im * w.im).sqrt())


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
