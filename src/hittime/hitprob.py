"""Ever-hit probabilities p_n, characteristic roots, and the decay envelope.

Starting the walk at 0, the probability p_n that the running sum of fair
six-sided die rolls ever equals n obeys the order-6 linear recurrence

    p_n = (p_{n-1} + p_{n-2} + p_{n-3} + p_{n-4} + p_{n-5} + p_{n-6}) / 6,
    p_0 = 1,  p_n = 0 for n < 0,

whose characteristic polynomial 6 z^6 - z^5 - z^4 - z^3 - z^2 - z - 1 has
the root 1 plus five roots of modulus < 1: one real negative root u and two
complex-conjugate pairs v and w.  p_n converges to 2/7 at the geometric
rate of the dominant subunit modulus |w|, and

    |p_n - 2/7| <= (5/7) |w|^n

is the two-sided envelope whose value at n = 2K - 4 feeds the certified
overshoot constants for the perfect-square cutoff N = K^2.

The roots are seeded at machine precision from the companion matrix and
then Newton-refined at full working precision; envelope values are rounded
with upward bias in the final digits so a bound is never understated.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .numerics import PrecisionContext, ulp_up

__all__ = [
    "PN_EXACT_MAX",
    "RootRefinementError",
    "DecimalComplex",
    "CharacteristicRoots",
    "pn_exact",
    "pn_series",
    "compute_roots",
    "epsilon",
]

# Exact fractions have denominators 6^n; 64 keeps the oracle instantaneous
# while covering every tabulated value.
PN_EXACT_MAX = 64

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
    ctx: PrecisionContext


def pn_exact(n: int) -> Fraction:
    """Exact rational p_n for 0 <= n <= 64."""
    if n < 0 or n > PN_EXACT_MAX:
        raise ValueError(f"pn_exact supports 0 <= n <= {PN_EXACT_MAX}, got {n}")
    window = [Fraction(0)] * 6  # p_{k-1} .. p_{k-6}, seeded with p_0 = 1
    window[0] = Fraction(1)
    if n == 0:
        return Fraction(1)
    value = Fraction(0)
    for _ in range(n):
        value = sum(window) / 6
        window = [value] + window[:5]
    return value


def pn_series(n_max: int, ctx: PrecisionContext) -> Iterator[tuple[int, Decimal]]:
    """Stream (n, p_n) in decimal mode for n = 0 .. n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    c = ctx.context()
    add = c.add
    div = c.divide
    six = Decimal(6)
    window = [Decimal(0)] * 6
    window[0] = Decimal(1)
    yield 0, Decimal(1)
    for n in range(1, n_max + 1):
        acc = window[0]
        for j in range(1, 6):
            acc = add(acc, window[j])
        value = div(acc, six)
        window = [value] + window[:5]
        yield n, value


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
        ctx=ctx,
    )


def _pow_round_up(c: decimal.Context, base: Decimal, n: int) -> Decimal:
    """base**n by binary exponentiation with every product rounded up."""
    result = Decimal(1)
    acc = base
    e = n
    while e:
        if e & 1:
            result = c.multiply(result, acc)
        e >>= 1
        if e:
            acc = c.multiply(acc, acc)
    return result


def epsilon(n: int, roots: CharacteristicRoots) -> Decimal:
    """Envelope value (5/7)|w|^n with upward bias, never understated.

    The modulus is nudged up one unit in its last internal digit and every
    multiplication rounds away from zero, so the returned value is a true
    upper bound on the exact envelope despite finite precision.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = roots.ctx
    c_up = ctx.context(decimal.ROUND_UP)
    base = ulp_up(roots.modulus_w, ctx)
    power = _pow_round_up(c_up, base, n)
    five_sevenths = c_up.divide(Decimal(5), Decimal(7))
    return c_up.multiply(five_sevenths, power)
