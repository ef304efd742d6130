"""Ever-hit probabilities, characteristic roots, and the decay bound."""

import decimal
import functools
import itertools
from decimal import ROUND_CEILING, Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import agreed_digits, pn_numerators_six_term, pn_reference, rational_to_decimal
from hittime.hitprob import (
    _POLY,
    _SEEDS,
    DecimalComplex,
    compute_roots,
    epsilon,
    pn_exact,
    pn_numerators,
)
from hittime.cli import main
from hittime.numerics import GUARD_DIGITS, digit_string, make_context

# The first eight ever-hit probabilities, exact.
FIRST_EIGHT = [
    Fraction(1, 6),
    Fraction(7, 36),
    Fraction(49, 216),
    Fraction(343, 1296),
    Fraction(2401, 7776),
    Fraction(16807, 46656),
    Fraction(70993, 279936),
    Fraction(450295, 1679616),
]


def exact_pn(n_max: int) -> list[Fraction]:
    return [Fraction(q, 6**n)
            for n, q in enumerate(itertools.islice(pn_numerators(), n_max + 1))]


@functools.lru_cache(maxsize=None)
def w_modulus_up() -> Fraction:
    """|w| rounded up to 40 digits from its 60-digit Newton value."""
    roots = compute_roots(make_context(60))
    return Fraction(Decimal(digit_string(roots.modulus_w, 40, ROUND_CEILING)))


@pytest.mark.parametrize("n,expected", list(enumerate(FIRST_EIGHT, start=1)))
def test_pn_exact_first_values(n, expected):
    assert pn_exact(n) == expected


def test_pn_exact_seed_and_range():
    assert pn_exact(0) == 1
    # no cap: rows past n = 64 are exact too
    assert pn_exact(65) == pn_reference(65)
    with pytest.raises(ValueError):
        pn_exact(-1)


def test_pn_probability_range():
    for p in exact_pn(200):
        assert 0 <= p <= 1


def test_pn_numerators_match_reference():
    # the generator's Q_n = 7 Q_{n-1} - 6^6 Q_{n-7} against the six-term
    # recurrence for every n <= 2000, and both against the Fraction loop
    n_max = 2000
    q = list(itertools.islice(pn_numerators(), n_max + 1))
    assert q == pn_numerators_six_term(n_max)
    for n in list(range(71)) + [500, n_max]:
        assert Fraction(q[n], 6**n) == pn_reference(n)
    # Q_n = 1 mod 6, so Q_n / 6^n is in lowest terms
    assert all(x % 6 == 1 for x in q)


def test_pn_maximum_at_six():
    # maximum over n >= 1 (p_0 = 1 is the recurrence seed, not a hit event)
    values = exact_pn(500)
    p6 = values[6]
    assert all(p6 > p for n, p in enumerate(values) if n != 6 and n >= 1)
    assert pn_exact(6) == Fraction(16807, 46656)


def test_pn_limit_two_sevenths():
    assert abs(pn_exact(200) - Fraction(2, 7)) <= epsilon(200) < Fraction(1, 10**27)


def test_figure1_table(capsys):
    # Figure 1 plots p_n for n = 1 .. 100; the pn command rounds each row
    # once, to 15 significant digits, from the exact value, and refuses an
    # empty table
    assert main(["pn", "--max", "100"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.split()[1:]]
    assert len(rows) == 100
    assert rows[0][0] == "1"
    for n, p in rows:
        assert p == digit_string(pn_reference(int(n)), 15)
    assert digit_string(Decimal(rows[0][1]), 10) == "0.1666666667"
    # the tail of the table has settled near 2/7
    assert abs(Fraction(rows[-1][1]) - Fraction(2, 7)) < Fraction(1, 10**10)
    assert main(["pn", "--max", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_figure1_csv_format(capsys):
    assert main(["pn", "--max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,p_n"
    assert len(lines) == 4
    n, p = lines[1].split(",")
    assert n == "1"
    assert len(p.replace("0.", "")) <= 15


def test_root_moduli_ten_digits():
    roots = compute_roots(make_context(50))
    assert digit_string(roots.modulus_w, 10) == "0.7302499667"
    assert digit_string(roots.modulus_v, 10) == "0.6828225223"
    assert digit_string(roots.modulus_u, 10) == "0.6703320476"
    assert roots.u < 0
    assert roots.root_unit == 1


def test_root_components_ten_digits():
    roots = compute_roots(make_context(50))
    assert digit_string(roots.u, 10) == "-0.6703320476"
    assert digit_string(roots.w_plus.re, 10) == "0.2941945564"
    assert digit_string(roots.w_plus.im, 10) == "0.6683670974"
    assert digit_string(roots.v_plus.re, 10) == "-0.3756951992"
    assert digit_string(roots.v_plus.im, 10) == "0.5701751610"
    assert roots.w_minus.im == roots.w_plus.im.copy_negate()
    assert roots.v_minus.im == roots.v_plus.im.copy_negate()


def test_root_ordering_of_moduli():
    roots = compute_roots(make_context(40))
    assert roots.modulus_u <= roots.modulus_w
    assert roots.modulus_v <= roots.modulus_w
    assert roots.modulus_w < 1


def _residual(c: decimal.Context, z: DecimalComplex) -> Decimal:
    # |z^6 - (z^5 + z^4 + z^3 + z^2 + z + 1) / 6|
    powers = [DecimalComplex(Decimal(1), Decimal(0))]
    for _ in range(6):
        prev = powers[-1]
        re = c.subtract(c.multiply(prev.re, z.re), c.multiply(prev.im, z.im))
        im = c.add(c.multiply(prev.re, z.im), c.multiply(prev.im, z.re))
        powers.append(DecimalComplex(re, im))
    sum_re = Decimal(0)
    sum_im = Decimal(0)
    for p in powers[:6]:
        sum_re = c.add(sum_re, p.re)
        sum_im = c.add(sum_im, p.im)
    res_re = c.subtract(powers[6].re, c.divide(sum_re, Decimal(6)))
    res_im = c.subtract(powers[6].im, c.divide(sum_im, Decimal(6)))
    return c.sqrt(c.add(c.multiply(res_re, res_re), c.multiply(res_im, res_im)))


@pytest.mark.parametrize("working", [50, 120, 1200])
def test_root_residuals(working):
    ctx = make_context(working)
    roots = compute_roots(ctx)
    c = ctx.context()
    tol = Decimal(1).scaleb(-(working - GUARD_DIGITS))
    for z in (roots.w_plus, roots.w_minus, roots.v_plus, roots.v_minus,
              DecimalComplex(roots.u, Decimal(0)),
              DecimalComplex(roots.root_unit, Decimal(0))):
        assert _residual(c, z) < tol


def test_seeds_are_double_precision_roots():
    # each fixed seed is within 1e-12 of its own root of the companion
    # matrix: u, then v+ and w+ in increasing modulus
    eigen = list(np.roots(_POLY))
    nearest = [min(eigen, key=lambda z: abs(z - seed)) for seed in _SEEDS]
    assert all(abs(z - seed) < 1e-12 for z, seed in zip(nearest, _SEEDS))
    assert len(set(nearest)) == len(_SEEDS)
    u, v, w = _SEEDS
    assert u.imag == 0 and u.real < 0 and v.imag > 0 and w.imag > 0
    assert abs(u) < abs(v) < abs(w) < 1


def test_closed_form_equals_recurrence():
    # p_n = (2 + u^n + v+^n + v-^n + w+^n + w-^n) / 7 must reproduce the
    # recurrence to working precision minus 5 digits for n = 1..200.
    working = 60
    ctx = make_context(working)
    roots = compute_roots(ctx)
    c = ctx.context()

    def advance(p: DecimalComplex, z: DecimalComplex) -> DecimalComplex:
        return DecimalComplex(
            c.subtract(c.multiply(p.re, z.re), c.multiply(p.im, z.im)),
            c.add(c.multiply(p.re, z.im), c.multiply(p.im, z.re)))

    u_pow = Decimal(1)
    v_pow = DecimalComplex(Decimal(1), Decimal(0))
    w_pow = DecimalComplex(Decimal(1), Decimal(0))
    seven = Decimal(7)
    for n in range(1, 201):
        u_pow = c.multiply(u_pow, roots.u)
        v_pow = advance(v_pow, roots.v_plus)
        w_pow = advance(w_pow, roots.w_plus)
        # conjugate pairs sum to twice the real part
        total = c.add(c.add(Decimal(2), u_pow),
                      c.add(c.multiply(Decimal(2), v_pow.re),
                            c.multiply(Decimal(2), w_pow.re)))
        closed = c.divide(total, seven)
        assert agreed_digits(closed, rational_to_decimal(pn_exact(n), ctx),
                             working) >= working - 5


def test_epsilon_envelope_two_sided():
    # |p_n - 2/7| = |(1 - p_n) - 5/7| <= epsilon(n) <= (5/7)|w|^n for
    # n = 1..500, exactly, with |w| rounded up
    w_up = w_modulus_up()
    for n, p in enumerate(exact_pn(500)):
        if n == 0:
            continue
        eps = epsilon(n)
        assert abs(p - Fraction(2, 7)) <= eps
        assert abs((1 - p) - Fraction(5, 7)) <= eps
        assert eps <= Fraction(5, 7) * w_up**n


def test_epsilon_monotone_decreasing():
    # a supremum over m >= n never grows with n; it stays flat while the
    # window's maximum stays inside the window, and falls within six steps,
    # as each d_m is a mean of the six before it
    values = [epsilon(n) for n in range(1, 60)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(a > b for a, b in zip(values, values[6:]))
    assert all(v > 0 for v in values)


def test_epsilon_first_value():
    # the window p_1 .. p_6 peaks at |p_1 - 2/7| = 5/42, which epsilon
    # rounds up onto the grid of 64 significant bits
    got = epsilon(1)
    assert got == Fraction(-(-5 * 2**67 // 42), 2**67)
    assert Fraction(5, 42) < got < Fraction(5, 42) * (1 + Fraction(1, 2**63))


def test_epsilon_never_understates():
    # epsilon(n) is the window maximum of |p_j - 2/7| over n <= j <= n+5,
    # from the Fraction loop, rounded up by less than one part in 2^63
    for n in (1, 5, 17, 100):
        window_max = max(abs(pn_reference(j) - Fraction(2, 7)) for j in range(n, n + 6))
        assert window_max <= epsilon(n) < window_max * (1 + Fraction(1, 2**63))


@pytest.fixture(scope="module")
def pn_tail() -> list[int]:
    """Q_0 .. Q_4396, Q_n = 6^n p_n, enough for K = 1200."""
    return pn_numerators_six_term(2 * 1200 - 4 + 2000)


@pytest.mark.parametrize("k", list(range(4, 41)) + [50, 500, 1200])
def test_epsilon_bounds_every_later_gap(k, pn_tail):
    # certify needs |p_m - 2/7| <= epsilon(2K - 4) for every m >= 2K - 4;
    # checked exactly for 2001 of them, from the six-term recurrence, and
    # epsilon stays below the paper's envelope (5/7)|w|^(2K-4)
    n0 = 2 * k - 4
    eps = epsilon(n0)
    a, b = eps.numerator, eps.denominator
    for m in range(n0, n0 + 2001):
        six_m = 6**m
        # |7 Q_m - 2 6^m| / (7 6^m) <= a / b
        assert abs(7 * pn_tail[m] - 2 * six_m) * b <= 7 * six_m * a
    assert eps <= Fraction(5, 7) * w_modulus_up()**n0
