"""Ever-hit probabilities, characteristic roots, and the decay envelope."""

import decimal
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import agreed_digits, rational_to_decimal
from hittime.hitprob import (
    PN_EXACT_MAX,
    DecimalComplex,
    compute_roots,
    epsilon,
    pn_exact,
    pn_series,
)
from hittime.cli import main
from hittime.numerics import (
    GUARD_DIGITS,
    MIN_WORKING_DIGITS,
    digit_string,
    make_context,
)

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


@pytest.mark.parametrize("n,expected", list(enumerate(FIRST_EIGHT, start=1)))
def test_pn_exact_first_values(n, expected):
    assert pn_exact(n) == expected


def test_pn_exact_seed_and_range():
    assert pn_exact(0) == 1
    assert pn_exact(PN_EXACT_MAX).denominator > 0
    with pytest.raises(ValueError):
        pn_exact(-1)
    with pytest.raises(ValueError):
        pn_exact(PN_EXACT_MAX + 1)


def test_pn_probability_range():
    for n in range(PN_EXACT_MAX + 1):
        p = pn_exact(n)
        assert 0 <= p <= 1


def test_pn_series_matches_exact():
    ctx = make_context(50)
    values = dict(pn_series(64, ctx))
    for n in (0, 1, 6, 13, 40, 64):
        ref = rational_to_decimal(pn_exact(n), ctx)
        assert agreed_digits(values[n], ref, 50) >= 50 - 2
    with pytest.raises(ValueError):
        list(pn_series(-1, ctx))


def test_pn_maximum_at_six():
    # maximum over n >= 1 (p_0 = 1 is the recurrence seed, not a hit event)
    ctx = make_context(60)
    values = dict(pn_series(500, ctx))
    p6 = values[6]
    assert all(p6 > p for n, p in values.items() if n != 6 and n >= 1)
    assert pn_exact(6) == Fraction(16807, 46656)


def test_pn_limit_two_sevenths():
    ctx = make_context(60)
    p200 = dict(pn_series(200, ctx))[200]
    eps = epsilon(200, compute_roots(ctx))
    assert abs(p200 - rational_to_decimal(Fraction(2, 7), ctx)) <= eps


def test_figure1_table(capsys):
    # Figure 1 plots p_n for n = 1 .. 100; the pn command builds its decimal
    # table from pn_series at MIN_WORKING_DIGITS and refuses an empty table
    series = pn_series(100, make_context(MIN_WORKING_DIGITS))
    rows = [(n, p) for n, p in series if n >= 1]
    assert len(rows) == 100
    assert rows[0][0] == 1
    assert digit_string(rows[0][1], 10) == "0.1666666667"
    # the tail of the table has settled near 2/7
    tail = rows[-1][1]
    assert abs(tail - Decimal(2) / Decimal(7)) < Decimal("1e-10")
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


@pytest.mark.parametrize("working", [50, 120])
def test_root_residuals(working):
    ctx = make_context(working)
    roots = compute_roots(ctx)
    c = ctx.context()
    tol = Decimal(1).scaleb(-(working - GUARD_DIGITS))
    for z in (roots.w_plus, roots.w_minus, roots.v_plus, roots.v_minus,
              DecimalComplex(roots.u, Decimal(0)),
              DecimalComplex(roots.root_unit, Decimal(0))):
        assert _residual(c, z) < tol


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
    series = dict(pn_series(200, ctx))
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
        assert agreed_digits(closed, series[n], working) >= working - 5


def test_epsilon_envelope_two_sided():
    # two-sided bound |p_n - 2/7| <= (5/7)|w|^n for n = 1..500
    working = 60
    ctx = make_context(working)
    c = ctx.context()
    roots = compute_roots(ctx)
    two_sevenths = rational_to_decimal(Fraction(2, 7), ctx)
    five_sevenths = rational_to_decimal(Fraction(5, 7), ctx)
    slack = Decimal(1).scaleb(-(working - 5))
    for n, p in pn_series(500, ctx):
        if n == 0:
            continue
        eps = epsilon(n, roots)
        assert abs(c.subtract(p, two_sevenths)) <= eps + slack
        q = c.subtract(Decimal(1), p)
        assert abs(c.subtract(q, five_sevenths)) <= eps + slack


def test_epsilon_monotone_decreasing():
    roots = compute_roots(make_context(40))
    values = [epsilon(n, roots) for n in range(1, 60)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_epsilon_first_value():
    ctx = make_context(40)
    roots = compute_roots(ctx)
    direct = ctx.context().multiply(
        ctx.context().divide(Decimal(5), Decimal(7)), roots.modulus_w)
    got = epsilon(1, roots)
    # upward bias keeps the bound at or above the plainly rounded product
    assert got >= direct
    assert agreed_digits(got, direct, 40) >= 38


def test_epsilon_never_understates():
    # compare against an exact-rational overestimate check: the returned
    # epsilon must dominate (5/7) * |w|^n computed from an interval below.
    ctx = make_context(40)
    roots = compute_roots(ctx)
    w_lo = Fraction(roots.modulus_w) - Fraction(1, 10**40)
    for n in (1, 5, 17, 100):
        lower = Fraction(5, 7) * w_lo**n
        assert Fraction(epsilon(n, roots)) >= lower
