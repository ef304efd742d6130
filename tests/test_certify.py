"""Overshoot constants, interval composition, and digit certification."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import agreed_digits, rational_to_decimal
from hittime import cli
from hittime.certify import (
    DivergentSeriesError,
    InvertedIntervalError,
    certified_digit_count,
    certify_squares,
    compose_estimate,
    overshoot_bounds,
    recommended_digits,
    sigma_series,
    solve_digits,
)
from hittime.numerics import digit_string, make_context
from hittime.oracle import exact_dp
from hittime.walkmodel import ConfigError, DieModel, TargetSet, solve_pair

# independently published 21-digit reference value for the squares target
PUBLISHED_21 = "7.079764237551105103895"


def test_sigma_linear_forms_exact():
    for k in (4, 10, 500, 7000):
        lower = sigma_series(5, Fraction(5, 7), Fraction(2, 7), k) / 6
        upper = sigma_series(1, Fraction(5, 7), Fraction(2, 7), k)
        assert lower == Fraction(7 * k, 6) + Fraction(8, 3)
        assert upper == 7 * k + 20


def test_sigma_matches_partial_sums():
    # closed form against a straight partial sum with the exact tail left over
    k = 10
    r = Fraction(4, 5)
    t = Fraction(2, 7)
    closed = sigma_series(5, r, t, k)
    partial = Fraction(0)
    for j in range(2001):
        partial += ((k + 1 + j) ** 2 - k * k - 5) * r**j * t
    assert partial < closed
    # remaining tail: coefficients grow at most like (1+i)^2 relative to the
    # first omitted term, so the tail is below next_term * (1+r)/(1-r)^3
    next_term = ((k + 2002) ** 2 - k * k - 5) * r**2001 * t
    assert closed - partial < next_term * (1 + r) / (1 - r) ** 3


def test_sigma_validation():
    with pytest.raises(DivergentSeriesError):
        sigma_series(1, Fraction(7, 5), Fraction(1, 3), 10)
    with pytest.raises(DivergentSeriesError):
        sigma_series(1, Fraction(1), Fraction(1, 2), 10)
    with pytest.raises(ValueError):
        sigma_series(2, Fraction(1, 2), Fraction(1, 3), 10)


def test_zero_epsilon_constants_at_7000():
    lower = sigma_series(5, Fraction(5, 7), Fraction(2, 7), 7000) / 6
    upper = sigma_series(1, Fraction(5, 7), Fraction(2, 7), 7000)
    assert lower == Fraction(49016, 6)  # 8169.333...
    assert upper == 49020
    assert digit_string(rational_to_decimal(lower, make_context(30)), 10) == "8169.333333"


def test_overshoot_bounds_decimal_close_to_linear_forms():
    for k in (10, 12, 50, 100):
        b = overshoot_bounds(k)
        l0 = sigma_series(5, Fraction(5, 7), Fraction(2, 7), k) / 6
        u0 = sigma_series(1, Fraction(5, 7), Fraction(2, 7), k)
        eps = b.epsilon_n
        # a growing epsilon always lowers L and raises U
        assert Fraction(b.lower) <= l0
        assert Fraction(b.upper) >= u0
        if k >= 12:
            # the 10 eps K^2 degradation cap is violated by ~7% at exactly
            # K = 10 (U side); it holds with margin from K = 12 on
            assert abs(Fraction(b.lower) - l0) < 10 * eps * k * k
            assert abs(Fraction(b.upper) - u0) < 10 * eps * k * k
        assert 0 < b.lower < b.upper
        assert 0 < Fraction(5, 7) + eps < 1
        assert Fraction(2, 7) - eps > 0


def test_overshoot_bounds_printed_values_at_7000():
    # with epsilon at about 3e-1912 the decimal bounds still print as
    # the linear forms: L repeats 3s, U is exactly 49020 at any sane depth
    b = overshoot_bounds(7000)
    assert digit_string(b.lower, 20) == "8169.3333333333333333"
    assert digit_string(b.upper, 20) == "49020.000000000000000"


def test_overshoot_bounds_round_outward():
    # L_N and U_N are the exact series values at the reported epsilon,
    # which is itself an upper bound on the true one; only the report
    # rounds them, outward
    for k in (4, 500, 7000):
        b = overshoot_bounds(k)
        eps = b.epsilon_n
        exact_lower = sigma_series(5, Fraction(5, 7) - eps, Fraction(2, 7) - eps, k) / 6
        exact_upper = sigma_series(1, Fraction(5, 7) + eps, Fraction(2, 7) + eps, k)
        assert b.lower == exact_lower
        assert b.upper == exact_upper


def test_audit_of_certification_pipeline():
    # composing K=500 from a solve on a grid of 400 digits, far finer than
    # solve_digits(500), must agree on at least the certified digits
    ctx = make_context(200)
    est = certify_squares(500)
    fine = compose_estimate(
        solve_pair(TargetSet.perfect_squares(), DieModel(6), 500**2, 0, make_context(400)),
        overshoot_bounds(500))
    assert est.certified_digits == 68
    assert agreed_digits(rational_to_decimal(est.point_value, ctx),
                         rational_to_decimal(fine.point_value, ctx),
                         ctx.working_digits) >= est.certified_digits


def test_solve_grid_follows_k_not_printed_digits(capsys):
    # the estimate is a function of K and the start alone, so printing it
    # at the default 135 digits or at 400 certifies the same places
    reports = []
    for precision in ("135", "400"):
        assert cli.main(["certify", "--K", "500", "--precision", precision]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    coarse, fine = reports
    assert coarse["certified_digits"] == fine["certified_digits"] == 68
    assert coarse["point_value"][:2 + 68] == fine["point_value"][:2 + 68]
    assert recommended_digits(500) == 135 > solve_digits(500)


@pytest.mark.parametrize("k", [4, 27, 50, 206, 500, 1200, 2000])
def test_solve_widths_lie_far_below_radius(k):
    # the grid solve_digits(K) keeps the solve's proven widths at least
    # 2^100 times below the radius (U - L) P they are added to
    est = certify_squares(k)
    sol = est.solution
    assert sol.p_hi > 0
    widths = (sol.e_hi - sol.e_lo) + est.bounds.upper * (sol.p_hi - sol.p_lo)
    assert widths * 2**100 <= est.error_radius


def test_overshoot_bounds_validation():
    # the one check on K: below MIN_K is an input error, before any solve
    with pytest.raises(ConfigError):
        overshoot_bounds(3)
    with pytest.raises(ConfigError):
        certify_squares(3)


def test_certified_digit_count_examples():
    assert certified_digit_count(Fraction("1.0"), Fraction("1.2")) == 0
    assert certified_digit_count(Fraction("0.123449"), Fraction("0.123451")) == 4
    point = Fraction("7.0797")
    assert certified_digit_count(point, point + Fraction("6.16E-1019")) >= 1017
    with pytest.raises(InvertedIntervalError):
        certified_digit_count(Fraction(1), Fraction(1))
    with pytest.raises(InvertedIntervalError):
        certified_digit_count(Fraction(1), Fraction("0.9"))


def test_certified_digit_count_run_of_nines():
    # the width allows about 50 places, but 7.07979...9 and 7.0798... part
    # at the fourth, so the walk descends from there to 3
    nines = Fraction("7.0798") - Fraction(1, 10**50)
    assert certified_digit_count(nines, Fraction("7.0798") + Fraction(1, 10**60)) == 3
    assert certified_digit_count(Fraction(1) - Fraction(1, 10**50), Fraction(1)) == 0


def test_certified_digit_count_integer_part_mismatch():
    assert certified_digit_count(Fraction("1.94"), Fraction("2.14")) == 0


@given(lower=st.fractions(min_value=0, max_value=100, max_denominator=10**40),
       width=st.fractions(min_value=Fraction(1, 10**45), max_value=3,
                          max_denominator=10**50)
       | st.integers(0, 45).map(lambda j: Fraction(1, 10**j)))
def test_certified_digit_count_is_the_shared_prefix(lower, width):
    # d places agree, and the next does not (or the integer parts differ)
    upper = lower + width
    d = certified_digit_count(lower, upper)

    def agree(places):
        return math.floor(lower * 10**places) == math.floor(upper * 10**places)

    if agree(0):
        assert agree(d) and not agree(d + 1)
    else:
        assert d == 0


def test_certify_published_prefix():
    est = certify_squares(500)
    assert est.certified_digits >= 21
    assert digit_string(est.point_value, 205).startswith(PUBLISHED_21)
    assert est.error_radius > 0
    assert est.solution.cutoff == 250000
    assert not est.exact


def test_certify_point_values_increase_with_k():
    points = []
    for k in (8, 16, 50, 100, 300):
        points.append(certify_squares(k).point_value)
    assert all(a < b for a, b in zip(points, points[1:]))


def test_certify_nested_intervals():
    estimates = {}
    for k in (8, 16, 50, 100, 300):
        estimates[k] = certify_squares(k)
    ks = sorted(estimates)
    for i, k1 in enumerate(ks):
        e1 = estimates[k1]
        lo = Fraction(e1.point_value)
        hi = lo + Fraction(e1.error_radius)
        for k2 in ks[i + 1:]:
            e2 = estimates[k2]
            assert lo < Fraction(e2.point_value) < hi


def test_certify_nonzero_start():
    # bounds hold for every start state in [0, N]
    ctx = make_context(recommended_digits(20))
    est0 = certify_squares(20, start=0)
    est5 = certify_squares(20, start=5)
    assert est5.solution.start == 5
    assert est5.point_value != est0.point_value
    e_ref, _ = exact_dp(TargetSet.perfect_squares(), 400, 5)
    # point value is a strict lower bound that lies close above E_N(5)
    assert Fraction(est5.solution.e_lo) <= Fraction(est5.point_value)
    assert agreed_digits(rational_to_decimal(est5.solution.e_lo, ctx),
                         rational_to_decimal(e_ref, ctx), 40) >= 35
    with pytest.raises(ValueError):
        certify_squares(20, start=401)


def test_degenerate_composition_has_zero_radius():
    ctx = make_context(60)
    bounds = overshoot_bounds(10)
    dense = TargetSet.from_list(list(range(1, 101)), 100)
    sol = solve_pair(dense, DieModel(6), 100, 0, ctx)
    est = compose_estimate(sol, bounds)
    assert est.exact
    assert est.error_radius == 0
    assert est.point_value == sol.e_lo
    assert est.certified_digits == certified_digit_count(sol.e_lo, sol.e_hi)


def test_interval_contains_exact_small_case():
    # at K = 8 the interval is wide but must still contain the true value,
    # approximated here by a much deeper truncation
    est = certify_squares(8)
    deep = solve_pair(TargetSet.perfect_squares(), DieModel(6), 10000, 0, make_context(80))
    truth = Fraction(deep.e_n_value)  # converged far beyond K=8 resolution
    assert Fraction(est.point_value) < truth < Fraction(est.point_value) + Fraction(est.error_radius)
