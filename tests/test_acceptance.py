"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
pass lines inline).  Criterion 6 is the full 1,000+ digit reproduction;
it takes about 2 s on a 2-vCPU Xeon and runs with the rest of the suite.
"""

import itertools
import json
import time
from decimal import ROUND_FLOOR, Decimal
from fractions import Fraction

from unittest import mock

from conftest import agreed_digits, forward_reference, rational_to_decimal
from hittime import walkmodel
from hittime.certify import certify_squares, sigma_series
from hittime.cli import main
from hittime.hitprob import compute_roots, pn_exact, pn_numerators
from hittime.numerics import digit_string, make_context
from hittime.oracle import McConfig, dp_tables, simulate_hitting
from hittime.walkmodel import DieModel, TargetSet, solve_pair

# Published reference values for the perfect-square expected hitting time.
# independently published 21-digit reference value for the squares target
PUBLISHED_21 = "7.079764237551105103895"
REFERENCE_E0 = (
    "7.0797642375511051038955530569081848946817114442632088059088731015172930"
    "306366572891506194402159295861406438530582366178390388054374270371619832"
    "251988435018692956813776498234440715233888008820745531068102279351912201"
    "497399312969543765589331921953693949583510111531141117999190881385051385"
    "993572642734582955346536537055487204771303737046494496070462752088408207"
    "916153631835937869840855942020528844752082478429005182914578014262554948"
    "325908230305047748136841290303836186610919947293463168991266582586867447"
    "217766236921643399987864860706302563591722932139301311266606613053537270"
    "912752830338219095963711644633463513431432765595336790889294337954095920"
    "737733995182964165404702948953236236292249929974777608530539038939897313"
    "532871879311367044360942347466466639767034394677123411717186190853174073"
    "085523878990940735330862620576871435574740617634573981362411821384208149"
    "298964783485461265863125045090486560427361918575110987791166131481796648"
    "503799789876560916765012999442010867907907370715432893078841972719702050"
    "89906775387"
)
REFERENCE_P0_40 = "1.508850331472307815412722898448210123557"
REFERENCE_RADIUS_40 = "6.163754194086475579815333888354168235404"

SQUARES = TargetSet.perfect_squares()
D6 = DieModel(6)


def report(num: int, name: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS ({elapsed:.2f}s)")


def test_criterion_01_exact_fractions():
    t0 = time.perf_counter()
    expected = [
        Fraction(1, 6), Fraction(7, 36), Fraction(49, 216), Fraction(343, 1296),
        Fraction(2401, 7776), Fraction(16807, 46656), Fraction(70993, 279936),
        Fraction(450295, 1679616),
    ]
    assert [pn_exact(n) for n in range(1, 9)] == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "exact fractions p_1..p_8", elapsed)


def test_criterion_02_root_moduli():
    t0 = time.perf_counter()
    roots = compute_roots(make_context(50))
    assert digit_string(roots.modulus_w, 10) == "0.7302499667"
    assert digit_string(roots.modulus_v, 10) == "0.6828225223"
    assert digit_string(roots.modulus_u, 10) == "0.6703320476"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, "root moduli to 10 digits", elapsed)


def test_criterion_03_envelope():
    # |p_n - 2/7| <= (5/7)|w|^n for n = 1..500, exactly: p_n = Q_n / 6^n
    # and |w| rounded down to 50 digits, w_lo = a / 10^50, so the check is
    # |7 Q_n - 2 6^n| 10^(50 n) <= 5 6^n a^n in integers
    t0 = time.perf_counter()
    roots = compute_roots(make_context(60))
    a = int(Decimal(digit_string(roots.modulus_w, 50, ROUND_FLOOR)).scaleb(50))
    numerators = itertools.islice(pn_numerators(), 1, 501)
    for n, q in enumerate(numerators, start=1):
        six_n = 6**n
        assert abs(7 * q - 2 * six_n) * 10**(50 * n) <= 5 * six_n * a**n
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, "two-sided envelope n=1..500", elapsed)


def test_criterion_04_desk_scale_certification(capsys):
    t0 = time.perf_counter()
    code = main(["certify", "--K", "500", "--precision", "200"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["certified_digits"] >= 21
    assert rep["point_value"].startswith(PUBLISHED_21)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    with capsys.disabled():
        report(4, "certify K=500 at 200 digits (published prefix)", elapsed)


def test_criterion_05_constants_at_zero_epsilon():
    t0 = time.perf_counter()
    r, t = Fraction(5, 7), Fraction(2, 7)
    for k in (4, 17, 500, 7000):
        lower, upper = sigma_series(5, r, t, k) / 6, sigma_series(1, r, t, k)
        assert lower == Fraction(7 * k, 6) + Fraction(8, 3)
        assert upper == 7 * k + 20
    lower, upper = sigma_series(5, r, t, 7000) / 6, sigma_series(1, r, t, 7000)
    assert lower == Fraction(49016, 6)  # = 8169.333... repeating
    assert upper == 49020
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(5, "zero-envelope constants L, U", elapsed)


def test_criterion_06_full_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["certify", "--K", "7000", "--precision", "1200"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    # the published values carry 40 significant digits (rounded)
    assert digit_string(Decimal(rep["P0_AN"]), 40) == REFERENCE_P0_40 + "E-1023"
    assert digit_string(Decimal(rep["error_radius"]), 40) == REFERENCE_RADIUS_40 + "E-1019"
    assert rep["certified_digits"] >= 1017
    assert rep["point_value"][:1002] == REFERENCE_E0[:1002]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(6, "full K=7000 reproduction (target < 1200s)", elapsed)


def test_criterion_07_oracle_equivalence():
    t0 = time.perf_counter()
    working = 60
    ctx = make_context(working)
    for n in (10, 16, 100, 1000):
        targets = [SQUARES, TargetSet.from_list([3, 7, 20]),
                   TargetSet.from_list(list(range(1, n + 1)), n)]
        for target in targets:
            e_tab, p_tab = dp_tables(target, n, 0)
            for s in range(n + 1):
                sol = solve_pair(target, D6, n, s, ctx)
                e, p = sol.e_n_value, sol.overshoot_prob
                assert agreed_digits(e, rational_to_decimal(e_tab[s], ctx),
                                     working) >= working - 5
                assert agreed_digits(p, rational_to_decimal(p_tab[s], ctx),
                                     working) >= working - 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, "decimal solves match exact oracle on full grid", elapsed)


def test_criterion_08_monotonicity_and_nesting():
    t0 = time.perf_counter()
    ctx = make_context(60)
    values = []
    for n in (16, 100, 400, 2500, 10000):
        values.append(solve_pair(SQUARES, D6, n, 0, ctx).e_n_value)
    assert all(a <= b for a, b in zip(values, values[1:]))
    est50 = certify_squares(50)
    est200 = certify_squares(200)
    low = Fraction(est50.point_value)
    high = low + Fraction(est50.error_radius)
    assert low < Fraction(est200.point_value) < high
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, "monotone in N; K=50 interval contains K=200 point", elapsed)


def test_criterion_09_monte_carlo():
    t0 = time.perf_counter()
    res = simulate_hitting(McConfig(trials=1_000_000, seed=42))
    assert res.capped_trials == 0
    # 5 standard errors: two-sided false-failure probability ~ 5.7e-7 < 1e-5
    assert abs(res.mean - 7.0797642) < 5 * res.std_error
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(9, "Monte Carlo 1e6 trials within 5 s.e.", elapsed)


def test_criterion_10_rolling_window_equivalence():
    t0 = time.perf_counter()
    # the kernel's rows in difference form, stepping every state,
    # equal the plain-list forward reference bit for bit
    ctx = make_context(100)
    n = 10**4
    with mock.patch.object(walkmodel, "JUMP_MIN", 10**9):
        enc = solve_pair(SQUARES, D6, n, 0, ctx)
    assert enc == forward_reference(SQUARES, D6, n, 0, ctx)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(10, "rolling window equals plain-list reference exactly", elapsed)


def test_certified_digit_floors_near_k1200(capsys):
    # default precision (about 0.15 K + 60 digits); every certified place
    # of the printed point must match the reference value
    for k, digits in zip(range(1198, 1203), (170, 171, 171, 171, 171)):
        assert main(["certify", "--K", str(k)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["certified_digits"] == digits
        assert rep["point_value"][:2 + digits] == REFERENCE_E0[:2 + digits]
