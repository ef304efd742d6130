"""Target sets, boundary behavior, and the forward kernel."""

import itertools
import random
from collections import deque
from decimal import ROUND_FLOOR, Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import agreed_digits, finite_targets, forward_reference, rational_to_decimal
from hittime import walkmodel
from hittime.certify import recommended_digits
from hittime.numerics import make_context
from hittime.oracle import dp_tables, exact_dp
from hittime.walkmodel import (
    CutoffExceedsBoundError,
    DieModel,
    TargetSet,
    TargetSetError,
    fraction_bits,
    solve_pair,
)

SQUARES = TargetSet.perfect_squares()
D6 = DieModel(6)


def test_die_model():
    assert DieModel().sides == 6
    with pytest.raises(ValueError):
        DieModel(1)


def test_squares_membership():
    assert not SQUARES.membership(0)  # zero is excluded
    assert SQUARES.membership(1)
    assert SQUARES.membership(49 * 10**6)
    assert not SQUARES.membership(2)
    assert SQUARES.declared_bound is None


def test_explicit_list_membership():
    t = TargetSet.from_list([3, 7, 20])
    assert t.membership(7)
    assert not t.membership(8)
    assert t.membership(10**6) is False  # complete list: answerable anywhere
    assert t.horizon == 20


def test_explicit_list_validation():
    with pytest.raises(TargetSetError):
        TargetSet.from_list([])
    with pytest.raises(TargetSetError):
        TargetSet.from_list([3, 3])
    with pytest.raises(TargetSetError):
        TargetSet.from_list([5, 2])
    with pytest.raises(TargetSetError):
        TargetSet.from_list([-1, 2])
    with pytest.raises(TargetSetError):
        TargetSet.from_list([3, 7], bound=5)


def test_direct_constructor_validates_the_tuple():
    # the tuple that membership bisects must be strictly increasing and
    # nonnegative however the target is built
    with pytest.raises(TargetSetError):
        TargetSet((3, 2))
    with pytest.raises(TargetSetError):
        TargetSet((-1, 4))
    with pytest.raises(TargetSetError):
        TargetSet((3, 7), 5)


def test_bounded_list_refuses_beyond_bound():
    t = TargetSet.from_list([3, 7], bound=50)
    assert not t.membership(50)
    with pytest.raises(CutoffExceedsBoundError):
        t.membership(51)
    with pytest.raises(CutoffExceedsBoundError):
        solve_pair(t, D6, 100, 0, make_context(30))


def test_predicate_table():
    t = TargetSet(tuple(range(5, 101, 5)), 100)
    assert t.membership(10)
    assert not t.membership(11)
    assert t.horizon == 100
    with pytest.raises(CutoffExceedsBoundError):
        t.membership(101)


def test_target_file_round_trip(tmp_path):
    p = tmp_path / "set.txt"
    p.write_text("# bound 100\n3\n7\n20\n")
    t = TargetSet.from_file(p)
    assert t.membership(20)
    assert t.declared_bound == 100
    p2 = tmp_path / "plain.txt"
    p2.write_text("4\n9\n")
    t2 = TargetSet.from_file(p2)
    assert t2.declared_bound is None
    assert t2.membership(9)


def test_target_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\ntwo\n")
    with pytest.raises(TargetSetError):
        TargetSet.from_file(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(TargetSetError):
        TargetSet.from_file(empty)
    header = tmp_path / "hdr.txt"
    header.write_text("# bounds 10\n3\n")
    with pytest.raises(TargetSetError):
        TargetSet.from_file(header)


def test_absorbing_state():
    ctx = make_context(30)
    sol = solve_pair(SQUARES, D6, 16, 16, ctx)
    assert sol.e_n_value == 0
    assert sol.overshoot_prob == 0
    sol9 = solve_pair(SQUARES, D6, 16, 9, ctx)
    assert sol9.e_n_value == 0
    assert sol9.overshoot_prob == 0


def test_boundary_rows():
    ctx = make_context(30)
    for s in range(17, 23):
        sol = solve_pair(SQUARES, D6, 16, s, ctx)
        assert sol.e_n_value == 0
        assert sol.overshoot_prob == 1


def test_hand_derived_small_values():
    # With N = 16: E(15) = 1 (one roll always ends the truncated walk),
    # P_15 = 5/6; one step lower E(14) = 7/6, P_14 = 29/36.
    ctx = make_context(40)
    sol15 = solve_pair(SQUARES, D6, 16, 15, ctx)
    assert sol15.e_n_value == 1
    assert agreed_digits(sol15.overshoot_prob,
                         rational_to_decimal(Fraction(5, 6), ctx), 40) >= 38
    sol14 = solve_pair(SQUARES, D6, 16, 14, ctx)
    assert agreed_digits(sol14.e_n_value,
                         rational_to_decimal(Fraction(7, 6), ctx), 40) >= 38
    assert agreed_digits(sol14.overshoot_prob,
                         rational_to_decimal(Fraction(29, 36), ctx), 40) >= 38
    assert exact_dp(SQUARES, 16, 15) == (Fraction(1), Fraction(5, 6))
    assert exact_dp(SQUARES, 16, 14) == (Fraction(7, 6), Fraction(29, 36))


def test_matches_exact_oracle_all_states():
    working = 50
    ctx = make_context(working)
    e_tab, p_tab = dp_tables(SQUARES, 100, 0)
    for s in range(101):
        sol = solve_pair(SQUARES, D6, 100, s, ctx)
        e, p = sol.e_n_value, sol.overshoot_prob
        e_ref = rational_to_decimal(e_tab[s], ctx)
        p_ref = rational_to_decimal(p_tab[s], ctx)
        assert agreed_digits(e, e_ref, working) >= working - 5
        assert agreed_digits(p, p_ref, working) >= working - 5


def test_streaming_matches_full_array_reference():
    # stepping every state in difference form equals the plain-list
    # reference exactly, from every start state
    ctx = make_context(60)
    with mock.patch.object(walkmodel, "JUMP_MIN", 10**9):
        for s in range(1001):
            enc = solve_pair(SQUARES, D6, 1000, s, ctx)
            assert enc == forward_reference(SQUARES, D6, 1000, s, ctx)


def test_monotone_in_cutoff_decimal():
    ctx = make_context(40)
    values = [solve_pair(SQUARES, D6, n, 0, ctx).e_n_value
              for n in (16, 100, 400, 2500)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_monotone_in_cutoff_exact_random_targets():
    rng = random.Random(5)
    for _ in range(5):
        elems = sorted(rng.sample(range(1, 60), 8))
        target = TargetSet.from_list(elems)
        e_small, _ = dp_tables(target, 30, 0)
        e_big, _ = dp_tables(target, 60, 0)
        for s in range(31):
            assert e_small[s] <= e_big[s]


def test_one_step_consistency():
    working = 40
    ctx = make_context(working)
    c = ctx.context()
    n = 300
    sols = [solve_pair(SQUARES, D6, n, s, ctx) for s in range(n + 1)]
    e_arr = [rational_to_decimal(sol.e_n_value, ctx, ROUND_FLOOR) for sol in sols]
    p_arr = [rational_to_decimal(sol.overshoot_prob, ctx, ROUND_FLOOR) for sol in sols]
    e_ext = e_arr + [Decimal(0)] * 6
    p_ext = p_arr + [Decimal(1)] * 6
    for s in range(n + 1):
        if SQUARES.membership(s):
            continue
        acc_e = e_ext[s + 1]
        acc_p = p_ext[s + 1]
        for j in range(2, 7):
            acc_e = c.add(acc_e, e_ext[s + j])
            acc_p = c.add(acc_p, p_ext[s + j])
        again_e = c.add(Decimal(1), c.divide(acc_e, Decimal(6)))
        again_p = c.divide(acc_p, Decimal(6))
        assert agreed_digits(again_e, e_arr[s], working) >= working - 1
        assert agreed_digits(again_p, p_arr[s], working) >= working - 1


def test_degenerate_dense_target_is_exact():
    # every state 1..N absorbing: no path can cross the cutoff
    ctx = make_context(40)
    dense = TargetSet.from_list(list(range(1, 201)), 200)
    sol = solve_pair(dense, D6, 200, 0, ctx)
    assert sol.overshoot_prob == 0
    assert sol.e_n_value == 1  # first roll always absorbs
    e, p = exact_dp(dense, 200, 0)
    assert (e, p) == (Fraction(1), Fraction(0))


def test_general_die_sizes():
    ctx = make_context(40)
    for m in (2, 3, 9):
        die = DieModel(m)
        target = TargetSet.from_list([5, 11])
        n = 11
        sol = solve_pair(target, die, n, 0, ctx)
        e_ref, p_ref = exact_dp(target, n, 0, die=die)
        assert agreed_digits(sol.e_n_value, rational_to_decimal(e_ref, ctx), 40) >= 35
        assert agreed_digits(sol.overshoot_prob, rational_to_decimal(p_ref, ctx), 40) >= 35


def test_sweep_argument_validation():
    ctx = make_context(30)
    with pytest.raises(ValueError):
        solve_pair(SQUARES, D6, -1, 0, ctx)
    with pytest.raises(ValueError):
        solve_pair(SQUARES, D6, 10, -2, ctx)
    with pytest.raises(CutoffExceedsBoundError):
        solve_pair(TargetSet.from_list([3, 7], bound=50), D6, 100, 0, ctx)
    with pytest.raises(ValueError):
        exact_dp(SQUARES, -1, 0)


@settings(deadline=None)
@given(problem=finite_targets(), sides=st.integers(2, 9), data=st.data())
def test_sweep_matches_materialized_tables(problem, sides, data):
    # the stepping kernel equals the plain-list reference exactly, and its
    # lower ends lie within a relative 10^-(working - 5) of the exact
    # values; a P whose relative tolerance is narrower than solve_pair's
    # absolute bound on P's width is held to that bound instead
    n, target = problem
    s_min = data.draw(st.integers(0, n), label="s_min")
    die = DieModel(sides)
    working = 30
    ctx = make_context(working)
    e, p = exact_dp(target, n, s_min, die)
    with mock.patch.object(walkmodel, "JUMP_MIN", 10**9):
        sol = solve_pair(target, die, n, s_min, ctx)
    assert sol == forward_reference(target, die, n, s_min, ctx)
    tolerance = Fraction(1, 10 ** (working - 5))
    assert abs(Fraction(sol.e_n_value) - e) <= tolerance * e
    width = Fraction(4 * sides * (n - s_min + 1), 1 << fraction_bits(ctx))
    if tolerance * p >= width:
        assert abs(Fraction(sol.overshoot_prob) - p) <= tolerance * p
    else:
        assert abs(Fraction(sol.overshoot_prob) - p) <= width


@pytest.mark.parametrize("jump_min", [1, 10**9], ids=["jumping", "stepping"])
@settings(deadline=None)
@given(problem=finite_targets() | st.integers(0, 300).map(lambda n: (n, SQUARES)),
       sides=st.integers(2, 9), data=st.data())
def test_kernel_encloses_exact_values(jump_min, problem, sides, data):
    # jump_min 1 jumps every run of non-target states the cached power
    # reaches; 10**9 steps every state.
    n, target = problem
    s_min = data.draw(st.integers(0, n), label="s_min")
    die = DieModel(sides)
    ctx = make_context(30)
    e, p = exact_dp(target, n, s_min, die)
    with mock.patch.object(walkmodel, "JUMP_MIN", jump_min):
        enc = solve_pair(target, die, n, s_min, ctx)
    assert enc.e_lo <= e <= enc.e_hi
    assert enc.p_lo <= p <= enc.p_hi
    assert (enc.p_hi == 0) == (p == 0)
    # solve_pair's absolute bound on P's width, for M(M + 1) <= 2^CUT_GUARD
    assert enc.p_hi - enc.p_lo <= Fraction(4 * sides * (n - s_min + 1),
                                           1 << fraction_bits(ctx))


@st.composite
def adversarial_walks(draw):
    """A die, targets, cutoff, start state and JUMP_MIN that stress the widths.

    Runs of non-target states alternate with blocks of consecutive
    targets.  Each run is 0 .. 2 states longer than the one before (2 on
    the squares, 0 on periodic targets), so the cached power keeps
    reaching them, but for one that may be up to 300 states longer, which
    the power advances to in pieces of max(JUMP_MIN, M) A-steps and jumps;
    the shorter runs after it are stepped until one is as long.  Each
    block has 1 or 2 targets, fewer than M, but for one of M - 1, M or
    M + 1.  The first target lies at 1 .. 3 and the walk
    starts before it, and the cutoff lies in the second half.  JUMP_MIN
    1 .. 5 jumps the runs of at least M states the power reaches; a
    130-sided die (up to 4 runs, as its plain-list reference is slow)
    steps its runs, all shorter than M, and 10**9 steps every state.
    """
    sides = draw(st.integers(2, 9) | st.just(130))
    count = draw(st.integers(1, 40 if sides < 130 else 4))
    grows = draw(st.lists(st.integers(0, draw(st.integers(0, 2))), min_size=count,
                          max_size=count))
    blocks = draw(st.lists(st.integers(1, min(2, sides - 1)), min_size=count, max_size=count))
    longest = 300 if sides < 130 else 12
    grows[draw(st.integers(0, count - 1))] += draw(st.just(0) | st.integers(0, longest))
    blocks[draw(st.integers(0, count - 1))] = draw(st.sampled_from([sides - 1, sides, sides + 1]))
    members, s, run = [], draw(st.integers(1, 3)), draw(st.integers(1, 3))
    for grow, block in zip(grows, blocks):
        members += range(s, s + block)
        s += block + run
        run += grow
    n = draw(st.integers(max(s // 2, members[0]), s))
    s_min = draw(st.integers(0, members[0] - 1))
    jump_min = draw(st.integers(1, 5) | st.just(10**9))
    return DieModel(sides), TargetSet.from_list(members), n, s_min, jump_min


@settings(deadline=None)
@given(problem=adversarial_walks())
@example(problem=(DieModel(9), TargetSet.from_list(list(range(1, 400, 2))), 399, 0, 1))
@example(problem=(DieModel(6), TargetSet.from_list([2, 3, 9, 10, 20]), 20, 2, 1))  # starts on a target
# runs of M - 1 states, stepped, alternate with runs of M states, which
# the power reaches one A-step per run and then jumps
@example(problem=(DieModel(6), TargetSet.from_list(list(itertools.accumulate([1] + [6, 7] * 8))),
                  110, 0, 1))
@example(problem=(DieModel(3), TargetSet.from_list(list(range(1, 400, 4))), 399, 0, 1))
def test_a_priori_widths_cover_the_ceiling_twin(problem):
    # the reference's ceiling twin rounds every step up and measures the
    # widths of a two-sided enclosure on the kernel's own lower twin; the
    # kernel's proven widths W_E and W_P (solve_pair) contain it, and p_hi
    # is 0 exactly where the ceiling twin reaches 0.  The first explicit
    # example steps its runs of one state, all shorter than M; the last
    # jumps every run of M = 3 states, the shortest a jump crosses, where
    # each jump's (M-1) rho weighs most: the measured E width is about 3%
    # of W_E
    die, target, n, s_min, jump_min = problem
    ctx = make_context(30)
    with mock.patch.object(walkmodel, "JUMP_MIN", jump_min):
        sol = solve_pair(target, die, n, s_min, ctx)
    twin = forward_reference(target, die, n, s_min, ctx, jump_min, twins=True)
    assert (sol.e_lo, sol.p_lo) == (twin.e_lo, twin.p_lo)
    assert twin.e_hi <= sol.e_hi
    assert twin.p_hi <= sol.p_hi
    assert (sol.p_hi == 0) == (twin.p_hi == 0)


@pytest.mark.parametrize("k", [50, 500, 1200])
def test_overshoot_keeps_relative_precision_where_certify_runs(k):
    # at certify's precision for K, P ~ 10^(-0.146 K) lies far above the
    # grid 2^-c, so its enclosure is still relatively narrow
    ctx = make_context(recommended_digits(k))
    enc = solve_pair(SQUARES, D6, k * k, 0, ctx)
    assert 0 < enc.p_hi - enc.p_lo <= Fraction(1, 10**60) * enc.p_lo


@pytest.mark.parametrize("jump_min", [1, 2, 5, 64])
@settings(deadline=None)
@given(problem=finite_targets() | st.integers(0, 300).map(lambda n: (n, SQUARES)),
       sides=st.integers(2, 9), data=st.data())
def test_jumps_equal_full_product_reference(jump_min, problem, sides, data):
    # the kernel's jumps, on the row's differences, give the same integers
    # as full products of the reference's floor twin with the cached power
    n, target = problem
    s_min = data.draw(st.integers(0, n), label="s_min")
    die = DieModel(sides)
    ctx = make_context(30)
    with mock.patch.object(walkmodel, "JUMP_MIN", jump_min):
        sol = solve_pair(target, die, n, s_min, ctx)
    assert sol == forward_reference(target, die, n, s_min, ctx, jump_min)


@settings(deadline=None)
@given(sides=st.integers(2, 9), bits=st.integers(1, 160), data=st.data())
def test_stepper_equals_plain_list_steps(sides, bits, data):
    # a row in difference form, newest first, r[j] = d[0] + ... + d[M-1-j],
    # stepped in pieces by the one stepper gives the entries, r[0] and the
    # sum of r[0] of plain-list steps; in the power's wider window the
    # values passed on follow the row's differences
    m = sides
    width = data.draw(st.sampled_from([m, 2 * m - 1]), label="width")
    entry = st.just(0) | st.integers(0, 1 << bits)
    plain = data.draw(st.lists(entry, min_size=m, max_size=m), label="row")
    older = data.draw(st.lists(st.integers(-(1 << bits), 1 << bits), min_size=width - m,
                               max_size=width - m), label="older")
    # newest first: r[M-1], then r[j] - r[j+1] for j = M-2 .. 0
    history = [plain[-1], *(a - b for a, b in zip(plain[-2::-1], plain[:0:-1])), *older]
    row = deque(history, maxlen=width)
    r0 = plain[0]
    pieces = data.draw(st.lists(st.integers(0, 40), max_size=8), label="pieces")
    for piece in pieces:
        r0, got = walkmodel._step(row, r0, m, piece)
        total = 0
        for _ in range(piece):
            total += plain[0]
            x = plain[0] // m
            plain = [v + x for v in plain[1:]] + [x]
            history.insert(0, x)
        assert got == total
        assert list(itertools.accumulate(list(row)[:m]))[::-1] == plain
        assert r0 == plain[0]
        assert list(row) == history[:width]


@settings(deadline=None)
@given(sides=st.integers(2, 9), bits=st.integers(1, 4200),
       span=st.integers(0, 12) | st.integers(0, 300), data=st.data())
def test_jump_products_equal_plain_dots(sides, bits, span, data):
    # a jump's sums, from the shared base of the q window, equal plain dot
    # products of the row with its window of the power as the stepper
    # builds it from e_0; spans below 2M - 1 leave q_(-M) = one and zeros
    # in the window.  Up to the north star's c = 4,161 bits the factors
    # pass CPython's Karatsuba cutoff, with row entries of mixed lengths;
    # six-sided dice take the block split, the others the dots
    m, one = sides, 1 << bits
    power = deque([0] * (m - 1) + [one] + [0] * (m - 1), maxlen=2 * m - 1)
    walkmodel._step(power, one, m, span)
    q = list(power)
    entry = st.just(0) | st.integers(0, one << 64)
    row = data.draw(st.lists(entry, min_size=m, max_size=m), label="row")
    # the kernel passes r[M-1] .. r[0] and the window oldest first; here
    # q[k] is q_(span-1-k)
    got = walkmodel._jump_products(row[::-1], q[::-1])
    assert got == [sum(x * y for x, y in zip(row, q[k:k + m])) for k in range(m)]


@pytest.mark.parametrize("sides", range(2, 10))
def test_jump_products_on_every_basis_pair(sides):
    # _jump_products and the plain dots are both bilinear in (r, q): q's
    # base b and its differences are linear in q.  So equality on every
    # pair of basis vectors, r = X e_i and q = Y e_j, proves the identity
    # for all inputs.  Each pair is taken with q = b + Y e_j for b = 0
    # and b != 0, so the base's product S b and the differences from b
    # both carry weight
    m, x, y = sides, 3**90, 5**70
    for i, j, b in itertools.product(range(m), range(2 * m - 1), (0, 7**40)):
        r = [x * (k == i) for k in range(m)]
        q = [b + y * (k == j) for k in range(2 * m - 1)]
        plain = [sum(u * v for u, v in zip(r, q[k:k + m])) for k in range(m - 1, -1, -1)]
        assert walkmodel._jump_products(r, q) == plain, (i, j, b)


@settings(deadline=None)
@given(sides=st.integers(2, 9), g=st.integers(1, 40), data=st.data())
def test_jump_e_term_is_walds_identity(sides, g, data):
    # in exact arithmetic, a run's E term r h_g, summed over M unit rows
    # stepped g times, equals 2/(M+1) (r A^g . (g+j) - r . j), the shift of
    # l(s) = -2s/(M+1) that solve_pair's jumps add to e; g < M included
    m = sides
    entry = st.fractions(min_value=0, max_value=10, max_denominator=1000)
    r = data.draw(st.lists(entry, min_size=m, max_size=m), label="r")

    def stepped(row):
        # the row after g A-steps and its r[0] summed over them
        total = 0
        for _ in range(g):
            total += row[0]
            row = [v + row[0] / m for v in row[1:]] + [row[0] / m]
        return row, total

    h = [stepped([Fraction(int(j == i)) for j in range(m)])[1] for i in range(m)]
    after, _ = stepped(r)
    r_h = sum(x * y for x, y in zip(r, h))
    shifted = sum(x * (g + j) for j, x in enumerate(after)) - sum(x * j for j, x in enumerate(r))
    assert r_h == Fraction(2, m + 1) * shifted


@pytest.mark.parametrize("jump_min", [1, 2])
@settings(deadline=None, max_examples=10)
@given(sides=st.integers(2, 9), seed=st.integers(0, 2**32), data=st.data())
def test_long_cuts_equal_full_product_reference(jump_min, sides, seed, data):
    # a target every M + 1 or M + 2 states, up to N in [500 M, 1000 M],
    # drives P far below 2^-CUT_GUARD, so each jump cuts the power by up
    # to nearly all of its c bits; the kernel still equals the plain-list
    # reference bit for bit.  The runs between targets are M or M + 1
    # states long, at least max(jump_min, M), so jump_min 1 and 2 jump
    # every run the cached power reaches, which it does one or two A-steps
    # per run; the first jumps' windows are not flat and take the products
    n = data.draw(st.integers(500 * sides, 1000 * sides), label="n")
    rng = random.Random(seed)
    members, s = [], 0
    while s <= n:
        s += rng.randint(sides + 1, sides + 2)
        members.append(s)
    target = TargetSet.from_list(members)
    die = DieModel(sides)
    ctx = make_context(30)
    with (mock.patch.object(walkmodel, "JUMP_MIN", jump_min),
          mock.patch.object(walkmodel, "_jump_products",
                            wraps=walkmodel._jump_products) as products):
        sol = solve_pair(target, die, n, 0, ctx)
    assert products.called
    assert sol == forward_reference(target, die, n, 0, ctx, jump_min)
    # the last jumps cut the power by more than half of its c bits
    assert sol.p_hi < Fraction(1, 1 << fraction_bits(ctx) // 2)


@pytest.mark.parametrize("sides, k, digits", [(6, 500, 200), (4, 400, 200), (130, 70, 200),
                                               (6, 500, 100)],
                         ids=["d6-K500", "d4-K400", "d130-K70", "d6-K500-100digits"])
def test_jumps_equal_full_product_reference_at_scale(sides, k, digits):
    # with the default JUMP_MIN, on the squares to N = K^2, the runs of
    # 2j >= 128 states from j = 64 on are jumped: at certify's size K = 500
    # on a six-sided die, whose jumps take the block split; on a four-sided
    # die, whose jumps take plain dots; a 130-sided die steps its run of
    # 128 states, shorter than M, and jumps the runs from 130 states on
    # with plain dots.  At 200 digits no cut window is flat; at 100 digits
    # 125 of the six-sided die's 436 jumps see one
    die, ctx = DieModel(sides), make_context(digits)
    sol = solve_pair(SQUARES, die, k * k, 0, ctx)
    assert sol == forward_reference(SQUARES, die, k * k, 0, ctx, walkmodel.JUMP_MIN)


def check_jumps_with_few_steps(target, n, ctx, most):
    # the kernel steps fewer than `most` states and A-steps of its power,
    # equals the reference bit for bit, its widths cover the ceiling twin,
    # and it meets the stepping kernel
    with mock.patch.object(walkmodel, "_step", wraps=walkmodel._step) as stepper:
        sol = solve_pair(target, D6, n, 0, ctx)
    assert sum(call.args[3] for call in stepper.call_args_list) < most
    assert sol == forward_reference(target, D6, n, 0, ctx, walkmodel.JUMP_MIN)
    twin = forward_reference(target, D6, n, 0, ctx, walkmodel.JUMP_MIN, twins=True)
    assert sol.e_lo <= twin.e_hi <= sol.e_hi and sol.p_lo <= twin.p_hi <= sol.p_hi
    with mock.patch.object(walkmodel, "JUMP_MIN", 10**9):
        stepping = solve_pair(target, D6, n, 0, ctx)
    assert max(sol.e_lo, stepping.e_lo) <= min(sol.e_hi, stepping.e_hi)
    assert max(sol.p_lo, stepping.p_lo) <= min(sol.p_hi, stepping.p_hi)


@pytest.mark.parametrize("n, digits", [(2 * 10**4, 30), (10**5, 30), (10**6, 300)],
                         ids=["N20000-30digits", "N100000-30digits", "N1000000-300digits"])
def test_settled_power_jumps_a_lone_run(n, digits):
    # after the targets 3, 7 and 20 one run of nearly N states follows; the
    # cached power advances toward it in pieces of JUMP_MIN A-steps until
    # it reaches a fixed point, after about c/0.454 A-steps, c the fraction
    # bits, so the run is jumped, not stepped, with the rows stepping would
    # give.  At N = 2*10^4 and 30 digits, and at N = 10^6 and 300 digits,
    # the run is shorter than M^2 times the A-steps to the fixed point
    check_jumps_with_few_steps(TargetSet.from_list([3, 7, 20]), n, make_context(digits), 3000)


def test_fixed_power_jumps_a_shorter_run():
    # the power settles on the run of 19,999 states after 20 at a span
    # far below it; a fixed power is A^g for every g >= span, so the
    # shorter runs that follow, of 999 and, last, 980 states, are jumped
    # with no A-steps.  Had the first jump set span to 19,999, they would
    # all be stepped
    target = TargetSet.from_list([3, 7, 20, *range(20020, 40021, 1000)])
    check_jumps_with_few_steps(target, 40000, make_context(30), 1000)


def test_fixed_point_needs_every_kept_value():
    # the power is fixed only when all 2M - 1 kept values of q are equal:
    # equal ends around a different inner value are not enough
    m = 6
    assert walkmodel._fixed(deque([7] * (2 * m - 1), maxlen=2 * m - 1))
    for inner in range(1, 2 * m - 2):
        window = [7] * (2 * m - 1)
        window[inner] = 8
        assert not walkmodel._fixed(deque(window, maxlen=2 * m - 1))


# Every odd state up to 1499 is a target: at 30 digits the kernel's row
# is zero by then (P_1500 ~ 10^-108 against a 2^-278 grid).
ODD_TARGETS = list(range(1, 1500, 2))


@pytest.mark.parametrize("block", [True, False], ids=["block", "no-block"])
def test_vanished_row_keeps_the_support_rule(block):
    # after the row vanishes the kernel covers no more states, but the
    # targets left still decide P = 0: sparse targets 50 apart, and with
    # `block` M = 6 consecutive ones at 3000, which no walk steps over
    ctx = make_context(30)
    assert solve_pair(TargetSet.from_list(ODD_TARGETS), D6, 1500, 0, ctx).p_lo == 0
    members = ODD_TARGETS + list(range(1550, 4001, 50))
    if block:
        members = sorted(set(members) | set(range(3000, 3006)))
    target, n = TargetSet.from_list(members), 4000
    sol = solve_pair(target, D6, n, 0, ctx)
    e, p = exact_dp(target, n, 0)
    assert sol == forward_reference(target, D6, n, 0, ctx, walkmodel.JUMP_MIN)
    assert sol.e_lo <= e <= sol.e_hi
    assert sol.p_lo <= p <= sol.p_hi
    if block:
        assert sol.p_hi == 0 == p
    else:
        assert sol.p_lo == 0 < p < sol.p_hi


@st.composite
def vanished_rows(draw):
    """A die, a target, a cutoff N <= 5000 and a start on which the row vanishes.

    Every odd state up to 1499 is a target, which drives the kernel's row
    to zero at 30 digits on every die of 2 .. 9 sides.  Sparse targets 2 ..
    300 apart follow, up to N, and one block of M - 1 or exactly M
    consecutive targets lies among them, with a non-target on each side:
    a die with faces 1 .. M steps over the first and never over the
    second.  The walk starts at 0 .. 3, on a target at 1 and 3.
    """
    sides = draw(st.integers(2, 9))
    n = draw(st.integers(2000, 5000))
    members, s = list(ODD_TARGETS), 1499
    while True:
        s += draw(st.integers(2, 300))
        if s > n:
            break
        members.append(s)
    size = draw(st.sampled_from([sides - 1, sides]))
    start = draw(st.integers(1501, n - size))
    members = [h for h in members if not start - 1 <= h <= start + size]
    members = sorted(members + list(range(start, start + size)))
    return DieModel(sides), TargetSet.from_list(members), n, draw(st.integers(0, 3))


@settings(deadline=None)
@given(problem=vanished_rows())
def test_p_zero_read_off_the_members_after_the_row_vanishes(problem):
    # the kernel covers no state past the zero row, and the members left
    # still decide P = 0 exactly: p_hi is 0 exactly when the exact P is
    die, target, n, s_min = problem
    sol = solve_pair(target, die, n, s_min, make_context(30))
    e, p = exact_dp(target, n, s_min, die)
    assert sol.p_lo == 0
    assert (sol.p_hi == 0) == (p == 0)
    assert sol.e_lo <= e <= sol.e_hi
    assert sol.p_lo <= p <= sol.p_hi


def test_jumps_after_the_vanished_row_add_nothing():
    # runs of 199 states follow the vanishing, and from the second one on
    # the cached power reaches them: the kernel skips those jumps, where
    # the rule without the stop subtracts each one's 2 (M-1) rho / (M+1)
    ctx = make_context(30)
    target, n = TargetSet.from_list(ODD_TARGETS + list(range(1700, 5001, 200))), 5000
    sol = solve_pair(target, D6, n, 0, ctx)
    e, p = exact_dp(target, n, 0)
    assert sol == forward_reference(target, D6, n, 0, ctx, walkmodel.JUMP_MIN)
    assert sol.e_lo <= e <= sol.e_hi
    assert sol.p_lo <= p <= sol.p_hi
    unstopped = forward_reference(target, D6, n, 0, ctx, walkmodel.JUMP_MIN,
                                  zero_row_stops=False)
    assert sol.e_lo > unstopped.e_lo


def test_jumping_and_stepping_kernels_intersect_on_squares():
    working = 100
    ctx = make_context(working)
    n = 10**4
    jumping = solve_pair(SQUARES, D6, n, 0, ctx)
    with mock.patch.object(walkmodel, "JUMP_MIN", 10**9):
        stepping = solve_pair(SQUARES, D6, n, 0, ctx)
    assert max(jumping.e_lo, stepping.e_lo) <= min(jumping.e_hi, stepping.e_hi)
    assert max(jumping.p_lo, stepping.p_lo) <= min(jumping.p_hi, stepping.p_hi)
    for enc in (jumping, stepping):
        assert enc.p_hi - enc.p_lo <= Fraction(1, 10 ** working) * enc.p_lo


def stepped_twin(k: int, c: int) -> tuple[int, ...]:
    """E_N(0) and P to the squares at N = K^2 from a six-sided die, enclosed
    by a floor row and a ceiling row stepped through every state.

    It shares no rule with the kernel: no jump, cached power, cut, Wald
    term or a priori width, and it finds the squares with its own counter.
    Returns ``(e_lo, e_hi, p_lo, p_hi)`` in units of 2^-c.
    """
    lo, hi = [1 << c] + [0] * 5, [1 << c] + [0] * 5
    e_lo = e_hi = 0
    root = 1
    for s in range(k * k + 1):
        if s == root * root:
            lo, hi = lo[1:] + [0], hi[1:] + [0]
            root += 1
            continue
        e_lo, e_hi = e_lo + lo[0], e_hi + hi[0]
        down, up = lo[0] // 6, -(-hi[0] // 6)
        lo = [v + down for v in lo[1:]] + [down]
        hi = [v + up for v in hi[1:]] + [up]
    return e_lo, e_hi, sum(lo), sum(hi)


def test_kernel_meets_stepped_twin_at_certify_scale():
    # at K = 800 and 180 digits the kernel jumps the 736 runs of 2k >= 128
    # states; an enclosure that a shared rule bent away from E_N or P would
    # miss the twin's, which is about 2^31 units of 2^-c wide
    ctx = make_context(180)
    c = fraction_bits(ctx)
    sol = solve_pair(SQUARES, D6, 800 * 800, 0, ctx)
    e_lo, e_hi, p_lo, p_hi = (Fraction(v, 1 << c) for v in stepped_twin(800, c))
    assert sol.e_lo <= e_hi and e_lo <= sol.e_hi
    assert sol.p_lo <= p_hi and p_lo <= sol.p_hi


def test_progress_reports_ascending_states(monkeypatch):
    # progress comes at targets only, as whole gaps d of G: at the first
    # target at least PROGRESS_INTERVAL - 1 states past the start, and
    # then at the first at least PROGRESS_INTERVAL past the last report's
    monkeypatch.setattr(walkmodel, "PROGRESS_INTERVAL", 1000)
    seen = []
    solve_pair(SQUARES, D6, 10**4, 50, make_context(30), progress=lambda *call: seen.append(call))
    members = SQUARES.members_upto(10**4)[7:]  # 64 .. 10^4, 93 squares
    assert {gaps for _, gaps in seen} == {len(members) + 1}
    done = [d for d, _ in seen]
    assert all(type(d) is int for d in done)
    assert done == sorted(set(done)) and 1 <= done[0] and done[-1] <= len(members)
    assert len(done) == 9
    due = 50 + 1000 - 1
    for d in done:
        # d's closing target is the first at or past the due state
        assert members[d - 2] < due <= members[d - 1]
        due = members[d - 1] + 1000
    # a stepped run, however long, reports nothing: from s = 50, 3, 7,
    # 20's one gap is stepped state by state when no run may be jumped
    monkeypatch.setattr(walkmodel, "JUMP_MIN", 10**9)
    seen = []
    solve_pair(TargetSet.from_list([3, 7, 20]), D6, 10**4, 50, make_context(30),
               progress=lambda *call: seen.append(call))
    assert seen == []


@settings(deadline=None)
@given(problem=finite_targets(), sides=st.integers(2, 9), data=st.data())
def test_monotone_in_cutoff_property(problem, sides, data):
    # cutoffs N and N + 1, with the target answerable up to N + 1
    big_n, target = problem
    assume(big_n >= 1)
    n = big_n - 1
    s_min = data.draw(st.integers(0, n), label="s_min")
    die = DieModel(sides)
    ctx = make_context(30)
    e_small, p_small = dp_tables(target, n, s_min, die)
    e_big, p_big = dp_tables(target, big_n, s_min, die)
    for i in range(n - s_min + 1):
        assert e_small[i] <= e_big[i]
        assert p_big[i] <= p_small[i]
    at_n = solve_pair(target, die, n, s_min, ctx)
    at_big_n = solve_pair(target, die, big_n, s_min, ctx)
    assert at_n.e_lo <= at_big_n.e_hi
    assert at_big_n.p_lo <= at_n.p_hi


@settings(deadline=None)
@given(elements=st.lists(st.integers(0, 500), min_size=1, unique=True).map(sorted),
       slack=st.none() | st.integers(0, 100))
def test_target_file_round_trip_property(tmp_path_factory, elements, slack):
    bound = None if slack is None else elements[-1] + slack
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    header = "" if bound is None else f"# bound {bound}\n"
    path.write_text(header + "".join(f"{e}\n" for e in elements))
    parsed = TargetSet.from_file(path)
    limit = elements[-1] + 10 if bound is None else bound
    assert parsed.declared_bound == bound
    assert parsed.members_upto(limit) == elements


@settings(deadline=None)
@given(elements=st.lists(st.integers(0, 500), min_size=1, unique=True),
       slack=st.none() | st.integers(0, 100),
       cutoffs=st.lists(st.integers(0, 700), min_size=1, max_size=5))
def test_members_upto_equals_sorted_filter(elements, slack, cutoffs):
    # repeated calls on one target, built from the sorted tuple or the
    # sorted list, equal a fresh sort of the elements up to the cutoff; a
    # bounded target refuses cutoffs past its bound, and the squares list
    # theirs
    bound = None if slack is None else max(elements) + slack
    targets = (TargetSet(tuple(sorted(elements)), bound),
               TargetSet.from_list(sorted(elements), bound))
    for n in cutoffs:
        for target in targets:
            if bound is not None and n > bound:
                with pytest.raises(CutoffExceedsBoundError):
                    target.members_upto(n)
            else:
                assert target.members_upto(n) == sorted(h for h in elements if h <= n)
        assert SQUARES.members_upto(n) == [h for h in range(n + 1) if SQUARES.membership(h)]
