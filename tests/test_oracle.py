"""Exact-rational ground truth and Monte Carlo cross-checks."""

import tracemalloc
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (agreed_digits, finite_targets, fraction_tables, mc_reference,
                      merge_results, rational_to_decimal, simulate_ever_hit)
from hittime.numerics import make_context
from hittime import oracle
from hittime.oracle import (
    EXACT_DP_MAX_N,
    AllTrialsCappedError,
    McConfig,
    SizeCapError,
    dp_tables,
    exact_dp,
    simulate_hitting,
)
from hittime.hitprob import pn_exact
from hittime.walkmodel import DieModel, TargetSet, solve_pair

SQUARES = TargetSet.perfect_squares()


def test_exact_dp_trivial_rows():
    assert exact_dp(SQUARES, 16, 16) == (0, 0)
    assert exact_dp(SQUARES, 16, 17) == (0, 1)
    assert exact_dp(SQUARES, 16, 9) == (0, 0)


def test_exact_dp_size_cap():
    with pytest.raises(SizeCapError):
        exact_dp(SQUARES, EXACT_DP_MAX_N + 1, 0)
    with pytest.raises(ValueError):
        dp_tables(SQUARES, 10, -1)


def test_exact_dp_values_are_probabilities():
    _, p_tab = dp_tables(SQUARES, 60, 0)
    assert all(0 <= p <= 1 for p in p_tab)


@settings(deadline=None)
@given(problem=finite_targets(), sides=st.integers(2, 9), data=st.data())
def test_dp_tables_equal_fraction_recurrence(problem, sides, data):
    # the scaled-integer tables equal the plain-Fraction recurrence exactly,
    # and exact_dp reads their first entry
    n, target = problem
    s_min = data.draw(st.integers(0, n), label="s_min")
    die = DieModel(sides)
    e_tab, p_tab = fraction_tables(target, n, s_min, die)
    assert dp_tables(target, n, s_min, die) == (e_tab, p_tab)
    assert exact_dp(target, n, s_min, die) == (e_tab[0], p_tab[0])


def test_neighbor_target_truncation():
    # target {s+1} with cutoff N = s+1: one roll either absorbs (roll 1)
    # or overshoots, so E_N(s) = 1 exactly and P_s = 5/6
    target = TargetSet.from_list([11])
    assert exact_dp(target, 11, 10) == (Fraction(1), Fraction(5, 6))


def test_grid_decimal_matches_exact():
    # small edition of the full acceptance grid
    working = 50
    ctx = make_context(working)
    targets = [SQUARES, TargetSet.from_list([3, 7, 20]),
               TargetSet.from_list(list(range(1, 101)), 100)]
    for target in targets:
        for n in (10, 16, 100):
            e_tab, p_tab = dp_tables(target, n, 0)
            for s in range(n + 1):
                sol = solve_pair(target, DieModel(6), n, s, ctx)
                e, p = sol.e_n_value, sol.overshoot_prob
                assert agreed_digits(e, rational_to_decimal(e_tab[s], ctx), working) >= working - 5
                assert agreed_digits(p, rational_to_decimal(p_tab[s], ctx), working) >= working - 5


MC_TARGETS = st.one_of(
    st.just(SQUARES),
    finite_targets().map(lambda problem: problem[1]),
    # declared bounds ("# bound" in a file): walks past them come back capped
    st.just(TargetSet.from_list([11], bound=11)),
    st.builds(lambda elements, extra: TargetSet.from_list(sorted(elements),
                                                          bound=max(elements) + extra),
              st.sets(st.integers(1, 40), min_size=1, max_size=4), st.integers(0, 10)),
)


@settings(deadline=None)
@given(target=MC_TARGETS, sides=st.integers(2, 9),
       start=st.sampled_from([0, 10, 10**10 + 1]),
       # both sides of the first two slice edges (8 and 16), and 12, where
       # walks at 8 rolls trim the slice that fresh walks start in
       max_steps=st.sampled_from([1, 7, 8, 9, 12, 15, 16, 17, 130]),
       # one walk, a full pool, one waiting trial, and 3616 waiting trials,
       # fewer than the squares' first slice frees places
       trials=st.sampled_from([1, 16384, 16385, 20000]), seed=st.integers(0, 2**63))
def test_simulation_equals_reference_loop(target, sides, start, max_steps, trials, seed):
    # the oracle's pool gives the reference loop's result field for
    # field, or its error
    cfg = McConfig(trials=trials, seed=seed, die=DieModel(sides), target=target,
                   start=start, max_steps=max_steps)
    try:
        expected = mc_reference(cfg)
    except AllTrialsCappedError:
        with pytest.raises(AllTrialsCappedError):
            simulate_hitting(cfg)
        return
    assert simulate_hitting(cfg) == expected


@pytest.mark.parametrize("sides", [2, 3, 6, 9])
def test_simulation_matches_exact_mean_across_dice(sides, tmp_path):
    # nine consecutive targets below the bound stop every walk of a die
    # with at most nine faces, so exact_dp's E_N(0) is the full E[T] and
    # no trial is capped; a face range off by one moves the mean by many s.e.
    path = tmp_path / "bounded.txt"
    path.write_text("# bound 40\n3\n7\n20\n" + "".join(f"{h}\n" for h in range(30, 39)))
    target = TargetSet.from_file(path)
    die = DieModel(sides)
    e_exact, p_exact = exact_dp(target, 40, 0, die)
    assert p_exact == 0
    res = simulate_hitting(McConfig(trials=20000, seed=sides, die=die, target=target))
    assert res.capped_trials == 0
    assert abs(res.mean - float(e_exact)) < 5 * res.std_error


def _near_squares(k):
    return st.tuples(k, st.integers(-1, 1)).map(lambda kd: kd[0] * kd[0] + kd[1])


# k^2 - 1, k^2 and k^2 + 1 around the squares table's edge (2^16 = (2^8)^2),
# around 2^52 = (2^26)^2, where float64 still holds every integer, and anywhere
SQUARE_PROBES = st.one_of(_near_squares(st.integers(2**8 - 3, 2**8 + 3)),
                          _near_squares(st.integers(2**26 - 3, 2**26 + 3)),
                          _near_squares(st.integers(1, 2**13)),
                          st.integers(0, 2**17))


@example(values=[0, 1, 254**2, 255**2 - 1, 255**2, 255**2 + 1, 2**16 - 1])  # table only
@example(values=[2**16 - 1, 2**16])  # the first value past the table
@example(values=[255**2, 2**16 + 1, 2**52 - 1, 2**52, 2**52 + 1])
@given(values=st.lists(SQUARE_PROBES, min_size=1, max_size=40))
def test_squares_mask_equals_membership(values):
    # the table lookup and the sqrt check agree with exact isqrt
    # membership, also when one array holds values on both sides of the table
    mask = oracle._membership_mask(None, np.array(values, dtype=np.int64), max(values))
    assert mask.tolist() == [SQUARES.membership(v) for v in values]


@example(hits=np.zeros((1, 8), dtype=bool))
@example(hits=np.ones((1, 1), dtype=bool))
@example(hits=np.eye(8, dtype=bool)[::-1])  # one hit per row, in every column
@given(hits=st.integers(1, 8).flatmap(
    lambda width: hnp.arrays(bool, st.tuples(st.integers(1, 30), st.just(width)),
                             elements=st.booleans())))
def test_first_hits_equal_any_and_argmax(hits):
    # the word-wide first hit agrees with numpy's row reductions on every
    # slice width from 1 to 8, with rows all false, all true and anything
    # between; a row wider than one word raises
    hits = np.concatenate([hits, np.zeros_like(hits[:1]), np.ones_like(hits[:1])])
    hit_any, first = oracle._first_hits(hits)
    assert hit_any.tolist() == hits.any(axis=1).tolist()
    assert first.dtype == np.int64
    assert first.tolist() == np.argmax(hits[hits.any(axis=1)], axis=1).tolist()
    one_hit, one_first = oracle._first_hits(hits[:1])
    assert one_hit.tolist() == hit_any[:1].tolist()
    assert one_first.tolist() == first[:int(hit_any[0])].tolist()
    with pytest.raises(ValueError):
        oracle._first_hits(np.zeros((1, 9), dtype=bool))


def test_finite_target_table_is_sized_by_reach():
    # a walk of max_steps rolls reaches start + max_steps * M at most, so
    # a far target needs no table past that (the CLI test of the same
    # file with more steps sees the cap)
    far = TargetSet.from_list([10**12])
    tracemalloc.start()
    try:
        with pytest.raises(AllTrialsCappedError):
            simulate_hitting(McConfig(trials=10, seed=1, target=far, max_steps=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_simulation_deterministic():
    cfg = McConfig(trials=20000, seed=42)
    a = simulate_hitting(cfg)
    b = simulate_hitting(cfg)
    assert a == b


def test_simulation_matches_certified_value():
    res = simulate_hitting(McConfig(trials=200_000, seed=11))
    assert res.capped_trials == 0
    assert abs(res.mean - 7.0797642) < 5 * res.std_error


def test_simulation_start_in_target():
    res = simulate_hitting(McConfig(trials=100, seed=1, start=9))
    assert res.mean == 0.0
    assert res.trials_completed == 100


def test_simulation_flags_unreachable_tail():
    # {11} from 10: hit on a first roll of 1, else the walk passes the
    # target forever; ~5/6 of trials must come back capped and flagged
    target = TargetSet.from_list([11])
    res = simulate_hitting(McConfig(trials=30000, seed=3, target=target, start=10))
    assert res.flagged
    assert res.mean == 1.0
    frac_capped = res.capped_trials / 30000
    assert abs(frac_capped - 5 / 6) < 0.02


def test_simulation_all_capped():
    target = TargetSet.from_list([1])
    with pytest.raises(AllTrialsCappedError):
        # start above the only element: no trial can ever hit
        simulate_hitting(McConfig(trials=50, seed=9, target=target, start=5))


def test_simulation_at_the_int64_edge():
    # walks 9 rolls from 2^63 - 1 meet no square; each slice is trimmed
    # to what max_steps leaves, so no sum wraps (a 16th roll would, and
    # the float sqrt of a negative sum warns)
    cfg = McConfig(trials=1 << 14, seed=1, start=2**63 - 1 - 6 * 9, max_steps=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AllTrialsCappedError):
            simulate_hitting(cfg)


def test_simulate_config_validation():
    with pytest.raises(ValueError):
        McConfig(trials=0, seed=1)
    with pytest.raises(ValueError):
        McConfig(trials=10, seed=1, max_steps=0)
    # the walks' int64 sums must not wrap
    McConfig(trials=10, seed=1, start=2**63 - 1 - 6 * 10**6)
    with pytest.raises(ValueError):
        McConfig(trials=10, seed=1, start=2**63 - 6 * 10**6)


def test_merge_is_order_independent():
    cfg = McConfig(trials=40000, seed=5)
    whole = simulate_hitting(cfg)
    seeds = [101, 202, 303, 404]
    parts = [simulate_hitting(McConfig(trials=10000, seed=s)) for s in seeds]
    merged_fwd = parts[0]
    for p in parts[1:]:
        merged_fwd = merge_results(merged_fwd, p)
    merged_rev = parts[-1]
    for p in reversed(parts[:-1]):
        merged_rev = merge_results(merged_rev, p)
    assert merged_fwd == merged_rev
    assert merged_fwd.trials_completed == whole.trials_completed == 40000
    # the partitioned estimate is statistically consistent with one stream
    assert abs(merged_fwd.mean - whole.mean) < 5 * (whole.std_error + merged_fwd.std_error)


@given(times=st.lists(st.integers(1, 10**6), min_size=1, max_size=40),
       data=st.data())
def test_merge_is_order_independent_and_associative(times, data):
    # random trial sums, split into random parts, merged in any order and
    # any bracketing, give one result, field for field
    labels = data.draw(st.lists(st.integers(0, 4), min_size=len(times),
                                max_size=len(times)), label="labels")
    parts = []
    for label in sorted(set(labels)):
        part = [t for t, at in zip(times, labels) if at == label]
        capped = data.draw(st.integers(0, 3), label="capped")
        parts.append(oracle._result_from_sums(len(part), capped, sum(part),
                                              sum(t * t for t in part)))
    shuffled = data.draw(st.permutations(parts), label="order")
    left = reduce(merge_results, parts)
    right = reduce(lambda acc, part: merge_results(part, acc), reversed(parts))
    assert left == right == reduce(merge_results, shuffled)
    assert (left.trials_completed, left.sum_t, left.sum_t_sq) == (
        len(times), sum(times), sum(t * t for t in times))
    assert left.capped_trials == sum(part.capped_trials for part in parts)


def test_ever_hit_small_n_matches_exact():
    trials = 120_000
    for n in range(1, 9):
        est = simulate_ever_hit(n, trials, seed=100 + n)
        p = float(pn_exact(n))
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(est - p) < 5 * se


def test_ever_hit_limit():
    trials = 120_000
    est = simulate_ever_hit(200, trials, seed=77)
    p = 2 / 7
    se = (p * (1 - p) / trials) ** 0.5
    assert abs(est - p) < 5 * se


def test_ever_hit_validation():
    with pytest.raises(ValueError):
        simulate_ever_hit(0, 10, 1)
    with pytest.raises(ValueError):
        simulate_ever_hit(5, 0, 1)
