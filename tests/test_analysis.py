import math
import sys
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contention import analysis
from contention.analysis import (
    _BITS,
    _K1_LIMIT,
    _LONE_TERMS,
    _enclosures,
    _rule,
    _scaled,
    bound_report,
    deadline_comparison,
    derive_constants,
    feasibility,
    min_truncation_k1,
    persistent_distribution,
    solve_expectations,
)
from contention.schedule import Schedule

C = Fraction(11, 10)
P = 0.75


def test_derive_constants_at_three_quarters():
    consts = derive_constants(P)
    assert consts.gamma == Fraction(15, 16)
    assert consts.delta == Fraction(5, 8)
    assert consts.beta == Fraction(55, 64)


@pytest.mark.parametrize("p,gamma,delta,beta", [(0, 0, 1, 1), (1, 1, 1, 1)])
def test_derive_constants_degenerate(p, gamma, delta, beta):
    consts = derive_constants(p)
    assert (consts.gamma, consts.delta, consts.beta) == (gamma, delta, beta)


def test_feasibility_reference_point():
    report = feasibility(C, P)
    assert report.thresholds["inv_1mp"] == 4
    assert report.thresholds["inv_delta"] == Fraction(8, 5)
    assert report.thresholds["inv_beta"] == Fraction(64, 55)
    assert report.thresholds["persist_lb"] == Fraction(16, 15)
    assert report.finite_all_P and report.persistent_diverges and report.feasible


def test_feasibility_below_persistence_threshold():
    report = feasibility(Fraction(21, 20), P)  # 1.05 < 16/15
    assert not report.persistent_diverges
    assert not report.feasible


def test_feasibility_above_finiteness_threshold():
    report = feasibility(Fraction(6, 5), P)  # 1.2 > 64/55
    assert not report.finite_all_P
    assert not report.feasible


def test_feasibility_flips_exactly_at_thresholds():
    eps = Fraction(1, 10**6)
    # persistence boundary at 16/15: c*gamma > 1 must be strict
    assert not feasibility(Fraction(16, 15), P).persistent_diverges
    assert feasibility(Fraction(16, 15) + eps, P).persistent_diverges
    # finiteness boundary at 64/55: c < 64/55 must be strict
    assert feasibility(Fraction(64, 55) - eps, P).finite_all_P
    assert not feasibility(Fraction(64, 55), P).finite_all_P


def test_y1_upper_values():
    assert bound_report(C, P, k_max=1).y1k_upper == [
        {"k": 0, "bound": 22.758620689655174}, {"k": 1, "bound": 100.13793103448276}
    ]


def test_y1_upper_divergent():
    with pytest.raises(ValueError, match="diverges"):
        bound_report(Fraction(13, 10), 0.2)  # c(1-p) = 1.04


def test_y1_upper_c1_guard():
    with pytest.raises(ValueError, match="c = 1"):
        bound_report(Fraction(1), P)


def test_min_truncation_k1():
    assert min_truncation_k1(C, P) == 2
    # k=1 fails the contraction inequality: 0.625 * 2.1 = 1.3125 >= 1
    delta = derive_constants(P).delta
    assert delta * (C + 1) >= 1


def _min_truncation_loop(c, p) -> int:
    # the oracle: multiply delta^k c^(k-1) (c+1) term by term until it drops below 1
    delta = derive_constants(p).delta
    k, term = 1, delta * (c + 1)
    while term >= 1:
        k += 1
        term *= delta * c
    return k


@pytest.mark.parametrize(
    "c, p, k1",
    [
        (Fraction(1), Fraction(1, 2), 2),  # the factor at k = 1 is exactly 1
        (C, Fraction(3, 4), 2),
        (Fraction(21, 20), Fraction(1, 10), 5),
        (Fraction(10001, 10000), Fraction(127, 128), 45),
        (Fraction(10001, 10000), Fraction(999, 1000), 365),
        (Fraction(1000001, 1000000), Fraction(9999, 10000), 3484),
    ],
)
def test_min_truncation_k1_matches_the_loop(c, p, k1):
    assert min_truncation_k1(c, p) == _min_truncation_loop(c, p) == k1


def test_min_truncation_k1_far_from_the_reference_point():
    # the least k with delta^k c^(k-1) (c+1) < 1, checked from that definition
    # in integers, as Fraction products here reduce numbers of millions of bits
    c, p = Fraction(10000000001, 10000000000), Fraction(99999, 100000)
    (dn, dd), (cn, cd) = derive_constants(p).delta.as_integer_ratio(), c.as_integer_ratio()
    k = min_truncation_k1(c, p)
    # the factor at k - 1 is num/den, and the one at k is num dn cn / (den dd cd)
    num, den = dn ** (k - 1) * cn ** (k - 2) * (cn + cd), dd ** (k - 1) * cd ** (k - 1)
    assert k == 34658 and num * dn * cn < den * dd * cd and num >= den


@pytest.fixture
def settles(monkeypatch):
    # the (c, p) of every min_truncation_k1 call that bound_report makes
    calls, real = [], analysis.min_truncation_k1
    monkeypatch.setattr(analysis, "min_truncation_k1", lambda c, p: calls.append((c, p)) or real(c, p))
    return calls


@pytest.mark.parametrize("k1_prime", [None, 2, 5])
def test_bound_report_settles_k1_once(settles, k1_prime):
    report = bound_report(C, P, k1_prime=k1_prime)
    assert len(settles) == 1 and report.k1_min == 2
    assert report.k1_used == (2 if k1_prime is None else k1_prime)


def test_requested_truncation_below_the_least_is_too_small(settles):
    with pytest.raises(ValueError, match=r"truncation 1 too small: delta\^k1' c\^\(k1'-1\) \(c\+1\) >= 1"):
        bound_report(C, P, k1_prime=1)
    assert len(settles) == 1


def test_bound_report_rejects_negative_table_horizon():
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        bound_report(C, P, k_max=-1)
    assert bound_report(C, P, k_max=0).y1k_upper == [{"k": 0, "bound": 22.758620689655174}]


@pytest.mark.parametrize("p", [0, 1, Fraction(-1, 2)])
def test_series_bounds_reject_p_outside_open_unit_interval(p):
    with pytest.raises(ValueError, match=r"p must be in \(0, 1\)"):
        bound_report(Fraction(1, 2), p, k1_prime=2, k_max=0)


def test_min_truncation_no_finite_value():
    with pytest.raises(ValueError, match="no finite truncation"):
        min_truncation_k1(Fraction(6, 5), 0.05)  # delta*c > 1


def test_delta_bound_reference_value():
    assert 755.0 <= bound_report(C, P, k1_prime=2, k_max=0).delta_bound <= 756.0


def test_delta_bound_too_small_truncation():
    with pytest.raises(ValueError, match="too small"):
        bound_report(C, P, k1_prime=1, k_max=0)


@pytest.mark.parametrize("k1", [2, 2700])
def test_delta_bound_without_contraction_names_the_reason(k1):
    # delta*c = 41/10 at (5, 9/10); at k1' = 2700 the exact factor once
    # passed Python's limit for printing an integer
    with pytest.raises(ValueError, match="no finite truncation"):
        bound_report(5, Fraction(9, 10), k1_prime=k1, k_max=0)


@pytest.mark.parametrize("k1", [700, 100_000])
def test_delta_bound_past_the_float_range_is_named(k1):
    with pytest.raises(ValueError, match=f"delta_bound at index {k1} is too large for a float"):
        bound_report(C, P, k1_prime=k1, k_max=0)


def test_y1_and_y30_upper_past_the_float_range_are_named():
    # the table stops at the first k past the float range
    with pytest.raises(ValueError, match="y1_upper at index 477 is too large for a float"):
        bound_report(C, P, k_max=2000)
    # delta_bound still fits at k1' = 699; the bound built on it does not.  Past
    # that, delta_bound does not fit either, and is named first
    with pytest.raises(ValueError, match="y30_upper at index 699 is too large for a float"):
        bound_report(C, P, k1_prime=699, k_max=0)


def test_bounds_near_the_float_range_keep_their_exact_value():
    # each is the least float at or above its exact value
    assert bound_report(C, P, k1_prime=600, k_max=0).delta_bound == 4.267545258889281e264
    assert bound_report(C, P, k1_prime=698, k_max=0).y30_upper == 1.7421463357065434e308
    # the last k that fits
    assert bound_report(C, P, k_max=476).y1k_upper[-1] == {"k": 476, "bound": 4.3713939318653676e307}


def test_rounding_up_past_the_largest_float_is_named():
    # just above the largest float: the nearest float is below, and one step up is infinite
    num, den = sys.float_info.max.as_integer_ratio()
    assert analysis._to_float("v", 4 * num + 1, 4 * den, up=False) == sys.float_info.max
    with pytest.raises(ValueError, match="v is too large for a float"):
        analysis._to_float("v", 4 * num + 1, 4 * den, up=True)
    with pytest.raises(ValueError, match="v is too large for a float"):
        analysis._to_float("v", -4 * num - 1, 4 * den, up=False)
    # below 2^1024, rounding toward zero gives a finite float, even where the nearest float is past the largest
    assert analysis._to_float("v", 2**1024 - 1, 1, up=False) == sys.float_info.max
    assert analysis._to_float("v", -(2**1024 - 1), 1, up=True) == -sys.float_info.max
    for num, up in ((2**1024, False), (2**1024, True), (-(2**1024), False), (-(2**1024), True)):
        with pytest.raises(ValueError, match="v is too large for a float"):
            analysis._to_float("v", num, 1, up)


def _check_to_float(num, den):
    # num/den to the nearest float, as float(Fraction) gives it, and up (down) to the least (greatest)
    # float at or above (below) it; a den of 2^_BITS is an enclosure endpoint, which _fixed_to_float
    # rounds the same way.  Named: a nearest float past the largest, and a directed value with no
    # finite float on its side or a magnitude of 2^1024 or more
    exact = Fraction(num, den)
    try:
        nearest = float(exact)
    except OverflowError:
        nearest = None
    for up in (None, False, True):
        calls = [lambda: analysis._to_float("v", num, den, up)]
        if up is not None and den == 1 << _BITS:
            calls.append(lambda: analysis._fixed_to_float("v", num, _BITS, up))
        if up is None:
            named = nearest is None
        else:
            named = abs(exact) >= 2**1024 or (exact > sys.float_info.max if up else exact < -sys.float_info.max)
        for call in calls:
            if named:
                with pytest.raises(ValueError, match="v is too large for a float"):
                    call()
            elif up is None:
                assert call() == nearest
            else:
                _assert_outward(call(), exact, up)


@settings(max_examples=500, deadline=None)
@given(
    st.integers(0, 1200).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)),
    st.sampled_from([1, 3, 1 << _BITS]) | st.integers(0, 1200).flatmap(lambda bits: st.integers(1, 2**bits)),
)
@example(1, 3 << 1074)  # a third of the least subnormal: 5e-324 up, 0.0 down
@example(-1, 3 << 1074)
@example(2**1152 - 1, 1 << _BITS)  # just below 2^1024: down is the largest float, up is named
@example(-(2**1152 - 1), 1 << _BITS)
@example(2**1024, 1)
@example(-(2**1024), 1)
@example(2**1025 - 1, 2)
def test_to_float_matches_the_fraction_oracle(num, den):
    _check_to_float(num, den)


def test_to_float_matches_the_fraction_oracle_at_powers_of_two():
    nums = {0, 2**53 - 1, 2**53, 2**53 + 1} | {2**k + d for k in range(1201) for d in (-1, 0, 1)}
    for num in nums:
        for den in (1, 3, 1 << _BITS):
            _check_to_float(num, den)
            _check_to_float(-num, den)
    assert analysis._to_float("v", 1, 3 << 1074, up=True) == 5e-324
    assert analysis._to_float("v", 1, 3 << 1074, up=False) == 0.0


def test_delta_bound_larger_truncation_regression():
    # larger truncation tightens the bound; value frozen from exact evaluation
    value = bound_report(C, P, k1_prime=3, k_max=0).delta_bound
    assert value == pytest.approx(570.8645304357467, rel=1e-12)
    assert value < bound_report(C, P, k1_prime=2, k_max=0).delta_bound


def test_y30_upper_reference_value():
    value = bound_report(C, P, k1_prime=2, k_max=0).y30_upper
    assert 2700 <= value <= 2759
    assert value == pytest.approx(2756.5626009852213, rel=1e-12)


def test_y30_upper_larger_truncation_regression():
    assert bound_report(C, P, k1_prime=3, k_max=0).y30_upper == pytest.approx(2091.6837381401165, rel=1e-12)


def test_y30_upper_divergent():
    # delta c = 15/16 contracts and c(1-p) = 3/8 converges, but beta c = 165/128
    with pytest.raises(ValueError, match=r"beta\*c = 165/128 >= 1: bound diverges"):
        bound_report(Fraction(3, 2), Fraction(3, 4))


def test_bound_report_consistency():
    report = bound_report(C, P)
    assert report.k1_min == 2 and report.k1_used == 2
    assert report.y30_upper >= report.y1k_upper[0]["bound"]
    ratios = [b["bound"] / a["bound"] for a, b in zip(report.y1k_upper, report.y1k_upper[1:])]
    assert all(r == pytest.approx(4.4, rel=1e-9) for r in ratios)


def _geom_sum(r: Fraction, n: int) -> Fraction:
    """sum_{i=0}^{n-1} r^i, exact, valid for r == 1 too."""
    return Fraction(n) if r == 1 else (1 - r**n) / (1 - r)


def _delta_fraction(c, p, k1):
    # the oracle: Delta from the reduced Fraction formula that the unreduced (num, den) replaced
    rate, grow = derive_constants(p).delta * c, (c + 1) / c
    head, ratio = 2 * c**2 * p**2 / ((c - 1) * (1 - c * (1 - p))), rate / (1 - p)
    power = rate**k1
    return (2 * (1 - power) / (1 - rate) + head * _geom_sum(ratio, k1)) / (1 - grow * power)


def _y30_fraction(c, p, bound2):
    return (2 + 2 * p * (1 - p) ** 2 * (c + 1) * bound2) / (1 - derive_constants(p).beta * c)


def _assert_matches_fraction_formula(c, p, k1):
    # each bound is the least float at or above its value by the reduced Fraction formula
    report = bound_report(c, p, k1_prime=k1, k_max=0)
    bound2 = _delta_fraction(c, p, k1)
    for value, exact in ((report.delta_bound, bound2), (report.y30_upper, _y30_fraction(c, p, bound2))):
        assert value >= exact and math.nextafter(value, -math.inf) < exact


@pytest.mark.parametrize(
    "c, p, k1",
    [
        *((Fraction(6, 5), Fraction(1, 4), k1) for k1 in (3, 4, 10)),  # ratio delta c / (1-p) is 1
        *((C, Fraction(3, 4), k1) for k1 in (2, 3, 10)),
        (Fraction(10001, 10000), Fraction(127, 128), 45),
    ],
)
def test_delta_and_y30_match_the_fraction_formula(c, p, k1):
    _assert_matches_fraction_formula(c, p, k1)


def test_requested_truncation_past_the_limit_is_named(monkeypatch):
    # named before any power of the requested size is built
    exponents, real = [], Fraction.__pow__
    monkeypatch.setattr(Fraction, "__pow__", lambda a, b: exponents.append(b) or real(a, b))
    with pytest.raises(ValueError, match=f"truncation {_K1_LIMIT + 1} is past the limit {_K1_LIMIT}"):
        bound_report(Fraction(21, 20), Fraction(1, 10), k1_prime=_K1_LIMIT + 1, k_max=0)
    assert exponents and max(exponents) <= min_truncation_k1(Fraction(21, 20), Fraction(1, 10))


def _width(row: dict) -> float:
    return row["upper"] - row["lower"]


def _contains(row: dict, value: float, slack: float) -> bool:
    return row["lower"] - slack <= value <= row["upper"] + slack


def lone_player_series_oracle(c: Fraction, p: Fraction, k: int, terms: int = 200) -> float:
    # independent direct summation: sum_{l>=k} (s_l - s_{k-1}) p (1-p)^(l-k)
    sched = Schedule(c, k + terms)
    s_prev = sched.s[k - 1] if k else 0
    total = Fraction(0)
    for ell in range(k, k + terms + 1):
        total += (sched.s[ell] - s_prev) * Fraction(p) * (1 - Fraction(p)) ** (ell - k)
    return float(total)


def test_paper_series_lone_player_expectation():
    table = solve_expectations(C, P, "paper-series", truncation_K=10)
    oracle = lone_player_series_oracle(C, Fraction(3, 4), 0)
    assert oracle == pytest.approx(2.668, abs=0.001)
    assert table.y1[0]["lower"] <= oracle <= table.y1[0]["upper"]
    assert _width(table.y1[0]) < 1e-9
    for k in (1, 2, 5):
        assert _contains(table.y1[k], lone_player_series_oracle(C, Fraction(3, 4), k), slack=1e-9)
    # at (21/20, 1/10) the series converges slowly, c(1-p) = 0.945: 600
    # terms leave a remainder below 1e-12
    c, p = Fraction(21, 20), Fraction(1, 10)
    table = solve_expectations(c, p, "paper-series", truncation_K=400)
    for k in (0, 1, 2, 5):
        assert _width(table.y1[k]) < 1e-9
        assert _contains(table.y1[k], lone_player_series_oracle(c, p, k, terms=600), slack=1e-9)


# The exact oracles below hold each endpoint of E[Y_n,k] as an integer
# numerator over base * pd^e, with base a common denominator of the seeds
# and pd the denominator of p: a (lo, hi, e) row.  They add no Fractions,
# whose every sum would reduce numbers of tens of thousands of bits.


def _over(value: Fraction, base: int) -> int:
    """The numerator of value over base, which value's denominator divides."""
    return value.numerator * (base // value.denominator)


def _affine(x, base, pd, *terms):
    """The row of x + sum(coef * row) over the (coef, m, row) terms, each
    coef a Fraction whose denominator divides pd^m."""
    e = max(row[2] + m for _, m, row in terms)
    x = x * base * pd**e
    scaled = [(_over(coef, pd**m) * pd ** (e - row[2] - m), row) for coef, m, row in terms]
    return tuple(x + sum(w * row[end] for w, row in scaled) for end in (0, 1)) + (e,)


def _lone_seed(c, p, k):
    """The upper seed 2c^k / (1 - c(1-p)) of E[Y_1,k]."""
    return 2 * c**k / (1 - c * (1 - p))


def _lone_series_rows(sched, c, p, K, base, terms=80):
    # E[Y_1,k] = x_k + (1-p) E[Y_1,k+1], run down from k = K + terms with
    # the seed [0, _lone_seed]
    top = K + terms
    sched.extend_to(top)
    row = (0, _over(_lone_seed(c, p, top), base), 0)
    rows = []
    for k in range(top - 1, -1, -1):
        row = _affine(sched.x[k], base, p.denominator, (1 - p, 1, row))
        rows.append(row)
    return rows[::-1][: K + 1]


@pytest.mark.parametrize(
    "c, p",
    [(Fraction(11, 10), Fraction(3, 4)), (Fraction(10001, 10000), Fraction(127, 128)),
     (Fraction(11, 10), Fraction(1, 10))],
)
def test_lone_series_interval_matches_fraction_loop(c, p):
    # the recurrence at m = 1, run down from K + _LONE_TERMS as paper-series
    # runs it.  Each floor or ceiling moves an endpoint by less than one unit,
    # and each step scales what earlier steps moved by 1-p: less than 1/p units
    rows = _enclosures(Schedule(c, 8), c, _rule(1, c, p, 0), 400 + _LONE_TERMS, None)
    base = _lone_seed(c, p, 480).denominator
    exact = _lone_series_rows(Schedule(c, 8), c, p, 400, base)
    for k in (0, 1, 7, 60, 400):
        (lo, hi), (*ends, e) = rows[k], exact[k]
        exact_lo, exact_hi = (Fraction(end, base * p.denominator**e) for end in ends)
        assert 0 <= exact_lo * 2**_BITS - lo < 1 / p
        assert 0 <= hi - exact_hi * 2**_BITS < 1 / p


def test_fixed_point_seeds_round_up():
    # a seed rounded down can sit below its exact value by less than a
    # float's ulp, which no float endpoint shows
    for value in (Fraction(1, 3), Fraction(10**40 + 1, 7), _delta_fraction(C, Fraction(3, 4), 2)):
        assert 0 < _scaled(*value.as_integer_ratio(), _BITS, True) - value * 2**_BITS < 1
    assert _scaled(5, 4, _BITS, True) == _scaled(10, 8, _BITS, True) == 5 << (_BITS - 2)


def _supersolution(c, p, semantics):
    """(e1, A, B): E[Y_1,k] <= e1 c^k, and A c^k, B c^k bound E[Y_2,k], E[Y_3,k]."""
    consts = derive_constants(p)
    e1 = Fraction(1) if semantics == "literal" else _lone_seed(c, p, 0)
    a = (2 + p * (1 - p) * e1 * c) / (1 - consts.delta * c)
    b = (2 + 2 * p * (1 - p) ** 2 * a * c) / (1 - consts.beta * c)
    return e1, a, b


def _solve_expectations_exact(c, p, semantics, K):
    # the interval recurrence run exactly, seeded with the supersolution;
    # each table a list of (lo, hi, den), integer numerators over den
    sched = Schedule(c, K)
    _, a, b = _supersolution(c, p, semantics)
    seeds = [a * c**K, b * c**K]
    if semantics == "paper-series":
        seeds.append(_lone_seed(c, p, K + 80))
    base = math.lcm(*(seed.denominator for seed in seeds))
    if semantics == "literal":
        e1 = [(base, base, 0)] * (K + 1)
    else:
        e1 = _lone_series_rows(sched, c, p, K, base)
    consts, pd = derive_constants(p), p.denominator
    a2, a3 = p * (1 - p), 2 * p * (1 - p) ** 2
    e2 = [(0, _over(seeds[0], base), 0)]
    e3 = [(0, _over(seeds[1], base), 0)]
    for i in range(K - 1, -1, -1):
        e2_next = e2[-1]
        e2.append(_affine(sched.x[i], base, pd, (a2, 2, e1[i + 1]), (consts.delta, 2, e2_next)))
        e3.append(_affine(sched.x[i], base, pd, (a3, 3, e2_next), (consts.beta, 3, e3[-1])))
    return [[(lo, hi, base * pd**e) for lo, hi, e in rows] for rows in (e1, e2[::-1], e3[::-1])]


def _assert_encloses(table, exact):
    """lower <= exact <= upper for every endpoint, each within 1 ulp of
    the float nearest its exact value, compared without Fractions."""
    for rows, exact_rows in zip((table.y1, table.y2, table.y3), exact):
        assert len(rows) == len(exact_rows)
        for iv, (lo, hi, den) in zip(rows, exact_rows):
            (ln, ld), (hn, hd) = iv["lower"].as_integer_ratio(), iv["upper"].as_integer_ratio()
            assert ln * den <= lo * ld and hi * hd <= hn * den
            for end, num in ((iv["lower"], lo), (iv["upper"], hi)):
                assert abs(end - num / den) <= math.ulp(num / den)


@pytest.mark.parametrize("semantics", ["literal", "paper-series"])
@pytest.mark.parametrize(
    "c, p",
    [(Fraction(11, 10), Fraction(3, 4)), (Fraction(10001, 10000), Fraction(127, 128)),
     (Fraction(21, 20), Fraction(1, 10))],
)
@pytest.mark.parametrize("K", [1, 2, 60, 400, 800])
def test_solve_expectations_matches_fraction_recurrence(c, p, semantics, K):
    table = solve_expectations(c, p, semantics, truncation_K=K)
    _assert_encloses(table, _solve_expectations_exact(c, p, semantics, K))


def test_enclosure_at_k800_keeps_its_width():
    # rounded to nearest, both endpoints once became 45.03982003659102
    iv = solve_expectations(C, P, "literal", truncation_K=800).y3[0]
    assert iv["lower"] < iv["upper"]


@st.composite
def feasible_points(draw):
    den = draw(st.integers(2, 64))
    p = Fraction(draw(st.integers(1, den - 1)), den)
    consts = derive_constants(p)
    c_max = min(1 / (1 - p), 1 / consts.delta, 1 / consts.beta, Fraction(2))
    steps = draw(st.integers(2, 20))
    c = 1 + (c_max - 1) * Fraction(draw(st.integers(1, steps - 1)), steps)
    return c, p


@settings(max_examples=100, deadline=None)
@given(feasible_points(), st.sampled_from(["literal", "paper-series"]))
def test_seeds_are_a_supersolution(point, semantics):
    # T(u) <= u, exactly: then u lies above the least nonnegative solution
    c, p = point
    e1, a, b = _supersolution(c, p, semantics)
    consts, x = derive_constants(p), Schedule(c, 12).x
    for k in range(13):
        u1 = 1 if semantics == "literal" else e1 * c ** (k + 1)  # E[Y_1,k+1] or its bound
        if semantics == "paper-series":  # the lone player's own recurrence
            assert x[k] + (1 - p) * u1 <= e1 * c**k
        assert x[k] + p * (1 - p) * u1 + consts.delta * a * c ** (k + 1) <= a * c**k
        assert x[k] + 2 * p * (1 - p) ** 2 * a * c ** (k + 1) + consts.beta * b * c ** (k + 1) <= b * c**k


@settings(max_examples=100, deadline=None)
@given(feasible_points())
def test_recurrence_rule_matches_derive_constants(point):
    # the one expression for every m gives the paper's named coefficients
    # and the hand-derived supersolution constants
    c, p = point
    consts = derive_constants(p)
    e1, a, b = _supersolution(c, p, "paper-series")
    expected = [(0, 1 - p, e1), (p * (1 - p), consts.delta, a), (2 * p * (1 - p) ** 2, consts.beta, b)]
    below = 0  # C_0: no pending player, no latency
    for m, (a_m, beta_m, bound) in enumerate(expected, 1):
        rule = _rule(m, c, p, below)
        assert rule[2] == p.denominator**m
        assert (Fraction(rule[0], rule[2]), Fraction(rule[1], rule[2]), rule[3]) == (a_m, beta_m, bound)
        below = rule[3]
    assert _rule(2, c, p, Fraction(1))[3] == _supersolution(c, p, "literal")[1]


@settings(max_examples=100, deadline=None)
@given(feasible_points(), st.sampled_from(["literal", "paper-series"]), st.integers(1, 12))
def test_solve_expectations_matches_fraction_recurrence_property(point, semantics, K):
    c, p = point
    table = solve_expectations(c, p, semantics, truncation_K=K)
    _assert_encloses(table, _solve_expectations_exact(c, p, semantics, K))


@settings(max_examples=50, deadline=None)
@given(feasible_points(), st.sampled_from(["literal", "paper-series"]), st.integers(1, 15))
def test_longer_truncation_encloses_within(point, semantics, K):
    # run down from 4K, E[Y_n,K] stays under the supersolution that seeds
    # the K run, and every step below K is monotone
    c, p = point
    wide = solve_expectations(c, p, semantics, truncation_K=K)
    narrow = solve_expectations(c, p, semantics, truncation_K=4 * K)
    for rows, inner_rows in ((wide.y1, narrow.y1), (wide.y2, narrow.y2), (wide.y3, narrow.y3)):
        for iv, inner in zip(rows, inner_rows):
            assert iv["lower"] <= inner["lower"] and inner["upper"] <= iv["upper"]


@settings(max_examples=100, deadline=None)
@given(feasible_points())
def test_min_truncation_k1_matches_the_loop_property(point):
    assert min_truncation_k1(*point) == _min_truncation_loop(*point)


@settings(max_examples=100, deadline=None)
@given(feasible_points(), st.integers(0, 3))
def test_delta_and_y30_match_the_fraction_formula_property(point, extra):
    c, p = point
    _assert_matches_fraction_formula(c, p, min_truncation_k1(c, p) + extra)


def _assert_outward(value: float, exact: Fraction, up: bool):
    """value is the float nearest exact on the side that up names: at or above (below) exact
    when up is True (False), and the next float toward exact is strictly past it."""
    assert value >= exact if up else value <= exact
    step = math.nextafter(value, -math.inf if up else math.inf)
    assert step < exact if up else step > exact


@settings(max_examples=100, deadline=None)
@given(feasible_points(), st.integers(0, 12), st.integers(0, 3), st.integers(1, 40))
def test_public_bounds_round_outward(point, k, extra, t0):
    # upper bounds round up and lower bounds down
    c, p = point
    head = 2 * c * p / ((c - 1) * (1 - c * (1 - p)))
    k1 = min_truncation_k1(c, p) + extra
    bounds, bound2 = bound_report(c, p, k1_prime=k1, k_max=k), _delta_fraction(c, p, k1)
    _assert_outward(bounds.y1k_upper[k]["bound"], head * (c / (1 - p)) ** k, up=True)
    _assert_outward(bounds.delta_bound, bound2, up=True)
    _assert_outward(bounds.y30_upper, _y30_fraction(c, p, bound2), up=True)
    report = deadline_comparison(c, p, t0, z_grid=(0, 7, 25))
    delta = derive_constants(p).delta
    _assert_outward(report.prE_lower, delta**report.xi, up=False)
    partials = persistent_distribution(c, p, 25).partial_expectations
    factor = delta**report.xi * c ** (report.xi - 1) * (c - 1)
    for row in report.truncated_lower_bounds:
        _assert_outward(row["bound"], factor * partials[row["z_max"]] - t0**2, up=False)


def test_literal_lone_player_is_one():
    table = solve_expectations(C, P, "literal", truncation_K=20)
    assert all(iv["lower"] == iv["upper"] == 1.0 for iv in table.y1)


def test_enclosures_shrink_with_truncation():
    widths = [
        _width(solve_expectations(C, P, "literal", truncation_K=K).y3[0]) for K in (20, 60, 150, 300)
    ]
    assert widths == sorted(widths, reverse=True)
    assert widths[-1] < 1e-3


def test_literal_enclosure_tight_reference():
    iv = solve_expectations(C, P, "literal", truncation_K=300).y3[0]
    assert iv["lower"] == pytest.approx(45.0398, abs=0.001)
    assert _width(iv) < 1e-3
    assert iv["upper"] < 2759


def test_paper_series_dominates_literal():
    lit = solve_expectations(C, P, "literal", truncation_K=300)
    pap = solve_expectations(C, P, "paper-series", truncation_K=300)
    for k in range(0, 301, 50):
        assert pap.y3[k]["lower"] >= lit.y3[k]["lower"] - 1e-9


def test_expectation_midpoints_satisfy_domination():
    table = solve_expectations(C, P, "paper-series", truncation_K=200)
    c = float(C)

    def mid(iv):
        return (iv["lower"] + iv["upper"]) / 2

    for rows in (table.y2, table.y3):
        for k, k_prime in [(0, 1), (0, 5), (2, 7), (3, 20)]:
            lo = c ** (k_prime - k - 1) * (c - 1) * mid(rows[k])
            hi = c ** (k_prime - k - 1) * (c + 1) * mid(rows[k])
            slack = _width(rows[k]) + _width(rows[k_prime]) + 1e-9
            assert lo - slack <= mid(rows[k_prime]) <= hi + slack


@pytest.mark.parametrize("p", [Fraction(-1, 2), Fraction(3, 2)])
def test_derive_constants_rejects_p_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=rf"p must be in \[0, 1\], got {p}"):
        derive_constants(p)


def test_solver_rejects_an_unknown_semantics():
    with pytest.raises(ValueError, match="semantics must be one of"):
        solve_expectations(C, P, "psychic", truncation_K=20)


def test_solver_rejects_infeasible_parameters():
    with pytest.raises(ValueError, match="diverge"):
        solve_expectations(Fraction(6, 5), P, "literal", truncation_K=20)


def test_persistent_distribution_reference_point():
    dist = persistent_distribution(C, P, 200)
    assert dist.support[:6] == [2, 4, 6, 8, 10, 13]
    assert dist.pmf[0] == Fraction(1, 16)
    assert dist.expected_rounds == 16.0
    assert dist.jensen_lower == 64  # s_15
    assert dist.divergent and dist.growth_rate == pytest.approx(1.03125)


def test_persistent_jensen_lower_only_within_zmax():
    # floor(E[Z]) = 15 at p = 3/4: reported from z_max = 15 on
    assert persistent_distribution(C, P, 15).jensen_lower == 64
    assert persistent_distribution(C, P, 14).jensen_lower is None


@pytest.mark.parametrize(
    "c, p",
    [(C, P), (Fraction(10001, 10000), Fraction(127, 128)), (C, Fraction(1, 2)), (C, Fraction(1, 10))],
    ids=["reference", "corner", "p-1/2", "p-1/10"],
)
def test_persistent_jensen_lower_matches_the_fraction_floor(c, p):
    # 1/(1-p)^2 is an integer at p = 1/2: floor(E[Z]) = 3 exactly
    dist = persistent_distribution(c, p, 400)
    jensen_k = int(1 / dist.pmf[0] - 1)
    assert dist.jensen_lower == (dist.support[jensen_k] if jensen_k <= 400 else None)
    assert dist.expected_rounds == float(1 / dist.pmf[0])


def test_persistent_distribution_schedule_follows_zmax(monkeypatch):
    # floor(E[Z]) = 65535 at p = 255/256 must not size the schedule
    horizons = []
    real = analysis.Schedule
    monkeypatch.setattr(analysis, "Schedule", lambda c, k: horizons.append(k) or real(c, k))
    dist = persistent_distribution(C, Fraction(255, 256), 10)
    assert horizons == [10] and len(dist.support) == 11
    assert dist.jensen_lower is None


def test_persistent_partial_expectations_grow_past_all_p_bound():
    dist = persistent_distribution(C, P, 200)
    partials = dist.partial_expectations
    assert all(b > a for a, b in zip(partials, partials[1:]))
    assert partials[200] > 2759
    assert partials[120] < 2759 < partials[160]  # crossing near z ~ 140


def test_persistent_term_ratios_converge_to_growth_rate():
    dist = persistent_distribution(C, P, 400)
    assert dist.term_ratios[-1] == pytest.approx(dist.growth_rate, rel=1e-3)


def test_persistent_pmf_partial_sums_below_one():
    dist = persistent_distribution(C, P, 50)
    assert sum(dist.pmf) < 1
    assert float(sum(dist.pmf)) == pytest.approx(1 - 0.9375**51, rel=1e-12)


def test_persistent_convergent_case():
    dist = persistent_distribution(Fraction(21, 20), P, 50)  # c*gamma < 1
    assert not dist.divergent


def _float_down(value: Fraction) -> float:
    """The greatest float at or below value."""
    nearest = float(value)
    return math.nextafter(nearest, -math.inf) if nearest > value else nearest


@pytest.mark.parametrize(
    "c, p",
    [(Fraction(11, 10), Fraction(3, 4)), (Fraction(10001, 10000), Fraction(127, 128)),
     (Fraction(11, 10), Fraction(1, 10))],
)
def test_partial_expectations_match_fraction_loop(c, p):
    # the cumulative Fraction sum the integer numerators replaced
    dist = persistent_distribution(c, p, 400)
    gamma = derive_constants(p).gamma
    weight, total = (1 - p) ** 2, Fraction(0)
    for z, s_z in enumerate(dist.support):
        total += s_z * weight
        assert (dist.pmf[z], dist.partial_expectations[z]) == (weight, total)
        weight *= gamma
    z_grid = (400, 0, 25)
    report = deadline_comparison(c, p, 5, z_grid=z_grid)
    factor = derive_constants(p).delta ** report.xi * c ** (report.xi - 1) * (c - 1)
    assert report.truncated_lower_bounds == [
        {"z_max": z, "bound": _float_down(factor * dist.partial_expectations[z] - 25)} for z in z_grid
    ]


def test_deadline_comparison_examples():
    r1 = deadline_comparison(C, P, 1)
    assert r1.xi == 0 and r1.prE_lower == 1.0 and r1.diverges
    r5 = deadline_comparison(C, P, 5)
    assert r5.xi == 2 and r5.prE_lower == pytest.approx(0.390625)
    r14 = deadline_comparison(C, P, 14)
    assert r14.xi == 6 and r14.prE_lower == pytest.approx(0.625**6)


@pytest.mark.parametrize(
    "c, p, t0, xi", [(C, Fraction(3, 4), 1, 0), (Fraction(10001, 10000), Fraction(127, 128), 1000, 499)]
)
def test_deadline_comparison_matches_the_fraction_formula(c, p, t0, xi):
    partials = persistent_distribution(c, p, 400).partial_expectations
    delta = derive_constants(p).delta
    factor = delta**xi * c ** (xi - 1) * (c - 1)
    for z_grid in [(0, 25, 100), (400, 25, 400, 0)]:  # the second repeats z and is out of order
        report = deadline_comparison(c, p, t0, z_grid=z_grid)
        assert report.xi == xi and report.prE_lower == _float_down(delta**xi)
        assert report.truncated_lower_bounds == [
            {"z_max": z, "bound": _float_down(factor * partials[z] - t0**2)} for z in z_grid
        ]


def test_deadline_comparison_keeps_only_the_grid_rows_of_the_law():
    # the law's rows hold integers of O(z) bits, so a table of every row up to z = 4000 peaks
    # near 14 MiB; one walk that keeps only the grid's two rows stays well under 1 MiB
    tracemalloc.start()
    try:
        deadline_comparison(Fraction(21, 20), Fraction(1, 10), 5, z_grid=(25, 4000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _deadline_at_c1(p):
    # a t0 at c = 1: small, or with xi = (t0 + 1)//2 - 1 around where delta^xi falls below 2^-1074
    log2_inv_delta = -math.log2(derive_constants(p).delta)
    lo, hi = math.floor(1074 / log2_inv_delta) - 4, math.ceil(1075 / log2_inv_delta) + 4
    near = st.integers(lo, hi).flatmap(lambda xi: st.sampled_from([2 * xi + 1, 2 * xi + 2]))
    return st.tuples(st.just(p), st.integers(min_value=1, max_value=60) | near)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1, 10), Fraction(99, 100)]).flatmap(_deadline_at_c1))
@example(case=(Fraction(1, 2), 2149))  # xi = 1074: delta^xi = 2^-1074, the least float
@example(case=(Fraction(1, 2), 2151))  # xi = 1075: rounds down to 0.0 on the exact path
@example(case=(Fraction(1, 2), 2153))  # xi = 1076: 0.0 decided from logarithms
def test_deadline_comparison_at_c1_matches_the_exact_path(case):
    # at c = 1, xi and the bounds have closed forms and delta^xi may go unbuilt; the exact path
    # counts xi on the schedule and rounds delta^xi and factor * partial - t0^2 down
    (p, t0), c, z_grid = case, Fraction(1), (0, 25)
    report = deadline_comparison(c, p, t0, z_grid=z_grid)
    sched = Schedule(c, 0)
    sched.ensure_covers_time(t0)
    xi = bisect_left(sched.s, t0)
    partials = persistent_distribution(c, p, max(z_grid)).partial_expectations
    delta = derive_constants(p).delta
    factor = delta**xi * c ** (xi - 1) * (c - 1)
    assert report.xi == xi and report.prE_lower == _float_down(delta**xi)
    assert report.truncated_lower_bounds == [
        {"z_max": z, "bound": _float_down(factor * partials[z] - t0**2)} for z in z_grid
    ]


def test_deadline_lower_bounds_unbounded_in_zmax():
    report = deadline_comparison(C, P, 5, z_grid=(50, 100, 200, 400, 800))
    bounds = [row["bound"] for row in report.truncated_lower_bounds]
    assert bounds == sorted(bounds)
    assert bounds[-1] > 10**8


@pytest.mark.parametrize("z_grid", [(), (5, -1), (-3,)])
def test_deadline_comparison_rejects_bad_z_grid(z_grid):
    with pytest.raises(ValueError, match="z_grid"):
        deadline_comparison(C, P, 5, z_grid=z_grid)


# calls near the float range, each side of where the size guard starts to answer (c = 3/2, p = 1/2
# for the enclosures; c = 2, p = 3/4 for the persistent law and a t0 = 5 deadline; p = 1 - 2^-e,
# whose 1/(1-p)^2 = 2^2e overflows from e = 512 on)
_NEAR_THE_FLOAT_RANGE = [
    *[(solve_expectations, (Fraction(3, 2), Fraction(1, 2), "literal", K)) for K in (1744, 1747, 1800)],
    *[(solve_expectations, (Fraction(3, 2), Fraction(1, 2), "paper-series", K)) for K in (1745, 1753, 1800)],
    *[(persistent_distribution, (Fraction(2), Fraction(3, 4), z)) for z in (1134, 1135, 1300)],
    *[(persistent_distribution, (Fraction(2), 1 - Fraction(1, 2**e), 5)) for e in (512, 513, 600)],
    *[(deadline_comparison, (Fraction(2), Fraction(3, 4), 5, grid))
      for grid in [(1136,), (1137,), (25, 1300), (1300, 25), (1300, 1136), (1136, 1300)]],
    (deadline_comparison, (Fraction(2), Fraction(3, 4), 2**520, (1300,))),  # -t0^2 is past the range too
    # the bound is about -t0^2, past the range from t0 = 2^512 on; the guard names it from t0^2 > 2^1026
    *[(deadline_comparison, (Fraction(2), Fraction(3, 4), t0, (5,))) for t0 in (2**512, 2**513, 2**514)],
]


def test_size_guard_names_what_the_exact_path_names(monkeypatch):
    def message(fn, args):
        with pytest.raises(ValueError, match="too large for a float") as exc:
            fn(*args)
        return str(exc.value)

    fired = []
    real = analysis._check_fits
    monkeypatch.setattr(analysis, "_check_fits", lambda name, lb: fired.append(lb > 1025) or real(name, lb))
    guarded = [message(fn, args) for fn, args in _NEAR_THE_FLOAT_RANGE]
    assert sum(fired) == 14  # the guard answers 14 of the 23 calls, the exact path the rest
    monkeypatch.setattr(analysis, "_check_fits", lambda name, lb: None)
    assert guarded == [message(fn, args) for fn, args in _NEAR_THE_FLOAT_RANGE]
