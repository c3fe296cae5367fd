import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.protocols import AgeBased, decision_probability
from contention.schedule import Schedule, check_domination, parse_rational


def reference_gaps(c: Fraction, horizon_k: int) -> list[int]:
    # independent oracle: fresh exact powering per index
    return [math.floor(2 * c**k) for k in range(horizon_k + 1)]


def test_schedule_example_11_10():
    sched = Schedule(Fraction(11, 10), 8)
    assert sched.s == [2, 4, 6, 8, 10, 13, 16, 19, 23]


def test_schedule_c1_all_gaps_two():
    sched = Schedule(Fraction(1), 4)
    assert sched.x == [2] * 5
    assert sched.s == [2, 4, 6, 8, 10]


def test_schedule_c2_powers_of_two():
    sched = Schedule(Fraction(2), 2)
    assert sched.x == [2, 4, 8]
    assert sched.s == [2, 6, 14]


def test_invalid_growth_factor():
    with pytest.raises(ValueError, match="must be >= 1"):
        Schedule(Fraction(9, 10), 4)


@pytest.mark.parametrize("num,den", [(11, 10), (3, 2), (2, 1), (16, 15), (64, 55)])
def test_incremental_matches_fresh_powering(num, den):
    c = Fraction(num, den)
    sched = Schedule(c, 80)
    assert sched.x == reference_gaps(c, 80)
    assert sched.s == [sum(sched.x[: k + 1]) for k in range(81)]


def test_monotone_and_gap_floor():
    sched = Schedule(Fraction(13, 9), 60)
    assert all(g >= 2 for g in sched.x)
    assert all(b > a for a, b in zip(sched.s, sched.s[1:]))


def test_extension_is_stable():
    sched = Schedule(Fraction(11, 10), 3)
    head = list(sched.s)
    sched.extend_to(40)
    assert sched.s[:4] == head
    assert sched.x == reference_gaps(Fraction(11, 10), 40)


def exact_gap(c: Fraction, j: int) -> int:
    return (2 * c.numerator**j) // c.denominator**j


@pytest.mark.parametrize(
    "c",
    [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(11, 10), Fraction(13, 9),
     Fraction(10001, 10000), Fraction(2097151, 1048576)],
)
def test_fixed_point_schedule_matches_exact_formula(c):
    sched = Schedule(c, 600)
    assert sched.x == [exact_gap(c, j) for j in range(601)]
    assert sched.s == list(accumulate(sched.x))


def test_fixed_point_schedule_near_one_far_out():
    c = Fraction(10001, 10000)
    sched = Schedule(c, 40_000)
    assert len(sched.x) == len(sched.s) == 40_001
    for j in [*range(0, 40_001, 997), 16_383, 40_000]:
        assert sched.x[j] == exact_gap(c, j)
    assert sched.s == list(accumulate(sched.x))


@pytest.mark.parametrize("c, k", [(Fraction(3, 2), 1500), (Fraction(11, 10), 2000)])
def test_exact_fallback_keeps_schedule_exact(c, k):
    sched = Schedule(c, k)
    assert sched._bits > 128  # the exact fallback ran and raised the precision
    assert sched.x == [exact_gap(c, j) for j in range(k + 1)]
    assert sched.s == list(accumulate(sched.x))


@settings(max_examples=150, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=2**24),
    den=st.integers(min_value=1, max_value=2**24),
    k=st.integers(min_value=0, max_value=400),
)
def test_fixed_point_schedule_property(num, den, k):
    c = 1 + Fraction(min(num, den), max(num, den))  # rational in (1, 2]
    sched = Schedule(c, k)
    assert sched.x == [exact_gap(c, j) for j in range(k + 1)]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(11, 10), Fraction(10001, 10000)])
@pytest.mark.parametrize("t", [1, 2, 3, 23, 24, 10**5])
def test_ensure_covers_time_stops_at_first_covering_entry(c, t):
    sched = Schedule(c, 0)
    sched.ensure_covers_time(t)
    assert sched.s[-1] >= t
    assert len(sched.s) == 1 or sched.s[-2] < t
    assert sched.x[-1] == exact_gap(c, len(sched.x) - 1)


def test_transmission_probability_examples():
    rule = AgeBased(Schedule(Fraction(11, 10), 8), 0.75)
    assert decision_probability(rule, 2) == 0.75
    assert decision_probability(rule, 1) == 1.0
    assert decision_probability(rule, 13) == 0.75


def test_transmission_probability_exhaustive_scan():
    sched = Schedule(Fraction(11, 10), 8)
    rule = AgeBased(sched, 0.75)
    members = set(sched.s)
    for t in range(1, sched.s[-1] + 1):
        expected = 0.75 if t in members else 1.0
        assert decision_probability(rule, t) == expected


def test_query_far_past_horizon_is_exact():
    # lookups extend the schedule themselves, as far as the slot needs
    c = Fraction(11, 10)
    s = list(accumulate(reference_gaps(c, 120)))
    sched = Schedule(c, 3)
    rule = AgeBased(sched, 0.75)
    assert decision_probability(rule, s[100]) == 0.75
    assert decision_probability(rule, s[110] + 1) == 1.0
    assert sched.s == s[: len(sched.s)] and sched.s[-2] < s[110] + 1 <= sched.s[-1]
    fresh = Schedule(c, 0)
    assert fresh.nontrivial_index(s[90]) == 90
    assert fresh.next_nontrivial_after(s[119]) == s[120]
    assert fresh.next_nontrivial_after(s[119] - 1) == s[119]


def test_domination_example_11_10():
    sched = Schedule(Fraction(11, 10), 10)
    res = check_domination(sched, k=0, k_prime=2, j=0)
    assert res.lower == Fraction(11, 50)  # 0.22
    assert res.value == 2
    assert res.upper == Fraction(231, 50)  # 4.62
    assert res.holds


def test_domination_degenerate_c1():
    sched = Schedule(Fraction(1), 50)
    for k, k_prime, j in [(0, 1, 0), (3, 9, 5), (0, 40, 10)]:
        res = check_domination(sched, k, k_prime, j)
        assert res.lower == 0
        assert res.upper == 2 * res.value
        assert res.holds


def test_domination_example_c2():
    sched = Schedule(Fraction(2), 5)
    res = check_domination(sched, k=0, k_prime=3, j=0)
    assert res.lower == 8
    assert res.value == 16
    assert res.upper == 24
    assert res.holds


def test_domination_invalid_order():
    sched = Schedule(Fraction(11, 10), 10)
    with pytest.raises(ValueError, match="need k' > k"):
        check_domination(sched, k=3, k_prime=3, j=0)


_SCHEDULES: dict[Fraction, Schedule] = {}


def _schedule_for(c: Fraction) -> Schedule:
    if c not in _SCHEDULES:
        _SCHEDULES[c] = Schedule(c, 61)
    return _SCHEDULES[c]


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=64),
    k=st.integers(min_value=0, max_value=39),
    gap=st.integers(min_value=1, max_value=40),
    j=st.integers(min_value=0, max_value=20),
)
def test_domination_property(num, k, gap, j):
    c = 1 + Fraction(num, 64)  # rational grid over [1, 2]
    k_prime = min(k + gap, 40)
    assert check_domination(_schedule_for(c), k, k_prime, j).holds


def test_json_round_trip():
    sched = Schedule(Fraction(11, 10), 8)
    data = sched.to_json()
    assert data == {"c": "11/10", "s": sched.s, "x": sched.x}


def test_parse_rational():
    assert parse_rational("11/10") == Fraction(11, 10)
    assert parse_rational("2") == 2


@pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0", "nan", "1/2/3", ""])
def test_parse_rational_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_rational(text)
