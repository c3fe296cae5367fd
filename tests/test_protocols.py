from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.protocols import (
    AgeBased,
    ConstantProb,
    Deadline,
    decision_probability,
    next_prob_change,
    profile_from_json,
    spec_from_json,
)
from contention.schedule import Schedule


@pytest.fixture(scope="module")
def age_based():
    return AgeBased(schedule=Schedule(Fraction(11, 10), 8), p=0.75)


def test_age_based_trivial_slot(age_based):
    assert decision_probability(age_based, 3) == 1.0


def test_age_based_nontrivial_slot(age_based):
    assert decision_probability(age_based, 2) == 0.75


def test_persistent_always_transmits():
    assert decision_probability(Deadline(t0=1), 1) == 1.0


def test_deadline_quiet_before_deadline():
    spec = Deadline(t0=5)  # the default pre-deadline rule is ConstantProb(0.0)
    assert decision_probability(spec, 4) == 0.0
    assert decision_probability(spec, 5) == 1.0


def test_deadline_fixed_prob_pre_rule():
    spec = Deadline(t0=4, pre=ConstantProb(q=0.5))
    assert decision_probability(spec, 2) == 0.5


def test_deadline_follow_age_based_pre_rule(age_based):
    spec = Deadline(t0=10, pre=age_based)
    assert decision_probability(spec, 4) == 0.75
    assert decision_probability(spec, 5) == 1.0
    assert decision_probability(spec, 11) == 1.0


def test_constant_prob():
    assert decision_probability(ConstantProb(q=1 / 3), 3) == 1 / 3


@settings(max_examples=100, deadline=None)
@given(t0=st.integers(min_value=1, max_value=30), extra=st.integers(min_value=0, max_value=50))
def test_deadline_is_one_from_deadline_on(t0, extra):
    assert decision_probability(Deadline(t0=t0), t0 + extra) == 1.0


def test_next_prob_change(age_based):
    # trivial slot -> next scheduled slot; scheduled slot -> the slot after
    assert next_prob_change(age_based, 1) == 2
    assert next_prob_change(age_based, 2) == 3
    assert next_prob_change(age_based, 11) == 13
    assert next_prob_change(Deadline(t0=5), 2) == 5
    assert next_prob_change(Deadline(t0=5), 5) is None
    assert next_prob_change(ConstantProb(q=0.2), 7) is None


def test_deadline_change_slot_is_min_of_pre_and_t0(age_based):
    # age-based pre-rule: its own change slots until the deadline cuts in
    spec = Deadline(t0=12, pre=age_based)
    assert [next_prob_change(spec, t) for t in (1, 2, 9, 10, 11, 12)] == [2, 3, 10, 11, 12, None]
    assert next_prob_change(Deadline(t0=12, pre=ConstantProb(q=0.5)), 3) == 12
    # a pre-rule that never changes (p = 1) leaves only the deadline
    always = AgeBased(schedule=age_based.schedule, p=1.0)
    assert next_prob_change(Deadline(t0=7, pre=always), 2) == 7


_FAR_SCHEDULES = [Schedule(c, 0) for c in (Fraction(1), Fraction(11, 10), Fraction(10001, 10000), Fraction(2))]
_FAR_AGE_BASED = [AgeBased(schedule=sched, p=p) for sched in _FAR_SCHEDULES for p in (0.0, 0.3, 1.0)]
_FAR_SPEC = st.one_of(
    st.sampled_from([*_FAR_AGE_BASED, ConstantProb(q=0.2)]),
    st.builds(
        Deadline,
        t0=st.integers(min_value=1, max_value=10**5),
        pre=st.sampled_from([ConstantProb(q=0.0), ConstantProb(q=0.25), *_FAR_AGE_BASED]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    spec=_FAR_SPEC,
    t=st.integers(min_value=1, max_value=10**5),
    near=st.sampled_from([None, "schedule", "t0"]),
    offset=st.integers(min_value=-1, max_value=1),
)
def test_next_prob_change_holds_far_out(spec, t, near, offset):
    # run_trials and the run_trial oracle both trust next_prob_change, so it
    # is checked slot by slot here, far past the caps their tests reach
    rule = spec.pre if isinstance(spec, Deadline) else spec
    if near == "schedule" and isinstance(rule, AgeBased):
        t = max(1, rule.schedule.next_nontrivial_after(t - 1) + offset)
    elif near == "t0" and isinstance(spec, Deadline):
        t = max(1, spec.t0 + offset)
    value = decision_probability(spec, t)
    change = next_prob_change(spec, t)
    assert change is None or change > t
    end = t + 500 if change is None else min(change - 1, t + 500)
    assert all(decision_probability(spec, u) == value for u in range(t, end + 1))
    # and no later than the value moves, unless a deadline's t0 cuts in first
    if change is not None and not (isinstance(spec, Deadline) and change == spec.t0):
        assert decision_probability(spec, change) != value


def test_profile_json_parses_every_rule_type():
    data = {
        "players": [
            {"type": "age_based", "c": "11/10", "p": 0.75},
            {"type": "constant_prob", "q": 0.125},
            {"type": "deadline", "t0": 1},
            {"type": "deadline", "t0": 5, "pre": {"type": "quiet"}},
            {"type": "deadline", "t0": 5, "pre": {"type": "fixed_prob", "q": 0.25}},
            {"type": "deadline", "t0": 9, "pre": {"type": "follow_age_based", "c": "3/2", "p": 0.5}},
        ]
    }
    eleven_tenths = Schedule(Fraction(11, 10), 0)
    three_halves = Schedule(Fraction(3, 2), 0)
    assert profile_from_json(data) == [
        AgeBased(schedule=eleven_tenths, p=0.75),
        ConstantProb(q=0.125),
        Deadline(t0=1, pre=ConstantProb(q=0.0)),
        Deadline(t0=5, pre=ConstantProb(q=0.0)),
        Deadline(t0=5, pre=ConstantProb(q=0.25)),
        Deadline(t0=9, pre=AgeBased(schedule=three_halves, p=0.5)),
    ]


def test_profile_json_example():
    spec = spec_from_json({"type": "age_based", "c": "11/10", "p": 0.75})
    assert isinstance(spec, AgeBased)
    assert spec.schedule.c == Fraction(11, 10)
    assert spec.p == 0.75


def test_unknown_protocol_type_rejected():
    with pytest.raises(ValueError):
        spec_from_json({"type": "psychic"})


@pytest.mark.parametrize("query", [decision_probability, next_prob_change])
def test_rule_queries_reject_an_unknown_spec(query):
    with pytest.raises(TypeError, match=r"unknown protocol spec 'psychic'"):
        query("psychic", 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: AgeBased(schedule=Schedule(Fraction(11, 10), 8), p=1.5),
        lambda: AgeBased(schedule=Schedule(Fraction(11, 10), 8), p=float("nan")),
        lambda: Deadline(t0=3, pre=AgeBased(schedule=Schedule(Fraction(11, 10), 8), p=-0.25)),
        lambda: Deadline(t0=3, pre=ConstantProb(q=float("inf"))),
        lambda: ConstantProb(q=-1.0),
        lambda: ConstantProb(q=float("nan")),
        lambda: Deadline(t0=0),
    ],
)
def test_invalid_parameters_rejected_at_construction(build):
    with pytest.raises(ValueError):
        build()

