from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.protocols import (
    AgeBased,
    ConstantProb,
    Deadline,
    FixedProb,
    FollowAgeBased,
    Quiet,
    decision_probability,
    next_prob_change,
    profile_from_json,
    profile_to_json,
    spec_from_json,
)
from contention.schedule import build_schedule


@pytest.fixture(scope="module")
def age_based():
    return AgeBased(schedule=build_schedule(Fraction(11, 10), 8), p=0.75)


def test_age_based_trivial_slot(age_based):
    assert decision_probability(age_based, 3) == 1.0


def test_age_based_nontrivial_slot(age_based):
    assert decision_probability(age_based, 2) == 0.75


def test_persistent_always_transmits():
    assert decision_probability(Deadline(t0=1), 1) == 1.0


def test_deadline_quiet_before_deadline():
    spec = Deadline(t0=5, pre=Quiet())
    assert decision_probability(spec, 4) == 0.0
    assert decision_probability(spec, 5) == 1.0


def test_deadline_fixed_prob_pre_rule():
    spec = Deadline(t0=4, pre=FixedProb(q=0.5))
    assert decision_probability(spec, 2) == 0.5


def test_deadline_follow_age_based_pre_rule(age_based):
    spec = Deadline(t0=10, pre=FollowAgeBased(schedule=age_based.schedule, p=0.75))
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


def test_profile_json_round_trip(age_based):
    profile = [age_based, Deadline(t0=5, pre=FixedProb(q=0.25)), ConstantProb(q=1 / 3)]
    data = profile_to_json(profile)
    again = profile_from_json(data)
    assert again == profile


def test_profile_json_example():
    spec = spec_from_json({"type": "age_based", "c": "11/10", "p": 0.75})
    assert isinstance(spec, AgeBased)
    assert spec.schedule.c == Fraction(11, 10)
    assert spec.p == 0.75


def test_unknown_protocol_type_rejected():
    with pytest.raises(ValueError):
        spec_from_json({"type": "psychic"})


@pytest.mark.parametrize(
    "build",
    [
        lambda: AgeBased(schedule=build_schedule(Fraction(11, 10), 8), p=1.5),
        lambda: AgeBased(schedule=build_schedule(Fraction(11, 10), 8), p=float("nan")),
        lambda: FollowAgeBased(schedule=build_schedule(Fraction(11, 10), 8), p=-0.25),
        lambda: FixedProb(q=float("inf")),
        lambda: ConstantProb(q=-1.0),
        lambda: ConstantProb(q=float("nan")),
        lambda: Deadline(t0=0),
    ],
)
def test_invalid_parameters_rejected_at_construction(build):
    with pytest.raises(ValueError):
        build()

