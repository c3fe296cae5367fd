from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention.analysis import persistent_distribution, solve_expectations
from contention import engine
from contention.engine import (
    GameConfig,
    TrialOutcome,
    attempt_uniform,
    outcomes_to_csv_rows,
    run_trial,
    run_trials,
    summarize,
)
from contention.protocols import AgeBased, ConstantProb, Deadline, decision_probability
from contention.schedule import Schedule

C = Fraction(11, 10)


@pytest.fixture(scope="module")
def age_based():
    return AgeBased(schedule=Schedule(C, 8), p=0.75)


def test_single_player_succeeds_immediately(age_based):
    config = GameConfig(n=1, profile=(age_based,), seed=123, slot_cap=100)
    for trial in range(20):
        out = run_trial(config, trial)
        assert out.latency == (1,)
        assert out.censored == (False,)


def test_one_success_per_slot(age_based):
    config = GameConfig(n=3, profile=(age_based,) * 3, seed=5, slot_cap=10**5)
    for trial in range(200):
        out = run_trial(config, trial)
        finished = [lat for lat in out.latency if lat is not None]
        assert len(finished) == len(set(finished))  # distinct success slots
        assert all(1 <= lat <= config.slot_cap for lat in finished)


def test_trial_reproducible(age_based):
    config = GameConfig(n=3, profile=(age_based,) * 3, seed=777, slot_cap=10**5)
    assert run_trial(config, 11) == run_trial(config, 11)


def test_parallel_runs_bit_identical(age_based):
    # draws depend on (seed, trial, player, slot) only, not on trial order
    config = GameConfig(n=3, profile=(age_based,) * 3, seed=31, slot_cap=10**5)
    backwards = [run_trial(config, idx) for idx in reversed(range(2000))]
    reordered = summarize(backwards[::-1], 1, config.slot_cap)
    assert reordered == summarize(run_trials(config, 2000), 1, config.slot_cap)


def test_attempt_uniform_range_and_determinism():
    draws = [attempt_uniform(1, t, p, s) for t in range(4) for p in range(3) for s in range(1, 50)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert draws == [attempt_uniform(1, t, p, s) for t in range(4) for p in range(3) for s in range(1, 50)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.5) < 0.05


def test_deviator_only_succeeds_at_scheduled_slots(age_based):
    config = GameConfig(n=3, profile=(age_based, age_based, Deadline(t0=1)), seed=2, slot_cap=10**5)
    counts = Counter(out.latency[2] for out in run_trials(config, 5000))
    counts.pop(None, None)  # a censored trial has no support point
    support = set(Schedule(C, 200).s)
    assert set(counts) <= support
    # first-slot success requires both others quiet: (1-p)^2 = 0.0625
    assert counts[2] / 5000 == pytest.approx(0.0625, abs=0.01)


def test_deviator_matches_exact_pmf_roughly(age_based):
    config = GameConfig(n=3, profile=(age_based, age_based, Deadline(t0=1)), seed=8, slot_cap=10**5)
    counts = Counter(out.latency[2] for out in run_trials(config, 20_000))
    dist = persistent_distribution(C, 0.75, 9)
    for s_z, q in zip(dist.support, dist.pmf):
        assert counts[s_z] / 20_000 == pytest.approx(float(q), abs=0.012)


def test_all_p_mean_within_recurrence_enclosure(age_based):
    config = GameConfig(n=3, profile=(age_based,) * 3, seed=97, slot_cap=10**6)
    stats = summarize(run_trials(config, 20_000), 0, config.slot_cap)
    interval = solve_expectations(C, 0.75, "literal", truncation_K=60).y3[0]
    se = stats.ci95_halfwidth / 1.96
    assert interval.contains(stats.mean, slack=3 * se)


def test_quiet_deadline_waits_then_wins_alone():
    # a lone quiet-then-deadline player idles to t0 and succeeds there
    config = GameConfig(n=1, profile=(Deadline(t0=50),), seed=1, slot_cap=100)
    out = run_trial(config, 0)
    assert out.latency == (50,)


def test_constant_prob_profile_runs():
    config = GameConfig(n=3, profile=(ConstantProb(q=1 / 3),) * 3, seed=17, slot_cap=10**5)
    stats = summarize(run_trials(config, 5000), 0, config.slot_cap)
    assert stats.censored_count == 0
    assert 1 < stats.mean < 50


def test_censoring_is_reported(age_based):
    config = GameConfig(n=3, profile=(age_based,) * 3, seed=4, slot_cap=3)
    outcomes = run_trials(config, 50)
    stats = summarize(outcomes, 0, config.slot_cap)
    assert stats.censored_count > 0
    assert all(
        (out.latency[0] is None) == out.censored[0] and out.slots_run <= 3 for out in outcomes
    )


def test_quantiles_monotone(age_based):
    config = GameConfig(n=3, profile=(age_based,) * 3, seed=64, slot_cap=10**5)
    stats = summarize(run_trials(config, 2000), 0, config.slot_cap)
    assert stats.median <= stats.q90 <= stats.q99


def test_csv_rows(age_based):
    config = GameConfig(n=2, profile=(age_based, age_based), seed=3, slot_cap=10**4)
    rows = list(outcomes_to_csv_rows(run_trials(config, 3)))
    assert len(rows) == 6
    assert rows[0][0] == 0 and rows[0][1] == 0


def test_config_validation(age_based):
    with pytest.raises(ValueError):
        GameConfig(n=2, profile=(age_based,), seed=0)
    with pytest.raises(ValueError):
        GameConfig(n=1, profile=(age_based,), seed=0, slot_cap=0)


# --- run_trials against the run_trial oracle -----------------------------------

def _age(c, p):
    return AgeBased(schedule=Schedule(Fraction(c), 8), p=p)


AB = _age(C, 0.75)
DIFFERENTIAL = {
    "all-protocol": ((AB, AB, AB), 10**6),
    "persistent": ((AB, AB, Deadline(t0=1)), 10**6),
    "deadline-quiet": ((AB, AB, Deadline(t0=40, pre=ConstantProb(q=0.0))), 3000),
    "deadline-quiet-beyond-cap": ((AB, AB, Deadline(t0=5000, pre=ConstantProb(q=0.0))), 3000),
    "deadline-fixed": ((AB, AB, Deadline(t0=40, pre=ConstantProb(q=0.3))), 3000),
    "deadline-fixed-beyond-cap": ((AB, Deadline(t0=5000, pre=ConstantProb(q=0.3))), 3000),
    "deadline-follow": ((AB, AB, Deadline(t0=40, pre=_age(C, 0.75))), 3000),
    "deadline-follow-beyond-cap": ((AB, AB, Deadline(t0=5000, pre=_age(C, 0.75))), 3000),
    "constant": ((ConstantProb(q=0.125),) * 3, 10**6),
    "mixed-c": ((AB, _age("3/2", 0.5), ConstantProb(q=0.3)), 10**5),
    "age-based-p1": ((_age(C, 1.0), AB, AB), 3000),
    "single-player": ((AB,), 100),
    "censoring-cap": ((AB, AB, AB), 5),  # at most two successes by slot 5
    "non-dyadic": ((_age(C, 0.3), _age(C, 0.3), ConstantProb(q=1 / 3)), 10**5),
    "six-player-mixed": (
        (
            _age("6/5", 0.75),
            _age(C, 0.3),
            _age("3/2", 0.5),
            ConstantProb(q=1 / 3),
            Deadline(t0=40, pre=ConstantProb(q=0.3)),
            Deadline(t0=120, pre=_age(C, 0.75)),
        ),
        10**6,
    ),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_run_trials_matches_run_trial(name):
    profile, cap = DIFFERENTIAL[name]
    config = GameConfig(n=len(profile), profile=profile, seed=2024, slot_cap=cap)
    assert run_trials(config, 300) == [run_trial(config, idx) for idx in range(300)]


_PROB = st.sampled_from([0.0, 0.125, 0.5, 0.75, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
_C = st.sampled_from(["1", "11/10", "3/2", "2"])
_SPEC = st.one_of(
    st.builds(_age, _C, _PROB),
    st.builds(ConstantProb, _PROB),
    st.builds(
        Deadline,
        st.integers(min_value=1, max_value=60),
        st.one_of(st.just(ConstantProb(q=0.0)), st.builds(ConstantProb, _PROB), st.builds(_age, _C, _PROB)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    profile=st.lists(_SPEC, min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**64),
    slot_cap=st.integers(min_value=1, max_value=400),
    trials=st.integers(min_value=1, max_value=12),
)
def test_run_trials_matches_run_trial_on_random_profiles(profile, seed, slot_cap, trials):
    config = GameConfig(n=len(profile), profile=tuple(profile), seed=seed, slot_cap=slot_cap)
    assert run_trials(config, trials) == [run_trial(config, idx) for idx in range(trials)]


def _slot_by_slot(config, trial_index):
    # run_trial without its skip rule: every slot from 1 to the cap, and a
    # draw for every probability strictly between 0 and 1
    pending, latency = list(range(config.n)), [None] * config.n
    for t in range(1, config.slot_cap + 1):
        transmitters = []
        for i in pending:
            pr = decision_probability(config.profile[i], t)
            if pr == 1.0 or (0.0 < pr < 1.0 and attempt_uniform(config.seed, trial_index, i, t) < pr):
                transmitters.append(i)
        if len(transmitters) == 1:
            latency[transmitters[0]] = t
            pending.remove(transmitters[0])
            if not pending:
                return TrialOutcome(latency=tuple(latency), slots_run=t)
    return TrialOutcome(latency=tuple(latency), slots_run=config.slot_cap)


@settings(max_examples=150, deadline=None)
@given(
    profile=st.lists(_SPEC, min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**64),
    slot_cap=st.integers(min_value=1, max_value=400),
    trials=st.integers(min_value=1, max_value=12),
)
def test_run_trial_matches_slot_by_slot_loop(profile, seed, slot_cap, trials):
    config = GameConfig(n=len(profile), profile=tuple(profile), seed=seed, slot_cap=slot_cap)
    assert [run_trial(config, idx) for idx in range(trials)] == [
        _slot_by_slot(config, idx) for idx in range(trials)
    ]


def _four_mix_uniform(seed, trial_index, player, slot):
    # the hash written out: seed, trial, player and slot mixed in one after another
    mask, golden = (1 << 64) - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z &= mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    z = mix(seed)
    for part in (trial_index, player, slot):
        z = mix(z ^ ((part * golden) & mask))
    return (z >> 11) * (1.0 / (1 << 53))


def test_split_key_reproduces_attempt_uniform():
    cases = [(7, 0, 0, 2), (7, 3999, 2, 13), (2**64 + 5, 10**6, 1, 10**6), (-1, 1, 2, 3)]
    cases += [(s, t, p, slot) for s in (0, 31) for t in (0, 5) for p in range(3) for slot in (1, 2, 77)]
    for seed, trial, player, slot in cases:
        assert attempt_uniform(seed, trial, player, slot) == _four_mix_uniform(seed, trial, player, slot)
    # values recorded before the hash was split into per-player keys
    assert [attempt_uniform(*case) for case in cases[:4]] == [
        0.5297901411194159, 0.5632193649605226, 0.3435247918539034, 0.2884533026485421,
    ]


@pytest.mark.parametrize("p", [0.0, 2.0**-1074, 0.3, 0.5, 0.75, 1 - 2.0**-53, 1.0])
def test_threshold_matches_float_draw(p):
    threshold = engine._threshold(p)
    for z in (threshold - 1, threshold, threshold + 1):
        if 0 <= z < 2**64:
            assert (z < threshold) == ((z >> 11) * 2.0**-53 < p)


def test_twenty_players_fill_only_the_masks_they_visit(monkeypatch):
    config = GameConfig(n=20, profile=(ConstantProb(q=0.05),) * 20, seed=3, slot_cap=10**4)
    action, filled = engine._action, []

    def counted(probs, mask):
        filled.append(mask)
        return action(probs, mask)

    monkeypatch.setattr(engine, "_action", counted)
    outcomes = run_trials(config, 4)
    assert outcomes == [run_trial(config, idx) for idx in range(4)]
    # one constant segment: the masks visited are the pending sets between successes
    visited = set()
    for out in outcomes:
        mask = (1 << 20) - 1
        visited.add(mask)
        for _, player in sorted((lat, i) for i, lat in enumerate(out.latency) if lat is not None):
            mask ^= 1 << player
            visited.add(mask)
    assert len(filled) == len(set(filled))
    assert set(filled) <= visited
