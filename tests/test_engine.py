from fractions import Fraction

import pytest

from contention.analysis import persistent_distribution, solve_expectations
from contention.engine import (
    GameConfig,
    attempt_uniform,
    empirical_distribution,
    monte_carlo,
    outcomes_to_csv_rows,
    run_trial,
    run_trials,
    summarize,
)
from contention.protocols import AgeBased, ConstantProb, Deadline, Quiet
from contention.schedule import build_schedule

C = Fraction(11, 10)


@pytest.fixture(scope="module")
def age_based():
    return AgeBased(schedule=build_schedule(C, 8), p=0.75)


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
    assert reordered == monte_carlo(config, 2000, focus_player=1)


def test_attempt_uniform_range_and_determinism():
    draws = [attempt_uniform(1, t, p, s) for t in range(4) for p in range(3) for s in range(1, 50)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert draws == [attempt_uniform(1, t, p, s) for t in range(4) for p in range(3) for s in range(1, 50)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.5) < 0.05


def test_deviator_only_succeeds_at_scheduled_slots(age_based):
    config = GameConfig(n=3, profile=(age_based, age_based, Deadline(t0=1)), seed=2, slot_cap=10**5)
    emp = empirical_distribution(config, 5000, focus_player=2)
    support = set(build_schedule(C, 200).s)
    assert set(emp) <= support
    # first-slot success requires both others quiet: (1-p)^2 = 0.0625
    assert emp[2] == pytest.approx(0.0625, abs=0.01)


def test_deviator_matches_exact_pmf_roughly(age_based):
    config = GameConfig(n=3, profile=(age_based, age_based, Deadline(t0=1)), seed=8, slot_cap=10**5)
    emp = empirical_distribution(config, 20_000, focus_player=2)
    dist = persistent_distribution(C, 0.75, 9)
    for s_z, q in zip(dist.support, dist.pmf):
        assert emp.get(s_z, 0.0) == pytest.approx(float(q), abs=0.012)


def test_all_p_mean_within_recurrence_enclosure(age_based):
    config = GameConfig(n=3, profile=(age_based,) * 3, seed=97, slot_cap=10**6)
    stats = monte_carlo(config, 20_000)
    interval = solve_expectations(C, 0.75, "literal", truncation_K=60).y3[0]
    se = stats.ci95_halfwidth / 1.96
    assert interval.contains(stats.mean, slack=3 * se)


def test_quiet_deadline_waits_then_wins_alone():
    # a lone quiet-then-deadline player idles to t0 and succeeds there
    config = GameConfig(n=1, profile=(Deadline(t0=50, pre=Quiet()),), seed=1, slot_cap=100)
    out = run_trial(config, 0)
    assert out.latency == (50,)


def test_constant_prob_profile_runs():
    config = GameConfig(n=3, profile=(ConstantProb(q=1 / 3),) * 3, seed=17, slot_cap=10**5)
    stats = monte_carlo(config, 5000)
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
    stats = monte_carlo(config, 2000)
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
