import time
from fractions import Fraction

import pytest

from contention import AgeBased, Deadline, GameConfig, Schedule, run_trials
from contention.engine import summarize

C = Fraction(11, 10)
P = 0.75
SEED_ALLP = 20260823
SEED_DEVIATOR = 99


@pytest.fixture(scope="session")
def age_based():
    return AgeBased(schedule=Schedule(C, 8), p=P)


@pytest.fixture(scope="session")
def all_p_config(age_based):
    return GameConfig(n=3, profile=(age_based, age_based, age_based), seed=SEED_ALLP, slot_cap=10**6)


@pytest.fixture(scope="session")
def deviator_config(age_based):
    return GameConfig(n=3, profile=(age_based, age_based, Deadline(t0=1)), seed=SEED_DEVIATOR, slot_cap=10**6)


@pytest.fixture(scope="session")
def all_p_run(all_p_config):
    """10^5-trial all-protocol run: (stats, elapsed seconds)."""
    start = time.perf_counter()
    stats = summarize(run_trials(all_p_config, 100_000), 0, all_p_config.slot_cap)
    return stats, time.perf_counter() - start


@pytest.fixture(scope="session")
def deviator_outcomes(deviator_config):
    """10^5-trial persistent-deviator run: (outcomes, elapsed seconds)."""
    start = time.perf_counter()
    outcomes = run_trials(deviator_config, 100_000)
    return outcomes, time.perf_counter() - start
