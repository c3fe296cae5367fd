"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two 10^5-trial
Monte Carlo runs are shared session fixtures (see conftest.py).
"""

import random
import time
from fractions import Fraction

import pytest

from contention.analysis import (
    bound_report,
    deadline_comparison,
    feasibility,
    min_truncation_k1,
    persistent_distribution,
    solve_expectations,
)
from contention.engine import run_trial
from contention.schedule import Schedule, check_domination

C = Fraction(11, 10)
P = 0.75


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_criterion_1_feasibility_reproduction():
    feasibility(C, P)  # warm-up outside the timed call
    report, elapsed = _timed(feasibility, C, P)
    assert report.thresholds["inv_1mp"] == Fraction(4)
    assert report.thresholds["inv_delta"] == Fraction(8, 5)
    assert report.thresholds["inv_beta"] == Fraction(64, 55)
    assert report.thresholds["persist_lb"] == Fraction(16, 15)
    assert report.feasible
    assert elapsed < 1e-3
    print(f"\nPASS criterion 1: feasibility thresholds {{4, 8/5, 64/55, 16/15}} exact, "
          f"feasible=True ({elapsed * 1e6:.0f} us)")


def test_criterion_2_delta_reproduction():
    bound_report(C, P, k1_prime=2, k_max=0)
    report, elapsed = _timed(bound_report, C, P, k1_prime=2, k_max=0)
    value = report.delta_bound
    assert 755.0 <= value <= 756.0
    assert elapsed < 1e-3
    print(f"\nPASS criterion 2: delta_bound at (11/10, 0.75), k1' = 2, is {value:.4f} in [755, 756] "
          f"({elapsed * 1e6:.0f} us)")


def test_criterion_3_latency_bound_reproduction():
    bound_report(C, P, k1_prime=2, k_max=0)
    report, elapsed = _timed(bound_report, C, P, k1_prime=2, k_max=0)
    value = report.y30_upper
    assert 2700 <= value <= 2759
    assert elapsed < 1e-3
    print(f"\nPASS criterion 3: y30_upper at (11/10, 0.75), k1' = 2, is {value:.4f} <= 2759 "
          f"({elapsed * 1e6:.0f} us)")


def test_criterion_4_minimum_truncation():
    assert min_truncation_k1(C, P) == 2
    print("\nPASS criterion 4: min_truncation_k1(11/10, 0.75) = 2")


def test_criterion_5_domination_property_suite():
    rng = random.Random(0xD07)
    grid = [1 + Fraction(i, 64) for i in range(65)]  # 65 rationals spanning [1, 2]
    schedules = {c: Schedule(c, 61) for c in grid}
    start = time.perf_counter()
    violations = 0
    for _ in range(10_000):
        c = grid[rng.randrange(len(grid))]
        k = rng.randrange(0, 40)
        k_prime = rng.randrange(k + 1, 41)
        j = rng.randrange(0, 21)
        if not check_domination(schedules[c], k, k_prime, j).holds:
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0
    print(f"\nPASS criterion 5: 10^4 sampled domination tuples, 0 violations ({elapsed:.2f} s)")


def test_criterion_6_persistent_divergence_certificate():
    start = time.perf_counter()
    dist = persistent_distribution(C, P, 200)
    partials = dist.partial_expectations
    elapsed = time.perf_counter() - start
    assert dist.divergent and dist.growth_rate == pytest.approx(1.03125, rel=1e-12)
    assert all(b > a for a, b in zip(partials, partials[1:]))
    assert partials[200] > 2759  # exact rational comparison
    assert elapsed < 1.0
    print(f"\nPASS criterion 6: c*gamma = {dist.growth_rate} > 1, partial expectations "
          f"strictly increasing, partial(200) = {float(partials[200]):.1f} > 2759 ({elapsed:.2f} s)")


def test_criterion_7_simulator_vs_exact_pmf(deviator_outcomes):
    outcomes, elapsed = deviator_outcomes
    trials = len(outcomes)
    counts = {}
    for out in outcomes:
        lat = out.latency[2]
        if lat is not None:
            counts[lat] = counts.get(lat, 0) + 1
    dist = persistent_distribution(C, P, 19)
    tv = 0.5 * sum(
        abs(counts.get(s_z, 0) / trials - float(q)) for s_z, q in zip(dist.support, dist.pmf)
    )
    assert tv < 0.02
    assert elapsed < 60.0
    print(f"\nPASS criterion 7: deviator TV distance over first 20 support points "
          f"= {tv:.4f} < 0.02 ({elapsed:.1f} s)")


def test_criterion_8_all_protocol_consistency(all_p_run):
    stats, elapsed = all_p_run
    interval = solve_expectations(C, P, "literal", truncation_K=60).y3[0]
    se = stats.ci95_halfwidth / 1.96
    assert stats.mean < 2759
    assert interval["lower"] - 3 * se <= stats.mean <= interval["upper"] + 3 * se
    assert stats.censored_count / stats.trials < 1e-3
    assert elapsed < 120.0
    print(f"\nPASS criterion 8: all-P mean {stats.mean:.2f} < 2759, inside "
          f"[{interval['lower']:.2f}, {interval['upper']:.2f}] +/- 3 SE ({3 * se:.2f}), "
          f"censored {stats.censored_count}/{stats.trials} ({elapsed:.1f} s)")


def test_criterion_9_deadline_comparison_evidence(all_p_run):
    stats, _ = all_p_run
    expected = {1: (0, 1.0), 5: (2, 0.390625), 14: (6, 0.625**6)}
    for t0, (xi, pr) in expected.items():
        report = deadline_comparison(C, P, t0, z_grid=(50, 100, 200, 400))
        assert report.xi == xi
        assert report.prE_lower == pytest.approx(pr, rel=1e-12)
        assert report.diverges
        assert max(row["bound"] for row in report.truncated_lower_bounds) > stats.mean
    print(f"\nPASS criterion 9: xi/prE_lower match for t0 in {{1, 5, 14}}, divergence "
          f"certified, truncated lower bounds exceed the all-P mean {stats.mean:.2f}")


def test_criterion_10_trial_order_determinism(all_p_config, all_p_outcomes):
    # Results depend on trial indices, never on the order trials run in:
    # the 10^5 trials, played one by one in four chunks taken last-to-first,
    # must give the in-order run's outcomes bit for bit.
    in_order, _ = all_p_outcomes
    chunk = 25_000
    outcomes = []
    for start in reversed(range(0, 100_000, chunk)):
        outcomes[:0] = [run_trial(all_p_config, idx) for idx in range(start, start + chunk)]
    assert list(in_order) == outcomes
    print("\nPASS criterion 10: trial outcomes identical with chunks run last-to-first")
