from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contention import analysis
from contention.analysis import (
    _lone_series_numerators,
    bound_report,
    deadline_comparison,
    delta_bound,
    derive_constants,
    feasibility,
    min_truncation_k1,
    persistent_distribution,
    solve_expectations,
    y1_upper,
    y30_upper,
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
    assert y1_upper(C, P, 0) == pytest.approx(22.7586206896, rel=1e-9)
    assert y1_upper(C, P, 1) == pytest.approx(22.7586206896 * 4.4, rel=1e-9)


def test_y1_upper_divergent():
    with pytest.raises(ValueError, match="diverges"):
        y1_upper(Fraction(13, 10), 0.2, 0)  # c(1-p) = 1.04


def test_y1_upper_c1_guard():
    with pytest.raises(ValueError, match="c = 1"):
        y1_upper(Fraction(1), P, 0)


def test_min_truncation_k1():
    assert min_truncation_k1(C, P) == 2
    # k=1 fails the contraction inequality: 0.625 * 2.1 = 1.3125 >= 1
    delta = derive_constants(P).delta
    assert delta * (C + 1) >= 1


def test_bound_report_rejects_negative_table_horizon():
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        bound_report(C, P, k_max=-1)
    assert bound_report(C, P, k_max=0).y1k_upper == [(0, y1_upper(C, P, 0))]


@pytest.mark.parametrize("p", [0, 1, Fraction(-1, 2)])
def test_series_bounds_reject_p_outside_open_unit_interval(p):
    with pytest.raises(ValueError, match=r"p must be in \(0, 1\)"):
        delta_bound(Fraction(1, 2), p, 2)
    with pytest.raises(ValueError, match=r"p must be in \(0, 1\)"):
        y1_upper(Fraction(1, 2), p, 0)


def test_min_truncation_no_finite_value():
    with pytest.raises(ValueError, match="no finite truncation"):
        min_truncation_k1(Fraction(6, 5), 0.05)  # delta*c > 1


def test_delta_bound_reference_value():
    assert 755.0 <= delta_bound(C, P, 2) <= 756.0


def test_delta_bound_too_small_truncation():
    with pytest.raises(ValueError, match="too small"):
        delta_bound(C, P, 1)


@pytest.mark.parametrize("k1", [700, 100_000])
def test_delta_bound_past_the_float_range_is_named(k1):
    with pytest.raises(ValueError, match=f"delta_bound at index {k1} is too large for a float"):
        delta_bound(C, P, k1)


def test_y1_and_y30_upper_past_the_float_range_are_named():
    with pytest.raises(ValueError, match="y1_upper at index 2000 is too large for a float"):
        y1_upper(C, P, 2000)
    # delta_bound still fits at k1' = 699; the bound built on it does not
    with pytest.raises(ValueError, match="y30_upper at index 699 is too large for a float"):
        y30_upper(C, P, 699)


def test_bounds_near_the_float_range_keep_their_exact_value():
    assert delta_bound(C, P, 600) == 4.26754525888928e264
    assert y30_upper(C, P, 698) == 1.7421463357065432e308
    assert y1_upper(C, P, 476) == float(Fraction(660, 29) * Fraction(22, 5) ** 476)  # the last k that fits


def test_delta_bound_larger_truncation_regression():
    # larger truncation tightens the bound; value frozen from exact evaluation
    assert delta_bound(C, P, 3) == pytest.approx(570.8645304357467, rel=1e-12)
    assert delta_bound(C, P, 3) < delta_bound(C, P, 2)


def test_y30_upper_reference_value():
    value = y30_upper(C, P, 2)
    assert 2700 <= value <= 2759
    assert value == pytest.approx(2756.5626009852213, rel=1e-12)


def test_y30_upper_larger_truncation_regression():
    assert y30_upper(C, P, 3) == pytest.approx(2091.6837381401165, rel=1e-12)


def test_y30_upper_divergent():
    with pytest.raises(ValueError, match="diverges"):
        y30_upper(Fraction(6, 5), 0.05, 2)


def test_bound_report_consistency():
    report = bound_report(C, P)
    assert report.k1_min == 2 and report.k1_used == 2
    assert report.y30_upper >= report.y1k_upper[0][1]
    ratios = [b / a for (_, a), (_, b) in zip(report.y1k_upper, report.y1k_upper[1:])]
    assert all(r == pytest.approx(4.4, rel=1e-9) for r in ratios)


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
    assert table.y1[0].lower <= oracle <= table.y1[0].upper
    assert table.y1[0].width < 1e-9
    for k in (1, 2, 5):
        assert table.y1[k].contains(lone_player_series_oracle(C, Fraction(3, 4), k), slack=1e-9)


def _lone_series_interval_fraction_loop(sched, c, p, k, terms=80):
    # the term-by-term Fraction sum the integer dot product replaced
    sched.extend_to(k + terms)
    s_prev = sched.s[k - 1] if k >= 1 else 0
    q = 1 - p
    partial = Fraction(0)
    weight = p
    for ell in range(k, k + terms + 1):
        partial += (sched.s[ell] - s_prev) * weight
        weight *= q
    r = c * q
    tail = (2 * p * c ** (k + 1) / (c - 1)) * r ** (terms + 1) / (1 - r)
    return partial, partial + tail


@pytest.mark.parametrize(
    "c, p",
    [(Fraction(11, 10), Fraction(3, 4)), (Fraction(10001, 10000), Fraction(127, 128)),
     (Fraction(11, 10), Fraction(1, 10))],
)
def test_lone_series_interval_matches_fraction_loop(c, p):
    sched = Schedule(c, 8)
    nums, den = _lone_series_numerators(sched, c, p, 400)
    for k in (0, 1, 7, 60, 400):
        lo, hi = nums[k]
        assert (Fraction(lo, den), Fraction(hi, den)) == _lone_series_interval_fraction_loop(sched, c, p, k)


def _solve_expectations_fraction_loop(c, p, semantics, K):
    # the Fraction interval recurrence the integer numerators replaced
    sched = Schedule(c, K)
    if semantics == "literal":
        e1 = [(Fraction(1), Fraction(1))] * (K + 1)
    else:
        e1 = [_lone_series_interval_fraction_loop(sched, c, p, k) for k in range(K + 1)]
    consts = derive_constants(p)
    k1 = min_truncation_k1(c, p)
    grow = c ** (K - 1) * (c + 1)
    e2 = [None] * (K + 1)
    e3 = [None] * (K + 1)
    e2[K] = (Fraction(0), Fraction(delta_bound(c, p, k1)) * grow)
    e3[K] = (Fraction(0), Fraction(y30_upper(c, p, k1)) * grow)
    a2 = p * (1 - p)
    a3 = 2 * p * (1 - p) ** 2
    for i in range(K - 1, -1, -1):
        x_i = sched.x[i]
        e2[i] = tuple(x_i + a2 * u + consts.delta * v for u, v in zip(e1[i + 1], e2[i + 1]))
        e3[i] = tuple(x_i + a3 * u + consts.beta * v for u, v in zip(e2[i + 1], e3[i + 1]))
    return [[(float(lo), float(hi)) for lo, hi in rows] for rows in (e1, e2, e3)]


def _endpoints(table):
    return [[(iv.lower, iv.upper) for iv in rows] for rows in (table.y1, table.y2, table.y3)]


@pytest.mark.parametrize("semantics", ["literal", "paper-series"])
@pytest.mark.parametrize(
    "c, p",
    [(Fraction(11, 10), Fraction(3, 4)), (Fraction(10001, 10000), Fraction(127, 128)),
     (Fraction(21, 20), Fraction(1, 10))],
)
@pytest.mark.parametrize("K", [1, 2, 60, 400])
def test_solve_expectations_matches_fraction_recurrence(c, p, semantics, K):
    table = solve_expectations(c, p, semantics, truncation_K=K)
    assert _endpoints(table) == _solve_expectations_fraction_loop(c, p, semantics, K)


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
@given(feasible_points(), st.sampled_from(["literal", "paper-series"]), st.integers(1, 12))
def test_solve_expectations_matches_fraction_recurrence_property(point, semantics, K):
    c, p = point
    table = solve_expectations(c, p, semantics, truncation_K=K)
    assert _endpoints(table) == _solve_expectations_fraction_loop(c, p, semantics, K)


def test_literal_lone_player_is_one():
    table = solve_expectations(C, P, "literal", truncation_K=20)
    assert all(iv.lower == iv.upper == 1.0 for iv in table.y1)


def test_enclosures_shrink_with_truncation():
    widths = [
        solve_expectations(C, P, "literal", truncation_K=K).y3[0].width for K in (20, 60, 150, 300)
    ]
    assert widths == sorted(widths, reverse=True)
    assert widths[-1] < 1e-3


def test_literal_enclosure_tight_reference():
    iv = solve_expectations(C, P, "literal", truncation_K=300).y3[0]
    assert iv.lower == pytest.approx(45.0398, abs=0.001)
    assert iv.width < 1e-3
    assert iv.upper < 2759


def test_paper_series_dominates_literal():
    lit = solve_expectations(C, P, "literal", truncation_K=300)
    pap = solve_expectations(C, P, "paper-series", truncation_K=300)
    for k in range(0, 301, 50):
        assert pap.y3[k].lower >= lit.y3[k].lower - 1e-9


def test_expectation_midpoints_satisfy_domination():
    table = solve_expectations(C, P, "paper-series", truncation_K=200)
    c = float(C)

    def mid(iv):
        return (iv.lower + iv.upper) / 2

    for rows in (table.y2, table.y3):
        for k, k_prime in [(0, 1), (0, 5), (2, 7), (3, 20)]:
            lo = c ** (k_prime - k - 1) * (c - 1) * mid(rows[k])
            hi = c ** (k_prime - k - 1) * (c + 1) * mid(rows[k])
            slack = rows[k].width + rows[k_prime].width + 1e-9
            assert lo - slack <= mid(rows[k_prime]) <= hi + slack


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
        (z, float(factor * dist.partial_expectations[z] - 25)) for z in z_grid
    ]


def test_deadline_comparison_examples():
    r1 = deadline_comparison(C, P, 1)
    assert r1.xi == 0 and r1.prE_lower == 1.0 and r1.diverges
    r5 = deadline_comparison(C, P, 5)
    assert r5.xi == 2 and r5.prE_lower == pytest.approx(0.390625)
    r14 = deadline_comparison(C, P, 14)
    assert r14.xi == 6 and r14.prE_lower == pytest.approx(0.625**6)


def test_deadline_lower_bounds_unbounded_in_zmax():
    report = deadline_comparison(C, P, 5, z_grid=(50, 100, 200, 400, 800))
    bounds = [b for _, b in report.truncated_lower_bounds]
    assert bounds == sorted(bounds)
    assert bounds[-1] > 10**8


@pytest.mark.parametrize("z_grid", [(), (5, -1), (-3,)])
def test_deadline_comparison_rejects_bad_z_grid(z_grid):
    with pytest.raises(ValueError, match="z_grid"):
        deadline_comparison(C, P, 5, z_grid=z_grid)
