import csv
import io
import math
from array import array
from collections import Counter
from fractions import Fraction
from itertools import compress
from unittest import mock

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
    assert list(run_trials(config, 2000)) == backwards[::-1]


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
    stats = summarize(run_trials(config, 20_000), 0)
    interval = solve_expectations(C, 0.75, "literal", truncation_K=60).y3[0]
    se = stats.ci95_halfwidth / 1.96
    assert interval["lower"] - 3 * se <= stats.mean <= interval["upper"] + 3 * se


def test_quiet_deadline_waits_then_wins_alone():
    # a lone quiet-then-deadline player idles to t0 and succeeds there
    config = GameConfig(n=1, profile=(Deadline(t0=50),), seed=1, slot_cap=100)
    out = run_trial(config, 0)
    assert out.latency == (50,)


def test_constant_prob_profile_runs():
    config = GameConfig(n=3, profile=(ConstantProb(q=1 / 3),) * 3, seed=17, slot_cap=10**5)
    stats = summarize(run_trials(config, 5000), 0)
    assert stats.censored_count == 0
    assert 1 < stats.mean < 50


def test_censoring_is_reported(age_based):
    config = GameConfig(n=3, profile=(age_based,) * 3, seed=4, slot_cap=3)
    outcomes = run_trials(config, 50)
    stats = summarize(outcomes, 0)
    assert stats.censored_count > 0
    assert all(
        (out.latency[0] is None) == out.censored[0] and out.slots_run <= 3 for out in outcomes
    )
    # a censored trial runs to the cap, in run_trials and in the oracle alike
    for out in [*outcomes, *(run_trial(config, idx) for idx in range(50))]:
        if any(out.censored):
            assert out.slots_run == config.slot_cap


def test_quantiles_monotone(age_based):
    config = GameConfig(n=3, profile=(age_based,) * 3, seed=64, slot_cap=10**5)
    stats = summarize(run_trials(config, 2000), 0)
    assert stats.median <= stats.q90 <= stats.q99


def _csv_writer_text(expected):
    """csv.writer's text for the rows of a list of trial outcomes: (trial, player, latency or "", censored)."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    for idx, outcome in enumerate(expected):
        for player, lat in enumerate(outcome.latency):
            writer.writerow((idx, player, "" if lat is None else lat, int(lat is None)))
    return out.getvalue()


def _assert_csv_rows_match(outcomes, expected):
    """outcomes_to_csv_rows gives one line per row, and csv.writer's bytes for run_trial's outcomes."""
    lines = list(outcomes_to_csv_rows(outcomes))
    assert len(lines) == len(expected) * len(expected[0].latency)
    assert all(line.endswith("\r\n") and line.count("\r\n") == 1 for line in lines)
    assert "".join(lines) == _csv_writer_text(expected)
    return lines


def _matches_run_trial(config, trials):
    """run_trials' outcomes, after checking each trial's against the run_trial oracle."""
    outcomes = run_trials(config, trials)
    assert list(outcomes) == [run_trial(config, idx) for idx in range(trials)]
    return outcomes


def _csv_rows_match_run_trial(config, trials):
    outcomes = _matches_run_trial(config, trials)
    return _assert_csv_rows_match(outcomes, list(outcomes))


def test_csv_rows(age_based):
    config = GameConfig(n=2, profile=(age_based, age_based), seed=3, slot_cap=10**4)
    lines = _csv_rows_match_run_trial(config, 3)
    assert lines[0].startswith("0,0,") and lines[1].startswith("0,1,")
    censoring = GameConfig(n=3, profile=(age_based,) * 3, seed=4, slot_cap=3)  # most trials censored
    lines = _csv_rows_match_run_trial(censoring, 50)
    assert any(line.endswith(",,1\r\n") for line in lines) and any(line.endswith(",0\r\n") for line in lines)


_SLOT = st.one_of(st.just(0), st.integers(min_value=1, max_value=2**64 - 1))  # 0: censored
_WIDE_SLOT = st.one_of(_SLOT, st.integers(min_value=2**64, max_value=2**80))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),  # players 10 and 11 have two-digit indices
    trials=st.integers(min_value=1, max_value=30),
    wide=st.booleans(),
    chunk=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
def test_csv_rows_of_arbitrary_columns(n, trials, wide, chunk, data):
    # columns built directly, censored zeros anywhere: the ",0,0\r\n" rewrite must touch censored rows only
    column = st.lists(_WIDE_SLOT if wide else _SLOT, min_size=trials, max_size=trials)
    columns = [data.draw(column) if wide else array("Q", data.draw(column)) for _ in range(n)]
    outcomes = engine.Outcomes(columns, 2**80)
    with mock.patch.object(engine, "_CSV_CHUNK", chunk):  # chunk edges fall inside the trials
        _assert_csv_rows_match(outcomes, list(outcomes))


def _is_rounded_root(root: float, value: Fraction) -> bool:
    """Whether root is sqrt(value) rounded to the nearest float: value lies
    between the squares of root's midpoints with its neighbouring floats."""
    low = (Fraction(math.nextafter(root, 0.0)) + Fraction(root)) / 2 if root else Fraction(0)
    high = (Fraction(root) + Fraction(math.nextafter(root, math.inf))) / 2
    return low * low <= value <= high * high


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=2**300) | st.integers(min_value=0, max_value=100),
    den=st.integers(min_value=1, max_value=2**300) | st.integers(min_value=1, max_value=100),
)
def test_sqrt_ratio_is_correctly_rounded(num, den):
    assert _is_rounded_root(engine._sqrt_ratio(num, den), Fraction(num, den))


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=10**18) | st.integers(min_value=0, max_value=50), min_size=1),
    cap=st.integers(min_value=10**18, max_value=2**64 - 1),
)
def test_summarize_matches_exact_variance(values, cap):
    # a 0 is a trial censored at the cap
    stats = summarize(engine.Outcomes([array("Q", values)], cap), 0)
    counted = [value or cap for value in values]
    n = len(counted)
    mean = Fraction(sum(counted), n)
    assert stats.mean == float(mean) and stats.censored_count == values.count(0)
    if n == 1:
        assert stats.ci95_halfwidth == 0.0
        return
    variance = sum((value - mean) ** 2 for value in counted) / (n - 1)
    root = engine._sqrt_ratio(variance.numerator, variance.denominator)
    assert _is_rounded_root(root, variance)
    assert stats.ci95_halfwidth == 1.96 * root / math.sqrt(n)


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
    # both deadline players certain to transmit from slot 14 to the cap: about
    # half the trials still have both pending there and are censored at once
    "two-deadlines-stuck": (
        (AB, Deadline(t0=5, pre=ConstantProb(q=0.3)), Deadline(t0=14, pre=_age(C, 0.75)), ConstantProb(q=0.2)),
        10**6,
    ),
    # two players certain to transmit from slot 1 to the cap: every lane is
    # censored at slot 1, and the lanes are packed anew down to none
    "stuck-from-slot-1": ((Deadline(t0=1), Deadline(t0=1), AB), 10**6),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_run_trials_matches_run_trial(name):
    profile, cap = DIFFERENTIAL[name]
    config = GameConfig(n=len(profile), profile=profile, seed=2024, slot_cap=cap)
    _matches_run_trial(config, 300)


def test_lanes_censored_at_slot_1_build_one_segment(monkeypatch):
    profile, cap = DIFFERENTIAL["stuck-from-slot-1"]
    config = GameConfig(n=len(profile), profile=profile, seed=2024, slot_cap=cap)
    segment, built = engine._segment, []

    def recorded(profile, t, cap):
        built.append(t)
        return segment(profile, t, cap)

    monkeypatch.setattr(engine, "_segment", recorded)
    trials = engine._BLOCK + 1  # a full block and a one-lane block
    _matches_run_trial(config, trials)
    assert built == [1]


@pytest.mark.parametrize("name", ["all-protocol", "persistent", "constant"])
def test_packing_does_not_change_outcomes(name):
    # which trials share a packed int depends on the trial count; the outcomes must not
    profile, cap = DIFFERENTIAL[name]
    config = GameConfig(n=len(profile), profile=profile, seed=99, slot_cap=cap)
    everything = run_trials(config, 2000)
    # widths around the repack point, half a block; a second block of one lane or of half a block; all but one trial
    for k in (1, 2, 511, 512, 513, engine._BLOCK + 1, engine._BLOCK + 512, 1999):
        assert run_trials(config, k).columns == [column[:k] for column in everything.columns]


# slots at and past 2^63, 2^64 and 2^128, which a deadline's skip reaches at once:
# past the low word of a lane and past what a signed 64-bit column holds
@pytest.mark.parametrize("t0", [2**62, 2**63 + 5, 2**70, 2**130])
@pytest.mark.parametrize(
    "profile",
    [
        lambda t0: (Deadline(t0=t0), ConstantProb(q=0.5)),
        lambda t0: (ConstantProb(q=0.5), Deadline(t0=t0 + 2), Deadline(t0=t0)),
        lambda t0: (Deadline(t0=t0), Deadline(t0=t0), ConstantProb(q=0.5)),  # censored to the cap
    ],
    ids=["one-deadline", "two-deadlines", "stuck-deadlines"],
)
def test_huge_slots_round_trip(t0, profile):
    config = GameConfig(n=len(profile(t0)), profile=profile(t0), seed=6, slot_cap=2 * t0)
    outcomes = _matches_run_trial(config, 100)
    with mock.patch.object(engine, "_CSV_CHUNK", 7):  # chunks of 7 trials' lines: 100 trials end in a short one
        _assert_csv_rows_match(outcomes, list(outcomes))


def test_slots_2_64_apart_draw_apart():
    # the scheduled slots 2 + 2^41, 2 + 2^41 + 2^81 and 2 + 2^41 + 2^81 + 2^121 are equal mod 2^64:
    # hashing only a slot's low word would give them one draw (170 of these 400 trials all pending)
    spec = AgeBased(schedule=Schedule(Fraction(2**40), 0), p=0.5)
    config = GameConfig(n=3, profile=(spec,) * 3, seed=1, slot_cap=2**130)
    trials = 400
    outcomes = _matches_run_trial(config, trials)
    scheduled, slot = 0, spec.schedule.next_nontrivial_after(0)
    while slot <= config.slot_cap:
        scheduled, slot = scheduled + 1, spec.schedule.next_nontrivial_after(slot)
    assert scheduled == 4
    # all three transmit at every other slot; at a scheduled one exactly one of three does with probability 3/8
    p = Fraction(5, 8) ** scheduled
    all_pending = sum(out.latency == (None,) * 3 for out in outcomes)
    assert abs(all_pending - trials * p) <= 4 * math.sqrt(trials * p * (1 - p))
    for t in (1, 2**41 + 2, 2**64 - 1):
        assert attempt_uniform(1, 0, 0, t) != attempt_uniform(1, 0, 0, t + 2**64)


def test_play_across_a_multiple_of_2_64():
    # three drawers from slot 2^64 - 3: a play stops at 2^64 - 1, past which the keys take the slot's high word
    start, end, width, n = 2**64 - 3, 2**64 + 60, 16, 3
    seed_key = engine._mix64(9)
    columns = [[0] * width for _ in range(n)]
    lanes = engine._Lanes(seed_key, range(width), columns)
    limits = (engine._threshold(0.5),) * n
    t = start
    while lanes.live and t <= end:
        t = lanes.play(t, end, limits, (), tuple(range(n)))
    lanes.flush()
    for trial in range(width):  # each lane against the scalar draws
        keys, pending, slots = engine._player_keys(seed_key, trial, n), list(range(n)), [0] * n
        for slot in range(start, end + 1):
            sent = [i for i in pending if engine._keyed_uniform(keys[i], slot) < 0.5]
            if len(sent) == 1:
                slots[sent[0]] = slot
                pending.remove(sent[0])
        assert not pending and [column[trial] for column in columns] == slots
    slots = [slot for column in columns for slot in column]
    assert min(slots) < 2**64 <= max(slots)


def test_draws_past_2_64_match_run_trial():
    # scheduled slots near 2^81 and 2^120, distinct mod 2^64: every lane draws there, so
    # a step that carried from one lane into the next would change later lanes' draws
    spec = AgeBased(schedule=Schedule(Fraction(3**25), 0), p=0.5)
    config = GameConfig(n=3, profile=(spec,) * 3, seed=6, slot_cap=2**130)
    outcomes = _matches_run_trial(config, 100)
    assert any(slot >= 2**80 for column in outcomes.columns for slot in column)


def test_outcomes_iterate_as_trial_outcomes():
    config = GameConfig(n=3, profile=(AB,) * 3, seed=4, slot_cap=3)  # most trials censored
    outcomes = _matches_run_trial(config, 50)
    assert isinstance(outcomes, engine.Outcomes) and len(outcomes) == 50
    assert [out for out in outcomes] == list(outcomes)  # each iteration starts from trial 0
    censored = [out for out in outcomes if any(out.censored)]
    assert censored and all(out.slots_run == 3 for out in censored)


@pytest.mark.parametrize("name", ["all-protocol", "persistent", "constant", "censoring-cap"])
def test_csv_rows_match_run_trial_across_blocks(name):
    profile, cap = DIFFERENTIAL[name]
    config = GameConfig(n=len(profile), profile=profile, seed=41, slot_cap=cap)
    trials = 2100  # past two blocks of lanes, and a multiple of neither a block nor a chunk of lines
    assert trials > 2 * engine._BLOCK and trials % engine._BLOCK and trials % engine._CSV_CHUNK
    _csv_rows_match_run_trial(config, trials)


def test_cached_threshold_is_exact():
    cases = [0.0, 1.0, 0.75, 0.125, 0.1, 1 / 3, 0.9921875, 5e-324, math.nextafter(1.0, 0.0), Fraction(1, 3)]
    hits = engine._threshold.cache_info().hits
    for p in cases:
        exact = math.ceil(Fraction(p) * 2**53) << 11
        assert engine._threshold(p) == exact and engine._threshold(p) == exact
    assert engine._threshold.cache_info().hits >= hits + len(cases)  # each second call is answered from the cache


def test_packed_keys_match_player_keys():
    # a block's trials, and a repack's non-contiguous, increasing subset of them
    for trials in (array("Q", range(4001)), array("Q", range(5, 3000, 3))):
        ones = engine._lanes([1] * len(trials))
        for seed in (0, 7, 2**64 + 5, -1):
            seed_key = engine._mix64(seed)
            packed = engine._packed_keys(seed_key, trials, 3, ones, ones * engine._MASK64)
            lanes = [key.to_bytes(16 * len(trials), "little") for key in packed]
            for j, trial in enumerate(trials):
                assert all(lane[16 * j + 8 : 16 * j + 16] == bytes(8) for lane in lanes)
                keys = [int.from_bytes(lane[16 * j : 16 * j + 8], "little") for lane in lanes]
                assert keys == engine._player_keys(seed_key, trial, 3)


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
    _matches_run_trial(config, trials)


@settings(max_examples=150, deadline=None)
@given(
    profile=st.lists(_SPEC, min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**64),
    slot_cap=st.integers(min_value=1, max_value=400),
    trials=st.integers(min_value=1, max_value=60),
    block=st.sampled_from([1, 3, 16, 1024]),
)
def test_packed_lanes_match_run_trial_on_random_profiles(profile, seed, slot_cap, trials, block):
    # small blocks, so that these few trials fill several blocks, each packed anew as its lanes finish
    config = GameConfig(n=len(profile), profile=tuple(profile), seed=seed, slot_cap=slot_cap)
    with mock.patch.object(engine, "_BLOCK", block):
        _matches_run_trial(config, trials)


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


def _written_out_uniform(seed, trial_index, player, slot):
    # the hash written out: seed, trial and player mixed in one after another, then the
    # slot's 64-bit words above its lowest, lowest first, then its lowest word
    mask, golden = (1 << 64) - 1, 0x9E3779B97F4A7C15
    high = [(slot >> shift) & mask for shift in range(64, slot.bit_length(), 64)]

    def mix(z):
        z &= mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    z = mix(seed)
    for part in (trial_index, player, *high, slot & mask):
        z = mix(z ^ ((part * golden) & mask))
    return (z >> 11) * (1.0 / (1 << 53))


def test_split_key_reproduces_attempt_uniform():
    cases = [(7, 0, 0, 2), (7, 3999, 2, 13), (2**64 + 5, 10**6, 1, 10**6), (-1, 1, 2, 3)]
    cases += [(s, t, p, slot) for s in (0, 31) for t in (0, 5) for p in range(3) for slot in (1, 2, 77)]
    cases += [(7, 3, 1, slot) for slot in (2**64 - 1, 2**64, 2**64 + 5, 2**128 + 7, 3 * 2**130 + 2**70 + 1)]
    for seed, trial, player, slot in cases:
        assert attempt_uniform(seed, trial, player, slot) == _written_out_uniform(seed, trial, player, slot)
    # values recorded before the hash was split into per-player keys
    assert [attempt_uniform(*case) for case in cases[:4]] == [
        0.5297901411194159, 0.5632193649605226, 0.3435247918539034, 0.2884533026485421,
    ]


def test_keyed_draw_reproduces_attempt_uniform():
    # run_trial's draw: the seed and trial mixed once per trial, the player
    # keys kept, one mix of the slot per draw
    for seed in (0, 7, 31, 2**64 + 5, -1):
        seed_key = engine._mix64(seed)
        for trial in (0, 1, 5, 3999, 10**6):
            keys = engine._player_keys(seed_key, trial, 4)
            for player in range(4):
                for slot in (1, 2, 13, 77, 10**6, 2**64 + 13, 2**129 + 77):
                    draw = engine._keyed_uniform(keys[player], slot)
                    assert draw == attempt_uniform(seed, trial, player, slot)


@pytest.mark.parametrize("p", [0.0, 2.0**-1074, 0.3, 0.5, 0.75, 1 - 2.0**-53, 1.0])
def test_threshold_matches_float_draw(p):
    threshold = engine._threshold(p)
    for z in (threshold - 1, threshold, threshold + 1):
        if 0 <= z < 2**64:
            assert (z < threshold) == ((z >> 11) * 2.0**-53 < p)


@settings(max_examples=150, deadline=None)
@given(
    profile=st.lists(_SPEC, min_size=1, max_size=6),
    t=st.integers(min_value=1, max_value=400),
    cap=st.integers(min_value=1, max_value=400),
)
def test_segment_roles_classify_its_players(profile, t, cap):
    # forced: certain to transmit at every slot of the segment; drawers: drawing there
    end, limits, stuck, forced, drawers = engine._segment(tuple(profile), t, max(t, cap))
    for slot in {t, end}:
        probs = [decision_probability(spec, slot) for spec in profile]
        assert forced == tuple(i for i, pr in enumerate(probs) if pr == 1.0)
        assert drawers == tuple(i for i, pr in enumerate(probs) if 0.0 < pr < 1.0)
    assert [limit == engine._SURE for limit in limits] == [i in forced for i in range(len(profile))]
    assert set(stuck) <= set(forced)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_cached_lane_state_is_current_at_every_play(name, monkeypatch):
    # a stale thinning flag only delays or adds a repack, so no outcome would show it
    play, entries = engine._Lanes.play, []
    resized, widths = engine._Lanes.resized, []

    def checked(lanes, *args):
        live = 0
        for x in lanes.pending:
            live |= x
        entries.append((lanes.live == live, lanes.thin == (2 * live.bit_count() < lanes.width)))
        return play(lanes, *args)

    def recorded(lanes):
        resized(lanes)
        widths.append(lanes.width)

    monkeypatch.setattr(engine._Lanes, "play", checked)
    monkeypatch.setattr(engine._Lanes, "resized", recorded)
    monkeypatch.setattr(engine, "_BLOCK", 16)  # several blocks, each thinned, and parked or packed anew
    profile, cap = DIFFERENTIAL[name]
    config = GameConfig(n=len(profile), profile=profile, seed=2024, slot_cap=cap)
    for trials in (17, 33, 83, 100):  # blocks of 16, the last of one lane (17, 33), of three and of four
        _matches_run_trial(config, trials)
    assert entries and all(live and thin for live, thin in entries)
    assert max(widths) < 2 * 16  # parked lanes are fewer than half their width


def _joins(config, trials, monkeypatch):
    """run_trials' outcomes in blocks of 16, checked against run_trial, and each
    join of parked lanes with the next block's: (the parked lanes' segment index
    and slot, their live trials, the next block's live lanes)."""
    repack, joins = engine._Lanes.repack, []

    def recorded(lanes, other=None):
        if other is not None:
            assert other.at[1] == lanes.at[1] or not other.live  # live lanes join at the parked slot
            parked = list(compress(lanes.trials, engine._words(lanes.live, lanes.width)))
            joins.append((lanes.at, parked, other.live.bit_count()))
        repack(lanes, other)

    monkeypatch.setattr(engine._Lanes, "repack", recorded)
    monkeypatch.setattr(engine, "_BLOCK", 16)
    outcomes = _matches_run_trial(config, trials)
    assert joins
    return outcomes, joins


def test_next_block_done_before_the_parked_slot(monkeypatch):
    # the second block's one lane ends before the first block's parked slot
    profile, cap = DIFFERENTIAL["all-protocol"]
    config = GameConfig(n=len(profile), profile=profile, seed=2026, slot_cap=cap)
    _, joins = _joins(config, 17, monkeypatch)
    assert [other for _, _, other in joins] == [0]


def test_lanes_parked_inside_a_segment(monkeypatch):
    # constant_prob has one segment, from slot 1 to the cap: every block parks inside it
    profile, cap = DIFFERENTIAL["constant"]
    config = GameConfig(n=len(profile), profile=profile, seed=2024, slot_cap=cap)
    _, joins = _joins(config, 33, monkeypatch)
    assert all(k == 0 and t > 1 for (k, t), _, _ in joins)


def test_parked_lanes_reach_the_cap(monkeypatch):
    profile, _ = DIFFERENTIAL["persistent"]
    config = GameConfig(n=len(profile), profile=profile, seed=2024, slot_cap=300)
    outcomes, joins = _joins(config, 83, monkeypatch)
    censored = {idx for idx, out in enumerate(outcomes) if any(out.censored)}
    assert censored & {trial for _, parked, _ in joins for trial in parked}


@pytest.mark.parametrize("width", [0, 1, 2, 33])
def test_words_and_pack_round_trip_in_both_lane_halves(width):
    values = [((j + 1) * engine._GOLDEN) & engine._MASK64 for j in range(width)]
    low_half = engine._lanes([1] * width) * engine._MASK64
    high = engine._pack(array("Q", values))  # stored words, in the lanes' high words
    assert list(engine._words(high, width)) == values and high & low_half == 0
    low = engine._lanes(values)  # values, in the lanes' low words
    assert [(low >> 128 * j) & engine._MASK64 for j in range(width)] == values and low & ~low_half == 0
    words = array("Q", engine._words(low << 64, width))
    if engine._SWAP:
        words.byteswap()
    assert list(words) == values


@pytest.mark.parametrize("width", [1, 3, 1024])
def test_step_from_golden_lanes(width):
    # play's step: t mod 2^64 times the cached golden lanes, each lane reduced mod 2^64
    lanes = engine._Lanes(engine._mix64(5), range(width), [array("Q", [0]) * width for _ in range(2)])
    for t in (1, 2**30 - 1, 2**30, 2**60 + 7, 2**64 - 1, 2**64, 2**64 + 5, 3 * 2**70):
        step = ((t & engine._MASK64) * lanes.gold) & lanes.mask
        assert step == ((t * engine._GOLDEN) & engine._MASK64) * lanes.ones


def test_timeline_reaches_only_as_far_as_the_trials(monkeypatch):
    config = GameConfig(n=3, profile=(AB,) * 3, seed=5, slot_cap=10**6)
    queried = []

    def recorded(spec, t):
        queried.append(t)
        return decision_probability(spec, t)

    monkeypatch.setattr(engine, "decision_probability", recorded)
    outcomes = run_trials(config, 200)
    assert not any(any(out.censored) for out in outcomes)
    assert queried and max(queried) <= max(out.slots_run for out in outcomes)


def test_twenty_players_match_run_trial():
    config = GameConfig(n=20, profile=(ConstantProb(q=0.05),) * 20, seed=3, slot_cap=10**4)
    _matches_run_trial(config, 4)
