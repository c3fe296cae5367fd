"""Slotted-channel game simulation with reproducible Monte Carlo.

In every slot each pending player transmits with its protocol's decision
probability; exactly one transmitter in a slot succeeds and exits, any
other outcome leaves the pending set unchanged.  Trials are censored at
a slot cap because some profiles (a persistent deviator against the
age-based protocol) have infinite expected latency.

Every rule is a function of the slot alone, so `run_trials` shares one
probability timeline among its trials: segments (start, end, probs) of
slots over which every player's probability is constant.  The timeline
is built on demand, only as far as the trials reach.  A trial carries
its pending set as a bitmask, and each segment keeps a table of actions
keyed by that mask, filled the first time a trial reaches the mask.  An
action is None when the segment is a collision or silence to its end
for those players, which then costs one lookup; otherwise it names the
lone pending player certain to transmit (if any) and the players that
draw.  A segment without draws resolves in one step; this is what makes
slot caps of 10^6 affordable when the age-based protocol collides
deterministically at every trivial slot.

Randomness is counter-based: every attempt draw is a pure hash of
(seed, trial_index, player, slot), so results are bit-identical for a
fixed (config, trials) regardless of the order in which trials run.
`run_trials` mixes the seed in once per call and the trial once per
trial, keeps one key per player, and pays one inlined mix per draw.  A
draw compares the final hash value with an integer threshold,
ceil(p * 2^53) << 11, which is exact for every float or rational p.

`run_trial` plays one trial straight from the rules, querying them anew
at every slot it visits; it is kept as the independent oracle that
`run_trials` is tested against.  While two pending players transmit with
probability 1, or none can transmit, no draw can change the outcome, so
it skips to the next slot where a pending player's rule can change.  The
library simulates through `run_trials` alone; `summarize` and
`outcomes_to_csv_rows` read its outcomes.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .protocols import ProtocolSpec, decision_probability, next_prob_change

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def attempt_uniform(seed: int, trial_index: int, player: int, slot: int) -> float:
    """Deterministic uniform in [0, 1) for one attempt draw."""
    z = _mix64(seed)
    for part in (trial_index, player, slot):
        z = _mix64(z ^ ((part * _GOLDEN) & _MASK64))
    return (z >> 11) * (1.0 / (1 << 53))


@dataclass(frozen=True)
class GameConfig:
    n: int
    profile: tuple[ProtocolSpec, ...]
    seed: int
    slot_cap: int = 10**6

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one player")
        if len(self.profile) != self.n:
            raise ValueError(f"profile length {len(self.profile)} != n={self.n}")
        if self.slot_cap < 1:
            raise ValueError("slot_cap must be >= 1")


@dataclass(frozen=True)
class TrialOutcome:
    latency: tuple  # per-player int or None when censored
    slots_run: int

    @property
    def censored(self) -> tuple:
        return tuple(lat is None for lat in self.latency)


@dataclass(frozen=True)
class LatencyStats:
    trials: int
    mean: float  # lower bound on the true mean if censored_count > 0
    median: float
    q90: float
    q99: float
    censored_count: int
    ci95_halfwidth: float


def run_trial(config: GameConfig, trial_index: int) -> TrialOutcome:
    """Play one game to completion or the slot cap."""
    n, seed, cap = config.n, config.seed, config.slot_cap
    profile = config.profile
    pending = list(range(n))
    latency: list = [None] * n
    t = 1
    while pending and t <= cap:
        probs = [decision_probability(profile[i], t) for i in pending]
        if probs.count(1.0) > 1 or not any(probs):
            # a collision or silence whatever is drawn: skip until some rule can change
            nxt = cap + 1
            for i in pending:
                change = next_prob_change(profile[i], t)
                if change is not None and change < nxt:
                    nxt = change
            t = nxt
            continue
        transmitters = [
            i
            for i, pr in zip(pending, probs)
            if pr == 1.0 or (pr > 0.0 and attempt_uniform(seed, trial_index, i, t) < pr)
        ]
        if len(transmitters) == 1:
            winner = transmitters[0]
            latency[winner] = t
            pending.remove(winner)
        t += 1
    return TrialOutcome(latency=tuple(latency), slots_run=min(t - 1, cap))


def _segments(config: GameConfig):
    """Yield the config's probability timeline in slot order: segments
    (start, end, probs) covering slots 1..slot_cap, where probs[i] is
    player i's transmission probability at every slot from start to end."""
    profile, cap = config.profile, config.slot_cap
    t = 1
    while t <= cap:
        probs = tuple(decision_probability(spec, t) for spec in profile)
        end = cap
        for spec in profile:
            change = next_prob_change(spec, t)
            if change is not None and change <= end:
                end = change - 1
        yield t, end, probs
        t = end + 1


def _replay(built: list, rest):
    """Iterate a timeline built on demand: the segments in built, then
    those from rest, which are kept in built for the next trial.  rest
    is read with a for loop, not `yield from`, so abandoning this walk
    does not close it."""
    yield from built
    for segment in rest:
        built.append(segment)
        yield segment


def _threshold(p) -> int:
    """The integer b with z < b exactly when the draw (z >> 11) / 2^53
    made from a final hash value z is below p, for any float or
    rational p."""
    return math.ceil(Fraction(p) * (1 << 53)) << 11


def _action(probs: tuple, mask: int):
    """What a segment does for the pending players in mask: None when it
    is a collision or silence to its end, else (lone, draws) with lone
    the one pending player certain to transmit (or None) and draws the
    (player, threshold) pairs of those that draw."""
    forced, draws = [], []
    for i, pr in enumerate(probs):
        if mask >> i & 1:
            if pr == 1.0:
                forced.append(i)
            elif pr > 0.0:
                draws.append((i, _threshold(pr)))
    if len(forced) > 1 or not (forced or draws):
        return None
    return (forced[0] if forced else None), tuple(draws)


def run_trials(config: GameConfig, trials: int) -> list[TrialOutcome]:
    """All trial outcomes in trial-index order; each equals
    `run_trial(config, trial_index)`."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # Trials that end early never make the timeline reach the slot cap.
    built = []
    rest = ((start, end, probs, {}) for start, end, probs in _segments(config))
    n, cap = config.n, config.slot_cap
    seed_key = _mix64(config.seed)
    outcomes = []
    for idx in range(trials):
        trial_key = _mix64(seed_key ^ ((idx * _GOLDEN) & _MASK64))
        keys = [_mix64(trial_key ^ ((i * _GOLDEN) & _MASK64)) for i in range(n)]
        latency = [None] * n
        mask = (1 << n) - 1
        for start, end, probs, actions in _replay(built, rest):
            t = start
            while t <= end:
                try:
                    action = actions[mask]
                except KeyError:
                    action = actions[mask] = _action(probs, mask)
                if action is None:
                    break  # collision or silence until the segment ends
                lone, draws = action
                winner = lone
                if draws:
                    for t in range(t, end + 1):
                        step = (t * _GOLDEN) & _MASK64
                        winner = lone
                        for i, threshold in draws:
                            z = keys[i] ^ step  # _mix64, inlined
                            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                            if z ^ (z >> 31) < threshold:
                                if winner is not None:
                                    break  # collision: the other draws cannot matter
                                winner = i
                        else:
                            if winner is not None:
                                break
                    else:
                        break  # no success before the segment ends
                latency[winner] = t
                mask ^= 1 << winner
                t += 1
                if not mask:
                    break
            if not mask:
                break
        outcomes.append(TrialOutcome(latency=tuple(latency), slots_run=t - 1 if not mask else cap))
    return outcomes


def _quantile(sorted_values: list, q: float) -> float:
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return float(sorted_values[idx])


def summarize(outcomes: list[TrialOutcome], focus_player: int, slot_cap: int) -> LatencyStats:
    """Aggregate one player's latencies; censored trials count at the cap,
    so the mean is a lower bound on the true mean whenever censoring
    occurred."""
    values = []
    censored_count = 0
    for out in outcomes:
        lat = out.latency[focus_player]
        if lat is None:
            censored_count += 1
            values.append(slot_cap)
        else:
            values.append(lat)
    trials = len(values)
    mean = sum(values) / trials
    ordered = sorted(values)
    sd = statistics.stdev(values) if trials > 1 else 0.0
    return LatencyStats(
        trials=trials,
        mean=mean,
        median=_quantile(ordered, 0.5),
        q90=_quantile(ordered, 0.9),
        q99=_quantile(ordered, 0.99),
        censored_count=censored_count,
        ci95_halfwidth=1.96 * sd / math.sqrt(trials),
    )


def outcomes_to_csv_rows(outcomes: list[TrialOutcome]):
    """Yield (trial_index, player, latency, censored) rows for export."""
    for idx, out in enumerate(outcomes):
        for player, lat in enumerate(out.latency):
            yield idx, player, "" if lat is None else lat, int(lat is None)
