"""Slotted-channel game simulation with reproducible Monte Carlo.

In every slot each pending player transmits with its protocol's decision
probability; exactly one transmitter in a slot succeeds and exits, any
other outcome leaves the pending set unchanged.  Trials are censored at
a slot cap because some profiles (a persistent deviator against the
age-based protocol) have infinite expected latency.

Every rule is a function of the slot alone, so `run_trials` shares one
probability timeline among its trials: a list of segments (end, limits,
stuck), each a run of slots over which every player's probability is
constant.  The first trial to reach a segment's first slot builds it,
so the timeline reaches only as far as the trials do.

Randomness is counter-based: every attempt draw is a pure hash of
(seed, trial_index, player, slot), so results are bit-identical for a
fixed (config, trials) regardless of the order in which trials run.  A
slot takes one splitmix64 round per 64-bit word: the words above its
lowest, lowest first, then its low word, so slots 2^64 apart draw apart
and every slot below 2^64 takes one round.  A draw compares the final
hash value with an integer threshold, ceil(p * 2^53) << 11, which is
exact for every float or rational p and is cached per probability value.

Since a draw depends on nothing but its counters, `run_trials` makes the
same slot's draw for many trials at once (SWAR, SIMD within a register).
It takes the trials in blocks of _BLOCK, and packs each block into
Python ints, trial j of the block in lane j, bits [128j, 128j + 128):
keys and hash values in its low word, bitmaps and win slots from bit 64.
- Each player's key, the hash state after the seed, trial and player
  are mixed in, is one packed int.  The keys are built packed: the trial
  indices times the golden ratio, then the trial mix and one mix per
  player, each for every lane at once.
- The splitmix64 mixer runs on every lane at once with 5 lane masks:
  after each of the first two shift-xors, after each multiply and after
  the last shift-xor.  A lane's product with a 64-bit constant fills
  its 128 bits and never carries into the next lane, and the masks
  clear what a shift brings down from the next lane.
- Player i's pending set is a bitmap with one bit at bit 64 of each
  lane.  Lane j of (2^64 + T - 1) * ONES - z has bit 64 set exactly when
  z < T, so its AND with the pending bitmap gives the lanes where player
  i transmits: a draw test is one subtraction and one AND.  A player
  certain to transmit does so in all its pending lanes.  Each segment
  carries its forced players, certain to transmit, and its drawers, so a
  slot only skips those with no pending lane.  Each packed threshold is
  kept until the lanes are packed anew.  Two OR-accumulators over those
  bitmaps, once and twice, give the lanes with exactly one transmitter
  as once ^ twice, since twice only gains lanes already in once.  A
  slot's hash input is built from golden lanes kept at each width.  At
  2^64 and past, the keys take the slot's higher words once per play
  of a segment, which stops at each multiple of 2^64.
- Player i's win slots stay in the lanes too: a packed int whose lane
  holds the slot of the player's success there, 0 if none yet, gains
  slot t in the lanes of w, the player's winning lanes, as won |= w * t.
  The win ints are written into the player's column, with one
  itertools.compress over their lane words, when the lanes are packed
  anew and when they end or park.  A slot at or past 2^64 fits no lane's
  high word and goes straight into the column.
- Segments are walked in order.  One in which no live lane can resolve
  (each has two pending players certain to transmit, or none that can
  transmit) is skipped to its end, and one in which only such players
  transmit needs one slot.  A lane with two pending players certain to
  transmit up to the slot cap is censored at once.
- A flag, set whenever a win or a censoring drops live lanes, tells when
  they fall below half the packed width.  Their wins are then written
  out and they are packed anew, down to no lanes at all.  A repack
  compresses the pending bitmaps and the trial indices only: a key is a
  pure function of (seed, trial, player), so the kept trials' keys are
  built afresh at the new width.
- While more trials remain, thinned lanes are parked at their segment
  and slot instead.  The next block plays from slot 1 up to that slot,
  packed anew as it thins, and one repack then packs the live lanes of
  both, which play on as one: blocks share the walk through the tail of
  long trials instead of each walking it alone.  Lanes end when none is
  live or the slot cap is passed.
Blocks keep memory bounded whatever the trial count: a 1024-lane int is
16 KiB, and a _Lanes holds a few dozen such ints at a time.  Parked
lanes are fewer than half their width, so lanes that join stay below
2 * _BLOCK wide.

`run_trial` plays one trial straight from the rules, querying them anew
at every slot it visits, and compares float draws with the
probabilities; it is kept as the oracle that `run_trials` is tested
against.  It shares only the per-player keys' definition with
`run_trials`, and the tests check its draws against `attempt_uniform`,
the hash written out in full.  While two pending players transmit with
probability 1, or none can transmit, no draw can change the outcome, so
it skips to the next slot where a pending player's rule can change.  In
both, slots_run is a trial's last success slot, or the slot cap for a
censored trial.

The library simulates through `run_trials` alone.  It returns Outcomes,
one column per player holding its success slot in each trial, 0 where it
has none by the cap: an array of unsigned 64-bit words, or a list when
the cap reaches 2^64.  Iterating Outcomes gives each trial's TrialOutcome,
in trial order, so list(outcomes) compares with `run_trial`'s.
`summarize(outcomes, player)` counts a censored trial at the slot cap,
and takes the mean and the standard deviation from the exact integer
sums of the latencies and their squares, each rounded once, so it gives
the same bits on every Python version.  `outcomes_to_csv_rows` yields
each samples CSV row after the SAMPLES_HEADER line as the bytes csv.writer
would write, formatted by one % per chunk of _CSV_CHUNK trials.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul

from .protocols import ProtocolSpec, decision_probability, next_prob_change

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 1024  # trials packed into one int at most
_CSV_CHUNK = 256  # trials whose CSV lines are built at once: about 100 KB of text for 3 players
_SURE = 1 << 64  # the _threshold of probability 1, above every hash value
_WIDE = 1 << 64  # slots from here on fit neither a lane's high word nor an unsigned 64-bit column


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def attempt_uniform(seed: int, trial_index: int, player: int, slot: int) -> float:
    """Deterministic uniform in [0, 1) for one attempt draw."""
    z = _mix64(seed)
    for part in (trial_index, player):
        z = _mix64(z ^ ((part * _GOLDEN) & _MASK64))
    return _keyed_uniform(z, slot)


def _player_keys(seed_key: int, trial_index: int, n: int) -> list:
    """Each player's key for one trial, from seed_key = _mix64(seed): the
    state of attempt_uniform's hash after the trial and the player are
    mixed in, so a draw needs one more mix, of the slot."""
    trial_key = _mix64(seed_key ^ ((trial_index * _GOLDEN) & _MASK64))
    return [_mix64(trial_key ^ ((i * _GOLDEN) & _MASK64)) for i in range(n)]


def _keyed_uniform(key: int, slot: int) -> float:
    """attempt_uniform's draw at this slot for the player whose key _player_keys gave:
    the slot's 64-bit words above its lowest are mixed into the key first, lowest
    first, one round each, so slots t and t + 2^64 draw apart; then its low word."""
    high = slot >> 64
    while high:
        key = _mix64(key ^ ((high * _GOLDEN) & _MASK64))
        high >>= 64
    return (_mix64(key ^ ((slot * _GOLDEN) & _MASK64)) >> 11) * (1.0 / (1 << 53))


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
    n, cap, profile = config.n, config.slot_cap, config.profile
    keys = _player_keys(_mix64(config.seed), trial_index, n)
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
            if pr == 1.0 or (pr > 0.0 and _keyed_uniform(keys[i], t) < pr)
        ]
        if len(transmitters) == 1:
            winner = transmitters[0]
            latency[winner] = t
            pending.remove(winner)
        t += 1
    return TrialOutcome(latency=tuple(latency), slots_run=t - 1)


def _segment(profile: tuple, t: int, cap: int) -> tuple:
    """The timeline segment that starts at slot t: (end, limits, stuck,
    forced, drawers), where limits[i] is the _threshold of player i's
    transmission probability at every slot from t to end (0 for silence,
    _SURE for a certain transmitter), stuck lists the players certain to
    transmit at every slot from t to the cap, forced those certain to
    transmit up to end, and drawers those that draw."""
    limits = tuple(_threshold(decision_probability(spec, t)) for spec in profile)
    end, stuck = cap, []
    for i, spec in enumerate(profile):
        change = next_prob_change(spec, t)
        if change is None or change > cap:
            if limits[i] == _SURE:
                stuck.append(i)
        elif change <= end:
            end = change - 1
    forced = tuple(i for i, limit in enumerate(limits) if limit == _SURE)
    drawers = tuple(i for i, limit in enumerate(limits) if 0 < limit < _SURE)
    return end, limits, tuple(stuck), forced, drawers


@functools.lru_cache(maxsize=256)  # a profile holds a few probabilities, met once per segment
def _threshold(p) -> int:
    """The integer b with z < b exactly when the draw (z >> 11) / 2^53
    made from a final hash value z is below p, for any float or
    rational p."""
    return math.ceil(Fraction(p) * (1 << 53)) << 11


# --- lanes: trial j of a packed int in bits [128j, 128j + 128) --------------

_SWAP = array("Q", [1]).tobytes()[0] == 0  # a big-endian host: swap values into little-endian words


def _words(x: int, width: int) -> memoryview:
    """The high words of x's width lanes, as stored: true where a bitmap has a lane."""
    return memoryview(x.to_bytes(16 * width, "little")).cast("Q")[1::2]


def _pack(words) -> int:
    """The packed int whose lanes' high words hold words, as _words reads them."""
    spaced = array("Q", [0]) * (2 * len(words))
    spaced[1::2] = words
    return int.from_bytes(spaced, "little")


def _lanes(values) -> int:
    """The packed int whose lane j holds values[j] in its low word."""
    values = array("Q", values)
    if _SWAP:
        values.byteswap()
    return _pack(values) >> 64


def _mix_lanes(z: int, m: int) -> int:
    """_mix64 in every lane of z at once, m being the lane mask (the low
    64 bits of every lane).  A shift brings the next lane's low bits into
    a lane's high half, and a product fills it; each is masked off before
    the next multiply or shift reads it, so nothing crosses a lane."""
    z = (z ^ (z >> 30)) & m
    z = (z * 0xBF58476D1CE4E5B9) & m
    z = (z ^ (z >> 27)) & m
    z = (z * 0x94D049BB133111EB) & m
    return (z ^ (z >> 31)) & m


def _packed_keys(seed_key: int, trials: array, n: int, ones: int, m: int) -> list:
    """Player i's _player_keys for the trial in every lane, one packed int per player; m is the lane mask."""
    trial_keys = _mix_lanes(((_lanes(trials) * _GOLDEN) & m) ^ seed_key * ones, m)
    return [_mix_lanes(trial_keys ^ ((i * _GOLDEN) & _MASK64) * ones, m) for i in range(n)]


class _Lanes:
    """Packed trials, trial trials[j] in lane j, that play on from at, a
    timeline segment's index and a slot: each player's keys packed,
    pending[i], the lanes where player i has not won yet, as a bitmap with
    one bit at each lane's bit 64, live, the lanes where some player has
    not, thin, whether live has fallen below half the width, and won[i],
    player i's win slots in the lanes' high words (0 for none) since they
    were last written into columns[i]."""

    def __init__(self, seed_key: int, trials: range, columns: list):
        self.seed_key = seed_key
        self.columns = columns
        self.trials = array("Q", trials)
        self.resized()
        self.pending = [self.live] * len(columns)
        self.won = [0] * len(columns)
        self.at = 0, 1

    def resized(self) -> None:
        """Set what follows from the lanes' trials: the width, ones and the
        lane mask, every lane live, the keys, and no packed thresholds."""
        self.width = len(self.trials)
        self.ones = _lanes([1] * self.width)
        self.live, self.thin = self.ones << 64, False
        self.mask, self.gold = self.ones * _MASK64, self.ones * _GOLDEN
        self.keys = _packed_keys(self.seed_key, self.trials, len(self.columns), self.ones, self.mask)
        self.limits = {}  # threshold -> (2^64 + threshold - 1) in every lane

    def set_live(self, live: int) -> None:
        """Set the live lanes, and whether they have fallen below half the
        width: run then parks them or packs them anew."""
        self.live, self.thin = live, 2 * live.bit_count() < self.width

    def censor(self, stuck: tuple) -> None:
        """Drop the lanes where two of the stuck players are pending: they collide to the cap."""
        one = two = 0
        for i in stuck:
            two |= one & self.pending[i]
            one |= self.pending[i]
        if two:
            self.pending = [x ^ (x & two) for x in self.pending]
            self.set_live(self.live ^ two)

    def flush(self) -> None:
        """Write the win slots held in the lanes into the columns, and clear them."""
        for i, x in enumerate(self.won):
            if x:
                slots = _words(x, self.width)
                if _SWAP:  # values are read here, not only tested for truth
                    slots = array("Q", slots)
                    slots.byteswap()
                column = self.columns[i]
                for trial, slot in zip(compress(self.trials, slots), filter(None, slots)):
                    column[trial] = slot
        self.won = [0] * len(self.won)

    def repack(self, other=None) -> None:
        """Write out the wins, then pack the live lanes anew, in order,
        followed by those of other, lanes at the same slot, if given: each
        player's pending bitmap is compressed, and the keys, a pure
        function of the seed, trial and player, are built afresh.  The
        lanes keep their slot."""
        trials, pending = array("Q"), [array("Q") for _ in self.pending]
        for lanes in filter(None, (self, other)):
            lanes.flush()
            keep = _words(lanes.live, lanes.width)
            trials.extend(compress(lanes.trials, keep))
            for words, x in zip(pending, lanes.pending):
                words.extend(compress(_words(x, lanes.width), keep))
        self.trials, self.pending = trials, [_pack(words) for words in pending]
        self.resized()

    def settle(self, win: int, sent: list, t: int) -> None:
        """Give slot t to the lone transmitter in each lane of win, sent
        holding the lanes where each player transmitted."""
        for i, x in sent:
            w = win & x
            if w:
                self.pending[i] ^= w
                if t < _WIDE:
                    self.won[i] |= w * t
                else:  # past a lane's high word: straight into the column
                    column = self.columns[i]
                    for trial in compress(self.trials, _words(w, self.width)):
                        column[trial] = t
        live = 0
        for x in self.pending:
            live |= x
        self.set_live(live)

    def limit(self, threshold: int) -> int:
        """(2^64 + threshold - 1) in every lane, kept until the width changes."""
        try:
            return self.limits[threshold]
        except KeyError:
            packed = self.limits[threshold] = (threshold + _MASK64) * self.ones
            return packed

    def play(self, t: int, end: int, limits: tuple, forced: tuple, drawers: tuple) -> int:
        """Play slots t to end of a timeline segment, given its limits and
        its forced and drawing players; stop early, after a slot with
        winners, when the lanes are thinned or none can resolve, or at the
        last slot below the next multiple of 2^64, where the keys change.
        Returns the next slot."""
        pending, gold, m = self.pending, self.gold, self.mask
        keys, high, last = self.keys, t >> 64, min(end, t | _MASK64)
        while high:  # from 2^64 on, the keys take the slot's words above the lowest, as _keyed_uniform's do
            step = ((high & _MASK64) * gold) & m
            keys = [_mix_lanes(key ^ step, m) for key in keys]
            high >>= 64
        draws = [(i, self.limit(limits[i]), keys[i]) for i in drawers if pending[i]]
        while True:  # from slot t to the next win: the forced players' tally, and the drawers' lanes
            sure = [(i, pending[i]) for i in forced if pending[i]]
            one = two = drawn = 0
            for _, x in sure:
                two |= one & x
                one |= x
            for i, _, _ in draws:
                drawn |= pending[i]
            if not drawn:  # a lone forced player wins at once; the rest stay stuck or silent
                lone = one ^ two  # two only holds lanes of one
                if lone:
                    self.settle(lone, sure, t)
                return end + 1
            if two and not (one | drawn) ^ two:  # with no two forced players together, a drawer can win
                return end + 1  # collision or silence in every live lane until the segment ends
            for t in range(t, last + 1):
                step = ((t & _MASK64) * gold) & m  # a lane's product stays below 2^128
                sent, once, twice = sure.copy(), one, two
                for i, limit_i, key in draws:
                    x = pending[i]
                    if x:
                        # bit 64 of a lane of limit_i - z is set exactly when z < _threshold
                        x &= limit_i - _mix_lanes(key ^ step, m)
                        twice |= once & x
                        once |= x
                        sent.append((i, x))
                win = once ^ twice  # twice only holds lanes of once
                if win:
                    break
            else:
                return last + 1
            self.settle(win, sent, t)
            if self.thin or t == last:
                return t + 1
            t += 1

    def run(self, timeline: list, profile: tuple, cap: int, until: int, park: bool) -> bool:
        """Play every lane's trial from the slot the lanes are at to its end,
        the cap or slot until - 1, writing each win's slot into
        columns[player][trial]; with park, stop instead where the lanes are
        thinned, rather than pack them anew.  Returns whether live lanes
        were left there."""
        k, t = self.at
        while t < until:
            end, limits, stuck, forced, drawers = timeline[k]
            if len(stuck) > 1:
                self.censor(stuck)
            if self.thin:
                if park:
                    break
                self.repack()
            t = self.play(t, min(end, until - 1), limits, forced, drawers)
            if not self.live or t >= until:
                break
            if t > end:
                k += 1
                if k == len(timeline):  # the first lanes to reach slot t build its segment
                    timeline.append(_segment(profile, t, cap))
        self.at = k, t
        self.flush()
        return t < until and bool(self.live)


def _column(trials: int, cap: int):
    """A column of trials zeros, able to hold every slot up to cap."""
    return array("Q", [0]) * trials if cap < _WIDE else [0] * trials


class Outcomes:
    """Trial outcomes as one column per player: columns[i][j] is player i's success
    slot in trial j, 0 if none by the cap.  Iterating gives each trial's TrialOutcome in order."""

    def __init__(self, columns: list, cap: int):
        self.columns = columns
        self.cap = cap

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        for slots in zip(*self.columns):
            latency = tuple(slot or None for slot in slots)
            yield TrialOutcome(latency=latency, slots_run=self.cap if None in latency else max(latency))


def run_trials(config: GameConfig, trials: int) -> Outcomes:
    """All trial outcomes in trial-index order; each equals
    `run_trial(config, trial_index)`."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, profile, cap = config.n, config.profile, config.slot_cap
    timeline = [_segment(profile, 1, cap)]  # every trial reaches slot 1
    columns = [_column(trials, cap) for _ in range(n)]
    seed_key = _mix64(config.seed)
    parked = None  # thinned lanes of the blocks so far, waiting at their slot for the next block
    for start in range(0, trials, _BLOCK):
        stop = min(start + _BLOCK, trials)
        lanes = _Lanes(seed_key, range(start, stop), columns)
        if parked:
            lanes.run(timeline, profile, cap, parked.at[1], park=False)  # up to the parked lanes' slot
            parked.repack(lanes)  # both blocks' live lanes, at the parked slot
            lanes = parked
        parked = lanes if lanes.run(timeline, profile, cap, cap + 1, park=stop < trials) else None
    return Outcomes(columns, cap)


def _quantile(sorted_values: list, q: float) -> float:
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return float(sorted_values[idx])


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den), correctly rounded, for integers num >= 0 and den > 0:
    num / den is scaled by 4^k so its integer part has at least 109 bits,
    the integer root of that gets its last bit set when inexact (round to
    odd), and the division by 2^k rounds it to a float once."""
    k = (110 - num.bit_length() + den.bit_length()) // 2
    if k < 0:
        den <<= -2 * k
    else:
        num <<= 2 * k
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return root / (1 << k) if k >= 0 else float(root << -k)


def summarize(outcomes: Outcomes, focus_player: int) -> LatencyStats:
    """Aggregate one player's latencies; a censored trial counts at the
    slot cap, so the mean is a lower bound on the true mean whenever
    censoring occurred.  The mean and the standard deviation come from
    the exact integer sums of the latencies and of their squares, so they
    are correctly rounded on every Python version."""
    column, cap = outcomes.columns[focus_player], outcomes.cap
    trials = len(column)
    censored_count = column.count(0)
    ordered = sorted(column)
    del ordered[:censored_count]  # the censored trials' zeros, which count at the cap, past every slot
    ordered += [cap] * censored_count
    s1 = sum(column) + censored_count * cap
    s2 = sum(map(mul, column, column)) + censored_count * cap * cap
    try:
        sd = _sqrt_ratio(trials * s2 - s1 * s1, trials * (trials - 1)) if trials > 1 else 0.0
        return LatencyStats(
            trials=trials,
            mean=s1 / trials,
            median=_quantile(ordered, 0.5),
            q90=_quantile(ordered, 0.9),
            q99=_quantile(ordered, 0.99),
            censored_count=censored_count,
            ci95_halfwidth=1.96 * sd / math.sqrt(trials),
        )
    except OverflowError:  # a latency past the float range: every value is at most the slot cap
        raise ValueError(f"player {focus_player}'s latencies are too large for a float: lower slot_cap") from None


SAMPLES_HEADER = "trial_index,player,latency,censored\r\n"


def outcomes_to_csv_rows(outcomes: Outcomes):
    """Yield each (trial_index, player, latency, censored) row as its
    finished CSV line, the bytes csv.writer writes for it: latency empty
    and censored 1 for a trial censored at the cap.  One % builds a chunk
    of _CSV_CHUNK trials' lines from their interleaved (trial, slot) cells."""
    columns, n = outcomes.columns, len(outcomes.columns)
    row = "".join(f"%d,{player},%d,0\r\n" for player in range(n))  # one trial's lines
    for start in range(0, len(outcomes), _CSV_CHUNK):
        trials = range(start, min(start + _CSV_CHUNK, len(outcomes)))
        cells = [0] * (2 * n * len(trials))
        for player, column in enumerate(columns):
            cells[2 * player :: 2 * n], cells[2 * player + 1 :: 2 * n] = trials, column[start : trials.stop]
        # a latency of 0 marks a censored row: its latency is empty and censored 1
        yield from ((row * len(trials)) % tuple(cells)).replace(",0,0\r\n", ",,1\r\n").splitlines(keepends=True)
