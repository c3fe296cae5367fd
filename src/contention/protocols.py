"""Protocol decision rules for the slotted contention game.

Three families are provided:

* AgeBased -- transmit with probability p at the schedule's non-trivial
  slots and probability 1 everywhere else.
* Deadline -- transmit with probability 1 at every slot >= t0; before
  the deadline an AgeBased or ConstantProb rule applies (by default
  ConstantProb(0.0), i.e. silence).  Deadline(1) is the persistent
  protocol.
* ConstantProb -- transmit with a fixed probability q at every slot.

Every rule is a function of the slot number alone:
`decision_probability(spec, t)` is a pending player's transmission
probability at slot t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .schedule import Schedule, parse_int, parse_rational


def _probability(name: str, value, shown=None) -> float:
    """value, a float or a rational, as a probability; checked before float(), which fails past its range.
    A rejected value is shown as `shown`, the text a config wrote, when that is given."""
    if not 0 <= value <= 1:  # also rejects nan and infinities
        raise ValueError(f"{name} must be a probability in [0, 1], got {value if shown is None else shown}")
    return float(value)


@dataclass(frozen=True)
class AgeBased:
    schedule: Schedule
    p: float

    def __post_init__(self):
        _probability("p", self.p)


@dataclass(frozen=True)
class ConstantProb:
    q: float

    def __post_init__(self):
        _probability("q", self.q)


@dataclass(frozen=True)
class Deadline:
    t0: int
    pre: AgeBased | ConstantProb = ConstantProb(0.0)

    def __post_init__(self):
        if self.t0 < 1:
            raise ValueError(f"deadline t0 must be >= 1, got {self.t0!r}")


ProtocolSpec = AgeBased | Deadline | ConstantProb


def decision_probability(spec: ProtocolSpec, t: int) -> float:
    """Transmission probability of a pending player at slot t."""
    if isinstance(spec, AgeBased):
        return spec.p if spec.schedule.nontrivial_index(t) is not None else 1.0
    if isinstance(spec, Deadline):
        return 1.0 if t >= spec.t0 else decision_probability(spec.pre, t)
    if isinstance(spec, ConstantProb):
        return spec.q
    raise TypeError(f"unknown protocol spec {spec!r}")


def next_prob_change(spec: ProtocolSpec, t: int) -> int | None:
    """Earliest slot > t where the rule's probability can differ from its
    value at t, or None if it is constant from t on.
    """
    if isinstance(spec, ConstantProb):
        return None
    if isinstance(spec, AgeBased):
        if spec.p == 1.0:
            return None
        # the first scheduled slot >= t; a scheduled t changes back to 1 at t + 1
        nxt = spec.schedule.next_nontrivial_after(t - 1)
        return t + 1 if nxt == t else nxt
    if isinstance(spec, Deadline):
        if t >= spec.t0:
            return None
        change = next_prob_change(spec.pre, t)
        return spec.t0 if change is None else min(change, spec.t0)
    raise TypeError(f"unknown protocol spec {spec!r}")


# --- JSON config -----------------------------------------------------------

def spec_from_json(data: dict) -> ProtocolSpec:
    if not isinstance(data, dict):
        raise TypeError(f"a player must be a JSON object, got {data!r}")
    kind = data["type"]
    if kind == "age_based":
        return _age_based_from_json(data)
    if kind == "deadline":
        return Deadline(t0=parse_int(data["t0"], "t0"), pre=_pre_from_json(data.get("pre", {"type": "quiet"})))
    if kind == "constant_prob":
        return ConstantProb(q=_json_probability(data, "q"))
    raise ValueError(f"unknown protocol type {kind!r}")


def _rational(data: dict, key: str) -> Fraction:
    """data[key] exactly: a finite JSON number, or "num/den" or decimal text.
    Fraction would take a bool for 0 or 1, and fail on nan or inf without naming the key."""
    value = data[key]
    if isinstance(value, bool) or isinstance(value, float) and not math.isfinite(value):
        raise TypeError(f"{key} must be a finite number or text, got {value!r}")
    return parse_rational(value)


def _json_probability(data: dict, key: str) -> float:
    """data[key] as a probability, checked exactly and shown as the config wrote it."""
    return _probability(key, _rational(data, key), data[key])


def _age_based_from_json(data: dict) -> AgeBased:
    return AgeBased(schedule=Schedule(_rational(data, "c"), 0), p=_json_probability(data, "p"))


def _pre_from_json(data: dict) -> AgeBased | ConstantProb:
    """The rule a deadline player follows before t0: "quiet",
    "fixed_prob" (key q) or "follow_age_based" (keys c, p)."""
    if not isinstance(data, dict):
        raise TypeError(f"pre must be a JSON object, got {data!r}")
    kind = data["type"]
    if kind == "quiet":
        return ConstantProb(0.0)
    if kind == "fixed_prob":
        return ConstantProb(q=_json_probability(data, "q"))
    if kind == "follow_age_based":
        return _age_based_from_json(data)
    raise ValueError(f"unknown pre-deadline rule {kind!r}")


def profile_from_json(data: dict) -> list[ProtocolSpec]:
    players = data["players"]
    if not isinstance(players, list):
        raise TypeError(f"players must be a JSON array, got {players!r}")
    return [spec_from_json(entry) for entry in players]
