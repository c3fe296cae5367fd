"""Exact transmission schedules for the age-based backoff protocol.

A schedule is the increasing sequence of "non-trivial" slots

    s_k = sum_{j=0}^{k} floor(2 * c^j),    k = 0, 1, 2, ...

for a rational growth factor c >= 1.  At those slots the protocol
transmits with some probability p < 1; at every other slot it transmits
with probability 1.

Every gap is exact and no float is involved.  c = num/den is powered in
fixed point: integer bounds lo <= c^j * 2^P <= hi are carried from one
index to the next (lo rounded down, hi rounded up, starting at
P = 128 bits).  A gap floor(2 * c^j) is read off the bounds when both
give the same integer; when they straddle an integer boundary, that one
gap is the exact integer division of 2 * num^j by den^j, and the bounds
are re-seeded from the exact power at a higher precision.  So a schedule
equals the exact bigint formula at every index, at the cost of bounds
that grow by only log2(c) bits per entry.

A schedule grows on query: a lookup past its last entry first extends
it, so callers never size it in advance.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a plain integer / decimal string, or a number) exactly.

    Raises ValueError for malformed text and for a zero denominator."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def parse_int(value, name: str) -> int:
    """An integer config field: an int, an integral float such as 1e6, or
    integer text such as "7".  Anything else, a bool or a float that int()
    would truncate included, is a TypeError naming the field."""
    integral = isinstance(value, float) and value.is_integer()
    if integral or isinstance(value, (int, str)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError):  # text int() rejects
            return int(value)
    raise TypeError(f"{name} must be an integer, got {value!r}")


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


_START_BITS = 128  # fixed-point precision of a fresh schedule


class Schedule:
    """Non-trivial slots for a rational growth factor, built on demand.

    Entries are only ever appended: by `extend_to`, by
    `ensure_covers_time`, and by the lookups, which extend the schedule
    as far as their slot needs.
    """

    def __init__(self, c: Fraction, horizon_k: int):
        c = Fraction(c)
        if c < 1:
            raise ValueError(f"growth factor must be >= 1, got {c}")
        if horizon_k < 0:
            raise ValueError("horizon_k must be >= 0")
        self.c = c
        self.x: list[int] = []
        self.s: list[int] = []
        # lo <= c^j * 2^bits <= hi for the next index j = len(self.x)
        self._bits = _START_BITS
        self._lo = self._hi = 1 << _START_BITS
        self.extend_to(horizon_k)

    @property
    def horizon_k(self) -> int:
        return len(self.x) - 1

    def extend_to(self, horizon_k: int) -> None:
        """Append entries so that x_0..x_horizon_k are available."""
        self._extend(horizon_k, 0)

    def ensure_covers_time(self, t: int) -> None:
        """Extend until the last non-trivial slot is >= t."""
        self._extend(-1, t)

    def _extend(self, horizon_k: int, t: int) -> None:
        """Append entries while x_horizon_k is missing or s_last < t."""
        num, den = self.c.numerator, self.c.denominator
        x, s = self.x, self.s
        bits, lo, hi = self._bits, self._lo, self._hi
        total = s[-1] if s else 0
        while len(x) <= horizon_k or total < t:
            gap = (2 * lo) >> bits
            if gap != (2 * hi) >> bits:
                # the bounds straddle an integer: take this gap exactly
                j = len(x)
                num_pow, den_pow = num**j, den**j
                gap = (2 * num_pow) // den_pow
                bits += max(64, (hi - lo).bit_length())
                lo, rem = divmod(num_pow << bits, den_pow)
                hi = lo + (rem != 0)
            x.append(gap)
            total += gap
            s.append(total)
            lo = lo * num // den
            hi = -(-hi * num // den)
        self._bits, self._lo, self._hi = bits, lo, hi

    def nontrivial_index(self, t: int) -> int | None:
        """Index k with s_k == t, or None if t is a trivial slot."""
        if t > self.s[-1]:
            self.ensure_covers_time(t)
        i = bisect_left(self.s, t)
        return i if self.s[i] == t else None

    def next_nontrivial_after(self, t: int) -> int:
        """Smallest s_k > t."""
        if t >= self.s[-1]:
            self.ensure_covers_time(t + 1)
        return self.s[bisect_right(self.s, t)]

    def __eq__(self, other: object) -> bool:
        # structural identity of the protocol, not of the cached horizon
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __repr__(self) -> str:
        return f"Schedule(c={self.c}, horizon_k={self.horizon_k})"

    def to_json(self) -> dict:
        return {"c": format_rational(self.c), "s": list(self.s), "x": list(self.x)}


@dataclass(frozen=True)
class DominationCheck:
    lower: Fraction
    value: int
    upper: Fraction
    holds: bool


def check_domination(sched: Schedule, k: int, k_prime: int, j: int) -> DominationCheck:
    """Exact two-sided geometric comparison of inter-transmission gaps.

    Verifies c^(k'-k-1) (c-1) x_{k+j} <= x_{k'+j} <= c^(k'-k-1) (c+1) x_{k+j}
    in rational arithmetic.  Requires c in [1, 2] and k' > k >= 0, j >= 0.
    """
    if k_prime <= k or k < 0 or j < 0:
        raise ValueError(f"need k' > k >= 0 and j >= 0, got k={k}, k'={k_prime}, j={j}")
    c = sched.c
    if not (1 <= c <= 2):
        raise ValueError(f"domination check requires c in [1, 2], got {c}")
    sched.extend_to(k_prime + j)
    factor = c ** (k_prime - k - 1)
    base = sched.x[k + j]
    value = sched.x[k_prime + j]
    lower = factor * (c - 1) * base
    upper = factor * (c + 1) * base
    return DominationCheck(lower=lower, value=value, upper=upper, holds=lower <= value <= upper)
