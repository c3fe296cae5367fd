"""Machine-speed calibration for a shared, noisy host.

On a machine shared with other tenants, the speed of pure-Python code
drifts by ±25 % over stretches of several seconds to minutes.  The
benchmark times a fixed loop of its own right before and after each op
and scales the op's wall time to a reference speed:

    reference seconds = wall seconds * REFERENCE_S / calibration seconds

The loop belongs to the benchmark and never changes with the program,
so a faster or slower program still shows in full.  It mixes the two
kinds of work the workloads do: 64-bit hashing with small-object
churn (the engine) and long big-integer division (exact schedules).
"""

from __future__ import annotations

import time

# Seconds the loop below takes at the reference speed (a 2-core x86-64
# container under CPython 3.11, typical load).
REFERENCE_S = 0.025

_MASK64 = (1 << 64) - 1
_NUM, _DEN = 10001**12000, 10000**12000  # about 48,000 digits each


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _hash_churn(n: int = 10_000) -> int:
    acc, buckets, kept = 0, {}, []
    for i in range(n):
        if (_mix64((i * 0x9E3779B97F4A7C15) & _MASK64) >> 11) * (1.0 / (1 << 53)) < 0.5:
            kept.append(i)
        buckets[i & 255] = buckets.get(i & 255, 0) + 1
        acc += len(kept) & 7
    return acc


def _big_division(n: int = 300) -> int:
    num, den, acc = _NUM, _DEN, 0
    for _ in range(n):
        acc += (2 * num) // den
        num *= 10001
        den *= 10000
    return acc


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now."""
    start = time.perf_counter()
    _hash_churn()
    _big_division()
    return time.perf_counter() - start


class Scaler:
    """Scales consecutive timed sections by the calibrations around them."""

    def __init__(self):
        self._before = calibrate()

    def scale(self, seconds: float) -> float:
        after = calibrate()
        factor = REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return seconds * factor
