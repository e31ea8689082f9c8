"""Summary statistics shared by the benchmark and its spread check, and the
reference loop that timings are scaled by."""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction
from typing import Callable, Sequence

# A percentile is reported only when at least this many samples lie above it,
# so that it rests on more than one or two slow outliers.
MIN_BEYOND = 10


def samples_needed(p: float) -> int:
    """Smallest sample count for which percentile `p` is reportable."""
    n = 1
    while samples_beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank `p` percentile of `n` samples."""
    return n - max(1, math.ceil(p / 100 * n))


def percentile(samples: Sequence[float], p: float) -> float | None:
    """Nearest-rank percentile, or None when fewer than MIN_BEYOND lie above it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, p) < MIN_BEYOND:
        return None
    return sorted(samples)[max(1, math.ceil(p / 100 * n)) - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# Timings are scaled to a machine on which `reference_work` takes this long.
#
# On a shared host the speed of one core drifts, for the library and for this
# loop alike: on a 2-vCPU Intel Xeon virtual machine, the median time of a
# fixed batch of library calls moved by up to 30% between 7-second windows,
# and by 2 to 5% once divided by the reference time. The benchmark times the
# loop between stretches of operations, each about 0.1 s long, and multiplies
# each operation's time by REFERENCE_S over the mean of the readings just
# before and just after its stretch. That keeps the change a faster or slower
# library makes and drops most of the drift.
REFERENCE_S = 0.010


def reference_work() -> Fraction:
    """Fixed exact-arithmetic loop, the kind of work the library does:
    Fractions with small denominators, summed into a dict keyed by tuples."""
    table: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for i in range(1, 1000):
        p = Fraction(i % 11 + 1, i % 13 + 2) * Fraction(1, i)
        key = (i % 5, i % 3)
        table[key] = table.get(key, Fraction(0)) + p
        total += p
    return total + sum(table.values())


def reference_seconds(clock: Callable[[], float] = time.perf_counter) -> float:
    start = clock()
    reference_work()
    return clock() - start


def scaled(seconds: float, readings: Sequence[float]) -> float:
    """`seconds` as on the nominal machine, given reference readings taken
    around it."""
    return seconds * REFERENCE_S / statistics.mean(readings)
