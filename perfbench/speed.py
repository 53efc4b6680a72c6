"""Host speed probe: a fixed pure-Python kernel, timed between queries.

On a shared host the CPU speed available to one process drifts by tens of
percent over tens of seconds, which swamps the differences a benchmark
must resolve.  The kernel below does a fixed amount of the kind of work
hornkit does (modular row reduction on lists of ints, tuple building,
dict counting) and shares no code with it, so a program change cannot
move it.  Timing it next to each query measures the host's speed at that
moment; scaling query times by NOMINAL_S / kernel time reports them at a
fixed reference speed, at which the kernel takes exactly NOMINAL_S.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

NOMINAL_S = 0.005  # the kernel's time at the reference speed

_P = 2147483647


def _kernel() -> int:
    rng = random.Random(1)
    rows = [[rng.randrange(_P) for _ in range(24)] for _ in range(24)]
    for c in range(24):
        inv = pow(rows[c][c] or 1, -1, _P)
        rows[c] = [x * inv % _P for x in rows[c]]
        for i in range(24):
            if i != c:
                f = rows[i][c]
                rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], rows[c])]
    counts: dict[tuple, int] = {}
    for t in range(3000):
        key = tuple(sorted((t % 7, t % 11, t % 13)))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def probe() -> float:
    """Seconds the kernel takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor taking times measured alongside these kernel samples to the
    reference speed."""
    return NOMINAL_S / statistics.median(samples)
