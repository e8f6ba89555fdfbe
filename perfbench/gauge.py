"""A reading of the machine's speed at this moment.

The host's speed drifts by tens of percent within seconds and between runs,
so perfbench/run.py reports times scaled by REF_SECONDS over a gauge()
reading taken next to them: seconds on a machine where the gauge takes
REF_SECONDS (about its median on a 2-core x86 sandbox).
"""

from __future__ import annotations

import time
from fractions import Fraction

from gen import bareiss_det

REF_SECONDS = 0.005

_GAUGE_Q = [[Fraction((3 * i + 5 * j) % 13 - 6, (i + j) % 4 + 1)
             for j in range(9)] for i in range(9)]
_GAUGE_Z = [[(7 * i * i + 3 * j + i * j) % 41 - 20 for j in range(16)]
            for i in range(16)]
_GAUGE_N = 1_000_000_007  # prime, so the loop runs to its square root


def gauge() -> float:
    """Seconds for a fixed piece of benchmark-owned work shaped like exhom's
    (exact rational elimination, fraction-free integer elimination, trial
    division).  No exhom code runs."""
    t0 = time.perf_counter()
    m = [list(row) for row in _GAUGE_Q]
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    bareiss_det(_GAUGE_Z)
    f, n = 3, _GAUGE_N  # trial division, a tight small-integer loop
    while f * f <= n and n % f:
        f += 2
    return time.perf_counter() - t0
