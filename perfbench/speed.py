"""Machine-speed calibration, so that timings from a shared host compare.

On the 2-vCPU virtual machine this benchmark was built on, the same
pure-Python loop takes 1.6 ms at the 10th percentile and 3.1 ms at the 90th,
in stretches of seconds, and process CPU time moves with it: the host runs
the guest slower, it does not deschedule it.  Medians of raw pass times then
differ by 17-23% from one 30-second run to the next.  So a short fixed kernel
is timed between operations, and each operation's time is scaled by
REFERENCE_S over the mean of the kernel times just before and after it.
The kernel mixes the kinds of work optquad does: a Python float loop, 17-digit
formatting, a small LAPACK solve and mpmath arithmetic.
"""

from __future__ import annotations

import math
import time
from functools import cache

# median kernel time on the reference machine (2 vCPU Xeon at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31 on one thread)
REFERENCE_S = 0.74e-3


@cache
def _matrix():
    import numpy as np

    return np.eye(24) + np.arange(576.0).reshape(24, 24) / 57600.0


def _kernel() -> float:
    # numpy and mpmath are imported here, not at module level, so that importing
    # this module does not load them before optquad's set-up is timed
    import mpmath as mp
    import numpy as np

    terms = []
    for i in range(300):
        x = i * 1e-3
        terms.append(math.sinh(x) * x)
    text = ",".join(format(t, ".17g") for t in terms)
    solution = np.linalg.solve(_matrix(), _matrix()[0])
    with mp.workdps(50):
        tail = sum(mp.exp(mp.mpf(k) / 7) for k in range(20))
    return math.fsum(terms) + len(text) + float(solution[0]) + float(tail)


def sample(count: int = 3) -> float:
    """Median seconds of `count` kernel runs now.

    The first run after a large operation is slowed by the caches that
    operation left behind; the median skips it.
    """
    times = []
    for _ in range(count):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[count // 2]


def scale() -> float:
    """Multiplier that turns a time measured now into one at reference speed."""
    return REFERENCE_S / sample(5)
