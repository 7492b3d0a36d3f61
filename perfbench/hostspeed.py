"""Host speed, read from a fixed calibration loop, to put timings on one scale.

The shared machines this benchmark runs on can slow every process on them by
1.6-2x for seconds to minutes at a time, which moves a whole run, or a block
of runs, and no estimator taken within one run can undo it. So each measured
stretch of work (one build or open, or as many as run for about 50 ms; a
slice of queries of about 50 ms) lies between two readings of a calibration
loop that is no part of colexgraph: interpreter work on dicts, tuples and
numpy scalars, and small numpy array operations, the mix the library itself
runs. The stretch's slowdown factor is the mean of those two readings over
``NOMINAL_S``, the loop's time when the host runs at full speed, and the
benchmark reports each time divided by it: the time the stretch would have
taken at full speed.

The two halves of the loop take about equal time. On a 2-vCPU host that
switched between its fast and slow states, the spread (quartile distance over
median) of open, query and build times taken every 0.1 s was 0.50-0.65 raw
and 0.08-0.14 once scaled.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Best-of-three time of ``_calibration_pass`` with the host at full speed
# (python 3.11, numpy 2.4, one BLAS thread, an Intel Xeon vCPU).
NOMINAL_S = 0.72e-3

_INTS = np.arange(4096, dtype=np.int64)


def _calibration_pass() -> int:
    acc = 0
    seen: dict[int, tuple[int, int]] = {}
    for i in range(1500):
        acc += int(_INTS[(i * 7919) & 4095])
        seen[i & 255] = (acc, i)
    sorted(seen.values())
    for i in range(50):
        run = np.cumsum(_INTS[i:i + 256])
        acc += int(run[run % 3 == 0].sum())
    return acc


def reading() -> float:
    """Seconds the calibration loop takes now: the fastest of three passes."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _calibration_pass()
        best = min(best, perf_counter() - t0)
    return best


class HostClock:
    """Readings of the calibration loop around measured stretches.

    ``start`` reads before the first of a sequence of stretches; ``factor``
    reads after each, and that reading also starts the next stretch.
    """

    def __init__(self):
        self._last = NOMINAL_S
        self.factors: list[float] = []

    def start(self) -> None:
        self._last = reading()

    def factor(self) -> float:
        """Slowdown over the stretch since the previous reading (1 = full speed)."""
        now = reading()
        f = (self._last + now) / (2 * NOMINAL_S)
        self._last = now
        self.factors.append(f)
        return f
