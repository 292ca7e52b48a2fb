"""Host-speed probe: scales the benchmark's times to a fixed reference speed.

The benchmark shares a few cores of a host whose speed drifts by a quarter
or more within minutes: a fixed pure-Python loop took 27 ms in one 3-s
window and 35 ms half a minute later, in the same process.  Such a drift
moves every wall-clock time of a run alike, so two runs of the same code
can differ by more than any useful regression bound.

So every time the benchmark reports is taken next to a probe: a fixed
pure-Python task (big-integer masks of 3^5 bits, small tuples, a dict),
defined here and independent of the package.  The probe runs between
operations, never inside a timed one, and with the garbage collector off,
so that the package's heap does not change its time.  A time is then
scaled by ``REFERENCE_MS`` over the probe's local median: a reported
second is a second on a host where the probe takes ``REFERENCE_MS``.  A
drift of the host moves the probe and the operation alike and cancels; a
change to the package moves only the operation.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REFERENCE_MS = 1.0   # the probe's time at the reference speed
EVERY_S = 0.03       # between operations, probe when this much has passed
WINDOW = 5           # an operation is scaled by the median of the last WINDOW probes


def _task() -> int:
    m = (1 << 243) - 1
    acc = 0
    seen: dict = {}
    for i in range(1500):
        x = (m >> (i % 200)) & (m << (i % 37))
        acc += x.bit_count()
        k = (i % 97, acc & 15)
        seen[k] = seen.get(k, 0) + 1
        _ = [i, acc, k]
    return acc + len(seen)


class HostSpeed:
    """Probe samples of one run and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []   # probe times, seconds
        self.scale = 1.0                 # reference time / local probe time
        self._last = float("-inf")

    def probe(self, times: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = perf_counter()
                _task()
                self.samples.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self._last = perf_counter()
        self.scale = self.scale_over(WINDOW)

    def maybe_probe(self) -> None:
        if perf_counter() - self._last >= EVERY_S:
            self.probe()

    def scale_over(self, last: int) -> float:
        """Reference time over the median of the last `last` probes."""
        return REFERENCE_MS / 1000 / statistics.median(self.samples[-last:])

    def median_ms(self) -> float:
        return 1000 * statistics.median(self.samples)
