"""The machine's speed, probed between operations.

On a shared virtual machine the same pure-Python loop can take twice as
long from one minute to the next, because other guests contend for the
physical cores.  That drift moves every timing of a run together, so the
benchmark scales its timings by the speed measured alongside them.  After
each operation it runs a fixed pure-Python kernel once for every `EVERY_S`
seconds that have passed since the last probe, so that every stretch of
the run is probed in proportion to its length.  A stretch's timings are
then scaled by `REF_S` over the kernel's mean time in that stretch: a
scaled time is the time the work would have taken while the kernel took
`REF_S`.  The mean, not the median, because the program pays for every
slow moment in proportion to its length, and so does the mean.  The
kernel does not use the program, so no change to the program can change
it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# About the kernel's mean time on a shared 2-core Intel Xeon virtual
# machine at 2.0 GHz with Python 3.11.  It is a fixed constant, the same
# for every commit, and only sets the unit of the scaled times.
REF_S = 0.0014
EVERY_S = 0.05

_N = 40
_rng = random.Random(20210708)
_rows = [0] * _N
for _i in range(_N):
    for _j in range(_i + 1, _N):
        if _rng.random() < 0.15:
            _rows[_i] |= 1 << _j
            _rows[_j] |= 1 << _i
_CLOSED = tuple(r | 1 << v for v, r in enumerate(_rows))


def kernel() -> int:
    """Greedy dominating sets of a fixed 40-vertex graph from every other
    start vertex: loops and bit operations on ints, as in the program's
    own searches."""
    full = (1 << _N) - 1
    chosen = 0
    for start in range(0, _N, 2):
        dominated = _CLOSED[start]
        while dominated != full:
            best, gain = -1, -1
            for u in range(_N):
                g = (_CLOSED[u] & ~dominated).bit_count()
                if g > gain:
                    best, gain = u, g
            chosen += 1
            dominated |= _CLOSED[best]
    return chosen


class Speed:
    """Kernel times, in the order they were taken."""

    def __init__(self):
        self.took: list[float] = []
        self._due = time.perf_counter()

    def catch_up(self) -> None:
        """Run the kernel once for every `EVERY_S` seconds since the last
        probe.  The collector is off while it runs, so that it does not
        sweep the program's heap inside a probe."""
        clock = time.perf_counter
        if clock() < self._due:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            while clock() >= self._due:
                t = clock()
                kernel()
                self.took.append(clock() - t)
                self._due += EVERY_S
        finally:
            if enabled:
                gc.enable()

    def factor(self, since: int) -> float:
        """REF_S over the kernel's mean time in the probes from `since` on,
        or in the last probe if none has been taken since."""
        return REF_S / statistics.fmean(self.took[since:] or self.took[-1:])
