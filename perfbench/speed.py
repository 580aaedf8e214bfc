"""Host-speed reference: scale host times to one nominal machine speed.

The shared machines this benchmark runs on change speed under it: a
fixed pure-Python loop timed back to back takes anywhere from 9.5 to 19 ms,
and slow stretches last from a second to tens of seconds as other
tenants' work comes and goes. A 20-second run can fall wholly inside
one, which moves a run's median by 25% with the program unchanged.

So every host time the benchmark reports is measured and then scaled by
``(NOMINAL_S / r) ** SENSITIVITY``, where ``r`` is the time of
:func:`reference` measured right before and right after the timed section
(their mean; each is the faster of two back-to-back loops, which drops
a loop slowed by a page-fault burst). The simulator slows less than the
reference's tight loop when the machine slows: regressing log(repetition
time) on log(reference time) over 261 back-to-back repetitions of one
input gave a slope of 0.47, and across two sets of five 20-second runs
the exponents that best equalised the runs' medians were 0.6-0.7 and
0.8-0.9. ``SENSITIVITY`` is the middle of those fits. The reference is
plain Python that touches nothing of the program, so a change to the
program cannot move it; a change that makes the program faster or slower
moves the scaled times exactly as it moves the raw ones.

The service and report workloads are scaled. ``fleet-64`` is not: its
boards run in worker processes on both CPUs, which a reference timed in
the parent does not follow.
"""

from __future__ import annotations

import heapq
import time

#: Reference time at this host's usual fast speed, seconds.
NOMINAL_S = 0.010
#: How strongly the simulator's speed follows the reference's (fitted).
SENSITIVITY = 0.75


class _Item:
    __slots__ = ("key", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0

    def bump(self, amount: int) -> int:
        self.count += amount
        return self.count


def reference() -> float:
    """Seconds for one fixed pure-Python workload in the simulator's mix
    of heap, dict, attribute and method-call operations."""
    started = time.perf_counter()
    heap: list = []
    table: dict = {}
    items = [_Item(i) for i in range(64)]
    for i in range(12_000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 48:
            heapq.heappop(heap)
        item = items[i & 63]
        table[i & 255] = item.bump(i & 7)
        if table.get((i + 1) & 255, 0) > 1 << 20:
            table.clear()
    return time.perf_counter() - started


class SpeedClock:
    """Scale factors for timed sections, from references around them."""

    def __init__(self) -> None:
        self._last = min(reference(), reference())
        #: Host seconds spent inside :func:`reference` calls.
        self.spent_s = 0.0

    def factor(self) -> float:
        """The scale factor for the section that just ended, from the mean
        reference time before and after it."""
        started = time.perf_counter()
        now = min(reference(), reference())
        self.spent_s += time.perf_counter() - started
        factor = (NOMINAL_S / ((self._last + now) / 2.0)) ** SENSITIVITY
        self._last = now
        return factor
