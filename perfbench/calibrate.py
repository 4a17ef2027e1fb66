"""Host-speed calibration: a fixed pure-Python workload timed in a run.

The hosts this benchmark runs on share their cores with other tenants,
and their speed drifts by 20-30% over minutes.  Every run therefore
times this fixed workload after each op (never inside a timed span)
and reports op times scaled to a nominal host:
``reported = measured * NOMINAL_S / mean(samples near the op)``, rates
the other way round (see ``metrics.RunRecord.op_factors``).  The
workload uses none of the program's code, so a change to the program
moves the reported figures and a change of host speed mostly does not.
The run's mean factor is printed with the fingerprint.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Typical :func:`sample` time on the reference host (Intel Xeon,
#: 2 vCPUs, Python 3.11).  Only a scale: it cancels in comparisons.
NOMINAL_S = 0.0035


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _work() -> int:
    """Dict, list, heap, attribute and call traffic, like the simulator."""
    table = {}
    heap = []
    slots = [_Slot(i, 0) for i in range(64)]
    total = 0
    for i in range(16000):
        slot = slots[i & 63]
        slot.value += i
        table[i & 255] = table.get(i & 255, 0) + slot.value
        if i & 3 == 0:
            heapq.heappush(heap, (slot.value & 1023, i))
        elif heap:
            total += heapq.heappop(heap)[0]
    return total + len(table)


def sample() -> float:
    """Seconds one run of the fixed workload takes now.

    The collector is paused, so the sample never pays for collecting
    the caller's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
