"""A fixed pure-Python reference loop that gauges the machine's speed.

On a shared machine the host's speed changes by tens of percent from
one minute to the next, as other tenants load the same cores and
memory.  Host metrics divide that out: the loop runs right before and
right after each timed section, and the section's host time is scaled
by how fast the loop ran.  The loop does what the simulator's event
loop does most (heap pushes and pops, generator resumption, small
slotted objects) but uses no code of the repository, so no change to
the program moves it.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_LOOPS_PER_S", "machine_speed"]

#: loops per second of :func:`_loop` on the reference machine; host
#: metrics are reported as if measured on it
REFERENCE_LOOPS_PER_S = 40.0

_ITEMS = 20_000


class _Item:
    __slots__ = ("value", "owner")

    def __init__(self, value, owner):
        self.value = value
        self.owner = owner


def _worker():
    total = 0
    while True:
        total += yield total


def _loop() -> None:
    workers = [_worker() for _ in range(16)]
    for worker in workers:
        next(worker)
    heap = []
    for i in range(_ITEMS):
        heapq.heappush(heap, (i * 7919 % 10007, i, _Item(i, workers[i & 15])))
        if len(heap) > 128:
            _key, _seq, item = heapq.heappop(heap)
            item.owner.send(item.value)


def machine_speed() -> float:
    """This machine's speed right now, relative to the reference
    machine (2.0 = twice as fast)."""
    t0 = time.perf_counter()
    _loop()
    return 1.0 / (time.perf_counter() - t0) / REFERENCE_LOOPS_PER_S
