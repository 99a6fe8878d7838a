"""Host-speed calibration for the benchmark's host-time metrics.

On a shared virtual machine the CPU's speed swings by 1.5x or more for
seconds at a time, so a raw host time mostly measures the neighbours.
A :class:`Speedometer` runs a fixed unit of interpreter work (heap, dict
and float operations, garbage collection off) after every block of steps
of the simulation loop (simulated seconds, or requests on the serve
workload), and each step's host time is rescaled to the reference speed
at which one unit takes :data:`REF_UNIT_S`, using the units run just
before and just after its block::

    reference seconds = raw seconds * REF_UNIT_S / mean nearby unit time

The host's speed holds for a second or more at a time, far longer than a
block, so the nearby units see the speed the step saw.  The units run on
the same CPU as the loop, between its steps, and their own time is
excluded from the raw seconds.  Both the raw and the rescaled figures
are kept in the record.

Set-up is not rescaled: it is mostly imports and NumPy pretraining,
whose speed the unit tracks worse than its own noise, so raw set-up
seconds spread less than rescaled ones.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Host seconds one calibration unit takes at the reference speed.
REF_UNIT_S = 0.004
#: Loop iterations of one unit (about REF_UNIT_S on a 2020s server core).
UNIT_N = 3000


def unit() -> float:
    """One fixed unit of interpreter work; the result is only a checksum."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    x = 0.0
    for i in range(UNIT_N):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        k = i % 257
        counts[k] = counts.get(k, 0) + 1
        x += (i % 13) * 0.5
    while heap:
        heapq.heappop(heap)
    return x + len(counts)


class Speedometer:
    """Timings of the calibration units run so far, and their total."""

    def __init__(self, block: int) -> None:
        #: Steps between two units.
        self.block = block
        self.units: list[float] = []
        self.paused = 0.0

    def tick(self) -> None:
        """Run one unit now, with the garbage collector off."""
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            unit()
            d = clock() - t0
        finally:
            if enabled:
                gc.enable()
        self.units.append(d)
        self.paused += d

    def to_dict(self) -> dict:
        return {"block": self.block, "units": self.units, "paused": self.paused}


def factor(units: list[float]) -> float:
    """Multiplier from raw host seconds to reference seconds."""
    if not units:
        raise ValueError("no calibration units were run")
    return REF_UNIT_S / statistics.fmean(units)


def rescale(times: list[float], speed: dict) -> list[float]:
    """Step times in reference units, each by the units around its block.

    ``speed`` is :meth:`Speedometer.to_dict`: ``units[b]`` ran right after
    block ``b`` of ``block`` consecutive steps, and once after the last.
    """
    units, block = speed["units"], speed["block"]
    if not units:
        raise ValueError("no calibration units were run")
    out = []
    for i, t in enumerate(times):
        b = min(i // block, len(units) - 1)
        out.append(t * REF_UNIT_S / statistics.fmean(units[max(b - 1, 0):b + 1]))
    return out
