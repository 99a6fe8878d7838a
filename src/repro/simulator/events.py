"""Event queue: the simulator's clock and dispatch loop.

A minimal but strict discrete-event core: events are ``(time, seq, handle)``
triples in a binary heap.  The monotonically increasing ``seq`` makes
simultaneous events fire in scheduling order, which keeps runs fully
deterministic for a fixed seed.

Two facilities keep the heap small on long traces:

- :meth:`EventQueue.schedule` returns a :class:`TimerHandle` whose
  ``cancel()`` lazily deletes the entry (dead entries are skipped on pop and
  compacted away once they outnumber live ones), so callers can retract
  keep-alive expiry timers instead of leaving dead closures to fire as
  no-ops;
- :meth:`EventQueue.reserve` hands out a contiguous block of sequence
  numbers up front, letting a *streamed* event source (the engine's
  self-rescheduling arrival and window-tick chains) push events lazily while
  preserving the exact tie-breaking order a pre-pushed schedule would have
  had.  Heap size then stays proportional to the number of *live* events,
  not to trace length.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

#: Minimum number of cancelled entries before a compaction can trigger.
COMPACT_MIN_DEAD = 16


class TimerHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("time", "seq", "_callback", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        queue: "EventQueue",
    ) -> None:
        self.time = time
        self.seq = seq
        self._callback = callback
        self._queue = queue

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not fired, not cancelled)."""
        return self._callback is not None

    def cancel(self) -> bool:
        """Retract the event; returns ``True`` if it was still pending.

        Cancelling an already-fired or already-cancelled event is a no-op.
        The heap entry is deleted lazily: it is skipped when it reaches the
        top, and bulk-compacted when dead entries dominate the heap.
        """
        if self._callback is None:
            return False
        self._callback = None
        queue, self._queue = self._queue, None
        if queue is not None:
            queue._note_cancel()
        return True

    def _fire(self) -> None:
        callback = self._callback
        self._callback = None
        self._queue = None
        assert callback is not None
        callback()


class EventQueue:
    """Time-ordered callback queue with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, TimerHandle]] = []
        self._seq = 0
        self._now = 0.0
        self._dead = 0
        self.processed = 0  # events fired over the queue's lifetime
        self.compactions = 0  # dead-entry sweeps (introspection for tests)

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) pending events."""
        return len(self._heap) - self._dead

    @property
    def heap_size(self) -> int:
        """Raw heap entry count, including cancelled-but-not-yet-swept ones."""
        return len(self._heap)

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        seq: int | None = None,
    ) -> TimerHandle:
        """Schedule ``callback`` at absolute ``time``; returns its handle.

        Events scheduled in the past are clamped to *now* — a late pre-warm
        request simply starts immediately, as on the real platform.  ``seq``
        may name a slot previously obtained from :meth:`reserve`; by default
        the next fresh sequence number is used.
        """
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        if seq is None:
            seq = self._seq
            self._seq += 1
        handle = TimerHandle(max(time, self._now), seq, callback, self)
        heapq.heappush(self._heap, (handle.time, handle.seq, handle))
        return handle

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule(self._now + delay, callback)

    def reserve(self, n: int) -> int:
        """Reserve ``n`` consecutive sequence numbers; returns the first.

        A streamed event source (one event scheduling its successor) can
        claim its tie-breaking slots up front, so lazily pushed events sort
        against other producers exactly as if the whole stream had been
        pre-pushed at reservation time.
        """
        if n < 0:
            raise ValueError(f"reservation size must be >= 0, got {n}")
        start = self._seq
        self._seq += n
        return start

    # ------------------------------------------------------------- internals
    def _note_cancel(self) -> None:
        self._dead += 1
        if self._dead >= COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without dead entries."""
        self._heap = [e for e in self._heap if e[2].active]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1

    def _prune_head(self) -> None:
        """Drop cancelled entries sitting at the top of the heap."""
        heap = self._heap
        while heap and not heap[0][2].active:
            heapq.heappop(heap)
            self._dead -= 1

    def next_time(self) -> float | None:
        """Time of the earliest live pending event, or ``None`` if empty.

        Lets an external pacer (the live serving façade) decide whether
        stepping would cross a horizon without actually firing anything.
        """
        self._prune_head()
        return self._heap[0][0] if self._heap else None

    # ------------------------------------------------------------------ run
    def step(self, horizon: float = math.inf) -> bool:
        """Fire the earliest live event if it is due by ``horizon``.

        Returns False when no live event remains at or before ``horizon``.
        Cancelled entries at the head are dropped on the way, whatever
        their time.
        """
        heap = self._heap
        while heap:
            time, _, handle = heap[0]
            if handle._callback is None:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if time > horizon:
                return False
            heapq.heappop(heap)
            self._now = time
            self.processed += 1
            handle._fire()
            return True
        return False

    def run_until(self, horizon: float) -> None:
        """Fire events in order until the queue empties or passes ``horizon``."""
        step = self.step
        while step(horizon):
            pass
        self._now = max(self._now, horizon)

    def run(self, max_events: int = 50_000_000) -> None:
        """Drain the queue completely (bounded as a runaway backstop)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise RuntimeError(f"event budget of {max_events} exhausted")
