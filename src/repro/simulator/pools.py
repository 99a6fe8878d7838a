"""Indexed per-function instance pools.

The engine used to keep one flat ``list[Instance]`` per function and answer
every lifecycle query — idle pick, initializing count, live/idle counts,
min-warm enforcement — by scanning it.  :class:`InstancePool` replaces the
scans with per-state membership sets and per-configuration / per-backend
counters that are updated on every state transition, so the dispatch hot
path is O(1) (or O(matching instances)) instead of O(all instances).

Determinism contract: every accessor that yields instances does so in
ascending ``instance_id`` order, which — because instance ids increase
monotonically with launch order — reproduces the pick and termination order
of the original list-scan implementation bit-for-bit.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.hardware.configs import Backend, HardwareConfig
from repro.simulator.container import Instance, InstanceState

# Per-state counter slots (``InstanceState.index``).  Counters are updated
# on every state transition, and Enum members hash in Python.  The states
# holding cluster resources are INITIALIZING, IDLE and BUSY.
_INIT = InstanceState.INITIALIZING.index
_IDLE = InstanceState.IDLE.index
_BUSY = InstanceState.BUSY.index
_ZERO = (0,) * len(InstanceState)
_GPU = Backend.GPU


class InstancePool:
    """State-indexed registry of one function's live instances."""

    __slots__ = (
        "_live",
        "_idle",
        "_idle_heap",
        "_idle_cfg_heaps",
        "_state_counts",
        "_cfg_counts",
        "_backend_live",
    )

    def __init__(self) -> None:
        # Insertion order == launch order == ascending instance_id.
        self._live: dict[int, Instance] = {}
        self._idle: dict[int, Instance] = {}
        # Min-heaps of instance ids for O(log n) FIFO picks; entries are
        # deleted lazily (validity == membership in ``_idle``).
        self._idle_heap: list[int] = []
        self._idle_cfg_heaps: dict[HardwareConfig, list[int]] = {}
        # Per-state counts, indexed by ``InstanceState.index``: overall,
        # and one row per configuration (one hash per update).
        self._state_counts: list[int] = [0] * len(InstanceState)
        self._cfg_counts: dict[HardwareConfig, list[int]] = {}
        # Live instances per backend: ``[cpu, gpu]``.
        self._backend_live: list[int] = [0, 0]

    # ------------------------------------------------------------ mutation
    def add(self, inst: Instance) -> None:
        """Register a freshly launched (INITIALIZING) instance."""
        if inst.state is not InstanceState.INITIALIZING:
            raise ValueError(
                f"instance {inst.instance_id} added in state {inst.state.value}"
            )
        self._live[inst.instance_id] = inst
        if inst.config not in self._cfg_counts:
            self._cfg_counts[inst.config] = [0] * len(InstanceState)
        self._count(inst.state, inst, +1)

    def transition(self, inst: Instance, old_state: InstanceState) -> None:
        """Re-index ``inst`` after its state changed from ``old_state``.

        Both states are live (termination goes through :meth:`remove`), so
        the per-backend live count does not change.
        """
        new_state = inst.state
        if new_state is old_state:
            return
        config = inst.config
        old, new = old_state.index, new_state.index
        self._state_counts[old] -= 1
        self._state_counts[new] += 1
        row = self._cfg_counts[config]
        row[old] -= 1
        row[new] += 1
        if old == _IDLE:
            self._idle.pop(inst.instance_id, None)
        elif new == _IDLE:
            self._idle[inst.instance_id] = inst
            heapq.heappush(self._idle_heap, inst.instance_id)
            heapq.heappush(
                self._idle_cfg_heaps.setdefault(config, []),
                inst.instance_id,
            )

    def remove(self, inst: Instance, old_state: InstanceState) -> None:
        """Deregister a terminated instance (``old_state`` = state before)."""
        self._count(old_state, inst, -1)
        del self._live[inst.instance_id]
        if old_state is InstanceState.IDLE:
            self._idle.pop(inst.instance_id, None)

    def _count(self, state: InstanceState, inst: Instance, delta: int) -> None:
        self._state_counts[state.index] += delta
        self._cfg_counts[inst.config][state.index] += delta
        self._backend_live[inst.config.backend is _GPU] += delta

    # ------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._live)

    def __iter__(self) -> Iterator[Instance]:
        """Live instances in launch (ascending id) order."""
        return iter(self._live.values())

    def live_count(self, config: HardwareConfig | None = None) -> int:
        """Instances holding resources, optionally of one configuration."""
        if config is None:
            return len(self._live)
        row = self._cfg_counts.get(config, _ZERO)
        return row[_INIT] + row[_IDLE] + row[_BUSY]

    def idle_count(self) -> int:
        """Warm instances currently idle."""
        return len(self._idle)

    def initializing_count(self) -> int:
        """Instances still warming up."""
        return self._state_counts[_INIT]

    def warm_count(self, config: HardwareConfig | None = None) -> int:
        """Instances past initialization (IDLE or BUSY)."""
        if config is None:
            return self._state_counts[_IDLE] + self._state_counts[_BUSY]
        row = self._cfg_counts.get(config, _ZERO)
        return row[_IDLE] + row[_BUSY]

    def uncommitted_count(self, config: HardwareConfig | None = None) -> int:
        """Instances a warm-up request may count on (INITIALIZING or IDLE)."""
        if config is None:
            return self._state_counts[_INIT] + self._state_counts[_IDLE]
        row = self._cfg_counts.get(config, _ZERO)
        return row[_INIT] + row[_IDLE]

    def backend_live_counts(self) -> tuple[int, int]:
        """``(cpu, gpu)`` live instance counts for the pod-sample metric."""
        cpu, gpu = self._backend_live
        return cpu, gpu

    def pick_idle(self, preferred: HardwareConfig) -> Instance | None:
        """Lowest-id idle instance, preferring ``preferred``'s configuration.

        This is the original scan's pick order: first idle instance of the
        directive's configuration in launch order, else the oldest idle
        instance of any configuration.
        """
        cfg_heap = self._idle_cfg_heaps.get(preferred)
        if cfg_heap is not None:
            inst = self._peek(cfg_heap)
            if inst is not None:
                return inst
        return self._peek(self._idle_heap)

    def _peek(self, heap: list[int]) -> Instance | None:
        """Smallest currently-idle id on ``heap``, pruning stale entries."""
        while heap:
            inst = self._idle.get(heap[0])
            if inst is None:
                heapq.heappop(heap)
                continue
            return inst
        return None

    def idle_sorted(self, config: HardwareConfig | None = None) -> list[Instance]:
        """Snapshot of idle instances in ascending id order."""
        ids = sorted(self._idle)
        if config is None:
            return [self._idle[i] for i in ids]
        return [self._idle[i] for i in ids if self._idle[i].config == config]
