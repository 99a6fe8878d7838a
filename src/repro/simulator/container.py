"""Container instances: lifecycle state machine and billing.

An instance is launched (initialization starts, resources allocated and
billed), becomes warm, alternates between idle and busy while serving
batches, and terminates — either by keep-alive expiry, by policy, or at
simulation end.  Billing covers the whole launch→termination span at the
configuration's unit cost, split into initialization, busy (inference) and
idle (keep-alive / pre-warm slack) seconds for the cost-breakdown metrics.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hardware.configs import HardwareConfig
from repro.simulator.cluster import Placement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.events import TimerHandle

_instance_ids = itertools.count()


class InstanceState(enum.Enum):
    """Lifecycle states of a container instance."""

    INITIALIZING = "initializing"
    IDLE = "idle"
    BUSY = "busy"
    TERMINATED = "terminated"

    def __init__(self, value: str) -> None:
        #: Dense position in declaration order: list-backed per-state
        #: counters index by it instead of hashing the member.
        self.index = len(type(self)._member_names_)


@dataclass
class Instance:
    """One running container serving a single function."""

    function: str
    config: HardwareConfig
    placement: Placement
    launched_at: float
    init_duration: float
    state: InstanceState = InstanceState.INITIALIZING
    instance_id: int = field(default_factory=lambda: next(_instance_ids))
    #: Launched by a policy pre-warm rather than queue demand; drives the
    #: telemetry plane's PrewarmHit / PrewarmMiss accounting.
    prewarmed: bool = False
    #: Initialized by paging a host-resident model onto the GPU (swap-in,
    #: ≪ cold start) instead of a full cold initialization.
    swapped_in: bool = False
    warm_at: float = 0.0
    idle_since: float = 0.0
    busy_seconds: float = 0.0
    batches_served: int = 0
    invocations_served: int = 0
    terminated_at: float | None = None
    expiry_epoch: int = 0  # invalidates stale keep-alive timers
    # Pending keep-alive expiry timer; cancelled on dispatch/termination so
    # dead closures never accumulate in the event heap.
    expiry_timer: "TimerHandle | None" = field(
        default=None, repr=False, compare=False
    )
    # In-flight batch tracking, populated only while a FaultPlan is active:
    # the invocations currently executing on this instance and the timer
    # that will complete (or fail) them.  Cancellable, so a machine outage
    # can kill the batch mid-flight and hand the items to the retry path.
    inflight: "list | None" = field(default=None, repr=False, compare=False)
    done_timer: "TimerHandle | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.warm_at = self.launched_at + self.init_duration

    # -- transitions --------------------------------------------------------
    def mark_warm(self, now: float) -> None:
        """Initialization finished; instance is idle and serviceable."""
        if self.state is not InstanceState.INITIALIZING:
            raise RuntimeError(f"instance {self.instance_id} warmed twice")
        self.state = InstanceState.IDLE
        self.idle_since = now

    def mark_busy(self, now: float, batch: int) -> None:
        """Start executing a batch."""
        if self.state is not InstanceState.IDLE:
            raise RuntimeError(
                f"instance {self.instance_id} dispatched while {self.state.value}"
            )
        self.state = InstanceState.BUSY
        self.batches_served += 1
        self.invocations_served += batch

    def mark_idle(self, now: float, busy_time: float) -> None:
        """Batch finished; instance returns to the idle pool."""
        if self.state is not InstanceState.BUSY:
            raise RuntimeError(
                f"instance {self.instance_id} finished while {self.state.value}"
            )
        self.busy_seconds += busy_time
        self.state = InstanceState.IDLE
        self.idle_since = now
        self.expiry_epoch += 1

    def mark_terminated(self, now: float) -> None:
        """Release the instance; billing stops at ``now``."""
        if self.state is InstanceState.TERMINATED:
            raise RuntimeError(f"instance {self.instance_id} terminated twice")
        self.state = InstanceState.TERMINATED
        self.terminated_at = now

    # -- billing ----------------------------------------------------------------
    def lifetime(self, now: float | None = None) -> float:
        """Seconds from launch to termination (or ``now`` if still alive)."""
        end = self.terminated_at if self.terminated_at is not None else now
        if end is None:
            raise ValueError("live instance requires `now` to compute lifetime")
        return max(0.0, end - self.launched_at)

    def cost(self, now: float | None = None) -> float:
        """Dollars billed over the instance lifetime."""
        return self.lifetime(now) * self.config.unit_cost

    def init_seconds(self, now: float | None = None) -> float:
        """Billed seconds spent initializing."""
        return min(self.lifetime(now), self.init_duration)

    def idle_seconds(self, now: float | None = None) -> float:
        """Billed seconds neither initializing nor executing."""
        return max(
            0.0, self.lifetime(now) - self.init_seconds(now) - self.busy_seconds
        )

    @property
    def is_live(self) -> bool:
        """Whether the instance still holds resources."""
        return self.state is not InstanceState.TERMINATED
