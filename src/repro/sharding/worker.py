"""Spawn-safe shard workers and the scatter/barrier driver.

:func:`run_shard` is the worker entrypoint: given a picklable
:class:`ShardTask` it simulates each assigned unit as its **own**
:class:`~repro.simulator.runtime.Runtime` in ``retention="sketch"`` and
returns the shard's :class:`~repro.sharding.snapshot.ShardSnapshot` — the
only thing that crosses the process boundary back.  It is a module-level
function over frozen plain-data arguments, so it works under both ``fork``
and ``spawn`` start methods (macOS/Windows default to ``spawn``).

:func:`run_sharded` is the driver: scatter the plan's unit assignments
over a process pool, then merge the shard snapshots at the barrier with
:func:`~repro.sharding.snapshot.merge_snapshots`.  Because each unit's
trace window and seed derive only from the unit itself (see
:func:`~repro.simulator.runtime.derive_slice_seed`), the merged snapshot
is a pure function of the plan — any shard count, any process placement,
same bits.

Serial fallback contract (mirrors ``run_grid``'s): a daemonic caller
(we're already inside someone's pool worker — nested pools are forbidden)
or a pool that fails to start degrades to in-process execution with a
``RuntimeWarning``; results are identical either way, only slower.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

from repro.experiments.parallel import EnvSpec, _environment
from repro.sharding.plan import ShardPlan, ShardUnit
from repro.sharding.snapshot import ShardSnapshot, UnitSnapshot, merge_snapshots

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.plan import FaultPlan
    from repro.overload.spec import OverloadSpec

__all__ = ["ShardTask", "run_shard", "run_sharded"]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker process needs, in picklable form."""

    shard_index: int
    units: tuple[ShardUnit, ...]
    #: Environment recipe per app; must cover every app in ``units``.
    envs: tuple[EnvSpec, ...]
    policy: str
    sim_seed: int = 3
    init_failure_rate: float = 0.0
    faults: "FaultPlan | None" = None
    overload: "OverloadSpec | None" = None

    def env_for(self, app: str) -> EnvSpec:
        """The environment recipe of one app (KeyError if unmapped)."""
        for env in self.envs:
            if env.app == app:
                return env
        raise KeyError(
            f"shard task has no environment for app {app!r}; "
            f"mapped: {sorted(e.app for e in self.envs)}"
        )


def _run_unit(task: ShardTask, unit: ShardUnit) -> UnitSnapshot:
    """Simulate one unit as its own runtime; snapshot the sealed metrics."""
    from repro.simulator import ServerlessSimulator
    from repro.simulator.runtime import derive_slice_seed

    env = _environment(task.env_for(unit.app))
    if unit.n_slices == 1:
        trace = env.trace
    else:
        width = env.trace.duration / unit.n_slices
        start = unit.slice_index * width
        # The last slice closes at the exact horizon, never a rounded one.
        end = (
            env.trace.duration
            if unit.slice_index == unit.n_slices - 1
            else (unit.slice_index + 1) * width
        )
        trace = env.trace.slice(start, end)
    seed = derive_slice_seed(
        task.sim_seed, unit.app, unit.slice_index, unit.n_slices
    )
    # Built before the clock starts, as in run_cell (training is offline).
    policy = env.make_policy(task.policy)
    wall_start = time.perf_counter()
    sim = ServerlessSimulator(
        env.app,
        trace,
        policy,
        seed=seed,
        init_failure_rate=task.init_failure_rate,
        faults=task.faults,
        overload=task.overload,
        retention="sketch",
    )
    metrics = sim.run()
    wall = time.perf_counter() - wall_start
    return UnitSnapshot.from_metrics(
        metrics,
        slice_index=unit.slice_index,
        n_slices=unit.n_slices,
        events_processed=sim.events.processed,
        wall_clock=wall,
    )


def run_shard(task: ShardTask) -> ShardSnapshot:
    """Worker entrypoint: simulate every assigned unit, return the snapshot.

    Each unit is a fresh runtime (own clock, event heap, cluster), so a
    shard's result is independent of which other units share its process —
    the property the bit-identity bar rests on.  Environments memoize per
    process (:func:`repro.experiments.parallel._environment`), so a shard
    holding four slices of one app profiles that app once.
    """
    return ShardSnapshot(
        units=tuple(_run_unit(task, unit) for unit in task.units)
    )


def _tasks(
    plan: ShardPlan,
    envs: tuple[EnvSpec, ...],
    policy: str,
    sim_seed: int,
    init_failure_rate: float,
    faults: "FaultPlan | None",
    overload: "OverloadSpec | None",
) -> list[ShardTask]:
    mapped = {env.app for env in envs}
    missing = set(plan.apps) - mapped
    if missing:
        raise ValueError(
            f"plan needs environments for apps {sorted(missing)}; "
            f"mapped: {sorted(mapped)}"
        )
    return [
        ShardTask(
            shard_index=i,
            units=units,
            envs=envs,
            policy=policy,
            sim_seed=sim_seed,
            init_failure_rate=init_failure_rate,
            faults=faults,
            overload=overload,
        )
        for i, units in enumerate(plan.assignments())
    ]


def run_sharded(
    plan: ShardPlan,
    envs: "tuple[EnvSpec, ...] | list[EnvSpec]",
    policy: str,
    *,
    sim_seed: int = 3,
    processes: int | None = None,
    mp_context: str | None = None,
    init_failure_rate: float = 0.0,
    faults: "FaultPlan | None" = None,
    overload: "OverloadSpec | None" = None,
) -> ShardSnapshot:
    """Scatter the plan over worker processes; merge at the barrier.

    ``processes`` caps the pool size (default: the plan's shard count);
    ``mp_context`` picks the multiprocessing start method (``"spawn"``,
    ``"fork"``, ...; default: the platform's).  Runs serially — same
    result, one process — when only one shard has work, when ``processes``
    is 1, when called from a daemonic (pool-worker) process, or when the
    pool cannot start (``RuntimeWarning``).
    """
    tasks = _tasks(
        plan, tuple(envs), policy, sim_seed, init_failure_rate, faults, overload
    )
    workers = len(tasks) if processes is None else min(processes, len(tasks))
    if workers < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if workers > 1 and multiprocessing.current_process().daemon:
        warnings.warn(
            "run_sharded called from a daemonic worker process; nested "
            "process pools are not allowed, running shards serially "
            "in-process (results are identical).",
            RuntimeWarning,
            stacklevel=2,
        )
        workers = 1
    if workers == 1:
        return merge_snapshots(*(run_shard(t) for t in tasks))
    context = (
        multiprocessing.get_context(mp_context)
        if mp_context is not None
        else None
    )
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        ) as pool:
            snapshots = list(pool.map(run_shard, tasks))
    except OSError as exc:
        warnings.warn(
            f"shard worker pool failed to start ({exc}); falling back to "
            "serial in-process execution (results are identical).",
            RuntimeWarning,
            stacklevel=2,
        )
        snapshots = [run_shard(t) for t in tasks]
    return reduce(merge_snapshots, snapshots)
