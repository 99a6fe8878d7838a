"""Parallel experiment grid: fan simulation cells across worker processes.

A *cell* is one (application, policy, SLA, seed) simulation.  Figure-style
experiments are embarrassingly parallel across cells — each cell builds its
own environment from a picklable :class:`EnvSpec` and runs a fresh
simulator — so the grid fans them over a ``ProcessPoolExecutor``.

Determinism: a cell's outcome depends only on its spec (environment seed
and simulator seed), never on scheduling order, so a parallel grid returns
bit-identical summaries to a serial one.  ``executor.map`` preserves input
order, which keeps result lists stable too.

Worker processes memoize environments per :class:`EnvSpec` (profiling and
trace synthesis are the expensive, deterministic part), so a sweep of many
policies over one environment pays the build cost once per process.
Policies are built before a cell's clock starts: SMIless-family
constructors train their predictors there (cached per training series),
and ``CellResult.wall_clock`` times the simulation only.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.plan import FaultPlan
    from repro.overload.spec import OverloadSpec


@dataclass(frozen=True)
class EnvSpec:
    """Picklable recipe for :func:`repro.experiments.runners.build_environment`."""

    app: str
    preset: str = "steady"
    sla: float = 2.0
    duration: float = 600.0
    train_duration: float = 3600.0
    seed: int = 0
    #: Path to a published Azure Functions CSV whose busiest row replays
    #: as the evaluation trace (``None`` keeps the synthetic generator).
    azure_trace: str | None = None


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: an environment recipe plus a policy and simulator seed.

    ``trace_dir`` opts the cell into telemetry: the run is recorded with a
    :class:`~repro.telemetry.recorder.TraceRecorder` and the event stream is
    written as JSONL into that directory (one file per cell, named after the
    cell's coordinates).  ``None`` — the default — records nothing and adds
    no overhead.

    ``init_failure_rate`` injects per-warmup initialization failures;
    ``faults`` attaches a full :class:`~repro.faults.FaultPlan` (machine
    outages, execution faults, stragglers, resilience knobs).  Both are
    picklable, so chaos cells fan across workers like any other cell.

    ``retention`` selects record retention ("full" keeps every record,
    "sketch" folds completions into streaming accumulators for
    O(1)-memory runs — see ``docs/performance.md``).

    ``shards``/``slices_per_app`` opt the cell into the shard plane
    (:mod:`repro.sharding`): the app's trace is cut into
    ``slices_per_app`` independent time-slices, fanned over ``shards``
    worker processes, and merged at the barrier.  Requires
    ``retention="sketch"`` (snapshots are streaming-state extracts) and
    no ``trace_dir`` (per-unit runtimes would shred one telemetry
    stream); merged non-distributional metrics are bit-identical for any
    ``shards`` value over the same ``slices_per_app``.
    """

    env: EnvSpec
    policy: str
    sim_seed: int = 3
    trace_dir: str | None = None
    init_failure_rate: float = 0.0
    faults: "FaultPlan | None" = None
    #: Overload-resilience spec (bounded queues, admission control,
    #: circuit breakers, brownout); ``None`` leaves every hook inert.
    overload: "OverloadSpec | None" = None
    retention: str = "full"
    shards: int = 1
    slices_per_app: int = 1


@dataclass(frozen=True)
class MultiAppCellSpec:
    """One co-run cell: several environments sharing a cluster (§VII-A).

    ``seeding`` selects the per-app seed derivation of
    :class:`~repro.simulator.multiapp.MultiAppSimulator` ("name" is
    order-independent, "legacy" positional).  ``trace_dir`` opts the cell
    into telemetry exactly like :class:`CellSpec` (one JSONL file for the
    whole co-run, all tenants interleaved).
    """

    envs: tuple[EnvSpec, ...]
    policy: str
    sim_seed: int = 3
    seeding: str = "name"
    trace_dir: str | None = None
    init_failure_rate: float = 0.0
    faults: "FaultPlan | None" = None
    overload: "OverloadSpec | None" = None
    retention: str = "full"
    #: Shard-plane opt-in, as on :class:`CellSpec`.  Note a sharded
    #: multi-app cell runs each (app × slice) unit on its *own* cluster —
    #: it measures the apps side by side without cross-tenant
    #: back-pressure, unlike the ``shards=1`` co-run path.
    shards: int = 1
    slices_per_app: int = 1


@dataclass(frozen=True)
class CellResult:
    """Outcome of one cell, with timing for the perf microbench.

    ``extras`` carries counters absent from the golden-pinned
    ``summary()`` key set (conservation terms, swap-in counts): flat for
    a solo cell, keyed by app name for a co-run cell, empty for sharded
    cells (the merged snapshot's summary is the contract there).
    """

    spec: CellSpec
    summary: dict
    wall_clock: float
    events_processed: int
    extras: dict = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Simulator event throughput of this cell."""
        if self.wall_clock <= 0:
            return float("inf")
        return self.events_processed / self.wall_clock


@lru_cache(maxsize=8)
def _environment(spec: EnvSpec):
    """Per-process environment cache (profiling + trace synthesis are pure)."""
    from repro.experiments.runners import build_environment

    return build_environment(
        spec.app,
        preset=spec.preset,
        sla=spec.sla,
        duration=spec.duration,
        train_duration=spec.train_duration,
        seed=spec.seed,
        azure_trace=spec.azure_trace,
    )


def _make_recorder(spec: CellSpec | MultiAppCellSpec):
    """A live recorder when the cell opted into tracing, else ``None``."""
    if spec.trace_dir is None:
        return None
    from repro.telemetry.recorder import TraceRecorder

    return TraceRecorder()


def cell_trace_path(spec: CellSpec | MultiAppCellSpec) -> Path:
    """Where a traced cell writes its JSONL (named after its coordinates)."""
    assert spec.trace_dir is not None
    if isinstance(spec, MultiAppCellSpec):
        apps = "+".join(e.app for e in spec.envs)
        env = spec.envs[0]
    else:
        apps = spec.env.app
        env = spec.env
    name = (
        f"{apps}-{env.preset}-sla{env.sla:g}-{spec.policy}"
        f"-seed{spec.sim_seed}.jsonl"
    )
    return Path(spec.trace_dir) / name


def _flush_trace(spec: CellSpec | MultiAppCellSpec, recorder) -> None:
    if recorder is None:
        return
    path = cell_trace_path(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    recorder.write_jsonl(path)


def _metrics_extras(metrics, *, arrivals: int | None = None) -> dict:
    """Conservation and swap counters not part of the pinned summary keys.

    ``arrivals`` should be the *trace's* invocation count so that the
    extended conservation identity ``arrivals + injected_arrivals ==
    completed + unfinished + timed_out + shed + rejected`` is an
    independent cross-check, not a tautology (it reduces to the classic
    three-term identity when no overload spec or flash crowd is attached);
    ``None`` falls back to the metrics-side sum (sharded paths that never
    see the trace).
    """
    accounted = (
        metrics.n_completed
        + metrics.unfinished
        + metrics.timed_out
        + metrics.shed
        + metrics.rejected
        - metrics.injected_arrivals
    )
    return {
        "completed": metrics.n_completed,
        "unfinished": metrics.unfinished,
        "timed_out": metrics.timed_out,
        "shed": metrics.shed,
        "rejected": metrics.rejected,
        "injected_arrivals": metrics.injected_arrivals,
        "peak_queue_depth": metrics.peak_queue_depth,
        "arrivals": accounted if arrivals is None else arrivals,
        "initializations": metrics.initializations,
        "swap_ins": metrics.swap_ins,
    }


def run_cell(spec: CellSpec | MultiAppCellSpec) -> CellResult:
    """Build the cell's environment(s), serve the trace(s), time the run.

    A :class:`CellSpec` runs one app solo; a :class:`MultiAppCellSpec`
    co-runs its apps on one shared cluster and reports a summary dict
    keyed by app name.  Cells with a ``trace_dir`` also leave a JSONL
    telemetry trace behind (written after the clock stops, so tracing does
    not distort the perf numbers beyond event construction itself).
    """
    if spec.shards > 1 or spec.slices_per_app > 1:
        return _run_sharded_cell(spec)
    if isinstance(spec, MultiAppCellSpec):
        return _run_multiapp_cell(spec)
    from repro.simulator import ServerlessSimulator

    env = _environment(spec.env)
    recorder = _make_recorder(spec)
    # Built before the clock starts: SMIless constructors train their
    # predictors, which ``wall_clock`` must not count.
    policy = env.make_policy(spec.policy)
    start = time.perf_counter()
    sim = ServerlessSimulator(
        env.app,
        env.trace,
        policy,
        seed=spec.sim_seed,
        recorder=recorder,
        init_failure_rate=spec.init_failure_rate,
        faults=spec.faults,
        overload=spec.overload,
        retention=spec.retention,
    )
    metrics = sim.run()
    wall = time.perf_counter() - start
    _flush_trace(spec, recorder)
    return CellResult(
        spec=spec,
        summary=metrics.summary(),
        wall_clock=wall,
        events_processed=sim.events.processed,
        extras=_metrics_extras(metrics, arrivals=len(env.trace)),
    )


def _run_sharded_cell(spec: CellSpec | MultiAppCellSpec) -> CellResult:
    """Run a shard-plane cell: scatter units over processes, merge, time.

    ``wall_clock`` is the barrier wall time (what a user waits for);
    ``events_processed`` sums over every unit.  The summary keeps the
    cell-kind convention: flat dict for a solo :class:`CellSpec`, dict
    keyed by app for a :class:`MultiAppCellSpec`.
    """
    # Late import: repro.sharding imports this module for EnvSpec and the
    # environment cache.
    from repro.sharding import ShardPlan, run_sharded

    if spec.retention != "sketch":
        raise ValueError(
            "sharded cells require retention='sketch' (snapshots extract "
            f"streaming state); got retention={spec.retention!r}"
        )
    if spec.trace_dir is not None:
        raise ValueError(
            "sharded cells cannot record telemetry traces: each unit runs "
            "as its own runtime, which would shred one JSONL stream "
            "(set trace_dir=None or shards=slices_per_app=1)"
        )
    envs = spec.envs if isinstance(spec, MultiAppCellSpec) else (spec.env,)
    plan = ShardPlan.for_apps(
        [e.app for e in envs],
        n_shards=spec.shards,
        slices_per_app=spec.slices_per_app,
    )
    start = time.perf_counter()
    snapshot = run_sharded(
        plan,
        envs,
        spec.policy,
        sim_seed=spec.sim_seed,
        init_failure_rate=spec.init_failure_rate,
        faults=spec.faults,
        overload=spec.overload,
    )
    wall = time.perf_counter() - start
    summary = snapshot.summary()
    if isinstance(spec, CellSpec):
        summary = summary[spec.env.app]
    return CellResult(
        spec=spec,
        summary=summary,
        wall_clock=wall,
        events_processed=snapshot.events_processed,
    )


def _run_multiapp_cell(spec: MultiAppCellSpec) -> CellResult:
    from repro.simulator import Deployment, MultiAppSimulator

    envs = [_environment(e) for e in spec.envs]
    by_app = {env.app.name: env for env in envs}
    recorder = _make_recorder(spec)
    # Built before the clock starts, as in run_cell.
    deployments = [
        Deployment(env.app, env.trace, env.make_policy(spec.policy))
        for env in envs
    ]
    start = time.perf_counter()
    sim = MultiAppSimulator(
        deployments,
        seed=spec.sim_seed,
        seeding=spec.seeding,
        recorder=recorder,
        init_failure_rate=spec.init_failure_rate,
        faults=spec.faults,
        overload=spec.overload,
        retention=spec.retention,
    )
    results = sim.run()
    wall = time.perf_counter() - start
    _flush_trace(spec, recorder)
    return CellResult(
        spec=spec,
        summary={name: m.summary() for name, m in results.items()},
        wall_clock=wall,
        events_processed=sim.events.processed,
        extras={
            name: _metrics_extras(
                m, arrivals=len(by_app[name].trace) if name in by_app else None
            )
            for name, m in results.items()
        },
    )


def run_grid(
    cells: Sequence[CellSpec | MultiAppCellSpec], *, workers: int = 1
) -> list[CellResult]:
    """Run every cell, fanning across ``workers`` processes when > 1.

    Results come back in input order regardless of worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = list(cells)
    if workers == 1 or len(cells) <= 1:
        return [run_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        return list(pool.map(run_cell, cells))


def product_grid(
    apps: Iterable[str],
    policies: Iterable[str],
    slas: Iterable[float] = (2.0,),
    seeds: Iterable[int] = (3,),
    *,
    preset: str = "steady",
    duration: float = 600.0,
    train_duration: float = 3600.0,
    env_seed: int = 0,
) -> list[CellSpec]:
    """The (app × sla × policy × seed) cell product, in deterministic order.

    Thin wrapper over the :class:`~repro.experiments.scenario.ScenarioSpec`
    compiler — the one place cell products are built.
    """
    from repro.experiments.scenario import ScenarioSpec

    return ScenarioSpec(
        apps=tuple(apps),
        policies=tuple(policies),
        slas=tuple(slas),
        seeds=tuple(seeds),
        presets=(preset,),
        duration=duration,
        train_duration=train_duration,
        env_seed=env_seed,
    ).cells()
