"""Experiment runners: environments, comparisons, sweeps, co-runs.

Every runner compiles its axes through the
:class:`~repro.experiments.scenario.ScenarioSpec` compiler and executes
through :func:`~repro.experiments.parallel.run_grid` — serial execution is
``workers=1`` on the same path, not a separate branch.  Hand-rolled
environments (``env.spec is None``) cannot be rebuilt inside worker
processes; those fall back to direct in-process execution and *warn* when
``workers > 1`` was requested.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.faults.plan import FaultPlan
    from repro.overload.spec import OverloadSpec

from repro.dag import (
    amber_alert,
    image_query,
    image_query_swap,
    llm_chat,
    voice_assistant,
)
from repro.dag.graph import AppDAG
from repro.experiments.parallel import (
    CellSpec,
    EnvSpec,
    MultiAppCellSpec,
    run_grid,
)
from repro.experiments.scenario import ScenarioSpec
from repro.policies import make_policy as registry_make_policy
from repro.policies import policy_names
from repro.profiler import OfflineProfiler, oracle_profile
from repro.simulator import (
    Deployment,
    MultiAppSimulator,
    RunMetrics,
    ServerlessSimulator,
)
from repro.workload import AzureLikeWorkload, AzureTraceWorkload, Trace

APP_BUILDERS = {
    "amber-alert": amber_alert,
    "image-query": image_query,
    "voice-assistant": voice_assistant,
    # Beyond-paper archetypes (see docs/paper_mapping.md): token-driven
    # LLM serving and GPU model swapping.
    "llm-chat": llm_chat,
    "image-query-swap": image_query_swap,
}

#: The paper's three evaluation apps (Fig. 7): the default app list of
#: the macro benchmark, pinned by name so registering an app cannot
#: change what it measures.
PAPER_APPS = ("amber-alert", "image-query", "voice-assistant")

#: All registered policy names (see :mod:`repro.policies.registry`).
POLICY_NAMES = policy_names()


def __getattr__(name: str):
    # ``pretrain_predictors`` used to be called from build_environment and
    # stays importable from here; predictor training now belongs to the
    # SMIless policies, which train (through a shared cache) when built.
    if name == "pretrain_predictors":
        from repro.policies.smiless import pretrain_predictors

        return pretrain_predictors
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _warn_serial_fallback(what: str, workers: int) -> None:
    warnings.warn(
        f"{what} carries no build spec (env.spec is None), so it cannot be "
        f"rebuilt in worker processes; ignoring workers={workers} and "
        "running serially in-process. Build environments with "
        "build_environment() to enable parallel execution.",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass
class Environment:
    """A profiled application plus its training history and eval trace."""

    app: AppDAG
    profiles: dict
    oracle: dict
    train_counts: np.ndarray
    trace: Trace
    # Picklable recipe this environment was built from; lets parallel
    # runners rebuild it inside worker processes.  ``None`` for hand-rolled
    # environments, which then fall back to serial execution.
    spec: EnvSpec | None = None

    def make_policy(self, name: str):
        """Instantiate a policy by registry name (see ``repro.policies.registry``)."""
        return registry_make_policy(name, self)


def build_environment(
    app_name: str,
    *,
    preset: str = "steady",
    sla: float = 2.0,
    duration: float = 600.0,
    train_duration: float = 3600.0,
    seed: int = 0,
    azure_trace: str | None = None,
) -> Environment:
    """Profile an evaluation app and synthesize its workload.

    ``azure_trace`` replays the published Azure Functions CSV at ``PATH``
    as the *evaluation* trace (``repro scenario --azure-trace``); training
    history stays synthetic (the dataset is one day — replaying it for
    both would leak the eval arrivals into predictor training).
    """
    try:
        app = APP_BUILDERS[app_name](sla=sla)
    except KeyError:
        raise KeyError(
            f"unknown application {app_name!r}; "
            f"available: {', '.join(APP_BUILDERS)}"
        ) from None
    profiles = OfflineProfiler().profile_app(app, rng=seed)
    oracle = {s.name: oracle_profile(s.profile, n_sigma=1.0) for s in app.specs}
    train = AzureLikeWorkload.preset(preset, seed=seed).generate(train_duration)
    if azure_trace is not None:
        trace = AzureTraceWorkload(azure_trace).generate(
            duration, seed=seed + 1000
        )
    else:
        trace = AzureLikeWorkload.preset(preset, seed=seed + 1000).generate(
            duration
        )
    return Environment(
        app=app,
        profiles=profiles,
        oracle=oracle,
        train_counts=train.counts_per_window(1.0),
        trace=trace,
        spec=EnvSpec(
            app=app_name,
            preset=preset,
            sla=sla,
            duration=duration,
            train_duration=train_duration,
            seed=seed,
            azure_trace=azure_trace,
        ),
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One policy's outcome in a comparison run."""

    policy: str
    total_cost: float
    violation_ratio: float
    mean_latency: float
    p99_latency: float
    reinit_fraction: float

    @classmethod
    def from_metrics(cls, policy: str, m: RunMetrics) -> "ComparisonRow":
        return cls.from_summary(policy, m.summary())

    @classmethod
    def from_summary(cls, policy: str, s: dict) -> "ComparisonRow":
        return cls(
            policy=policy,
            total_cost=s["total_cost"],
            violation_ratio=s["violation_ratio"],
            mean_latency=s["mean_latency"],
            p99_latency=s["p99_latency"],
            reinit_fraction=s["reinit_fraction"],
        )


def run_comparison(
    env: Environment,
    policies: tuple[str, ...] = ("smiless", "orion", "icebreaker", "grandslam"),
    *,
    seed: int = 3,
    workers: int = 1,
    init_failure_rate: float = 0.0,
    faults: "FaultPlan | None" = None,
    overload: "OverloadSpec | None" = None,
    retention: str = "full",
) -> list[ComparisonRow]:
    """Serve the environment's trace under each policy.

    Compiles to grid cells through the scenario compiler and runs through
    :func:`run_grid` — with ``workers > 1`` policies fan across worker
    processes, and summaries are identical to a serial run.
    ``init_failure_rate`` / ``faults`` inject the same failure regime into
    every policy's run, making chaos comparisons apples-to-apples.
    """
    if env.spec is None:
        if workers > 1:
            _warn_serial_fallback("run_comparison environment", workers)
        return [
            ComparisonRow.from_metrics(
                name,
                ServerlessSimulator(
                    env.app,
                    env.trace,
                    env.make_policy(name),
                    seed=seed,
                    init_failure_rate=init_failure_rate,
                    faults=faults,
                    overload=overload,
                    retention=retention,
                ).run(),
            )
            for name in policies
        ]
    scenario = ScenarioSpec.for_environment(
        env.spec,
        policies=tuple(policies),
        seeds=(seed,),
        init_failure_rate=init_failure_rate,
        faults=faults,
        overload=overload,
        retention=retention,
    )
    return [
        ComparisonRow.from_summary(res.spec.policy, res.summary)
        for res in run_grid(scenario.cells(), workers=workers)
    ]


def run_sla_sweep(
    env: Environment,
    slas: tuple[float, ...],
    policy: str = "smiless",
    *,
    seed: int = 3,
    workers: int = 1,
    init_failure_rate: float = 0.0,
    faults: "FaultPlan | None" = None,
    overload: "OverloadSpec | None" = None,
    retention: str = "full",
) -> list[tuple[float, ComparisonRow]]:
    """Re-serve the trace at each SLA target under one policy.

    With ``workers > 1`` the SLA points run in parallel worker processes,
    through the same grid path a serial run uses.
    """
    if env.spec is None:
        if workers > 1:
            _warn_serial_fallback("run_sla_sweep environment", workers)
        out = []
        for sla in slas:
            app = env.app.with_sla(sla)
            tuned = Environment(
                app=app,
                profiles=env.profiles,
                oracle=env.oracle,
                train_counts=env.train_counts,
                trace=env.trace,
            )
            metrics = ServerlessSimulator(
                app,
                env.trace,
                tuned.make_policy(policy),
                seed=seed,
                init_failure_rate=init_failure_rate,
                faults=faults,
                overload=overload,
                retention=retention,
            ).run()
            out.append((sla, ComparisonRow.from_metrics(policy, metrics)))
        return out
    scenario = ScenarioSpec.for_environment(
        env.spec,
        policies=(policy,),
        slas=tuple(slas),
        seeds=(seed,),
        init_failure_rate=init_failure_rate,
        faults=faults,
        overload=overload,
        retention=retention,
    )
    return [
        (sla, ComparisonRow.from_summary(policy, res.summary))
        for sla, res in zip(slas, run_grid(scenario.cells(), workers=workers))
    ]


def run_multi_app(
    envs: list[Environment],
    policies: str | tuple[str, ...] = "smiless",
    *,
    seed: int = 3,
    workers: int = 1,
    seeding: str = "name",
    init_failure_rate: float = 0.0,
    faults: "FaultPlan | None" = None,
    overload: "OverloadSpec | None" = None,
    retention: str = "full",
) -> dict[str, ComparisonRow] | dict[str, dict[str, ComparisonRow]]:
    """Co-run several environments on one shared cluster (§VII-A).

    With a single policy name the return value is ``{app: row}``; with a
    tuple of policies it is ``{policy: {app: row}}`` and ``workers > 1``
    fans one co-run cell per policy across worker processes (through the
    same :func:`run_grid` path as serial execution).
    """
    if not envs:
        raise ValueError("need at least one environment")
    single = isinstance(policies, str)
    names = (policies,) if single else tuple(policies)
    specs = [env.spec for env in envs]
    if any(spec is None for spec in specs):
        if workers > 1:
            _warn_serial_fallback("run_multi_app environment", workers)
        results = {}
        for name in names:
            deployments = [
                Deployment(env.app, env.trace, env.make_policy(name))
                for env in envs
            ]
            metrics = MultiAppSimulator(
                deployments,
                seed=seed,
                seeding=seeding,
                init_failure_rate=init_failure_rate,
                faults=faults,
                overload=overload,
                retention=retention,
            ).run()
            results[name] = {
                app: ComparisonRow.from_metrics(name, m)
                for app, m in metrics.items()
            }
    else:
        cells = [
            MultiAppCellSpec(
                envs=tuple(specs),
                policy=name,
                sim_seed=seed,
                seeding=seeding,
                init_failure_rate=init_failure_rate,
                faults=faults,
                overload=overload,
                retention=retention,
            )
            for name in names
        ]
        results = {
            res.spec.policy: {
                app: ComparisonRow.from_summary(res.spec.policy, summary)
                for app, summary in res.summary.items()
            }
            for res in run_grid(cells, workers=workers)
        }
    return results[names[0]] if single else results


@dataclass(frozen=True)
class ScenarioRow:
    """One (app, policy) outcome of a scenario cell, with its coordinates."""

    app: str
    preset: str
    sla: float
    env_seed: int
    sim_seed: int
    policy: str
    row: ComparisonRow


def run_scenario(
    scenario: ScenarioSpec, *, workers: int = 1
) -> list[ScenarioRow]:
    """Compile and run a scenario end-to-end; one row per (app, policy) cell.

    Co-run cells expand to one row per co-resident app so the output shape
    is uniform across solo and multi-tenant scenarios.
    """
    rows: list[ScenarioRow] = []
    for res in run_grid(scenario.cells(), workers=workers):
        if isinstance(res.spec, MultiAppCellSpec):
            by_app = {e.app: e for e in res.spec.envs}
            for app_name, summary in res.summary.items():
                env = by_app[app_name]
                rows.append(
                    ScenarioRow(
                        app=app_name,
                        preset=env.preset,
                        sla=env.sla,
                        env_seed=env.seed,
                        sim_seed=res.spec.sim_seed,
                        policy=res.spec.policy,
                        row=ComparisonRow.from_summary(
                            res.spec.policy, summary
                        ),
                    )
                )
        else:
            env = res.spec.env
            rows.append(
                ScenarioRow(
                    app=env.app,
                    preset=env.preset,
                    sla=env.sla,
                    env_seed=env.seed,
                    sim_seed=res.spec.sim_seed,
                    policy=res.spec.policy,
                    row=ComparisonRow.from_summary(res.spec.policy, res.summary),
                )
            )
    return rows
