"""One measured process of a benchmark workload.

``run.py`` starts this script once per repeat, passing the
``time.perf_counter()`` reading it took just before spawning, so every
phase is timed from process start (``perf_counter`` is the system-wide
monotonic clock on Linux, shared by parent and child).  The process
writes one JSON result file and exits; ``run.py`` does every check.

Modes:

- ``corun`` ``--stepping second``: builds the environments, constructs
  ``MultiAppSimulator``, and drives its ``Runtime`` one simulated second
  at a time through the public ``events.run_until`` (to time host
  milliseconds per simulated second and to sample
  ``Runtime.open_invocations`` at each quarter of the horizon), then runs
  ``Runtime.run``'s drain and finalization tail.  The untraced
  measurement and the traced stability-guard run both use it.
- ``corun`` ``--stepping none``: an unstepped traced reference through
  ``run_cell(MultiAppCellSpec)``, whose ``CellResult.extras`` carry the
  conservation counters.
- ``serve``: hosts ``repro serve`` (``repro.cli.main``) for the serve
  workload; the client is a separate process.

A stepped loop runs a calibration unit (``speed.py``) every
``TICK_EVERY`` simulated seconds and once after the last step; the serve
loop is calibrated by the client.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from speed import Speedometer  # noqa: E402
from tracer import (  # noqa: E402
    LayerTracer,
    install,
    install_emit_counter,
    install_serving,
    layer_table,
)
from workloads import Workload, env_kwargs  # noqa: E402

#: Simulated seconds between calibration units in a stepped loop.
TICK_EVERY = 20

COUNTER_FIELDS = (
    "completed", "unfinished", "timed_out", "shed", "rejected",
    "injected_arrivals",
)


def counters_of(metrics) -> dict[str, int]:
    """Conservation counters of one app's ``RunMetrics``."""
    return {
        "completed": metrics.n_completed,
        "unfinished": metrics.unfinished,
        "timed_out": metrics.timed_out,
        "shed": metrics.shed,
        "rejected": metrics.rejected,
        "injected_arrivals": metrics.injected_arrivals,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phases:
    """Marks the set-up/loop boundary and snapshots the tracer there."""

    def __init__(self, tracer: LayerTracer | None, spawned_at: float,
                 speed: Speedometer) -> None:
        self.tracer = tracer
        self.spawned_at = spawned_at
        self.speed = speed
        self.imported_at: float | None = None
        self.loop_start: float | None = None
        self.loop_end: float | None = None
        self.setup: dict[str, float] = {}

    def start_loop(self) -> None:
        self.loop_start = time.perf_counter()
        t = self.tracer
        if t is not None:
            self.setup = {
                "import": self.imported_at - self.spawned_at,
                "profile": t.self_s("setup.profile"),
                "trace": t.self_s("setup.trace"),
                "pretrain": t.self_s("setup.pretrain"),
                "policy": t.self_s("setup.policy"),
                "runtime": t.self_s("setup.runtime"),
            }
            t.reset()

    def end_loop(self) -> None:
        self.loop_end = time.perf_counter()


def mark_after(owner, attr: str, hook) -> None:
    """Call ``hook()`` each time ``owner.attr`` returns."""
    inner = getattr(owner, attr)

    def marked(*args, **kwargs):
        result = inner(*args, **kwargs)
        hook()
        return result

    setattr(owner, attr, marked)


def corun(args, workload, phases: Phases, tracer: LayerTracer | None) -> dict:
    from repro.experiments import runners
    from repro.experiments.parallel import EnvSpec, MultiAppCellSpec, run_cell
    from repro.simulator import Deployment, MultiAppSimulator
    from repro.simulator.runtime import Runtime

    phases.imported_at = time.perf_counter()
    if tracer is not None:
        install(tracer, workload.policy)
    mark_after(Runtime, "setup", phases.start_loop)
    horizon = workload.horizon
    samples: list[int] = []
    step_ms: list[float] = []

    if args.stepping == "none":
        cell = MultiAppCellSpec(
            envs=tuple(
                EnvSpec(pin.app, **env_kwargs(workload, pin, args.seed))
                for pin in workload.apps
            ),
            policy=workload.policy,
            sim_seed=args.seed,
            retention=workload.retention,
        )
        res = run_cell(cell)
        phases.end_loop()
        summaries = res.summary
        counters = {
            app: {k: ex[k] for k in COUNTER_FIELDS} for app, ex in res.extras.items()
        }
        arrivals = {app: ex["arrivals"] for app, ex in res.extras.items()}
        events = res.events_processed
        compactions = -1
        open_at_horizon = -1
    else:
        envs = [
            runners.build_environment(
                pin.app, **env_kwargs(workload, pin, args.seed)
            )
            for pin in workload.apps
        ]
        sim = MultiAppSimulator(
            [Deployment(e.app, e.trace, e.make_policy(workload.policy)) for e in envs],
            seed=args.seed,
            retention=workload.retention,
        )
        runtime = sim.runtime
        runtime.setup()
        queue = runtime.events
        quarter = int(horizon) // 4
        clock = time.perf_counter
        t_prev = clock()
        for k in range(1, 4 * quarter + 1):
            queue.run_until(float(k))
            now = clock()
            step_ms.append((now - t_prev) * 1e3)
            if k % quarter == 0:
                samples.append(runtime.open_invocations)
            if k % TICK_EVERY == 0:
                phases.speed.tick()
            t_prev = clock()
        phases.speed.tick()
        # Runtime.run's tail: bounded drain, then per-gateway finalization.
        deadline = horizon + runtime.drain_timeout
        while runtime.open_invocations > 0 and queue.now < deadline:
            if not queue.step():
                break
        metrics = {gw.app.name: gw.finalize() for gw in runtime.gateways}
        phases.end_loop()
        summaries = {app: m.summary() for app, m in metrics.items()}
        counters = {app: counters_of(m) for app, m in metrics.items()}
        arrivals = {e.app.name: len(e.trace) for e in envs}
        compactions = queue.compactions
        open_at_horizon = samples[-1]
        events = queue.processed
    return {
        "summaries": summaries,
        "counters": counters,
        "arrivals": arrivals,
        "events": events,
        "open_samples": samples,
        "step_ms": step_ms,
        "table": None if tracer is None else layer_table(
            tracer,
            loop_s=(phases.loop_end - phases.loop_start
                    - phases.speed.paused),
            setup=phases.setup,
            open_at_horizon=open_at_horizon,
            compactions=compactions,
            serving=False,
        ),
    }


def serve(args, workload, phases: Phases, tracer: LayerTracer | None) -> dict:
    from repro import cli
    from repro.serving.driver import SimDriver

    phases.imported_at = time.perf_counter()
    if tracer is not None:
        install(tracer, workload.policy)
        install_serving(tracer)
    result: dict = {"table": None}
    finish = SimDriver.finish

    def finish_and_mark(self):
        # finish() runs again (cached) when the request-log footer is built.
        if phases.loop_end is not None:
            return finish(self)
        open_at_horizon = self.runtime.open_invocations
        metrics = finish(self)
        phases.end_loop()
        queue = self.runtime.events
        result["events"] = queue.processed
        if tracer is not None:
            result["table"] = layer_table(
                tracer,
                loop_s=phases.loop_end - phases.loop_start,
                setup=phases.setup,
                open_at_horizon=open_at_horizon,
                compactions=queue.compactions,
                serving=True,
            )
        return metrics

    SimDriver.finish = finish_and_mark
    mark_after(SimDriver, "start", phases.start_loop)
    rc = cli.main([
        "serve",
        "--scenario", args.scenario,
        "--port", "0",
        "--pacing", workload.pacing,
        "--log", args.log,
        "--max-requests", str(workload.requests),
    ])
    if rc != 0:
        raise SystemExit(f"repro serve exited with {rc}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["corun", "serve"])
    parser.add_argument(
        "--workload", required=True, help="the pinned Workload as JSON"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--stepping", choices=["second", "none"], default="second"
    )
    parser.add_argument("--scenario", help="serve: ScenarioSpec JSON path")
    parser.add_argument("--log", help="serve: request-log path")
    args = parser.parse_args(argv)
    workload = Workload.from_json(args.workload)

    speed = Speedometer(TICK_EVERY)
    tracer = LayerTracer()
    install_emit_counter(tracer)
    traced = tracer if args.traced else None
    phases = Phases(traced, args.spawned_at, speed)
    run = corun if args.mode == "corun" else serve
    result = run(args, workload, phases, traced)
    reported_at = time.perf_counter()
    result.update(
        {
            "imported_at": phases.imported_at,
            "loop_start": phases.loop_start,
            "loop_end": phases.loop_end,
            "reported_at": reported_at,
            "peak_rss_mb": peak_rss_mb(),
            "emits": tracer.calls("telemetry"),
            "speed": speed.to_dict(),
        }
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
