"""Layer tracer: spans around calls into each layer's public functions.

The benchmark never edits the program.  For a traced run, :func:`install`
replaces the public methods of each layer (and a few module-level
functions) with wrappers that time each call and keep, per function, a
call count, inclusive time, self time (inclusive minus the time of
wrapped calls made inside it) and an optional "hit" count for ratios.
Everything stays in memory; :func:`layer_table` folds it into the
per-layer metrics when the run ends.

Event-queue callbacks are private gateway handlers, so the gateway layer
is measured by wrapping each callback as it passes through the public
``EventQueue.schedule``: the span of the fired callback is the gateway
span, and ``EventQueue.step`` minus that span is the event queue's own
cost.

Untraced runs install only :func:`install_emit_counter`, which wraps the
recorders' ``emit`` (never called when telemetry is off, so it costs
nothing) to prove that telemetry stays silent.
"""

from __future__ import annotations

import time
from typing import Any, Callable


class LayerTracer:
    """In-memory per-function span statistics with self time."""

    def __init__(self) -> None:
        #: (layer, name) -> [calls, inclusive_s, self_s, hits]
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[float] = []
        #: Inclusive time of spans with no wrapped caller.
        self._top = [0.0]

    # ------------------------------------------------------------ spans
    def spanner(
        self,
        layer: str,
        name: str,
        hit: Callable[[Any], bool] | None = None,
    ) -> Callable[[Callable], Callable]:
        """A function that wraps callables in spans of ``layer.name``."""
        st = self.stats.setdefault((layer, name), [0, 0.0, 0.0, 0])
        stack = self._stack
        top = self._top
        clock = time.perf_counter

        def wrap(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    st[0] += 1
                    st[1] += d
                    st[2] += d - stack.pop()
                    if stack:
                        stack[-1] += d
                    else:
                        top[0] += d
                if hit is not None and hit(result):
                    st[3] += 1
                return result

            return traced

        return wrap

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        name: str | None = None,
        hit: Callable[[Any], bool] | None = None,
        around: Callable[[Callable], Callable] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (class method or module function) by a span.

        ``around`` pre-wraps the original before timing, for wrappers that
        must see or rewrite arguments (the schedule hook).
        """
        original = getattr(owner, attr)
        target = around(original) if around is not None else original
        setattr(owner, attr, self.spanner(layer, name or attr, hit)(target))

    def reset(self) -> None:
        """Zero every statistic (call between phases, at stack depth 0)."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]
        self._top[0] = 0.0

    # ------------------------------------------------------------ readout
    @property
    def top_level_s(self) -> float:
        """Inclusive time of outermost spans since the last reset."""
        return self._top[0]

    def calls(self, layer: str, name: str | None = None) -> int:
        return sum(
            st[0]
            for (lay, nm), st in self.stats.items()
            if lay == layer and (name is None or nm == name)
        )

    def hits(self, layer: str, name: str) -> int:
        st = self.stats.get((layer, name))
        return st[3] if st else 0

    def self_s(self, layer: str) -> float:
        return sum(st[2] for (lay, _), st in self.stats.items() if lay == layer)

    def inclusive_s(self, layer: str, names: tuple[str, ...]) -> float:
        return sum(
            st[1]
            for (lay, nm), st in self.stats.items()
            if lay == layer and nm in names
        )

    def ratio(self, layer: str, name: str) -> float:
        """Hits over calls of one function (0.0 when never called)."""
        n = self.calls(layer, name)
        return self.hits(layer, name) / n if n else 0.0


LOG_METHODS = ("header", "request", "response", "summary", "flush", "close")


def _schedule_hook(tracer: LayerTracer) -> Callable[[Callable], Callable]:
    """``EventQueue.schedule`` pre-wrapper: span every callback as gateway."""
    handler = tracer.spanner("gateway", "handler")

    def around(schedule: Callable) -> Callable:
        def hooked(queue, time, callback, *args, **kwargs):
            return schedule(queue, time, handler(callback), *args, **kwargs)

        return hooked

    return around


def _predict_hook(tracer: LayerTracer) -> Callable[[Callable], Callable]:
    """``predict_next`` pre-wrapper: count calls that ran no LSTM forward."""
    forward = tracer.stats.setdefault(("predictor", "last_hidden"), [0, 0.0, 0.0, 0])
    cached = tracer.stats.setdefault(("predictor", "predict_cached"), [0, 0.0, 0.0, 0])

    def around(predict: Callable) -> Callable:
        def hooked(*args, **kwargs):
            before = forward[0]
            result = predict(*args, **kwargs)
            if forward[0] == before:
                cached[0] += 1
            return result

        return hooked

    return around


def install(tracer: LayerTracer, policy: str) -> None:
    """Wrap every layer's public entry points for one traced run."""
    from repro.core import path_search, workflow
    from repro.experiments import runners
    from repro.hardware.perfmodel import GroundTruthPerformance
    from repro.metrics.sketch import QuantileSketch
    from repro.policies.registry import get_policy_spec
    from repro.predictor.baselines import (
        ArimaPredictor,
        FipPredictor,
        SlidingWindowPredictor,
    )
    from repro.predictor.gbrt import GbrtPredictor
    from repro.predictor.interarrival import InterArrivalPredictor
    from repro.predictor.invocation import InvocationPredictor
    from repro.predictor.lstm import LSTMLayer
    from repro.profiler import OfflineProfiler
    from repro.simulator.cluster import Cluster, ModelResidencyCache
    from repro.simulator.events import EventQueue, TimerHandle
    from repro.simulator.gateway import Gateway
    from repro.simulator.metrics import RunMetrics
    from repro.simulator.multiapp import MultiAppSimulator
    from repro.simulator.pools import InstancePool
    from repro.simulator.runtime import Runtime

    p = tracer.patch
    # Set-up phases.
    p(runners, "build_environment", "setup.trace")
    p(OfflineProfiler, "profile_app", "setup.profile")
    p(runners, "oracle_profile", "setup.profile")
    p(runners, "pretrain_predictors", "setup.pretrain")
    p(runners.Environment, "make_policy", "setup.policy")
    p(MultiAppSimulator, "__init__", "setup.runtime", name="multiapp_init")
    p(Runtime, "setup", "setup.runtime")
    # Event queue and the gateway handlers it fires.
    p(EventQueue, "schedule", "events", around=_schedule_hook(tracer))
    p(EventQueue, "schedule_in", "events")
    p(EventQueue, "step", "events", hit=bool)
    p(EventQueue, "next_time", "events")
    p(EventQueue, "reserve", "events")
    p(TimerHandle, "cancel", "events", hit=bool)
    p(Gateway, "finalize", "gateway")
    for name in (
        "add", "transition", "remove", "live_count", "idle_count",
        "initializing_count", "warm_count", "uncommitted_count",
        "backend_live_counts", "idle_sorted",
    ):
        p(InstancePool, name, "pools")
    p(InstancePool, "pick_idle", "pools", hit=lambda r: r is not None)
    p(Cluster, "try_allocate", "cluster", hit=lambda r: r is None)
    p(Cluster, "release", "cluster")
    p(ModelResidencyCache, "resident", "cluster", hit=bool)
    for name in ("touch", "admit", "evict"):
        p(ModelResidencyCache, name, "cluster")
    for name in ("inference_time", "init_time", "swap_in_time"):
        p(GroundTruthPerformance, name, "oracle")
    policy_cls = get_policy_spec(policy).cls
    for name in ("on_register", "on_window", "on_arrival", "on_stage_complete"):
        p(policy_cls, name, "policy")
    p(workflow.WorkflowManager, "optimize", "core")
    p(path_search, "build_candidates", "core")
    p(workflow, "build_candidates", "core")
    for cls in (
        InvocationPredictor,
        InterArrivalPredictor,
        GbrtPredictor,
        ArimaPredictor,
        FipPredictor,
        SlidingWindowPredictor,
    ):
        p(cls, "predict_next", "predictor", around=_predict_hook(tracer))
    p(LSTMLayer, "last_hidden", "predictor")
    for name in ("record_arrival", "record_completion", "record_instance"):
        p(RunMetrics, name, "metrics")
    p(QuantileSketch, "add", "metrics")


def install_serving(tracer: LayerTracer) -> None:
    """Wrap the serving layer's public entry points (serve workload)."""
    from repro.serving.driver import SimDriver
    from repro.serving.requestlog import RequestLogWriter

    p = tracer.patch
    p(SimDriver, "__init__", "setup.runtime", name="driver_init")
    p(SimDriver, "start", "setup.runtime")
    for name in ("submit", "advance_while_busy", "advance_to", "finish"):
        p(SimDriver, name, "serving")
    for name in LOG_METHODS:
        p(RequestLogWriter, name, "serving.log")


def install_emit_counter(tracer: LayerTracer) -> None:
    """Count telemetry emits; free when telemetry is off (never called)."""
    from repro.telemetry.recorder import NullRecorder, TraceRecorder

    tracer.patch(NullRecorder, "emit", "telemetry")
    tracer.patch(TraceRecorder, "emit", "telemetry")


def layer_table(
    tracer: LayerTracer,
    *,
    loop_s: float,
    setup: dict[str, float],
    open_at_horizon: int,
    compactions: int,
    serving: bool,
) -> dict[str, float]:
    """Fold span statistics into the benchmark's per-layer metrics.

    ``loop_s`` is the host time from the end of set-up to the end of
    finalization; the part of it no outermost span covers is unclaimed.
    On the serve workload that remainder is the HTTP front door (parsing,
    asyncio, handler glue), which has no public function to wrap.
    """
    t = tracer
    predict_calls = t.calls("predictor", "predict_next")
    unclaimed = max(0.0, loop_s - t.top_level_s)
    self_by_layer = {
        layer: t.self_s(layer) for layer in ENGINE_LAYERS + DECISION_LAYERS
    }
    layer_self = sum(self_by_layer.values()) + t.self_s("oracle")
    return {
        **{f"setup.{k}_s": v for k, v in setup.items()},
        "events.fired": t.hits("events", "step"),
        "events.scheduled": t.calls("events", "schedule"),
        "events.cancelled": t.hits("events", "cancel"),
        "events.compactions": compactions,
        "events.self_s": self_by_layer["events"],
        "gateway.self_s": self_by_layer["gateway"],
        "gateway.handler_calls": t.calls("gateway", "handler"),
        "gateway.open_at_horizon": open_at_horizon,
        "pools.calls": t.calls("pools"),
        "pools.transitions": t.calls("pools", "transition"),
        "pools.pick_idle_hit_ratio": t.ratio("pools", "pick_idle"),
        "pools.self_s": self_by_layer["pools"],
        "cluster.alloc_attempts": t.calls("cluster", "try_allocate"),
        "cluster.alloc_refused_ratio": t.ratio("cluster", "try_allocate"),
        "cluster.residency_hit_ratio": t.ratio("cluster", "resident"),
        "cluster.self_s": self_by_layer["cluster"],
        "oracle.calls": t.calls("oracle"),
        "oracle.self_s": t.self_s("oracle"),
        "policy.on_window_calls": t.calls("policy", "on_window"),
        "policy.on_arrival_calls": t.calls("policy", "on_arrival"),
        "policy.self_s": self_by_layer["policy"],
        "core.optimize_calls": t.calls("core", "optimize"),
        "core.self_s": self_by_layer["core"],
        "predictor.predict_calls": predict_calls,
        "predictor.forward_calls": t.calls("predictor", "last_hidden"),
        "predictor.cache_hit_ratio": (
            t.calls("predictor", "predict_cached") / predict_calls
            if predict_calls
            else 0.0
        ),
        "predictor.self_s": self_by_layer["predictor"],
        "metrics.record_calls": t.calls("metrics"),
        "metrics.self_s": self_by_layer["metrics"],
        "telemetry.emits": t.calls("telemetry"),
        "serving.submit_calls": t.calls("serving", "submit"),
        "serving.advance_s": t.inclusive_s(
            "serving", ("advance_while_busy", "advance_to")
        ),
        "serving.log_s": t.inclusive_s("serving.log", LOG_METHODS),
        "serving.front_door_s": unclaimed if serving else 0.0,
        "loop.host_s": loop_s,
        "loop.unattributed_ratio": unclaimed / loop_s if loop_s > 0 else 0.0,
        "loop.engine_share": (
            sum(self_by_layer[k] for k in ENGINE_LAYERS) / layer_self
            if layer_self
            else 0.0
        ),
        "loop.decision_share": (
            sum(self_by_layer[k] for k in DECISION_LAYERS) / layer_self
            if layer_self
            else 0.0
        ),
    }


#: Layers whose self time counts as the simulation engine.
ENGINE_LAYERS = ("events", "gateway", "pools", "cluster", "metrics")
#: Layers whose self time counts as the decision path.
DECISION_LAYERS = ("policy", "core", "predictor")
