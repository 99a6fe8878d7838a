"""Engine-level tests for the hot-path behaviors: pending-launch retries
across functions, event-heap boundedness on long traces, and a pinned
count of the engine's work on a fixed co-run."""

import numpy as np

from repro.dag import linear_pipeline
from repro.experiments import build_environment
from repro.experiments.runners import PAPER_APPS
from repro.hardware import HardwareConfig
from repro.policies import AlwaysOnPolicy
from repro.policies import smiless as smiless_module
from repro.predictor.lstm import LSTMLayer, PrefixStateCache
from repro.simulator import (
    Cluster,
    Deployment,
    MultiAppSimulator,
    ServerlessSimulator,
)
from repro.simulator.events import EventQueue
from repro.workload import Trace


class TestRetryPendingLaunches:
    def test_one_blocked_function_does_not_starve_others(self):
        """Regression: the retry pass used to stop at the first function
        whose pending configuration did not fit, never reaching other
        functions' smaller pending launches."""
        cluster = Cluster.build(n_machines=1, cores_per_machine=8)
        app = linear_pipeline(2, models=("IR", "DB"))
        sim = ServerlessSimulator(
            app,
            Trace([50.0], duration=60.0),
            AlwaysOnPolicy(HardwareConfig.cpu(2)),
            cluster=cluster,
            seed=0,
        )
        sim.setup()
        blocked_fn, small_fn = app.function_names

        hold_big = cluster.try_allocate(HardwareConfig.cpu(4))
        hold_small = cluster.try_allocate(HardwareConfig.cpu(2))
        assert hold_big is not None and hold_small is not None

        sim.pending_launches[blocked_fn].append(HardwareConfig.cpu(8))
        sim.pending_launches[small_fn].append(HardwareConfig.cpu(2))

        # Free 2 cores: the first function's cpu(8) launch still cannot
        # fit, but the second function's cpu(2) launch now can.
        cluster.release(hold_small)
        sim._retry_pending_launches()

        assert list(sim.pending_launches[blocked_fn]) == [HardwareConfig.cpu(8)]
        assert not sim.pending_launches[small_fn]
        assert sim.pools[small_fn].initializing_count() == 1

    def test_multiple_pending_same_function_drain_in_order(self):
        cluster = Cluster.build(n_machines=1, cores_per_machine=8)
        app = linear_pipeline(1, models=("IR",))
        sim = ServerlessSimulator(
            app,
            Trace([50.0], duration=60.0),
            AlwaysOnPolicy(HardwareConfig.cpu(2)),
            cluster=cluster,
            seed=0,
        )
        sim.setup()
        (fn,) = app.function_names
        hold = cluster.try_allocate(HardwareConfig.cpu(8))
        sim.pending_launches[fn].extend(
            [HardwareConfig.cpu(2), HardwareConfig.cpu(2), HardwareConfig.cpu(8)]
        )
        cluster.release(hold)
        sim._retry_pending_launches()
        # Both cpu(2) launches fit (4 of 8 cores); the cpu(8) head remains.
        assert list(sim.pending_launches[fn]) == [HardwareConfig.cpu(8)]
        assert sim.pools[fn].initializing_count() == 2


class TestHeapBoundedness:
    def test_heap_stays_o_live_events_on_10k_invocation_trace(self):
        """With streamed arrivals the heap holds the *next* arrival and
        tick plus in-flight work — not the entire 10k-event trace."""
        times = (np.arange(10_000) * 0.05 + 0.01).tolist()
        trace = Trace(times, duration=510.0)
        app = linear_pipeline(1, models=("IR",))
        sim = ServerlessSimulator(
            app, trace, AlwaysOnPolicy(HardwareConfig.cpu(16)), seed=0
        )
        sim.setup()
        assert sim.events.heap_size < 10, "arrivals must not be pre-pushed"
        max_heap = sim.events.heap_size
        while sim.events.step():
            max_heap = max(max_heap, sim.events.heap_size)
        metrics = sim.finalize()
        assert metrics.unfinished == 0
        assert len(metrics.invocations) == 10_000
        # Far below the 10k pre-pushed arrivals the old engine held; the
        # bound covers live instances' events plus the two stream heads.
        assert max_heap < 500
        assert sim.events.processed >= 20_000


class TestWorkSignal:
    """Events fired and events scheduled on a fixed co-run, pinned exactly.

    Wall-clock gates sit on host noise; these counts do not move with the
    host, so a change that adds heap traffic per invocation fails here on
    any machine.  A change that means to alter them must say why.
    """

    def test_flood_corun_event_counts(self, monkeypatch):
        scheduled = 0
        schedule = EventQueue.schedule

        def counting(self, *args, **kwargs):
            nonlocal scheduled
            scheduled += 1
            return schedule(self, *args, **kwargs)

        monkeypatch.setattr(EventQueue, "schedule", counting)
        envs = [
            build_environment(
                app, preset="flood", duration=60.0, train_duration=300.0, seed=i
            )
            for i, app in enumerate(PAPER_APPS)
        ]
        sim = MultiAppSimulator(
            [Deployment(e.app, e.trace, e.make_policy("grandslam")) for e in envs],
            seed=0,
            retention="sketch",
        )
        sim.run()
        assert sum(len(e.trace) for e in envs) == 1164
        assert sim.events.processed == 8038
        assert scheduled == 8059

    def test_smiless_corun_predictor_work(self, monkeypatch):
        """LSTM work of a smiless co-run of the mixed benchmark's apps.

        ``last_hidden`` runs once per uncached prediction, 436 times over
        10,794 input timesteps.  Before the prefix-state cache every one
        of those timesteps was computed; now 6,856 are, the rest resumed
        from states recorded for the same input prefix.  Before the
        gap-quantile memo the policy took 481 ``np.quantile`` calls; now
        118.
        """
        # A fresh trained-predictor cache, so no earlier test's run has
        # warmed the predictors' prefix states.
        monkeypatch.setattr(smiless_module, "_PREDICTOR_CACHE", {})
        work = {"calls": 0, "steps": 0, "resumed": 0, "quantiles": 0}
        last_hidden = LSTMLayer.last_hidden
        resume = PrefixStateCache.resume
        quantile = np.quantile

        def counting_last_hidden(self, x, *args, **kwargs):
            work["calls"] += 1
            work["steps"] += x.shape[1]
            return last_hidden(self, x, *args, **kwargs)

        def counting_resume(self, *args):
            k, children = resume(self, *args)
            work["resumed"] += k
            return k, children

        def counting_quantile(*args, **kwargs):
            work["quantiles"] += 1
            return quantile(*args, **kwargs)

        monkeypatch.setattr(LSTMLayer, "last_hidden", counting_last_hidden)
        monkeypatch.setattr(PrefixStateCache, "resume", counting_resume)
        monkeypatch.setattr(np, "quantile", counting_quantile)
        pins = (
            ("amber-alert", "steady", 2.0),
            ("image-query-swap", "bursty", 1.0),
            ("llm-chat", "steady", 6.0),
        )
        envs = [
            build_environment(
                app, preset=preset, sla=sla, duration=120.0,
                train_duration=600.0, seed=1,
            )
            for app, preset, sla in pins
        ]
        sim = MultiAppSimulator(
            [Deployment(e.app, e.trace, e.make_policy("smiless")) for e in envs],
            seed=1,
            retention="sketch",
        )
        sim.run()
        assert sim.events.processed == 1684
        assert work["calls"] == 436
        assert work["steps"] == 10_794
        assert work["steps"] - work["resumed"] == 6_856
        assert work["quantiles"] == 118
