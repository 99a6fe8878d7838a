"""Tests for the discrete-event queue."""

import pytest

from repro.simulator import EventQueue


class TestEventQueue:
    def test_fires_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(3.0, lambda: fired.append("c"))
        q.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        q = EventQueue()
        fired = []
        for tag in "xyz":
            q.schedule(1.0, lambda t=tag: fired.append(t))
        q.run()
        assert fired == ["x", "y", "z"]

    def test_now_advances(self):
        q = EventQueue()
        seen = []
        q.schedule(5.0, lambda: seen.append(q.now))
        q.run()
        assert seen == [5.0]
        assert q.now == 5.0

    def test_past_events_clamped_to_now(self):
        q = EventQueue()
        fired = []
        q.schedule(10.0, lambda: q.schedule(1.0, lambda: fired.append(q.now)))
        q.run()
        assert fired == [10.0]

    def test_schedule_in_relative(self):
        q = EventQueue()
        seen = []
        q.schedule(2.0, lambda: q.schedule_in(3.0, lambda: seen.append(q.now)))
        q.run()
        assert seen == [5.0]

    def test_schedule_in_rejects_negative(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule_in(-1.0, lambda: None)

    def test_schedule_rejects_nonfinite(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(float("inf"), lambda: None)

    def test_run_until_stops_at_horizon(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(10.0, lambda: fired.append(10))
        q.run_until(5.0)
        assert fired == [1]
        assert q.now == 5.0
        assert len(q) == 1

    def test_step_stops_at_horizon_but_drops_dead_heads(self):
        q = EventQueue()
        fired = []
        q.schedule(5.0, lambda: fired.append("dead")).cancel()
        q.schedule(6.0, lambda: fired.append("live"))
        assert q.heap_size == 2
        assert q.step(4.0) is False
        # The cancelled head went on the way; the live event stays.
        assert fired == [] and q.heap_size == 1 and q.now == 0.0
        assert q.step(6.0) is True
        assert fired == ["live"] and q.now == 6.0

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_events_can_schedule_events(self):
        q = EventQueue()
        count = []

        def chain(n):
            count.append(n)
            if n < 5:
                q.schedule_in(1.0, lambda: chain(n + 1))

        q.schedule(0.0, lambda: chain(0))
        q.run()
        assert count == [0, 1, 2, 3, 4, 5]
        assert q.now == 5.0

    def test_run_budget_guard(self):
        q = EventQueue()

        def forever():
            q.schedule_in(1.0, forever)

        q.schedule(0.0, forever)
        with pytest.raises(RuntimeError, match="budget"):
            q.run(max_events=100)
