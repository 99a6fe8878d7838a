"""Extra edge-case coverage for the event queue and graph utilities."""

import pytest

from repro.dag import AppDAG, FunctionSpec, linear_pipeline
from repro.dag.models import get_profile
from repro.simulator import EventQueue


class TestEventQueueExtras:
    def test_len_tracks_pending(self):
        q = EventQueue()
        assert len(q) == 0
        q.schedule(1.0, lambda: None)
        q.schedule(2.0, lambda: None)
        assert len(q) == 2
        q.step()
        assert len(q) == 1

    def test_run_until_same_timestamp_events(self):
        q = EventQueue()
        fired = []
        q.schedule(5.0, lambda: fired.append("a"))
        q.schedule(5.0, lambda: fired.append("b"))
        q.run_until(5.0)
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_past_quiet_horizon(self):
        q = EventQueue()
        q.run_until(42.0)
        assert q.now == 42.0

    def test_exception_in_callback_propagates(self):
        q = EventQueue()

        def boom():
            raise RuntimeError("kaboom")

        q.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="kaboom"):
            q.run()


class TestAppDagExtras:
    def test_with_sla_preserves_structure(self):
        app = linear_pipeline(3)
        copy = app.with_sla(9.0)
        assert copy.function_names == app.function_names
        assert set(copy.edges) == set(app.edges)
        assert copy.sla == 9.0

    def test_min_batch_over_functions(self):
        app = linear_pipeline(2, models=("IR", "TG"))
        assert app.min_batch() == min(s.profile.min_batch for s in app.specs)

    def test_repr_mentions_name(self):
        assert "amber" not in repr(linear_pipeline(1))
        assert "pipeline-1" in repr(linear_pipeline(1))

    def test_nested_fork_join_substructures(self):
        """Two nested diamonds: innermost substructure reported first."""
        specs = [
            FunctionSpec(n, get_profile("IR")) for n in "ABCDEFG"
        ]
        edges = [
            ("A", "B"), ("A", "F"),        # outer fork at A
            ("B", "C"), ("B", "D"),        # inner fork at B
            ("C", "E"), ("D", "E"),        # inner join at E
            ("E", "G"), ("F", "G"),        # outer join at G
        ]
        app = AppDAG("nested", specs, edges)
        subs = app.parallel_substructures()
        assert ("B", "E") in subs
        assert ("A", "G") in subs
        assert subs.index(("B", "E")) < subs.index(("A", "G"))

    def test_critical_path_on_nested(self):
        specs = [FunctionSpec(n, get_profile("IR")) for n in "ABCD"]
        edges = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
        app = AppDAG("d", specs, edges)
        lat = {"A": 1.0, "B": 1.0, "C": 4.0, "D": 1.0}
        assert app.critical_path(lat) == ("A", "C", "D")
