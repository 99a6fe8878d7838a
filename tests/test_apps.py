"""Tests for the evaluation applications (Fig. 7) and synthetic DAG builders."""

import pytest

from repro.dag import (
    amber_alert,
    evaluation_apps,
    image_query,
    linear_pipeline,
    random_dag,
    voice_assistant,
)


class TestEvaluationApps:
    def test_amber_alert_structure(self):
        app = amber_alert()
        assert len(app) == 6
        assert app.sources() == ("OD",)
        assert app.sinks() == ("TRS",)
        assert set(app.successors("OD")) == {"IR", "FR", "HAP"}
        assert app.longest_path_length() == 4

    def test_image_query_structure(self):
        app = image_query()
        assert len(app) == 4
        assert app.sources() == ("IR",)
        assert app.sinks() == ("TG",)
        assert app.longest_path_length() == 3

    def test_voice_assistant_structure(self):
        app = voice_assistant()
        assert len(app) == 5
        assert app.sources() == ("SR",)
        assert app.sinks() == ("TTS",)
        assert app.longest_path_length() == 4

    def test_default_sla_is_two_seconds(self):
        for app in evaluation_apps():
            assert app.sla == 2.0

    def test_custom_sla_propagates(self):
        apps = evaluation_apps(sla=5.0)
        assert all(a.sla == 5.0 for a in apps)

    def test_all_have_parallel_substructures(self):
        # every Fig. 7 workload contains at least one fork-join
        for app in evaluation_apps():
            assert len(app.parallel_substructures()) >= 1

    def test_amber_alert_paths(self):
        paths = amber_alert().simple_paths()
        assert len(paths) == 3
        assert all(p[0] == "OD" and p[-1] == "TRS" for p in paths)


class TestSyntheticBuilders:
    def test_linear_pipeline_lengths(self):
        for n in (1, 2, 5, 12):
            app = linear_pipeline(n)
            assert len(app) == n
            assert app.longest_path_length() == n
            assert len(app.simple_paths()) == 1

    def test_linear_pipeline_rejects_zero(self):
        with pytest.raises(ValueError):
            linear_pipeline(0)

    def test_linear_pipeline_custom_models(self):
        app = linear_pipeline(3, models=("TRS",))
        assert all(s.model_name == "TRS" for s in app.specs)

    def test_random_dag_deterministic(self):
        a, b = random_dag(8, rng=42), random_dag(8, rng=42)
        assert a.function_names == b.function_names
        assert set(a.edges) == set(b.edges)

    def test_random_dag_rejects_zero(self):
        with pytest.raises(ValueError):
            random_dag(0)

    def test_random_dag_connected(self):
        import networkx as nx

        app = random_dag(10, rng=1, edge_prob=0.05)
        graph = nx.DiGraph(app.edges)
        graph.add_nodes_from(app.function_names)
        assert nx.is_weakly_connected(graph)
