"""Tests for the AppDAG abstraction (structure, paths, latency evaluation)."""

import re

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dag import AppDAG, FunctionSpec, apps
from repro.dag.apps import random_dag
from repro.dag.models import get_profile
from repro.experiments.runners import APP_BUILDERS


def spec(name: str, model: str = "IR") -> FunctionSpec:
    return FunctionSpec(name=name, profile=get_profile(model))


def chain(*names: str) -> AppDAG:
    specs = [spec(n) for n in names]
    edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return AppDAG("chain", specs, edges)


def diamond() -> AppDAG:
    specs = [spec(n) for n in "ABCD"]
    edges = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
    return AppDAG("diamond", specs, edges)


class TestConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            AppDAG("bad", [spec("A"), spec("B")], [("A", "B"), ("B", "A")])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            AppDAG("bad", [spec("A")], [("A", "A")])

    def test_rejects_duplicate_function(self):
        with pytest.raises(ValueError, match="duplicate"):
            AppDAG("bad", [spec("A"), spec("A")], [])

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            AppDAG("bad", [spec("A")], [("A", "Z")])

    def test_rejects_empty_app(self):
        with pytest.raises(ValueError):
            AppDAG("bad", [], [])

    def test_rejects_nonpositive_sla(self):
        with pytest.raises(ValueError):
            AppDAG("bad", [spec("A")], [], sla=0.0)

    def test_single_function_app(self):
        app = AppDAG("solo", [spec("A")], [])
        assert app.sources() == app.sinks() == ("A",)
        assert app.simple_paths() == (("A",),)


class TestStructure:
    def test_topological_iteration(self):
        app = diamond()
        order = list(app)
        assert order.index("A") < order.index("B") < order.index("D")
        assert order.index("A") < order.index("C") < order.index("D")

    def test_predecessors_successors(self):
        app = diamond()
        assert set(app.predecessors("D")) == {"B", "C"}
        assert set(app.successors("A")) == {"B", "C"}

    def test_sources_sinks(self):
        app = diamond()
        assert app.sources() == ("A",)
        assert app.sinks() == ("D",)

    def test_spec_lookup(self):
        app = diamond()
        assert app.spec("A").name == "A"
        with pytest.raises(KeyError):
            app.spec("Z")

    def test_depth(self):
        app = chain("A", "B", "C")
        assert [app.depth(n) for n in "ABC"] == [0, 1, 2]

    def test_diamond_depth(self):
        app = diamond()
        assert app.depth("D") == 2

    def test_contains_and_len(self):
        app = diamond()
        assert "A" in app and "Z" not in app
        assert len(app) == 4

    def test_with_sla(self):
        app = diamond().with_sla(5.0)
        assert app.sla == 5.0
        assert len(app) == 4


class TestPaths:
    def test_simple_paths_of_diamond(self):
        assert set(diamond().simple_paths()) == {
            ("A", "B", "D"),
            ("A", "C", "D"),
        }

    def test_longest_path_of_chain(self):
        app = chain("A", "B", "C", "D")
        assert app.longest_path() == ("A", "B", "C", "D")
        assert app.longest_path_length() == 4

    def test_critical_path_latency_chain_is_sum(self):
        app = chain("A", "B", "C")
        lat = {"A": 1.0, "B": 2.0, "C": 3.0}
        assert app.critical_path_latency(lat) == pytest.approx(6.0)

    def test_critical_path_latency_diamond_is_max_branch(self):
        app = diamond()
        lat = {"A": 1.0, "B": 5.0, "C": 2.0, "D": 1.0}
        assert app.critical_path_latency(lat) == pytest.approx(7.0)
        assert app.critical_path(lat) == ("A", "B", "D")

    def test_parallel_substructure_of_diamond(self):
        assert diamond().parallel_substructures() == (("A", "D"),)

    def test_no_parallel_substructure_in_chain(self):
        assert chain("A", "B", "C").parallel_substructures() == ()

    def test_fork_without_join_is_skipped(self):
        # A fans out to two sinks that never reconverge.
        app = AppDAG(
            "fan", [spec("A"), spec("B"), spec("C")], [("A", "B"), ("A", "C")]
        )
        assert app.parallel_substructures() == ()
        assert set(app.simple_paths()) == {("A", "B"), ("A", "C")}

    def test_map_functions(self):
        app = chain("A", "B")
        out = app.map_functions(lambda s: float(len(s.name)))
        assert out == {"A": 1.0, "B": 1.0}


class TestPropertyBased:
    @given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_random_dag_invariants(self, n, seed):
        app = random_dag(n, rng=seed)
        assert len(app) == n
        # every simple path starts at a source and ends at a sink
        sources, sinks = set(app.sources()), set(app.sinks())
        for path in app.simple_paths():
            assert path[0] in sources
            assert path[-1] in sinks
        # critical path latency >= max single-stage latency
        lat = {name: 1.0 for name in app.function_names}
        assert app.critical_path_latency(lat) >= 1.0
        assert app.critical_path_latency(lat) == app.longest_path_length()

    @given(n=st.integers(min_value=2, max_value=10), seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_critical_path_is_consistent_with_latency(self, n, seed):
        import numpy as np

        app = random_dag(n, rng=seed)
        rng = np.random.default_rng(seed)
        lat = {name: float(rng.uniform(0.1, 2.0)) for name in app.function_names}
        path = app.critical_path(lat)
        total = sum(lat[f] for f in path)
        assert total == pytest.approx(app.critical_path_latency(lat))


# -- differential test against networkx --------------------------------------
# AppDAG keeps its own adjacency and graph algorithms; networkx (a test-only
# dependency) is the oracle for every order and tie-break they must match.


def nx_view(names, edges, latency):
    """What the networkx-backed AppDAG returned for the same inputs."""
    g = nx.DiGraph()
    g.add_nodes_from(names)
    g.add_edges_from(edges)
    topo = tuple(nx.topological_sort(g))
    sources = tuple(n for n in topo if g.in_degree(n) == 0)
    sinks = tuple(n for n in topo if g.out_degree(n) == 0)
    paths = []
    for s in sources:
        for t in sinks:
            if s == t:
                paths.append((s,))
            else:
                paths.extend(tuple(p) for p in nx.all_simple_paths(g, s, t))
    pairs = []
    for node in topo:
        if g.out_degree(node) <= 1:
            continue
        reach = [nx.descendants(g, c) | {c} for c in g.successors(node)]
        common = set.intersection(*reach)
        join = next((n for n in topo if n in common), None)
        if join is not None:
            span = sum(len(p) for p in nx.all_simple_paths(g, node, join))
            pairs.append((node, join, span))
    pairs.sort(key=lambda t: t[2])
    finish, argmax = {}, {}
    for node in topo:
        best_pred, best_t = None, 0.0
        for p in g.predecessors(node):
            if finish[p] > best_t:
                best_pred, best_t = p, finish[p]
        finish[node] = best_t + latency[node]
        argmax[node] = best_pred
    path = [max(sinks, key=lambda s: finish[s])]
    while argmax[path[-1]] is not None:
        path.append(argmax[path[-1]])
    return {
        "function_names": topo,
        "successors": {n: tuple(g.successors(n)) for n in names},
        "predecessors": {n: tuple(g.predecessors(n)) for n in names},
        "sources": sources,
        "sinks": sinks,
        "edges": tuple(g.edges),
        "simple_paths": tuple(dict.fromkeys(paths)),
        "longest_path": tuple(nx.dag_longest_path(g)),
        "parallel_substructures": tuple((s, e) for s, e, _ in pairs),
        "critical_path": tuple(reversed(path)),
    }


def app_view(app, latency):
    names = app.function_names
    return {
        "function_names": app.function_names,
        "successors": {n: app.successors(n) for n in names},
        "predecessors": {n: app.predecessors(n) for n in names},
        "sources": app.sources(),
        "sinks": app.sinks(),
        "edges": app.edges,
        "simple_paths": app.simple_paths(),
        "longest_path": app.longest_path(),
        "parallel_substructures": app.parallel_substructures(),
        "critical_path": app.critical_path(latency),
    }


def assert_matches_networkx(names, edges, app, latency):
    expected = nx_view(names, edges, latency)
    got = app_view(app, latency)
    for key in expected:
        assert got[key] == expected[key], key


@st.composite
def dag_inputs(draw):
    """Function names in random insertion order and a random edge list
    (duplicates included, random order) that is acyclic by construction."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = draw(st.permutations([f"f{i}" for i in range(n)]))
    rank = {name: i for i, name in enumerate(draw(st.permutations(names)))}
    edges = []
    if n > 1:
        pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
        for u, v in draw(st.lists(pairs, max_size=3 * n)):
            if u != v:
                edges.append((u, v) if rank[u] < rank[v] else (v, u))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    edges = draw(st.permutations(edges))
    weights = draw(
        st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=n, max_size=n)
    )
    return list(names), list(edges), dict(zip(names, weights))


class TestAgainstNetworkx:
    @pytest.mark.parametrize("name", sorted(APP_BUILDERS))
    def test_registered_apps(self, name, monkeypatch):
        built = []

        class Recording(AppDAG):
            def __init__(self, app_name, functions, edges, **kwargs):
                functions, edges = list(functions), list(edges)
                built.append(([f.name for f in functions], edges))
                super().__init__(app_name, functions, edges, **kwargs)

        monkeypatch.setattr(apps, "AppDAG", Recording)
        app = APP_BUILDERS[name]()
        names, edges = built[-1]
        latency = {n: 1.0 + 0.25 * i for i, n in enumerate(names)}
        assert_matches_networkx(names, edges, app, latency)

    @given(dag_inputs())
    @settings(max_examples=200, deadline=None)
    def test_random_dags(self, inputs):
        names, edges, latency = inputs
        app = AppDAG("rand", [spec(n) for n in names], edges)
        assert_matches_networkx(names, edges, app, latency)

    @given(dag_inputs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cycles_raise(self, inputs, data):
        names, edges, _ = inputs
        assume(edges)
        u, v = data.draw(st.sampled_from(edges))
        at = data.draw(st.integers(0, len(edges)))
        cyclic = edges[:at] + [(v, u)] + edges[at:]
        g = nx.DiGraph(cyclic)
        assert not nx.is_directed_acyclic_graph(g)
        with pytest.raises(
            ValueError, match=re.escape("application 'cyc' contains a cycle")
        ):
            AppDAG("cyc", [spec(n) for n in names], cyclic)

    @given(dag_inputs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_self_loops_raise(self, inputs, data):
        names, edges, _ = inputs
        node = data.draw(st.sampled_from(names))
        at = data.draw(st.integers(0, len(edges)))
        looped = edges[:at] + [(node, node)] + edges[at:]
        with pytest.raises(ValueError, match=re.escape(f"self-loop on {node!r}")):
            AppDAG("loop", [spec(n) for n in names], looped)
