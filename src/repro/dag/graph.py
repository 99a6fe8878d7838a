"""DAG abstraction for ML serving applications.

The Workflow Manager (paper §V-C2) operates on applications whose functions
form a directed acyclic graph.  :class:`AppDAG` holds the graph as plain
adjacency tuples built once at construction, with the operations the
optimizer needs: topological traversal, simple-path decomposition,
parallel-substructure discovery, and critical-path latency evaluation under
a per-function latency assignment.

The graph algorithms are small plain-Python ports that keep networkx's
orders exactly: topological order is generation-by-generation Kahn over
function-insertion order, simple paths come out in depth-first order over
successor-insertion order, and the longest path breaks ties as
``networkx.dag_longest_path`` does.  Duplicate edges collapse onto their
first occurrence, as in a ``networkx.DiGraph``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from repro.hardware.perfmodel import PerfProfile


@dataclass(frozen=True)
class FunctionSpec:
    """One serverless inference function inside an application DAG.

    ``name`` is unique within the application; ``profile`` is the
    ground-truth performance profile of the model the function serves
    (used by the simulator — the optimizer only ever sees profiler fits).
    """

    name: str
    profile: PerfProfile
    metadata: Mapping[str, str] = field(default_factory=dict)

    @property
    def model_name(self) -> str:
        """Name of the underlying Table I model."""
        return self.profile.name

    @property
    def min_batch(self) -> int:
        """Minimum batch size — defines the Invocation Predictor bucket size."""
        return self.profile.min_batch


def _topological_order(
    succ: Mapping[str, tuple[str, ...]], pred: Mapping[str, tuple[str, ...]]
) -> tuple[str, ...] | None:
    """Kahn's algorithm, one generation at a time over insertion order.

    Returns ``None`` when a cycle leaves some node with unresolved
    predecessors.
    """
    indegree = {v: len(p) for v, p in pred.items() if p}
    generation = [v for v, p in pred.items() if not p]
    order: list[str] = []
    while generation:
        order.extend(generation)
        ready: list[str] = []
        for node in generation:
            for child in succ[node]:
                indegree[child] -= 1
                if not indegree[child]:
                    del indegree[child]
                    ready.append(child)
        generation = ready
    return None if indegree else tuple(order)


class AppDAG:
    """An ML serving application: named DAG of :class:`FunctionSpec` nodes.

    Construction validates acyclicity and connectivity of every function.
    The graph is immutable after construction.
    """

    def __init__(
        self,
        name: str,
        functions: Iterable[FunctionSpec],
        edges: Iterable[tuple[str, str]],
        sla: float = 2.0,
        work_model: object | None = None,
    ) -> None:
        self.name = name
        self.sla = float(sla)
        # Optional per-invocation work distribution (e.g. a TokenWorkModel
        # for LLM apps).  ``None`` — the default — means every invocation
        # carries identical work and the gateway draws nothing extra.
        self.work_model = work_model
        if self.sla <= 0:
            raise ValueError(f"sla must be > 0, got {sla}")
        self._functions: dict[str, FunctionSpec] = {}
        for spec in functions:
            if spec.name in self._functions:
                raise ValueError(f"duplicate function name {spec.name!r}")
            self._functions[spec.name] = spec
        if not self._functions:
            raise ValueError("application must contain at least one function")

        succ: dict[str, list[str]] = {n: [] for n in self._functions}
        pred: dict[str, list[str]] = {n: [] for n in self._functions}
        for u, v in edges:
            for endpoint in (u, v):
                if endpoint not in self._functions:
                    raise ValueError(f"edge endpoint {endpoint!r} is not a function")
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if v not in succ[u]:
                succ[u].append(v)
                pred[v].append(u)
        self._succ = {n: tuple(c) for n, c in succ.items()}
        self._pred = {n: tuple(p) for n, p in pred.items()}
        topo = _topological_order(self._succ, self._pred)
        if topo is None:
            raise ValueError(f"application {name!r} contains a cycle")
        self._topo = topo
        self._sources = tuple(n for n in topo if not self._pred[n])
        self._sinks = tuple(n for n in topo if not self._succ[n])
        self._edges = tuple((u, v) for u, vs in self._succ.items() for v in vs)

    # -- basic structure ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __iter__(self) -> Iterator[str]:
        return iter(self._topo)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every ``(upstream, downstream)`` edge, grouped by upstream function
        in function-insertion order."""
        return self._edges

    @property
    def function_names(self) -> tuple[str, ...]:
        """All function names in topological order."""
        return self._topo

    def spec(self, name: str) -> FunctionSpec:
        """Look up the :class:`FunctionSpec` for ``name``."""
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"no function {name!r} in app {self.name!r}") from None

    @property
    def specs(self) -> tuple[FunctionSpec, ...]:
        """All function specs in topological order."""
        return tuple(self._functions[n] for n in self._topo)

    def predecessors(self, name: str) -> tuple[str, ...]:
        """Direct upstream functions of ``name``."""
        return self._pred[name]

    def successors(self, name: str) -> tuple[str, ...]:
        """Direct downstream functions of ``name``."""
        return self._succ[name]

    def sources(self) -> tuple[str, ...]:
        """Entry functions (no predecessors), in topological order."""
        return self._sources

    def sinks(self) -> tuple[str, ...]:
        """Exit functions (no successors), in topological order."""
        return self._sinks

    def min_batch(self) -> int:
        """Smallest ``min_batch`` over all functions (predictor bucket size)."""
        return min(spec.min_batch for spec in self._functions.values())

    # -- paths ---------------------------------------------------------------
    def simple_paths(self) -> tuple[tuple[str, ...], ...]:
        """All source→sink simple paths (the Workflow Manager decomposition).

        Each path is a maximal chain of sequential dependencies; the Strategy
        Optimizer runs the basic path-search algorithm on each in parallel
        (paper §V-C2).
        """
        paths: list[tuple[str, ...]] = []
        for s in self.sources():
            for t in self.sinks():
                if s == t:
                    paths.append((s,))
                    continue
                paths.extend(self._paths_between(s, t))
        # A single isolated node is both source and sink; dedupe.
        return tuple(dict.fromkeys(paths))

    def longest_path(self) -> tuple[str, ...]:
        """The longest source→sink path by function count.

        Ties go to the earliest predecessor (in insertion order) and then to
        the topologically earliest endpoint, as in
        ``networkx.dag_longest_path``.
        """
        # dist[v] = (edges on the longest path ending at v, predecessor on
        # it); a source points at itself.
        dist: dict[str, tuple[int, str]] = {}
        for v in self._topo:
            via = [(dist[u][0] + 1, u) for u in self._pred[v]]
            dist[v] = max(via, key=itemgetter(0)) if via else (0, v)
        v = max(dist, key=lambda n: dist[n][0])
        path = [v]
        while dist[v][1] != v:
            v = dist[v][1]
            path.append(v)
        return tuple(reversed(path))

    def _paths_between(self, source: str, target: str) -> list[tuple[str, ...]]:
        """Every ``source``→``target`` path, depth-first over successors in
        insertion order (the order ``networkx.all_simple_paths`` yields)."""
        paths: list[tuple[str, ...]] = []
        path = [source]

        def extend(node: str) -> None:
            for child in self._succ[node]:
                path.append(child)
                if child == target:
                    paths.append(tuple(path))
                else:
                    extend(child)
                path.pop()

        extend(source)
        return paths

    def longest_path_length(self) -> int:
        """Function count of the longest path (drives search complexity)."""
        return len(self.longest_path())

    def depth(self, name: str) -> int:
        """Length of the longest chain of predecessors feeding ``name``."""
        depths: dict[str, int] = {}
        for node in self._topo:
            preds = self._pred[node]
            depths[node] = 0 if not preds else 1 + max(depths[p] for p in preds)
        return depths[name]

    # -- latency evaluation --------------------------------------------------
    def critical_path_latency(self, latency: Mapping[str, float]) -> float:
        """E2E latency given per-function stage latencies.

        With adaptive pre-warming every function's initialization is hidden
        behind upstream execution, so the application's E2E latency is the
        longest cumulative stage latency over all paths (Eq. 5 generalized
        to DAGs).
        """
        finish: dict[str, float] = {}
        for node in self._topo:
            start = max(
                (finish[p] for p in self.predecessors(node)), default=0.0
            )
            finish[node] = start + float(latency[node])
        return max(finish[s] for s in self.sinks())

    def critical_path(self, latency: Mapping[str, float]) -> tuple[str, ...]:
        """The functions realizing :meth:`critical_path_latency`."""
        finish: dict[str, float] = {}
        argmax: dict[str, str | None] = {}
        for node in self._topo:
            best_pred, best_t = None, 0.0
            for p in self.predecessors(node):
                if finish[p] > best_t:
                    best_pred, best_t = p, finish[p]
            finish[node] = best_t + float(latency[node])
            argmax[node] = best_pred
        tail = max(self.sinks(), key=lambda s: finish[s])
        path = [tail]
        while argmax[path[-1]] is not None:
            path.append(argmax[path[-1]])  # type: ignore[arg-type]
        return tuple(reversed(path))

    # -- parallel substructures ------------------------------------------------
    def parallel_substructures(self) -> tuple[tuple[str, str], ...]:
        """(start, end) pairs of minimal parallel-branch substructures.

        A substructure is a fork node ``F_s`` with out-degree > 1 paired with
        its join ``F_e`` — the nearest common descendant where the branches
        reconverge.  Returned innermost-first so the Workflow Manager can
        combine smallest substructures first (paper §V-C2).
        """
        pairs: list[tuple[str, str, int]] = []
        for node in self._topo:
            if len(self._succ[node]) <= 1:
                continue
            join = self._nearest_join(node)
            if join is None:
                continue
            span = sum(len(p) for p in self._paths_between(node, join))
            pairs.append((node, join, span))
        pairs.sort(key=lambda t: t[2])
        return tuple((s, e) for s, e, _ in pairs)

    def _nearest_join(self, fork: str) -> str | None:
        """Nearest descendant reachable from *every* branch of ``fork``."""
        branch_reach: list[set[str]] = []
        for child in self._succ[fork]:
            reach = {child}
            stack = [child]
            while stack:
                for nxt in self._succ[stack.pop()]:
                    if nxt not in reach:
                        reach.add(nxt)
                        stack.append(nxt)
            branch_reach.append(reach)
        common = set.intersection(*branch_reach)
        if not common:
            return None
        # topologically earliest common descendant
        for node in self._topo:
            if node in common:
                return node
        return None

    def map_functions(self, fn: Callable[[FunctionSpec], float]) -> dict[str, float]:
        """Apply ``fn`` to every spec, returning ``{name: value}``."""
        return {name: fn(self.spec(name)) for name in self._topo}

    def with_sla(self, sla: float) -> "AppDAG":
        """A copy of this application with a different SLA target."""
        return AppDAG(
            self.name,
            self.specs,
            self._edges,
            sla=sla,
            work_model=self.work_model,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AppDAG({self.name!r}, functions={len(self)}, "
            f"edges={len(self._edges)}, sla={self.sla})"
        )
