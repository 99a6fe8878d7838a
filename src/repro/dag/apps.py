"""Builders for the evaluation applications (paper Fig. 7) and synthetic DAGs.

The exact Fig. 7 artwork is not part of the text, so the three application
topologies are reconstructed from the prose descriptions in §VII-A; see
DESIGN.md §4 for the rationale.  ``linear_pipeline`` and ``random_dag`` build
synthetic applications for the overhead study (Fig. 16) and property tests.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.dag.graph import AppDAG, FunctionSpec
from repro.dag.models import get_profile, model_names
from repro.hardware.configs import Backend
from repro.hardware.perfmodel import InitTimeParams, LatencyParams, PerfProfile
from repro.hardware.servicetime import (
    TokenBackendCurve,
    TokenServiceTime,
    TokenThroughputCurve,
    WorkUnit,
)
from repro.utils.rng import ensure_rng
from repro.workload.generator import TokenWorkModel

#: Default SLA target (seconds) used throughout the evaluation (§VII-A).
DEFAULT_SLA = 2.0

#: Default SLA for the LLM archetype — generation is long and heavy-tailed,
#: so the paper's 2 s target would be unconditionally infeasible.
LLM_SLA = 6.0

#: Host→GPU swap-in time as a fraction of the GPU cold-start mean
#: (Torpor/FaaSwap report order-of-magnitude gaps; we use ~1/8).
SWAP_FRACTION = 0.12


def _spec(name: str, model: str | None = None) -> FunctionSpec:
    return FunctionSpec(name=name, profile=get_profile(model or name))


def amber_alert(sla: float = DEFAULT_SLA) -> AppDAG:
    """WL1 — AMBER Alert: object detection fans out to vehicle/person/pose
    analysis, results fuse into an alert message, which is then translated.
    """
    functions = [
        _spec("OD"),
        _spec("IR"),
        _spec("FR"),
        _spec("HAP"),
        _spec("TG"),
        _spec("TRS"),
    ]
    edges = [
        ("OD", "IR"),
        ("OD", "FR"),
        ("OD", "HAP"),
        ("IR", "TG"),
        ("FR", "TG"),
        ("HAP", "TG"),
        ("TG", "TRS"),
    ]
    return AppDAG("amber-alert", functions, edges, sla=sla)


def image_query(sla: float = DEFAULT_SLA) -> AppDAG:
    """WL2 — Image Query: recognition feeds two language-understanding
    branches whose outputs fuse into a natural-language description.
    """
    functions = [_spec("IR"), _spec("DB"), _spec("TM"), _spec("TG")]
    edges = [("IR", "DB"), ("IR", "TM"), ("DB", "TG"), ("TM", "TG")]
    return AppDAG("image-query", functions, edges, sla=sla)


def voice_assistant(sla: float = DEFAULT_SLA) -> AppDAG:
    """WL3 — Voice Assistant: speech-to-text, parallel language analysis,
    answer generation, then speech synthesis.
    """
    functions = [_spec("SR"), _spec("DB"), _spec("NER"), _spec("QA"), _spec("TTS")]
    edges = [
        ("SR", "DB"),
        ("SR", "NER"),
        ("DB", "QA"),
        ("NER", "QA"),
        ("QA", "TTS"),
    ]
    return AppDAG("voice-assistant", functions, edges, sla=sla)


def evaluation_apps(sla: float = DEFAULT_SLA) -> tuple[AppDAG, AppDAG, AppDAG]:
    """The three Fig. 7 workloads with a common SLA target."""
    return (amber_alert(sla), image_query(sla), voice_assistant(sla))


def llm_profile(typical: WorkUnit | None = None) -> PerfProfile:
    """Ground truth for a mid-size generative LLM stage (beyond the paper).

    Service time is token-driven (:class:`TokenServiceTime`): prefill
    processes the prompt in parallel, decode generates output tokens
    autoregressively at a resources-dependent tokens/sec rate.  The
    ``cpu``/``gpu`` latency laws carried alongside are the typical-work
    collapse of the token model, so planners that never pass work (the
    profiler grid, the co-optimizer) see a consistent fixed-latency view.
    Cold starts are heavy (multi-GB weights); numbers follow the Table I
    conventions (λ, network constant, init dispersion).
    """
    typical = typical or WorkUnit(tokens_in=256, tokens_out=128)
    tokens = TokenServiceTime(
        cpu=TokenBackendCurve(
            prefill=TokenThroughputCurve(lam=1.08, alpha=0.02, beta=0.001),
            decode=TokenThroughputCurve(lam=1.08, alpha=0.05, beta=0.01),
            gamma=0.02,
        ),
        gpu=TokenBackendCurve(
            prefill=TokenThroughputCurve(lam=1.0, alpha=0.0004, beta=0.0002),
            decode=TokenThroughputCurve(lam=1.0, alpha=0.002, beta=0.008),
            gamma=0.02,
        ),
        typical=typical,
    )
    return PerfProfile(
        name="LLM",
        cpu=LatencyParams(*tokens.equivalent_law(Backend.CPU)),
        gpu=LatencyParams(*tokens.equivalent_law(Backend.GPU)),
        init_cpu=InitTimeParams(mean=4.0, std=0.32),
        init_gpu=InitTimeParams(mean=12.0, std=1.44),
        mem_knee_gb=10.0,
        max_batch=8,
        service_model=tokens,
    )


def llm_chat(sla: float = LLM_SLA) -> AppDAG:
    """LLM chat archetype: guard → generate → safety filter.

    A lightweight classifier gates the prompt, a token-driven LLM stage
    generates the reply, and a moderation model screens the output.  The
    application carries a :class:`~repro.workload.generator.TokenWorkModel`
    so every invocation draws its own prompt/generation lengths — service
    times are variable and heavy-tailed, the regime the fixed-latency
    paper model cannot express.
    """
    work = TokenWorkModel()
    functions = [
        _spec("GD", "DB"),
        FunctionSpec(name="LLM", profile=llm_profile(work.typical)),
        _spec("SF", "TM"),
    ]
    edges = [("GD", "LLM"), ("LLM", "SF")]
    return AppDAG("llm-chat", functions, edges, sla=sla, work_model=work)


def _swap_capable(profile: PerfProfile, fraction: float = SWAP_FRACTION) -> PerfProfile:
    """A copy of ``profile`` whose model can page host↔GPU memory."""
    mean = fraction * profile.init_gpu.mean
    return dataclasses.replace(
        profile, swap_gpu=InitTimeParams(mean=mean, std=0.2 * mean)
    )


def image_query_swap(sla: float = DEFAULT_SLA) -> AppDAG:
    """WL2 with swap-capable models (Torpor/FaaSwap-style GPU paging).

    Identical topology and latency laws to :func:`image_query`; the only
    difference is that once a model's weights are host-resident, bringing
    it onto a GPU costs a swap-in (≪ cold start) instead of a full
    initialization.  Pairing runs of the two apps isolates the value of
    swapping.
    """
    base = image_query(sla)
    functions = [
        dataclasses.replace(spec, profile=_swap_capable(spec.profile))
        for spec in base.specs
    ]
    return AppDAG("image-query-swap", functions, base.edges, sla=sla)


def linear_pipeline(
    length: int, sla: float = DEFAULT_SLA, models: tuple[str, ...] | None = None
) -> AppDAG:
    """A sequential chain of ``length`` functions (Fig. 16 overhead study).

    Models cycle through the registry unless ``models`` is given.  Function
    names are suffixed with their position so repeated models stay distinct.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    pool = models or model_names()
    functions = [
        FunctionSpec(name=f"f{i}-{pool[i % len(pool)]}", profile=get_profile(pool[i % len(pool)]))
        for i in range(length)
    ]
    edges = [
        (functions[i].name, functions[i + 1].name) for i in range(length - 1)
    ]
    return AppDAG(f"pipeline-{length}", functions, edges, sla=sla)


def random_dag(
    n_functions: int,
    *,
    edge_prob: float = 0.3,
    sla: float = DEFAULT_SLA,
    rng: int | np.random.Generator | None = None,
) -> AppDAG:
    """A random layered DAG over registry models (property-test workhorse).

    Functions are placed in a random topological order; each ordered pair is
    connected with probability ``edge_prob``.  Nodes left unreachable are
    chained to the previous node so the application stays weakly connected.
    """
    if n_functions < 1:
        raise ValueError(f"n_functions must be >= 1, got {n_functions}")
    gen = ensure_rng(rng)
    pool = model_names()
    functions = []
    for i in range(n_functions):
        model = pool[int(gen.integers(len(pool)))]
        functions.append(FunctionSpec(name=f"f{i}-{model}", profile=get_profile(model)))

    parent = list(range(n_functions))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: list[tuple[str, str]] = []
    for i in range(n_functions):
        for j in range(i + 1, n_functions):
            if gen.random() < edge_prob:
                edges.append((functions[i].name, functions[j].name))
                parent[find(j)] = find(i)
    # Keep the graph weakly connected: chain any disconnected component onto
    # the previous node (edges stay forward in index order, so acyclic).
    for i in range(1, n_functions):
        if find(i) != find(0):
            edges.append((functions[i - 1].name, functions[i].name))
            parent[find(i)] = find(i - 1)
    return AppDAG(f"random-{n_functions}", functions, edges, sla=sla)
