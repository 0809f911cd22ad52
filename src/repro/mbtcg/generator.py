"""Suite generation: model-check, enumerate, dedup, and stamp statistics.

This is the orchestration layer of MBTCG.  :func:`generate_suite` runs the
state-retaining checker to obtain the reachable :class:`StateGraph` (or
accepts one the caller already has), applies a strategy from
:mod:`repro.mbtcg.strategies`, and packages the surviving behaviours as
:class:`~repro.mbtcg.testcase.TestCase` objects plus the statistics
(enumerated count, dedup ratio, tests/sec) that ``benchmarks/`` tracks.

Parallel generation shards behaviour enumeration over graph partitions: the
edges leaving the initial states are split round-robin across a process
pool.  Each worker rebuilds the spec from its registry name (the same
mechanism :mod:`repro.engine.parallel` uses -- see
:mod:`repro.tla.registry`), receives the coordinator's already-explored
graph as plain value tuples and edge triples (so the state space is
explored exactly once, not once per worker), and enumerates only behaviours
whose first transition lies in its partition.  The coordinator merges,
deduplicates and canonically orders the results, so ``workers=N`` produces
byte-identical suites to ``workers=1``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..engine import check_spec
from ..tla.errors import ReproError
from ..tla.graph import StateGraph
from ..tla.spec import Specification
from ..tla.state import State
from .strategies import (
    STRATEGIES,
    coverage_minimized,
    coverage_pairs,
    dedup_behaviours,
    exhaustive_behaviours,
    random_sampled,
    state_classes,
)
from .testcase import Behaviour, TestCase

__all__ = [
    "GeneratedSuite",
    "GenerationError",
    "GenerationStats",
    "build_graph",
    "generate_suite",
]


class GenerationError(ReproError):
    """Test-case generation cannot proceed (broken spec, bad parameters)."""


@dataclass
class GenerationStats:
    """Generation throughput and dedup accounting for one suite."""

    enumerated: int = 0
    emitted: int = 0
    duration_seconds: float = 0.0
    graph_states: int = 0
    graph_edges: int = 0
    coverage_pair_count: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Fraction of enumerated behaviours that survived as test cases."""
        if self.enumerated <= 0:
            return 1.0
        return self.emitted / self.enumerated

    @property
    def tests_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.emitted / self.duration_seconds


@dataclass
class GeneratedSuite:
    """One generated test suite plus everything emitters need to write it."""

    spec_name: str
    registry_ref: Optional[Tuple[str, Dict[str, Any]]]
    variables: Tuple[str, ...]
    strategy: str
    max_length: int
    seed: Optional[int]
    #: The requested sample size for the random strategy (``None`` otherwise);
    #: may exceed ``len(cases)`` when the graph has fewer distinct walks.
    n_tests: Optional[int] = None
    cases: List[TestCase] = field(default_factory=list)
    stats: GenerationStats = field(default_factory=GenerationStats)

    def __len__(self) -> int:
        return len(self.cases)

    def traces(self) -> List[List[State]]:
        """Every case as a state sequence, ready for ``check_traces``."""
        return [case.trace() for case in self.cases]

    def action_names(self) -> Set[str]:
        """The distinct action names the suite exercises."""
        return {name for case in self.cases for name in case.action_names()}

    def summary(self) -> str:
        stats = self.stats
        return (
            f"MBTCG {self.spec_name}/{self.strategy}: {len(self.cases)} test "
            f"case(s) from {stats.enumerated} enumerated behaviour(s) "
            f"(dedup ratio {stats.dedup_ratio:.2f}) over {stats.graph_states} "
            f"state(s) in {stats.duration_seconds:.2f}s"
        )


def build_graph(
    spec: Specification, *, max_states: Optional[int] = None
) -> StateGraph:
    """Model-check ``spec`` and return its retained reachable state graph.

    A spec whose invariants fail cannot seed test generation -- its graph
    stops at the counterexample -- so violations raise
    :class:`GenerationError` instead of yielding a silently partial corpus.
    Truncation by ``max_states`` is allowed: every enumerated behaviour is
    still a genuine behaviour prefix and replays cleanly.
    """
    result = check_spec(
        spec, collect_graph=True, check_properties=False, max_states=max_states
    )
    if result.invariant_violation is not None:
        raise GenerationError(
            f"cannot generate tests from {spec.name!r}: "
            f"{result.invariant_violation}"
        )
    assert result.graph is not None
    return result.graph


# ---------------------------------------------------------------------------
# Parallel worker side: rebuild the spec and graph, enumerate one partition.
# ---------------------------------------------------------------------------

_GEN_GRAPH: Optional[StateGraph] = None

#: A behaviour serialized for the pool: (actions, per-state value tuples).
_WireBehaviour = Tuple[Tuple[Optional[str], ...], Tuple[Tuple[Any, ...], ...]]

#: A graph serialized for the pool: (state value tuples, edge triples,
#: initial node ids).  States travel as values and are rebuilt against the
#: worker's registry-built spec schema, mirroring the parallel checker's
#: minimal-pickle convention.
_GraphPayload = Tuple[
    Tuple[Tuple[Any, ...], ...],
    Tuple[Tuple[int, str, int], ...],
    Tuple[int, ...],
]


def _graph_payload(graph: StateGraph) -> _GraphPayload:
    return (
        tuple(state.values for state in graph.states()),
        tuple((edge.source, edge.action, edge.target) for edge in graph.edges),
        graph.initial_ids,
    )


def _rebuild_graph(schema: Any, payload: _GraphPayload) -> StateGraph:
    """Inverse of :func:`_graph_payload`; node ids and orders are preserved."""
    state_values, edges, initial = payload
    graph = StateGraph()
    for values in state_values:
        graph.add_state(State.from_values(schema, values))
    for node_id in initial:
        graph.add_state(graph.state_of(node_id), initial=True)
    for source, action, target in edges:
        graph.add_edge(source, action, target)
    return graph


def _generation_worker_init(
    registry_name: str,
    params: Dict[str, Any],
    provider_modules: List[str],
    payload: _GraphPayload,
) -> None:
    global _GEN_GRAPH
    from ..tla import registry

    registry.adopt_providers(provider_modules)
    spec = registry.build_spec(registry_name, **params)
    _GEN_GRAPH = _rebuild_graph(spec.schema, payload)


def _initial_out_edges(graph: StateGraph) -> List[Any]:
    """The partitioning units: edges leaving initial states, in stable order."""
    return [edge for node in graph.initial_ids for edge in graph.outgoing(node)]


def _generate_partition(
    edge_indices: List[int], max_length: int
) -> Tuple[List[_WireBehaviour], int]:
    """Enumerate one partition's behaviours; ship value tuples, not States."""
    graph = _GEN_GRAPH
    assert graph is not None
    all_first = _initial_out_edges(graph)
    first_edges = [all_first[index] for index in edge_indices]
    behaviours, enumerated = dedup_behaviours(
        graph.behaviours(max_length=max_length, first_edges=first_edges)
    )
    wire = [
        (
            tuple(action for action, _state in behaviour),
            tuple(state.values for _action, state in behaviour),
        )
        for behaviour in behaviours
    ]
    return wire, enumerated


def _enumerate_parallel(
    spec: Specification,
    graph: StateGraph,
    *,
    max_length: int,
    workers: int,
) -> Tuple[List[Behaviour], int]:
    """Exhaustive enumeration sharded over first-edge partitions."""
    if spec.registry_ref is None:
        raise GenerationError(
            f"workers={workers} requires a registered specification, but "
            f"{spec.name!r} has no registry_ref; build it via "
            "repro.tla.registry.build_spec so worker processes can rebuild it"
        )
    first = _initial_out_edges(graph)
    if max_length < 2 or not first:
        # Nothing to partition: only singleton behaviours exist.
        return exhaustive_behaviours(graph, max_length=max_length)

    from ..tla.registry import PROVIDER_MODULES

    registry_name, params = spec.registry_ref
    partitions: List[List[int]] = [[] for _ in range(min(workers, len(first)))]
    for index in range(len(first)):
        partitions[index % len(partitions)].append(index)

    behaviours: List[Behaviour] = []
    enumerated = 0
    with ProcessPoolExecutor(
        max_workers=len(partitions),
        initializer=_generation_worker_init,
        initargs=(registry_name, params, list(PROVIDER_MODULES), _graph_payload(graph)),
    ) as pool:
        futures = [
            pool.submit(_generate_partition, partition, max_length)
            for partition in partitions
        ]
        for future in futures:
            wire, count = future.result()
            enumerated += count
            for actions, state_values in wire:
                behaviours.append(
                    [
                        (action, State.from_values(spec.schema, values))
                        for action, values in zip(actions, state_values)
                    ]
                )
    # Initial states with no outgoing edges never appear in a partition but
    # are legitimate (terminal) behaviours of length one.
    for node in graph.initial_ids:
        if not graph.outgoing(node):
            behaviours.append([(None, graph.state_of(node))])
            enumerated += 1
    unique, _ = dedup_behaviours(behaviours)
    return unique, enumerated


# ---------------------------------------------------------------------------
# The public entry point.
# ---------------------------------------------------------------------------


def generate_suite(
    spec: Specification,
    *,
    strategy: str = "exhaustive",
    max_length: int = 6,
    n_tests: int = 50,
    seed: int = 0,
    workers: int = 1,
    graph: Optional[StateGraph] = None,
    max_states: Optional[int] = None,
) -> GeneratedSuite:
    """Generate a deduplicated test suite from ``spec``'s state graph.

    ``strategy`` is one of :data:`~repro.mbtcg.strategies.STRATEGIES`;
    ``n_tests`` and ``seed`` apply to ``"random"``, ``workers`` to the
    enumeration behind ``"exhaustive"`` and ``"coverage"``.  Cases are
    ordered canonically (by length, then case id) so equal inputs produce
    byte-identical suites regardless of worker count.
    """
    if strategy not in STRATEGIES:
        raise GenerationError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if max_length < 1:
        raise GenerationError("max_length must be >= 1")
    if workers < 1:
        raise GenerationError("workers must be >= 1")
    started = time.perf_counter()
    if graph is None:
        graph = build_graph(spec, max_states=max_states)

    if strategy == "random":
        behaviours, enumerated = random_sampled(
            graph, max_length=max_length, n_tests=n_tests, seed=seed
        )
    elif workers > 1:
        behaviours, enumerated = _enumerate_parallel(
            spec, graph, max_length=max_length, workers=workers
        )
        if strategy == "coverage":
            behaviours, _ = coverage_minimized(
                graph, max_length=max_length, candidates=behaviours
            )
    elif strategy == "coverage":
        behaviours, enumerated = coverage_minimized(graph, max_length=max_length)
    else:
        behaviours, enumerated = exhaustive_behaviours(graph, max_length=max_length)

    classes = state_classes(graph)
    pairs = set()
    for behaviour in behaviours:
        pairs |= coverage_pairs(graph, behaviour, classes)

    cases = [TestCase.from_behaviour(behaviour) for behaviour in behaviours]
    cases.sort(key=lambda case: (len(case), case.case_id))
    stats = GenerationStats(
        enumerated=enumerated,
        emitted=len(cases),
        duration_seconds=time.perf_counter() - started,
        graph_states=len(graph),
        graph_edges=len(graph.edges),
        coverage_pair_count=len(pairs),
    )
    return GeneratedSuite(
        spec_name=spec.name,
        registry_ref=spec.registry_ref,
        variables=tuple(spec.schema.names),
        strategy=strategy,
        max_length=max_length,
        seed=seed if strategy == "random" else None,
        n_tests=n_tests if strategy == "random" else None,
        cases=cases,
        stats=stats,
    )
