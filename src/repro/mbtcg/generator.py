"""Suite generation: model-check, enumerate, dedup, and stamp statistics.

This is the orchestration layer of MBTCG.  :func:`generate_suite` runs the
state-retaining checker to obtain the reachable :class:`StateGraph` (or
accepts one the caller already has), applies a strategy from
:mod:`repro.mbtcg.strategies`, and packages the surviving behaviours as
:class:`~repro.mbtcg.testcase.TestCase` objects plus the statistics
(enumerated count, dedup ratio, tests/sec) that ``benchmarks/`` tracks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Annotated, Any, Dict, List, Optional, Set, Tuple

from ..engine import check_spec
from ..tla.errors import ReproError
from ..tla.graph import StateGraph
from ..tla.spec import Specification
from ..tla.state import State
from .strategies import (
    STRATEGIES,
    coverage_minimized,
    coverage_pairs,
    exhaustive_behaviours,
    random_sampled,
    state_classes,
)
from .testcase import TestCase

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
# The public entry point.
# ---------------------------------------------------------------------------


def generate_suite(
    spec: Specification,
    *,
    # A parameter typed ``Annotated[T, {...}]`` is also a ``repro generate``
    # flag (see ``repro.pipeline.cli``).
    strategy: Annotated[str, {
        "choices": STRATEGIES,
        "help": "enumeration strategy (default: %(default)s)",
    }] = "exhaustive",
    max_length: Annotated[int, {
        "help": "maximum behaviour length in states (default: %(default)s)",
    }] = 6,
    n_tests: Annotated[int, {
        "flag": "--tests",
        "help": "sample size for --strategy random (default: %(default)s)",
    }] = 50,
    seed: Annotated[int, {"help": "random-strategy seed"}] = 0,
    graph: Optional[StateGraph] = None,
    max_states: Annotated[Optional[int], {
        "help": "truncate graph exploration (generated prefixes still replay)",
    }] = None,
) -> GeneratedSuite:
    """Generate a deduplicated test suite from ``spec``'s state graph.

    ``strategy`` is one of :data:`~repro.mbtcg.strategies.STRATEGIES`;
    ``n_tests`` and ``seed`` apply to ``"random"``.  Cases are ordered
    canonically (by length, then case id) so equal inputs produce
    byte-identical suites.
    """
    if strategy not in STRATEGIES:
        raise GenerationError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if max_length < 1:
        raise GenerationError("max_length must be >= 1")
    started = time.perf_counter()
    if graph is None:
        graph = build_graph(spec, max_states=max_states)

    if strategy == "random":
        cases, enumerated = random_sampled(
            graph, max_length=max_length, n_tests=n_tests, seed=seed
        )
    elif strategy == "coverage":
        cases, enumerated = coverage_minimized(graph, max_length=max_length)
    else:
        cases, enumerated = exhaustive_behaviours(graph, max_length=max_length)

    classes = state_classes(graph)
    pairs = set()
    for case in cases:
        pairs |= coverage_pairs(graph, case, classes)

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
