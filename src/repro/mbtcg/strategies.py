"""Enumeration strategies: which behaviours of the graph become test cases.

Three strategies, mirroring the trade-off the paper's Section 5 case study
faced (4,913 exhaustive OT tests were practical; larger models need less):

* :func:`exhaustive_behaviours` -- every bounded behaviour, the paper's own
  approach.  Deduplicated by behaviour fingerprint.
* :func:`coverage_minimized` -- a greedy set cover picking the fewest
  behaviours that together cover every ``(action, enabled-state-class)``
  edge the exhaustive suite covers.  The *class* of a state is the set of
  action names enabled in it (derived from the graph's outgoing edges), so
  the goals distinguish "Integrate taken while both sites could still
  propose" from "Integrate taken in a merge-only state" -- Dick & Faivre's
  classic partition-by-enabledness criterion.
* :func:`random_sampled` -- seeded random walks for graphs too large to
  enumerate, deduplicated so the sample contains no repeated execution.

Every strategy returns ``(cases, enumerated)``: the surviving behaviours as
:class:`~repro.mbtcg.testcase.TestCase` objects, whose ``case_id`` is the
fingerprint they were deduplicated by -- computed once per behaviour, over one
:class:`~repro.tla.values.FingerprintCache` per call -- and the count of
behaviours *before* deduplication; the generator turns the ratio into the
suite's dedup statistic.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..tla.graph import StateGraph
from ..tla.values import FingerprintCache
from .testcase import Behaviour, TestCase

__all__ = [
    "STRATEGIES",
    "CoveragePair",
    "coverage_minimized",
    "coverage_pairs",
    "dedup_behaviours",
    "exhaustive_behaviours",
    "random_sampled",
    "state_classes",
]

#: The strategy names accepted by the generator and the CLI.
STRATEGIES: Tuple[str, ...] = ("exhaustive", "coverage", "random")

#: One coverage goal: an action name taken from a state whose enabled-action
#: set is the given class.
CoveragePair = Tuple[str, FrozenSet[str]]


def dedup_behaviours(
    behaviours: Iterable[Behaviour], *, limit: Optional[int] = None
) -> Tuple[List[TestCase], int]:
    """Lift behaviours into cases, dropping fingerprint duplicates, until
    ``limit`` distinct ones are kept; returns (unique cases, total seen)."""
    cache = FingerprintCache()
    unique: Dict[str, TestCase] = {}
    total = 0
    for behaviour in behaviours:
        total += 1
        case = TestCase.from_behaviour(behaviour, cache)
        unique.setdefault(case.case_id, case)
        if len(unique) == limit:
            break
    return list(unique.values()), total


def exhaustive_behaviours(
    graph: StateGraph, *, max_length: int
) -> Tuple[List[TestCase], int]:
    """Every behaviour up to ``max_length`` states, deduplicated."""
    return dedup_behaviours(graph.behaviours(max_length=max_length))


def state_classes(graph: StateGraph) -> List[FrozenSet[str]]:
    """Per node id, the class of the state: the set of enabled action names."""
    return [
        frozenset(edge.action for edge in graph.outgoing(node))
        for node in range(len(graph))
    ]


def coverage_pairs(
    graph: StateGraph,
    case: TestCase,
    classes: Sequence[FrozenSet[str]],
) -> Set[CoveragePair]:
    """The ``(action, source-state class)`` goals one case covers."""
    # Only the first action is None, and it has no source state.
    return {
        (action, classes[graph.id_of(source)])
        for action, source in zip(case.actions[1:], case.states)
    }


def coverage_minimized(
    graph: StateGraph,
    *,
    max_length: int,
) -> Tuple[List[TestCase], int]:
    """Greedy minimum-ish suite covering every reachable coverage pair.

    The exhaustive suite at the same ``max_length`` is enumerated here,
    which guarantees the chosen suite's action coverage is identical to the
    exhaustive suite's -- the goals are exactly the pairs the exhaustive
    behaviours witness.

    The pool is sorted canonically (length, then case id: the behaviour
    fingerprint, zero-padded) before the greedy pass, so tie-breaking -- and
    therefore the chosen suite -- does not depend on enumeration order.
    """
    pool, enumerated = exhaustive_behaviours(graph, max_length=max_length)
    pool.sort(key=lambda case: (len(case), case.case_id))
    classes = state_classes(graph)
    per_behaviour: List[Set[CoveragePair]] = [
        coverage_pairs(graph, case, classes) for case in pool
    ]
    uncovered: Set[CoveragePair] = set().union(*per_behaviour) if per_behaviour else set()

    chosen_indices: List[int] = []
    while uncovered:
        best_index = -1
        best_gain = 0
        for index, pairs in enumerate(per_behaviour):
            gain = len(pairs & uncovered)
            if gain > best_gain:
                best_index, best_gain = index, gain
        if best_index < 0:  # pragma: no cover - uncovered came from the pool
            break
        chosen_indices.append(best_index)
        uncovered -= per_behaviour[best_index]
    chosen_indices.sort()  # deterministic: enumeration order, not pick order
    return [pool[index] for index in chosen_indices], enumerated


def random_sampled(
    graph: StateGraph,
    *,
    max_length: int,
    n_tests: int,
    seed: int = 0,
) -> Tuple[List[TestCase], int]:
    """Sample up to ``n_tests`` distinct behaviours by seeded random walks.

    Sampling is with replacement, so attempts are capped (25 per requested
    test) to terminate on graphs with fewer than ``n_tests`` distinct
    walks; the attempt count is returned as the enumerated total, making the
    dedup ratio the sampler's collision statistic.
    """
    if n_tests < 1:
        raise ValueError("n_tests must be >= 1")
    rng = random.Random(seed)
    walks = (
        graph.random_walk(rng, max_length=max_length)
        for _attempt in range(max(n_tests * 25, 100))
    )
    return dedup_behaviours(walks, limit=n_tests)
