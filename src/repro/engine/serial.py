"""The state-retaining serial BFS engine (``engine="states"``): :func:`explore_states`.

The original engine: its store is a :class:`~repro.tla.graph.StateGraph`
(``make_store("states")``), into which every distinct ``State`` is interned
once, by value, as a dense node id.  Required (and selected by
``engine="auto"``) when the state graph is collected -- temporal properties,
DOT export and :mod:`repro.mbtcg` behaviour enumeration all need graph nodes
that resolve back to states -- and then that same graph, with its edges, is
``result.graph``.

It deliberately does not share the level loop of
:mod:`repro.engine.fingerprint`: a queue of node ids over ``State``-keyed
interning, with nothing hashed to 64 bits, is the independent reference the
parity suites and the benchmark's known answers were confirmed against, and
its ``peak_frontier`` is a queue length, not a level width.  It does take
its successors from the same expander as every other engine, and like the
fingerprint engine asks ``expander.verdict_for`` once per new state only.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..obs import current as obs_current
from ..tla.errors import DeadlockError, InvariantViolation
from ..tla.graph import StateGraph
from ..tla.state import State
from .base import CheckContext

__all__ = ["explore_states"]


def explore_states(ctx: CheckContext) -> None:
    """Breadth-first exploration retaining every distinct state."""
    spec, result, graph = ctx.spec, ctx.result, ctx.store
    schema = spec.schema
    transitions = ctx.expander.transitions
    verdict_for = ctx.expander.verdict_for
    add_state, state_of = graph.add_state, graph.state_of
    add_edge = graph.add_edge if ctx.collect_graph else None
    # Both indexed by node id: the id a state was first reached from
    # (None for an initial state) and its BFS depth.
    parents: List[Optional[int]] = []
    depths: List[int] = []
    queue: deque[int] = deque()
    action_counts: Dict[str, int] = {act.name: 0 for act in spec.actions}

    def record_violation(state_id: int, inv_name: str) -> InvariantViolation:
        trace = _reconstruct_trace(graph, state_id, parents)
        return InvariantViolation(
            f"invariant {inv_name!r} violated by specification {spec.name!r}",
            property_name=inv_name,
            trace=trace,
        )

    # Initial states --------------------------------------------------------
    for state in spec.initial_states():
        result.generated_states += 1
        state_id, is_new = add_state(state, initial=True)
        if not is_new:
            continue
        parents.append(None)
        depths.append(0)
        violated = spec.violated_invariant(state)
        if violated is not None:
            result.invariant_violation = record_violation(state_id, violated.name)
            if ctx.stop_on_violation:
                queue.clear()  # nothing to explore: straight to the epilogue
                break
        if spec.within_constraint(state):
            queue.append(state_id)
    result.peak_frontier = len(queue)

    obs_run = obs_current()
    ticker = obs_run.progress if obs_run is not None else None

    # Breadth-first exploration ---------------------------------------------
    # Ids are handed out in discovery order and popped in that order, so
    # each node's edges are added contiguously and in id order.
    while queue:
        if ctx.max_states is not None and graph.distinct_count >= ctx.max_states:
            result.truncated = True
            break
        state_id = queue.popleft()
        if ticker is not None and ticker.due():
            ticker.emit(
                queued=len(queue),
                distinct=graph.distinct_count,
                generated=result.generated_states,
            )
        depth = depths[state_id]
        if ctx.max_depth is not None and depth >= ctx.max_depth:
            result.truncated = True
            continue
        # Successors come from the run's expander as value tuples; real
        # State objects are rebuilt for interning, so the graph holds
        # the same states under either expander and DOT export /
        # properties / MBTCG see no difference.
        successors = transitions(state_of(state_id).values)
        if not successors and ctx.check_deadlock:
            trace = _reconstruct_trace(graph, state_id, parents)
            result.deadlock = DeadlockError(
                f"deadlock reached in specification {spec.name!r}", trace=trace
            )
            if ctx.stop_on_violation:
                break
        for action_name, nvalues, nfp in successors:
            result.generated_states += 1
            action_counts[action_name] += 1
            next_id, is_new = add_state(State.from_values(schema, nvalues))
            if add_edge is not None:
                add_edge(state_id, action_name, next_id)
            if not is_new:
                continue
            parents.append(state_id)
            depths.append(depth + 1)
            result.max_depth = max(result.max_depth, depth + 1)
            violated_name, within = verdict_for(nvalues, nfp)
            if violated_name is not None:
                result.invariant_violation = record_violation(
                    next_id, violated_name
                )
                if ctx.stop_on_violation:
                    queue.clear()
                    break
            if within:
                queue.append(next_id)
        result.peak_frontier = max(result.peak_frontier, len(queue))

    result.distinct_states = graph.distinct_count
    result.action_counts = action_counts
    result.graph = graph if ctx.collect_graph else None


def _reconstruct_trace(
    graph: StateGraph, state_id: int, parents: List[Optional[int]]
) -> List[State]:
    """Walk parent pointers back to an initial state to build a behaviour."""
    trace: List[State] = []
    current: Optional[int] = state_id
    while current is not None:
        trace.append(graph.state_of(current))
        current = parents[current]
    trace.reverse()
    return trace
