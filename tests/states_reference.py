"""The state-keyed BFS, worked out the slow way: the tests' exhaustive reference.

A run that keeps the graph runs the library's one BFS loop over a
fingerprint-keyed :class:`~repro.tla.graph.StateGraph`.  :func:`explore_states`
is the exploration it replaced, kept as the independent reference: a queue
of node ids over a private :class:`NodeTable` that interns every distinct
``State`` by value, so nothing is told apart by a 64-bit fingerprint, and
counterexamples are read back from the retained states instead of replayed.
:func:`reference_check` runs it on the interpreted oracle
(``interpreted_reference.InterpretedExpander``), with the graph collected.
"""

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from interpreted_reference import InterpretedExpander
from repro.engine.base import CheckContext, CheckResult
from repro.tla.errors import DeadlockError, InvariantViolation
from repro.tla.graph import Edge
from repro.tla.spec import Specification
from repro.tla.state import State


class NodeTable:
    """Every distinct ``State`` interned by value as a dense node id, with edges.

    ``states``, ``initial_ids`` and ``edges`` read like a
    :class:`~repro.tla.graph.StateGraph`'s; edges are recorded in the order
    they were generated, which is node id order.
    """

    def __init__(self) -> None:
        self._ids: Dict[State, int] = {}
        self.states: List[State] = []
        self.initial_ids: List[int] = []
        self.edges: List[Edge] = []

    def intern(self, state: State, *, initial: bool = False) -> Tuple[int, bool]:
        """``(node id, is_new)`` of ``state``, interning it if it is new."""
        fresh = len(self.states)
        node_id = self._ids.setdefault(state, fresh)
        is_new = node_id == fresh
        if is_new:
            self.states.append(state)
        if initial and node_id not in self.initial_ids:
            self.initial_ids.append(node_id)
        return node_id, is_new

    @property
    def distinct_count(self) -> int:
        return len(self.states)


def reference_check(spec: Specification, **options: Any) -> CheckResult:
    """Run :func:`explore_states` on the oracle; ``result.graph`` is its table.

    ``options`` are :class:`~repro.engine.base.CheckContext` fields: the
    limits and ``check_deadlock`` / ``stop_on_violation``.
    """
    result = CheckResult(spec_name=spec.name)
    explore_states(
        CheckContext(
            spec=spec,
            result=result,
            store=NodeTable(),
            expander=InterpretedExpander(spec),
            collect_graph=True,
            **options,
        )
    )
    return result


def explore_states(ctx: CheckContext) -> None:
    """Breadth-first exploration retaining every distinct state."""
    spec, result, table = ctx.spec, ctx.result, ctx.store
    schema = spec.schema
    transitions = ctx.expander.transitions
    verdict_for = ctx.expander.verdict_for
    # Both indexed by node id: the id a state was first reached from
    # (None for an initial state) and its BFS depth.
    parents: List[Optional[int]] = []
    depths: List[int] = []
    queue: deque[int] = deque()
    action_counts: Dict[str, int] = {act.name: 0 for act in spec.actions}

    def record_violation(state_id: int, inv_name: str) -> InvariantViolation:
        return InvariantViolation(
            f"invariant {inv_name!r} violated by specification {spec.name!r}",
            property_name=inv_name,
            trace=_reconstruct_trace(table, state_id, parents),
        )

    for state in spec.initial_states():
        result.generated_states += 1
        state_id, is_new = table.intern(state, initial=True)
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

    # Ids are handed out in discovery order and popped in that order, so
    # the edges are recorded in id order.
    while queue:
        if ctx.max_states is not None and table.distinct_count >= ctx.max_states:
            result.truncated = True
            break
        state_id = queue.popleft()
        depth = depths[state_id]
        if ctx.max_depth is not None and depth >= ctx.max_depth:
            result.truncated = True
            continue
        successors = transitions(table.states[state_id].values)
        if not successors and ctx.check_deadlock:
            result.deadlock = DeadlockError(
                f"deadlock reached in specification {spec.name!r}",
                trace=_reconstruct_trace(table, state_id, parents),
            )
            if ctx.stop_on_violation:
                break
        for action_name, nvalues, nfp in successors:
            result.generated_states += 1
            action_counts[action_name] += 1
            next_id, is_new = table.intern(State.from_values(schema, nvalues))
            table.edges.append(Edge(state_id, action_name, next_id))
            if not is_new:
                continue
            parents.append(state_id)
            depths.append(depth + 1)
            result.max_depth = max(result.max_depth, depth + 1)
            violated_name, within = verdict_for(nvalues, nfp)
            if violated_name is not None:
                result.invariant_violation = record_violation(next_id, violated_name)
                if ctx.stop_on_violation:
                    queue.clear()
                    break
            if within:
                queue.append(next_id)
        result.peak_frontier = max(result.peak_frontier, len(queue))

    result.distinct_states = table.distinct_count
    result.action_counts = action_counts
    result.graph = table


def _reconstruct_trace(
    table: NodeTable, state_id: int, parents: List[Optional[int]]
) -> List[State]:
    """Walk parent pointers back to an initial state to build a behaviour."""
    trace: List[State] = []
    current: Optional[int] = state_id
    while current is not None:
        trace.append(table.states[current])
        current = parents[current]
    trace.reverse()
    return trace
