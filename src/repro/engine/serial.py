"""The state-retaining serial BFS engine (``engine="states"``).

The original engine: every distinct ``State`` object is retained in a
:class:`~repro.engine.store.StateRetainingStore`.  Required (and selected by
``engine="auto"``) when the state graph is collected -- temporal properties,
DOT export and :mod:`repro.mbtcg` behaviour enumeration all need graph nodes
that resolve back to states.

It deliberately does not share the level loop of
:mod:`repro.engine.fingerprint`: a ``State``-keyed queue with nothing hashed
to 64 bits is the independent reference the parity suites and the
benchmark's known answers were confirmed against, and its ``peak_frontier``
is a queue length, not a level width.  It does take its successors from the
same expander as every other engine.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..obs import current as obs_current
from ..tla.errors import DeadlockError, InvariantViolation
from ..tla.graph import StateGraph
from ..tla.state import State
from .base import CheckContext, Engine, register_engine

__all__ = ["SerialStatesEngine"]


@register_engine
class SerialStatesEngine(Engine):
    """Breadth-first exploration retaining every distinct state."""

    name = "states"
    supports_graph = True
    supported_stores = ("states",)

    def run(self, ctx: CheckContext) -> None:
        spec, result, store = ctx.spec, ctx.result, ctx.store
        schema, expand = spec.schema, ctx.expander.expand
        graph = StateGraph() if ctx.collect_graph else None
        parents: Dict[int, Tuple[Optional[int], Optional[str]]] = {}
        depths: Dict[int, int] = {}
        queue: deque[State] = deque()
        action_counts: Dict[str, int] = {act.name: 0 for act in spec.actions}

        def intern(state: State, *, initial: bool) -> Tuple[int, bool]:
            state_id, is_new = store.intern(state)
            if graph is not None and (is_new or initial):
                graph.add_state(state, initial=initial)
            return state_id, is_new

        def record_violation(state_id: int, inv_name: str) -> InvariantViolation:
            trace = self._reconstruct_trace(store, state_id, parents)
            return InvariantViolation(
                f"invariant {inv_name!r} violated by specification {spec.name!r}",
                property_name=inv_name,
                trace=trace,
            )

        # Initial states ----------------------------------------------------
        for state in spec.initial_states():
            result.generated_states += 1
            state_id, is_new = intern(state, initial=True)
            if not is_new:
                continue
            parents[state_id] = (None, None)
            depths[state_id] = 0
            violated = spec.violated_invariant(state)
            if violated is not None:
                result.invariant_violation = record_violation(state_id, violated.name)
                if ctx.stop_on_violation:
                    queue.clear()  # nothing to explore: straight to the epilogue
                    break
            if spec.within_constraint(state):
                queue.append(state)
        result.peak_frontier = len(queue)

        obs_run = obs_current()
        ticker = obs_run.progress if obs_run is not None else None

        # Breadth-first exploration -----------------------------------------
        while queue:
            if ctx.max_states is not None and store.distinct_count >= ctx.max_states:
                result.truncated = True
                break
            state = queue.popleft()
            if ticker is not None and ticker.due():
                ticker.emit(
                    queued=len(queue),
                    distinct=store.distinct_count,
                    generated=result.generated_states,
                )
            state_id = store.id_of(state)
            depth = depths[state_id]
            if ctx.max_depth is not None and depth >= ctx.max_depth:
                result.truncated = True
                continue
            # Successors come from the run's expander as value tuples; real
            # State objects are rebuilt for interning, so the retained store
            # and graph hold the same states under either expander and DOT
            # export / properties / MBTCG see no difference.
            entries = expand(state.values)
            if not entries and ctx.check_deadlock:
                trace = self._reconstruct_trace(store, state_id, parents)
                result.deadlock = DeadlockError(
                    f"deadlock reached in specification {spec.name!r}", trace=trace
                )
                if ctx.stop_on_violation:
                    break
            for action_name, nvalues, _nfp, violated_name, within in entries:
                result.generated_states += 1
                action_counts[action_name] += 1
                nxt = State.from_values(schema, nvalues)
                next_id, is_new = intern(nxt, initial=False)
                if graph is not None:
                    graph.add_edge(state_id, action_name, next_id)
                if not is_new:
                    continue
                parents[next_id] = (state_id, action_name)
                depths[next_id] = depth + 1
                result.max_depth = max(result.max_depth, depth + 1)
                if violated_name is not None:
                    result.invariant_violation = record_violation(
                        next_id, violated_name
                    )
                    if ctx.stop_on_violation:
                        queue.clear()
                        break
                if within:
                    queue.append(nxt)
            result.peak_frontier = max(result.peak_frontier, len(queue))

        result.distinct_states = store.distinct_count
        result.action_counts = action_counts
        result.graph = graph

    # ------------------------------------------------------------------------
    @staticmethod
    def _reconstruct_trace(
        store,
        state_id: int,
        parents: Dict[int, Tuple[Optional[int], Optional[str]]],
    ) -> List[State]:
        """Walk parent pointers back to an initial state to build a behaviour."""
        trace: List[State] = []
        current: Optional[int] = state_id
        while current is not None:
            trace.append(store.state_of(current))
            parent, _action = parents.get(current, (None, None))
            current = parent
        trace.reverse()
        return trace
