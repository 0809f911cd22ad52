"""Trace checking: verify that a recorded behaviour is permitted by a spec.

This is the heart of MBTC (paper Section 4).  Given a sequence of states
observed from the running implementation, we check that the sequence is a
behaviour of the specification, following the method Ron Pressler proposed
for TLA+/TLC [34]: the trace is turned into a constraint and the checker
verifies each step is either a specification action or a stuttering step.

Two checking modes are provided:

* :func:`check_trace` -- the observed states bind *every* specification
  variable.  This is the mode the MongoDB team used for ``RaftMongo.tla``.
* :func:`check_partial_trace` -- the observations bind only a subset of the
  variables; the checker searches for *some* assignment of the hidden
  variables that makes the trace a behaviour (Pressler's refinement-mapping
  technique, discussed in paper Section 4.2.3 for variables that are too
  expensive to snapshot under the Server's hierarchical locking).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .errors import TraceInitialStateMismatch, TraceMismatch
from .spec import Specification
from .state import State

__all__ = [
    "SuccessorCache",
    "TraceCheckResult",
    "check_partial_trace",
    "check_trace",
    "explain_failure",
]


class SuccessorCache:
    """Memoized successor lookup shared across many trace checks.

    Batch trace checking (paper Section 4.2.4: running MBTC over every CI
    execution) evaluates ``spec.successors`` for the same states over and over
    -- different traces of one workload wander through the same region of the
    state space.  This cache memoizes the successor list per state so each
    distinct state's actions are evaluated once per batch.  Reads and writes
    are plain dict operations, so a single instance can be shared by the
    thread pool of :mod:`repro.pipeline.runner`; the ``hits``/``misses``
    counters are unsynchronized and therefore approximate under concurrency
    (they inform a summary line, nothing more).
    """

    __slots__ = ("spec", "max_entries", "_cache", "hits", "misses")

    def __init__(self, spec: Specification, *, max_entries: int = 250_000) -> None:
        self.spec = spec
        self.max_entries = max_entries
        self._cache: Dict[State, List[Tuple[str, State]]] = {}
        self.hits = 0
        self.misses = 0

    def successors(self, state: State) -> List[Tuple[str, State]]:
        found = self._cache.get(state)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        computed = self.spec.successors(state)
        if len(self._cache) >= self.max_entries:
            self._cache.clear()
        self._cache[state] = computed
        return computed

    def __len__(self) -> int:
        return len(self._cache)


@dataclass
class TraceCheckResult:
    """Outcome of checking one trace against one specification."""

    spec_name: str
    trace_length: int
    ok: bool
    checked_steps: int
    failure_index: Optional[int] = None
    failure: Optional[Exception] = None
    matched_actions: List[Optional[str]] = field(default_factory=list)
    stuttering_steps: int = 0
    frontier_sizes: List[int] = field(default_factory=list)

    def validated_prefix(self, states: Sequence[State]) -> List[State]:
        """The states this check actually witnessed as a behaviour prefix.

        Coverage accounting must only count these: states past the failing
        transition were never checked and may not even be reachable, and a
        trace rejected at its first state witnessed nothing.
        """
        if self.ok:
            return list(states)
        if isinstance(self.failure, TraceInitialStateMismatch):
            return []
        return list(states[: (self.failure_index or 0) + 1])

    def summary(self) -> str:
        """One-line verdict, analogous to the MBTC pass/fail of paper Figure 1."""
        verdict = "PASS" if self.ok else "FAIL"
        detail = ""
        if not self.ok and self.failure_index is not None:
            detail = f" at step {self.failure_index}"
        return (
            f"MBTC {verdict}: spec={self.spec_name} trace length={self.trace_length}"
            f" checked={self.checked_steps}{detail}"
        )


def _as_state(spec: Specification, item: Any) -> State:
    if isinstance(item, State):
        return item
    if isinstance(item, Mapping):
        return spec.make_state(**item)
    raise TypeError(f"trace items must be State or mapping, got {type(item).__name__}")


def check_trace(
    spec: Specification,
    trace: Sequence[Any],
    *,
    allow_stuttering: bool = True,
    require_initial: bool = True,
    successor_cache: Optional[SuccessorCache] = None,
) -> TraceCheckResult:
    """Check that ``trace`` (fully-observed states) is a behaviour of ``spec``.

    The check mirrors Pressler's Trace.tla technique: state 0 must satisfy the
    init predicate (unless ``require_initial`` is disabled, which the MongoDB
    pipeline uses when a trace starts mid-test), and every subsequent step
    must be produced by one of the specification's actions, or be a
    stuttering step when ``allow_stuttering`` is true.
    """
    states = [_as_state(spec, item) for item in trace]
    result = TraceCheckResult(
        spec_name=spec.name, trace_length=len(states), ok=True, checked_steps=0
    )
    if not states:
        return result

    if require_initial:
        initial = spec.initial_states()
        if states[0] not in initial:
            result.ok = False
            result.failure_index = 0
            result.failure = TraceInitialStateMismatch(
                f"trace state 0 is not an initial state of {spec.name!r}"
            )
            return result
    result.matched_actions.append(None)

    for index in range(len(states) - 1):
        current, nxt = states[index], states[index + 1]
        if allow_stuttering and current == nxt:
            result.matched_actions.append("<stutter>")
            result.stuttering_steps += 1
            result.checked_steps += 1
            continue
        matched = _matching_action(spec, current, nxt, successor_cache)
        if matched is None:
            result.ok = False
            result.failure_index = index
            result.failure = TraceMismatch(
                f"step {index} -> {index + 1} of the trace is not permitted by any "
                f"action of {spec.name!r} (enabled: {spec.enabled_actions(current)})",
                step_index=index,
                observed=nxt.to_dict(),
            )
            return result
        result.matched_actions.append(matched)
        result.checked_steps += 1
    return result


def _matching_action(
    spec: Specification,
    current: State,
    nxt: State,
    successor_cache: Optional[SuccessorCache] = None,
) -> Optional[str]:
    successors = (
        successor_cache.successors(current)
        if successor_cache is not None
        else spec.successors(current)
    )
    for action_name, successor in successors:
        if successor == nxt:
            return action_name
    return None


def check_partial_trace(
    spec: Specification,
    observations: Sequence[Mapping[str, Any]],
    *,
    allow_stuttering: bool = True,
    max_frontier: int = 10_000,
) -> TraceCheckResult:
    """Check a trace that observes only a subset of the spec's variables.

    Each observation is a mapping from observed variable names to values.  The
    checker maintains the set ("frontier") of full specification states that
    are consistent with the observations so far; a trace is accepted when the
    frontier is non-empty after the final observation.  The frontier size per
    step is recorded because it is the practical cost driver Pressler warns
    about and the reason paper Section 4.2.4 calls trace checking of long
    traces "impractically slow".
    """
    result = TraceCheckResult(
        spec_name=spec.name, trace_length=len(observations), ok=True, checked_steps=0
    )
    if not observations:
        return result

    frontier: Set[State] = {
        state for state in spec.initial_states() if state.matches(observations[0])
    }
    result.frontier_sizes.append(len(frontier))
    if not frontier:
        result.ok = False
        result.failure_index = 0
        result.failure = TraceInitialStateMismatch(
            f"no initial state of {spec.name!r} matches the first observation"
        )
        return result

    for index in range(1, len(observations)):
        observation = observations[index]
        next_frontier: Set[State] = set()
        for state in frontier:
            if allow_stuttering and state.matches(observation):
                next_frontier.add(state)
            for _action, successor in spec.successors(state):
                if successor.matches(observation):
                    next_frontier.add(successor)
            if len(next_frontier) > max_frontier:
                raise TraceMismatch(
                    "partial-trace frontier exceeded "
                    f"{max_frontier} states at step {index}; the hidden-variable "
                    "search is intractable for this spec/trace combination",
                    step_index=index,
                )
        result.frontier_sizes.append(len(next_frontier))
        result.checked_steps += 1
        if not next_frontier:
            result.ok = False
            result.failure_index = index - 1
            result.failure = TraceMismatch(
                f"observation {index} cannot be explained by any action of "
                f"{spec.name!r} from the states consistent with the trace so far",
                step_index=index - 1,
                observed=dict(observation),
            )
            return result
        frontier = next_frontier
    return result


def explain_failure(result: TraceCheckResult) -> str:
    """Render a short diagnostic for a failed trace check.

    The MongoDB team manually diagnosed each violation by comparing the
    offending trace step with the spec's enabled actions (Section 4.2.2); this
    helper performs the same comparison textually.
    """
    if result.ok:
        return f"trace of length {result.trace_length} conforms to {result.spec_name}"
    location = (
        f"step {result.failure_index}" if result.failure_index is not None else "start"
    )
    reason = str(result.failure) if result.failure is not None else "unknown reason"
    return f"trace violates {result.spec_name} at {location}: {reason}"
