"""Trace checking: verify that a recorded behaviour is permitted by a spec.

This is the heart of MBTC (paper Section 4).  Given a sequence of states
observed from the running implementation, we check that the sequence is a
behaviour of the specification, following the method Ron Pressler proposed
for TLA+/TLC [34]: the trace is turned into a constraint and the checker
verifies each step is either a specification action or a stuttering step.

Two checking modes are provided:

* :func:`check_trace` -- the observed states bind *every* specification
  variable.  This is the mode the MongoDB team used for ``RaftMongo.tla``.
  Its per-step decision is :class:`TraceFold`, which the batch runner and
  the streaming checker drive too.
* :func:`check_partial_trace` -- the observations bind only a subset of the
  variables; the checker searches for *some* assignment of the hidden
  variables that makes the trace a behaviour (Pressler's refinement-mapping
  technique, discussed in paper Section 4.2.3 for variables that are too
  expensive to snapshot under the Server's hierarchical locking).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .coverage import CoverageReport
from .errors import TraceInitialStateMismatch, TraceMismatch
from .spec import Specification
from .state import State

__all__ = [
    "STUTTER",
    "SuccessorCache",
    "TraceCheckResult",
    "TraceFold",
    "check_partial_trace",
    "check_trace",
    "explain_failure",
]

#: What :meth:`TraceFold.step` reports for a step that changes nothing.
STUTTER = "<stutter>"


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


class TraceFold:
    """The one trace-step core: is ``current -> next`` an action, a stutter
    or a violation?

    :meth:`begin` anchors the fold on a first state, :meth:`step` judges each
    next state and keeps the books: ``steps`` (stutters included),
    ``stutters``, ``action_counts`` and the ``failure`` record.  Handed a
    :class:`~repro.tla.coverage.CoverageReport` it also fills that with
    exactly the states it validated (``action_counts`` then *is* the
    report's), so coverage takes no second walk.  :func:`check_trace`, the
    batch runner and the streaming ``IncrementalChecker`` are its drivers.
    """

    def __init__(
        self,
        spec: Specification,
        successor_cache: Optional[SuccessorCache] = None,
        *,
        allow_stuttering: bool = True,
        coverage: Optional[CoverageReport] = None,
    ) -> None:
        self.spec = spec
        self.cache = (
            successor_cache if successor_cache is not None else SuccessorCache(spec)
        )
        self.allow_stuttering = allow_stuttering
        self.coverage = coverage
        self._reset()

    def _reset(self) -> None:
        self.state: Optional[State] = None
        self.steps = 0
        self.stutters = 0
        self.action_counts: Dict[str, int] = (
            self.coverage.action_counts if self.coverage is not None else {}
        )
        self.failure: Optional[Exception] = None
        #: ``(state, its successor list)`` of the last lookup, so a state is
        #: fetched once however many of step/coverage/failure ask for it.
        self._fetched: Tuple[Optional[State], List[Tuple[str, State]]] = (None, [])

    def begin(self, state: State, require_initial: bool = True) -> bool:
        """Start a trace at ``state``; False, with ``failure`` set, if it had to be initial."""
        self._reset()
        if require_initial and state not in self.spec.initial_states():
            self.failure = TraceInitialStateMismatch(
                f"trace state 0 is not an initial state of {self.spec.name!r}"
            )
            return False
        self.state = state
        if self.coverage is not None:
            self._cover()
        return True

    def step(self, nxt: State, what: Optional[str] = None) -> Optional[str]:
        """Judge ``current -> nxt``: the matched action's name, ``"<stutter>"``,
        or None for a violation (the fold then holds ``failure`` and stays put).

        ``what`` names the observation in the failure message (the streaming
        driver says which log event it was); the default is the step's index.
        """
        if self.allow_stuttering and nxt == self.state:
            matched = STUTTER
            self.stutters += 1
        else:
            for matched, successor in self._successors():
                if successor == nxt:
                    break
            else:
                index = self.steps
                self.failure = TraceMismatch(
                    f"{what or f'step {index} -> {index + 1} of the trace'} is not "
                    f"permitted by any action of {self.spec.name!r} "
                    f"(enabled: {self.enabled()})",
                    step_index=index,
                    observed=nxt.to_dict(),
                )
                return None
            self.action_counts[matched] = self.action_counts.get(matched, 0) + 1
            self.state = nxt
        self.steps += 1
        if self.coverage is not None:
            self._cover()
        return matched

    def check(self, trace: Sequence[Any], require_initial: bool = True) -> TraceCheckResult:
        """Fold a whole trace on a fresh fold: begin, then step to the first failure."""
        states = [_as_state(self.spec, item) for item in trace]
        matched_actions: List[Optional[str]] = []
        if states and self.begin(states[0], require_initial):
            matched_actions.append(None)
            for nxt in islice(states, 1, None):
                matched = self.step(nxt)
                if matched is None:
                    break
                matched_actions.append(matched)
        return TraceCheckResult(
            spec_name=self.spec.name,
            trace_length=len(states),
            ok=self.failure is None,
            checked_steps=self.steps,
            failure_index=None if self.failure is None else self.steps,
            failure=self.failure,
            matched_actions=matched_actions,
            stuttering_steps=self.stutters,
        )

    def enabled(self) -> List[str]:
        """Actions enabled in the current state, read off its successor list."""
        return list(dict.fromkeys(name for name, _ in self._successors()))

    def _successors(self) -> List[Tuple[str, State]]:
        if self._fetched[0] is not self.state:
            self._fetched = (self.state, self.cache.successors(self.state))
        return self._fetched[1]

    def _cover(self) -> None:
        """Count the (just validated) current state into the coverage report."""
        self.coverage.visited_fingerprints.add(self.state.fingerprint())
        counts = self.coverage.enabled_action_counts
        for name in self.enabled():
            counts[name] = counts.get(name, 0) + 1


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
    fold = TraceFold(spec, successor_cache, allow_stuttering=allow_stuttering)
    return fold.check(trace, require_initial)


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
