"""The partial-observation search, worked out the slow way: the tests' reference.

``check_partial_trace`` has the model checker's BFS search
:func:`repro.tla.trace.trace_spec`.  :func:`reference_partial_check` is the
search it replaced, kept as the independent reference: a set of full
``State`` objects per observation (the "frontier"), stepped on the
interpreted ``spec.successors``.  It records each frontier's size, which is
what the product spec's BFS must count as distinct states.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Set

from repro.tla.errors import TraceInitialStateMismatch, TraceMismatch
from repro.tla.spec import Specification
from repro.tla.state import State
from repro.tla.values import freeze


@dataclass
class ReferenceResult:
    ok: bool
    checked_steps: int = 0
    failure_index: Optional[int] = None
    failure: Optional[Exception] = None
    frontier_sizes: List[int] = field(default_factory=list)


def _matches(state: State, observation: Mapping[str, Any]) -> bool:
    """True when every observed variable has the observed value."""
    return all(state[name] == freeze(value) for name, value in observation.items())


def reference_partial_check(
    spec: Specification,
    observations: Sequence[Mapping[str, Any]],
    *,
    allow_stuttering: bool = True,
    max_frontier: int = 10_000,
) -> ReferenceResult:
    result = ReferenceResult(ok=True)
    if not observations:
        return result

    frontier: Set[State] = {
        state for state in spec.initial_states() if _matches(state, observations[0])
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
            if allow_stuttering and _matches(state, observation):
                next_frontier.add(state)
            for _action, successor in spec.successors(state):
                if _matches(successor, observation):
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
