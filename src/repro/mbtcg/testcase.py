"""Test cases: behaviours lifted into deduplicable, serializable artifacts.

A behaviour enumerated from the retained state graph (see
:meth:`repro.tla.graph.StateGraph.behaviours`) is a list of ``(action,
state)`` pairs.  MBTCG's unit of output is the :class:`TestCase`: the same
data plus a stable identity -- the behaviour fingerprint -- used to emit each
distinct execution exactly once, however many enumeration paths or sampling
attempts produced it.  The fingerprint reuses the cross-process-stable
64-bit value fingerprints of :mod:`repro.tla.values`, so corpora generated
on different machines agree on case ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..tla.state import State
from ..tla.values import FingerprintCache, fingerprint

__all__ = ["Behaviour", "TestCase", "behaviour_fingerprint"]

#: One enumerated behaviour: ``(action that reached the state, state)`` pairs,
#: the first pair carrying ``None`` for the action.
Behaviour = List[Tuple[Optional[str], State]]


def behaviour_fingerprint(
    behaviour: Sequence[Tuple[Optional[str], State]],
    cache: Optional[FingerprintCache] = None,
) -> int:
    """Stable 64-bit identity of one behaviour (actions and states both count).

    Two behaviours that visit the same states via differently-named actions
    are different test cases (they exercise different implementation paths),
    so the action names participate in the fingerprint alongside the state
    fingerprints.

    ``cache`` memoizes the parts behaviours share -- a state's slot values,
    an ``(action, state fingerprint)`` pair: one per edge of the graph, however
    many behaviours run through it -- and never the behaviour itself; the
    result is the same with or without it.
    """
    pairs = tuple((action, state.fingerprint(cache)) for action, state in behaviour)
    if cache is None:
        return fingerprint(pairs, frozen=True)
    return cache.state_values_fingerprint(pairs)


@dataclass(frozen=True)
class TestCase:
    """One generated test: a complete, replayable behaviour of the spec.

    ``case_id`` is the zero-padded hex behaviour fingerprint -- the dedup key
    and the stable name used in corpus files, generated pytest ids and log
    file names.
    """

    #: Not a pytest class, despite the name pytest's collector likes.
    __test__ = False

    case_id: str
    actions: Tuple[Optional[str], ...]
    states: Tuple[State, ...]

    @classmethod
    def from_behaviour(
        cls,
        behaviour: Sequence[Tuple[Optional[str], State]],
        cache: Optional[FingerprintCache] = None,
    ) -> "TestCase":
        """Lift one behaviour: the one place its fingerprint is computed."""
        return cls(
            case_id=format(behaviour_fingerprint(behaviour, cache), "016x"),
            actions=tuple(action for action, _state in behaviour),
            states=tuple(state for _action, state in behaviour),
        )

    def __len__(self) -> int:
        return len(self.states)

    def trace(self) -> List[State]:
        """The state sequence, in the shape ``check_trace`` consumes."""
        return list(self.states)

    def action_names(self) -> Tuple[str, ...]:
        """The non-initial action names, in execution order."""
        return tuple(action for action in self.actions if action is not None)
