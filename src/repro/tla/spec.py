"""Specification objects: variables, actions, invariants and properties.

A specification in this library plays the role of a ``.tla`` file in the
paper: it declares variables, an initial-state predicate, a set of named
actions (the next-state relation is their disjunction), invariants, optional
temporal properties, and an optional state constraint used to bound
exploration exactly like a TLC ``CONSTRAINT``.

Actions are plain Python callables.  Given the current :class:`State` they
return (or yield) zero or more successor states; an empty result means the
action is not enabled.  For convenience an action may yield either ready-made
:class:`State` objects or dictionaries of variable updates (the primed
variables); unmentioned variables are left unchanged, mirroring TLA+'s
``UNCHANGED`` clause.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import EvaluationError, SpecError
from .state import State, VariableSchema

__all__ = [
    "Action",
    "Invariant",
    "Specification",
    "TemporalProperty",
    "action",
    "invariant",
]

ActionEffect = Callable[[State], Any]
Predicate = Callable[[State], bool]


class Action:
    """A named state transition of a specification."""

    def __init__(self, name: str, effect: ActionEffect, *, description: str = "") -> None:
        self.name = name
        self.effect = effect
        self.description = description or (inspect.getdoc(effect) or "")

    def __repr__(self) -> str:
        return f"Action({self.name!r})"

    def _evaluation_error(self, exc: Exception) -> EvaluationError:
        return EvaluationError(
            f"action {self.name!r} raised {type(exc).__name__}: {exc}",
            action=self.name,
        )

    def _bad_item(self, item: Any) -> EvaluationError:
        return EvaluationError(
            f"action {self.name!r} produced {type(item).__name__}; "
            "expected State or mapping of variable updates",
            action=self.name,
        )

    def successors(self, state: State) -> List[State]:
        """All states reachable from ``state`` by taking this action once."""
        # Effects are generators: the body runs while *iterating*, so the
        # iteration sits inside the try with the call.
        try:
            produced = self.effect(state)
            items = [] if produced is None else list(produced)
        except Exception as exc:  # noqa: BLE001 - rewrap with action context
            raise self._evaluation_error(exc) from exc
        results: List[State] = []
        for item in items:
            if isinstance(item, State):
                results.append(item)
            elif isinstance(item, Mapping):
                results.append(state.with_updates(**item))
            else:
                raise self._bad_item(item)
        return results

    def is_enabled(self, state: State) -> bool:
        """True when the action has at least one successor from ``state``.

        Unlike ``bool(successors(state))`` this short-circuits on the first
        produced item without materializing (or even constructing) the
        successor states -- enablement queries walk every action per state,
        so paying the full expansion there was pure waste.
        """
        try:
            produced = self.effect(state)
            first = [] if produced is None else list(islice(produced, 1))
        except Exception as exc:  # noqa: BLE001 - rewrap with action context
            raise self._evaluation_error(exc) from exc
        for item in first:
            if isinstance(item, (State, Mapping)):
                return True
            raise self._bad_item(item)
        return False


def action(name: Optional[str] = None) -> Callable[[ActionEffect], Action]:
    """Decorator turning a generator function into an :class:`Action`.

    Example::

        @action("ClientWrite")
        def client_write(state):
            for node in leaders(state):
                yield {"oplog": appended(state, node)}
    """

    def decorate(effect: ActionEffect) -> Action:
        return Action(name or effect.__name__, effect)

    return decorate


class Invariant:
    """A predicate that must hold in every reachable state."""

    def __init__(self, name: str, predicate: Predicate, *, description: str = "") -> None:
        self.name = name
        self.predicate = predicate
        self.description = description or (inspect.getdoc(predicate) or "")

    def __repr__(self) -> str:
        return f"Invariant({self.name!r})"

    def holds(self, state: State) -> bool:
        try:
            return bool(self.predicate(state))
        except Exception as exc:  # noqa: BLE001
            raise EvaluationError(
                f"invariant {self.name!r} raised {type(exc).__name__}: {exc}"
            ) from exc


def invariant(name: Optional[str] = None) -> Callable[[Predicate], Invariant]:
    """Decorator analogue of :func:`action` for invariants."""

    def decorate(predicate: Predicate) -> Invariant:
        return Invariant(name or predicate.__name__, predicate)

    return decorate


@dataclass(frozen=True)
class TemporalProperty:
    """A simple temporal property checked on the reachable state graph.

    Two kinds are supported, matching what the paper's specifications verify:

    * ``"eventually"`` -- along every (fair) behaviour the predicate
      eventually holds: checked as "every terminal strongly connected
      component of the reachable graph contains a satisfying state".  This is
      how we verify RaftMongo's "the commit point is eventually propagated".
    * ``"always_eventually"`` -- the predicate holds infinitely often:
      checked as "every cycle-bearing terminal SCC contains a satisfying
      state and every terminal (deadlocked) state satisfies it".
    """

    name: str
    predicate: Predicate = field(repr=False)
    kind: str = "eventually"

    def __post_init__(self) -> None:
        if self.kind not in ("eventually", "always_eventually"):
            raise SpecError(f"unknown temporal property kind {self.kind!r}")


class Specification:
    """A complete specification: the Python analogue of one ``.tla`` file."""

    def __init__(
        self,
        name: str,
        *,
        variables: Sequence[str],
        init: Callable[[], Iterable[Mapping[str, Any]]],
        actions: Sequence[Action],
        invariants: Sequence[Invariant] = (),
        properties: Sequence[TemporalProperty] = (),
        constraint: Optional[Predicate] = None,
        constants: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if not actions:
            raise SpecError(f"specification {name!r} declares no actions")
        self.name = name
        self.schema = VariableSchema(variables)
        self._init = init
        self.actions: Tuple[Action, ...] = tuple(actions)
        self.invariants: Tuple[Invariant, ...] = tuple(invariants)
        self.properties: Tuple[TemporalProperty, ...] = tuple(properties)
        self.constraint = constraint
        self.constants: Dict[str, Any] = dict(constants or {})
        names = [act.name for act in self.actions]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate action names in specification {name!r}: {names}")
        self._actions_by_name: Dict[str, Action] = {act.name: act for act in self.actions}
        #: Set by :func:`repro.tla.registry.build_spec`: the ``(name, params)``
        #: pair that rebuilds this spec, which checkpoints record.  ``None`` for
        #: specs constructed directly.
        self.registry_ref: Optional[Tuple[str, Dict[str, Any]]] = None
        #: Built by :meth:`repro.tla.trace.SuccessorCache.for_spec` when first
        #: asked for: the substrate every trace check of this spec shares.
        self._successor_cache: Any = None

    def __repr__(self) -> str:
        return (
            f"Specification({self.name!r}, variables={list(self.schema.names)}, "
            f"actions={[a.name for a in self.actions]})"
        )

    # Initial states ----------------------------------------------------------
    def initial_states(self) -> List[State]:
        """Enumerate the initial states (the ``Init`` predicate's models)."""
        states: List[State] = []
        for item in self._init():
            if isinstance(item, State):
                states.append(item)
            elif isinstance(item, Mapping):
                states.append(State(self.schema, item))
            else:
                raise SpecError(
                    f"init of {self.name!r} produced {type(item).__name__}; "
                    "expected State or mapping"
                )
        if not states:
            raise SpecError(f"specification {self.name!r} has no initial states")
        return states

    # Next-state relation -----------------------------------------------------
    def successors(self, state: State) -> List[Tuple[str, State]]:
        """All ``(action name, next state)`` pairs enabled in ``state``."""
        result: List[Tuple[str, State]] = []
        for act in self.actions:
            for nxt in act.successors(state):
                result.append((act.name, nxt))
        return result

    def enabled_actions(self, state: State) -> List[str]:
        """Names of the actions enabled in ``state``.

        Uses :meth:`Action.is_enabled`, which stops at the first successor
        instead of materializing the full expansion per action.
        """
        return [act.name for act in self.actions if act.is_enabled(state)]

    def action_named(self, name: str) -> Action:
        try:
            return self._actions_by_name[name]
        except KeyError:
            raise SpecError(
                f"specification {self.name!r} has no action named {name!r}"
            ) from None

    # Constraint / invariants ---------------------------------------------------
    def within_constraint(self, state: State) -> bool:
        """True when the state satisfies the exploration constraint (if any)."""
        if self.constraint is None:
            return True
        return bool(self.constraint(state))

    def violated_invariant(self, state: State) -> Optional[Invariant]:
        """The first invariant violated by ``state``, or ``None``."""
        for inv in self.invariants:
            if not inv.holds(state):
                return inv
        return None

    # Convenience ---------------------------------------------------------------
    def make_state(self, **values: Any) -> State:
        """Build a state of this spec from keyword variable bindings."""
        return State(self.schema, values)
