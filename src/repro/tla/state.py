"""Immutable state bindings for the model checker.

A :class:`State` binds every specification variable to a frozen value.  The
checker stores hundreds of thousands of states (371,368 for the paper's
RaftMongo configuration), so states are stored compactly as a tuple of values
aligned with a shared :class:`VariableSchema`, with the hash computed once,
when first asked for: the fingerprint engines and the trace fold never ask.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, Iterable, Iterator, Sequence, Tuple

from .errors import SpecError
from .values import FingerprintCache, fingerprint, freeze, thaw

__all__ = ["State", "VariableSchema"]


class VariableSchema:
    """The ordered set of variable names shared by all states of a spec."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Sequence[str]) -> None:
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate variable names in schema: {names!r}")
        if not names:
            raise SpecError("a specification needs at least one variable")
        self.names: Tuple[str, ...] = tuple(names)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.names)}

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SpecError(
                f"unknown variable {name!r}; declared variables are {self.names}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __repr__(self) -> str:
        return f"VariableSchema({list(self.names)!r})"

    def __reduce__(self):
        return (VariableSchema, (self.names,))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VariableSchema):
            return self.names == other.names
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.names)


class State(Mapping[str, Any]):
    """An immutable assignment of values to the variables of a schema."""

    __slots__ = ("schema", "values", "_hash", "_fp")

    def __init__(self, schema: VariableSchema, values: Mapping[str, Any]) -> None:
        missing = [name for name in schema.names if name not in values]
        if missing:
            raise SpecError(f"state is missing values for variables {missing}")
        extra = [name for name in values if name not in schema]
        if extra:
            raise SpecError(f"state assigns undeclared variables {extra}")
        object.__setattr__(
            self, "values", tuple(freeze(values[name]) for name in schema.names)
        )
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_fp", None)

    # Mapping interface -------------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        return self.values[self.schema.index_of(name)]

    def __iter__(self) -> Iterator[str]:
        return iter(self.schema.names)

    def __len__(self) -> int:
        return len(self.schema)

    # Value semantics ---------------------------------------------------------
    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.schema.names, self.values))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if isinstance(other, State):
            return self.schema.names == other.schema.names and self.values == other.values
        return NotImplemented

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("State instances are immutable")

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.schema.names, self.values)
        )
        return f"State({inner})"

    def __reduce__(self):
        # The process executor ships traces to its workers; rebuilding
        # through from_values skips the per-variable freeze() and
        # validation of __init__ (the values are frozen by construction).
        return (State.from_values, (self.schema, self.values))

    # Construction helpers ----------------------------------------------------
    def with_updates(self, **updates: Any) -> "State":
        """Return a new state with the given variables rebound.

        This is the primed-variable assignment of a TLA+ action: variables not
        mentioned keep their current value (the ``UNCHANGED`` clause).
        """
        if not updates:
            return self
        new_values = list(self.values)
        for name, value in updates.items():
            new_values[self.schema.index_of(name)] = freeze(value)
        return State.from_values(self.schema, tuple(new_values))

    def with_frozen_updates(self, updates: Mapping[str, Any]) -> "State":
        """:meth:`with_updates` for values that are already frozen.

        The compiled successor kernels (:mod:`repro.compile`) intern every
        value they produce, so converting their updates back into a real
        ``State`` at the engine boundary must not pay a second freeze walk.
        """
        if not updates:
            return self
        new_values = list(self.values)
        for name, value in updates.items():
            new_values[self.schema.index_of(name)] = value
        return State.from_values(self.schema, tuple(new_values))

    @classmethod
    def from_values(cls, schema: VariableSchema, values: Tuple[Any, ...]) -> "State":
        """Build a state directly from an already-frozen value tuple."""
        state = object.__new__(cls)
        object.__setattr__(state, "schema", schema)
        object.__setattr__(state, "values", values)
        object.__setattr__(state, "_hash", None)
        object.__setattr__(state, "_fp", None)
        return state

    # Introspection -----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain mutable dictionary view of the state (values thawed)."""
        return {name: thaw(value) for name, value in zip(self.schema.names, self.values)}

    def restrict(self, names: Iterable[str]) -> Dict[str, Any]:
        """Project the state onto a subset of variables (frozen values).

        Used by partial-observation trace checking, where the implementation
        logs only some of the specification's variables (paper Section 4.2.3).
        """
        return {name: self[name] for name in names}

    def matches(self, observation: Mapping[str, Any]) -> bool:
        """True when every observed variable has the observed value."""
        return all(self[name] == freeze(value) for name, value in observation.items())

    def fingerprint(self, cache: "FingerprintCache | None" = None) -> int:
        """Stable 64-bit fingerprint, independent of process hash seeds.

        Computed lazily and memoized on the state.  The fingerprint-interned
        checker passes its per-run :class:`~repro.tla.values.FingerprintCache`
        so that per-variable sub-values, which recur across states, are
        fingerprinted once; the result is identical with or without a cache.
        """
        cached = self._fp
        if cached is None:
            if cache is not None:
                cached = cache.state_values_fingerprint(self.values)
            else:
                cached = fingerprint(self.values, frozen=True)
            object.__setattr__(self, "_fp", cached)
        return cached
