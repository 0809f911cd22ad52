"""Exception hierarchy for the :mod:`repro.tla` model-checking substrate.

The paper relies on TLC's observable failure modes: invariant violations with a
counterexample behaviour, deadlock reports, liveness (temporal property)
violations, and -- in the Realm Sync case study -- a ``StackOverflowError``
raised by a non-terminating merge rule.  The exceptions below are the Python
analogues of those failure modes, so callers (benchmarks, the MBTC pipeline
in :mod:`repro.pipeline`, and the :mod:`repro.mbtcg` test-case generator) can
react to each one specifically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .state import State


def _rebuild_error(cls: type, args: tuple, attrs: dict) -> "ReproError":
    """Unpickle helper: rebuild without re-running ``__init__``.

    Several subclasses take required keyword-only arguments, which the default
    exception reduction (``cls(*self.args)``) cannot supply, so a pickled
    error is rebuilt without depending on ``__init__`` signatures.
    """
    exc = cls.__new__(cls)
    Exception.__init__(exc, *args)
    exc.__dict__.update(attrs)
    return exc


class ReproError(Exception):
    """Base class for every error raised by the reproduction library."""

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.args, dict(self.__dict__)))


class SpecError(ReproError):
    """A specification is malformed (bad variable names, missing init, ...)."""


class EvaluationError(SpecError):
    """An action, invariant or constraint raised while being evaluated."""

    def __init__(self, message: str, *, action: Optional[str] = None) -> None:
        super().__init__(message)
        self.action = action


class CheckerError(ReproError):
    """Base class for model-checking failures."""


class PropertyViolation(CheckerError):
    """Base class for violations that carry a counterexample behaviour."""

    def __init__(
        self,
        message: str,
        *,
        property_name: str,
        trace: Sequence["State"] = (),
    ) -> None:
        super().__init__(message)
        self.property_name = property_name
        self.trace = list(trace)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        return f"{base} (property={self.property_name!r}, trace length={len(self.trace)})"


class InvariantViolation(PropertyViolation):
    """A state reachable from the initial states violates an invariant."""


class LivenessViolation(PropertyViolation):
    """A temporal property does not hold of the reachable state graph."""


class DeadlockError(CheckerError):
    """A non-terminal state has no enabled action and deadlock checking is on."""

    def __init__(self, message: str, *, trace: Sequence["State"] = ()) -> None:
        super().__init__(message)
        self.trace = list(trace)


class StateSpaceLimitExceeded(CheckerError):
    """The checker hit its configured state or time budget before finishing."""


class CheckInterrupted(CheckerError):
    """A check was interrupted (Ctrl-C) before exploration finished.

    Raised by :meth:`repro.engine.core.ModelChecker.run` in place of the bare
    ``KeyboardInterrupt`` so callers get the partial :attr:`result` (whatever
    statistics had accumulated, plus the last checkpoint path when the run
    was checkpointing) instead of losing the run entirely.
    """

    def __init__(self, message: str, *, result: Optional[object] = None) -> None:
        super().__init__(message)
        self.result = result


class TraceCheckError(ReproError):
    """Base class for trace-checking (MBTC) failures."""


class TraceMismatch(TraceCheckError):
    """A recorded trace is not a behaviour of the specification.

    ``step_index`` identifies the first offending step: the transition from
    ``states[step_index]`` to ``states[step_index + 1]`` is not permitted by
    any action of the specification (nor by stuttering, when allowed).
    """

    def __init__(
        self,
        message: str,
        *,
        step_index: int,
        observed: Optional[object] = None,
    ) -> None:
        super().__init__(message)
        self.step_index = step_index
        self.observed = observed


class TraceInitialStateMismatch(TraceCheckError):
    """The first recorded state is not an initial state of the specification."""


class NonTerminationError(ReproError):
    """An operator exceeded its recursion/iteration budget.

    This is the analogue of the ``StackOverflowError`` TLC raised when the
    Realm Sync ArraySwap/ArrayMove merge rule failed to terminate
    (paper Section 5.1.3).
    """

    def __init__(self, message: str, *, operator: Optional[str] = None) -> None:
        super().__init__(message)
        self.operator = operator
