"""TLA+-style specification and model-checking substrate (TLC substitute).

This package is the reproduction's replacement for the TLA+ tool chain the
paper uses (the TLA+ language plus the TLC model checker).  Specifications
are written as plain Python (variables, actions, invariants); the
:class:`~repro.engine.core.ModelChecker` of :mod:`repro.engine` explores the
reachable state space with a pluggable engine -- exhaustive BFS exactly as
TLC does, or seeded random simulation -- the :mod:`~repro.tla.trace` module
checks recorded implementation traces against a specification (MBTC), and
the :mod:`~repro.tla.dot` module exports the state graph for model-based
test-case generation (MBTCG).
"""

from . import registry
from .coverage import CoverageReport, merge_reports
from .dot import to_dot
from .errors import (
    CheckerError,
    DeadlockError,
    EvaluationError,
    InvariantViolation,
    LivenessViolation,
    NonTerminationError,
    PropertyViolation,
    ReproError,
    SpecError,
    StateSpaceLimitExceeded,
    TraceCheckError,
    TraceInitialStateMismatch,
    TraceMismatch,
)
from .graph import Edge, PropertyCheckOutcome, StateGraph
from .registry import SpecEntry, build_spec, register_spec, registered_names
from .spec import Action, Invariant, Specification, TemporalProperty, action, invariant
from .state import State, VariableSchema
from .trace import (
    SuccessorCache,
    TraceCheckResult,
    TraceFold,
    check_partial_trace,
    check_trace,
    explain_failure,
    trace_spec,
)
from .values import (
    NULL,
    Record,
    append,
    fingerprint,
    freeze,
    last,
    sub_seq,
    thaw,
)

__all__ = [
    "NULL",
    "Action",
    "CheckerError",
    "CoverageReport",
    "DeadlockError",
    "Edge",
    "EvaluationError",
    "Invariant",
    "InvariantViolation",
    "LivenessViolation",
    "NonTerminationError",
    "PropertyCheckOutcome",
    "PropertyViolation",
    "Record",
    "ReproError",
    "SpecEntry",
    "Specification",
    "SpecError",
    "State",
    "StateGraph",
    "StateSpaceLimitExceeded",
    "SuccessorCache",
    "TemporalProperty",
    "TraceCheckError",
    "TraceCheckResult",
    "TraceFold",
    "TraceInitialStateMismatch",
    "TraceMismatch",
    "VariableSchema",
    "action",
    "append",
    "build_spec",
    "check_partial_trace",
    "check_trace",
    "explain_failure",
    "fingerprint",
    "freeze",
    "invariant",
    "last",
    "merge_reports",
    "register_spec",
    "registered_names",
    "registry",
    "sub_seq",
    "thaw",
    "to_dot",
    "trace_spec",
]
