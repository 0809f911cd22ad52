"""Pickle round-trips: the serialization layer under the worker pools.

States, records and the NULL constant cross process boundaries in the
walk engine's worker pool and land in checkpoints; each must round-trip
through pickle preserving equality, hashes and fingerprints (fingerprints are
the cross-process currency, so they must be identical, not just consistent).
"""

import pickle

import pytest

from repro.tla import NULL, Record, State, VariableSchema, fingerprint
from repro.tla.errors import (
    EvaluationError,
    InvariantViolation,
    TraceMismatch,
)
from repro.tla.registry import build_spec


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def test_null_roundtrips_to_the_singleton():
    assert _roundtrip(NULL) is NULL
    assert _roundtrip((NULL, 1)) == (NULL, 1)


def test_record_roundtrip_preserves_value_semantics():
    record = Record(ndx=3, term=1, log=(Record(op="set", value=NULL), "x"))
    clone = _roundtrip(record)
    assert clone == record
    assert hash(clone) == hash(record)
    assert clone.ndx == 3
    assert fingerprint(clone) == fingerprint(record)
    with pytest.raises(AttributeError):
        clone.ndx = 4  # still immutable


def test_variable_schema_roundtrip():
    schema = VariableSchema(("a", "b"))
    clone = _roundtrip(schema)
    assert clone == schema
    assert clone.index_of("b") == 1


def test_state_roundtrip_preserves_fingerprint():
    schema = VariableSchema(("x", "rec"))
    state = State(schema, {"x": (1, 2, frozenset({3})), "rec": {"f": NULL}})
    clone = _roundtrip(state)
    assert clone == state
    assert hash(clone) == hash(state)
    assert clone.fingerprint() == state.fingerprint()
    assert clone.to_dict() == state.to_dict()


@pytest.mark.parametrize(
    "name,params",
    [("locking", {}), ("raftmongo", {"n_nodes": 2, "variant": "mbtc"})],
)
def test_real_spec_states_roundtrip(name, params):
    spec = build_spec(name, **params)
    for state in spec.initial_states():
        clone = _roundtrip(state)
        assert clone == state
        assert clone.fingerprint() == state.fingerprint()
        # Successor generation works on the rebuilt state.
        assert [a for a, _ in spec.successors(clone)] == [
            a for a, _ in spec.successors(state)
        ]


def test_a_decoded_trace_pickles_as_the_list_of_its_states():
    """A :class:`BoundTrace` leaves its cache behind: it pickles as a plain
    list of states, which a fresh spec checks to the same verdict."""
    import random

    from repro.pipeline import events_from_trace, events_to_trace, generate_trace
    from repro.tla import check_trace
    from repro.tla.registry import get_entry
    from repro.tla.trace import BoundTrace

    spec = build_spec("raftmongo", n_nodes=2)
    per_node = get_entry("raftmongo").per_node_variables(spec)
    generated = generate_trace(spec, random.Random(4), min_steps=8, max_steps=12)
    events = events_from_trace(
        spec, generated.states, per_node=per_node, actions=generated.actions
    )
    trace = events_to_trace(spec, events, per_node=per_node)
    assert isinstance(trace, BoundTrace)
    clone = _roundtrip(trace)
    assert type(clone) is list and clone == list(trace) == generated.states
    assert [s.fingerprint() for s in clone] == [s.fingerprint() for s in trace]
    fresh = build_spec("raftmongo", n_nodes=2)
    assert check_trace(fresh, clone).ok and check_trace(spec, trace).ok


def test_exceptions_with_required_kwargs_roundtrip():
    mismatch = TraceMismatch("bad step", step_index=4, observed={"x": 1})
    clone = _roundtrip(mismatch)
    assert isinstance(clone, TraceMismatch)
    assert clone.step_index == 4 and clone.observed == {"x": 1}
    assert str(clone) == str(mismatch)

    schema = VariableSchema(("x",))
    violation = InvariantViolation(
        "broken",
        property_name="Inv",
        trace=[State(schema, {"x": 1})],
    )
    clone = _roundtrip(violation)
    assert clone.property_name == "Inv"
    assert [s["x"] for s in clone.trace] == [1]

    evaluation = _roundtrip(EvaluationError("boom", action="Acquire"))
    assert evaluation.action == "Acquire"
