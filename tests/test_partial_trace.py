"""Partial observation is a trace spec the one BFS checks, held to the set search it replaced.

``check_partial_trace`` has the model checker search
:func:`repro.tla.trace.trace_spec`; ``partial_reference`` is the frontier
search it replaced.  On every trace the verdicts agree; a rejection fails
at the same observation after the BFS has counted exactly the reference's
frontier states; an acceptance carries a witness that matches every
observation and is itself a behaviour of the spec.
"""

import random

import pytest

from partial_reference import reference_partial_check
from repro.engine import check_spec
from repro.specs import ot_array, raft_mongo
from repro.tla import Action, Specification, check_partial_trace, check_trace, trace_spec
from repro.tla.errors import EvaluationError, TraceInitialStateMismatch
from repro.tla.values import freeze


def _walk(spec, rng, length):
    """A seeded behaviour of up to ``length`` states, stepped on the spec's actions."""
    state = rng.choice(spec.initial_states())
    states = [state]
    while len(states) < length:
        successors = spec.successors(state)
        if not successors:
            break
        state = rng.choice(successors)[1]
        states.append(state)
    return states


def _traces(spec, observed, impossible, *, count, length, seed):
    """``count`` observed walks; every third ends in an ``impossible`` observation."""
    rng = random.Random(seed)
    traces = []
    for n in range(count):
        states = _walk(spec, rng, rng.randint(1, length))
        observations = [{name: state[name] for name in observed} for state in states]
        if n % 3 == 2:
            observations.append(impossible(spec))
        traces.append(observations)
    return traces


def _assert_parity(spec, observations, allow_stuttering=True):
    result = check_partial_trace(spec, observations, allow_stuttering=allow_stuttering)
    reference = reference_partial_check(
        spec, observations, allow_stuttering=allow_stuttering
    )
    assert result.ok == reference.ok
    assert result.trace_length == len(observations)
    if not result.ok:
        assert result.failure_index == reference.failure_index
        assert type(result.failure) is type(reference.failure)
        assert str(result.failure) == str(reference.failure)
        if not isinstance(result.failure, TraceInitialStateMismatch):
            found = check_spec(
                trace_spec(spec, observations, allow_stuttering=allow_stuttering),
                engine="fingerprint",
                check_properties=False,
            )
            assert found.invariant_violation is None
            assert found.max_depth == result.failure_index == result.checked_steps
            assert found.distinct_states == sum(reference.frontier_sizes)
        return result
    assert result.checked_steps == len(observations) - 1
    assert len(result.witness) == len(observations)
    for state, observation in zip(result.witness, observations):
        assert state.schema == spec.schema
        assert all(state[name] == freeze(value) for name, value in observation.items())
    assert check_trace(spec, result.witness, allow_stuttering=allow_stuttering).ok
    return result


def _all_leaders(spec):
    """Every node a leader at once: RaftMongo's AtMostOneLeader rules it out."""
    return {"role": ("Leader",) * spec.constants["n_nodes"]}


@pytest.mark.parametrize("allow_stuttering", [True, False])
def test_raftmongo_2_nodes_role_and_oplog(raft_mbtc_2node_spec, allow_stuttering):
    spec = raft_mbtc_2node_spec
    traces = _traces(
        spec, ("role", "oplog"), _all_leaders, count=100, length=12, seed=46 + allow_stuttering
    )
    verdicts = [_assert_parity(spec, obs, allow_stuttering).ok for obs in traces]
    assert True in verdicts and False in verdicts


def test_ot_array_arrays_only():
    spec = ot_array.build_spec(ot_array.OTArrayConfig(init_length=3))
    traces = _traces(
        spec, ("arrays",), lambda spec: {"arrays": ((9,), (9,))}, count=50, length=8, seed=7
    )
    verdicts = [_assert_parity(spec, obs).ok for obs in traces]
    assert True in verdicts and False in verdicts


def test_raftmongo_3_nodes_role_only():
    spec = raft_mongo.build_spec(raft_mongo.RaftMongoConfig(n_nodes=3))
    traces = _traces(spec, ("role",), _all_leaders, count=6, length=14, seed=3)
    verdicts = [_assert_parity(spec, obs).ok for obs in traces]
    assert True in verdicts and False in verdicts


def test_edges_of_the_trace(raft_mbtc_2node_spec):
    spec = raft_mbtc_2node_spec
    assert check_partial_trace(spec, []).ok
    first = {"role": spec.initial_states()[0]["role"]}
    single = _assert_parity(spec, [first])
    assert single.ok and len(single.witness) == 1
    _assert_parity(spec, [_all_leaders(spec)])
    # The product spec is an ordinary spec: the spec's actions, lifted, and a stutter.
    product = trace_spec(spec, [first, first])
    assert product.schema.names == (*spec.schema.names, "i")
    assert [act.name for act in product.actions][:-1] == [act.name for act in spec.actions]
    assert [inv.name for inv in product.invariants] == ["Unexplained"]
    assert product.constraint is None and not product.properties


def test_an_action_error_is_wrapped_once():
    """The lifted action re-raises the inner ``EvaluationError`` as it is."""

    def bad(state):
        raise ValueError("boom")
        yield  # pragma: no cover - makes ``bad`` a generator

    spec = Specification(
        "Boom", variables=("x",), init=lambda: [{"x": 0}], actions=[Action("Bad", bad)]
    )
    for run in (
        lambda: check_spec(spec, check_properties=False),
        lambda: check_partial_trace(spec, [{"x": 0}, {"x": 1}]),
    ):
        with pytest.raises(EvaluationError) as info:
            run()
        assert str(info.value) == "action 'Bad' raised ValueError: boom"
        assert info.value.action == "Bad"


def test_the_stutter_reads_only_i_and_the_observed_slots(monkeypatch):
    """``<stutter>`` reads its slots by name, so the read-set memo keys it on
    ``i`` and the observed variables and serves most of its calls."""
    import repro.compile

    spec = raft_mongo.build_spec(raft_mongo.RaftMongoConfig(n_nodes=3))
    traces = _traces(spec, ("role",), _all_leaders, count=6, length=14, seed=3)
    longest = max(traces, key=len)
    compiled = []
    compile_spec = repro.compile.compile_spec

    def recording(spec):
        compiled.append(compile_spec(spec))
        return compiled[-1]

    monkeypatch.setattr(repro.compile, "compile_spec", recording)
    check_spec(trace_spec(spec, longest), check_properties=False)
    stats = compiled[0].compile_info["memo"]["<stutter>"]
    assert not stats["opaque"]
    assert stats["hits"] > stats["misses"] > 0
