"""Integration tests for the model checker: golden statistics and engines.

The golden numbers regression-pin the fingerprint-interned rewrite: they were
recorded from the seed (state-retaining) engine, and both engines must keep
reproducing them exactly.
"""

import pytest

from conftest import make_counter_spec
from repro.engine import ModelChecker, check_spec
from repro.tla.errors import (
    DeadlockError,
    InvariantViolation,
    StateSpaceLimitExceeded,
)

#: (fixture name, distinct states, generated states, depth) recorded from the seed.
GOLDEN = [
    ("locking_spec", 544, 1981, 6),
    ("raft_original_spec", 3423, 16084, 13),
    ("raft_mbtc_2node_spec", 607, 1585, 11),
]


@pytest.mark.parametrize("fixture_name,distinct,generated,depth", GOLDEN)
@pytest.mark.parametrize("engine", ["fingerprint", "states"])
def test_golden_stats(request, fixture_name, distinct, generated, depth, engine):
    spec = request.getfixturevalue(fixture_name)
    result = check_spec(spec, check_properties=False, engine=engine)
    assert result.ok
    assert result.distinct_states == distinct
    assert result.generated_states == generated
    assert result.max_depth == depth
    assert result.engine == engine


def test_engines_agree_on_action_counts(locking_spec):
    by_fp = check_spec(locking_spec, check_properties=False, engine="fingerprint")
    by_states = check_spec(locking_spec, check_properties=False, engine="states")
    assert by_fp.action_counts == by_states.action_counts
    assert sum(by_fp.action_counts.values()) + 1 == by_fp.generated_states


def test_fingerprint_engine_keeps_only_frontier_states(raft_original_spec):
    result = check_spec(raft_original_spec, check_properties=False, engine="fingerprint")
    assert result.graph is None
    assert 0 < result.peak_frontier < result.distinct_states


def test_raft_temporal_property_holds(raft_mbtc_2node_spec):
    result = check_spec(raft_mbtc_2node_spec)
    assert result.engine == "states"  # property checking needs the graph
    (outcome,) = result.property_outcomes
    assert outcome.property_name == "CommitPointEventuallyPropagated"
    assert outcome.holds and result.ok


def test_fingerprint_engine_refuses_graph_collection(locking_spec):
    with pytest.raises(ValueError):
        ModelChecker(locking_spec, collect_graph=True, engine="fingerprint")
    with pytest.raises(ValueError):
        ModelChecker(locking_spec, engine="warp")


@pytest.mark.parametrize("engine", ["fingerprint", "states"])
def test_invariant_violation_counterexample_is_replayed(engine):
    spec = make_counter_spec(limit=9, invariant_bound=4)
    result = check_spec(spec, check_properties=False, engine=engine)
    assert not result.ok
    violation = result.invariant_violation
    assert violation.property_name == "Bounded"
    assert [state["x"] for state in violation.trace] == [0, 1, 2, 3, 4]
    with pytest.raises(InvariantViolation):
        check_spec(spec, check_properties=False, engine=engine, raise_on_violation=True)


@pytest.mark.parametrize("engine", ["fingerprint", "states"])
def test_deadlock_detection_reports_a_trace(engine):
    spec = make_counter_spec(limit=2)
    result = check_spec(
        spec, check_deadlock=True, check_properties=False, engine=engine
    )
    assert result.deadlock is not None and not result.ok
    assert [state["x"] for state in result.deadlock.trace] == [0, 1, 2]
    with pytest.raises(DeadlockError):
        check_spec(
            spec,
            check_deadlock=True,
            check_properties=False,
            engine=engine,
            raise_on_violation=True,
        )


@pytest.mark.parametrize("engine", ["fingerprint", "states"])
def test_max_states_truncates(engine):
    spec = make_counter_spec(limit=50)
    result = check_spec(
        spec, max_states=10, check_properties=False, engine=engine
    )
    assert result.truncated
    assert result.distinct_states <= 11
    with pytest.raises(StateSpaceLimitExceeded):
        check_spec(
            spec,
            max_states=10,
            check_properties=False,
            engine=engine,
            raise_on_violation=True,
        )


@pytest.mark.parametrize("engine", ["fingerprint", "states"])
def test_max_depth_truncates(engine):
    spec = make_counter_spec(limit=50)
    result = check_spec(spec, max_depth=5, check_properties=False, engine=engine)
    assert result.truncated
    assert result.max_depth == 5


def test_summary_mentions_verdict(locking_spec):
    result = check_spec(locking_spec, check_properties=False)
    assert "OK" in result.summary()
    assert "544 distinct states" in result.summary()


def test_summary_reports_resolved_engine_and_store(locking_spec):
    """engine='auto' must resolve visibly: summary names engine and store."""
    result = check_spec(locking_spec, check_properties=False, engine="auto")
    assert result.engine == "fingerprint"  # auto never leaks into the result
    assert "engine=fingerprint" in result.summary()
    assert "store=fingerprint" in result.summary()
    retained = check_spec(
        locking_spec, check_properties=False, engine="auto", collect_graph=True
    )
    assert retained.engine == "states"
    assert "engine=states" in retained.summary()
    assert "store=states" in retained.summary()


def test_auto_resolution_is_eager_and_inspectable(locking_spec):
    checker = ModelChecker(locking_spec, check_properties=False)
    assert checker.engine == "auto"
    assert checker.resolved_engine == "fingerprint"
    assert checker.resolved_store == "fingerprint"
    graphful = ModelChecker(
        locking_spec, check_properties=False, collect_graph=True
    )
    assert graphful.resolved_engine == "states"
    assert graphful.resolved_store == "states"
