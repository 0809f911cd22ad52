"""Trace-checking (MBTC) tests: accept real behaviours, reject mutated ones."""

import random

import pytest

from repro.engine import check_spec
from repro.tla import check_partial_trace, check_trace
from repro.tla.errors import TraceInitialStateMismatch, TraceMismatch
from repro.tla.trace import SuccessorCache, explain_failure


@pytest.fixture(scope="module")
def locking_graph(locking_spec):
    return check_spec(locking_spec, collect_graph=True, check_properties=False).graph


@pytest.fixture()
def behaviour(locking_spec, locking_graph):
    """A valid 12-state behaviour pulled from the explored state graph."""
    walk = locking_graph.random_walk(random.Random(5), max_length=12)
    return [state for _action, state in walk]


def test_accepts_behaviour_from_state_graph(locking_spec, behaviour):
    result = check_trace(locking_spec, behaviour)
    assert result.ok
    assert result.checked_steps == len(behaviour) - 1
    assert result.matched_actions[0] is None
    assert all(name in ("Acquire", "Release") for name in result.matched_actions[1:])


def test_accepts_stuttering_steps_when_allowed(locking_spec, behaviour):
    stuttered = behaviour[:3] + [behaviour[2]] + behaviour[3:]
    result = check_trace(locking_spec, stuttered)
    assert result.ok and result.stuttering_steps == 1
    rejecting = check_trace(locking_spec, stuttered, allow_stuttering=False)
    assert not rejecting.ok


def test_rejects_mutated_behaviour_and_names_failing_step(locking_spec, behaviour):
    # Teleport: replace the tail with a state that is not a successor.
    mutated = behaviour[:4] + [behaviour[0].with_updates(
        held=(("X", "X", "X"), ("X", "X", "X"))
    )]
    result = check_trace(locking_spec, mutated)
    assert not result.ok
    assert result.failure_index == 3
    assert isinstance(result.failure, TraceMismatch)
    diagnostic = explain_failure(result)
    assert "step 3" in diagnostic and "Locking" in diagnostic


def test_rejects_trace_not_starting_initially(locking_spec, behaviour):
    initials = locking_spec.initial_states()
    start = next(
        index for index, state in enumerate(behaviour) if state not in initials
    )
    suffix = behaviour[start:]
    result = check_trace(locking_spec, suffix)
    assert not result.ok
    assert result.failure_index == 0
    assert isinstance(result.failure, TraceInitialStateMismatch)
    accepted = check_trace(locking_spec, suffix, require_initial=False)
    assert accepted.ok


def test_explain_failure_for_passing_trace(locking_spec, behaviour):
    result = check_trace(locking_spec, behaviour)
    assert "conforms" in explain_failure(result)


def test_successor_cache_shares_work_and_preserves_verdicts(locking_spec, behaviour):
    cache = SuccessorCache(locking_spec)
    first = check_trace(locking_spec, behaviour, successor_cache=cache)
    second = check_trace(locking_spec, behaviour, successor_cache=cache)
    assert first.ok and second.ok
    assert first.matched_actions == second.matched_actions
    assert cache.hits > 0 and cache.misses > 0


def test_partial_trace_search_over_hidden_variables(raft_mbtc_2node_spec):
    spec = raft_mbtc_2node_spec
    graph = check_spec(spec, collect_graph=True, check_properties=False).graph
    walk = graph.random_walk(random.Random(11), max_length=8)
    observations = [
        {"role": state["role"], "oplog": state["oplog"]} for _action, state in walk
    ]
    result = check_partial_trace(spec, observations)
    assert result.ok
    assert len(result.frontier_sizes) == len(observations)

    impossible = observations + [{"role": ("Leader", "Leader"), "oplog": observations[-1]["oplog"]}]
    rejected = check_partial_trace(spec, impossible)
    assert not rejected.ok
