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
    assert len(result.witness) == len(observations)

    impossible = observations + [{"role": ("Leader", "Leader"), "oplog": observations[-1]["oplog"]}]
    rejected = check_partial_trace(spec, impossible)
    assert not rejected.ok


# The fold on the compiled substrate ------------------------------------------
#
# ``TraceFold`` steps on interned value tuples and takes its coverage
# fingerprints from the expander.  The reference below is the definition it
# must agree with: interpreted successors, ``State.__eq__``, and
# ``coverage_of_trace`` over uncached ``State.fingerprint()``.

_FOLD_SPECS = [
    ("locking", {"n_threads": 2}),
    ("raftmongo", {"n_nodes": 2}),
    ("ot_array", {"init_length": 3}),
]


def _reference_check(spec, states):
    """``(ok, failure_index, matched_actions, stutters, message)`` by the book."""
    if states[0] not in spec.initial_states():
        return False, 0, [], 0, f"trace state 0 is not an initial state of {spec.name!r}"
    matched, stutters, current = [None], 0, states[0]
    for index, nxt in enumerate(states[1:]):
        successors = spec.successors(current)
        if nxt == current:
            matched.append("<stutter>")
            stutters += 1
            continue
        for name, successor in successors:
            if successor == nxt:
                matched.append(name)
                current = nxt
                break
        else:
            enabled = list(dict.fromkeys(name for name, _ in successors))
            return False, index, matched, stutters, (
                f"step {index} -> {index + 1} of the trace is not permitted by any "
                f"action of {spec.name!r} (enabled: {enabled})"
            )
    return True, None, matched, stutters, None


def _through_logs(spec, name, trace):
    """The trace as a checker meets it: every value freshly decoded from JSON."""
    from repro.pipeline.logs import (
        events_from_trace,
        events_to_trace,
        format_event,
        parse_log_lines,
    )
    from repro.tla.registry import get_entry

    per_node = get_entry(name).per_node_variables(spec)
    events = events_from_trace(spec, trace.states, per_node=per_node, actions=trace.actions)
    lines = [format_event(event) for event in events]
    return events_to_trace(spec, parse_log_lines(lines), per_node=per_node)


def _assert_fold_is_reference(spec, cache, states):
    from coverage_reference import coverage_of_trace

    from repro.pipeline.runner import check_one

    result, coverage = check_one(
        spec, cache, states,
        allow_stuttering=True, require_initial=True, collect_coverage=True,
    )
    ok, failure_index, matched, stutters, message = _reference_check(spec, states)
    assert (result.ok, result.failure_index) == (ok, failure_index)
    assert result.matched_actions == matched
    assert result.stuttering_steps == stutters
    assert (None if result.ok else str(result.failure)) == message
    reference = coverage_of_trace(
        spec, result.validated_prefix(states), matched_actions=result.matched_actions
    )
    assert coverage.to_json() == reference.to_json()
    return result


@pytest.mark.parametrize("name, params", _FOLD_SPECS)
def test_fold_is_the_reference_on_conforming_and_faulted_traces(name, params):
    from repro.pipeline.workload import generate_workload
    from repro.tla.registry import build_spec

    spec = build_spec(name, **params)
    cache = SuccessorCache(spec)
    faults = set()
    for trace in generate_workload(
        spec, n_traces=60, seed=3, fault_rate=0.5, min_steps=6, max_steps=14,
        stutter_probability=0.15,
    ):
        faults.add(trace.fault)
        # As generated (another cache's canonical objects) and as decoded.
        direct = _assert_fold_is_reference(spec, cache, trace.states)
        logged = _assert_fold_is_reference(spec, cache, _through_logs(spec, name, trace))
        assert direct.ok == logged.ok == trace.expect_ok
    assert faults == {None, "teleport", "drop-head"}


def test_fold_verdicts_survive_evictions_in_the_cache_and_the_interner():
    from repro.pipeline.runner import check_one
    from repro.pipeline.workload import generate_workload
    from repro.tla.registry import build_spec

    spec = build_spec("raftmongo", n_nodes=2)
    traces = [
        trace.states
        for trace in generate_workload(spec, n_traces=80, seed=5, fault_rate=0.3)
    ]
    options = dict(allow_stuttering=True, require_initial=True, collect_coverage=True)

    def run(cache):
        outcomes = []
        for states in traces:
            result, coverage = check_one(spec, cache, states, **options)
            outcomes.append((result.ok, result.failure_index, result.matched_actions,
                             str(result.failure), coverage.to_json()))
        return outcomes

    roomy = SuccessorCache(spec)
    tiny = SuccessorCache(spec, max_entries=8)
    tiny.interner.max_entries = 24
    assert run(tiny) == run(roomy)
    assert len(tiny) <= 8 < len(roomy)
    assert tiny.interner.evictions > 0 and roomy.interner.evictions == 0


@pytest.mark.parametrize("name, params", _FOLD_SPECS)
def test_threads_sharing_a_cache_survive_evictions_mid_batch(name, params):
    # Every eviction walks a dict another thread may be inserting into; the
    # cache's lock is what keeps that from surfacing as a per-trace error.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from repro.pipeline.runner import check_one
    from repro.pipeline.workload import generate_workload
    from repro.tla.registry import build_spec

    spec = build_spec(name, **params)
    traces = [
        trace.states
        for trace in generate_workload(spec, n_traces=60, seed=11, fault_rate=0.3)
    ]
    options = dict(allow_stuttering=True, require_initial=True, collect_coverage=True)

    def outcome(cache, states):
        result, coverage = check_one(spec, cache, states, **options)
        return (result.ok, result.failure_index, result.matched_actions,
                str(result.failure), coverage.to_json())

    roomy = SuccessorCache(spec)
    expected = [outcome(roomy, states) for states in traces]
    tiny = SuccessorCache(spec, max_entries=8)
    tiny.interner.max_entries = 16
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _round in range(3):
                assert list(pool.map(lambda states: outcome(tiny, states), traces)) == expected
    finally:
        sys.setswitchinterval(interval)
    assert tiny.interner.evictions > 0 and len(tiny) <= 8


def test_a_1_logged_for_true_is_a_stutter_even_beside_a_self_loop_producing_1():
    # The observation equals the current state and *is* a successor of it:
    # equality with the current state is asked first.
    from repro.pipeline.runner import check_one
    from repro.tla import Action, Specification

    def init():
        yield {"flag": True, "n": 0}

    def relabel(state):
        yield {"flag": 1}

    def count(state):
        if state["n"] < 2:
            yield {"n": state["n"] + 1}

    spec = Specification(
        "Relabel", variables=("flag", "n"), init=init,
        actions=[Action("Relabel", relabel), Action("Count", count)],
    )
    start = spec.make_state(flag=True, n=0)
    logged = spec.make_state(flag=1, n=0)
    assert logged == start and type(logged["flag"]) is int
    counted = spec.make_state(flag=1, n=1)
    trace = [start, logged, counted, spec.make_state(flag=True, n=1)]
    result, coverage = check_one(
        spec, SuccessorCache(spec), trace,
        allow_stuttering=True, require_initial=True, collect_coverage=True,
    )
    assert result.ok and result.stuttering_steps == 2
    assert result.matched_actions == [None, "<stutter>", "Count", "<stutter>"]
    # A stutter leaves the fold on the state it held, so that is what is covered.
    assert coverage.visited_fingerprints == {start.fingerprint(), counted.fingerprint()}
    assert coverage.action_counts == {"Count": 1}


def test_a_stutter_on_a_state_no_action_can_evaluate_asks_for_no_successors():
    # ... and a state the native kernel was not specialized for gets the
    # spec's own closures: their verdict, or the error they always raised.
    from repro.tla.errors import EvaluationError
    from repro.tla.registry import build_spec
    from repro.tla.state import State

    spec = build_spec("locking")
    start = next(iter(spec.initial_states()))
    held = start["held"]
    cache = SuccessorCache(spec)
    assert cache.kernel == "native"
    unknown_modes = tuple(("Q",) * len(row) for row in held)
    for odd in (held[:-1], "nope", unknown_modes):
        odd = State.from_values(spec.schema, (odd,))
        assert check_trace(spec, [odd, odd], require_initial=False, successor_cache=cache).ok
        rejected = check_trace(spec, [start, odd], successor_cache=cache)
        assert not rejected.ok and "enabled: ['Acquire']" in str(rejected.failure)
        if odd["held"] is unknown_modes:
            rejected = check_trace(
                spec, [odd, start], require_initial=False, successor_cache=cache
            )
            assert not rejected.ok and "enabled: ['Release']" in str(rejected.failure)
        else:
            with pytest.raises(EvaluationError):
                check_trace(spec, [odd, start], require_initial=False, successor_cache=cache)


def test_a_log_reporting_1_for_true_keeps_the_verdict():
    # ``1 == True``: the interner keeps them apart, so identity finds nothing
    # and State.__eq__ decides, as it always did.
    from repro.pipeline.workload import generate_workload
    from repro.tla.registry import build_spec

    spec = build_spec("ot_array", init_length=3)
    cache = SuccessorCache(spec)
    for trace in generate_workload(spec, n_traces=12, seed=9, min_steps=4, max_steps=8):
        as_ints = [
            state if index == 0 else state.with_updates(
                synced=tuple(int(flag) for flag in state["synced"])
            )
            for index, state in enumerate(trace.states)
        ]
        assert as_ints[1:] == trace.states[1:]  # equal, not the same types
        expected = _assert_fold_is_reference(spec, cache, trace.states)
        observed = _assert_fold_is_reference(spec, cache, as_ints)
        assert observed.ok and observed.matched_actions == expected.matched_actions


def test_a_log_reporting_true_for_1_keeps_the_verdict(raft_mbtc_2node_spec):
    from repro.pipeline.workload import generate_workload

    spec = raft_mbtc_2node_spec
    cache = SuccessorCache(spec)
    checked = 0
    for trace in generate_workload(spec, n_traces=20, seed=2, min_steps=6, max_steps=10):
        as_bools = [
            state if index == 0 else state.with_updates(
                term=tuple(True if term == 1 else term for term in state["term"])
            )
            for index, state in enumerate(trace.states)
        ]
        checked += any(True in state["term"] for state in as_bools)
        assert _assert_fold_is_reference(spec, cache, as_bools).ok
    assert checked


def test_the_oracle_folds_every_trace_as_the_reference_does(oracle):
    from repro.pipeline.workload import generate_workload
    from repro.tla.registry import build_spec

    spec = build_spec("raftmongo", n_nodes=2)
    traces = list(generate_workload(spec, n_traces=30, seed=4, fault_rate=0.4))
    cache = SuccessorCache(spec)
    assert cache.kernel == "interpreted"
    for trace in traces:
        assert _assert_fold_is_reference(spec, cache, trace.states).ok == trace.expect_ok
    assert cache.stats()["memo_misses"] == 0 and cache.stats()["interner_misses"] > 0
