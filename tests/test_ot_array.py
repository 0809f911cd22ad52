"""The OTArray spec: convergence, transform rules, registry and log hooks."""

import pytest

from repro.pipeline.logs import trace_from_logs, write_per_node_logs
from repro.specs import ot_array
from repro.engine import check_spec
from repro.tla import NULL, check_trace
from repro.tla.registry import build_spec, get_entry


@pytest.fixture(scope="module")
def ot_spec():
    return build_spec("ot_array")


@pytest.fixture(scope="module")
def ot_result(ot_spec):
    return check_spec(ot_spec, collect_graph=True, check_properties=False)


def test_convergence_holds_over_the_whole_state_space(ot_result):
    """TP1: every concurrent op pair converges -- the model checker proves it."""
    assert ot_result.ok
    assert ot_result.invariant_violation is None
    assert ot_result.distinct_states == 225
    assert ot_result.max_depth == 4  # propose, propose, integrate, integrate


def test_every_action_is_reachable(ot_result):
    counts = ot_result.action_counts
    assert set(counts) == {"Insert", "Remove", "Set", "Integrate"}
    assert all(count > 0 for count in counts.values())


def test_terminal_states_are_converged(ot_result):
    graph = ot_result.graph
    for node in graph.terminal_ids():
        state = graph.state_of(node)
        assert state["arrays"][0] == state["arrays"][1]


def test_transform_insert_insert_tie_respects_priority():
    a = ot_array.transform(
        ot_array._insert(1, 10), ot_array._insert(1, 11), op_has_priority=True
    )
    b = ot_array.transform(
        ot_array._insert(1, 11), ot_array._insert(1, 10), op_has_priority=False
    )
    assert a["pos"] == 1  # the priority op keeps its slot
    assert b["pos"] == 2  # the other shifts right: same total order both sides


def test_transform_remove_remove_same_index_dissolves():
    op = ot_array._remove(1)
    assert ot_array.transform(op, ot_array._remove(1), op_has_priority=True) is None


def test_transform_set_on_removed_element_dissolves():
    assert (
        ot_array.transform(
            ot_array._set(0, 20), ot_array._remove(0), op_has_priority=True
        )
        is None
    )


def test_apply_op_insert_remove_set():
    base = (0, 1)
    assert ot_array.apply_op(base, ot_array._insert(1, 9)) == (0, 9, 1)
    assert ot_array.apply_op(base, ot_array._remove(0)) == (1,)
    assert ot_array.apply_op(base, ot_array._set(1, 9)) == (0, 9)
    assert ot_array.apply_op(base, None) == base


def test_config_validation():
    with pytest.raises(ValueError):
        ot_array.OTArrayConfig(init_length=0)


def test_registry_entry_carries_log_metadata(ot_spec):
    entry = get_entry("ot_array")
    assert entry.per_node_variables(ot_spec) == ("arrays", "ops", "synced")
    assert entry.node_count(ot_spec) == 2
    assert ot_spec.registry_ref == ("ot_array", {})


def test_behaviour_round_trips_through_per_node_logs(tmp_path, ot_spec, ot_result):
    """A full OT behaviour survives the log write/parse/fold round trip."""
    behaviour = next(ot_result.graph.behaviours(max_length=6))
    states = [state for _action, state in behaviour]
    actions = [action for action, _state in behaviour]
    entry = get_entry("ot_array")
    paths = write_per_node_logs(
        ot_spec,
        states,
        per_node=entry.per_node_variables(ot_spec),
        nodes=entry.node_count(ot_spec),
        directory=str(tmp_path),
        basename="case",
        actions=actions,
    )
    rebuilt = trace_from_logs(
        ot_spec, paths, per_node=entry.per_node_variables(ot_spec)
    )
    assert rebuilt == states
    assert check_trace(ot_spec, rebuilt).ok


def test_initial_state_shape(ot_spec):
    (initial,) = ot_spec.initial_states()
    assert initial["arrays"] == ((0, 1), (0, 1))
    assert initial["ops"] == (NULL, NULL)
    assert initial["synced"] == (False, False)
