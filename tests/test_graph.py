"""The StateGraph query layer: behaviours, random_walk, terminal_ids."""

import random

import pytest

from repro.engine import check_spec
from repro.tla.errors import SpecError
from repro.tla.graph import StateGraph
from repro.tla.state import State, VariableSchema

from conftest import make_counter_spec

SCHEMA = VariableSchema(("x",))


def _state(x):
    return State(SCHEMA, {"x": x})


def _graph(edges, initial=(0,), n_nodes=None):
    """Build a graph over integer-valued states 0..n-1 from (src, act, dst).

    A node added without a parent is initial; the others name node 0's
    fingerprint as theirs (these graphs are never replayed).
    """
    if n_nodes is None:
        n_nodes = max([0, *[max(s, d) for s, _a, d in edges]]) + 1
    states = [_state(node) for node in range(n_nodes)]
    fps = [state.fingerprint() for state in states]
    graph = StateGraph()
    for node, state in enumerate(states):
        assert graph.add(fps[node], None if node in initial else fps[0])
        graph.place(state)
    for source, action, target in edges:
        graph.add_edge(fps[source], action, fps[target])
    return graph


def _as_tuples(behaviour):
    return tuple((action, state["x"]) for action, state in behaviour)


# ---------------------------------------------------------------------------
# behaviours
# ---------------------------------------------------------------------------


def test_behaviours_enumerates_all_paths_of_a_chain(counter_spec):
    graph = check_spec(counter_spec, collect_graph=True).graph
    behaviours = list(graph.behaviours(max_length=10))
    # The counter graph is a single chain 0 -> 1 -> ... -> 5: one behaviour.
    assert len(behaviours) == 1
    actions, values = zip(*_as_tuples(behaviours[0]))
    assert values == (0, 1, 2, 3, 4, 5)
    assert actions == (None,) + ("Increment",) * 5


def test_behaviours_max_length_one_yields_initial_singletons():
    graph = _graph([(0, "a", 1), (1, "a", 2)], initial=(0,))
    behaviours = [_as_tuples(b) for b in graph.behaviours(max_length=1)]
    assert behaviours == [((None, 0),)]


def test_behaviours_max_length_zero_yields_nothing():
    graph = _graph([(0, "a", 1)])
    assert list(graph.behaviours(max_length=0)) == []


def test_behaviours_terminate_on_cycles_at_max_length():
    # 0 -> 1 -> 0: without the max_length bound this would never terminate.
    graph = _graph([(0, "go", 1), (1, "back", 0)], initial=(0,))
    behaviours = [_as_tuples(b) for b in graph.behaviours(max_length=4)]
    assert behaviours == [
        ((None, 0), ("go", 1), ("back", 0), ("go", 1)),
    ]


def test_behaviours_branching_yields_every_leaf_path():
    graph = _graph(
        [(0, "l", 1), (0, "r", 2), (1, "l", 3), (1, "r", 4)], initial=(0,)
    )
    behaviours = {_as_tuples(b) for b in graph.behaviours(max_length=5)}
    assert behaviours == {
        ((None, 0), ("l", 1), ("l", 3)),
        ((None, 0), ("l", 1), ("r", 4)),
        ((None, 0), ("r", 2)),
    }


def test_behaviours_with_no_initial_states_is_empty():
    graph = _graph([(0, "a", 1)], initial=())
    assert list(graph.behaviours(max_length=5)) == []


def test_behaviours_from_all_states_when_not_initial_only():
    graph = _graph([(0, "a", 1)], initial=())
    behaviours = {_as_tuples(b) for b in graph.behaviours(max_length=5, from_initial_only=False)}
    assert behaviours == {((None, 0), ("a", 1)), ((None, 1),)}


def test_behaviours_deep_chain_is_linear_not_quadratic():
    # A 2000-state chain: the shared parent chain makes this instant; the old
    # path-copying implementation did ~2M element copies here.
    n = 2000
    graph = _graph([(i, "step", i + 1) for i in range(n - 1)], initial=(0,))
    (behaviour,) = list(graph.behaviours(max_length=n))
    assert len(behaviour) == n
    assert behaviour[0][0] is None and behaviour[-1][1]["x"] == n - 1


# ---------------------------------------------------------------------------
# random_walk
# ---------------------------------------------------------------------------


def test_random_walk_is_deterministic_per_seed():
    graph = _graph(
        [(0, "l", 1), (0, "r", 2), (1, "l", 3), (2, "r", 4)], initial=(0,)
    )
    walk_a = _as_tuples(graph.random_walk(random.Random(7), max_length=10))
    walk_b = _as_tuples(graph.random_walk(random.Random(7), max_length=10))
    assert walk_a == walk_b


def test_random_walk_stops_at_terminal_nodes():
    graph = _graph([(0, "a", 1)], initial=(0,))
    walk = graph.random_walk(random.Random(0), max_length=50)
    assert _as_tuples(walk) == ((None, 0), ("a", 1))


def test_random_walk_without_initial_states_raises():
    graph = _graph([(0, "a", 1)], initial=())
    with pytest.raises(SpecError):
        graph.random_walk(random.Random(0), max_length=5)


def test_random_walk_rejects_zero_max_length():
    graph = _graph([(0, "a", 1)], initial=(0,))
    with pytest.raises(SpecError):
        graph.random_walk(random.Random(0), max_length=0)


# ---------------------------------------------------------------------------
# terminal_ids
# ---------------------------------------------------------------------------


def test_terminal_ids_are_nodes_without_outgoing_edges():
    graph = _graph([(0, "a", 1), (0, "b", 2), (2, "c", 2)], initial=(0,))
    assert graph.terminal_ids() == [1]


def test_terminal_ids_of_edgeless_graph_is_every_node():
    graph = _graph([], initial=(0,), n_nodes=3)
    assert graph.terminal_ids() == [0, 1, 2]


def test_counter_spec_terminal_matches_behaviour_end():
    spec = make_counter_spec(limit=3)
    graph = check_spec(spec, collect_graph=True).graph
    (terminal,) = graph.terminal_ids()
    assert graph.state_of(terminal)["x"] == 3


# ---------------------------------------------------------------------------
# terminal_sccs: an iterative Tarjan, no networkx
# ---------------------------------------------------------------------------


def _reference_terminal_sccs(graph):
    """Brute force: components by mutual reachability, kept when closed."""
    n = len(graph)
    reach = []
    for source in range(n):
        seen, todo = {source}, [source]
        while todo:
            for edge in graph.outgoing(todo.pop()):
                if edge.target not in seen:
                    seen.add(edge.target)
                    todo.append(edge.target)
        reach.append(seen)
    components = {frozenset(t for t in reach[s] if s in reach[t]) for s in range(n)}
    return {c for c in components if all(reach[node] <= c for node in c)}


@pytest.mark.parametrize("seed", range(60))
def test_terminal_sccs_match_mutual_reachability(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    edges = [
        (rng.randrange(n), "a", rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))
    ]
    graph = _graph(edges, n_nodes=n)
    got = graph.terminal_sccs()
    assert len(got) == len({frozenset(c) for c in got})
    assert {frozenset(c) for c in got} == _reference_terminal_sccs(graph)


def test_terminal_sccs_of_a_long_chain_need_no_recursion():
    # 200,000 states ending in a 10-state cycle: a recursive Tarjan would
    # blow Python's recursion limit long before the end of the chain.
    n = 200_000
    graph = _graph(
        [(i, "step", i + 1) for i in range(n - 1)] + [(n - 1, "back", n - 10)]
    )
    assert graph.terminal_sccs() == [set(range(n - 10, n))]


def test_property_checks_run_without_networkx():
    import os
    import subprocess
    import sys

    code = """
import sys
sys.modules["networkx"] = None  # any import of it now raises ImportError
from repro.tla.graph import StateGraph
from repro.tla.spec import TemporalProperty
from repro.tla.state import State, VariableSchema
schema = VariableSchema(("x",))
states = [State(schema, {"x": x}) for x in range(3)]
graph = StateGraph()
for x, state in enumerate(states):
    graph.add(state.fingerprint(), None if x == 0 else states[x - 1].fingerprint())
    graph.place(state)
for source, target in ((0, 1), (1, 2), (2, 1)):
    graph.add_edge(states[source].fingerprint(), "step", states[target].fingerprint())
assert graph.terminal_sccs() == [{1, 2}]
reaches = TemporalProperty("ReachesTwo", lambda s: s["x"] == 2, kind="eventually")
never = TemporalProperty("NeverThree", lambda s: s["x"] == 3, kind="eventually")
assert graph.check_property(reaches).holds
assert not graph.check_property(never).holds
from repro.engine import check_spec
from repro.tla.registry import build_spec
(outcome,) = check_spec(build_spec("raftmongo", n_nodes=2)).property_outcomes
assert outcome.property_name == "CommitPointEventuallyPropagated" and outcome.holds
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert done.returncode == 0, done.stderr
