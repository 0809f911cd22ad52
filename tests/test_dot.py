"""Smoke tests for the DOT export/parse round trip used by MBTCG."""

import pytest

from repro.engine import check_spec
from repro.tla import parse_dot, to_dot
from repro.tla.dot import roundtrip_counts
from repro.tla.errors import SpecError


@pytest.fixture(scope="module")
def graph(raft_mbtc_2node_spec):
    return check_spec(
        raft_mbtc_2node_spec, collect_graph=True, check_properties=False
    ).graph


def test_round_trip_preserves_counts_and_initial_states(graph):
    nodes, edges = roundtrip_counts(graph)
    assert nodes == len(graph)
    assert edges == len(graph.edges)
    parsed = parse_dot(to_dot(graph))
    assert parsed.initial == list(graph.initial_ids)
    # Node labels are lossless JSON states.
    root = parsed.nodes[parsed.initial[0]]
    assert set(root) == {"role", "term", "commitPoint", "oplog"}


def test_parse_rejects_garbage_lines():
    with pytest.raises(SpecError):
        parse_dot("digraph X {\n  not a dot line\n}")
    with pytest.raises(SpecError):
        parse_dot('digraph X {\n  0 -> 1 [label="A"];\n}')  # undeclared nodes
