"""Golden tests of the DOT export (``to_dot`` and ``check --dot``)."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from repro.engine import check_spec
from repro.pipeline.cli import main
from repro.tla import to_dot

#: sha256 of ``check raftmongo --param n_nodes=2 --engine states --dot F``.
RAFTMONGO_2NODE_SHA256 = "d3e560290605f39afbf7e2cf5fd2319a846164dc7f54a518660ac4a01bfe0d89"
#: sha256 of ``check ot_array --param init_length=3 --engine states
#: --no-properties --dot F``.
OT_ARRAY_3_SHA256 = "fe05a1d50fd5c6b7b11a4e4131dd37402ace9dd86784e4e7aa9e325e6f1282fd"

_NODE = re.compile(r'^  (\d+) \[label="(.*)"(,init=true)?\];$', re.MULTILINE)
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def graph(raft_mbtc_2node_spec):
    return check_spec(
        raft_mbtc_2node_spec, collect_graph=True, check_properties=False
    ).graph


def test_raftmongo_2node_dot_is_golden(graph):
    text = to_dot(graph, name="RaftMongo_mbtc")
    assert _sha256(text.encode("utf-8")) == RAFTMONGO_2NODE_SHA256


@pytest.mark.parametrize("seed", ["0", "123"])
def test_check_dot_is_the_same_under_any_hash_seed(tmp_path, seed):
    out = tmp_path / "graph.dot"
    subprocess.run(
        [sys.executable, "-m", "repro", "check", "raftmongo", "--param", "n_nodes=2",
         "--engine", "states", "--dot", str(out)],
        cwd=_ROOT, capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": seed},
    )
    assert _sha256(out.read_bytes()) == RAFTMONGO_2NODE_SHA256


def test_ot_array_check_dot_is_golden(tmp_path, capsys):
    out = tmp_path / "graph.dot"
    assert main([
        "check", "ot_array", "--param", "init_length=3", "--engine", "states",
        "--no-properties", "--dot", str(out),
    ]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == OT_ARRAY_3_SHA256


def test_node_labels_are_json_states_and_init_marks_the_initial_ids(graph):
    nodes = _NODE.findall(to_dot(graph))
    assert [int(node) for node, _label, _init in nodes] == list(range(len(graph)))
    assert [int(node) for node, _label, init in nodes if init] == list(
        graph.initial_ids
    )
    for _node, label, _init in nodes:
        state = json.loads(label.replace('\\"', '"').replace("\\\\", "\\"))
        assert set(state) == {"role", "term", "commitPoint", "oplog"}
