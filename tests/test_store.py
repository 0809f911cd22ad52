"""Unit tests for the pluggable visited-state stores (repro.engine.store)."""

import pytest

from repro.engine import DiskFingerprintStore
from repro.engine.store import FingerprintSetStore, make_store
from repro.tla import State, StateGraph, VariableSchema


def test_fingerprint_store_add_and_membership():
    store = FingerprintSetStore()
    assert store.add(1) and store.add(2)
    assert not store.add(1)  # duplicate
    assert 1 in store and 3 not in store
    assert len(store) == 2
    assert store.distinct_count == 2


def test_state_graph_store_keys_nodes_by_fingerprint():
    schema = VariableSchema(("x",))
    store = StateGraph()
    s0, s1 = State(schema, {"x": 0}), State(schema, {"x": 1})
    fp0, fp1 = s0.fingerprint(), s1.fingerprint()
    assert store.add(fp0)
    store.place(s0)
    assert store.add(fp1, fp0)
    store.place(s1)
    assert not store.add(fp0, fp1)  # duplicate
    assert store.parent_of(fp0) is None and store.parent_of(fp1) == fp0
    assert store.state_of(1)["x"] == 1
    assert store.id_of(State(schema, {"x": 1})) == 1
    assert State(schema, {"x": 0}) in store and State(schema, {"x": 2}) not in store
    assert len(store) == store.distinct_count == 2
    assert store.initial_ids == (0,)
    assert store.name == "graph"


def test_make_store_builds_each_store_by_name():
    assert isinstance(make_store("fingerprint"), FingerprintSetStore)
    disk = make_store("disk")
    assert isinstance(disk, DiskFingerprintStore)
    disk.close()
    for removed in ("lru", "states", "graph"):
        with pytest.raises(ValueError, match=f"unknown store '{removed}'; expected one of: "):
            make_store(removed)
