"""Shared fixtures: the specs every test layer checks against."""

import threading

import pytest

from interpreted_reference import use_oracle
from repro.specs import locking, raft_mongo
from repro.tla import Action, Invariant, Specification


@pytest.fixture(scope="session")
def locking_spec():
    """The default 2-thread hierarchical-locking spec (544 reachable states)."""
    return locking.build_spec()


@pytest.fixture(scope="session")
def raft_original_spec():
    """RaftMongo 'original' variant at the small test configuration."""
    return raft_mongo.build_spec(raft_mongo.RaftMongoConfig(variant="original"))


@pytest.fixture(scope="session")
def raft_mbtc_2node_spec():
    """RaftMongo 'mbtc' variant shrunk to 2 nodes (607 reachable states)."""
    return raft_mongo.build_spec(raft_mongo.RaftMongoConfig(n_nodes=2, variant="mbtc"))


def make_counter_spec(limit=5, invariant_bound=None):
    """A one-variable counter spec; optionally with a violating invariant."""

    def init():
        yield {"x": 0}

    def increment(state):
        if state["x"] < limit:
            yield {"x": state["x"] + 1}

    invariants = []
    if invariant_bound is not None:
        invariants.append(
            Invariant("Bounded", lambda state: state["x"] < invariant_bound)
        )
    return Specification(
        "Counter",
        variables=("x",),
        init=init,
        actions=[Action("Increment", increment)],
        invariants=invariants,
    )


@pytest.fixture()
def counter_spec():
    return make_counter_spec()


@pytest.fixture()
def started_threads(monkeypatch):
    """The names of the threads started while the test runs."""
    names = []
    start = threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


@pytest.fixture()
def oracle(monkeypatch):
    """The test runs every spec the library compiles on the interpreted
    oracle (``interpreted_reference.InterpretedExpander``) instead."""
    use_oracle(monkeypatch)
