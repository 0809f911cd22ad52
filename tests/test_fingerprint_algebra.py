"""The fingerprint algebra of :mod:`repro.tla.values`: every place that
updates a fingerprint incrementally agrees with the walk, structurally
different values stay apart, and the 64 bits are honest on a real space."""

from collections import Counter

import pytest

from repro.compile import ValueInterner, compile_spec
from repro.compile.kernels import build_generic_kernels
from repro.engine import check_spec
from repro.tla import Record, State
from repro.tla.registry import build_spec
from repro.tla.trace import SuccessorCache
from repro.tla.values import (
    FP_PRIME,
    fingerprint,
    state_fingerprint,
    state_fingerprint_of_terms,
)

SPECS = [
    ("locking", {"n_threads": 3}),
    ("raftmongo", {"n_nodes": 2}),
    ("ot_array", {"init_length": 3}),
]


def _reachable(spec, limit=300):
    """Up to ``limit`` reachable value tuples, breadth first."""
    frontier = [state.values for state in spec.initial_states()]
    seen = dict.fromkeys(frontier)
    while frontier and len(seen) < limit:
        state = State.from_values(spec.schema, frontier.pop(0))
        for _name, successor in spec.successors(state):
            if successor.values not in seen:
                seen[successor.values] = None
                frontier.append(successor.values)
    return list(seen)


def _walked(spec, values):
    return State.from_values(spec.schema, values).fingerprint()


@pytest.mark.parametrize("name, params", SPECS)
def test_every_incremental_fingerprint_equals_the_walk(name, params):
    spec = build_spec(name, **params)
    generic, _verdict, _info = build_generic_kernels(spec, ValueInterner())
    expanders = [generic, compile_spec(spec).transitions]
    cache = SuccessorCache(spec)
    for values in _reachable(spec):
        binding = cache.bind(values)
        assert state_fingerprint_of_terms(binding[3]) == _walked(spec, values)
        expansion = cache.expansion(binding)
        assert expansion.fp == _walked(spec, values)
        for transitions in expanders:
            for _name, successor, fp in transitions(values):
                assert fp == _walked(spec, successor) == state_fingerprint(successor)
        for _name, successor, fp in expansion:
            assert fp == _walked(spec, successor)


def test_the_native_kernel_is_the_one_in_use_and_agrees():
    spec = build_spec("locking", n_threads=4)
    compiled = compile_spec(spec)
    assert compiled.native
    for values in _reachable(spec, limit=500):
        for _name, successor, fp in compiled.transitions(values):
            assert fp == _walked(spec, successor)


A, B, C, D = "a", 1, ("c",), None


@pytest.mark.parametrize(
    "first, second",
    [
        (((A, B), (C, D)), ((A, C), (B, D))),
        ((A, (B,)), ((A,), B)),
        (frozenset({(1, 2), (3, 4)}), frozenset({(1, 4), (3, 2)})),
        (True, 1),
        (True, 1.0),
        (1, 1.0),
        ((1, 2), (2, 1)),
        (Record(x=1, y=2), Record(x=2, y=1)),
        ((), frozenset()),
    ],
)
def test_structurally_different_values_get_different_fingerprints(first, second):
    assert fingerprint(first) != fingerprint(second)
    assert 0 <= fingerprint(first) < FP_PRIME


def test_a_state_is_not_the_tuple_of_its_values():
    values = ((1, 2), "x")
    assert state_fingerprint(values) != fingerprint(values)
    assert state_fingerprint(values) != state_fingerprint(values[::-1])


def _collisions(keys):
    return sum(count - 1 for count in Counter(keys).values())


def test_each_32_bit_view_collides_as_a_uniform_hash_would():
    """ROADMAP item 3's criterion on a space small enough for every run:
    RaftMongo mbtc at max_term=3, max_log_len=1 (10,408 states)."""
    spec = build_spec("raftmongo", variant="mbtc", max_term=3, max_log_len=1)
    result = check_spec(spec, check_properties=False, collect_graph=True)
    states = list(result.graph.states())
    assert len(states) == 10408
    fps = [state.fingerprint() for state in states]
    assert len(set(fps)) == len({state.values for state in states}) == len(states)
    assert all(fp == state_fingerprint(state.values) for fp, state in zip(fps, states))
    n = len(fps)
    uniform = n * (n - 1) / 2 / 2**32  # about 0.013 expected collisions
    views = {
        "high": [fp >> 32 for fp in fps],
        "low": [fp & 0xFFFFFFFF for fp in fps],
        "16+16": [((fp >> 48) << 16) | (fp & 0xFFFF) for fp in fps],
    }
    for name, keys in views.items():
        assert _collisions(keys) <= 3 * uniform, name
