"""How the generic kernel binds a state: one identity probe per canonical slot.

``ValueInterner.intern`` returns the whole entry a binder needs --
``(canonical, fp, key, packed fp)`` -- and the generic kernel binds a slot
that already holds a canonical object with one probe of the interner's
identity memo, walking its tries inline.  These tests pin that mechanism,
the read-set memo counters it must leave unchanged, and what a bind across
an interner eviction may store (nothing).
"""

import pickle

import pytest

import repro.compile
from interpreted_reference import InterpretedExpander
from repro.compile import compile_spec
from repro.compile.interner import ValueInterner
from repro.compile.kernels import _ReadSetMemo, build_generic_kernels
from repro.engine import check_spec
from repro.tla import Action, Invariant, Specification
from repro.tla.registry import build_spec
from repro.tla.values import _PRIMITIVE_TYPES, NULL, _cube, fingerprint


def _raftmongo3():
    """``check_raftmongo3``'s spec."""
    return build_spec("raftmongo", variant="mbtc", n_nodes=3, max_term=3, max_log_len=1)


def _counting_intern(monkeypatch):
    """Record ``(value, interner evictions after the call)`` per ``intern()``."""
    calls = []
    intern = ValueInterner.intern

    def counted(self, value):
        entry = intern(self, value)
        calls.append((value, self.evictions))
        return entry

    monkeypatch.setattr(ValueInterner, "intern", counted)
    return calls


@pytest.mark.parametrize(
    "value", [0, True, 1.0, "x", None, NULL, b"raw", ("t", (1,)), frozenset({1})]
)
def test_an_entry_carries_the_key_and_the_fingerprint_cube(value):
    interner = ValueInterner()
    canonical, fp, key, cube = entry = interner.intern(value)
    assert fp == fingerprint(value) and cube == _cube(fp)
    tp = type(canonical)
    assert key == ((tp, canonical) if tp in _PRIMITIVE_TYPES else id(canonical))
    # The canonical object is filed under its identity: one probe finds it all.
    assert interner._by_id[id(canonical)] is entry
    assert interner.intern(canonical) is entry


def test_binding_the_values_the_bfs_hands_on_interns_nothing(monkeypatch):
    spec = _raftmongo3()
    compiled = compile_spec(spec)
    states = [state.values for state in spec.initial_states()]
    seen = set(states)
    for values in states:  # grows while iterating: a FIFO queue
        for _name, successor, _fp in compiled.transitions(values):
            if successor not in seen:
                seen.add(successor)
                states.append(successor)
    assert len(states) == 10_408
    interner = compiled.interner
    memo = _ReadSetMemo(spec.schema, interner)
    evictions = interner.evictions
    calls = _counting_intern(monkeypatch)
    for values in states:  # every slot canonical, as the BFS hands them on
        entries, epoch = memo.bind(values)
        assert epoch == evictions
        assert all(entry[0] is value for entry, value in zip(entries, values))
    assert calls == []
    # Equal values in objects of their own are interned.
    memo.bind(pickle.loads(pickle.dumps(states[-1])))
    assert calls


#: ``compile_info["memo"]`` after ``check_raftmongo3``'s run, ``(hits,
#: misses, entries)`` per action and invariant, as recorded with the kernel
#: that interned every slot of every bound state.
RAFTMONGO3_MEMO = {
    "AdvanceCommitPoint": (7995, 2413, 586),
    "AppendOplog": (10344, 64, 64),
    "AtMostOneLeader": (10403, 4, 4),
    "BecomePrimaryByMagic": (9990, 418, 418),
    "ClientWrite": (9909, 499, 499),
    "CommittedPrefixesConsistent": (10277, 130, 130),
    "LearnCommitPointFromSyncSourceNeverBeyondLastApplied": (10215, 193, 193),
    "LearnCommitPointWithTermCheck": (9708, 700, 700),
    "LogMatching": (10343, 64, 64),
    "NeverRollBackCommittedWrites": (10277, 130, 130),
    "RollbackOplog": (10344, 64, 64),
    "Stepdown": (10404, 4, 4),
    "UpdateTermThroughHeartbeat": (10266, 142, 142),
}


def test_check_raftmongo3_memo_counters_are_pinned(monkeypatch):
    expanders = []

    def capture(spec):
        expander = compile_spec(spec)
        expanders.append(expander)
        return expander

    monkeypatch.setattr(repro.compile, "compile_spec", capture)
    result = check_spec(_raftmongo3(), engine="fingerprint", check_properties=False)
    assert (result.distinct_states, result.generated_states, result.max_depth) == (
        10_408, 60_280, 13,
    )
    (expander,) = expanders
    memo = expander.compile_info["memo"]
    assert {
        name: (stats["hits"], stats["misses"], stats["entries"])
        for name, stats in memo.items()
    } == RAFTMONGO3_MEMO
    assert not any(stats["opaque"] for stats in memo.values())


def _pairs_spec():
    """Two tuple-valued variables: ``Copy`` and ``Turn`` read ``a``, the
    invariant reads ``b``."""

    def init():
        yield {"a": ("a", 0), "b": ("b", 0)}

    def copy(state):
        yield {"b": state["a"]}

    def turn(state):
        if state["a"][1] < 2:
            yield {"a": ("a", state["a"][1] + 1)}

    return Specification(
        "Pairs",
        variables=("a", "b"),
        init=init,
        actions=[Action("Copy", copy), Action("Turn", turn)],
        invariants=[Invariant("Tagged", lambda state: state["b"][0] in "ab")],
    )


@pytest.mark.parametrize("kernel", ["transitions", "verdict_for"])
def test_a_state_bound_across_an_interner_eviction_stores_nothing(monkeypatch, kernel):
    """The second slot's ``intern()`` evicts the first slot's neighbours: the
    interner may no longer retain what the bind took keys of, so no trie leaf
    is filed for that state."""
    interner = ValueInterner(max_entries=4)
    transitions, verdict_for, info = build_generic_kernels(_pairs_spec(), interner)
    reference = InterpretedExpander(_pairs_spec())

    def agrees(values):
        if kernel == "transitions":
            return transitions(values) == reference.transitions(values)
        return verdict_for(values, 0) == reference.verdict_for(values, 0)

    def total(counter):
        return sum(stats[counter] for stats in info["memo"].values())

    for warm in (("w", 1), ("w", 2), ("w", 3)):
        interner.intern(warm)  # the equality memo is one short of full
    # Fresh objects, equal to nothing interned: each slot is interned on bind.
    values = (("a", 0), ("b", 0))
    calls = _counting_intern(monkeypatch)
    assert agrees(values)
    assert calls[:2] == [(values[0], 0), (values[1], 1)]  # the 2nd slot evicted
    assert total("misses") > 0 and total("entries") == 0
    # Bound again, with no eviction on the way: now the leaves are filed ...
    assert agrees(values)
    assert interner.evictions == 1 and total("entries") > 0
    # ... and answer for that state from then on.
    misses = total("misses")
    assert agrees(values)
    assert total("misses") == misses
