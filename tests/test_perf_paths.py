"""The PR's satellite perf fixes: freeze fast paths, record rebuilds,
O(1) action lookup, and FingerprintCache eviction/counters."""

import pytest

from repro.tla import Record, State, VariableSchema, fingerprint, freeze
from repro.tla.errors import SpecError
from repro.tla.registry import build_spec
from repro.tla.values import FingerprintCache


# Freeze fast path -----------------------------------------------------------


def test_freeze_returns_already_frozen_values_unchanged():
    frozen_tuple = (1, "a", (2, 3), frozenset({4}))
    assert freeze(frozen_tuple) is frozen_tuple
    frozen_set = frozenset({1, (2, 3)})
    assert freeze(frozen_set) is frozen_set
    record = Record(a=1)
    assert freeze(record) is record
    assert freeze((record, frozen_tuple)) is not None


def test_freeze_still_converts_mutable_values():
    assert freeze([1, [2, 3]]) == (1, (2, 3))
    assert freeze({1, 2}) == frozenset({1, 2})
    assert freeze((1, [2])) == (1, (2,))  # nested mutable forces a new tuple
    assert isinstance(freeze({"a": 1}), Record)


def test_state_with_updates_keeps_unchanged_value_identity():
    schema = VariableSchema(("x", "y"))
    state = State(schema, {"x": (1, 2, 3), "y": 0})
    updated = state.with_updates(y=1)
    assert updated.values[0] is state.values[0]
    assert updated["y"] == 1


# Record rebuild fast paths --------------------------------------------------


def test_except_matches_slow_constructor_and_skips_resorting():
    record = Record(ndx=1, term=2, role="Follower")
    fast = record.except_(term=3)
    slow = Record(dict(record), term=3)
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert fingerprint(fast) == fingerprint(slow)
    assert list(fast) == sorted(fast)  # key order still sorted
    # Unchanged values keep identity (no re-freeze walk).
    assert fast["role"] is record["role"]


def test_except_unknown_field_raises_keyerror():
    with pytest.raises(KeyError):
        Record(a=1).except_(b=2)
    assert Record(a=1).except_() == Record(a=1)


def test_with_fields_replaces_and_adds_in_sorted_order():
    record = Record(b=1, d=2)
    replaced = record.with_fields(d=3)
    assert replaced == Record(b=1, d=3)
    extended = record.with_fields(a=0, c=9)
    assert list(extended) == ["a", "b", "c", "d"]
    assert extended == Record(a=0, b=1, c=9, d=2)
    assert fingerprint(extended) == fingerprint(Record(a=0, b=1, c=9, d=2))


def test_record_updates_freeze_new_values():
    record = Record(log=())
    updated = record.except_(log=[{"op": "set"}])
    assert updated.log == (Record(op="set"),)
    assert hash(updated) is not None


# O(1) action lookup ---------------------------------------------------------


def test_action_named_uses_prebuilt_index():
    spec = build_spec("locking")
    acquire = spec.action_named("Acquire")
    assert acquire is spec._actions_by_name["Acquire"]
    assert acquire.name == "Acquire"
    with pytest.raises(SpecError):
        spec.action_named("NoSuchAction")


# FingerprintCache eviction and counters -------------------------------------


def test_cache_counts_hits_and_misses():
    cache = FingerprintCache()
    value = (1, (2, 3))
    first = cache.value_fingerprint(value)
    assert cache.misses > 0 and cache.hits == 0
    second = cache.value_fingerprint(value)
    assert second == first
    assert cache.hits >= 1
    assert cache.stats()["entries"] == len(cache)


def test_cache_evicts_oldest_half_not_everything():
    cache = FingerprintCache(max_entries=8)
    values = [(i, i + 1) for i in range(9)]
    for value in values:
        cache.value_fingerprint(value)
    assert cache.evictions == 1
    assert 0 < len(cache) <= 8
    # The most recent insertions survive the eviction...
    cache.hits = cache.misses = 0
    cache.value_fingerprint(values[-1])
    assert cache.hits == 1
    # ...and evicted entries recompute to the same fingerprint.
    assert cache.value_fingerprint(values[0]) == fingerprint(values[0])


def test_cached_fingerprints_match_uncached():
    spec = build_spec("raftmongo", n_nodes=2, variant="mbtc")
    cache = FingerprintCache(max_entries=16)  # force evictions mid-run
    for state in spec.initial_states():
        for _name, successor in spec.successors(state):
            assert successor.fingerprint(cache) == fingerprint(
                successor.values, frozen=True
            )


def test_cache_rejects_degenerate_capacity():
    with pytest.raises(ValueError):
        FingerprintCache(max_entries=1)


# The trace fold's fast path, by counts ---------------------------------------


def test_fold_runs_fewer_actions_than_interpreting_and_no_predicates(monkeypatch):
    from repro.pipeline.runner import check_traces
    from repro.pipeline.workload import generate_workload
    from repro.tla.spec import Action, Invariant
    from repro.tla.trace import SuccessorCache

    spec = build_spec("raftmongo")
    workload = list(generate_workload(spec, n_traces=200, seed=42, fault_rate=0.1))
    calls = {"fingerprint": 0, "predicates": 0, "actions": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    caches = []
    original_init = SuccessorCache.__init__

    def remember(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        caches.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(State, "fingerprint", counted("fingerprint", State.fingerprint))
        patch.setattr(Invariant, "holds", counted("predicates", Invariant.holds))
        patch.setattr(spec, "constraint", counted("predicates", spec.constraint))
        patch.setattr(SuccessorCache, "__init__", remember)
        report = check_traces(spec, workload, workers=1, executor="thread")
    assert report.ok and report.failed
    assert calls == {"fingerprint": 0, "predicates": 0, "actions": 0}

    # What interpreting the same batch costs: every action, once per state
    # the cache had to expand.
    (cache,) = caches
    with monkeypatch.context() as patch:
        patch.setattr(Action, "successors", counted("actions", Action.successors))
        for expansion in list(cache._cache.values()):
            spec.successors(State.from_values(spec.schema, expansion.values))
    stats = report.cache_stats
    assert calls["actions"] == stats["misses"] * len(spec.actions)
    assert 0 < stats["memo_misses"] < calls["actions"]
    assert stats["memo_hits"] > stats["memo_misses"]
