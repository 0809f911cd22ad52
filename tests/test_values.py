"""Unit tests for the TLA+ value universe (repro.tla.values)."""

import pickle
import subprocess
import sys

import pytest

from repro.tla import NULL, Record, append, fingerprint, freeze, last, sub_seq, thaw
from repro.tla.values import FingerprintCache, seq_index


class TestNull:
    def test_null_is_a_singleton(self):
        assert type(NULL)() is NULL

    def test_null_equality_and_hash(self):
        assert NULL == type(NULL)()
        assert hash(NULL) == hash(type(NULL)())
        assert NULL != "NULL" and NULL != 0 and NULL is not None


class TestRecord:
    def test_records_compare_and_hash_by_value(self):
        a = Record(term=1, index=2)
        b = Record(index=2, term=1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Record(term=1, index=3)

    def test_record_equals_plain_mapping(self):
        assert Record(x=1) == {"x": 1}

    def test_attribute_and_item_access(self):
        rec = Record(term=3, index=7)
        assert rec.term == 3 and rec["index"] == 7
        with pytest.raises(KeyError):
            rec["missing"]
        with pytest.raises(AttributeError):
            rec.missing

    def test_records_are_immutable(self):
        rec = Record(x=1)
        with pytest.raises(AttributeError):
            rec.x = 2

    def test_except_updates_existing_fields_only(self):
        rec = Record(ndx=3, op="set")
        updated = rec.except_(ndx=2)
        assert updated == Record(ndx=2, op="set")
        assert rec.ndx == 3  # original untouched
        with pytest.raises(KeyError):
            rec.except_(unknown=1)


class TestFreezeThaw:
    def test_freeze_canonicalizes_nested_data(self):
        frozen = freeze({"a": [1, {2, 3}], "b": {"c": [4]}})
        assert frozen == Record(a=(1, frozenset({2, 3})), b=Record(c=(4,)))

    def test_thaw_round_trips_to_plain_data(self):
        frozen = freeze({"a": [1, 2], "b": {"c": "x"}})
        assert thaw(frozen) == {"a": [1, 2], "b": {"c": "x"}}

    def test_freeze_rejects_unhashable_leaves(self):
        class Unhashable:
            __hash__ = None

        with pytest.raises(TypeError):
            freeze(Unhashable())


class TestSequences:
    def test_sequence_helpers_use_tla_indexing(self):
        seq = append((1, 2), 3)
        assert seq == (1, 2, 3)
        assert sub_seq(seq, 1, 2) == (1, 2)
        assert seq_index(seq, 1) == 1
        assert last(seq) == 3
        with pytest.raises(ValueError):
            sub_seq(seq, 0, 1)
        with pytest.raises(IndexError):
            seq_index(seq, 4)
        with pytest.raises(IndexError):
            last(())


class TestFingerprint:
    def test_distinguishes_types_and_values(self):
        samples = [1, 1.5, True, "1", NULL, None, (1,), frozenset({1}), Record(x=1)]
        prints = [fingerprint(value) for value in samples]
        assert len(set(prints)) == len(prints)
        for value in samples:
            assert 0 <= fingerprint(value) < 2**96

    def test_equal_values_share_a_fingerprint(self):
        assert fingerprint({"a": [1, 2]}) == fingerprint(Record(a=(1, 2)))

    def test_stable_across_processes_and_hash_seeds(self):
        value_expr = "{'role': ('Leader', 'Follower'), 'n': 3}"
        expected = fingerprint(
            {"role": ("Leader", "Follower"), "n": 3}
        )
        code = (
            "from repro.tla import fingerprint; "
            f"print(fingerprint({value_expr}))"
        )
        for seed in ("0", "12345"):
            output = subprocess.run(
                [sys.executable, "-c", code],
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
                capture_output=True,
                text=True,
                check=True,
                cwd=__file__.rsplit("/tests/", 1)[0],
            ).stdout.strip()
            assert int(output) == expected

    def test_cache_matches_uncached_fingerprints(self):
        cache = FingerprintCache()
        values = (("a", "b"), Record(term=1, index=1), frozenset({1, 2}), NULL)
        assert cache.state_values_fingerprint(values) == fingerprint(
            values, frozen=True
        )
        for value in values:
            assert cache.value_fingerprint(value) == fingerprint(value, frozen=True)
        assert len(cache) > 0

    def test_cache_rejects_degenerate_capacity(self):
        # max_entries=1 would make _evict_oldest_half a no-op (1 // 2 == 0
        # entries dropped) and the memo would never shrink below the cap.
        with pytest.raises(ValueError):
            FingerprintCache(max_entries=1)

    def test_eviction_at_minimal_capacity_keeps_fingerprints_correct(self):
        # ISSUE 7 satellite: _evict_oldest_half at the smallest legal capacity
        # must still evict (not loop or no-op) and never corrupt results.
        cache = FingerprintCache(max_entries=2)
        values = [(i, i + 1) for i in range(10)]
        for value in values:
            assert cache.value_fingerprint(value) == fingerprint(value, frozen=True)
            assert len(cache) <= cache.max_entries
        assert cache.evictions >= 1
        # Re-fingerprinting after heavy eviction still agrees with the
        # uncached path, including for values that were evicted.
        for value in values:
            assert cache.value_fingerprint(value) == fingerprint(value, frozen=True)


class TestEqualButDifferentlyTyped:
    """``True == 1 == 1.0``: an equality-keyed memo must not let one stand in
    for the other, whichever it saw first."""

    PAIRS = [
        ((0, 1), (False, True)),
        (((0, 1), "a"), ((False, True), "a")),
        ((1, 2.0), (1.0, 2)),
        (frozenset({(0, 1)}), frozenset({(False, True)})),
        ((Record(flag=1),), (Record(flag=True),)),
    ]

    @pytest.mark.parametrize("first, second", PAIRS + [(b, a) for a, b in PAIRS])
    def test_cached_fingerprint_is_the_true_fingerprint(self, first, second):
        from repro.tla.values import _fp_of

        cache = FingerprintCache()
        assert first == second and fingerprint(first) != fingerprint(second)
        for value in (first, second, first):
            assert _fp_of(value, cache) == _fp_of(value, None)

    @pytest.mark.parametrize("first, second", PAIRS + [(b, a) for a, b in PAIRS])
    def test_interned_value_keeps_its_types(self, first, second):
        from repro.compile import ValueInterner

        interner = ValueInterner()
        for value in (first, second, first, second):
            canonical, fp, _key, _packed = interner.intern(value)
            assert repr(canonical) == repr(value)
            assert fp == fingerprint(value)
        # Each of the two is canonical under its own identity from then on.
        fresh = pickle.loads(pickle.dumps(first))
        assert fresh is not first
        assert interner.intern(fresh)[0] is interner.intern(first)[0]
        assert interner.intern(first)[0] is not interner.intern(second)[0]

    def test_ot_array_expansion_fingerprints_are_state_fingerprints(self):
        # 110 of the first 440 reachable states used to get the fingerprint of
        # an equal-but-int-typed ``synced``: (False, True) read as (0, 1).
        from collections import deque

        from repro.compile import compile_spec
        from repro.tla import State
        from repro.tla.registry import build_spec

        spec = build_spec("ot_array", init_length=3)
        compiled = compile_spec(spec)
        frontier = deque(state.values for state in spec.initial_states())
        seen = set(frontier)
        while frontier and len(seen) < 440:
            for _name, values, fp, _violated, _within in compiled.expand(frontier.popleft()):
                if values not in seen:
                    seen.add(values)
                    frontier.append(values)
                    assert State.from_values(spec.schema, values).fingerprint() == fp
        assert len(seen) >= 440
