"""Matching a step by successor fingerprint: parity with the eager index it replaced.

The oracle below is the matcher as it was before: a cold expansion binds
*every* successor by equality and files it under its exact key, and a step is
found by probing that ``key -> position`` index.  The fold now keeps the
expander's transitions unbound, selects a candidate by the fingerprint each
already carries and believes it only if its values equal the observed ones.
Every verdict, failure text, matched action, stutter count, coverage document
and cache counter must be the oracle's -- a fingerprint may select, never
decide.
"""

import random

import pytest
from test_ingest import (
    BENCH, OPTIONS, _relabel_spec, batch_digest, logged_streams, merged_events,
)

from repro.pipeline.logs import events_from_trace, events_to_trace
from repro.pipeline.runner import check_one, check_traces
from repro.pipeline.workload import GeneratedTrace, generate_trace, generate_workload
from repro.stream import IncrementalChecker
from repro.tla import Action, Specification, explain_failure
from repro.tla.coverage import CoverageReport
from repro.tla.errors import TraceMismatch
from repro.tla.registry import build_spec, get_entry
from repro.tla.state import State
from repro.tla.trace import STUTTER, SuccessorCache, TraceFold
from repro.tla.values import state_fingerprint_of_terms

SMALL = dict(n_traces=60, seed=17, fault_rate=0.4, min_steps=5, max_steps=14,
             stutter_probability=0.1)
SPECS = [
    ("locking", {}),
    ("raftmongo", {"n_nodes": 2}),
    ("ot_array", {"init_length": 3}),
]


class EagerExpansion:
    """The expansion as it was: every successor bound, filed under its key."""

    def __init__(self, cache, binding):
        _seen, values, key, terms = binding
        self.fp = state_fingerprint_of_terms(terms)
        self.transitions, self.index = [], {}
        for name, successor, successor_fp in cache.expander.transitions(values):
            _seen, successor, successor_key, _fps = cache.bind(successor, (values, *binding[1:]))
            self.index.setdefault(successor_key, len(self.transitions))
            self.transitions.append((name, successor, successor_fp))
        self.enabled = tuple(dict.fromkeys(name for name, _values, _fp in self.transitions))


class OracleCache(SuccessorCache):
    """``SuccessorCache`` with the eager, key-indexed expansion (one thread only)."""

    def expansion(self, binding):
        key = binding[2]
        if self.interner.evictions == self._epoch and key in self._cache:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        found = EagerExpansion(self, binding)
        self._file("_cache", key, found)
        return found


class OracleFold(TraceFold):
    """``TraceFold`` with the step as it was: probe the key index, then scan."""

    def step(self, binding, what=None):
        _seen, values, key, _fps = binding
        _seen, here_values, here_key, _fps = self._binding
        fp = None
        if self.allow_stuttering and (key == here_key or values == here_values):
            matched = STUTTER
        else:
            here = self._successors()
            found = here.index.get(key)
            if found is not None:
                matched, _values, fp = here.transitions[found]
            else:
                for matched, successor, _fp in here.transitions:
                    if successor == values:
                        break
                else:
                    index = self.steps
                    self.failure = TraceMismatch(
                        f"{what or f'step {index} -> {index + 1} of the trace'} is not "
                        f"permitted by any action of {self.spec.name!r} "
                        f"(enabled: {self.enabled()})",
                        step_index=index,
                        observed=State.from_values(self.spec.schema, values).to_dict(),
                    )
                    return None
        if matched is STUTTER:
            self.stutters += 1
        else:
            self.action_counts[matched] = self.action_counts.get(matched, 0) + 1
            self._place(binding, fp)
        self.steps += 1
        if self.coverage is not None:
            self._cover()
        return matched


class OracleChecker(OracleFold, IncrementalChecker):
    """The streaming driver on the oracle's step."""


def digest(result, coverage):
    return (
        result.ok, result.failure_index, explain_failure(result),
        result.matched_actions, result.stuttering_steps, coverage.to_json(),
    )


def outcome(spec, cache, trace):
    return digest(*check_one(spec, cache, trace, **OPTIONS))


def oracle_outcome(spec, cache, trace):
    coverage = CoverageReport(spec_name=spec.name, trace_count=1)
    return digest(OracleFold(spec, cache, coverage=coverage).check(trace), coverage)


def assert_parity(spec, traces):
    """Each trace through the oracle and the fold, on a cold cache each."""
    old, new = OracleCache(spec), SuccessorCache(spec)
    for index, trace in enumerate(traces):
        assert outcome(spec, new, trace) == oracle_outcome(spec, old, trace), index
    assert (new.hits, new.misses) == (old.hits, old.misses)
    return old, new


@pytest.mark.parametrize("name, params", SPECS, ids=[name for name, _ in SPECS])
def test_steps_match_as_the_eager_index_matched_them(name, params):
    spec = build_spec(name, **params)
    per_node = get_entry(name).per_node_variables(spec)
    batch = list(generate_workload(spec, **SMALL))
    assert {trace.fault for trace in batch} == {None, "teleport", "drop-head"}
    # As generated (foreign objects, bound by equality) ...
    old, new = assert_parity(spec, [trace.states for trace in batch])
    assert new.misses > 0 and new.stats()["interner_misses"] <= old.stats()["interner_misses"]
    # ... and as decoded from logs into the cache of a spec of its own.
    decoding = build_spec(name, **params)
    assert_parity(spec, [
        events_to_trace(
            decoding, merged_events(logged_streams(spec, name, trace, f"t{index}")),
            per_node=per_node,
        )
        for index, trace in enumerate(batch)
    ])


def test_the_benchmark_batch_keeps_its_lookups_and_sheds_its_successor_binds():
    name, params, workload = BENCH
    generator = build_spec(name, **params)
    per_node = get_entry(name).per_node_variables(generator)
    logged = [
        merged_events(logged_streams(generator, name, trace, f"t{index}"))
        for index, trace in enumerate(generate_workload(generator, **workload))
    ]
    old_spec, new_spec = build_spec(name, **params), build_spec(name, **params)
    old = old_spec._successor_cache = OracleCache(old_spec)  # what ``for_spec`` hands out
    new = SuccessorCache.for_spec(new_spec)
    for index, events in enumerate(logged):
        old_trace = events_to_trace(old_spec, events, per_node=per_node)
        new_trace = events_to_trace(new_spec, events, per_node=per_node)
        assert outcome(new_spec, new, new_trace) == oracle_outcome(old_spec, old, old_trace), index
    assert (new.hits, new.misses) == (old.hits, old.misses) == (8914, 3581)
    # Same values met for the first time; what went is every lookup that
    # found a successor only to file it in an index.
    old_stats, new_stats = old.stats(), new.stats()
    assert new_stats["interner_misses"] == old_stats["interner_misses"]
    assert new_stats["interner_hits"] * 2 < old_stats["interner_hits"]


def test_the_watch_benchmark_sources_keep_their_lookups_on_a_quarter_of_the_interning():
    # ``benchmarks/workloads.WatchLocking`` at seed 42: two 6,000-event
    # sources and a planted teleport, one checker per source on one cache.
    spec = build_spec("locking", n_threads=3)
    per_node = get_entry("locking").per_node_variables(spec)
    generating = SuccessorCache(spec)
    traces = [
        generate_trace(spec, random.Random(42 * 1_000_003 + index), min_steps=6000,
                       max_steps=6000, successor_cache=generating)
        for index in range(2)
    ]
    traces.append(next(
        trace for trace in generate_workload(
            spec, n_traces=200, seed=42, fault_rate=1.0, min_steps=20, max_steps=40)
        if trace.fault == "teleport"
    ))
    sources = [
        events_from_trace(spec, trace.states, per_node=per_node, actions=trace.actions)
        for trace in traces
    ]
    old, new = OracleCache(spec), SuccessorCache(spec)
    for index, events in enumerate(sources):
        expected = OracleChecker(spec, per_node=per_node, successor_cache=old)
        observed = IncrementalChecker(spec, per_node=per_node, successor_cache=new)
        for event in events:
            assert observed.feed(event) == expected.feed(event)
        assert observed.snapshot() == expected.snapshot(), index
        assert observed.status == ("violated" if index == 2 else "conforming")
    assert (new.hits, new.misses) == (old.hits, old.misses) == (7421, 4605)
    assert new.stats()["interner_misses"] <= 10_000 < 30_000 < old.stats()["interner_misses"]


# -- the edges: where identity, equality and fingerprints disagree ----------------


def _typed_pairs_spec(order):
    def init():
        yield {"pair": (2, 2)}

    def to(pair):
        return lambda state: [{"pair": pair}] if state["pair"] == (2, 2) else []

    actions = {"Bools": Action("Bools", to((False, True))), "Ints": Action("Ints", to((0, 1)))}
    return Specification(
        "TypedPairs", variables=("pair",), init=init, actions=[actions[name] for name in order]
    )


@pytest.mark.parametrize("order", [("Bools", "Ints"), ("Ints", "Bools")])
def test_equal_but_differently_typed_successors_match_the_identically_typed_one(order):
    spec = _typed_pairs_spec(order)
    start = spec.make_state(pair=(2, 2))
    bools, ints = spec.make_state(pair=(False, True)), spec.make_state(pair=(0, 1))
    assert bools == ints and bools.fingerprint() != ints.fingerprint()
    for cache in (SuccessorCache(spec), OracleCache(spec)):
        fold = OracleFold if isinstance(cache, OracleCache) else TraceFold
        for observed, action in ((bools, "Bools"), (ints, "Ints")):
            coverage = CoverageReport(spec_name=spec.name, trace_count=1)
            result = fold(spec, cache, coverage=coverage).check([start, observed])
            assert result.ok and result.matched_actions == [None, action]
            assert coverage.visited_fingerprints == {start.fingerprint(), observed.fingerprint()}
        # Typed like neither: equality alone decides, the first equal one wins.
        mixed = spec.make_state(pair=(0, True))
        assert fold(spec, cache).check([start, mixed]).matched_actions == [None, order[0]]


def test_a_1_logged_for_a_true_slot_is_a_stutter_for_both_matchers():
    spec = _relabel_spec()
    trace = [spec.make_state(flag=True, n=0), spec.make_state(flag=1, n=0),
             spec.make_state(flag=1, n=1), spec.make_state(flag=True, n=1)]
    _old, new = assert_parity(spec, [trace])
    result, _coverage = check_one(spec, new, trace, **OPTIONS)
    assert result.matched_actions == [None, "<stutter>", "Count", "<stutter>"]


class _SharedFingerprints:
    """An expander whose successors all carry the fingerprint ``pick`` names:
    the last one's own (so the probe lands on the *first*), or a constant."""

    def __init__(self, inner, pick):
        self.inner, self.pick = inner, pick

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def transitions(self, values):
        found = self.inner.transitions(values)
        shared = self.pick(found)
        return [(name, successor, shared) for name, successor, _fp in found]


@pytest.mark.parametrize("name, params", SPECS, ids=[name for name, _ in SPECS])
def test_successors_sharing_a_fingerprint_are_still_told_apart_by_equality(name, params):
    spec = build_spec(name, **params)
    traces = [trace.states for trace in generate_workload(spec, **SMALL)]
    honest = SuccessorCache(spec)
    expected = [outcome(spec, honest, trace) for trace in traces]
    assert not all(result[0] for result in expected)
    for pick in (lambda found: found[-1][2] if found else 0, lambda found: 7):
        colliding = SuccessorCache(spec)
        colliding.expander = _SharedFingerprints(colliding.expander, pick)
        assert [outcome(spec, colliding, trace) for trace in traces] == expected


def test_a_state_that_only_shares_a_successors_fingerprint_is_a_violation():
    spec = build_spec("locking")
    cache = SuccessorCache(spec)
    batch = generate_workload(spec, n_traces=40, seed=23, fault_rate=1.0, min_steps=6, max_steps=10)
    teleports = [trace for trace in batch if trace.fault == "teleport"]
    assert teleports
    for trace in teleports:
        expected = outcome(spec, cache, trace.states)
        assert not expected[0]
        # Every successor of every state claims the teleport target's fingerprint.
        target = cache.bind(trace.states[-1].values)
        lying = SuccessorCache(spec)
        lying.expander = _SharedFingerprints(
            lying.expander, lambda found, fp=state_fingerprint_of_terms(target[3]): fp
        )
        assert outcome(spec, lying, trace.states) == expected


def test_an_eviction_mid_batch_keeps_the_oracles_verdicts():
    name, params = "raftmongo", {"n_nodes": 2}
    spec = build_spec(name, **params)
    batch = list(generate_workload(spec, n_traces=60, seed=11, fault_rate=0.3))
    oracle = OracleCache(spec)
    expected = [oracle_outcome(spec, oracle, trace.states) for trace in batch]
    failures = [detail for ok, _index, detail, *_rest in expected if not ok]
    assert failures

    def labelled():
        return [GeneratedTrace(states=t.states, actions=t.actions, expect_ok=t.expect_ok,
                               fault=t.fault) for t in batch]

    tiny_spec = build_spec(name, **params)
    tiny = SuccessorCache.for_spec(tiny_spec)
    tiny.max_entries = 8
    tiny.interner.max_entries = 16
    inline = check_traces(tiny_spec, labelled())
    assert tiny.interner.evictions > 0 and len(tiny) <= 8
    roomy = check_traces(build_spec(name, **params), labelled())
    for report in (inline, roomy):
        assert report.ok and not report.errors
        assert [o.detail for o in report.failures] == failures
    assert batch_digest(inline)[5:] == batch_digest(roomy)[5:]
