"""Compiled-vs-interpreted parity for :mod:`repro.compile`.

The compilation contract is *bit-identical results*: every stat, every
counterexample trace, every coverage figure must match interpreting the
spec's own closures exactly, for every registered spec and every engine.
Every run compiles, so the interpreted side is the test-tree oracle
(``interpreted_reference.py``); these tests enforce the contract directly
rather than trusting the kernels.  Anything the compiler specializes away
(guard fusion, precomputed fingerprints, verdict memoisation) is re-derived
here through the oracle and compared.
"""

import random
import re

import pytest

from interpreted_reference import InterpretedExpander, oracle_runs
from repro.compile import compile_spec
from repro.compile.interner import ValueInterner
from repro.compile.kernels import CompiledSpec
from repro.engine import check_spec
from repro.pipeline.cli import main
from repro.tla import Action, Invariant, Specification, State
from repro.tla.registry import build_spec
from repro.tla.values import (
    NULL,
    fingerprint,
    freeze,
    slot_term,
    state_fingerprint_of_terms,
)


def _stats(result):
    return (
        result.distinct_states,
        result.generated_states,
        result.max_depth,
        result.peak_frontier,
        dict(result.action_counts),
        result.ok,
    )


def _violation(result):
    violation = result.invariant_violation
    if violation is None:
        return None
    return (violation.property_name, [state.values for state in violation.trace])


def _run_pair(spec_name, params, **kwargs):
    """Run the same check compiled and on the oracle; return both results."""
    results = []
    for mode in ("on", "off"):
        with oracle_runs(mode):
            results.append(
                check_spec(build_spec(spec_name, **params), check_properties=False, **kwargs)
            )
    return tuple(results)


# ---------------------------------------------------------------------------
# Golden-stats parity: the BFS with and without the graph x every registered spec
# ---------------------------------------------------------------------------

CASES = [
    ("locking", {}, {}),
    ("locking", {"mutation": "xx_compatible"}, {}),
    ("ot_array", {}, {}),
    ("raftmongo", {}, {"max_states": 1200}),
]


@pytest.mark.parametrize("collect_graph", [False, True], ids=["no-graph", "graph"])
@pytest.mark.parametrize("spec_name,params,limits", CASES)
def test_serial_engines_bit_identical(spec_name, params, limits, collect_graph):
    compiled, interpreted = check_pair = _run_pair(
        spec_name, params, collect_graph=collect_graph, **limits
    )
    assert _stats(compiled) == _stats(interpreted)
    assert _violation(compiled) == _violation(interpreted)
    for result in check_pair:
        assert (result.graph is not None) == collect_graph


@pytest.mark.parametrize(
    "spec_name,params",
    [
        ("locking", {}),
        ("locking", {"mutation": "xx_compatible"}),
        ("raftmongo", {}),
    ],
)
def test_simulate_engine_bit_identical(spec_name, params):
    compiled, interpreted = _run_pair(
        spec_name, params, engine="simulate", walks=50, walk_depth=20, seed=0
    )
    assert _stats(compiled) == _stats(interpreted)
    assert _violation(compiled) == _violation(interpreted)
    assert compiled.walks == interpreted.walks


def test_mutated_locking_counterexample_found_compiled():
    """The compiled path must surface the seeded bug, byte-for-byte."""
    compiled, interpreted = _run_pair("locking", {"mutation": "xx_compatible"})
    assert not compiled.ok
    trace = _violation(compiled)
    assert trace is not None and trace == _violation(interpreted)
    assert trace[0] in ("MutualExclusion", "ExclusiveIsExclusive", "NoConflictingGrants")


# ---------------------------------------------------------------------------
# Checkpoint / resume across the compiled path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["fingerprint"])
def test_checkpoint_resume_compiled_matches_golden(tmp_path, engine):
    spec = build_spec("locking")
    golden = check_spec(spec, check_properties=False, engine=engine)

    path = tmp_path / "ck.bin"
    truncated = check_spec(
        build_spec("locking"),
        check_properties=False,
        engine=engine,
        max_depth=4,
        checkpoint_path=str(path),
        checkpoint_every=2,
    )
    assert truncated.truncated

    resumed = check_spec(
        build_spec("locking"),
        check_properties=False,
        engine=engine,
        resume_path=str(path),
    )
    assert _stats(resumed) == _stats(golden)


def test_checkpoint_written_interpreted_resumed_compiled(tmp_path):
    """Checkpoints are a shared boundary: the kernels resume the oracle's run."""
    path = tmp_path / "ck.bin"
    with oracle_runs():
        golden = check_spec(build_spec("locking"), check_properties=False)
        check_spec(
            build_spec("locking"),
            check_properties=False,
            max_depth=4,
            checkpoint_path=str(path),
            checkpoint_every=2,
        )
    resumed = check_spec(
        build_spec("locking"),
        check_properties=False,
        resume_path=str(path),
    )
    assert _stats(resumed) == _stats(golden)


# ---------------------------------------------------------------------------
# Property test: CompiledSpec.expand vs InterpretedExpander.expand
# ---------------------------------------------------------------------------


def _reachable_sample(spec, limit=300, sample=40, seed=0):
    """BFS a prefix of the reachable space interpreted, then sample states."""
    states = list(spec.initial_states())
    seen = {state.fingerprint() for state in states}
    queue = list(states)
    while queue and len(states) < limit:
        state = queue.pop(0)
        for _, successor in spec.successors(state):
            fp = successor.fingerprint()
            if fp not in seen:
                seen.add(fp)
                states.append(successor)
                queue.append(successor)
    rng = random.Random(seed)
    return rng.sample(states, min(sample, len(states)))


@pytest.mark.parametrize(
    "spec_name,params,native",
    [
        ("locking", {}, True),
        ("ot_array", {}, True),
        ("raftmongo", {}, True),
        ("locking", {"mutation": "xx_compatible"}, True),
        ("locking", {}, False),
        ("locking", {"mutation": "xx_compatible"}, False),
    ],
)
def test_compiled_successors_match_interpreted_on_random_states(
    spec_name, params, native
):
    """The expander seam itself: both implementations, entry for entry."""
    spec = build_spec(spec_name, **params)
    compiled = compile_spec(build_spec(spec_name, **params), native=native)
    assert isinstance(compiled, CompiledSpec)
    interpreted = InterpretedExpander(spec)
    for state in spec.initial_states():
        fp = state.fingerprint()
        assert compiled.verdict_for(state.values, fp) == interpreted.verdict_for(
            state.values, fp
        )
    for state in _reachable_sample(spec):
        # Action, value tuple, fingerprint, violated-invariant name and
        # constraint verdict of every successor, in order.
        assert compiled.expand(state.values) == interpreted.expand(state.values)


@pytest.mark.parametrize(
    "params", [{}, {"n_threads": 3}, {"mutation": "xx_compatible"}]
)
def test_native_locking_kernel_matches_generic(params):
    """The hand-specialized locking kernel vs the generic closure kernels."""
    native = compile_spec(build_spec("locking", **params))
    generic = compile_spec(build_spec("locking", **params), native=False)
    assert native.native and not generic.native
    spec = build_spec("locking", **params)
    for state in _reachable_sample(spec, limit=200, sample=30):
        assert native.expand(state.values) == generic.expand(state.values)


# ---------------------------------------------------------------------------
# The generic kernel's read-set memo: its edges, entry for entry
# ---------------------------------------------------------------------------


def _all_reachable(spec):
    """Every reachable state, by an interpreted BFS keyed on fingerprints."""
    states = list(spec.initial_states())
    seen = {state.fingerprint() for state in states}
    for state in states:  # grows while iterating: a FIFO queue
        for _, successor in spec.successors(state):
            if successor.fingerprint() not in seen:
                seen.add(successor.fingerprint())
                states.append(successor)
    return states


def _assert_memo_parity(build, passes=2):
    """Generic kernel vs interpreted walk over every reachable state.

    Several passes, so the later ones are answered from the tries.  Returns
    the live ``compile_info["memo"]`` counters.
    """
    spec = build()
    compiled = compile_spec(build(), native=False)
    interpreted = InterpretedExpander(spec)
    states = _all_reachable(spec)
    for _ in range(passes):
        for state in states:
            assert compiled.expand(state.values) == interpreted.expand(state.values)
    return compiled.compile_info["memo"]


def _counter_spec(actions, invariants=(), variables=("a", "b", "n"), inits=None):
    def init():
        yield from inits or [{"a": False, "b": 0, "n": 0}]

    return Specification(
        "MemoEdge",
        variables=variables,
        init=init,
        actions=actions,
        invariants=invariants,
        constraint=lambda state: state["n"] <= 3,
    )


def test_memo_value_dependent_read_order():
    """``b`` is read only when ``a`` is true: both trie shapes, both exact."""

    def flip(state):
        yield {"a": not state["a"]}

    def bump(state):
        if state["b"] < 2:
            yield {"b": state["b"] + 1}

    def tick(state):
        if state["n"] < 3:
            yield {"n": state["n"] + 1}

    def gated(state):  # reads [a] or [a, b]
        if state["a"]:
            yield {"n": state["b"]}

    def b_first(state):  # reads [b] or [b, a]: another root slot
        if state["b"] and not state["a"]:
            yield {"b": 0}

    def only_when_a(state):  # an invariant with a value-dependent read too
        return not state["a"] or state["b"] <= 2

    memo = _assert_memo_parity(
        lambda: _counter_spec(
            [
                Action("Flip", flip),
                Action("Bump", bump),
                Action("Tick", tick),
                Action("Gated", gated),
                Action("BFirst", b_first),
            ],
            [Invariant("OnlyWhenA", only_when_a)],
        )
    )
    # Gated: one leaf for a=False, one per value of b under a=True.
    assert memo["Gated"]["entries"] == 1 + 3
    assert memo["BFirst"]["entries"] == 1 + 2 * 2
    for name in ("Flip", "Bump", "Tick", "Gated", "BFirst"):
        assert memo[name]["hits"] > memo[name]["misses"] > 0
        assert not memo[name]["opaque"]
    assert memo["OnlyWhenA"]["hits"] > 0 and memo["constraint"]["hits"] > 0


def test_memo_keeps_true_one_and_one_point_zero_apart():
    """``True == 1 == 1.0``: a trie keyed by equality would serve one for all."""

    def tag(state):  # reads x alone; the result depends on its *type*
        yield {"tag": type(state["x"]).__name__}

    def tick(state):
        if state["n"] < 3:
            yield {"n": state["n"] + 1}

    memo = _assert_memo_parity(
        lambda: _counter_spec(
            [Action("Tag", tag), Action("Tick", tick)],
            variables=("x", "n", "tag"),
            inits=[{"x": x, "n": 0, "tag": ""} for x in (True, 1, 1.0)],
        )
    )
    assert memo["Tag"]["entries"] == 3 and memo["Tag"]["hits"] > 0


def test_memo_reads_all_fallbacks_store_nothing():
    """Ready-made ``State``, iteration, ``.values``: exact, and never stored."""

    def ready_made(state):
        yield state.with_updates(n=min(state["n"] + 1, 3))

    def built(state):  # reads b alone, but a ready-made State stands for all
        yield State(state.schema, {"a": False, "b": min(state["b"] + 1, 2), "n": 0})

    def iterates(state):
        if sum(1 for name in state if state[name]) == 1:
            yield {"a": not state["a"]}

    def reads_values(state):
        if state.values[1] == 1:
            yield {"b": 2}

    def hashes(state):
        return hash(state) == hash(State.from_values(state.schema, state.values))

    memo = _assert_memo_parity(
        lambda: _counter_spec(
            [
                Action("ReadyMade", ready_made),
                Action("Built", built),
                Action("Iterates", iterates),
                Action("ReadsValues", reads_values),
            ],
            [Invariant("Hashes", hashes)],
        ),
        passes=3,
    )
    for name in ("ReadyMade", "Built", "Iterates", "ReadsValues", "Hashes"):
        assert memo[name]["entries"] == 0 and memo[name]["hits"] == 0
    # 36 reachable states x 3 passes: every one of them went opaque.
    assert all(memo[name]["opaque"] for name in ("ReadyMade", "Iterates", "ReadsValues"))
    assert memo["constraint"]["hits"] > 0  # reads n alone: still memoized


def test_memo_gives_up_on_an_inconsistent_reader():
    """Same values, another read order: not a function of its reads -> opaque."""

    def bump(state):
        if state["b"] < 2:
            yield {"b": state["b"] + 1}

    def build():
        calls = []  # per build: the compiled spec's own call count

        def fickle(state):  # the same answer, but it looks at a or at b first
            calls.append(None)
            first, second = ("a", "b") if len(calls) % 2 else ("b", "a")
            if state[first] or state[second]:
                yield {"n": 0}

        return _counter_spec([Action("Fickle", fickle), Action("Bump", bump)])

    memo = _assert_memo_parity(build)
    assert memo["Fickle"]["opaque"] and not memo["Bump"]["opaque"]


@pytest.mark.parametrize("lazy", [False, True])
def test_memo_never_caches_an_exception(lazy):
    """A raising state raises identically every time; its neighbours memoize."""

    def tick(state):
        if state["n"] < 3:
            yield {"n": state["n"] + 1}

    def bump(state):
        if state["b"] < 2:
            yield {"b": state["b"] + 1}

    def eager(state):  # raises in the call: wrapped in EvaluationError
        if state["b"] == 2:
            raise ValueError("b went too far")
        return [{"a": True}]

    def generator(state):  # raises in the body, while iterated: wrapped the same
        if state["b"] == 2:
            raise ValueError("b went too far")
        yield {"a": True}

    def build():
        return _counter_spec(
            [Action("Tick", tick), Action("Bump", bump), Action("Boom", generator if lazy else eager)]
        )

    spec = build()
    compiled = compile_spec(build(), native=False)
    interpreted = InterpretedExpander(spec)
    pending = [state.values for state in spec.initial_states()]
    seen = set(pending)
    raised = 0
    while pending:
        values = pending.pop(0)
        try:
            expected = interpreted.expand(values)
        except Exception as exc:  # noqa: BLE001 - the reference outcome
            for _ in range(2):  # the 1st and the 2nd expansion of that state
                with pytest.raises(type(exc)) as caught:
                    compiled.expand(values)
                assert str(caught.value) == str(exc)
                assert type(caught.value.__cause__) is type(exc.__cause__)
            raised += 1
            # Walk on through the other actions, as if Boom were disabled.
            state = State.from_values(spec.schema, values)
            expected = [
                (act.name, successor.values)
                for act in spec.actions[:2]
                for successor in act.successors(state)
            ]
        else:
            assert compiled.expand(values) == expected
            assert compiled.expand(values) == expected
        for entry in expected:
            if entry[1] not in seen:
                seen.add(entry[1])
                pending.append(entry[1])
    assert raised == 2 * 4  # b == 2, for either a and each n in 0..3
    memo = compiled.compile_info["memo"]
    assert memo["Boom"]["entries"] == 2  # b == 0 and b == 1; never b == 2
    assert memo["Boom"]["hits"] > 0 and memo["Tick"]["hits"] > 0


def test_memo_eviction_mid_run_is_invisible(monkeypatch):
    """A tiny shared cap: leaves come and go, the walk does not change."""
    from repro.compile import kernels

    monkeypatch.setattr(kernels, "MEMO_MAX", 6)
    spec = build_spec("raftmongo", n_nodes=2)
    compiled = compile_spec(build_spec("raftmongo", n_nodes=2))
    interpreted = InterpretedExpander(spec)
    for state in _all_reachable(spec):
        assert compiled.expand(state.values) == interpreted.expand(state.values)
    memo = compiled.compile_info["memo"]
    assert 0 < sum(stats["entries"] for stats in memo.values()) <= 6
    assert all(stats["entries"] >= 0 for stats in memo.values())
    assert sum(stats["misses"] for stats in memo.values()) > 100  # evicted, recomputed
    assert sum(stats["hits"] for stats in memo.values()) > 0

    evicting, interpreted_run = _run_pair("raftmongo", {"n_nodes": 2})
    assert _stats(evicting) == _stats(interpreted_run)
    monkeypatch.undo()
    roomy = check_spec(build_spec("raftmongo", n_nodes=2), check_properties=False)
    assert _stats(evicting) == _stats(roomy)


def test_memo_eviction_prunes_the_branches_it_empties(monkeypatch):
    """Evicted leaves take their emptied branches with them: the tries hold
    no more branches than the leaves still stored can lead through."""
    import gc

    from repro.compile import kernels

    monkeypatch.setattr(kernels, "MEMO_MAX", 6)
    spec = build_spec("raftmongo", n_nodes=2)
    gc.collect()
    before = sum(type(obj) is kernels._Branch for obj in gc.get_objects())
    compiled = compile_spec(build_spec("raftmongo", n_nodes=2))
    for state in _all_reachable(spec):
        compiled.expand(state.values)
    gc.collect()
    branches = sum(type(obj) is kernels._Branch for obj in gc.get_objects()) - before
    assert 0 < branches <= len(spec.schema.names) * kernels.MEMO_MAX

    (memo,) = [
        obj for obj in gc.get_objects()
        if type(obj) is kernels._ReadSetMemo and obj.interner is compiled.interner
    ]

    def leaves(node):
        if type(node) is not kernels._Branch:
            return 1
        return sum(leaves(child) for child in node.children.values())

    reachable = sum(leaves(node) for function in memo.functions for node in function.top.values())
    entries = sum(stats["entries"] for stats in compiled.compile_info["memo"].values())
    assert 0 < entries == reachable == len(memo.log) <= kernels.MEMO_MAX


def test_memo_dropped_when_the_interner_evicts():
    """Trie keys are ids of interned objects: no id may outlive its object."""
    spec = build_spec("raftmongo", n_nodes=2)
    compiled = compile_spec(build_spec("raftmongo", n_nodes=2))
    compiled.interner.max_entries = 16  # the interner halves itself all the time
    interpreted = InterpretedExpander(spec)
    for state in _all_reachable(spec):
        assert compiled.expand(state.values) == interpreted.expand(state.values)
    assert compiled.interner.evictions > 10
    assert sum(s["entries"] for s in compiled.compile_info["memo"].values()) < 100


RAFTMONGO_DEPTH9_ACTION_COUNTS = {
    "AdvanceCommitPoint": 954,
    "AppendOplog": 11214,
    "BecomePrimaryByMagic": 2034,
    "ClientWrite": 1689,
    "LearnCommitPointFromSyncSourceNeverBeyondLastApplied": 2952,
    "LearnCommitPointWithTermCheck": 1350,
    "RollbackOplog": 1848,
    "Stepdown": 4056,
    "UpdateTermThroughHeartbeat": 13032,
}

RAFTMONGO_SIMULATE_ACTION_COUNTS = {
    "AdvanceCommitPoint": 18,
    "AppendOplog": 119,
    "BecomePrimaryByMagic": 120,
    "ClientWrite": 60,
    "LearnCommitPointFromSyncSourceNeverBeyondLastApplied": 18,
    "LearnCommitPointWithTermCheck": 16,
    "RollbackOplog": 2,
    "Stepdown": 75,
    "UpdateTermThroughHeartbeat": 156,
}


def test_memo_golden_action_counts_bfs_and_simulate():
    """Counts taken from the interpreted walk before the memo existed."""
    searched = check_spec(
        build_spec("raftmongo"),
        check_properties=False,
        engine="fingerprint",
        max_depth=9,
    )
    assert (searched.distinct_states, searched.generated_states) == (9792, 39130)
    assert searched.action_counts == RAFTMONGO_DEPTH9_ACTION_COUNTS
    walked = check_spec(
        build_spec("raftmongo"),
        check_properties=False,
        engine="simulate",
        walks=60,
        walk_depth=25,
        seed=7,
    )
    assert (walked.distinct_states, walked.generated_states) == (310, 2885)
    assert walked.action_counts == RAFTMONGO_SIMULATE_ACTION_COUNTS


def test_memo_counters_reach_the_metrics_stream(tmp_path, capsys):
    import json

    path = tmp_path / "m.jsonl"
    argv = ["check", "raftmongo", "--param", "n_nodes=2", "--no-properties"]
    assert main(argv + ["--metrics-out", str(path)]) == 0
    with_metrics = capsys.readouterr().out
    records = [json.loads(line) for line in path.read_text().splitlines()]
    (metrics,) = [r for r in records if r["kind"] == "metrics"]
    counters = metrics["counters"]
    assert counters["compile.memo_hits"] > counters["compile.memo_misses"] > 0
    assert 0 < counters["compile.memo_entries"] <= counters["compile.memo_misses"]
    assert metrics["labels"]["spec"].startswith("RaftMongo")
    assert metrics["labels"]["kernel"] == "generic"
    from repro.obs.schema import validate_metrics_path

    validate_metrics_path(str(path))
    # The native kernel has no memo and says nothing about one.
    native_path = tmp_path / "native.jsonl"
    assert main(["check", "locking", "--metrics-out", str(native_path)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in native_path.read_text().splitlines()]
    (metrics,) = [r for r in records if r["kind"] == "metrics"]
    assert metrics["labels"]["kernel"] == "native"
    assert "check.compile_seconds" in metrics["gauges"]
    assert not any(name.startswith("compile.memo") for name in metrics["counters"])
    # Without --metrics-out the run prints exactly what it always printed,
    # timings and the process-wide peak RSS apart.
    assert main(argv) == 0
    strip = re.compile(r"\d+\.\d+s|peak RSS: \d+\.\d+ MB")
    assert strip.sub("", capsys.readouterr().out) == strip.sub("", with_metrics)


# ---------------------------------------------------------------------------
# Every run compiles; the oracle replaces the kernels wherever they run
# ---------------------------------------------------------------------------


def test_result_records_compilation():
    result = check_spec(build_spec("locking"), check_properties=False)
    assert result.compile_seconds > 0.0
    assert result.summary().endswith(" [engine=fingerprint store=fingerprint]")


def test_the_oracle_replaces_the_kernels_of_a_check_and_of_a_trace_fold(
    oracle, tmp_path, capsys
):
    import json

    from repro.tla.trace import SuccessorCache

    assert SuccessorCache(build_spec("locking")).kernel == "interpreted"
    path = tmp_path / "m.jsonl"
    assert main(["check", "locking", "--metrics-out", str(path)]) == 0
    assert "544 distinct states, 1981 states generated" in capsys.readouterr().out
    records = [json.loads(line) for line in path.read_text().splitlines()]
    (metrics,) = [r for r in records if r["kind"] == "metrics"]
    assert metrics["labels"]["kernel"] == "interpreted"


@pytest.mark.parametrize(
    "spec_name,kernel",
    [("locking", "native"), ("ot_array", "generic"), ("raftmongo", "generic")],
)
def test_every_registered_spec_compiles(spec_name, kernel):
    # compile_spec has nothing to refuse: each registered spec gets a kernel,
    # and a trace fold binds the same one a check run does.
    from repro.tla.trace import SuccessorCache

    spec = build_spec(spec_name)
    assert compile_spec(spec).compile_info["kernel"] == kernel
    assert SuccessorCache(spec).kernel == kernel


def test_a_spec_the_native_kernel_does_not_fit_gets_the_generic_one():
    # One variable, like locking, but not locking: compile_locking declines
    # and the generic kernel runs it exactly as the oracle does.
    def build():
        return Specification(
            "Counter",
            variables=("x",),
            init=lambda: iter([{"x": 0}]),
            actions=[
                Action("Inc", lambda s: iter([{"x": s["x"] + 1}] if s["x"] < 5 else []))
            ],
            invariants=[Invariant("Bounded", lambda s: s["x"] < 4)],
        )

    assert compile_spec(build()).compile_info["kernel"] == "generic"
    compiled = check_spec(build(), check_properties=False)
    with oracle_runs():
        reference = check_spec(build(), check_properties=False)
    assert _stats(compiled) == _stats(reference)
    assert _violation(compiled) == _violation(reference) is not None


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "locking"],
        ["check", "raftmongo", "--param", "n_nodes=2"],
        ["check", "locking", "--engine", "simulate", "--walks", "20", "--seed", "3"],
    ],
    ids=["fingerprint", "graph", "simulate"],
)
def test_the_cli_prints_what_the_oracle_prints(argv, capsys):
    # The CLI surface the removed --compile off used to reach: its summary
    # line is the oracle's, with no tag naming the kernel.
    strip = re.compile(r"\d+\.\d+s")
    assert main(argv) == 0
    compiled = strip.sub("", capsys.readouterr().out)
    with oracle_runs():
        assert main(argv) == 0
    assert strip.sub("", capsys.readouterr().out) == compiled
    assert " compiled" not in compiled


# ---------------------------------------------------------------------------
# Interner unit behaviour
# ---------------------------------------------------------------------------


def test_interner_fingerprints_match_interpreted():
    interner = ValueInterner()
    samples = [
        0,
        1,
        True,
        1.0,
        "held",
        None,
        NULL,
        b"raw",
        (1, 2, ("nested", None)),
        frozenset({1, 2, 3}),
        {"mode": "X", "holders": (0,)},
        [{"a": 1}, {"a": 2}],
    ]
    for value in samples:
        _, fp, _, _ = interner.intern(value)
        assert fp == fingerprint(freeze(value), frozen=True)


def test_interner_distinguishes_equal_primitives_of_different_type():
    """True == 1 == 1.0 in Python; their fingerprints must not collapse."""
    interner = ValueInterner()
    fps = {interner.intern(v)[1] for v in (True, 1, 1.0)}
    assert len(fps) == 3


def test_interner_canonicalizes_equal_values():
    interner = ValueInterner()
    a, fp_a, _, _ = interner.intern(("x", ("y", 1)))
    b, fp_b, _, _ = interner.intern(("x", ("y", 1)))
    assert a is b and fp_a == fp_b
    assert interner.stats()["hits"] >= 1


def test_state_fingerprint_matches_state_class():
    spec = build_spec("locking")
    for state in _reachable_sample(spec, limit=50, sample=10):
        interner = ValueInterner()
        terms = [
            slot_term(slot, interner.intern(value)[1])
            for slot, value in enumerate(state.values)
        ]
        assert state_fingerprint_of_terms(terms) == state.fingerprint()


# ---------------------------------------------------------------------------
# Satellite fast paths
# ---------------------------------------------------------------------------


def test_action_is_enabled_short_circuits():
    spec = build_spec("locking")
    for state in spec.initial_states():
        enabled = set(spec.enabled_actions(state))
        expected = {
            action.name
            for action in spec.actions
            if any(True for _ in action.successors(state))
        }
        assert enabled == expected


def test_coverage_counts_enabled_actions():
    from coverage_reference import coverage_of_trace

    from repro.tla.coverage import CoverageReport

    spec = build_spec("locking")
    trace = [state for state in spec.initial_states()]
    report = coverage_of_trace(spec, trace)
    assert report.enabled_action_counts.get("Acquire", 0) >= 1
    merged = report.merge(report)
    assert merged.enabled_action_counts["Acquire"] == (
        2 * report.enabled_action_counts["Acquire"]
    )
    roundtrip = CoverageReport.from_json(report.to_json())
    assert roundtrip.enabled_action_counts == report.enabled_action_counts
