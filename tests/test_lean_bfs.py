"""What the fingerprint BFS keeps per state, and what it no longer computes.

The BFS engines step on ``expander.transitions`` and ask
``expander.verdict_for`` once per *new* state, and never call ``expand``; the
simulation engine's walks call ``transitions`` once per walked state.  The fingerprint store is one entry per
distinct state -- the state's fingerprint mapped to its parent's -- and
counterexamples are replayed from those pointers by fingerprint.  Each test
here fails on a version that breaks one of those contracts.
"""

import tracemalloc

import pytest

import repro.compile
import widecounter_spec  # noqa: F401 - registers _test_widecounter
from interpreted_reference import InterpretedExpander, use_oracle
from repro.engine import check_spec
from repro.pipeline.cli import main
from repro.tla import Action, Invariant, Specification
from repro.tla.registry import build_spec, register_spec
from states_reference import reference_check


def _answers(result):
    violation, deadlock = result.invariant_violation, result.deadlock
    return (
        result.distinct_states,
        result.generated_states,
        result.max_depth,
        result.action_counts,
        result.truncated,
        None if violation is None else [s.values for s in violation.trace],
        None if deadlock is None else [s.values for s in deadlock.trace],
    )


def _instrument(monkeypatch, *, refuse_expand):
    """Record every ``verdict_for`` / ``expand`` / ``transitions`` call of the
    run's expander (the compiled spec, or the oracle once ``use_oracle`` has
    run)."""
    calls = {"verdict_for": [], "expand": [], "transitions": [], "expanders": []}
    compile_spec = repro.compile.compile_spec

    def instrumented(spec):
        expander = compile_spec(spec)
        calls["expanders"].append(expander)
        verdict_for, expand = expander.verdict_for, expander.expand
        transitions = expander.transitions

        def counted_transitions(values):
            calls["transitions"].append(values)
            return transitions(values)

        def counted_verdict_for(values, fp):
            calls["verdict_for"].append(fp)
            return verdict_for(values, fp)

        def counted_expand(values):
            if refuse_expand:
                raise AssertionError("expand called by a BFS engine")
            calls["expand"].append(values)
            return expand(values)

        expander.verdict_for = counted_verdict_for
        expander.expand = counted_expand
        expander.transitions = counted_transitions
        return expander

    monkeypatch.setattr(repro.compile, "compile_spec", instrumented)
    return calls


#: The registered families, plus the parity table's fenced widecounter row.
SPECS = [
    ("locking", {}),
    ("raftmongo", {"variant": "mbtc", "n_nodes": 2}),
    ("ot_array", {}),
    ("_test_widecounter", {"ceiling": 5}),
]


@pytest.mark.parametrize("mode", ["on", "off"])
@pytest.mark.parametrize("engine", ["fingerprint", "states"])
@pytest.mark.parametrize("name,params", SPECS)
def test_bfs_takes_one_verdict_per_new_state_and_never_expands(
    monkeypatch, name, params, engine, mode
):
    if mode == "off":
        use_oracle(monkeypatch)
    reference = reference_check(build_spec(name, **params))
    calls = _instrument(monkeypatch, refuse_expand=True)
    spec = build_spec(name, **params)
    initial = len({state.fingerprint() for state in spec.initial_states()})
    result = check_spec(spec, check_properties=False, engine=engine)
    (expander,) = calls["expanders"]
    assert isinstance(expander, InterpretedExpander) == (mode == "off")
    verdicts = calls["verdict_for"]
    assert len(verdicts) == result.distinct_states - initial
    assert len(set(verdicts)) == len(verdicts)
    assert _answers(result) == _answers(reference)


@pytest.mark.parametrize("mode", ["on", "off"])
@pytest.mark.parametrize(
    "name, params, walks, depth, steps_per_expand",
    [
        ("locking", {}, 1000, 50, 50),
        ("raftmongo", {"variant": "mbtc"}, 300, 30, 2),
        ("raftmongo", {"variant": "original"}, 300, 30, 2),
        ("ot_array", {}, 300, 30, 2),
    ],
    ids=["locking", "raftmongo-mbtc", "raftmongo-original", "ot_array"],
)
def test_walks_expand_each_walked_state_once(
    monkeypatch, name, params, walks, depth, steps_per_expand, mode
):
    if mode == "off":
        use_oracle(monkeypatch)
    calls = _instrument(monkeypatch, refuse_expand=False)
    result = check_spec(
        build_spec(name, **params), check_properties=False, engine="simulate",
        walks=walks, walk_depth=depth,
    )
    (expander,) = calls["expanders"]
    assert isinstance(expander, InterpretedExpander) == (mode == "off")
    assert not calls["expand"]
    expanded = calls["transitions"]
    assert len(expanded) == len(set(expanded))
    assert 0 < len(expanded) <= result.distinct_states
    assert sum(result.action_counts.values()) > steps_per_expand * len(expanded)


def _traced_bytes_per_state(spec_builder, **kwargs):
    """``(result, tracemalloc peak per distinct state)`` of one fingerprint BFS.

    The same check runs once untraced first, so imports, compiling and
    CPython's free lists are as a run in the middle of the suite finds them,
    whether the test runs alone or not.
    """
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    check_spec(spec_builder(), **kwargs)
    spec = spec_builder()
    tracemalloc.start()
    try:
        result = check_spec(spec, **kwargs)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.engine, result.store) == ("fingerprint", "fingerprint")
    return result, peak / result.distinct_states


def test_the_fingerprint_bfs_keeps_at_most_210_bytes_per_distinct_state():
    """The store, frontier and bookkeeping of a run, per distinct state.

    A set slot plus a parent-map tuple plus a verdict memo entry per state,
    and a ``State`` per frontier entry, come to about 430 bytes on this run;
    one dict entry per state and value tuples on the frontier to about 230
    while the level being expanded is held until the next one is complete,
    and to about 190 when each entry is let go of as it is expanded.
    """
    result, per_state = _traced_bytes_per_state(
        lambda: build_spec("locking", n_threads=4), max_depth=6
    )
    assert (result.distinct_states, result.generated_states) == (11_498, 46_025)
    assert per_state <= 210


def test_the_generic_kernel_memo_keeps_at_most_140_bytes_per_distinct_state():
    """The read-set memo's leaves and their eviction bookkeeping, per state.

    A ``(children dict, key)`` path and a log entry per stored leaf came to
    about 205 bytes per state on this run; one flat record per leaf to
    about 110.
    """
    result, per_state = _traced_bytes_per_state(
        lambda: build_spec(
            "raftmongo", variant="mbtc", n_nodes=3, max_term=2, max_log_len=1
        ),
        check_properties=False,
    )
    assert (result.distinct_states, result.generated_states) == (2529, 13438)
    assert per_state <= 140


# -- the states engine: its store is the graph ----------------------------------


def test_the_states_bfs_keeps_at_most_1100_bytes_per_distinct_state_with_its_graph():
    """Each state interned once, into the graph, and each edge stored once.

    A separate ``State -> id`` store beside the graph's own, and every
    ``Edge`` (with a ``__dict__``) in two lists, came to about 1,350 bytes
    per state on this run; the graph as the store to about 960.
    """
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")
    spec = build_spec("raftmongo", variant="mbtc", n_nodes=3, max_term=2, max_log_len=1)
    tracemalloc.start()
    try:
        result = check_spec(spec, collect_graph=True)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.engine, result.store) == ("states", "states")
    assert (result.distinct_states, result.generated_states) == (2529, 13438)
    assert peak / result.distinct_states <= 1100


def test_the_states_graph_stores_each_edge_once_in_id_order():
    spec = build_spec("raftmongo", variant="mbtc", n_nodes=2)
    result = check_spec(spec, collect_graph=True, check_properties=False)
    graph = result.graph
    assert not hasattr(graph.edges[0], "__dict__")
    assert graph.edges == tuple(
        edge for node in range(len(graph)) for edge in graph.outgoing(node)
    )
    initial = len(graph.initial_ids)
    assert len(graph.edges) == result.generated_states - initial
    assert check_spec(spec, engine="states", check_properties=False).graph is None


# -- replay by fingerprint ----------------------------------------------------


def _two_roads_factory(violate=False):
    """Left and Right lead from every state with ``x < 3`` to one successor.

    With ``violate`` the invariant fails at ``(3, 2)``; without it the
    run deadlocks at ``(3, 3)``.  Either way every path there crosses states
    both actions reach.
    """

    def init():
        yield {"x": 0, "y": 0}

    def step_x(state):
        if state["x"] < 3:
            yield {"x": state["x"] + 1}

    def step_y(state):
        if state["y"] < 3:
            yield {"y": state["y"] + 1}

    invariants = []
    if violate:
        invariants.append(Invariant("Apart", lambda s: (s["x"], s["y"]) != (3, 2)))
    return Specification(
        "TwoRoads",
        variables=("x", "y"),
        init=init,
        actions=[Action("Up", step_y), Action("Left", step_x), Action("Right", step_x)],
        invariants=invariants,
    )


register_spec("_test_two_roads", _two_roads_factory, replace=True)


@pytest.mark.parametrize("store", ["fingerprint", "disk"])
@pytest.mark.parametrize("violate", [True, False], ids=["violation", "deadlock"])
def test_replayed_counterexamples_equal_the_retained_ones(tmp_path, violate, store):
    def check(engine, **kwargs):
        return check_spec(
            build_spec("_test_two_roads", violate=violate),
            check_properties=False,
            check_deadlock=True,
            engine=engine,
            **kwargs,
        )

    reference = _answers(
        reference_check(
            build_spec("_test_two_roads", violate=violate), check_deadlock=True
        )
    )
    assert reference[5 if violate else 6] is not None
    assert _answers(check("states")) == reference
    kwargs = {"store": store}
    if store == "disk":
        kwargs["store_path"] = str(tmp_path / "visited.db")
    assert _answers(check("fingerprint", **kwargs)) == reference
    checkpoint = str(tmp_path / "run.ckpt")
    cut = check("fingerprint", max_depth=2, checkpoint_path=checkpoint, **kwargs)
    assert cut.truncated
    resumed = check("fingerprint", resume_path=checkpoint, **kwargs)
    assert resumed.resumed_from == checkpoint
    assert _answers(resumed) == reference


# -- the soundness edge: 64-bit fingerprints ------------------------------------


def test_collision_probability_is_tlc_optimistic_estimate():
    result = check_spec(build_spec("locking"), check_properties=False)
    assert (result.distinct_states, result.generated_states) == (544, 1981)
    assert result.fingerprint_collision_probability == 544 * (1981 - 544) / 2**64
    # The states engine's graph is keyed by fingerprint too, as TLC's is.
    states = check_spec(build_spec("locking"), check_properties=False, engine="states")
    assert states.fingerprint_collision_probability == 544 * (1981 - 544) / 2**64


def test_cli_prints_the_collision_line_after_an_unchanged_summary(capsys):
    assert main(["check", "locking"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(
        "Locking: OK; 544 distinct states, 1981 states generated, depth 6, "
    )
    assert lines[0].endswith(" [engine=fingerprint store=fingerprint]")
    assert lines[1] == "fingerprint collision probability: calculated (optimistic) 4.2e-14"
    assert main(["check", "locking", "--engine", "states"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == lines[1]
