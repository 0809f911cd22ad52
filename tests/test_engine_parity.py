"""The bit-identical contract as one table.

Every way of running an exhaustive check -- engine {``fingerprint``,
``states``} x store {``fingerprint``, ``disk``} x compile {``on``, ``off``}
x resume point {none, mid-run} -- must report the statistics and the
counterexample of the reference run: the test tree's unhashed, State-keyed
BFS (``states_reference.py``) interpreting the spec's own closures.  Every
run compiles; compile ``off`` runs the test-tree oracle
(``interpreted_reference.py``) in the kernels' place.  (``states`` has one
store and no checkpoint seam, so it has two ways.)  Both engines run the
one level loop, so every way reports the same peak frontier, and the
``states`` engine's graph is the reference's, node for node.
"""

import functools

import pytest

import widecounter_spec  # noqa: F401 - registers _test_widecounter
from interpreted_reference import oracle_runs
from repro.engine import check_spec
from repro.tla.registry import build_spec
from states_reference import reference_check

#: (spec name, spec params, check_spec keywords): the three registered
#: configurations plus a spec with a state constraint (fencing), a seeded
#: invariant violation (counterexample values) and a deadlock.
ROWS = [
    ("locking", {}, {}),
    ("raftmongo", {"variant": "original"}, {}),
    ("raftmongo", {"n_nodes": 2, "variant": "mbtc"}, {}),
    ("_test_widecounter", {"ceiling": 5}, {}),
    ("_test_widecounter", {"invariant_bound": 5}, {}),
    ("_test_widecounter", {"limit": 1}, {"check_deadlock": True}),
]

#: (engine, store, compile mode, resumed mid-run).
WAYS = [("states", "states", mode, False) for mode in ("off", "on")] + [
    ("fingerprint", store, mode, resumed)
    for store in ("fingerprint", "disk")
    for mode in ("off", "on")
    for resumed in (False, True)
]

#: Every row is deeper than this; a resumed run stops here first.
RESUME_DEPTH = 3


def _outcome(result):
    """What must not depend on how the check was run."""
    traces = [
        None if error is None else [tuple(state.values) for state in error.trace]
        for error in (result.invariant_violation, result.deadlock)
    ]
    violated = result.invariant_violation
    return (
        result.distinct_states,
        result.generated_states,
        result.max_depth,
        result.action_counts,
        result.truncated,
        None if violated is None else violated.property_name,
        traces,
    )


def _check(row, engine, store="auto", mode="off", **kwargs):
    name, params, check_kwargs = ROWS[row]
    with oracle_runs(mode):
        return check_spec(
            build_spec(name, **params),
            check_properties=False,
            engine=engine,
            store=store,
            **check_kwargs,
            **kwargs,
        )


def _reference_run(row, **kwargs):
    name, params, check_kwargs = ROWS[row]
    return reference_check(build_spec(name, **params), **check_kwargs, **kwargs)


@functools.lru_cache(maxsize=None)
def _reference(row):
    return _outcome(_reference_run(row))


#: Per row, the peak frontier of the first way that ran.
_PEAKS = {}


@pytest.mark.parametrize("engine,store,mode,resumed", WAYS)
@pytest.mark.parametrize("row", range(len(ROWS)), ids=lambda row: f"row{row}")
def test_every_way_of_checking_matches_the_reference(
    tmp_path, row, engine, store, mode, resumed
):
    kwargs = {}
    if store == "disk":
        kwargs["store_path"] = str(tmp_path / "visited.db")
    if resumed:
        checkpoint = str(tmp_path / "run.ckpt")
        cut = _check(
            row, engine, store, mode,
            max_depth=RESUME_DEPTH, checkpoint_path=checkpoint, **kwargs,
        )
        assert cut.truncated
        kwargs["resume_path"] = checkpoint
    result = _check(row, engine, store, mode, **kwargs)

    assert result.engine == engine and result.store == store
    assert (result.resumed_from is not None) == resumed
    assert _outcome(result) == _reference(row)
    assert _PEAKS.setdefault(row, result.peak_frontier) == result.peak_frontier


def test_reference_rows_cover_fencing_violation_and_deadlock():
    """The table's widecounter rows exercise what their comments claim."""
    fenced = _reference(3)
    # C(12, 6): sum <= 5 is expanded, sum == 6 is generated and fenced off.
    assert (fenced[0], fenced[2]) == (924, 6)
    violated = _reference(4)
    assert violated[5] == "Bounded" and sum(violated[6][0][-1][0]) == 5
    deadlocked = _reference(5)
    assert deadlocked[6][1][-1] == ((1,) * 6,)


def test_max_depth_truncates_both_engines_alike():
    reference = _outcome(_reference_run(3, max_depth=RESUME_DEPTH))
    assert reference[4]
    for engine in ("states", "fingerprint"):
        assert _outcome(_check(3, engine, max_depth=RESUME_DEPTH)) == reference


@pytest.mark.parametrize(
    "name,params,check_kwargs",
    ROWS + [("ot_array", {"init_length": 3}, {})],
    ids=[f"row{row}" for row in range(len(ROWS))] + ["ot_array3"],
)
def test_the_states_graph_is_the_references_node_for_node(name, params, check_kwargs):
    graph = check_spec(
        build_spec(name, **params),
        collect_graph=True,
        check_properties=False,
        **check_kwargs,
    ).graph
    table = reference_check(build_spec(name, **params), **check_kwargs).graph
    assert [state.values for state in graph.states()] == [
        state.values for state in table.states
    ]
    assert graph.initial_ids == tuple(table.initial_ids)
    assert [(e.source, e.action, e.target) for e in graph.edges] == [
        (e.source, e.action, e.target) for e in table.edges
    ]
