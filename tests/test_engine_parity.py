"""The bit-identical contract as one table.

Every way of running an exhaustive check -- engine {``fingerprint``,
``states``} x store {``fingerprint``, ``disk``} x compile {``on``, ``off``}
x resume point {none, mid-run} -- must report the statistics and the
counterexample of the reference run: the unhashed ``states`` engine
interpreting the spec's own closures.  (``states`` has one store and no
checkpoint seam, so beside the reference itself it has one more way: the
compiled one.)
"""

import functools

import pytest

import widecounter_spec  # noqa: F401 - registers _test_widecounter
from repro.engine import check_spec
from repro.tla.registry import build_spec

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

#: (engine, store, compile mode, resumed mid-run); the reference is
#: ("states", "states", "off", False).
WAYS = [("states", "states", "on", False)] + [
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
    return check_spec(
        build_spec(name, **params),
        check_properties=False,
        engine=engine,
        store=store,
        compile_mode=mode,
        **check_kwargs,
        **kwargs,
    )


@functools.lru_cache(maxsize=None)
def _reference(row):
    return _outcome(_check(row, "states"))


#: Per row, the peak frontier of the first fingerprint-engine way that ran.
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
    assert result.compiled == (mode == "on")
    assert (result.resumed_from is not None) == resumed
    assert _outcome(result) == _reference(row)
    # The queue-driven ``states`` engine books its frontier differently, so
    # the level loop's peak is compared among its own eight ways.
    if engine == "fingerprint":
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
    cut = [
        _outcome(_check(3, engine, max_depth=RESUME_DEPTH))
        for engine in ("states", "fingerprint")
    ]
    assert cut[0] == cut[1] and cut[0][4]
