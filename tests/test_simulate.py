"""The random-walk simulation engine: determinism, real violations, budgets.

Acceptance (ISSUE 5): ``engine="simulate"`` on the ``locking`` spec with a
seeded RNG must find the known ``MutualExclusion``-violating mutation
deterministically, and every violation it reports must be a *real* reachable
violation (the trace starts in an initial state and every step is an enabled
action).
"""

import pytest

from interpreted_reference import oracle_runs, use_oracle
from repro.compile import compile_spec
from repro.compile.expansion import MEMO_MAX, Memo
from repro.engine import ModelChecker, check_spec, simulate
from repro.tla import Action, Specification
from repro.tla.registry import build_spec


def assert_real_behaviour(spec, trace):
    """The trace must be a genuine behaviour of the spec."""
    initial = spec.initial_states()
    assert trace[0] in initial, "trace does not start in an initial state"
    for current, nxt in zip(trace, trace[1:]):
        successors = [state for _action, state in spec.successors(current)]
        assert nxt in successors, f"no enabled action leads {current} -> {nxt}"


def test_clean_spec_simulates_ok():
    spec = build_spec("locking")
    result = check_spec(
        spec, check_properties=False, engine="simulate", walks=25, walk_depth=12, seed=1
    )
    assert result.ok
    assert result.engine == "simulate" and result.store == "fingerprint"
    assert result.walks == 25  # no violation: every budgeted walk ran
    assert 0 < result.max_depth <= 12
    # every state a walk visits is reachable: never more than the true count
    assert 0 < result.distinct_states <= 544
    assert sum(result.action_counts.values()) <= result.generated_states


def test_simulate_finds_mutual_exclusion_mutation_deterministically():
    spec = build_spec("locking", mutation="xx_compatible")
    runs = [
        check_spec(
            spec,
            check_properties=False,
            engine="simulate",
            walks=50,
            walk_depth=20,
            seed=0,
        )
        for _ in range(2)
    ]
    for result in runs:
        assert not result.ok
        violation = result.invariant_violation
        assert violation is not None
        assert violation.property_name == "MutualExclusion"
        assert_real_behaviour(spec, violation.trace)
        # the final state genuinely violates the invariant, and no earlier
        # state does (a walk stops at its first violation)
        assert spec.violated_invariant(violation.trace[-1]).name == "MutualExclusion"
        for state in violation.trace[:-1]:
            assert spec.violated_invariant(state) is None
    first, second = runs
    assert [s.values for s in first.invariant_violation.trace] == [
        s.values for s in second.invariant_violation.trace
    ]
    assert (first.walks, first.generated_states, first.distinct_states) == (
        second.walks,
        second.generated_states,
        second.distinct_states,
    )


#: Walk results pinned from the engine before it memoized expansions, run
#: with one worker; any change to how walks run must reproduce them.  A row
#: with ``stop_on_violation=False`` runs every walk and reports the first
#: walk that deadlocks; the mutated locking rows stop at the first violating
#: walk, and the clean locking rows find nothing.
#: Columns: spec, params, walks, seed, stop_on_violation, (walks run,
#: distinct, generated, depth), action_counts, the reported event (None for
#: none), and the counterexample's value tuples as ``repr`` strings.
_GOLDEN_WALKS = [
    (
        "raftmongo", {"variant": "mbtc"}, 2000, 0, False,
        (2000, 2490, 91516, 23),
        {"ClientWrite": 1864,
         "AppendOplog": 3639,
         "RollbackOplog": 103,
         "BecomePrimaryByMagic": 4000,
         "Stepdown": 2481,
         "AdvanceCommitPoint": 422,
         "UpdateTermThroughHeartbeat": 5501,
         "LearnCommitPointWithTermCheck": 434,
         "LearnCommitPointFromSyncSourceNeverBeyondLastApplied": 397},
        "deadlock",
        [
            "(('Follower', 'Follower', 'Follower'), (0, 0, 0), (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Leader', 'Follower'), (0, 1, 0), (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Leader', 'Follower'), (0, 1, 1), (NULL, NULL, NULL), ((), (), ()))",
            "(('Leader', 'Follower', 'Follower'), (2, 1, 1), (NULL, NULL, NULL), ((), (), ()))",
            "(('Leader', 'Follower', 'Follower'), (2, 2, 1), (NULL, NULL, NULL), ((), (), ()))",
            "(('Leader', 'Follower', 'Follower'), (2, 2, 1), (NULL, NULL, NULL), ((Record(index=1, term=2),), (), ()))",
            "(('Leader', 'Follower', 'Follower'), (2, 2, 1), (NULL, NULL, NULL), ((Record(index=1, term=2),), (Record(index=1, term=2),), ()))",
            "(('Leader', 'Follower', 'Follower'), (2, 2, 2), (NULL, NULL, NULL), ((Record(index=1, term=2),), (Record(index=1, term=2),), ()))",
            "(('Follower', 'Follower', 'Follower'), (2, 2, 2), (NULL, NULL, NULL), ((Record(index=1, term=2),), (Record(index=1, term=2),), ()))",
            "(('Follower', 'Follower', 'Follower'), (2, 2, 2), (NULL, NULL, NULL), ((Record(index=1, term=2),), (Record(index=1, term=2),), (Record(index=1, term=2),)))",
        ],
    ),
    (
        "raftmongo", {"variant": "mbtc"}, 2000, 1, False,
        (2000, 2387, 90435, 26),
        {"ClientWrite": 1886,
         "AppendOplog": 3678,
         "RollbackOplog": 134,
         "BecomePrimaryByMagic": 4000,
         "Stepdown": 2471,
         "AdvanceCommitPoint": 375,
         "UpdateTermThroughHeartbeat": 5501,
         "LearnCommitPointWithTermCheck": 377,
         "LearnCommitPointFromSyncSourceNeverBeyondLastApplied": 372},
        "deadlock",
        [
            "(('Follower', 'Follower', 'Follower'), (0, 0, 0), (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Leader', 'Follower'), (0, 1, 0), (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Leader', 'Follower'), (0, 2, 0), (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Leader', 'Follower'), (0, 2, 2), (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Leader', 'Follower'), (0, 2, 2), (NULL, NULL, NULL), ((), (Record(index=1, term=2),), ()))",
            "(('Follower', 'Follower', 'Follower'), (0, 2, 2), (NULL, NULL, NULL), ((), (Record(index=1, term=2),), ()))",
            "(('Follower', 'Follower', 'Follower'), (0, 2, 2), (NULL, NULL, NULL), ((), (Record(index=1, term=2),), (Record(index=1, term=2),)))",
            "(('Follower', 'Follower', 'Follower'), (0, 2, 2), (NULL, NULL, NULL), ((Record(index=1, term=2),), (Record(index=1, term=2),), (Record(index=1, term=2),)))",
            "(('Follower', 'Follower', 'Follower'), (2, 2, 2), (NULL, NULL, NULL), ((Record(index=1, term=2),), (Record(index=1, term=2),), (Record(index=1, term=2),)))",
        ],
    ),
    (
        "raftmongo", {"variant": "mbtc"}, 2000, 42, False,
        (2000, 2563, 91615, 22),
        {"ClientWrite": 1862,
         "AppendOplog": 3623,
         "RollbackOplog": 106,
         "BecomePrimaryByMagic": 4000,
         "Stepdown": 2490,
         "AdvanceCommitPoint": 421,
         "UpdateTermThroughHeartbeat": 5496,
         "LearnCommitPointWithTermCheck": 413,
         "LearnCommitPointFromSyncSourceNeverBeyondLastApplied": 431},
        "deadlock",
        [
            "(('Follower', 'Follower', 'Follower'), (0, 0, 0), (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Follower', 'Leader'), (0, 0, 1), (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Follower', 'Leader'), (0, 0, 2), (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Follower', 'Leader'), (0, 0, 2), (NULL, NULL, NULL), ((), (), (Record(index=1, term=2),)))",
            "(('Follower', 'Follower', 'Leader'), (0, 0, 2), (NULL, NULL, NULL), ((), (Record(index=1, term=2),), (Record(index=1, term=2),)))",
            "(('Follower', 'Follower', 'Leader'), (2, 0, 2), (NULL, NULL, NULL), ((), (Record(index=1, term=2),), (Record(index=1, term=2),)))",
            "(('Follower', 'Follower', 'Leader'), (2, 2, 2), (NULL, NULL, NULL), ((), (Record(index=1, term=2),), (Record(index=1, term=2),)))",
            "(('Follower', 'Follower', 'Follower'), (2, 2, 2), (NULL, NULL, NULL), ((), (Record(index=1, term=2),), (Record(index=1, term=2),)))",
            "(('Follower', 'Follower', 'Follower'), (2, 2, 2), (NULL, NULL, NULL), ((Record(index=1, term=2),), (Record(index=1, term=2),), (Record(index=1, term=2),)))",
        ],
    ),
    (
        "locking", {"mutation": "xx_compatible"}, 500, 0, True,
        (2, 29, 253, 50),
        {"Acquire": 28, "Release": 24},
        "MutualExclusion",
        [
            "((('None', 'None', 'None'), ('None', 'None', 'None')),)",
            "((('X', 'None', 'None'), ('None', 'None', 'None')),)",
            "((('X', 'None', 'None'), ('X', 'None', 'None')),)",
        ],
    ),
    (
        "locking", {"mutation": "xx_compatible"}, 500, 1, True,
        (4, 87, 707, 50),
        {"Acquire": 86, "Release": 66},
        "MutualExclusion",
        [
            "((('None', 'None', 'None'), ('None', 'None', 'None')),)",
            "((('X', 'None', 'None'), ('None', 'None', 'None')),)",
            "((('X', 'None', 'None'), ('X', 'None', 'None')),)",
        ],
    ),
    (
        "locking", {"mutation": "xx_compatible"}, 500, 7, True,
        (6, 125, 1183, 50),
        {"Acquire": 137, "Release": 115},
        "MutualExclusion",
        [
            "((('None', 'None', 'None'), ('None', 'None', 'None')),)",
            "((('None', 'None', 'None'), ('X', 'None', 'None')),)",
            "((('X', 'None', 'None'), ('X', 'None', 'None')),)",
        ],
    ),
    (
        "locking", {}, 300, 0, True,
        (300, 544, 67463, 50),
        {"Acquire": 8101, "Release": 6899},
        None,
        [],
    ),
    (
        "locking", {}, 300, 5, True,
        (300, 544, 66653, 50),
        {"Acquire": 8100, "Release": 6900},
        None,
        [],
    ),
    (
        "raftmongo", {"variant": "original"}, 500, 0, False,
        (500, 503, 12538, 16),
        {"ClientWrite": 459,
         "AppendOplog": 895,
         "RollbackOplog": 25,
         "BecomePrimaryByMagic": 1000,
         "Stepdown": 627,
         "AdvanceCommitPoint": 93,
         "LearnCommitPoint": 182},
        "deadlock",
        [
            "(('Follower', 'Follower', 'Follower'), 0, (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Leader', 'Follower'), 1, (NULL, NULL, NULL), ((), (), ()))",
            "(('Leader', 'Follower', 'Follower'), 2, (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Follower', 'Follower'), 2, (NULL, NULL, NULL), ((), (), ()))",
        ],
    ),
    (
        "raftmongo", {"variant": "original"}, 500, 3, False,
        (500, 506, 12500, 20),
        {"ClientWrite": 460,
         "AppendOplog": 891,
         "RollbackOplog": 31,
         "BecomePrimaryByMagic": 1000,
         "Stepdown": 620,
         "AdvanceCommitPoint": 103,
         "LearnCommitPoint": 196},
        "deadlock",
        [
            "(('Follower', 'Follower', 'Follower'), 0, (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Leader', 'Follower'), 1, (NULL, NULL, NULL), ((), (), ()))",
            "(('Follower', 'Leader', 'Follower'), 1, (NULL, NULL, NULL), ((), (Record(index=1, term=1),), ()))",
            "(('Follower', 'Leader', 'Follower'), 1, (NULL, NULL, NULL), ((), (Record(index=1, term=1),), (Record(index=1, term=1),)))",
            "(('Follower', 'Leader', 'Follower'), 1, (NULL, NULL, NULL), ((), (Record(index=1, term=1), Record(index=2, term=1)), (Record(index=1, term=1),)))",
            "(('Follower', 'Leader', 'Follower'), 2, (NULL, NULL, NULL), ((), (Record(index=1, term=1), Record(index=2, term=1)), (Record(index=1, term=1),)))",
            "(('Follower', 'Leader', 'Follower'), 2, (NULL, NULL, NULL), ((), (Record(index=1, term=1), Record(index=2, term=1)), (Record(index=1, term=1), Record(index=2, term=1))))",
            "(('Follower', 'Follower', 'Follower'), 2, (NULL, NULL, NULL), ((), (Record(index=1, term=1), Record(index=2, term=1)), (Record(index=1, term=1), Record(index=2, term=1))))",
            "(('Follower', 'Follower', 'Follower'), 2, (NULL, NULL, NULL), ((Record(index=1, term=1),), (Record(index=1, term=1), Record(index=2, term=1)), (Record(index=1, term=1), Record(index=2, term=1))))",
            "(('Follower', 'Follower', 'Follower'), 2, (NULL, NULL, NULL), ((Record(index=1, term=1), Record(index=2, term=1)), (Record(index=1, term=1), Record(index=2, term=1)), (Record(index=1, term=1), Record(index=2, term=1))))",
        ],
    ),
    (
        "raftmongo", {"variant": "mbtc", "n_nodes": 2}, 500, 5, False,
        (500, 304, 11049, 14),
        {"ClientWrite": 505,
         "AppendOplog": 505,
         "RollbackOplog": 0,
         "BecomePrimaryByMagic": 1000,
         "Stepdown": 671,
         "AdvanceCommitPoint": 78,
         "UpdateTermThroughHeartbeat": 669,
         "LearnCommitPointWithTermCheck": 31,
         "LearnCommitPointFromSyncSourceNeverBeyondLastApplied": 43},
        "deadlock",
        [
            "(('Follower', 'Follower'), (0, 0), (NULL, NULL), ((), ()))",
            "(('Leader', 'Follower'), (1, 0), (NULL, NULL), ((), ()))",
            "(('Follower', 'Follower'), (1, 0), (NULL, NULL), ((), ()))",
            "(('Leader', 'Follower'), (2, 0), (NULL, NULL), ((), ()))",
            "(('Leader', 'Follower'), (2, 0), (NULL, NULL), ((Record(index=1, term=2),), ()))",
            "(('Leader', 'Follower'), (2, 0), (NULL, NULL), ((Record(index=1, term=2), Record(index=2, term=2)), ()))",
            "(('Leader', 'Follower'), (2, 2), (NULL, NULL), ((Record(index=1, term=2), Record(index=2, term=2)), ()))",
            "(('Follower', 'Follower'), (2, 2), (NULL, NULL), ((Record(index=1, term=2), Record(index=2, term=2)), ()))",
            "(('Follower', 'Follower'), (2, 2), (NULL, NULL), ((Record(index=1, term=2), Record(index=2, term=2)), (Record(index=1, term=2),)))",
            "(('Follower', 'Follower'), (2, 2), (NULL, NULL), ((Record(index=1, term=2), Record(index=2, term=2)), (Record(index=1, term=2), Record(index=2, term=2))))",
        ],
    ),
    (
        "ot_array", {}, 200, 0, False,
        (200, 196, 5131, 4),
        {"Insert": 175, "Remove": 93, "Set": 109, "Integrate": 377},
        "deadlock",
        [
            '(((0, 1), (0, 1)), (NULL, NULL), (False, False))',
            "(((0, 1), (0, 11, 1)), (NULL, Record(kind='insert', pos=1, value=11)), (False, False))",
            "(((1,), (0, 11, 1)), (Record(kind='remove', pos=0), Record(kind='insert', pos=1, value=11)), (False, False))",
            "(((1,), (11, 1)), (Record(kind='remove', pos=0), Record(kind='insert', pos=1, value=11)), (False, True))",
            "(((11, 1), (11, 1)), (Record(kind='remove', pos=0), Record(kind='insert', pos=1, value=11)), (True, True))",
        ],
    ),
    (
        "ot_array", {}, 200, 1, False,
        (200, 209, 5128, 4),
        {"Insert": 166, "Remove": 102, "Set": 108, "Integrate": 376},
        "deadlock",
        [
            '(((0, 1), (0, 1)), (NULL, NULL), (False, False))',
            "(((0, 1), (0, 11, 1)), (NULL, Record(kind='insert', pos=1, value=11)), (False, False))",
            "(((20, 1), (0, 11, 1)), (Record(kind='set', pos=0, value=20), Record(kind='insert', pos=1, value=11)), (False, False))",
            "(((20, 1), (20, 11, 1)), (Record(kind='set', pos=0, value=20), Record(kind='insert', pos=1, value=11)), (False, True))",
            "(((20, 11, 1), (20, 11, 1)), (Record(kind='set', pos=0, value=20), Record(kind='insert', pos=1, value=11)), (True, True))",
        ],
    ),
]


@pytest.mark.parametrize(
    "name, params, walks, seed, stop, stats, action_counts, event, trace",
    _GOLDEN_WALKS,
    ids=[
        "-".join([row[0], *(f"{k}={v}" for k, v in row[1].items()), f"seed{row[3]}"])
        for row in _GOLDEN_WALKS
    ],
)
def test_walks_match_the_golden_table(
    name, params, walks, seed, stop, stats, action_counts, event, trace
):
    result = check_spec(
        build_spec(name, **params),
        check_properties=False,
        check_deadlock=True,
        stop_on_violation=stop,
        engine="simulate",
        walks=walks,
        seed=seed,
    )
    assert (
        result.walks, result.distinct_states, result.generated_states, result.max_depth
    ) == stats
    assert result.action_counts == action_counts
    if event is None:
        assert result.ok and not trace
        return
    if event == "deadlock":
        found, other = result.deadlock, result.invariant_violation
    else:
        found, other = result.invariant_violation, result.deadlock
        assert found.property_name == event
    assert other is None
    assert [repr(state.values) for state in found.trace] == trace


def _typed_flags_spec():
    """``flag`` is ``True`` in one initial state and ``1`` in the other.

    The two are equal values but different states (their fingerprints
    differ), with different successors: a bool flag toggles, an int flag
    counts.  A memo that took one for the other would walk steps the spec
    never takes.
    """

    def init():
        yield {"flag": True, "n": 0}
        yield {"flag": 1, "n": 0}

    def toggle(state):
        flag, n = state["flag"], state["n"]
        return [{"flag": not flag, "n": n}] if isinstance(flag, bool) else []

    def count(state):
        flag, n = state["flag"], state["n"]
        return [{"flag": flag, "n": n + 1}] if not isinstance(flag, bool) and n < 3 else []

    def back(state):
        return [{"flag": state["flag"], "n": 0}] if state["n"] else []

    return Specification(
        "TypedFlags",
        variables=("flag", "n"),
        init=init,
        actions=[Action("Toggle", toggle), Action("Count", count), Action("Back", back)],
    )


@pytest.mark.parametrize("mode", ["on", "off"])
@pytest.mark.parametrize(
    "seed, stats, action_counts",
    [
        (0, (20, 6, 250, 8), {"Toggle": 64, "Count": 63, "Back": 33}),
        (1, (20, 6, 251, 8), {"Toggle": 64, "Count": 62, "Back": 34}),
        (2, (20, 6, 266, 8), {"Toggle": 32, "Count": 82, "Back": 46}),
    ],
)
def test_walks_keep_equal_but_differently_typed_states_apart(
    monkeypatch, seed, stats, action_counts, mode
):
    # Recorded from the walk engine before it memoized expansions, which
    # expanded every step afresh: all six states are reached from both sides.
    if mode == "off":
        use_oracle(monkeypatch)
    result = check_spec(
        _typed_flags_spec(),
        check_properties=False,
        check_deadlock=False,
        engine="simulate",
        walks=20,
        walk_depth=8,
        seed=seed,
    )
    assert (
        result.walks, result.distinct_states, result.generated_states, result.max_depth
    ) == stats
    assert result.action_counts == action_counts


#: Specs the walk properties below run on: (name, params).
_WALK_SPECS = [
    ("locking", {}),
    ("locking", {"mutation": "xx_compatible"}),
    ("raftmongo", {"variant": "mbtc"}),
    ("raftmongo", {"variant": "original"}),
    ("ot_array", {}),
]
_WALK_SPEC_IDS = [
    "-".join([name, *(f"{k}={v}" for k, v in params.items())])
    for name, params in _WALK_SPECS
]


def _outcome(result):
    violation, deadlock = result.invariant_violation, result.deadlock
    return (
        result.walks,
        result.distinct_states,
        result.generated_states,
        result.max_depth,
        result.action_counts,
        None if violation is None else violation.property_name,
        None if violation is None else [s.values for s in violation.trace],
        None if deadlock is None else [s.values for s in deadlock.trace],
    )


@pytest.mark.parametrize("cap", [2, 64, None], ids=["cap2", "cap64", "default-cap"])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name, params", _WALK_SPECS, ids=_WALK_SPEC_IDS)
def test_the_expansion_memo_only_saves_work(name, params, seed, cap):
    # Walk i against the memo every walk of a run shares -- at cap 2 and 64
    # its oldest half is dropped over and over, and so is the verdict memo's
    # -- equals walk i against an empty memo on its own expander: the memos
    # decide how often a state is expanded and judged, never where a walk
    # goes or what it reports.
    spec = build_spec(name, **params)
    shared_expander = compile_spec(spec)
    fresh_expander = compile_spec(spec)
    initial = simulate._judged_initial(spec, simulate._Verdicts(fresh_expander.verdict_for))
    shared = Memo(cap or MEMO_MAX)
    shared_verdicts = simulate._Verdicts(shared_expander.verdict_for)
    shared_verdicts.cap = cap or MEMO_MAX
    for walk_index in range(30):
        walked = simulate._run_walk(
            shared_expander, shared, shared_verdicts, initial, walk_index, seed, 20
        )
        alone = simulate._run_walk(
            fresh_expander, Memo(), simulate._Verdicts(fresh_expander.verdict_for),
            initial, walk_index, seed, 20,
        )
        assert walked == alone
        # The cap counts successors held; one entry may outweigh it alone.
        assert shared.weight <= (cap or MEMO_MAX) or len(shared) == 1
        assert shared.weight == sum(1 + len(expansion) for expansion in shared.values())
        assert len(shared_verdicts) <= (cap or MEMO_MAX)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name, params", _WALK_SPECS, ids=_WALK_SPEC_IDS)
def test_walks_are_the_same_on_either_expander(name, params, seed):
    # Walk i draws by sequence length and both expanders enumerate
    # successors in the same order, so a compiled run and one on the oracle
    # take the same walks, counterexamples included.
    runs = []
    for mode in ("on", "off"):
        with oracle_runs(mode):
            runs.append(
                check_spec(
                    build_spec(name, **params),
                    check_properties=False,
                    check_deadlock=True,
                    stop_on_violation=False,
                    engine="simulate",
                    walks=60,
                    walk_depth=25,
                    seed=seed,
                )
            )
    compiled, interpreted = runs
    assert _outcome(compiled) == _outcome(interpreted)


@pytest.mark.parametrize("name, params", _WALK_SPECS, ids=_WALK_SPEC_IDS)
def test_a_deeper_budget_extends_every_walk(name, params):
    # Walk i draws its initial state, then one successor per step, from its
    # own seeded stream: a deeper budget only lets it go on, so the walk
    # under the smaller budget is a prefix of the same walk under the larger.
    spec = build_spec(name, **params)
    expander = compile_spec(spec)
    verdicts = simulate._Verdicts(expander.verdict_for)
    initial = simulate._judged_initial(spec, verdicts)
    memo = Memo()
    for walk_index in range(30):
        short = simulate._run_walk(expander, memo, verdicts, initial, walk_index, 3, 8)
        long = simulate._run_walk(expander, memo, verdicts, initial, walk_index, 3, 24)
        steps, _generated, fps, _inv, _deadlocked, trace, actions = short
        assert long[0] >= steps
        assert long[2][: len(fps)] == fps
        assert long[5][: len(trace)] == trace and long[6][:steps] == actions
        if steps < 8:  # the walk ended on its own: the budget never mattered
            assert long == short


def test_simulate_checks_invariants_on_out_of_constraint_successors():
    # The widecounter constraint fences off every sum > ceiling state, so
    # with ceiling == 3 the only Bounded-violating states (sum >= 4) are
    # generated but never entered.  BFS checks invariants on every generated
    # successor; simulate must agree, not sample straight past the bug.
    import widecounter_spec  # noqa: F401 - registers _test_widecounter

    spec = build_spec("_test_widecounter", invariant_bound=4, ceiling=3)
    exhaustive = check_spec(spec, check_properties=False, engine="fingerprint")
    assert exhaustive.invariant_violation is not None
    sampled = check_spec(
        spec, check_properties=False, engine="simulate", walks=10, walk_depth=10, seed=0
    )
    violation = sampled.invariant_violation
    assert violation is not None
    assert violation.property_name == "Bounded"
    assert_real_behaviour(spec, violation.trace)
    assert sum(violation.trace[-1]["xs"]) >= 4


def test_simulate_reports_deadlocks(counter_spec):
    # The counter spec dead-ends at x == limit; a 10-step budget always gets
    # there (the only enabled action is Increment).
    result = check_spec(
        counter_spec,
        check_deadlock=True,
        check_properties=False,
        engine="simulate",
        walks=3,
        walk_depth=10,
    )
    assert result.deadlock is not None and not result.ok
    assert [state["x"] for state in result.deadlock.trace] == [0, 1, 2, 3, 4, 5]


def test_simulate_respects_depth_budget(counter_spec):
    result = check_spec(
        counter_spec,
        check_properties=False,
        engine="simulate",
        walks=4,
        walk_depth=3,
    )
    assert result.ok
    assert result.max_depth == 3  # the walk is cut at the budget
    assert result.distinct_states == 4  # x in 0..3


def test_simulate_reports_both_event_kinds_without_stop_on_violation():
    # Walks branching at x=0: one branch dead-ends (deadlock), the other
    # generates an invariant-violating successor.  Without stop_on_violation
    # every walk runs, so both findings are real and both must be reported
    # (the BFS engines record both fields too).
    from repro.tla import Action, Invariant, Specification

    def init():
        yield {"x": 0}

    def step(state):
        if state["x"] == 0:
            yield {"x": 1}
            yield {"x": 2}
        elif state["x"] == 2:
            yield {"x": 3}

    spec = Specification(
        "Branch",
        variables=("x",),
        init=init,
        actions=[Action("Step", step)],
        invariants=[Invariant("NotThree", lambda s: s["x"] != 3)],
    )
    checker = ModelChecker(
        spec,
        check_deadlock=True,
        check_properties=False,
        stop_on_violation=False,
        engine="simulate",
        walks=16,
        walk_depth=5,
        seed=0,
    )
    result = checker.run()
    assert result.invariant_violation is not None
    assert result.invariant_violation.property_name == "NotThree"
    assert result.deadlock is not None
    assert result.walks == 16  # nothing stopped early


def test_simulate_rejects_bfs_bounds():
    # max_states/max_depth are BFS budgets; simulate is bounded by
    # walks/walk_depth and must refuse rather than silently ignore them.
    spec = build_spec("locking")
    with pytest.raises(ValueError, match="walks"):
        ModelChecker(spec, check_properties=False, engine="simulate", max_states=5)
    with pytest.raises(ValueError, match="walks"):
        ModelChecker(spec, check_properties=False, engine="simulate", max_depth=5)


def test_simulate_rejects_bad_budgets(locking_spec):
    with pytest.raises(ValueError):
        ModelChecker(locking_spec, engine="simulate", walks=0)
    with pytest.raises(ValueError):
        ModelChecker(locking_spec, engine="simulate", walk_depth=0)


def test_cli_check_supports_simulate_engine(capsys):
    from repro.pipeline.cli import main

    code = main(
        [
            "check",
            "locking",
            "--engine",
            "simulate",
            "--walks",
            "10",
            "--depth",
            "8",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "engine: simulate (10 walks" in out
    assert "engine=simulate" in out


def test_cli_check_simulate_finds_seeded_mutation(capsys):
    from repro.pipeline.cli import main

    code = main(
        [
            "check",
            "locking",
            "--param",
            "mutation=xx_compatible",
            "--engine",
            "simulate",
            "--walks",
            "50",
            "--depth",
            "20",
            "--seed",
            "0",
        ]
    )
    assert code == 1  # violation found -> same exit convention as BFS engines
    out = capsys.readouterr().out
    assert "VIOLATION" in out
    assert "counterexample" in out


def _judging(monkeypatch):
    """Every ``verdict_for`` call and every generated fingerprint of the runs
    compiled while ``monkeypatch`` holds, through a wrapped expander."""
    import repro.compile

    seen = {"judged": [], "generated": set(), "kernels": []}
    compile_spec = repro.compile.compile_spec

    def wrapped(spec):
        expander = compile_spec(spec)
        verdict_for, transitions = expander.verdict_for, expander.transitions

        def counted_verdict_for(values, fp):
            seen["judged"].append((values, fp))
            return verdict_for(values, fp)

        def recorded_transitions(values):
            found = transitions(values)
            seen["generated"].update(fp for _action, _values, fp in found)
            return found

        expander.verdict_for = counted_verdict_for
        expander.transitions = recorded_transitions
        seen["kernels"].append(expander.compile_info["kernel"])
        return expander

    monkeypatch.setattr(repro.compile, "compile_spec", wrapped)
    return seen


@pytest.mark.parametrize(
    "name, params, kernel",
    [("raftmongo", {"variant": "mbtc"}, "generic"), ("locking", {}, "native")],
    ids=["raftmongo", "locking"],
)
def test_a_walk_run_judges_each_generated_fingerprint_once(monkeypatch, name, params, kernel):
    # Below the cap nothing is evicted, so the walks' verdict memo judges
    # every fingerprint they generate -- initial states included -- once,
    # however often they generate it.
    seen = _judging(monkeypatch)
    spec = build_spec(name, **params)
    initial = {state.fingerprint() for state in spec.initial_states()}
    result = check_spec(
        spec, check_properties=False, engine="simulate", walks=2000, walk_depth=50, seed=1
    )
    assert seen["kernels"] == [kernel]
    judged = [fp for _values, fp in seen["judged"]]
    assert len(judged) == len(set(judged))
    assert set(judged) == seen["generated"] | initial
    assert result.generated_states > 10 * len(judged) > 0


def test_an_out_of_constraint_successor_is_counted_and_judged(monkeypatch):
    # One counter, fenced at 2: a walk goes 0 -> 1 -> 2, generates 3 -- which
    # it never enters -- and stops.  Every walk counts 3 among its generated
    # states, and the run judges it once; with a bound of 3 that judgment is
    # the violation, with the walk plus 3 as the counterexample.
    import widecounter_spec  # noqa: F401 - registers _test_widecounter

    seen = _judging(monkeypatch)
    options = dict(check_properties=False, engine="simulate", walk_depth=10, seed=0)
    fenced = check_spec(build_spec("_test_widecounter", width=1, ceiling=2), walks=5, **options)
    assert fenced.ok and fenced.max_depth == 2 and fenced.distinct_states == 3
    assert fenced.generated_states == 5 * 4  # the initial state and three successors
    assert [values for values, _fp in seen["judged"]] == [((0,),), ((1,),), ((2,),), ((3,),)]

    bounded = check_spec(
        build_spec("_test_widecounter", width=1, ceiling=2, invariant_bound=3), walks=5, **options
    )
    violation = bounded.invariant_violation
    assert violation.property_name == "Bounded" and bounded.walks == 1
    assert [state["xs"] for state in violation.trace] == [(0,), (1,), (2,), (3,)]
    assert bounded.generated_states == 4
