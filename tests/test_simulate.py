"""The random-walk simulation engine: determinism, real violations, budgets.

Acceptance (ISSUE 5): ``engine="simulate"`` on the ``locking`` spec with a
seeded RNG must find the known ``MutualExclusion``-violating mutation
deterministically, and every violation it reports must be a *real* reachable
violation (the trace starts in an initial state and every step is an enabled
action).
"""

import pytest

from repro.engine import ModelChecker, check_spec
from repro.tla.errors import CheckerError
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


def test_parallel_walks_report_the_same_counterexample():
    spec = build_spec("locking", mutation="xx_compatible")
    serial = check_spec(
        spec, check_properties=False, engine="simulate", walks=50, walk_depth=20, seed=0
    )
    pooled = check_spec(
        spec,
        check_properties=False,
        engine="simulate",
        walks=50,
        walk_depth=20,
        seed=0,
        workers=2,
    )
    assert pooled.workers == 2
    assert serial.invariant_violation is not None
    assert pooled.invariant_violation is not None
    assert pooled.invariant_violation.property_name == "MutualExclusion"
    # the minimal-index violating walk wins regardless of sharding
    assert [s.values for s in pooled.invariant_violation.trace] == [
        s.values for s in serial.invariant_violation.trace
    ]


def test_pooled_walks_under_chaos_keep_the_counterexample():
    # The spec's factory lives in a provider module outside repro.specs, so
    # the workers rebuild it through the provider list the coordinator ships.
    import widecounter_spec  # noqa: F401 - registers _test_widecounter
    from repro.resilience import FaultPlan, SupervisionConfig

    walks = dict(engine="simulate", walks=12, walk_depth=20, seed=3)
    spec = build_spec("_test_widecounter", invariant_bound=8)
    serial = check_spec(spec, check_properties=False, **walks)
    chaotic = check_spec(
        build_spec("_test_widecounter", invariant_bound=8),
        check_properties=False,
        workers=2,
        chaos=FaultPlan(seed=7, rate=0.3, kinds=("crash", "corrupt")),
        supervision=SupervisionConfig.from_env(backoff_base=0.01),
        **walks,
    )
    assert chaotic.supervision.recoveries > 0
    assert serial.invariant_violation.property_name == "Bounded"
    assert [s.values for s in chaotic.invariant_violation.trace] == [
        s.values for s in serial.invariant_violation.trace
    ]


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


def test_simulate_pooled_reports_actual_shard_count():
    # 9 walks across 4 requested workers shard into ceil(9/4)=3 slices of 3;
    # the result must report the 3 processes that ran, not the 4 requested.
    spec = build_spec("locking")
    result = check_spec(
        spec, check_properties=False, engine="simulate", walks=9, walk_depth=5, workers=4
    )
    assert result.ok
    assert result.workers == 3


def test_simulate_honors_explicit_workers_even_for_tiny_budgets():
    # An explicit --workers request is never silently downgraded: 3 walks
    # across 4 requested workers still pool, sharding into 3 single-walk
    # slices -- and the result reports the 3 processes that actually ran.
    spec = build_spec("locking")
    result = check_spec(
        spec, check_properties=False, engine="simulate", walks=3, walk_depth=5, workers=4
    )
    assert result.ok
    assert result.workers == 3


def test_simulate_rejects_bfs_bounds():
    # max_states/max_depth are BFS budgets; simulate is bounded by
    # walks/walk_depth and must refuse rather than silently ignore them.
    spec = build_spec("locking")
    with pytest.raises(ValueError, match="walks"):
        ModelChecker(spec, check_properties=False, engine="simulate", max_states=5)
    with pytest.raises(ValueError, match="walks"):
        ModelChecker(spec, check_properties=False, engine="simulate", max_depth=5)


def test_simulate_workers_require_registry(locking_spec):
    assert locking_spec.registry_ref is None
    with pytest.raises(CheckerError, match="registry"):
        ModelChecker(
            locking_spec, check_properties=False, engine="simulate", workers=2
        )


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
