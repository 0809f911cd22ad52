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
        supervision=SupervisionConfig.from_env(),
        **walks,
    )
    assert chaotic.supervision.retries > 0
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
    # 9 walks across 4 requested workers cut into 4 slices (3, 2, 2, 2), so
    # all 4 processes run; fewer walks than workers is the next test.
    spec = build_spec("locking")
    result = check_spec(
        spec, check_properties=False, engine="simulate", walks=9, walk_depth=5, workers=4
    )
    assert result.ok
    assert result.workers == 4


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


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
@pytest.mark.parametrize("walks", [1, 3, 9, 255, 256, 257, 1000, 40000, 100003])
def test_walk_slices_cover_every_walk_in_short_tasks(walks, workers):
    from repro.engine.simulate import _WALKS_PER_TASK, _task_slices

    slices = _task_slices(walks, workers)
    assert [i for piece in slices for i in piece] == list(range(walks))
    assert max(map(len, slices)) <= _WALKS_PER_TASK
    assert max(map(len, slices)) - min(map(len, slices)) <= 1
    assert len(slices) >= min(walks, workers)


def test_no_pool_task_carries_more_than_the_slice_size(monkeypatch):
    import repro.engine.simulate as simulate
    from repro.resilience import SupervisedPool

    seen = []  # the walk slice of every task the engine submits
    real_map = SupervisedPool.map

    def spying_map(pool, fn, args_iterable, inline):
        def recorded():
            for args in args_iterable:
                seen.append(args[0])
                yield args

        return real_map(pool, fn, recorded(), inline)

    monkeypatch.setattr(SupervisedPool, "map", spying_map)
    monkeypatch.setattr(simulate, "_WALKS_PER_TASK", 16)
    walks = dict(engine="simulate", walks=100, walk_depth=10, seed=4)
    serial = check_spec(build_spec("locking"), check_properties=False, **walks)
    pooled = check_spec(build_spec("locking"), check_properties=False, workers=2, **walks)
    assert len(seen) == 7 and max(map(len, seen)) <= 16
    assert [i for piece in seen for i in piece] == list(range(100))
    assert pooled.supervision.tasks == 7 and pooled.workers == 2
    assert (pooled.distinct_states, pooled.generated_states, pooled.max_depth) == (
        serial.distinct_states,
        serial.generated_states,
        serial.max_depth,
    )


def test_a_healthy_pooled_run_longer_than_the_task_timeout_reports_no_hang(monkeypatch):
    # Scaled-down: each worker's share of the walks takes about twice the
    # task timeout, so one task per worker would be declared hung; one
    # 16-walk task takes about a ninetieth of it, so no task is.
    import repro.engine.simulate as simulate
    from repro.resilience import SupervisionConfig

    monkeypatch.setattr(simulate, "_WALKS_PER_TASK", 16)
    walks = dict(engine="simulate", walks=6000, walk_depth=20, seed=42)
    serial = check_spec(build_spec("locking"), check_properties=False, **walks)
    timeout = serial.duration_seconds / 4
    pooled = check_spec(
        build_spec("locking"),
        check_properties=False,
        workers=2,
        supervision=SupervisionConfig(task_timeout=timeout),
        **walks,
    )
    assert pooled.supervision.hangs == 0 and pooled.supervision.summary() is None
    assert (pooled.distinct_states, pooled.generated_states, pooled.max_depth) == (
        serial.distinct_states,
        serial.generated_states,
        serial.max_depth,
    )
    assert pooled.action_counts == serial.action_counts


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
