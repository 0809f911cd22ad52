"""Cross-engine parity suite for the parallel BFS engine.

The contract (ISSUE 3 acceptance): ``engine="parallel"`` must produce
statistics bit-identical to ``engine="fingerprint"`` (which the seed pinned
against ``engine="states"``) on every registered spec, and counterexample
replay must survive the frontier being sharded across processes.
"""

import pytest

import widecounter_spec  # noqa: F401 - registers _test_widecounter + its provider
from repro.resilience import FaultPlan, SupervisionConfig
from repro.engine import ModelChecker, check_spec
from repro.tla.errors import CheckerError
from repro.tla.registry import build_spec

#: Registered (name, params) configurations the parity suite sweeps.
REGISTERED_CONFIGS = [
    ("locking", {}),
    ("raftmongo", {"variant": "original"}),
    ("raftmongo", {"n_nodes": 2, "variant": "mbtc"}),
]


def _stats(result):
    return (
        result.distinct_states,
        result.generated_states,
        result.max_depth,
        result.action_counts,
        result.peak_frontier,
    )


@pytest.mark.parametrize("name,params", REGISTERED_CONFIGS)
def test_parallel_stats_match_fingerprint_and_states(name, params):
    spec = build_spec(name, **params)
    serial = check_spec(spec, check_properties=False, engine="fingerprint")
    retained = check_spec(spec, check_properties=False, engine="states")
    parallel = check_spec(spec, check_properties=False, engine="parallel", workers=2)
    assert parallel.engine == "parallel"
    assert parallel.workers == 2
    assert _stats(parallel) == _stats(serial)
    # peak_frontier bookkeeping differs between the states engine (queue) and
    # the frontier engines, so compare only the TLC-visible statistics.
    assert _stats(parallel)[:4] == (
        retained.distinct_states,
        retained.generated_states,
        retained.max_depth,
        retained.action_counts,
    )
    assert parallel.ok and serial.ok and retained.ok


@pytest.mark.parametrize("name,params", REGISTERED_CONFIGS)
def test_parallel_chaos_stats_match_fault_free_serial(name, params):
    """ISSUE 6 acceptance: 30% injected worker faults change nothing.

    Crashes, slowdowns and corrupt results (hangs excluded: each one costs a
    full task timeout) are injected deterministically; supervision retries on
    fresh workers and, if a shard exhausts its retries, the engine recomputes
    it inline -- so the statistics must stay bit-identical to a fault-free
    serial run.
    """
    serial = check_spec(build_spec(name, **params), check_properties=False)
    chaotic = check_spec(
        build_spec(name, **params),
        check_properties=False,
        engine="parallel",
        workers=2,
        chaos=FaultPlan(seed=7, rate=0.3, kinds=("crash", "slow", "corrupt")),
        supervision=SupervisionConfig.from_env(backoff_base=0.01),
    )
    assert chaotic.ok and serial.ok
    assert _stats(chaotic) == _stats(serial)


def test_parallel_chaos_counterexample_survives_faults():
    spec = build_spec("_test_widecounter", invariant_bound=8)
    serial = check_spec(spec, check_properties=False, engine="fingerprint")
    chaotic = check_spec(
        build_spec("_test_widecounter", invariant_bound=8),
        check_properties=False,
        engine="parallel",
        workers=2,
        chaos=FaultPlan(seed=3, rate=0.3, kinds=("crash", "corrupt")),
        supervision=SupervisionConfig.from_env(backoff_base=0.01),
    )
    assert chaotic.invariant_violation is not None
    assert [tuple(s.values) for s in chaotic.invariant_violation.trace] == [
        tuple(s.values) for s in serial.invariant_violation.trace
    ]


def test_cli_check_supports_chaos_flags(capsys):
    from repro.pipeline.cli import main

    code = main(
        [
            "check",
            "locking",
            "--engine",
            "parallel",
            "--workers",
            "2",
            "--chaos-rate",
            "0.3",
            "--chaos-seed",
            "7",
        ]
    )
    assert code == 0
    assert "544 distinct states" in capsys.readouterr().out


def test_parallel_counterexample_trace_is_identical():
    spec = build_spec("_test_widecounter", invariant_bound=8)
    serial = check_spec(spec, check_properties=False, engine="fingerprint")
    parallel = check_spec(spec, check_properties=False, engine="parallel", workers=3)
    assert serial.invariant_violation is not None
    assert parallel.invariant_violation is not None
    assert parallel.invariant_violation.property_name == "Bounded"
    assert [tuple(s.values) for s in parallel.invariant_violation.trace] == [
        tuple(s.values) for s in serial.invariant_violation.trace
    ]


def test_parallel_deadlock_trace_is_identical():
    spec = build_spec("_test_widecounter", limit=1)
    serial = check_spec(
        spec, check_deadlock=True, check_properties=False, engine="fingerprint"
    )
    parallel = check_spec(
        spec, check_deadlock=True, check_properties=False, engine="parallel", workers=2
    )
    assert serial.deadlock is not None and parallel.deadlock is not None
    assert [tuple(s.values) for s in parallel.deadlock.trace] == [
        tuple(s.values) for s in serial.deadlock.trace
    ]


def test_parallel_max_depth_truncates_like_fingerprint():
    spec = build_spec("_test_widecounter")
    serial = check_spec(
        spec, check_properties=False, engine="fingerprint", max_depth=3
    )
    parallel = check_spec(
        spec, check_properties=False, engine="parallel", workers=2, max_depth=3
    )
    assert serial.truncated and parallel.truncated
    assert _stats(parallel) == _stats(serial)


def test_parallel_requires_registry_ref(locking_spec):
    # Fixture specs are built directly, without a registry_ref.
    assert locking_spec.registry_ref is None
    with pytest.raises(CheckerError, match="registry"):
        ModelChecker(locking_spec, check_properties=False, engine="parallel")


def test_parallel_refuses_graph_collection():
    spec = build_spec("locking")
    with pytest.raises(ValueError):
        ModelChecker(spec, collect_graph=True, engine="parallel")
    with pytest.raises(ValueError):
        ModelChecker(spec, engine="parallel", workers=0)


def test_cli_check_supports_parallel_engine(capsys):
    from repro.pipeline.cli import main

    assert main(["check", "locking", "--engine", "parallel", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "engine: parallel (2 workers)" in out
    assert "544 distinct states" in out


def test_cli_check_rejects_workers_without_parallel_engine(capsys):
    # Historically this combination only warned and ran serially anyway; it
    # is now a hard error through the unified check-flag validation helper
    # (see tests/test_cli_validation.py for the full matrix).
    from repro.pipeline.cli import main

    assert main(["check", "locking", "--workers", "2"]) == 2
    assert "--workers applies only to --engine parallel" in capsys.readouterr().err
