"""The fault-tolerant checking runtime (ISSUE 6): supervision and chaos.

Pool-level coverage of :class:`repro.resilience.SupervisedPool` -- crash,
hang, corrupt-result and application-error recovery, bounded retry and
degradation to serial -- plus the determinism contract of the seeded
:class:`repro.resilience.FaultPlan` chaos layer, and the engine-level
fallback paths that keep checking results bit-identical under injected
faults.  Timeouts are deliberately small: the suite must stay fast on a
single-core CI box where every hang costs a full task timeout.
"""

import re
import time

import pytest

from repro.engine import check_spec
from repro.resilience import (
    FAULT_KINDS,
    FaultPlan,
    SupervisedPool,
    SupervisionConfig,
    TaskError,
)
from repro.tla.registry import build_spec

#: Snappy supervision for tests: a hang costs two seconds, not a minute.
FAST = SupervisionConfig(task_timeout=2.0)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


# -- FaultPlan: the determinism contract --------------------------------------


def test_fault_plan_is_a_pure_function_of_seed_and_key():
    a = FaultPlan(seed=42, rate=0.5)
    b = FaultPlan(seed=42, rate=0.5)
    assert a.table(4, 32) == b.table(4, 32)
    assert a.fault_for(1, 7) == a.fault_for(1, 7)
    # A different seed yields a different schedule over a 4x32 grid.
    assert a.table(4, 32) != FaultPlan(seed=43, rate=0.5).table(4, 32)


def test_fault_plan_rate_and_kinds_bound_the_schedule():
    assert FaultPlan(seed=1, rate=0.0).table(4, 32) == {}
    everything = FaultPlan(seed=1, rate=1.0).table(2, 16)
    assert len(everything) == 32  # every key faults at rate 1.0
    crashes_only = FaultPlan(seed=1, rate=1.0, kinds=("crash",)).table(2, 16)
    assert set(crashes_only.values()) == {"crash"}
    with pytest.raises(ValueError):
        FaultPlan(rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(rate=0.5, kinds=("crash", "meteor"))
    with pytest.raises(ValueError):
        FaultPlan(rate=0.5, kinds=())


def test_fault_plan_round_trips_through_params_and_env():
    plan = FaultPlan(seed=9, rate=0.4, kinds=("crash", "slow"))
    assert FaultPlan(**plan.to_params()) == plan
    from_env = FaultPlan.from_env(
        {
            "REPRO_CHAOS_SEED": "9",
            "REPRO_CHAOS_RATE": "0.4",
            "REPRO_CHAOS_KINDS": "crash,slow",
        }
    )
    assert from_env == plan
    assert FaultPlan.from_env({}) is None
    assert FaultPlan.from_env({"REPRO_CHAOS_RATE": "0"}) is None


def test_supervision_config_from_env_reads_task_timeout():
    cfg = SupervisionConfig.from_env({"REPRO_TASK_TIMEOUT": "7.5"})
    assert cfg.task_timeout == 7.5
    assert SupervisionConfig.from_env({}).task_timeout == 60.0
    with pytest.raises(ValueError):
        SupervisionConfig(task_timeout=0)


# -- SupervisedPool: the recovery paths ---------------------------------------


def test_pool_runs_tasks_and_preserves_submission_order():
    with SupervisedPool(2, config=FAST, name="test-plain") as pool:
        indices = [pool.submit(_square, (n,)) for n in range(12)]
        assert [pool.result(i) for i in indices] == [n * n for n in range(12)]
    assert pool.stats.completed == 12
    assert pool.stats.retries == 0
    assert not pool.stats.degraded


@pytest.mark.parametrize("kind", ["crash", "corrupt"])
def test_pool_recovers_from_injected_faults(kind):
    # Single slot => fully deterministic schedule: with seed 0 at rate 0.35
    # exactly four attempts fault across 8 tasks and every retry lands on a
    # fresh worker id whose chaos roll passes (verified against the plan's
    # fault table; see FaultPlan.table).
    chaos = FaultPlan(seed=0, rate=0.35, kinds=(kind,))
    with SupervisedPool(1, config=FAST, chaos=chaos, name=f"test-{kind}") as pool:
        indices = [pool.submit(_square, (n,)) for n in range(8)]
        assert [pool.result(i) for i in indices] == [n * n for n in range(8)]
    counter = pool.stats.crashes if kind == "crash" else pool.stats.corruptions
    assert counter == 4
    assert pool.stats.retries == 4
    assert pool.stats.completed == 8
    assert pool.stats.workers_spawned == 5  # initial worker + one per fault
    assert not pool.stats.degraded


def test_pool_chaos_runs_are_reproducible():
    def run():
        chaos = FaultPlan(seed=0, rate=0.35, kinds=("crash",))
        with SupervisedPool(1, config=FAST, chaos=chaos, name="test-repro") as pool:
            indices = [pool.submit(_square, (n,)) for n in range(8)]
            values = [pool.result(i) for i in indices]
        return values, pool.stats.to_dict()

    assert run() == run()


def test_pool_detects_hangs_and_exhausts_retries():
    chaos = FaultPlan(seed=3, rate=1.0, kinds=("hang",))
    config = SupervisionConfig(task_timeout=0.5)
    with SupervisedPool(1, config=config, chaos=chaos, name="test-hang") as pool:
        index = pool.submit(_square, (3,))
        with pytest.raises(TaskError) as excinfo:
            pool.result(index)
    assert excinfo.value.task_index == index
    assert "hung" in str(excinfo.value)
    assert pool.stats.hangs == 3
    assert pool.stats.failed_tasks == 1


def test_pool_retries_application_errors_then_raises():
    with SupervisedPool(1, config=FAST, name="test-error") as pool:
        ok = pool.submit(_square, (6,))
        index = pool.submit(_boom, (5,))
        assert pool.result(ok) == 36  # an earlier task is unaffected
        with pytest.raises(TaskError, match="boom 5"):
            pool.result(index)
    assert pool.stats.task_errors == 3
    assert pool.stats.failed_tasks == 1
    assert pool.stats.completed == 1


def test_pool_degrades_after_consecutive_failures():
    # One task exhausting its three attempts is enough: every unfinished
    # task then fails fast to its caller's inline path, instead of each
    # spending its own three crashes first.
    chaos = FaultPlan(seed=1, rate=1.0, kinds=("crash",))
    with SupervisedPool(1, config=FAST, chaos=chaos, name="test-degrade") as pool:
        indices = [pool.submit(_square, (n,)) for n in range(5)]
        for index in indices:
            with pytest.raises(TaskError):
                pool.result(index)
        assert pool.stats.degraded
        # Post-degradation submissions fail fast instead of spawning workers.
        late = pool.submit(_square, (99,))
        with pytest.raises(TaskError, match="degraded"):
            pool.result(late)
    assert pool.stats.crashes == 3
    assert pool.stats.workers_spawned == 3
    assert pool.stats.failed_tasks == 6


# -- Engine integration: injected faults never change the answer --------------


def test_degraded_pool_walks_fall_back_inline():
    """Retry exhaustion + degradation must still yield bit-identical stats."""
    walks = dict(engine="simulate", walks=24, walk_depth=10, seed=5)
    serial = check_spec(build_spec("locking"), check_properties=False, **walks)
    chaos = FaultPlan(seed=1, rate=1.0, kinds=("crash",))
    supervision = SupervisionConfig(task_timeout=5.0)
    result = check_spec(
        build_spec("locking"),
        check_properties=False,
        workers=2,
        chaos=chaos,
        supervision=supervision,
        **walks,
    )
    assert result.ok
    assert (result.distinct_states, result.generated_states, result.max_depth) == (
        serial.distinct_states,
        serial.generated_states,
        serial.max_depth,
    )
    assert result.action_counts == serial.action_counts
    assert result.supervision is not None
    assert result.supervision.degraded
    assert result.supervision.crashes > 0


def test_simulate_engine_falls_back_inline_when_retries_exhaust():
    spec = build_spec("locking")
    clean = check_spec(
        spec,
        check_properties=False,
        engine="simulate",
        walks=24,
        walk_depth=10,
        seed=5,
        workers=2,
    )
    chaotic = check_spec(
        build_spec("locking"),
        check_properties=False,
        engine="simulate",
        walks=24,
        walk_depth=10,
        seed=5,
        workers=2,
        chaos=FaultPlan(seed=1, rate=1.0, kinds=("crash",)),
        supervision=SupervisionConfig(task_timeout=5.0),
    )
    assert chaotic.supervision is not None
    assert chaotic.supervision.failed_tasks > 0
    assert (chaotic.distinct_states, chaotic.generated_states) == (
        clean.distinct_states,
        clean.generated_states,
    )


def test_chaos_requires_a_pooled_engine():
    chaos = FaultPlan(seed=0, rate=0.5)
    with pytest.raises(ValueError, match="worker pools"):
        check_spec(
            build_spec("locking"),
            check_properties=False,
            engine="fingerprint",
            chaos=chaos,
        )
    with pytest.raises(ValueError, match="worker pools"):
        check_spec(
            build_spec("locking"),
            check_properties=False,
            engine="simulate",
            walks=5,
            walk_depth=5,
            chaos=chaos,
        )


def test_fault_kinds_tuple_is_the_cli_contract():
    assert FAULT_KINDS == ("crash", "hang", "slow", "corrupt")


def _sleep_long(x):
    time.sleep(30)
    return x


def test_pool_shutdown_terminates_stragglers_within_grace():
    # A worker deep in a task never reads the polite shutdown sentinel (it
    # only checks its pipe between tasks); shutdown must SIGTERM it within
    # the grace window instead of waiting out the 30s sleep, and the pool's
    # statistics must survive for the caller to merge afterwards.
    pool = SupervisedPool(1, config=FAST, name="test-straggler")
    try:
        pool.submit(_sleep_long, (1,))
        deadline = time.monotonic() + 10.0
        while pool._slots[0].busy is None:
            assert time.monotonic() < deadline, "task was never dispatched"
            pool._pump(block=False)
            time.sleep(0.01)
        started = time.monotonic()
        pool.shutdown()
        elapsed = time.monotonic() - started
    finally:
        pool.shutdown()
    assert elapsed < 10.0  # grace is 0.5s; nowhere near the 30s sleep
    assert all(slot.process is None for slot in pool._slots)
    stats = pool.stats
    assert stats.tasks == 1
    assert stats.workers_spawned == 1
    assert stats.completed == 0


def test_terminated_workers_die_silently_under_the_cli(monkeypatch, capfd):
    # `repro check` turns SIGTERM into KeyboardInterrupt for its own
    # checkpoint-and-report path, and fork-started workers inherit that
    # handler: before they reset it, a hung worker the supervisor terminated
    # reported the interrupt as a task error, outlived the grace period, and
    # printed a KeyboardInterrupt traceback if a later SIGTERM found it idle.
    from repro.pipeline.cli import main

    survivors = []
    recycle = SupervisedPool._recycle

    def recycle_and_look(pool, slot):
        process = slot.process
        recycle(pool, slot)
        if process is not None and process.is_alive():
            survivors.append(process.name)

    monkeypatch.setattr(SupervisedPool, "_recycle", recycle_and_look)
    counts = re.compile(r"(\d+) distinct states, (\d+) states generated, depth (\d+)")
    walks = ["check", "locking", "--engine", "simulate", "--walks", "24", "--depth", "10"]
    assert main(walks) == 0
    clean = counts.search(capfd.readouterr().out).groups()
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.3")
    code = main(walks + ["--workers", "2", "--chaos-rate", "1", "--chaos-kinds", "hang"])
    captured = capfd.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert survivors == []  # SIGTERM killed them; none caught it and lived on
    assert re.search(r"[1-9]\d* hangs", captured.out)  # injected and detected
    assert counts.search(captured.out).groups() == clean
