"""Process-based batch trace checking: parity with the inline fold."""

import pytest

from repro.pipeline import check_traces, generate_workload
from repro.tla.registry import build_spec


def _workload(spec, n=60):
    return list(
        generate_workload(spec, n_traces=n, seed=11, fault_rate=0.25)
    )


def test_process_executor_matches_thread_executor():
    spec = build_spec("raftmongo", variant="original")
    workload = _workload(spec)
    thread = check_traces(spec, workload, workers=1, executor="thread")
    process = check_traces(spec, workload, workers=2, executor="process")

    assert process.executor == "process" and thread.executor == "thread"
    assert (process.total, process.passed, process.failed) == (
        thread.total,
        thread.passed,
        thread.failed,
    )
    assert [o.index for o in process.failures] == [o.index for o in thread.failures]
    assert process.ok and thread.ok
    assert (
        process.coverage.visited_fingerprints == thread.coverage.visited_fingerprints
    )
    assert process.coverage.action_counts == thread.coverage.action_counts


def test_process_executor_merges_cache_stats():
    spec = build_spec("locking")
    report = check_traces(spec, _workload(spec, n=40), workers=2, executor="process")
    assert report.cache_hits + report.cache_misses > 0
    assert "process worker(s)" in report.summary()


def test_process_executor_recovers_from_env_chaos(monkeypatch):
    """REPRO_CHAOS_* reaches the runner's pool; verdicts stay identical."""
    from repro.resilience import SupervisionConfig

    spec = build_spec("locking")
    workload = _workload(spec, n=40)
    baseline = check_traces(spec, workload, workers=2, executor="process")
    monkeypatch.setenv("REPRO_CHAOS_RATE", "0.3")
    monkeypatch.setenv("REPRO_CHAOS_SEED", "5")
    monkeypatch.setenv("REPRO_CHAOS_KINDS", "crash,corrupt")
    chaotic = check_traces(
        spec,
        workload,
        workers=2,
        executor="process",
        supervision=SupervisionConfig(),
    )
    assert (chaotic.total, chaotic.passed, chaotic.failed) == (
        baseline.total,
        baseline.passed,
        baseline.failed,
    )
    assert [o.index for o in chaotic.failures] == [o.index for o in baseline.failures]
    assert chaotic.supervision is not None and chaotic.supervision.tasks > 0


def test_process_executor_falls_back_inline_when_every_worker_crashes(monkeypatch):
    """The first task to exhaust its attempts ends the pool's tries: every
    chunk is then checked inline, and the verdicts are the fault-free ones."""
    spec = build_spec("locking")
    workload = _workload(spec, n=80)
    baseline = check_traces(spec, workload, workers=2, executor="process")
    monkeypatch.setenv("REPRO_CHAOS_RATE", "1")
    monkeypatch.setenv("REPRO_CHAOS_KINDS", "crash")
    chaotic = check_traces(spec, workload, workers=2, executor="process")
    assert (chaotic.total, chaotic.passed, chaotic.failed) == (
        baseline.total,
        baseline.passed,
        baseline.failed,
    )
    assert [o.index for o in chaotic.failures] == [o.index for o in baseline.failures]
    assert chaotic.coverage.to_json() == baseline.coverage.to_json()
    assert chaotic.supervision.degraded
    assert 3 <= chaotic.supervision.crashes <= 6
    assert chaotic.supervision.failed_tasks == chaotic.supervision.tasks == 5
    assert "pool degraded to serial" in chaotic.summary()


def test_process_executor_requires_registry_ref(locking_spec):
    assert locking_spec.registry_ref is None
    with pytest.raises(ValueError, match="registry"):
        check_traces(locking_spec, [], executor="process")


def test_unknown_executor_rejected(locking_spec):
    with pytest.raises(ValueError, match="unknown executor"):
        check_traces(locking_spec, [], executor="fiber")


def test_cli_simulate_supports_process_executor(capsys):
    from repro.pipeline.cli import main

    code = main(
        [
            "simulate",
            "locking",
            "--traces",
            "40",
            "--fault-rate",
            "0.2",
            "--seed",
            "3",
            "--workers",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 process worker(s)" in out
    assert "PASS" in out


def test_shared_and_per_process_caches_agree_on_a_faulted_batch():
    """One interner for the inline fold, one per worker process."""
    spec = build_spec("raftmongo")
    workload = list(
        generate_workload(spec, n_traces=300, seed=21, fault_rate=0.2, max_steps=16)
    )

    def digest(report):
        return (
            report.total, report.passed, report.failed,
            [(o.index, o.fault, o.detail) for o in report.failures],
            [o.index for o in report.surprises], report.errors,
            report.coverage.to_json(),
        )

    alone = check_traces(spec, workload, workers=1, executor="thread")
    processes = check_traces(spec, workload, workers=2, executor="process")
    assert alone.failed and alone.ok
    assert digest(alone) == digest(processes)
    # Summed over the workers, the counters still add up to one lookup per
    # validated state, and name the kernel that did the work.
    for report in (alone, processes):
        assert report.cache_hits + report.cache_misses == (
            alone.cache_hits + alone.cache_misses
        )
        assert report.cache_stats["kernel"] == "generic"
        assert "[generic]" in report.summary()
