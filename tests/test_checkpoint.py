"""Checkpoint/resume (ISSUE 6): the golden-stats contract.

An interrupted-then-resumed BFS must report statistics bit-identical to an
uninterrupted run.  Covered here: the atomic-write helpers, the checkpoint
file format and its identity validation, truncation-based and genuine
``KeyboardInterrupt``-based interruptions, and the CLI's
exit-130/resume-hint contract.
"""

import os
import signal as signal_module

import pytest

from repro.engine import check_spec
from repro.obs import MemorySink, start_run
from repro.pipeline.cli import main
from repro.resilience import (
    CheckpointError,
    WatchCheckpoint,
    atomic_write_text,
    read_checkpoint,
    write_checkpoint,
    write_watch_checkpoint,
)
from repro.tla import Action, Invariant, Specification
from repro.tla.errors import CheckerError, CheckInterrupted
from repro.tla.registry import build_spec, register_spec


def _stats(result):
    return (
        result.distinct_states,
        result.generated_states,
        result.max_depth,
        result.action_counts,
        result.peak_frontier,
    )


# A registered counter whose invariant raises KeyboardInterrupt exactly once
# (when armed), simulating a ctrl-C / kill mid-flight at a deterministic
# point of the exploration.  Arming "sigterm" instead delivers a real
# SIGTERM to the process at the same point, exercising the CLI's
# signal-to-checkpoint conversion without subprocess timing races.
_INTERRUPT = {"armed": False, "sigterm": False}


def _interrupter_factory(limit=60, interrupt_at=45):
    def init():
        yield {"x": 0}

    def increment(state):
        if state["x"] < limit:
            yield {"x": state["x"] + 1}

    def watch(state):
        if _INTERRUPT["armed"] and state["x"] == interrupt_at:
            _INTERRUPT["armed"] = False
            raise KeyboardInterrupt
        if _INTERRUPT["sigterm"] and state["x"] == interrupt_at:
            _INTERRUPT["sigterm"] = False
            signal_module.raise_signal(signal_module.SIGTERM)
        return True

    return Specification(
        "InterruptCounter",
        variables=("x",),
        init=init,
        actions=[Action("Increment", increment)],
        invariants=[Invariant("Watch", watch)],
    )


register_spec("_test_interrupter", _interrupter_factory, replace=True)


# -- atomic writes and the file format ----------------------------------------


def test_atomic_write_replaces_without_leaving_temp_files(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(str(target), "first")
    atomic_write_text(str(target), "second")
    assert target.read_text() == "second"
    assert os.listdir(tmp_path) == ["out.json"]


def test_checkpoint_file_round_trips_and_validates(tmp_path):
    path = tmp_path / "run.ckpt"
    spec = build_spec("locking")
    result = check_spec(
        spec,
        check_properties=False,
        engine="fingerprint",
        max_depth=4,
        checkpoint_path=str(path),
        checkpoint_every=2,
    )
    assert result.truncated and result.checkpoint_path == str(path)
    checkpoint = read_checkpoint(str(path))
    assert checkpoint.version == 3
    assert checkpoint.spec_name == spec.name
    assert checkpoint.store_name == "fingerprint"
    assert checkpoint.depth % 2 == 0 and checkpoint.depth > 0
    assert checkpoint.frontier
    checkpoint.validate_for(spec.name, spec.registry_ref, "fingerprint")
    with pytest.raises(CheckpointError, match="refusing to resume"):
        checkpoint.validate_for("Other", None, "fingerprint")
    with pytest.raises(CheckpointError, match="store"):
        checkpoint.validate_for(spec.name, spec.registry_ref, "disk")
    # Re-writing through the public helper preserves everything.
    write_checkpoint(str(path), checkpoint)
    assert read_checkpoint(str(path)).depth == checkpoint.depth


def test_read_checkpoint_rejects_garbage(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint(str(tmp_path / "missing.ckpt"))
    junk = tmp_path / "junk.ckpt"
    junk.write_text("{} not a checkpoint")
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        read_checkpoint(str(junk))
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(b"REPROCKPT1\n\x80\x04")  # magic + cut-off pickle
    with pytest.raises(CheckpointError, match="corrupt"):
        read_checkpoint(str(truncated))


# -- the golden-stats contract ------------------------------------------------


# One row: the only engine with a checkpoint seam (the id names it).
@pytest.mark.parametrize("resume_engine", ["fingerprint"])
def test_interrupted_run_resumes_to_golden_stats(tmp_path, resume_engine):
    """Truncate mid-exploration, resume -> identical."""
    golden = check_spec(
        build_spec("locking"), check_properties=False, engine="fingerprint"
    )
    path = tmp_path / "locking.ckpt"
    truncated = check_spec(
        build_spec("locking"),
        check_properties=False,
        engine="fingerprint",
        max_depth=4,
        checkpoint_path=str(path),
        checkpoint_every=2,
    )
    assert truncated.truncated
    resumed = check_spec(
        build_spec("locking"),
        check_properties=False,
        engine=resume_engine,
        resume_path=str(path),
    )
    assert resumed.resumed_from == str(path)
    assert resumed.ok
    assert _stats(resumed) == _stats(golden)


def test_keyboard_interrupt_partial_result_then_resume(tmp_path):
    """A genuine mid-flight interrupt: partial stats out, resume to golden."""
    path = tmp_path / "counter.ckpt"
    _INTERRUPT["armed"] = True
    try:
        with pytest.raises(CheckInterrupted) as excinfo:
            check_spec(
                build_spec("_test_interrupter"),
                check_properties=False,
                engine="fingerprint",
                checkpoint_path=str(path),
                checkpoint_every=10,
            )
    finally:
        _INTERRUPT["armed"] = False
    partial = excinfo.value.result
    assert partial.interrupted and partial.truncated
    assert 0 < partial.distinct_states < 61
    checkpoint = read_checkpoint(str(path))
    assert checkpoint.depth == 40  # last checkpoint level before x == 45
    resumed = check_spec(
        build_spec("_test_interrupter"),
        check_properties=False,
        engine="fingerprint",
        resume_path=str(path),
    )
    golden = check_spec(
        build_spec("_test_interrupter"), check_properties=False, engine="fingerprint"
    )
    assert _stats(resumed) == _stats(golden)
    assert resumed.distinct_states == 61 and resumed.max_depth == 60


@pytest.mark.parametrize("engine", ["fingerprint"])
def test_interrupted_level_stays_in_the_time_budget(engine):
    """The level an interrupt cuts short is timed like every other level."""
    run = start_run(command="test", sink=MemorySink(), run_id="interrupted")
    _INTERRUPT["armed"] = True
    try:
        with pytest.raises(CheckInterrupted):
            check_spec(
                build_spec("_test_interrupter"),
                check_properties=False,
                engine=engine,
            )
        snapshot = run.registry.snapshot()
    finally:
        _INTERRUPT["armed"] = False
        run.close()
    # x == 45 is generated while the level at depth 44 is being expanded:
    # 45 levels were started, 44 of them completed.
    assert snapshot["histograms"]["span.engine.level.seconds"]["count"] == 45
    assert snapshot["counters"]["engine.levels"] == 44


def test_checkpoint_rejects_unsupported_engine_and_store(tmp_path):
    path = str(tmp_path / "x.ckpt")
    with pytest.raises((CheckerError, ValueError), match="checkpoint"):
        check_spec(
            build_spec("locking"),
            check_properties=False,
            engine="simulate",
            walks=5,
            walk_depth=5,
            checkpoint_path=path,
        )
    with pytest.raises((CheckerError, ValueError), match="(checkpoint|snapshot|states)"):
        check_spec(
            build_spec("locking"),
            check_properties=False,
            engine="states",
            checkpoint_path=path,
        )


# -- CLI contract -------------------------------------------------------------


def test_cli_interrupt_exits_130_with_resume_hint(tmp_path, capsys):
    path = tmp_path / "cli.ckpt"
    _INTERRUPT["armed"] = True
    try:
        code = main(
            [
                "check",
                "_test_interrupter",
                "--checkpoint",
                str(path),
                "--checkpoint-every",
                "10",
            ]
        )
    finally:
        _INTERRUPT["armed"] = False
    assert code == 130
    captured = capsys.readouterr()
    assert "interrupted; partial statistics follow" in captured.err
    assert f"--resume {path}" in captured.out

    assert main(["check", "_test_interrupter", "--resume", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"resumed from checkpoint {path}" in out
    assert "61 distinct states" in out


def test_cli_sigterm_exits_143_with_resumable_checkpoint(tmp_path, capsys):
    """A service manager's SIGTERM rides the exact same checkpoint-and-exit
    path as ctrl-C -- partial stats, resume hint -- but exits 128 + 15."""
    path = tmp_path / "term.ckpt"
    _INTERRUPT["sigterm"] = True
    try:
        code = main(
            [
                "check",
                "_test_interrupter",
                "--checkpoint",
                str(path),
                "--checkpoint-every",
                "10",
            ]
        )
    finally:
        _INTERRUPT["sigterm"] = False
    assert code == 143
    captured = capsys.readouterr()
    assert "interrupted; partial statistics follow" in captured.err
    assert f"--resume {path}" in captured.out

    assert main(["check", "_test_interrupter", "--resume", str(path)]) == 0
    assert "61 distinct states" in capsys.readouterr().out


def test_cli_resume_of_garbage_file_exits_2(tmp_path, capsys):
    junk = tmp_path / "junk.ckpt"
    junk.write_text("nope")
    assert main(["check", "locking", "--resume", str(junk)]) == 2
    assert "not a repro checkpoint" in capsys.readouterr().err


def test_cli_resume_of_a_version_1_checkpoint_exits_2(tmp_path, capsys):
    """Version 1 carried a separate parent map; it is refused, not misread."""
    path = tmp_path / "v1.ckpt"
    check_spec(
        build_spec("locking"),
        check_properties=False,
        max_depth=2,
        checkpoint_path=str(path),
    )
    old = read_checkpoint(str(path))
    old.version = 1
    old.parents = {}
    write_checkpoint(str(path), old)
    assert main(["check", "locking", "--resume", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint version 1 is not supported")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_resume_of_a_version_2_checkpoint_exits_2(tmp_path, capsys):
    """Version 2 holds fingerprints of the older digest: its store would
    never meet a successor's fingerprint again, so it is refused."""
    path = tmp_path / "v2.ckpt"
    check_spec(
        build_spec("locking"),
        check_properties=False,
        max_depth=2,
        checkpoint_path=str(path),
    )
    old = read_checkpoint(str(path))
    old.version = 2
    write_checkpoint(str(path), old)
    assert main(["check", "locking", "--resume", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint version 2 is not supported")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_resume_of_a_version_1_watch_checkpoint_exits_2(tmp_path, capsys):
    """A watch checkpoint of version 1 holds older visited fingerprints."""
    log = tmp_path / "t.jsonl"
    log.write_text("")
    path = tmp_path / "w.ckpt"
    spec = build_spec("locking")
    write_watch_checkpoint(
        str(path),
        WatchCheckpoint(spec.name, spec.registry_ref, "jsonl", version=1),
    )
    argv = ["watch", "locking", str(log), "--once", "--resume", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: watch checkpoint version 1 is not supported")
    assert err.count("\n") == 1 and "Traceback" not in err
