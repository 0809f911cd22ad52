"""Bad flags end in one line and exit code 2.

Inconsistent combinations go through one validation helper per command and
unknown names or flags through argparse; either way a CI invocation can
never silently check something different from what its flags say.  Rows are
only ever replaced in place or appended: the test ids carry their position.
"""

import pytest

from repro.pipeline.cli import main
from repro.tla.registry import build_spec

#: A run that does start a pool, so only the flag under test is wrong.
_POOLED = ["check", "locking", "--engine", "simulate", "--workers", "2"]


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["check", "locking", "--engine", "fingerprint", "--dot", "g.dot"], "--dot"),
        (["check", "locking", "--dot", "g.dot", "--resume", "x.ckpt"], "--dot"),
        (["check", "locking", "--engine", "simulate", "--dot", "g.dot"], "--dot"),
        (["check", "locking", "--workers", "2"], "--workers"),
        (
            ["check", "locking", "--engine", "fingerprint", "--workers", "2"],
            "--workers",
        ),
        (["check", "locking", "--engine", "states", "--workers", "2"], "--workers"),
        (["check", "locking", "--walks", "5"], "--walks"),
        (["check", "locking", "--engine", "states", "--walks", "5"], "--walks"),
        (["check", "locking", "--depth", "5"], "--depth"),
        (["check", "locking", "--seed", "7"], "--seed"),
        (
            ["check", "locking", "--engine", "simulate", "--max-states", "5"],
            "--max-states",
        ),
        (
            ["check", "locking", "--engine", "simulate", "--max-depth", "5"],
            "--max-depth",
        ),
        (["check", "locking", "--engine", "fingerprint", "--seed", "7"], "--seed"),
        (["check", "locking", "--store-capacity", "100"], "--store-capacity"),
        (
            ["check", "locking", "--store", "fingerprint", "--store-capacity", "9"],
            "--store-capacity",
        ),
        # ISSUE 6: chaos flags need a worker pool to inject faults into.
        (["check", "locking", "--chaos-rate", "0.3"], "--chaos-rate"),
        (
            ["check", "locking", "--engine", "fingerprint", "--chaos-rate", "0.3"],
            "--chaos-rate",
        ),
        (
            ["check", "locking", "--engine", "simulate", "--chaos-rate", "0.3"],
            "--chaos-rate",
        ),
        (_POOLED + ["--chaos-seed", "7"], "--chaos-seed"),
        (_POOLED + ["--chaos-kinds", "crash"], "--chaos-kinds"),
        (
            _POOLED + ["--chaos-rate", "0.3", "--chaos-kinds", "crash,meteor"],
            "--chaos-kinds",
        ),
        (_POOLED + ["--chaos-rate", "1.5"], "--chaos-rate"),
        (_POOLED + ["--chaos-rate", "0"], "--chaos-rate"),
        (["check", "locking", "--task-timeout", "5"], "--task-timeout"),
        (_POOLED + ["--task-timeout", "-1"], "--task-timeout"),
        # Checkpointing needs a level-synchronous BFS engine and no --dot.
        (
            ["check", "locking", "--engine", "simulate", "--checkpoint", "x.ckpt"],
            "--checkpoint",
        ),
        (
            ["check", "locking", "--engine", "states", "--resume", "x.ckpt"],
            "--resume",
        ),
        (
            ["check", "locking", "--dot", "g.dot", "--checkpoint", "x.ckpt"],
            "--checkpoint",
        ),
        (["check", "locking", "--checkpoint-every", "2"], "--checkpoint-every"),
        (
            [
                "check",
                "locking",
                "--checkpoint",
                "x.ckpt",
                "--checkpoint-every",
                "0",
            ],
            "--checkpoint-every",
        ),
        # ISSUE 7: disk-store flag consistency.
        (["check", "locking", "--store-path", "x.db"], "--store-path"),
        (
            ["check", "locking", "--store", "fingerprint", "--store-path", "x.db"],
            "--store-path",
        ),
        (
            ["check", "locking", "--store", "states", "--store-path", "x.db"],
            "--store-path",
        ),
        (
            ["check", "locking", "--engine", "simulate", "--spill-threshold", "10"],
            "--spill-threshold",
        ),
        (
            ["check", "locking", "--engine", "states", "--spill-threshold", "10"],
            "--spill-threshold",
        ),
        (
            [
                "check",
                "locking",
                "--engine",
                "fingerprint",
                "--spill-threshold",
                "0",
            ],
            "--spill-threshold",
        ),
        (
            ["check", "locking", "--store", "disk", "--checkpoint", "x.ckpt"],
            "--store-path",
        ),
        (
            ["check", "locking", "--store", "disk", "--resume", "x.ckpt"],
            "--store-path",
        ),
        # ISSUE 12: nonsensical BFS bounds used to run and report OK.
        (["check", "locking", "--max-states", "-1"], "max_states"),
        (["check", "locking", "--max-states", "0"], "max_states"),
        (["check", "locking", "--max-depth", "-3"], "max_depth"),
        # ISSUE 9: the progress heartbeat needs a positive interval.
        (["check", "locking", "--progress-every", "0"], "--progress-every"),
        (["check", "locking", "--progress-every", "-2"], "--progress-every"),
        # ISSUE 8: the watch service has the same hard-error flag policy.
        (["watch", "locking", "x.log", "--workers", "2"], "--workers"),
        (["watch", "locking", "a.log", "--queue-size", "0"], "--queue-size"),
        (["watch", "locking", "a.log", "--poll-interval", "0"], "--poll-interval"),
        (["watch", "locking", "a.log", "--stall-timeout", "-1"], "--stall-timeout"),
        (["watch", "locking", "a.log", "--partial-retries", "0"], "--partial-retries"),
        (["watch", "locking", "a.log", "--partial-backoff", "0"], "--partial-backoff"),
        (["watch", "locking", "a.log", "--batch-limit", "0"], "--batch-limit"),
        (["watch", "locking", "a.log", "--report-every", "-1"], "--report-every"),
        (
            ["watch", "locking", "a.log", "--checkpoint-every", "5"],
            "--checkpoint-every",
        ),
        (
            [
                "watch",
                "locking",
                "a.log",
                "--checkpoint",
                "w.ckpt",
                "--checkpoint-every",
                "0",
            ],
            "--checkpoint-every",
        ),
        (["watch", "locking", "a.log", "--task-timeout", "5"], "--task-timeout"),
        (
            ["watch", "locking", "a.log", "--workers", "2", "--task-timeout", "-1"],
            "--task-timeout",
        ),
        # ISSUE 20: removed engines, stores and flags are refused, and the
        # line names what there is to choose from.
        (["check", "locking", "--engine", "parallel"], "'fingerprint', 'states', 'simulate'"),
        (["check", "locking", "--store", "lru"], "'fingerprint', 'states', 'disk'"),
        (["generate", "--spec", "ot_array", "--workers", "2"], "--workers"),
        # ISSUE 22: one thread checks traces; the flags that sized the queues
        # and chose the thread pool are gone, not ignored.
        (["simulate", "locking", "--executor", "thread"], "--executor"),
        (["watch", "locking", "a.log", "--queue-size", "5"], "--queue-size"),
        (["simulate", "locking", "--workers", "0"], "error: workers must be >= 1"),
    ],
)
def test_inconsistent_flags_exit_2(capsys, argv, needle):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(("error:", "usage:")) and "Traceback" not in err
    assert err.count("error:") == 1
    assert needle in err


def test_resuming_a_checkpoint_of_a_removed_store_exits_2(tmp_path, capsys):
    from repro.resilience import Checkpoint, write_checkpoint

    path = str(tmp_path / "old.ckpt")
    stale = Checkpoint(
        spec_name=build_spec("locking").name,
        registry_ref=("locking", {}),
        store_name="lru",
        store_capacity=4096,
        depth=2,
        frontier=[],
        store_state={"seen": [], "added": 0, "evictions": 0, "capacity": 4096},
        parents={},
    )
    write_checkpoint(path, stale)
    assert main(["check", "locking", "--resume", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: checkpoint holds a 'lru' store snapshot")
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


def test_consistent_flag_combinations_pass(tmp_path, capsys):
    dot_file = tmp_path / "g.dot"
    assert main(["check", "locking", "--dot", str(dot_file)]) == 0  # auto -> states
    assert dot_file.read_text().startswith("digraph")
    assert (
        main(
            [
                "check",
                "locking",
                "--engine",
                "simulate",
                "--workers",
                "2",
                "--walks",
                "12",
                "--depth",
                "6",
            ]
        )
        == 0
    )
    # Disk store: ephemeral, named-path, tuned write cache and spill threshold
    # are all consistent combinations.
    db = tmp_path / "visited.db"
    assert (
        main(
            [
                "check",
                "locking",
                "--no-properties",
                "--store",
                "disk",
                "--store-path",
                str(db),
                "--store-capacity",
                "1000",
                "--spill-threshold",
                "50",
            ]
        )
        == 0
    )
    assert db.exists()
    out = capsys.readouterr().out
    assert "store: disk" in out
