"""Bad flags end in one line and exit code 2.

A bad value or combination is refused by the object the command builds --
``ModelChecker`` for ``check`` and ``WatchConfig`` for ``watch`` -- as a
``ValueError`` naming the parameter; the few flags no such object has are
checked by the CLI, and unknown names or flags by argparse.  Either way a CI
invocation can never silently check something different from what its flags
say.  Rows are only ever replaced in place or appended: the test ids carry
their position.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine import check_spec
from repro.pipeline.cli import main
from repro.pipeline.workload import generate_workload
from repro.stream import WatchConfig
from repro.tla.registry import build_spec

#: A walk run, so only the flag under test is wrong.
_WALKS = ["check", "locking", "--engine", "simulate"]


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["check", "locking", "--engine", "fingerprint", "--dot", "g.dot"], "collect_graph"),
        (["check", "locking", "--dot", "g.dot", "--resume", "x.ckpt"], "resume_path"),
        (["check", "locking", "--engine", "simulate", "--dot", "g.dot"], "collect_graph"),
        (["check", "locking", "--workers", "2"], "workers"),
        (
            ["check", "locking", "--engine", "fingerprint", "--workers", "2"],
            "workers",
        ),
        (["check", "locking", "--engine", "states", "--workers", "2"], "workers"),
        (["check", "locking", "--walks", "5"], "walks"),
        (["check", "locking", "--engine", "states", "--walks", "5"], "walks"),
        (["check", "locking", "--depth", "5"], "walk_depth"),
        (["check", "locking", "--seed", "7"], "seed"),
        (
            ["check", "locking", "--engine", "simulate", "--max-states", "5"],
            "max_states",
        ),
        (
            ["check", "locking", "--engine", "simulate", "--max-depth", "5"],
            "max_depth",
        ),
        (["check", "locking", "--engine", "fingerprint", "--seed", "7"], "seed"),
        (["check", "locking", "--store-capacity", "100"], "store_capacity"),
        (
            ["check", "locking", "--store", "fingerprint", "--store-capacity", "9"],
            "store_capacity",
        ),
        # The walk pool and its chaos layer are gone, and so are their flags.
        (["check", "locking", "--chaos-rate", "0.3"], "chaos"),
        (
            ["check", "locking", "--engine", "fingerprint", "--chaos-rate", "0.3"],
            "chaos",
        ),
        (
            ["check", "locking", "--engine", "simulate", "--chaos-rate", "0.3"],
            "chaos",
        ),
        (_WALKS + ["--chaos-seed", "7"], "--chaos-seed"),
        (_WALKS + ["--chaos-kinds", "crash"], "--chaos-kinds"),
        (
            _WALKS + ["--chaos-rate", "0.3", "--chaos-kinds", "crash,meteor"],
            "--chaos-kinds",
        ),
        (_WALKS + ["--chaos-rate", "1.5"], "--chaos-rate"),
        (_WALKS + ["--chaos-rate", "0"], "--chaos-rate"),
        (["check", "locking", "--task-timeout", "5"], "--task-timeout"),
        (_WALKS + ["--task-timeout", "-1"], "--task-timeout"),
        # Checkpointing needs a level-synchronous BFS engine and no --dot.
        (
            ["check", "locking", "--engine", "simulate", "--checkpoint", "x.ckpt"],
            "checkpoint_path",
        ),
        (
            ["check", "locking", "--engine", "states", "--resume", "x.ckpt"],
            "resume_path",
        ),
        (
            ["check", "locking", "--dot", "g.dot", "--checkpoint", "x.ckpt"],
            "checkpoint_path",
        ),
        (["check", "locking", "--checkpoint-every", "2"], "checkpoint_every"),
        (
            [
                "check",
                "locking",
                "--checkpoint",
                "x.ckpt",
                "--checkpoint-every",
                "0",
            ],
            "checkpoint_every",
        ),
        # ISSUE 7: disk-store flag consistency.
        (["check", "locking", "--store-path", "x.db"], "store_path"),
        (
            ["check", "locking", "--store", "fingerprint", "--store-path", "x.db"],
            "store_path",
        ),
        (
            ["check", "locking", "--store", "states", "--store-path", "x.db"],
            "supports stores",
        ),
        (
            ["check", "locking", "--engine", "simulate", "--spill-threshold", "10"],
            "spill_threshold",
        ),
        (
            ["check", "locking", "--engine", "states", "--spill-threshold", "10"],
            "spill_threshold",
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
            "spill_threshold",
        ),
        (
            ["check", "locking", "--store", "disk", "--checkpoint", "x.ckpt"],
            "store_path",
        ),
        (
            ["check", "locking", "--store", "disk", "--resume", "x.ckpt"],
            "store_path",
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
        (["watch", "locking", "a.log", "--poll-interval", "0"], "poll_interval"),
        (["watch", "locking", "a.log", "--stall-timeout", "-1"], "stall_timeout"),
        (["watch", "locking", "a.log", "--partial-retries", "0"], "partial_retries"),
        (["watch", "locking", "a.log", "--partial-backoff", "0"], "partial_backoff"),
        (["watch", "locking", "a.log", "--batch-limit", "0"], "batch_limit"),
        (["watch", "locking", "a.log", "--report-every", "-1"], "report_every"),
        (
            ["watch", "locking", "a.log", "--checkpoint-every", "5"],
            "checkpoint_every",
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
            "checkpoint_every",
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
        # Batch checking runs in the calling thread: simulate has no --workers.
        (["simulate", "locking", "--workers", "2"], "--workers"),
        # Peak RSS is printed on every check run; the tracemalloc flag is gone.
        (["check", "locking", "--memory-stats"], "--memory-stats"),
        # Walks run in one process: no pool to size or to time out.
        (_WALKS + ["--task-timeout", "5"], "--task-timeout"),
        (_WALKS + ["--workers", "2"], "--workers"),
        # Every run compiles: the flag that chose otherwise is gone.
        (["check", "locking", "--compile", "off"], "--compile"),
        (["check", "locking", "--compile", "on"], "--compile"),
        # A workload of no traces, or a probability outside [0, 1], used to
        # check nothing and pass; generate_workload refuses both.
        (["simulate", "locking", "--traces", "-5"], "n_traces must be >= 1"),
        (["simulate", "locking", "--traces", "0"], "n_traces must be >= 1"),
        (["simulate", "locking", "--stutter-prob", "1.5"], "stutter_probability"),
        # A negative log limit used to slice off the last cases, or crash.
        (["simulate", "locking", "--log-dir", "d", "--log-limit", "-1"], "--log-limit"),
        (
            ["generate", "--spec", "ot_array", "--log-dir", "d", "--log-limit", "-2"],
            "limit must be >= 0",
        ),
        # A store path SQLite cannot open (a missing directory, a directory)
        # used to end in a traceback.
        (
            ["check", "locking", "--store", "disk", "--store-path", "no/such/dir/x.db"],
            "cannot open disk store",
        ),
        (["check", "locking", "--store", "disk", "--store-path", "."], "cannot open disk store"),
        # One --log-limit rule for simulate and generate, before any file is written.
        (
            ["generate", "--spec", "ot_array", "--log-dir", "d", "--log-limit", "-1"],
            "--log-limit must be >= 0; got -1",
        ),
    ],
)
def test_inconsistent_flags_exit_2(capsys, monkeypatch, tmp_path, argv, needle):
    monkeypatch.chdir(tmp_path)  # a row that gets far enough writes here
    while "=" in argv[0]:  # leading NAME=value words set the environment
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(("error:", "usage:")) and "Traceback" not in err
    assert err.count("error:") == 1
    assert needle in err


def _check(**kwargs):
    return check_spec(build_spec("locking"), check_properties=False, **kwargs)


def _workload(**kwargs):
    return list(generate_workload(build_spec("locking"), **{"n_traces": 1, **kwargs}))


@pytest.mark.parametrize(
    "call,kwargs,needle",
    [
        # Accepted and ignored before the checker became the one validator.
        (_check, dict(engine="fingerprint", walk_depth=5), "walk_depth"),
        (_check, dict(engine="states", seed=9), "seed"),
        (_check, dict(engine="fingerprint", walks=5, seed=9), "walks"),
        (_check, dict(engine="fingerprint", checkpoint_every=3), "checkpoint_every"),
        (_check, dict(engine="states", walks=5), "walks"),
        (_check, dict(engine="simulate", max_depth=5), "max_depth"),
        (_workload, dict(stutter_probability=-0.1), "stutter_probability"),
        # One row per rule the checker already had.
        (_check, dict(engine="warp"), "engine"),
        (_check, dict(store_capacity=0), "store_capacity"),
        (_check, dict(max_states=0), "max_states"),
        (_check, dict(max_depth=-1), "max_depth"),
        (_check, dict(engine="simulate", walks=0), "walks"),
        (_check, dict(engine="simulate", walk_depth=0), "walk_depth"),
        (_check, dict(checkpoint_path="x.ckpt", checkpoint_every=0), "checkpoint_every"),
        (_check, dict(engine="simulate", max_states=5), "max_states"),
        (_check, dict(engine="fingerprint", collect_graph=True), "collect_graph"),
        (_check, dict(store="mmap"), "store"),
        (_check, dict(engine="states", store="disk"), "supports stores"),
        (_check, dict(store_capacity=10), "store_capacity"),
        (_check, dict(store_path="x.db"), "store_path"),
        (_check, dict(spill_threshold=0), "spill_threshold"),
        (_check, dict(engine="simulate", spill_threshold=10), "spill_threshold"),
        (_check, dict(engine="simulate", store="states"), "supports stores"),
        (_check, dict(engine="simulate", checkpoint_path="x.ckpt"), "checkpoint_path"),
        (_check, dict(store="disk", checkpoint_path="x.ckpt"), "store_path"),
    ],
)
def test_the_library_refuses_what_it_would_ignore(call, kwargs, needle):
    with pytest.raises(ValueError) as excinfo:
        call(**kwargs)
    assert needle in str(excinfo.value)


def test_the_library_has_no_compile_mode():
    # Every run compiles: the parameter that chose otherwise is gone, not ignored.
    with pytest.raises(TypeError, match="compile_mode"):
        _check(compile_mode="off")


@pytest.mark.parametrize(
    "field,value",
    [
        ("batch_limit", 0),
        ("poll_interval", 0),
        ("stall_timeout", -1),
        ("partial_retries", 0),
        ("partial_backoff", 0),
        ("report_every", -1),
        ("checkpoint_every", 0),
    ],
)
def test_watch_config_refuses_out_of_range_values(field, value):
    # batch_limit=0 used to reach the service loop and die on an empty batch.
    with pytest.raises(ValueError, match=field):
        WatchConfig(once=True, checkpoint_path="w.ckpt", **{field: value})


def test_watch_config_refuses_checkpoint_every_without_a_path():
    with pytest.raises(ValueError, match="checkpoint_every"):
        WatchConfig(once=True, checkpoint_every=5)
    assert WatchConfig(checkpoint_path="w.ckpt", checkpoint_every=5).checkpoint_every == 5


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
        store_state={"pairs": []},
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


@pytest.mark.parametrize(
    "argv",
    [
        # generate used to write its whole corpus and only then refuse the limit.
        ["generate", "--spec", "ot_array", "--log-dir", "d", "--log-limit", "-1"],
        ["simulate", "locking", "--traces", "0", "--log-dir", "d"],
    ],
)
def test_a_refused_command_writes_nothing(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.count("error:") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_closed_stdout_ends_the_run_quietly_with_141(tmp_path, capsys):
    # A reader that left (``repro trace ... | head -1``) is no refusal: no
    # ``error:`` line, and the exit code of a writer killed by SIGPIPE.
    logs = tmp_path / "logs"
    assert main(["simulate", "locking", "--traces", "1", "--log-dir", str(logs)]) == 0
    capsys.readouterr()
    read_end, write_end = os.pipe()
    os.close(read_end)  # gone before the child writes a byte
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "locking",
             *sorted(str(path) for path in logs.glob("trace0000-node*.jsonl"))],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])),
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")
