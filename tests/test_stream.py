"""Streaming MBTC (ISSUE 8): tailer, adapters, incremental checker, service.

Layered like the subsystem itself:

* :class:`LogTailer` -- rotation, truncation, torn-tail retry schedule and
  not-yet-existing sources, all driven with explicit clocks (no sleeps).
* The :class:`LogAdapter` seam -- the ``kv`` proof-of-seam format, unknown
  adapter names, and the satellite contract that every
  :class:`LogParseError` carries actionable ``path``/``lineno`` context.
* :class:`IncrementalChecker` -- verdict parity with the batch checker and
  the snapshot/restore bit-identity the service checkpoint rides on.
* :class:`WatchService` end to end -- live appends with rotation and a torn
  final line, violation detection while the writer is still writing,
  SIGTERM graceful drain, quarantine records, and
  the acceptance contract: an interrupted-then-resumed service writes a
  final report byte-identical to an uninterrupted run's.
"""

import io
import json
import os
import pickle
import random
import signal
import threading
import time

import pytest

from repro.pipeline import logs as log_module
from repro.pipeline.cli import main
from repro.pipeline.logs import (
    LogIngestError,
    LogParseError,
    get_adapter,
    read_log_files,
)
from repro.pipeline.workload import generate_workload
from repro.resilience import CheckpointError, read_watch_checkpoint
from repro.stream import (
    IncrementalChecker,
    LogTailer,
    WatchConfig,
    WatchService,
)
from repro.stream import tailer as tailer_module
from repro.tla.errors import ReproError
from repro.tla.registry import build_spec, get_entry
from repro.tla.trace import check_trace


def _locking():
    spec = build_spec("locking")
    per_node = get_entry("locking").per_node_variables(spec)
    return spec, per_node


def _trace_events(spec, per_node, *, seed, fault_rate=0.0):
    generated = next(
        iter(
            generate_workload(
                spec, n_traces=1, seed=seed, fault_rate=fault_rate
            )
        )
    )
    events = log_module.events_from_trace(
        spec, generated.states, per_node=per_node, actions=generated.actions
    )
    return generated, events


def _write_log(path, events):
    log_module.write_log_file(str(path), events)
    return str(path)


def _events_consumed(service):
    # Thread-safe progress probe: integer reads keyed by the fixed source
    # list, never iterating a dict the service thread is mutating.
    return sum(
        service._checkers[s].events
        for s in service.sources
        if s in service._checkers
    )


def _violated_count(service):
    return sum(
        1
        for s in service.sources
        if s in service._checkers
        and service._checkers[s].status == "violated"
    )


def _fast_config(**overrides):
    base = dict(
        once=True,
        report_every=0,
        poll_interval=0.01,
        partial_retries=2,
        partial_backoff=0.01,
        stall_timeout=0,
    )
    base.update(overrides)
    return WatchConfig(**base)


# -- LogTailer ----------------------------------------------------------------


def test_tailer_emits_complete_lines_and_holds_back_partial(tmp_path):
    path = tmp_path / "a.log"
    path.write_text("one\ntwo\npart")
    tailer = LogTailer(str(path), partial_retries=3, partial_backoff=0.5)
    batch = tailer.poll(now=0.0)
    assert [line.text for line in batch.lines] == ["one", "two"]
    assert [line.lineno for line in batch.lines] == [1, 2]
    assert tailer.partial == "part"
    assert not batch.at_eof  # a held-back partial is unfinished business
    # The writer completes the line: it is emitted whole, never torn.
    with open(path, "a") as handle:
        handle.write("ial\n")
    batch = tailer.poll(now=0.1)
    assert [line.text for line in batch.lines] == ["partial"]
    assert batch.lines[0].lineno == 3
    assert not batch.lines[0].torn
    assert tailer.torn_lines == 0
    assert batch.at_eof


def test_tailer_declares_torn_line_after_bounded_retries(tmp_path):
    path = tmp_path / "a.log"
    path.write_text("good\nbad-tail")
    tailer = LogTailer(str(path), partial_retries=2, partial_backoff=0.01)
    batch = tailer.poll(now=0.0)  # emits "good", starts the retry schedule
    assert [line.text for line in batch.lines] == ["good"]
    torn = []
    for tick in range(1, 10):
        batch = tailer.poll(now=float(tick))
        torn.extend(line for line in batch.lines if line.torn)
        if torn:
            break
    assert len(torn) == 1
    assert torn[0].text == "bad-tail"
    assert torn[0].lineno == 2
    assert torn[0].offset == os.path.getsize(path)
    assert tailer.torn_lines == 1
    assert tailer.partial == ""
    assert batch.at_eof


def test_tailer_follows_rotation_draining_the_old_file_first(tmp_path):
    path = tmp_path / "a.log"
    path.write_text("one\ntwo\n")
    tailer = LogTailer(str(path), partial_backoff=0.01)
    assert [line.text for line in tailer.poll(now=0.0).lines] == ["one", "two"]
    # logrotate: rename away, write more to the *old* inode, start a new file.
    rotated = tmp_path / "a.log.1"
    os.rename(path, rotated)
    with open(rotated, "a") as handle:
        handle.write("late\n")
    path.write_text("fresh\n")
    batch = tailer.poll(now=1.0)
    assert batch.rotated
    # The old file is drained through the still-open handle before switching.
    assert [(line.text, line.lineno) for line in batch.lines] == [
        ("late", 3),
        ("fresh", 1),
    ]
    assert tailer.rotations == 1


def test_tailer_rewinds_on_truncation(tmp_path):
    path = tmp_path / "a.log"
    path.write_text("aaaa\nbbbb\n")
    tailer = LogTailer(str(path), partial_backoff=0.01)
    assert len(tailer.poll(now=0.0).lines) == 2
    path.write_text("c\n")  # copytruncate-style in-place shrink
    batch = tailer.poll(now=1.0)
    assert batch.truncated
    assert [(line.text, line.lineno) for line in batch.lines] == [("c", 1)]
    assert tailer.truncations == 1


def test_tailer_waits_for_a_source_that_does_not_exist_yet(tmp_path):
    path = tmp_path / "later.log"
    tailer = LogTailer(str(path), partial_backoff=0.01)
    batch = tailer.poll(now=0.0)
    assert batch.waiting and not batch.lines
    path.write_text("here\n")
    batch = tailer.poll(now=1.0)
    assert [line.text for line in batch.lines] == ["here"]


# Chunked reading: whatever the chunk size, the lines are those one split of
# the whole file gives -- numbers, offsets and text -- in bounded memory.

_CHUNKS = [1, 7, 64, None]  # None: the module's own constant


def _chunked(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(tailer_module, "READ_CHUNK", chunk)
    return tailer_module.READ_CHUNK


def _reference_lines(data):
    """``[(lineno, offset, text)]`` of the complete lines of ``data``, and its tail."""
    *complete, tail = data.split(b"\n")
    lines, offset = [], 0
    for lineno, raw in enumerate(complete, start=1):
        offset += len(raw) + 1
        lines.append((lineno, offset, raw.decode("utf-8")))
    return lines, tail


def _emitted(lines):
    return [(line.lineno, line.offset, line.text) for line in lines]


_MESSY = (
    "plain\n\n\n" + "x" * 200 + "\n" + "caf\u00e9 \u65e5\u672c\u8a9e \U0001f512 held\n"
    + "\n".join(f"line {n} \u00fc" for n in range(40)) + "\n\nunfinished \u00e9"
).encode("utf-8")


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_chunked_polls_emit_exactly_the_lines_of_one_split(tmp_path, monkeypatch, chunk):
    chunk = _chunked(monkeypatch, chunk)
    path = tmp_path / "messy.log"
    path.write_bytes(_MESSY)
    expected, tail = _reference_lines(_MESSY)
    longest = max(len(raw) for raw in _MESSY.split(b"\n")) + 1
    tailer = LogTailer(str(path), partial_retries=2, partial_backoff=0.5)
    lines = []
    for _poll in range(len(_MESSY) // chunk + 2):  # the clock stands still: nothing ages
        batch = tailer.poll(now=0.0)
        assert not batch.at_eof and not any(line.torn for line in batch.lines)
        assert sum(len(line.text.encode("utf-8")) + 1 for line in batch.lines) < chunk + longest
        assert len(tailer._partial) < chunk + longest
        lines.extend(batch.lines)
    # A 200-byte line spanning several chunks, characters cut by a chunk
    # boundary, empty lines: all as the reference has them.
    assert _emitted(lines) == expected
    assert tailer.partial == tail.decode("utf-8") and tailer.bytes_read == len(_MESSY)
    # The newline-less tail is held back, then torn when its retries run out.
    torn = []
    for tick in range(1, 10):
        batch = tailer.poll(now=float(tick))
        torn.extend(batch.lines)
        if batch.at_eof:
            break
    (line,) = torn
    assert line.torn and _emitted(torn) == [(len(expected) + 1, len(_MESSY), tail.decode("utf-8"))]


def _poll_to_eof(tailer, now):
    """``(lines, rotations seen, truncations seen)`` of polling until ``at_eof``."""
    lines, rotated, truncated = [], 0, 0
    for _poll in range(100_000):
        batch = tailer.poll(now=now)
        lines.extend(batch.lines)
        rotated += batch.rotated
        truncated += batch.truncated
        if batch.at_eof:
            return lines, rotated, truncated
    raise AssertionError("the tailer never reached EOF")


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_chunked_tailer_rewinds_on_a_truncation_mid_file(tmp_path, monkeypatch, chunk):
    _chunked(monkeypatch, chunk)
    path = tmp_path / "a.log"
    path.write_bytes(_MESSY)
    tailer = LogTailer(str(path), partial_backoff=0.01)
    while tailer.bytes_read < 300:  # mid-file (mid-line, at most chunk sizes)
        tailer.poll(now=0.0)
    shorter = b"\n".join(b"new %d" % n for n in range(30)) + b"\n"
    assert 64 < len(shorter) < 300 <= tailer.bytes_read
    path.write_bytes(shorter)  # copytruncate-style: shrinks below the read position
    lines, _rotated, truncated = _poll_to_eof(tailer, now=1.0)
    assert truncated == tailer.truncations == 1
    # The held-back partial went with the old content: numbering and offsets restart.
    assert _emitted(lines) == _reference_lines(shorter)[0]


@pytest.mark.parametrize("chunk", _CHUNKS)
def test_a_rotation_with_more_than_a_chunk_unread_loses_no_old_line(tmp_path, monkeypatch, chunk):
    _chunked(monkeypatch, chunk)
    path = tmp_path / "a.log"
    old = b"\n".join(b"old line %d" % n for n in range(60)) + b"\n"
    path.write_bytes(old)
    tailer = LogTailer(str(path), partial_backoff=0.01)
    lines = list(tailer.poll(now=0.0).lines)
    os.rename(path, tmp_path / "a.log.1")
    with open(tmp_path / "a.log.1", "ab") as handle:
        handle.write(b"late\nlost tail")
    fresh = b"\n".join(b"fresh %d" % n for n in range(20)) + b"\n"
    path.write_bytes(fresh)
    batch = tailer.poll(now=1.0)
    assert batch.rotated and tailer.rotations == 1
    rest, rotated, _truncated = _poll_to_eof(tailer, now=1.0)
    assert not rotated
    # Every old line -- the unread remainder however many chunks long, what
    # was appended after the rename, the torn tail -- in the poll that saw
    # the rotation, before the first new one.
    old_lines, tail = _reference_lines(old + b"late\nlost tail")
    old_lines.append((len(old_lines) + 1, len(old) + 14, tail.decode()))
    assert _emitted(lines + batch.lines)[: len(old_lines)] == old_lines
    assert _emitted(lines + batch.lines + rest) == old_lines + _reference_lines(fresh)[0]
    torn = [line.torn for line in lines + batch.lines + rest]
    assert torn == [False] * 61 + [True] + [False] * 20


def test_a_48000_line_source_polls_to_eof_in_linear_time(tmp_path):
    path = tmp_path / "big.log"
    line = b'{"ts": 12345, "node": 1, "action": "Acquire", "vars": {"held": ["IS", "None", "X"]}}\n'
    path.write_bytes(line * 48_000)  # > 4 MiB: several chunks
    tailer = LogTailer(str(path))
    started = time.perf_counter()
    count = polls = 0
    while True:
        batch = tailer.poll()
        count += len(batch.lines)
        polls += 1
        if batch.at_eof:
            break
    elapsed = time.perf_counter() - started
    tailer.close()
    assert count == 48_000 and tailer.offset == len(line) * 48_000 == tailer.bytes_read
    assert polls >= len(line) * 48_000 // tailer_module.READ_CHUNK
    assert elapsed < 2.0  # seconds at one re-slice of the backlog per line


# -- the LogAdapter seam ------------------------------------------------------


def test_kv_adapter_parses_key_value_lines():
    adapter = get_adapter("kv")
    event = adapter.parse_line(
        'INFO server ts=1.5 node=0 action=Acquire vars=\'{"held": ["S"]}\'',
        path="srv.log",
        lineno=3,
    )
    assert event.action == "Acquire"
    assert event.node == 0
    assert event.ts == 1.5
    assert event.vars == {"held": ["S"]}
    assert event.location == "srv.log:3"
    assert adapter.parse_line("plain noise without the magic token") is None


def test_unknown_adapter_is_a_repro_error():
    with pytest.raises(ReproError, match="unknown log adapter"):
        get_adapter("syslog-ng")


def test_parse_errors_carry_path_and_lineno_and_survive_pickling():
    # Satellite: quarantine entries and batch errors must be actionable --
    # the exception itself says which file and which line.
    adapter = get_adapter("jsonl")
    with pytest.raises(LogParseError) as excinfo:
        adapter.parse_line('{"action": "x", trunca', path="srv.log", lineno=17)
    assert excinfo.value.path == "srv.log"
    assert excinfo.value.lineno == 17
    assert "srv.log:17" in str(excinfo.value)
    revived = pickle.loads(pickle.dumps(excinfo.value))
    assert (revived.path, revived.lineno) == ("srv.log", 17)

    with pytest.raises(LogParseError) as excinfo:
        get_adapter("kv").parse_line("action=Go ts=abc", path="f.log", lineno=9)
    assert (excinfo.value.path, excinfo.value.lineno) == ("f.log", 9)


def test_missing_log_file_is_an_ingest_error_and_cli_exit_2(tmp_path, capsys):
    # Satellite: a log file that disappears (or never existed) surfaces as a
    # ReproError -> one-line diagnostic and exit 2, not a traceback.
    with pytest.raises(LogIngestError, match="cannot read log file"):
        list(read_log_files([str(tmp_path / "vanished.log")]))
    # A directory masquerading as a log file is the mid-read-unreadable twin.
    with pytest.raises(LogIngestError):
        list(read_log_files([str(tmp_path)]))

    assert main(["trace", "locking", str(tmp_path / "vanished.log")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "cannot read log file" in err


_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_trace_cli_reports_an_unevaluable_state_as_one_error_line(capsys):
    # The snapshot anchors the trace on garbage; the spec's (generator)
    # actions then raise while being *iterated*.  One diagnostic, exit 2 --
    # not a traceback and not exit 1, which means "violation".
    bad = os.path.join(_DATA, "bad_snapshot.jsonl")
    assert main(["trace", "locking", bad, "--no-require-initial"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: action 'Acquire' raised IndexError")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_watch_cli_quarantines_an_event_whose_step_cannot_be_evaluated(tmp_path, capsys):
    bad = os.path.join(_DATA, "bad_snapshot.jsonl")
    quarantine = tmp_path / "q.jsonl"
    assert main(["watch", "locking", bad, "--once", "--quarantine", str(quarantine)]) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "quarantined: 0 line(s), 1 event(s)" in err
    (record,) = [json.loads(line) for line in quarantine.read_text().splitlines()]
    assert (record["source"], record["lineno"]) == (bad, 2)
    assert "raised IndexError" in record["reason"]


def test_watch_cli_writes_evidence_for_each_quarantined_event(tmp_path, capsys):
    # Events that parse but cannot be applied were only ever *counted*.
    source = os.path.join(_DATA, "unappliable_events.jsonl")
    quarantine = tmp_path / "q.jsonl"
    argv = ["watch", "locking", source, "--once", "--quarantine", str(quarantine)]
    assert main(argv) == 0
    assert "quarantined: 0 line(s), 2 event(s)" in capsys.readouterr().err
    records = [json.loads(line) for line in quarantine.read_text().splitlines()]
    assert [(r["source"], r["lineno"]) for r in records] == [(source, 1), (source, 2)]
    assert "unknown variable 'nosuch'" in records[0]["reason"]
    assert "names node 99" in records[1]["reason"]


# -- IncrementalChecker -------------------------------------------------------


def _seeded_trace(spec, fault):
    """The first seeded trace of ``spec`` with the wanted fault (None = valid)."""
    for seed in range(200):
        generated = next(
            iter(generate_workload(spec, n_traces=1, seed=seed, fault_rate=1.0 if fault else 0.0))
        )
        if generated.fault == fault:
            return generated
    raise AssertionError(f"no {fault!r} trace of {spec.name} in 200 seeds")


@pytest.mark.parametrize("fault", [None, "teleport"])
@pytest.mark.parametrize("spec_name", ["locking", "raftmongo", "ot_array"])
def test_incremental_checker_matches_batch_check(spec_name, fault):
    # One fold, two drivers: the same trace as a state list through
    # check_trace and as log events through the incremental checker.
    spec = build_spec(spec_name)
    per_node = get_entry(spec_name).per_node_variables(spec)
    generated = _seeded_trace(spec, fault)
    events = log_module.events_from_trace(
        spec, generated.states, per_node=per_node, actions=generated.actions
    )
    # Stuttering steps are not logged, so the batch side checks the trace
    # those events rebuild.
    states = log_module.events_to_trace(spec, events, per_node=per_node)
    batch = check_trace(spec, states)
    checker = IncrementalChecker(spec, per_node=per_node)
    for event in events:
        checker.feed(event)

    assert checker.events == len(events)
    assert (checker.status == "conforming") == batch.ok == (fault is None)
    assert checker.steps == batch.checked_steps
    assert checker.stutters == batch.stuttering_steps
    if fault is not None:
        assert checker.violation["step"] == batch.failure_index
    actions = [a for a in batch.matched_actions if a and a != "<stutter>"]
    assert checker.action_counts == {a: actions.count(a) for a in set(actions)}
    validated = batch.validated_prefix(states)
    assert checker.to_report()["distinct_states"] == len(set(validated))


def test_incremental_checker_flags_seeded_violation_and_freezes():
    spec, per_node = _locking()
    # Seed 5 yields a "teleport" fault: the trace still starts at the
    # initial state (no snapshot anchor), so the invalid jump is visible to
    # the event-stream fold.  A "drop-head" fault would legitimately rebase.
    generated, events = _trace_events(spec, per_node, seed=5, fault_rate=1.0)
    assert generated.fault == "teleport"
    assert generated.expect_ok is False
    checker = IncrementalChecker(spec, per_node=per_node)
    for event in events:
        checker.feed(event)
    assert checker.status == "violated"
    assert checker.violation is not None
    assert isinstance(checker.violation["step"], int)
    assert checker.violation["detail"]
    # Events after the violation are counted but not checked.
    before = checker.after_violation
    checker.feed(events[-1])
    assert checker.after_violation == before + 1


def test_incremental_snapshot_restore_is_bit_identical():
    spec, per_node = _locking()
    _generated, events = _trace_events(spec, per_node, seed=8)
    half = len(events) // 2
    original = IncrementalChecker(spec, per_node=per_node)
    for event in events[:half]:
        original.feed(event)
    restored = IncrementalChecker.restore(
        spec, original.snapshot(), per_node=per_node
    )
    for event in events[half:]:
        original.feed(event)
        restored.feed(event)
    assert restored.to_report() == original.to_report()


# -- WatchService -------------------------------------------------------------


def test_once_mode_detects_violation_and_quarantines_bad_lines(tmp_path):
    spec, per_node = _locking()
    _ok, ok_events = _trace_events(spec, per_node, seed=1)
    bad, bad_events = _trace_events(spec, per_node, seed=2, fault_rate=1.0)
    assert bad.fault == "teleport"  # live-detectable (no rebasing anchor)
    good_path = _write_log(tmp_path / "good.log", ok_events)
    bad_path = _write_log(tmp_path / "bad.log", bad_events)
    with open(good_path, "a") as handle:
        handle.write('{"action": "Acquire", "ts": oops\n')  # malformed event
        handle.write('{"action": "Acq')  # torn final line, no newline
    report_path = str(tmp_path / "report.json")
    quarantine_path = str(tmp_path / "quarantine.jsonl")
    service = WatchService(
        spec,
        [good_path, bad_path],
        per_node=per_node,
        config=_fast_config(
            report_path=report_path, quarantine_path=quarantine_path
        ),
        out=io.StringIO(),
    )
    assert service.run() == 1  # clean drain, but a trace violated its spec

    report = json.loads(open(report_path).read())
    assert report["traces"] == {"total": 2, "conforming": 1, "violated": 1}
    assert report["violations"][0]["source"] == bad_path
    assert report["totals"]["quarantined_lines"] == 2
    records = [
        json.loads(line) for line in open(quarantine_path) if line.strip()
    ]
    assert len(records) == 2
    assert all(record["source"] == good_path for record in records)
    torn = next(r for r in records if "torn" in r["reason"])
    assert torn["raw"] == '{"action": "Acq'
    malformed = next(r for r in records if "truncated" in r["reason"])
    assert malformed["lineno"] == len(ok_events) + 1
    assert malformed["offset"] > 0


def test_a_torn_tail_changes_no_report_and_the_run_says_how_long_it_starved(tmp_path):
    # The run outlasts the torn line's retry schedule by idling: the same
    # sources give the same report, and the run says how long it starved and
    # how much it read.
    from repro.obs.schema import validate_status_path
    from repro.stream import report_to_json

    spec, per_node = _locking()
    _ok, ok_events = _trace_events(spec, per_node, seed=1)
    _bad, bad_events = _trace_events(spec, per_node, seed=2, fault_rate=1.0)
    paths = [_write_log(tmp_path / "good.log", ok_events),
             _write_log(tmp_path / "bad.log", bad_events)]
    with open(paths[0], "a") as handle:
        handle.write('{"action": "Acq')  # torn: the run outlasts its retry schedule

    def run(**config):
        service = WatchService(
            spec, paths, per_node=per_node, config=_fast_config(**config), out=io.StringIO()
        )
        assert service.run() == 1
        return service

    expected = report_to_json(run().report())
    status_path = tmp_path / "status.json"
    service = run(status_path=str(status_path))
    assert report_to_json(service.report()) == expected

    runtime = service.runtime_info()
    assert runtime["bytes_read"] == sum(os.path.getsize(path) for path in paths)
    # It waited for the torn line's retries at least; every wait is bounded.
    assert runtime["idle_waits"] >= 1
    assert 0.0 < runtime["idle_seconds"] <= runtime["idle_waits"] * 0.01 + 0.5
    document = validate_status_path(str(status_path))
    assert document["idle_waits"] == runtime["idle_waits"]
    assert document["idle_seconds"] == round(runtime["idle_seconds"], 3)
    assert {s: d["bytes_read"] for s, d in document["sources"].items()} == {
        path: os.path.getsize(path) for path in paths
    }
    assert "idle" not in expected and "bytes_read" not in expected


def test_batch_limit_1_still_drains_everything(tmp_path):
    # One line per round, the rest of the poll held pending: the verdict
    # must be unaffected.
    spec, per_node = _locking()
    _generated, events = _trace_events(spec, per_node, seed=9)
    path = _write_log(tmp_path / "slow.log", events)
    service = WatchService(
        spec,
        [path],
        per_node=per_node,
        config=_fast_config(batch_limit=1),
        out=io.StringIO(),
    )
    assert service.run() == 0
    assert service.report()["totals"]["events"] == len(events)


def _counted_polls(monkeypatch):
    polls = []
    poll = LogTailer.poll

    def counted(self, now=None):
        polls.append(self.path)
        return poll(self, now)

    monkeypatch.setattr(LogTailer, "poll", counted)
    return polls


#: ``partial_retries=5, partial_backoff=0.05``: 0.05 + 0.1 + 0.2 + 0.4 + 0.8 s.
_TORN_SCHEDULE = 1.55


def test_a_torn_tail_is_waited_out_by_idling_not_by_polling(tmp_path, monkeypatch):
    spec, per_node = _locking()
    _generated, events = _trace_events(spec, per_node, seed=9)
    path = _write_log(tmp_path / "torn.log", events)
    with open(path, "a") as handle:
        handle.write('{"action": "Acq')  # the writer died mid-line
    polls = _counted_polls(monkeypatch)
    service = WatchService(
        spec,
        [path],
        per_node=per_node,
        config=WatchConfig(
            once=True, report_every=0, stall_timeout=0,
            partial_retries=5, partial_backoff=0.05,
        ),
        out=io.StringIO(),
    )
    started = time.monotonic()
    assert service.run() == 0
    elapsed = time.monotonic() - started
    # Each of the five attempts is noticed at most one idle interval late
    # (the second is slack for a loaded box).
    assert _TORN_SCHEDULE <= elapsed <= _TORN_SCHEDULE + 5 * service.config.poll_interval + 1.0
    assert service.runtime_info()["torn_lines"] == 1
    assert service.quarantine.count == 1
    assert service.report()["totals"]["events"] == len(events)
    assert service.idle_waits >= 1  # starved, and says so
    assert len(polls) <= 10 * service.idle_waits + 10


def test_a_line_completed_inside_the_retry_schedule_is_checked_not_quarantined(
    tmp_path, monkeypatch
):
    spec, per_node = _locking()
    _generated, events = _trace_events(spec, per_node, seed=9)
    lines = [log_module.format_event(event) for event in events]
    cut = len(lines[-1]) // 2
    path = tmp_path / "slow.log"
    path.write_text("".join(line + "\n" for line in lines[:-1]) + lines[-1][:cut])
    polls = _counted_polls(monkeypatch)
    service = WatchService(
        spec,
        [str(path)],
        per_node=per_node,
        config=WatchConfig(
            once=False, report_every=0, stall_timeout=0,
            partial_retries=5, partial_backoff=0.05,
        ),
        out=io.StringIO(),
    )
    exit_codes = []
    thread = threading.Thread(
        target=lambda: exit_codes.append(service.run()), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while _events_consumed(service) < len(lines) - 1:
        assert time.monotonic() < deadline, "the complete lines were never consumed"
        time.sleep(0.005)
    time.sleep(0.3)  # the writer stalls mid-line, well inside the schedule
    with open(path, "a") as handle:
        handle.write(lines[-1][cut:] + "\n")
    while _events_consumed(service) < len(lines):
        assert time.monotonic() < deadline, "the completed line was never checked"
        time.sleep(0.005)
    service.request_stop(signal.SIGTERM)
    thread.join(timeout=15.0)
    assert not thread.is_alive()
    assert exit_codes == [143]
    assert service.quarantine.count == 0
    assert service.runtime_info()["torn_lines"] == 0
    assert service.report()["traces"] == {"total": 1, "conforming": 1, "violated": 0}
    assert len(polls) <= 10 * service.idle_waits + 10


@pytest.mark.parametrize("once", [True, False])
def test_the_service_starts_no_thread(tmp_path, monkeypatch, started_threads, once):
    spec, per_node = _locking()
    _generated, events = _trace_events(spec, per_node, seed=9)
    path = _write_log(tmp_path / "t.log", events)
    service = WatchService(
        spec, [path], per_node=per_node, config=_fast_config(once=once), out=io.StringIO()
    )
    if not once:
        # Follow mode runs until stopped: by the third poll the file has been
        # read, checked and found at EOF once.
        poll, polls = LogTailer.poll, []

        def stopping_poll(self, now=None):
            polls.append(self.path)
            if len(polls) == 3:
                service.request_stop(signal.SIGTERM)
            return poll(self, now)

        monkeypatch.setattr(LogTailer, "poll", stopping_poll)
    assert service.run() == (0 if once else 143)
    assert service.report()["totals"]["events"] == len(events)
    assert started_threads == []


def test_the_report_and_checkpoint_do_not_depend_on_the_batch_limit(tmp_path):
    # The shape of the benchmark's watch_locking: two long conforming sources
    # and a short one with a planted violation.
    from repro.pipeline.workload import generate_trace
    from repro.stream import report_to_json

    spec, per_node = _locking()
    traces = [
        generate_trace(spec, random.Random(seed), min_steps=400, max_steps=400)
        for seed in (1, 2)
    ]
    planted, planted_events = _trace_events(spec, per_node, seed=2, fault_rate=1.0)
    assert planted.fault == "teleport"
    paths = [
        _write_log(
            tmp_path / f"long{index}.log",
            log_module.events_from_trace(
                spec, trace.states, per_node=per_node, actions=trace.actions
            ),
        )
        for index, trace in enumerate(traces)
    ] + [_write_log(tmp_path / "planted.log", planted_events)]

    def drained(batch_limit):
        service = WatchService(
            spec,
            paths,
            per_node=per_node,
            config=_fast_config(batch_limit=batch_limit),
            out=io.StringIO(),
        )
        assert service.run() == 1
        checkpoint = service.checkpoint()
        return report_to_json(service.report()), checkpoint.sources, checkpoint.checkers

    one, many = drained(1), drained(256)
    assert one == many
    assert json.loads(one[0])["totals"]["events"] > 800


def test_queue_depth_counts_the_lines_read_and_not_yet_checked(tmp_path):
    from repro.obs.schema import validate_status

    spec, per_node = _locking()
    _generated, events = _trace_events(spec, per_node, seed=9)
    path = _write_log(tmp_path / "t.log", events)
    service = WatchService(
        spec, [path], per_node=per_node, config=_fast_config(batch_limit=1), out=io.StringIO()
    )
    assert service._round() == 1  # one poll read the file, one line was checked
    status = service.status()
    validate_status(status)
    source = status["sources"][path]
    assert source["queue_depth"] == len(events) - 1 and source["lineno"] == 1
    assert source["done"]  # read to EOF in once mode: never read again, not yet drained
    assert service.run() == 0
    status = service.status()
    validate_status(status)
    assert status["sources"][path]["queue_depth"] == 0
    assert status["totals"]["events"] == len(events)
    # Busy, not starved: no idle wait while a source had unread bytes or lines.
    assert status["idle_waits"] == 0


def test_watchdog_flags_a_stalled_source(tmp_path):
    spec, per_node = _locking()
    path = tmp_path / "quiet.log"
    path.write_text("")  # exists but never grows
    sink = io.StringIO()
    service = WatchService(
        spec,
        [str(path)],
        per_node=per_node,
        config=WatchConfig(
            once=False,
            report_every=0,
            poll_interval=0.01,
            stall_timeout=0.05,
        ),
        out=sink,
    )
    thread = threading.Thread(target=service.run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    while not service._stalled:
        assert time.monotonic() < deadline, "watchdog never fired"
        time.sleep(0.01)
    service.request_stop(signal.SIGTERM)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert "stalled" in sink.getvalue()


def test_resume_refuses_a_foreign_checkpoint(tmp_path):
    spec, per_node = _locking()
    _generated, events = _trace_events(spec, per_node, seed=10)
    path = _write_log(tmp_path / "t.log", events)
    checkpoint_path = str(tmp_path / "w.ckpt")
    service = WatchService(
        spec,
        [path],
        per_node=per_node,
        config=_fast_config(checkpoint_path=checkpoint_path),
        out=io.StringIO(),
    )
    service.run()
    checkpoint = read_watch_checkpoint(checkpoint_path)
    with pytest.raises(CheckpointError, match="adapter"):
        WatchService(
            spec,
            [path],
            per_node=per_node,
            config=_fast_config(adapter="kv"),
            resume_from=checkpoint,
            out=io.StringIO(),
        )
    other = build_spec("ot_array")
    with pytest.raises(CheckpointError, match="refusing to resume"):
        WatchService(
            other,
            [path],
            per_node=get_entry("ot_array").per_node_variables(other),
            config=_fast_config(),
            resume_from=checkpoint,
            out=io.StringIO(),
        )


def test_interrupted_resume_report_is_bit_identical_to_uninterrupted(tmp_path):
    """The acceptance contract: SIGTERM mid-stream, then --resume, and the
    final report is byte-for-byte what an uninterrupted run writes."""
    spec, per_node = _locking()
    _ok, ok_events = _trace_events(spec, per_node, seed=21)
    bad, bad_events = _trace_events(spec, per_node, seed=29, fault_rate=1.0)
    assert bad.fault == "teleport"
    paths = [
        _write_log(tmp_path / "a.log", ok_events),
        _write_log(tmp_path / "b.log", bad_events),
    ]
    with open(paths[0], "a") as handle:
        handle.write('{"action": "Acq')  # torn final line in both runs

    reference_report = str(tmp_path / "reference.json")
    WatchService(
        spec,
        paths,
        per_node=per_node,
        config=_fast_config(report_path=reference_report),
        out=io.StringIO(),
    ).run()

    # Live service, throttled so the SIGTERM lands genuinely mid-stream.
    checkpoint_path = str(tmp_path / "w.ckpt")
    live = WatchService(
        spec,
        paths,
        per_node=per_node,
        config=WatchConfig(
            once=False,
            report_every=0,
            poll_interval=0.01,
            partial_retries=2,
            partial_backoff=0.01,
            stall_timeout=0,
            batch_limit=1,
            checkpoint_path=checkpoint_path,
            checkpoint_every=1,
        ),
        out=io.StringIO(),
    )
    exit_codes = []
    thread = threading.Thread(
        target=lambda: exit_codes.append(live.run()), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while _events_consumed(live) < 3:
        assert time.monotonic() < deadline, "service consumed nothing"
        time.sleep(0.005)
    live.request_stop(signal.SIGTERM)
    thread.join(timeout=15.0)
    assert not thread.is_alive()
    assert exit_codes == [143]

    resumed_report = str(tmp_path / "resumed.json")
    resumed = WatchService(
        spec,
        paths,
        per_node=per_node,
        config=_fast_config(
            report_path=resumed_report, checkpoint_path=checkpoint_path
        ),
        resume_from=read_watch_checkpoint(checkpoint_path),
        out=io.StringIO(),
    )
    assert resumed.run() == 1  # the seeded violation survives the resume
    with open(reference_report, "rb") as handle:
        reference_bytes = handle.read()
    with open(resumed_report, "rb") as handle:
        resumed_bytes = handle.read()
    assert resumed_bytes == reference_bytes


def test_live_appends_with_rotation_detect_violation_then_drain(tmp_path):
    """A writer appends while the service tails: rotation mid-trace, the
    seeded violation is reported live, SIGTERM drains cleanly, and a resume
    of the drained checkpoint reproduces the drained report bit-for-bit."""
    spec, per_node = _locking()
    bad, events = _trace_events(spec, per_node, seed=5, fault_rate=1.0)
    assert bad.fault == "teleport"
    assert len(events) >= 8  # rotation must land mid-trace
    lines = [log_module.format_event(event) for event in events]
    path = tmp_path / "live.log"
    path.write_text("")
    report_path = str(tmp_path / "report.json")
    checkpoint_path = str(tmp_path / "w.ckpt")
    service = WatchService(
        spec,
        [str(path)],
        per_node=per_node,
        config=WatchConfig(
            once=False,
            report_every=0,
            poll_interval=0.01,
            partial_retries=2,
            partial_backoff=0.01,
            stall_timeout=0,
            report_path=report_path,
            checkpoint_path=checkpoint_path,
        ),
        out=io.StringIO(),
    )
    exit_codes = []
    thread = threading.Thread(
        target=lambda: exit_codes.append(service.run()), daemon=True
    )
    thread.start()

    half = len(lines) // 2
    with open(path, "a") as handle:
        for line in lines[:half]:
            handle.write(line + "\n")
    deadline = time.monotonic() + 10.0
    while _events_consumed(service) < half:
        assert time.monotonic() < deadline, "first half never consumed"
        time.sleep(0.005)
    # logrotate under the service's feet, then keep writing the same trace.
    os.rename(path, tmp_path / "live.log.1")
    with open(path, "w") as handle:
        for line in lines[half:]:
            handle.write(line + "\n")
        handle.write('{"action": "torn')  # writer dies mid-line
    while _violated_count(service) < 1:
        assert time.monotonic() < deadline, "violation never detected live"
        time.sleep(0.005)
    # Wait for the torn tail to be surrendered and quarantined too.
    while service.quarantine.count < 1:
        assert time.monotonic() < deadline, "torn line never quarantined"
        time.sleep(0.005)
    service.request_stop(signal.SIGTERM)
    thread.join(timeout=15.0)
    assert not thread.is_alive()
    assert exit_codes == [143]
    assert service.runtime_info()["rotations"] == 1

    with open(report_path, "rb") as handle:
        drained_bytes = handle.read()
    drained = json.loads(drained_bytes)
    assert drained["totals"]["events"] == len(events)
    assert drained["traces"]["violated"] == 1
    assert drained["totals"]["quarantined_lines"] == 1

    # Resuming the drained checkpoint (nothing left to read) must rewrite
    # the exact same bytes: the report is a pure function of consumed data.
    resumed_report = str(tmp_path / "resumed.json")
    resumed = WatchService(
        spec,
        [str(path)],
        per_node=per_node,
        config=_fast_config(report_path=resumed_report),
        resume_from=read_watch_checkpoint(checkpoint_path),
        out=io.StringIO(),
    )
    assert resumed.run() == 1
    with open(resumed_report, "rb") as handle:
        assert handle.read() == drained_bytes
