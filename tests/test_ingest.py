"""Log ingestion on the decode plan: parity with the fold it replaced.

The oracle below is the ingestion path as it was before events were decoded
straight into the ``SuccessorCache``: ``decode_value`` per variable, a fresh
tuple per node-scoped splice, ``State.with_updates`` per event, and the check
binding every rebuilt state slot by slot, by equality, in a cache that has
never seen the objects.  Every verdict, failure text, matched action,
coverage document and cache counter of the new path must be the oracle's.
"""

import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.pipeline.cli import main
from repro.pipeline.logs import (
    SNAPSHOT_ACTION,
    LogEvent,
    LogParseError,
    events_from_trace,
    events_to_trace,
    format_event,
    merge_event_streams,
    parse_log_lines,
    read_log_files,
    trace_from_logs,
    write_per_node_logs,
)
from repro.pipeline.runner import check_one, check_traces, record_cache_telemetry
from repro.pipeline.workload import GeneratedTrace, generate_workload
from repro.stream import IncrementalChecker, WatchConfig, WatchService
from repro.tla import Action, Specification, explain_failure
from repro.tla.registry import build_spec, get_entry
from repro.tla.trace import BoundTrace, SuccessorCache
from repro.tla.values import decode_value

OPTIONS = dict(allow_stuttering=True, require_initial=True, collect_coverage=True)

#: The benchmark's ``mbtc_raftmongo`` batch, and a small one per registry spec.
BENCH = ("raftmongo", {"variant": "mbtc", "n_nodes": 3, "max_term": 3, "max_log_len": 3},
         dict(n_traces=1000, seed=42, fault_rate=0.1, min_steps=20, max_steps=60))
SMALL = dict(n_traces=60, seed=7, fault_rate=0.4, min_steps=5, max_steps=14)
BATCHES = [
    ("locking", {}, SMALL),
    ("raftmongo", {"n_nodes": 2}, SMALL),
    ("ot_array", {"init_length": 3}, SMALL),
    BENCH,
]


def oracle_trace(spec, events, per_node):
    """The fold this change replaced, kept here as the reference."""
    per_node = frozenset(per_node)
    (initial,) = spec.initial_states()
    trace = []
    for event in events:
        decoded = {name: decode_value(value) for name, value in event.vars.items()}
        if not trace:
            if event.action == SNAPSHOT_ACTION:
                trace.append(spec.make_state(**decoded))
                continue
            trace.append(initial)
        current, updates = trace[-1], {}
        for name, value in decoded.items():
            if event.node is not None and name in per_node:
                slots = list(current[name])
                slots[event.node] = value
                updates[name] = tuple(slots)
            else:
                updates[name] = value
        trace.append(current.with_updates(**updates))
    return trace or [initial]


def logged_streams(spec, name, trace, label):
    """One trace as the per-node log lines ``write_per_node_logs`` would write."""
    entry = get_entry(name)
    events = events_from_trace(
        spec, trace.states, per_node=entry.per_node_variables(spec), actions=trace.actions
    )
    streams = []
    for node in range(entry.node_count(spec)):
        mine = [e for e in events if e.node == node or (node == 0 and e.node is None)]
        streams.append([format_event(event) for event in mine])
    return [
        (f"{label}-node{node}.jsonl", lines) for node, lines in enumerate(streams)
    ]


def merged_events(streams):
    return list(merge_event_streams(
        parse_log_lines(lines, location=path) for path, lines in streams
    ))


def outcome(spec, cache, trace):
    result, coverage = check_one(spec, cache, trace, **OPTIONS)
    return (
        result.ok, result.failure_index, explain_failure(result),
        result.matched_actions, result.stuttering_steps, coverage.to_json(),
    )


def batch_digest(report):
    return (
        report.total, report.passed, report.failed, report.cache_hits, report.cache_misses,
        [(o.index, o.fault, o.detail) for o in report.failures],
        [o.index for o in report.surprises], report.errors, report.coverage.to_json(),
    )


@pytest.mark.parametrize("name, params, workload", BATCHES, ids=lambda v: v if isinstance(v, str) else "")
def test_decoded_traces_check_as_the_replaced_fold_did(name, params, workload):
    generator = build_spec(name, **params)
    per_node = get_entry(name).per_node_variables(generator)
    batch = list(generate_workload(generator, **workload))
    assert {t.fault for t in batch} == {None, "teleport", "drop-head"}
    logged = [
        merged_events(logged_streams(generator, name, trace, f"t{index}"))
        for index, trace in enumerate(batch)
    ]

    old_spec, new_spec = build_spec(name, **params), build_spec(name, **params)
    old_cache = SuccessorCache(old_spec)
    old, new = [], []
    for events in logged:
        old.append(oracle_trace(old_spec, events, per_node))
        new.append(events_to_trace(new_spec, events, per_node=per_node))
        assert isinstance(new[-1], BoundTrace) and new[-1] == old[-1]
    new_cache = SuccessorCache.for_spec(new_spec)
    assert new[0].cache is new_cache
    for index, (old_trace, new_trace) in enumerate(zip(old, new)):
        assert outcome(new_spec, new_cache, new_trace) == outcome(old_spec, old_cache, old_trace), index
    assert (new_cache.hits, new_cache.misses) == (old_cache.hits, old_cache.misses)
    # The work that went away: values the check no longer finds by equality
    # (what is left are the kernel's own, fresh from every cold expansion).
    misses = new_cache.stats()["interner_misses"], old_cache.stats()["interner_misses"]
    assert misses[0] < misses[1]
    if (name, params, workload) == BENCH:
        assert misses[0] * 2 <= misses[1]  # 6,845 of 24,666 in the benchmark's own run
    assert new_cache.decode_hits > new_cache.decode_misses > 0
    assert len(new_cache._decoded) == new_cache.decode_misses
    assert len(new_cache._spliced) == new_cache.splice_misses

    def labelled(traces):
        return [
            GeneratedTrace(states=states, actions=[None] * len(states),
                           expect_ok=trace.expect_ok, fault=trace.fault)
            for states, trace in zip(traces, batch)
        ]

    # The batch runner, each side on a spec (and so a cache) of its own.
    old_spec, new_spec = build_spec(name, **params), build_spec(name, **params)
    expected = check_traces(
        old_spec, labelled(oracle_trace(old_spec, e, per_node) for e in logged), workers=1
    )
    observed = check_traces(
        new_spec, labelled(events_to_trace(new_spec, e, per_node=per_node) for e in logged),
        workers=1,
    )
    assert observed.ok and batch_digest(observed) == batch_digest(expected)
    if (name, params, workload) == BENCH:
        assert (observed.cache_hits, observed.cache_misses) == (8914, 3581)


def test_a_trace_decoded_for_one_spec_checks_anywhere(tmp_path):
    # Rows are native to the cache of the spec they were decoded against;
    # everywhere else -- a fresh cache, another spec object's, a worker
    # process that got them pickled -- they are bound by equality.
    spec = build_spec("raftmongo", n_nodes=2)
    entry = get_entry("raftmongo")
    per_node = entry.per_node_variables(spec)
    batch = list(generate_workload(spec, n_traces=40, seed=13, fault_rate=0.3, max_steps=12))
    traces = []
    for index, trace in enumerate(batch):
        files = write_per_node_logs(
            spec, trace.states, per_node=per_node, nodes=entry.node_count(spec),
            directory=str(tmp_path), basename=f"t{index}", actions=trace.actions,
        )
        states = trace_from_logs(spec, files, per_node=per_node)
        traces.append(GeneratedTrace(states=states, actions=[None] * len(states),
                                     expect_ok=trace.expect_ok, fault=trace.fault))
    home = SuccessorCache.for_spec(spec)
    assert all(t.states.cache is home for t in traces)
    expected = [outcome(spec, home, t.states) for t in traces]
    assert [outcome(spec, SuccessorCache(spec), t.states) for t in traces] == expected
    other = build_spec("raftmongo", n_nodes=2)
    assert [outcome(other, None, t.states) for t in traces] == expected

    inline = check_traces(spec, traces, workers=1)
    processes = check_traces(spec, traces, workers=2, executor="process")
    assert inline.ok and inline.failed
    assert batch_digest(processes)[:3] == batch_digest(inline)[:3]
    assert batch_digest(processes)[5:] == batch_digest(inline)[5:]


def test_an_eviction_mid_batch_sheds_the_decode_plan_and_no_verdict():
    # Eight threads decode and check on one cache whose interner holds 16
    # values: every eviction moves the epoch, the decode and splice memos go
    # with it, rows bound before it are bound again by equality.
    spec = build_spec("raftmongo", n_nodes=2)
    per_node = get_entry("raftmongo").per_node_variables(spec)
    logged = [
        merged_events(logged_streams(spec, "raftmongo", trace, f"t{index}"))
        for index, trace in enumerate(
            generate_workload(spec, n_traces=60, seed=11, fault_rate=0.3)
        )
    ]
    roomy = SuccessorCache.for_spec(spec)
    expected = [outcome(spec, roomy, events_to_trace(spec, e, per_node=per_node)) for e in logged]
    assert roomy.interner.evictions == 0

    tiny_spec = build_spec("raftmongo", n_nodes=2)
    tiny = SuccessorCache.for_spec(tiny_spec)
    tiny.max_entries = 8
    tiny.interner.max_entries = tiny.interner.cache.max_entries = 16

    def decode_and_check(events):
        return outcome(tiny_spec, tiny, events_to_trace(tiny_spec, events, per_node=per_node))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _round in range(3):
                assert list(pool.map(decode_and_check, logged)) == expected
    finally:
        sys.setswitchinterval(interval)
    assert tiny.interner.evictions > 0
    assert max(len(tiny), len(tiny._decoded), len(tiny._spliced)) <= 8
    assert tiny.decode_misses > roomy.decode_misses

    # The runner, inline and in two worker processes, on traces decoded
    # before the evictions.
    traces = [events_to_trace(tiny_spec, events, per_node=per_node) for events in logged]
    for workers, executor in ((1, "thread"), (2, "process")):
        report = check_traces(tiny_spec, traces, workers=workers, executor=executor)
        assert not report.errors
        assert [o.detail for o in report.failures] == [e[2] for e in expected if not e[0]]


def _relabel_spec():
    def init():
        yield {"flag": True, "n": 0}

    def relabel(state):
        yield {"flag": 1}

    def count(state):
        if state["n"] < 2:
            yield {"n": state["n"] + 1}

    return Specification(
        "Relabel", variables=("flag", "n"), init=init,
        actions=[Action("Relabel", relabel), Action("Count", count)],
    )


def test_a_log_reporting_1_for_a_true_slot_is_still_a_stutter():
    # JSON keeps ``1`` and ``true`` apart and so does the decode memo (it is
    # keyed on the payload's repr); equality with the current state is what
    # makes the step a stutter, although Relabel produces that very ``1``.
    spec = _relabel_spec()
    lines = [
        '{"ts": 1, "node": null, "action": "x", "vars": {"flag": 1}}',
        '{"ts": 2, "node": null, "action": "Count", "vars": {"n": 1}}',
        '{"ts": 3, "node": null, "action": "x", "vars": {"flag": true}}',
    ]
    trace = events_to_trace(spec, parse_log_lines(lines), per_node=())
    assert [type(state["flag"]) for state in trace] == [bool, int, int, bool]
    result, coverage = check_one(spec, None, trace, **OPTIONS)
    assert result.ok and result.matched_actions == [None, "<stutter>", "Count", "<stutter>"]
    assert coverage.action_counts == {"Count": 1}
    assert coverage.visited_fingerprints == {
        spec.make_state(flag=True, n=0).fingerprint(), spec.make_state(flag=1, n=1).fingerprint(),
    }
    streamed = IncrementalChecker(spec, per_node=())
    for event in parse_log_lines(lines):
        assert streamed.feed(event) is None
    assert (streamed.status, streamed.stutters, streamed.action_counts) == (
        "conforming", 2, {"Count": 1}
    )
    assert streamed.state == trace[-1] and type(streamed.state["flag"]) is bool


def test_events_that_cannot_be_applied_keep_their_messages_and_locations():
    spec = build_spec("locking")
    lines = [
        '{"ts": 1, "node": 0, "action": "x", "vars": {"nosuch": 1}}',
        '{"ts": 2, "node": 9, "action": "y", "vars": {"held": ["IS", "None", "None"]}}',
        '{"ts": 3, "node": 0, "action": "<snapshot>", "vars": {"held": []}}',
    ]
    events = list(parse_log_lines(lines, location="srv.log"))
    messages = [
        "event at srv.log:1 reports unknown variable 'nosuch'",
        "event at srv.log:2 names node 9, but variable 'held' has 2 slots",
    ]
    for lineno, (event, message) in enumerate(zip(events, messages), start=1):
        for _again in range(2):  # a failure is not memoized
            with pytest.raises(LogParseError) as excinfo:
                events_to_trace(spec, [event], per_node=("held",))
            assert str(excinfo.value) == message
            assert (excinfo.value.path, excinfo.value.lineno) == ("srv.log", lineno)
    with pytest.raises(LogParseError, match="snapshot") as excinfo:
        events_to_trace(spec, [events[2]], per_node=("held",))
    assert (excinfo.value.path, excinfo.value.lineno) == ("srv.log", 3)
    checker = IncrementalChecker(spec, per_node=("held",))
    assert checker.feed(events[0]) == messages[0]
    assert checker.feed(events[1]) == messages[1]
    assert checker.quarantined_events == 2 and checker.status == "conforming"


# -- timestamps: an unordered or unorderable stream is an error, not a verdict --


def _raft_log_files(tmp_path):
    spec = build_spec("raftmongo", n_nodes=2)
    entry = get_entry("raftmongo")
    per_node = entry.per_node_variables(spec)
    trace = next(iter(generate_workload(spec, n_traces=1, seed=4, min_steps=8, max_steps=8)))
    files = write_per_node_logs(
        spec, trace.states, per_node=per_node, nodes=2,
        directory=str(tmp_path), basename="t", actions=trace.actions,
    )
    assert check_one(spec, None, trace_from_logs(spec, files, per_node=per_node), **OPTIONS)[0].ok
    return spec, per_node, files


def _rewrite_ts(path, lineno, ts):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    event = json.loads(lines[lineno - 1])
    event["ts"] = ts
    lines[lineno - 1] = json.dumps(event)  # NaN and Infinity as json writes them
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _busiest(files):
    return max(files, key=lambda path: len(Path(path).read_text(encoding="utf-8")))


def test_a_stream_whose_clock_runs_backwards_is_rejected_where_it_does(tmp_path, capsys):
    spec, per_node, files = _raft_log_files(tmp_path)
    path = _busiest(files)
    _rewrite_ts(path, 2, -5)
    with pytest.raises(LogParseError, match="before the") as excinfo:
        trace_from_logs(spec, files, per_node=per_node)
    assert (excinfo.value.path, excinfo.value.lineno) == (path, 2)
    assert f"{path}:2" in str(excinfo.value)
    assert main(["trace", "raftmongo", "--param", "n_nodes=2", *files]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}:2" in err and "Traceback" not in err


@pytest.mark.parametrize("ts", [float("nan"), float("inf"), float("-inf")])
def test_a_timestamp_that_orders_against_nothing_is_a_malformed_line(tmp_path, capsys, ts):
    spec, per_node, files = _raft_log_files(tmp_path)
    path = _busiest(files)
    _rewrite_ts(path, 2, ts)
    with pytest.raises(LogParseError, match="not finite") as excinfo:
        list(read_log_files(files))
    assert (excinfo.value.path, excinfo.value.lineno) == (path, 2)
    assert main(["trace", "raftmongo", "--param", "n_nodes=2", *files]) == 2
    assert f"{path}:2" in capsys.readouterr().err
    # ``watch`` reads one source in file order: the line is quarantined.
    quarantine = tmp_path / "quarantine.jsonl"
    service = WatchService(
        spec, [path], per_node=per_node,
        config=WatchConfig(once=True, report_every=0, stall_timeout=0,
                           quarantine_path=str(quarantine)),
        out=io.StringIO(),
    )
    service.run()
    (record,) = [json.loads(line) for line in quarantine.read_text().splitlines()]
    assert record["lineno"] == 2 and "not finite" in record["reason"]


def test_the_merge_refuses_a_hand_built_nan_the_adapters_never_saw():
    with pytest.raises(LogParseError, match="ordered"):
        list(merge_event_streams([[LogEvent(ts=float("nan"), node=0, action="A")]]))


def test_equal_timestamps_are_legal_and_keep_stream_order():
    first = [LogEvent(ts=1, node=0, action="a0"), LogEvent(ts=1, node=0, action="a1")]
    second = [LogEvent(ts=1, node=1, action="b0"), LogEvent(ts=2, node=1, action="b1")]
    merged = [event.action for event in merge_event_streams([first, second])]
    assert merged == ["a0", "a1", "b0", "b1"]


# -- observability: the decode plan's counters reach stats(), telemetry, status --


def test_decode_plan_counters_reach_stats_telemetry_and_the_status_file(tmp_path, capsys):
    from repro.obs import start_run
    from repro.obs.schema import validate_metrics_path, validate_status_path

    spec, per_node, files = _raft_log_files(tmp_path)
    stats = SuccessorCache.for_spec(spec).stats()
    events = sum(1 for _ in read_log_files(files))
    assert stats["decode_hits"] + stats["decode_misses"] == events
    assert stats["decode_entries"] == stats["decode_misses"] > 0
    assert stats["splice_entries"] == stats["splice_misses"] > 0

    sink = tmp_path / "probe.jsonl"
    run = start_run(command="test", sink_path=str(sink), run_id="decode-plan")
    try:
        record_cache_telemetry(run, stats)
    finally:
        run.close(exit_code=0)
    validate_metrics_path(str(sink))

    metrics_path, status = tmp_path / "trace.jsonl", tmp_path / "status.json"
    argv = ["trace", "raftmongo", "--param", "n_nodes=2", *files]
    assert main(argv + ["--metrics-out", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "successor cache: " in out and "[generic]" in out
    validate_metrics_path(str(metrics_path))
    records = [json.loads(line) for line in metrics_path.read_text().splitlines()]
    (metrics,) = [r for r in records if r["kind"] == "metrics"]
    counters = metrics["counters"]
    assert counters["trace.decode_misses"] == counters["trace.decode_entries"] > 0
    assert counters["trace.decode_misses"] + counters.get("trace.decode_hits", 0) == events

    assert main(["watch", "raftmongo", "--param", "n_nodes=2", _busiest(files), "--once",
                 "--status-file", str(status)]) in (0, 1)
    capsys.readouterr()
    cache = validate_status_path(str(status))["successor_cache"]
    assert cache["decode_misses"] > 0 and cache["splice_entries"] >= 0
