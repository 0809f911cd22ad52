"""The telemetry layer: metrics primitives, spans, sinks, schema,
CLI wiring, and the byte-identity / determinism contracts of ISSUE 9."""

import json
import os
import re

import pytest

from repro.obs import (
    Histogram,
    MemorySink,
    MetricsRegistry,
    SchemaError,
    current,
    normalized,
    run_profiled,
    span,
    start_run,
    validate_metrics_lines,
    validate_metrics_path,
    validate_status_path,
)
from repro.pipeline.cli import main


@pytest.fixture(autouse=True)
def _no_leaked_run():
    """Every test must leave the process without an active run."""
    yield
    active = current()
    if active is not None:  # pragma: no cover - only on test bugs
        active.close()
        pytest.fail("test leaked an active telemetry run")


# --------------------------------------------------------------------------
# Metrics primitives


def test_histogram_bucket_edges():
    hist = Histogram(edges=(1, 2, 5))
    for value, bucket in ((1, 0), (1.0001, 1), (2, 1), (5, 2), (5.1, 3), (0, 0), (-1, 0)):
        before = list(hist.counts)
        hist.observe(value)
        after = list(hist.counts)
        changed = [i for i in range(len(after)) if after[i] != before[i]]
        assert changed == [bucket], f"value {value} landed in {changed}, not {bucket}"
    assert hist.count == 7
    assert hist.min == -1 and hist.max == 5.1
    # one overflow slot beyond the last edge
    assert len(hist.counts) == len(hist.edges) + 1


def test_a_histogram_keeps_its_bucket_layout():
    registry = MetricsRegistry()
    registry.observe("h", 1.0, edges=(1, 2))
    with pytest.raises(ValueError):
        registry.histogram("h", edges=(5, 6))


def test_registry_snapshot_is_the_json_metrics_record():
    registry = MetricsRegistry()
    registry.inc("check.walks", 3)
    registry.inc("check.walks", 2)
    registry.set_gauge("depth", 4.0)
    registry.set_gauge("depth", 9.0)
    registry.observe("task_seconds", 0.2)
    registry.observe("task_seconds", 0.4)
    snapshot = registry.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert snapshot["counters"] == {"check.walks": 5}  # increments add
    assert snapshot["gauges"] == {"depth": 9.0}  # a gauge keeps its last value
    histogram = snapshot["histograms"]["task_seconds"]
    assert histogram["count"] == 2 and histogram["sum"] == pytest.approx(0.6)
    assert sum(histogram["counts"]) == 2
    assert (histogram["min"], histogram["max"]) == (0.2, 0.4)


# --------------------------------------------------------------------------
# Spans and the run lifecycle


def test_span_times_without_an_active_run():
    assert current() is None
    with span("quiet") as sp:
        pass
    assert sp.elapsed >= 0.0


def test_spans_nest_and_record_parent_depth():
    run = start_run(command="test", sink=MemorySink(), run_id="spans")
    try:
        with span("outer"):
            with span("inner"):
                pass
    finally:
        run.close()
    spans = {r["name"]: r for r in run.sink.records if r["kind"] == "span"}
    assert spans["outer"]["parent"] is None and spans["outer"]["depth"] == 0
    assert spans["inner"]["parent"] == "outer" and spans["inner"]["depth"] == 1
    assert "span.inner.seconds" in run.registry.snapshot()["histograms"]


def test_span_stack_survives_exceptions():
    run = start_run(command="test", sink=MemorySink(), run_id="unwind")
    try:
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner", emit=False):
                    raise RuntimeError("boom")
        assert run.span_stack == []
        with span("after"):
            pass
    finally:
        run.close()
    after = [r for r in run.sink.records if r.get("name") == "after"][0]
    assert after["parent"] is None and after["depth"] == 0


def test_single_run_per_process_leaves_the_environment_alone(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_METRICS_OUT", raising=False)
    monkeypatch.delenv("REPRO_RUN_ID", raising=False)
    path = str(tmp_path / "m.jsonl")
    run = start_run(command="test", sink_path=path, run_id="envchan")
    try:
        assert "REPRO_METRICS_OUT" not in os.environ
        assert "REPRO_RUN_ID" not in os.environ
        with pytest.raises(RuntimeError):
            start_run(command="nested")
    finally:
        run.close()
    assert current() is None


def test_run_profiled_reports_hot_functions(capsys):
    assert run_profiled(lambda: sum(range(1000))) == 499500
    assert "profile: top" in capsys.readouterr().err


# --------------------------------------------------------------------------
# JSONL sink round-trip and schema validation through the CLI


def _metrics_record(path):
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return records, [r for r in records if r["kind"] == "metrics"][0]


def test_check_metrics_out_round_trips_and_matches_summary(tmp_path, capsys):
    path = str(tmp_path / "m.jsonl")
    assert main(["check", "locking", "--metrics-out", path]) == 0
    out = capsys.readouterr().out
    runs = validate_metrics_path(path)
    assert len(runs) == 1 and next(iter(runs.values()))["complete"]
    records, metrics = _metrics_record(path)
    counters = metrics["counters"]
    # The counters must agree with the printed summary line.
    assert f"{counters['check.distinct_states']} distinct states" in out
    assert f"{counters['check.generated_states']} states generated" in out
    assert metrics["labels"]["engine"] == "fingerprint"
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"
    assert records[-1]["status"] == "ok" and records[-1]["exit_code"] == 0


def test_check_reports_peak_rss_in_its_output_and_its_metrics(tmp_path, capsys):
    path = str(tmp_path / "m.jsonl")
    assert main(["check", "locking", "--metrics-out", path]) == 0
    out = capsys.readouterr().out.splitlines()
    engine_line = next(i for i, line in enumerate(out) if line.startswith("engine: "))
    assert re.fullmatch(r"peak RSS: \d+\.\d MB", out[engine_line + 1])
    validate_metrics_path(path)
    _records, metrics = _metrics_record(path)
    assert metrics["gauges"]["process.peak_rss_mb"] > 0


def test_metrics_env_channel_is_a_flag_substitute(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("REPRO_METRICS_OUT", path)
    assert main(["check", "locking"]) == 0
    capsys.readouterr()
    assert len(validate_metrics_path(path)) == 1


def test_metrics_out_is_deterministic_modulo_timestamps(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RUN_ID", "golden01")
    paths = [str(tmp_path / name) for name in ("a.jsonl", "b.jsonl")]
    for path in paths:
        assert main(["check", "locking", "--metrics-out", path]) == 0
    capsys.readouterr()
    normalized_streams = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            normalized_streams.append(
                [normalized(json.loads(line)) for line in handle if line.strip()]
            )
    assert normalized_streams[0] == normalized_streams[1]
    # run_start, command span, check.run span, metrics, run_end
    assert len(normalized_streams[0]) == 5


def test_progress_heartbeat_prints_to_stderr_not_the_sink(tmp_path, capsys):
    path = str(tmp_path / "prog.jsonl")
    assert (
        main(
            [
                "check",
                "locking",
                "--param",
                "n_threads=3",
                "--progress-every",
                "0.0001",
                "--metrics-out",
                path,
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "progress[" in err and "depth=" in err and "rate=" in err
    # the heartbeat is operator chatter, never telemetry data
    with open(path, "r", encoding="utf-8") as handle:
        assert all("progress" not in json.loads(line).get("kind", "") for line in handle)


def test_progress_without_metrics_out_still_beats(capsys):
    assert (
        main(["check", "locking", "--param", "n_threads=3", "--progress-every", "0.0001"])
        == 0
    )
    captured = capsys.readouterr()
    assert "progress[" in captured.err
    assert current() is None


def test_profile_flag_wraps_any_command(capsys):
    assert main(["check", "locking", "--profile"]) == 0
    assert "profile: top" in capsys.readouterr().err


def test_simulate_folds_runner_counters(tmp_path, capsys):
    path = str(tmp_path / "sim.jsonl")
    assert main(["simulate", "locking", "--traces", "8", "--metrics-out", path]) == 0
    capsys.readouterr()
    _records, metrics = _metrics_record(path)
    counters = metrics["counters"]
    assert counters["runner.traces_total"] == 8
    assert counters["runner.batches"] == 1
    assert counters["runner.traces_passed"] == 8


def test_watch_once_writes_status_file_and_metrics(tmp_path, capsys):
    from repro.pipeline import logs as log_module
    from repro.pipeline.workload import generate_workload
    from repro.tla.registry import build_spec, get_entry

    spec = build_spec("locking")
    per_node = get_entry("locking").per_node_variables(spec)
    generated = next(iter(generate_workload(spec, n_traces=1, seed=3)))
    events = log_module.events_from_trace(
        spec, generated.states, per_node=per_node, actions=generated.actions
    )
    log = tmp_path / "trace.log"
    log_module.write_log_file(str(log), events)

    status = tmp_path / "status.json"
    metrics_path = tmp_path / "watch.jsonl"
    code = main(
        [
            "watch",
            "locking",
            str(log),
            "--once",
            "--status-file",
            str(status),
            "--metrics-out",
            str(metrics_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    document = validate_status_path(str(status))
    assert document["totals"]["events"] > 0
    assert document["sources"][str(log)]["done"] is True
    assert document["quarantine_rate"] == 0.0
    _records, metrics = _metrics_record(str(metrics_path))
    assert metrics["counters"]["watch.events"] == document["totals"]["events"]
    assert metrics["counters"]["watch.lines_consumed"] > 0
    assert document["run_id"] == metrics["run"]
    # Starved or busy: what was read, how often and how long the loop idled.
    assert metrics["counters"]["watch.bytes_read"] == log.stat().st_size
    assert metrics["counters"].get("watch.idle_waits", 0) == document["idle_waits"]
    assert metrics["gauges"]["watch.idle_seconds"] >= 0.0
    assert document["sources"][str(log)]["bytes_read"] == log.stat().st_size


def test_schema_rejects_malformed_streams():
    good = {"v": 1, "run": "r", "seq": 0, "ts": 0.0, "kind": "run_start", "command": "c"}
    with pytest.raises(SchemaError):
        validate_metrics_lines([json.dumps({**good, "kind": "nonsense"})])
    with pytest.raises(SchemaError):  # seq must increase per run
        validate_metrics_lines(
            [
                json.dumps(good),
                json.dumps({**good, "seq": 0, "kind": "run_end", "status": "ok"}),
            ]
        )
    with pytest.raises(SchemaError):  # streams open with run_start
        validate_metrics_lines(
            [json.dumps({"v": 1, "run": "r", "seq": 0, "ts": 0.0, "kind": "event", "name": "x"})]
        )


def test_schema_cli_validates_files(tmp_path, capsys):
    from repro.obs.schema import _main as schema_main

    path = str(tmp_path / "m.jsonl")
    assert main(["check", "locking", "--metrics-out", path]) == 0
    capsys.readouterr()
    assert schema_main(["--metrics", path]) == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{}\n")
    assert schema_main(["--metrics", str(bad)]) == 1
