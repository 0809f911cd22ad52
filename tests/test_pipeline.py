"""End-to-end tests for the batch pipeline: logs, workload, runner, CLI."""

import json
import random

import pytest

from repro.pipeline import (
    GeneratedTrace,
    check_traces,
    events_from_trace,
    events_to_trace,
    generate_trace,
    generate_workload,
    merge_event_streams,
    parse_log_lines,
)
from repro.pipeline.cli import main, parse_params
from repro.pipeline.logs import LogEvent, LogParseError, decode_value, encode_value
from repro.specs import locking
from repro.tla import NULL, Record, check_trace
from repro.tla.coverage import CoverageReport
from repro.tla.errors import SpecError
from repro.tla.registry import build_spec, get_entry


class TestLogLayer:
    def test_value_encoding_round_trips_null_records_and_tuples(self):
        values = (NULL, Record(term=1, index=2), ("a", ("b",)), 3, "x")
        for value in values:
            assert decode_value(json.loads(json.dumps(encode_value(value)))) == value

    def test_parse_skips_noise_and_tolerates_prefixes(self):
        lines = [
            "plain server chatter, no json",
            '2026-07-27T00:00:01 TLA_PLUS_TRACE [repl] '
            '{"ts": 1, "node": 0, "action": "Acquire", "vars": {"held": ["IS", "None", "None"]}}',
            '{"unrelated": "json without an action"}',
        ]
        events = list(parse_log_lines(lines, location="node0.log"))
        assert len(events) == 1
        assert events[0].action == "Acquire"
        assert events[0].node == 0
        # The payload as logged: decoding waits for the fold, where the spec is known.
        assert events[0].vars == {"held": ["IS", "None", "None"]}
        assert events[0].location == "node0.log:2"

    def test_malformed_event_raises(self):
        with pytest.raises(LogParseError):
            list(parse_log_lines(['{"action": "A", "node": "zero", "ts": 1}']))

    def test_truncated_event_raises_instead_of_shortening_the_trace(self):
        # A node crashing mid-write must fail the run, not shrink the trace.
        with pytest.raises(LogParseError, match="truncated"):
            list(parse_log_lines(['{"ts": 5, "node": 1, "action": "Acq']))

    def test_non_initial_trace_round_trips_via_snapshot_anchor(self, locking_spec):
        generated = generate_trace(locking_spec, random.Random(6), min_steps=6, max_steps=9)
        initials = locking_spec.initial_states()
        start = next(
            i for i, state in enumerate(generated.states) if state not in initials
        )
        suffix = generated.states[start:]
        events = events_from_trace(locking_spec, suffix, per_node=("held",))
        assert events[0].action == "<snapshot>"
        rebuilt = events_to_trace(locking_spec, events, per_node=("held",))
        assert rebuilt == suffix
        # The rebuilt trace keeps failing the initial-state check, so a
        # fault-injected drop-head execution cannot read back as PASS.
        assert not check_trace(locking_spec, rebuilt).ok

    def test_merge_event_streams_orders_by_timestamp(self):
        stream_a = [LogEvent(ts=1, node=0, action="A"), LogEvent(ts=4, node=0, action="C")]
        stream_b = [LogEvent(ts=2, node=1, action="B")]
        merged = list(merge_event_streams([stream_a, stream_b]))
        assert [event.action for event in merged] == ["A", "B", "C"]

    def test_events_to_trace_rejects_unknown_variables_and_nodes(self):
        spec = locking.build_spec()
        with pytest.raises(LogParseError):
            events_to_trace(
                spec,
                [LogEvent(ts=1, node=0, action="A", vars={"nope": 1})],
                per_node=("held",),
            )
        with pytest.raises(LogParseError):
            events_to_trace(
                spec,
                [LogEvent(ts=1, node=9, action="A", vars={"held": ("IS", "None", "None")})],
                per_node=("held",),
            )

    @pytest.mark.parametrize(
        "spec_name,params",
        [("locking", {}), ("raftmongo", {"n_nodes": 2}), ("raftmongo", {"variant": "original"})],
    )
    def test_trace_to_events_to_trace_round_trip(self, spec_name, params):
        spec = build_spec(spec_name, **params)
        per_node = get_entry(spec_name).per_node_variables(spec)
        generated = generate_trace(spec, random.Random(1), min_steps=8, max_steps=12)
        events = events_from_trace(
            spec, generated.states, per_node=per_node, actions=generated.actions
        )
        rebuilt = events_to_trace(spec, events, per_node=per_node)
        assert rebuilt == generated.states


class TestWorkload:
    def test_generated_traces_are_valid_behaviours(self, locking_spec):
        for generated in generate_workload(locking_spec, n_traces=20, seed=9):
            assert generated.expect_ok and generated.fault is None
            assert check_trace(locking_spec, generated.states).ok

    def test_generation_is_deterministic_per_seed(self, locking_spec):
        first = [t.states for t in generate_workload(locking_spec, n_traces=5, seed=3)]
        second = [t.states for t in generate_workload(locking_spec, n_traces=5, seed=3)]
        different = [t.states for t in generate_workload(locking_spec, n_traces=5, seed=4)]
        assert first == second
        assert first != different

    def test_fault_labels_are_trustworthy(self, locking_spec):
        saw_fault = False
        for generated in generate_workload(
            locking_spec, n_traces=40, seed=1, fault_rate=0.5
        ):
            verdict = check_trace(locking_spec, generated.states).ok
            assert verdict == generated.expect_ok, generated.fault
            saw_fault = saw_fault or generated.fault is not None
        assert saw_fault

    def test_stuttering_workload_checks_clean(self, locking_spec):
        for generated in generate_workload(
            locking_spec, n_traces=5, seed=2, stutter_probability=0.3
        ):
            assert check_trace(locking_spec, generated.states).ok


class TestBatchRunner:
    def test_batch_verdicts_and_merged_coverage(self, locking_spec):
        workload = list(
            generate_workload(locking_spec, n_traces=60, seed=11, fault_rate=0.25)
        )
        expected_failures = sum(1 for t in workload if not t.expect_ok)
        report = check_traces(locking_spec, workload, reachable_count=544)
        assert (report.workers, report.executor) == (1, "thread")
        assert report.ok
        assert report.total == 60
        assert report.failed == expected_failures
        assert report.passed == 60 - expected_failures
        assert not report.surprises
        coverage = report.coverage
        assert coverage.trace_count == 60
        assert 0 < coverage.visited_count <= 544
        assert coverage.state_fraction() == coverage.visited_count / 544
        assert report.cache_hits > 0
        assert "PASS" in report.summary()
        pooled = check_traces(
            build_spec("locking"), workload, workers=2, executor="process", reachable_count=544
        )
        assert pooled.ok
        assert (pooled.passed, pooled.failed) == (report.passed, report.failed)
        assert pooled.coverage.to_json() == coverage.to_json()

    def test_inline_checking_starts_no_thread(self, locking_spec, started_threads):
        workload = list(generate_workload(locking_spec, n_traces=5, seed=11))
        assert check_traces(locking_spec, workload, workers=1).passed == 5
        assert started_threads == []

    def test_threads_are_refused_not_ignored(self, locking_spec):
        with pytest.raises(ValueError, match="executor='process'"):
            check_traces(locking_spec, [], workers=4, executor="thread")
        # ... and the pool it names still needs a spec its workers can rebuild.
        with pytest.raises(ValueError, match="registry_ref"):
            check_traces(locking_spec, [], workers=2, executor="process")

    def test_plain_state_sequences_are_accepted(self, locking_spec):
        generated = generate_trace(locking_spec, random.Random(0), min_steps=5, max_steps=8)
        report = check_traces(locking_spec, [generated.states], workers=1)
        assert report.ok and report.total == 1 and report.passed == 1

    def test_unlabelled_failure_fails_the_batch(self, locking_spec):
        bad_state = locking_spec.make_state(
            held=(("X", "X", "X"), ("X", "X", "X"))
        )
        initial = locking_spec.initial_states()[0]
        report = check_traces(locking_spec, [[initial, bad_state]], workers=1)
        assert not report.ok
        assert report.failed == 1
        assert report.failures[0].detail

    def test_failed_traces_contribute_only_validated_states_to_coverage(
        self, locking_spec
    ):
        bad_state = locking_spec.make_state(held=(("X", "X", "X"), ("X", "X", "X")))
        initial = locking_spec.initial_states()[0]
        report = check_traces(locking_spec, [[initial, bad_state]], workers=1)
        # Only the witnessed prefix (the initial state) is covered; the
        # unreachable garbage state must not inflate the coverage fraction.
        assert report.coverage.visited_fingerprints == {initial.fingerprint()}
        rejected = check_traces(locking_spec, [[bad_state]], workers=1)
        assert rejected.coverage.visited_count == 0

    def test_checker_exception_becomes_error_outcome(self, locking_spec):
        # A malformed item (42 is neither a State nor a mapping) makes
        # check_trace raise; the runner must capture that as an error entry
        # instead of killing the whole batch (ISSUE 6 satellite).
        good = generate_trace(locking_spec, random.Random(1), min_steps=4, max_steps=6)
        initial = locking_spec.initial_states()[0]
        report = check_traces(locking_spec, [good.states, [initial, 42]], workers=1)
        assert report.total == 2
        assert report.passed == 1 and report.failed == 0
        assert len(report.errors) == 1
        assert not report.ok
        error = report.errors[0]
        assert error.error and "TypeError" in error.error
        assert not error.surprising  # errors are their own bucket
        assert "ERROR 1" in report.summary()

    def test_fail_fast_stops_after_first_error(self, locking_spec):
        initial = locking_spec.initial_states()[0]
        good = generate_trace(locking_spec, random.Random(2), min_steps=4, max_steps=6)
        traces = [[initial, 42]] + [good.states] * 5
        report = check_traces(locking_spec, traces, workers=1, fail_fast=True)
        assert report.stopped_early
        assert len(report.errors) == 1
        assert report.total < 6
        assert "fail-fast" in report.summary()
        # Without the flag the whole batch still runs.
        full = check_traces(locking_spec, traces, workers=1)
        assert full.total == 6 and not full.stopped_early


class TestRegistryAndCli:
    def test_parse_params_coerces_types(self):
        params = parse_params(("n_nodes=3", "variant=original", "flag=true", "rate=0.5"))
        assert params == {"n_nodes": 3, "variant": "original", "flag": True, "rate": 0.5}
        with pytest.raises(SpecError):
            parse_params(("malformed",))

    def test_build_spec_by_name_errors(self):
        with pytest.raises(SpecError):
            build_spec("unknown")
        with pytest.raises(SpecError):
            build_spec("locking", bogus_param=1)

    def test_cli_check_prints_tlc_style_summary(self, capsys):
        assert main(["check", "locking", "--no-properties"]) == 0
        output = capsys.readouterr().out
        assert "544 distinct states" in output
        assert "engine: fingerprint" in output

    def test_cli_check_exports_dot(self, tmp_path, capsys):
        dot_file = tmp_path / "graph.dot"
        code = main(
            [
                "check",
                "raftmongo",
                "--param",
                "n_nodes=2",
                "--engine",
                "states",
                "--dot",
                str(dot_file),
            ]
        )
        assert code == 0
        assert dot_file.read_text().startswith("digraph")

    def test_cli_simulate_batch_with_logs_and_coverage(self, tmp_path, capsys):
        log_dir = tmp_path / "logs"
        coverage_file = tmp_path / "coverage.json"
        code = main(
            [
                "simulate",
                "locking",
                "--traces",
                "40",
                "--seed",
                "5",
                "--fault-rate",
                "0.2",
                "--log-dir",
                str(log_dir),
                "--log-limit",
                "1",
                "--coverage-out",
                str(coverage_file),
                "--with-reachable",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "checked 40 trace(s)" in output
        assert "unexpected verdicts 0" in output
        report = CoverageReport.from_json(coverage_file.read_text())
        assert report.trace_count == 40
        assert report.reachable_count == 544

        # The written logs round-trip through the `trace` subcommand.
        log_files = sorted(str(path) for path in log_dir.iterdir())
        assert log_files
        assert main(["trace", "locking", *log_files]) == 0

    def test_cli_trace_detects_corrupt_log(self, tmp_path, capsys):
        log_file = tmp_path / "node0.jsonl"
        log_file.write_text(
            json.dumps(
                {
                    "ts": 1,
                    "node": 0,
                    "action": "Acquire",
                    "vars": {"held": ["X", "X", "X"]},
                }
            )
            + "\n"
        )
        code = main(["trace", "locking", str(log_file)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_cli_reports_spec_errors_cleanly(self, capsys):
        assert main(["check", "locking", "--param", "broken"]) == 2
        assert "error:" in capsys.readouterr().err
