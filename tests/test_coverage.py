"""Coverage report tests: the cross-run merging TLC lacks (Section 4.2.4)."""

import json
import random

import pytest
from coverage_reference import coverage_of_trace

from repro.engine import check_spec
from repro.tla import check_trace
from repro.pipeline.runner import check_one
from repro.pipeline.workload import generate_workload
from repro.tla.coverage import CoverageReport, merge_reports
from repro.tla.errors import TraceInitialStateMismatch
from repro.tla.registry import build_spec


@pytest.fixture(scope="module")
def checked(locking_spec):
    return check_spec(locking_spec, collect_graph=True, check_properties=False)


@pytest.fixture()
def trace_report(locking_spec, checked):
    walk = checked.graph.random_walk(random.Random(3), max_length=10)
    states = [state for _action, state in walk]
    result = check_trace(locking_spec, states)
    return coverage_of_trace(
        locking_spec,
        states,
        matched_actions=result.matched_actions,
        graph=checked.graph,
    )


def test_coverage_of_trace_counts_states_and_actions(trace_report, checked):
    assert 0 < trace_report.visited_count <= 10
    assert trace_report.reachable_count == checked.distinct_states
    assert trace_report.trace_count == 1
    assert 0 < trace_report.state_fraction() < 1
    assert set(trace_report.action_counts) <= {"Acquire", "Release"}


def test_json_round_trip(trace_report):
    clone = CoverageReport.from_json(trace_report.to_json())
    assert clone == trace_report
    assert clone.to_json() == trace_report.to_json()


def test_merge_unions_states_and_sums_actions(trace_report):
    other = CoverageReport(
        spec_name=trace_report.spec_name,
        visited_fingerprints={1, 2},
        action_counts={"Acquire": 1},
        trace_count=2,
    )
    merged = trace_report.merge(other)
    assert merged.visited_fingerprints == trace_report.visited_fingerprints | {1, 2}
    assert merged.trace_count == trace_report.trace_count + 2
    assert (
        merged.action_counts["Acquire"]
        == trace_report.action_counts.get("Acquire", 0) + 1
    )
    # merge() must not mutate its operands
    assert 1 not in trace_report.visited_fingerprints


def test_absorb_is_in_place_and_equivalent_to_merge(trace_report):
    other = CoverageReport(
        spec_name=trace_report.spec_name,
        visited_fingerprints={7},
        action_counts={"Release": 3},
        trace_count=1,
    )
    merged = trace_report.merge(other)
    accumulator = CoverageReport.from_json(trace_report.to_json())
    returned = accumulator.absorb(other)
    assert returned is accumulator
    assert accumulator == merged


def test_merge_rejects_mismatched_specs(trace_report):
    alien = CoverageReport(spec_name="Other")
    with pytest.raises(ValueError):
        trace_report.merge(alien)
    with pytest.raises(ValueError):
        trace_report.absorb(alien)


def test_merge_reports_folds_many(trace_report):
    reports = [
        CoverageReport(
            spec_name=trace_report.spec_name,
            visited_fingerprints={i},
            trace_count=1,
        )
        for i in range(5)
    ]
    merged = merge_reports(reports)
    assert merged.visited_fingerprints == {0, 1, 2, 3, 4}
    assert merged.trace_count == 5
    with pytest.raises(ValueError):
        merge_reports([])


def test_merge_reports_absorbs_into_one_copy(trace_report, monkeypatch):
    """The fold copies the first report once, not the union once per report."""
    first = CoverageReport.from_json(trace_report.to_json())
    others = [
        CoverageReport(spec_name=first.spec_name, visited_fingerprints={i}, trace_count=1)
        for i in range(3)
    ]
    expected = first.merge(others[0]).merge(others[1]).merge(others[2])

    def no_merge(self, other):
        raise AssertionError("merge_reports copied through merge()")

    monkeypatch.setattr(CoverageReport, "merge", no_merge)
    merged = merge_reports([first, *others])
    assert merged == expected and merged is not first
    assert first == trace_report  # the inputs are left as they were


@pytest.mark.parametrize("missing", ["spec_name", "visited_fingerprints", "action_counts"])
def test_a_report_missing_a_field_is_refused_by_name(trace_report, missing):
    payload = json.loads(trace_report.to_json())
    del payload[missing]
    with pytest.raises(ValueError, match=f"coverage report has no '{missing}' field"):
        CoverageReport.from_json(json.dumps(payload))


def test_a_report_of_the_wrong_shape_is_refused(trace_report):
    payload = json.loads(trace_report.to_json())
    payload["visited_fingerprints"] = 5
    with pytest.raises(ValueError, match="coverage report is malformed"):
        CoverageReport.from_json(json.dumps(payload))


@pytest.mark.parametrize("spec_name", ["locking", "raftmongo", "ot_array"])
def test_fold_coverage_equals_the_reference_walk(spec_name):
    # The fold fills its report as it validates; coverage_of_trace is the
    # independent second walk it replaced.  Passing, mid-trace-failing and
    # rejected-at-state-0 traces must all agree.
    spec = build_spec(spec_name)
    seen = set()
    for generated in generate_workload(spec, n_traces=60, seed=4, fault_rate=0.6):
        result, coverage = check_one(
            spec,
            None,
            generated.states,
            allow_stuttering=True,
            require_initial=True,
            collect_coverage=True,
        )
        reference = coverage_of_trace(
            spec,
            result.validated_prefix(generated.states),
            matched_actions=result.matched_actions,
        )
        assert coverage.to_json() == reference.to_json()
        rejected_at_0 = isinstance(result.failure, TraceInitialStateMismatch)
        seen.add("pass" if result.ok else "state-0" if rejected_at_0 else "mid-trace")
    assert seen == {"pass", "state-0", "mid-trace"}
