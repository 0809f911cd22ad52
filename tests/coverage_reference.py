"""The coverage of one trace, worked out the slow way: the tests' reference.

``TraceFold`` fills a :class:`~repro.tla.coverage.CoverageReport` as it
validates states; :func:`coverage_of_trace` builds the same report from the
states alone -- ``State.fingerprint()`` uncached, ``spec.enabled_actions``
interpreted -- so the two can be compared.
"""

from typing import Any, Dict, Mapping, Optional, Sequence, Set, Union

from repro.tla.coverage import CoverageReport
from repro.tla.graph import StateGraph
from repro.tla.spec import Specification
from repro.tla.state import State


def coverage_of_trace(
    spec: Specification,
    trace_states: Sequence[Union[State, Mapping[str, Any]]],
    *,
    matched_actions: Sequence[Optional[str]] = (),
    graph: Optional[StateGraph] = None,
) -> CoverageReport:
    """Build a coverage report from one checked trace.

    ``matched_actions`` is the per-step action attribution that
    :func:`repro.tla.trace.check_trace` returns; it lets the report count how
    often each specification action was witnessed by the implementation.
    """
    fingerprints: Set[int] = set()
    enabled_counts: Dict[str, int] = {}
    for item in trace_states:
        state = item if isinstance(item, State) else spec.make_state(**item)
        fingerprints.add(state.fingerprint())
        for name in spec.enabled_actions(state):
            enabled_counts[name] = enabled_counts.get(name, 0) + 1
    action_counts: Dict[str, int] = {}
    for name in matched_actions:
        if name and name != "<stutter>":
            action_counts[name] = action_counts.get(name, 0) + 1
    return CoverageReport(
        spec_name=spec.name,
        visited_fingerprints=fingerprints,
        action_counts=action_counts,
        reachable_count=len(graph) if graph is not None else None,
        trace_count=1,
        enabled_action_counts=enabled_counts,
    )
