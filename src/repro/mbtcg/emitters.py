"""Emitters: write a generated suite as a corpus, pytest source, or logs.

Three output formats, each closing the MBTCG -> MBTC loop a different way:

* :func:`write_corpus` / :func:`replay_corpus` -- a JSON-lines corpus (one
  header line, one line per test case) that :func:`replay_corpus` reads back,
  rebuilds via the spec registry, and pushes straight through
  :func:`repro.pipeline.runner.check_traces`.  This is the production data
  product: CI generates the corpus once and replays it on every commit.
* :func:`write_pytest_module` -- runnable pytest source, the shape the paper's
  Realm Sync team emitted (4,913 C++ test cases from the spec's behaviours);
  each generated test replays its behaviour through ``check_trace``.
* :func:`write_log_suite` -- per-node JSON-lines log files in the
  :mod:`repro.pipeline.logs` format, so generated cases replay through the
  full log-ingestion path (``python -m repro trace``), exercising the same
  pipeline real server logs take.

All value encoding goes through :func:`repro.tla.values.encode_value` /
``decode_value``, the library's one JSON convention for TLA values, and
every replay decodes through :func:`corpus_traces`: each state as the
snapshot anchor of a log, on the decode plan log events go through.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..pipeline.logs import SNAPSHOT_ACTION, LogEvent, anchor_binding, write_per_node_logs
from ..pipeline.runner import BatchReport, check_traces
from ..tla.registry import SpecEntry, build_spec, get_entry
from ..tla.spec import Specification
from ..tla.trace import BoundTrace, SuccessorCache
from ..tla.values import encode_value
from .generator import GeneratedSuite, GenerationError

__all__ = [
    "CORPUS_FORMAT",
    "CORPUS_VERSION",
    "corpus_traces",
    "read_corpus",
    "replay_corpus",
    "write_corpus",
    "write_log_suite",
    "write_pytest_module",
]

CORPUS_FORMAT = "repro-mbtcg-corpus"
CORPUS_VERSION = 1


def _require_registry_ref(suite: GeneratedSuite) -> Tuple[str, Dict[str, Any]]:
    if suite.registry_ref is None:
        raise GenerationError(
            f"suite for {suite.spec_name!r} has no registry_ref; generate from "
            "a spec built via repro.tla.registry.build_spec so replays can "
            "rebuild it by name"
        )
    return suite.registry_ref


def _case_payload(suite: GeneratedSuite, case) -> Dict[str, Any]:
    return {
        "id": case.case_id,
        "actions": list(case.actions),
        "states": [
            {name: encode_value(state[name]) for name in suite.variables}
            for state in case.states
        ],
    }


def write_corpus(suite: GeneratedSuite, path: str) -> int:
    """Write the suite as a JSON-lines corpus; returns the case count.

    Line 1 is the header (format tag, spec registry reference, strategy and
    generation statistics); every further line is one test case with its
    behaviour fingerprint id, action names, and JSON-encoded states.
    """
    registry_name, params = _require_registry_ref(suite)
    header = {
        "format": CORPUS_FORMAT,
        "version": CORPUS_VERSION,
        "spec": registry_name,
        "params": params,
        "spec_name": suite.spec_name,
        "variables": list(suite.variables),
        "strategy": suite.strategy,
        "max_length": suite.max_length,
        "seed": suite.seed,
        "case_count": len(suite.cases),
        "stats": {
            "enumerated": suite.stats.enumerated,
            "emitted": suite.stats.emitted,
            "dedup_ratio": round(suite.stats.dedup_ratio, 4),
            "graph_states": suite.stats.graph_states,
            "graph_edges": suite.stats.graph_edges,
            "coverage_pair_count": suite.stats.coverage_pair_count,
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for case in suite.cases:
            handle.write(json.dumps(_case_payload(suite, case), sort_keys=True) + "\n")
    return len(suite.cases)


def read_corpus(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a corpus file back; returns (header, raw case payloads)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise GenerationError(f"corpus file {path!r} is empty")
    header = json.loads(lines[0])
    if header.get("format") != CORPUS_FORMAT:
        raise GenerationError(
            f"{path!r} is not a {CORPUS_FORMAT} file (format="
            f"{header.get('format')!r})"
        )
    if header.get("version") != CORPUS_VERSION:
        raise GenerationError(
            f"corpus {path!r} has unsupported version {header.get('version')!r}; "
            f"this reader supports version {CORPUS_VERSION}"
        )
    cases = [json.loads(line) for line in lines[1:]]
    if len(cases) != header.get("case_count", len(cases)):
        raise GenerationError(
            f"corpus {path!r} declares {header.get('case_count')} case(s) "
            f"but contains {len(cases)}; the file is truncated"
        )
    return header, cases


def corpus_traces(
    spec: Specification, cases: List[Dict[str, Any]]
) -> Iterator[BoundTrace]:
    """Rebuild each raw corpus case into the trace ``check_traces`` takes."""
    cache = SuccessorCache.for_spec(spec)
    for case in cases:
        trace = BoundTrace(cache)
        trace.bindings.extend(
            anchor_binding(cache, LogEvent(0.0, None, SNAPSHOT_ACTION, raw, f"case {case['id']}"))
            for raw in case["states"]
        )
        yield trace


def replay_corpus(
    path: str,
    *,
    workers: int = 4,
    executor: str = "thread",
) -> Tuple[Dict[str, Any], BatchReport]:
    """Replay a corpus file through ``check_traces`` (the MBTCG -> MBTC loop).

    The spec is rebuilt from the header's registry reference, so the file is
    self-contained: any machine with the library replays it.  Returns the
    corpus header and the batch report; a correct generator yields a report
    with zero failures.
    """
    header, cases = read_corpus(path)
    spec = build_spec(header["spec"], **header.get("params", {}))
    report = check_traces(
        spec, corpus_traces(spec, cases), workers=workers, executor=executor
    )
    return header, report


# ---------------------------------------------------------------------------
# pytest source emitter
# ---------------------------------------------------------------------------

_PYTEST_TEMPLATE = '''"""MBTCG-generated replay suite for {spec_name} -- do not edit by hand.

Regenerate with:
    python -m repro generate {regenerate_args} \\
        --pytest-out <this file>

Each test case is one enumerated behaviour of the specification; the test
replays it through the MBTC trace checker and asserts conformance.
"""

import json

import pytest

from repro.mbtcg import corpus_traces
from repro.tla.registry import build_spec
from repro.tla.trace import check_trace

SPEC_NAME = {registry_name!r}
SPEC_PARAMS = {params!r}

_CASES = json.loads({cases_json!r})


@pytest.fixture(scope="module")
def spec():
    return build_spec(SPEC_NAME, **SPEC_PARAMS)


@pytest.mark.parametrize("case", _CASES, ids=[case["id"] for case in _CASES])
def test_behaviour_replays_through_mbtc(spec, case):
    (trace,) = corpus_traces(spec, [case])
    result = check_trace(spec, trace)
    assert result.ok, result.summary()
'''


def _regenerate_args(
    suite: GeneratedSuite, registry_name: str, params: Dict[str, Any]
) -> str:
    """The ``repro generate`` flags that reproduce this exact suite."""
    parts = [f"--spec {registry_name}"]
    for key in sorted(params):
        parts.append(f"--param {key}={params[key]}")
    parts.append(f"--strategy {suite.strategy}")
    parts.append(f"--max-length {suite.max_length}")
    if suite.strategy == "random":
        parts.append(f"--tests {suite.n_tests} --seed {suite.seed}")
    return " ".join(parts)


def write_pytest_module(suite: GeneratedSuite, path: str) -> int:
    """Write the suite as a runnable pytest module; returns the case count."""
    registry_name, params = _require_registry_ref(suite)
    cases_json = json.dumps(
        [_case_payload(suite, case) for case in suite.cases], sort_keys=True
    )
    source = _PYTEST_TEMPLATE.format(
        spec_name=suite.spec_name,
        registry_name=registry_name,
        params=params,
        regenerate_args=_regenerate_args(suite, registry_name, params),
        cases_json=cases_json,
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    return len(suite.cases)


# ---------------------------------------------------------------------------
# per-node log emitter
# ---------------------------------------------------------------------------


def write_log_suite(
    suite: GeneratedSuite,
    spec: Specification,
    directory: str,
    *,
    entry: Optional[SpecEntry] = None,
    limit: Optional[int] = None,
) -> List[str]:
    """Write cases as per-node log files replayable by ``python -m repro trace``.

    Each case becomes ``case-<id>-node<N>.jsonl`` files in the
    :mod:`repro.pipeline.logs` event format.  Requires the spec's registry
    entry to carry the log-pipeline metadata (``per_node_variables`` /
    ``node_count``); returns every path written.
    """
    registry_name, _params = _require_registry_ref(suite)
    if entry is None:
        entry = get_entry(registry_name)
    if entry.per_node_variables is None or entry.node_count is None:
        raise GenerationError(
            f"specification {registry_name!r} was registered without "
            "per_node_variables/node_count metadata, which the log emitter "
            "requires"
        )
    per_node = entry.per_node_variables(spec)
    nodes = entry.node_count(spec)
    paths: List[str] = []
    selected = suite.cases if limit is None else suite.cases[:limit]
    for case in selected:
        paths.extend(
            write_per_node_logs(
                spec,
                list(case.states),
                per_node=per_node,
                nodes=nodes,
                directory=directory,
                basename=f"case-{case.case_id}",
                actions=list(case.actions),
            )
        )
    return paths
