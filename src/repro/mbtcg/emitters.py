"""Emitters: write a generated suite as a corpus, pytest source, or logs.

Three output formats, each closing the MBTCG -> MBTC loop a different way:

* :func:`write_corpus` / :func:`replay_corpus` -- a JSON-lines corpus that
  :func:`replay_corpus` reads back, rebuilds via the spec registry, and pushes
  straight through :func:`repro.pipeline.runner.check_traces`.  This is the
  production data product: CI generates the corpus once and replays it on
  every commit.  After the header line the file is a *state table*: a
  ``{"state": n, "vars": {...}}`` row holds each distinct state once,
  numbered from 0 in order of first use, and a ``{"id", "actions",
  "states": [n, ...]}`` row per test case names its states by number, every
  one of them defined above it.  A suite's behaviours run through the same
  few states over and over, so the table is what keeps the file -- and every
  stage that touches it -- proportional to the distinct states.
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
:func:`read_corpus` hands every case that names a state row that row's one
payload object, and :func:`corpus_traces` decodes and binds a payload object
once, so cases share bindings the way they shared rows.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..pipeline.logs import SNAPSHOT_ACTION, LogEvent, anchor_binding, write_trace_logs
from ..pipeline.runner import BatchReport, check_traces
from ..tla.registry import SpecEntry, build_spec, get_entry
from ..tla.spec import Specification
from ..tla.state import State
from ..tla.trace import Binding, BoundTrace, SuccessorCache
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
#: Version 3: case ids are behaviour fingerprints mod ``2**64 - 59``
#: (:mod:`repro.tla.values`); a version-2 corpus carries the older digests.
CORPUS_VERSION = 3

_CASE_KEYS = frozenset(("id", "actions", "states"))


def _require_registry_ref(suite: GeneratedSuite) -> Tuple[str, Dict[str, Any]]:
    if suite.registry_ref is None:
        raise GenerationError(
            f"suite for {suite.spec_name!r} has no registry_ref; generate from "
            "a spec built via repro.tla.registry.build_spec so replays can "
            "rebuild it by name"
        )
    return suite.registry_ref


def _suite_rows(suite: GeneratedSuite) -> Iterator[Dict[str, Any]]:
    """The suite as corpus rows, in file order: each case row behind the state
    rows of the states it is the first to name.  Every emitter that embeds
    states builds them here, so each distinct state is encoded once."""
    numbers: Dict[State, int] = {}
    for case in suite.cases:
        named = []
        for state in case.states:
            number = numbers.get(state)
            if number is None:
                number = numbers[state] = len(numbers)
                yield {
                    "state": number,
                    "vars": {name: encode_value(state[name]) for name in suite.variables},
                }
            named.append(number)
        yield {"id": case.case_id, "actions": list(case.actions), "states": named}


def write_corpus(suite: GeneratedSuite, path: str) -> int:
    """Write the suite as a JSON-lines corpus; returns the case count.

    Line 1 is the header (format tag, spec registry reference, strategy,
    row counts and generation statistics); every further line is a state row
    or a case row (see the module docstring).
    """
    registry_name, params = _require_registry_ref(suite)
    rows = list(_suite_rows(suite))
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
        "state_count": len(rows) - len(suite.cases),
        "stats": {
            "enumerated": suite.stats.enumerated,
            "emitted": suite.stats.emitted,
            "dedup_ratio": round(suite.stats.dedup_ratio, 4),
            "graph_states": suite.stats.graph_states,
            "graph_edges": suite.stats.graph_edges,
            "coverage_pair_count": suite.stats.coverage_pair_count,
        },
    }
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(encode(row) + "\n" for row in (header, *rows))
    return len(suite.cases)


def read_corpus(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a corpus file back; returns (header, cases).

    A case is its row with ``states`` resolved: each number replaced by the
    payload of the state row it names -- the same object wherever the same row
    is named, which is what :func:`corpus_traces` decodes once.  Every row is
    validated here: a malformed file is one :class:`GenerationError` naming
    ``path:lineno``, never a traceback further down and never a wrong state.
    """
    header: Optional[Dict[str, Any]] = None
    table: List[Dict[str, Any]] = []
    cases: List[Dict[str, Any]] = []
    lineno = 0

    def refused(problem: str) -> GenerationError:
        return GenerationError(f"{path}:{lineno}: {problem}")

    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise refused(f"not valid JSON ({exc})") from None
            if header is None:
                header = _checked_header(path, row)
                if "spec" not in header:
                    raise refused("the header is missing 'spec'")
            elif isinstance(row, dict) and "state" in row:
                number, payload = row["state"], row.get("vars")
                if type(number) is not int or number != len(table):
                    raise refused(
                        f"state row is numbered {number!r}, expected {len(table)}: "
                        "state rows count up from 0"
                    )
                if not isinstance(payload, dict):
                    raise refused("state row has no 'vars' object")
                table.append(payload)
            elif isinstance(row, dict) and not _CASE_KEYS.isdisjoint(row):
                missing = sorted(_CASE_KEYS.difference(row))
                if missing:
                    raise refused(f"case row is missing {', '.join(map(repr, missing))}")
                actions, numbers = row["actions"], row["states"]
                if not isinstance(actions, list) or not isinstance(numbers, list):
                    raise refused("case row's 'actions' and 'states' must be lists")
                if len(actions) != len(numbers):
                    raise refused(
                        f"case row has {len(actions)} action(s) for {len(numbers)} state(s)"
                    )
                for number in numbers:
                    # Exactly an int in range: True is 1 and -1 the last row to a list.
                    if type(number) is not int or not 0 <= number < len(table):
                        raise refused(
                            f"case row names state {number!r}; the {len(table)} state "
                            "row(s) above it are numbered from 0"
                        )
                row["states"] = [table[number] for number in numbers]
                cases.append(row)
            else:
                raise refused("neither a state row nor a case row")
    if header is None:
        raise GenerationError(f"corpus file {path!r} is empty")
    for kind, found in (("state", len(table)), ("case", len(cases))):
        if header.get(f"{kind}_count") != found:
            raise GenerationError(
                f"corpus {path!r} declares {header.get(f'{kind}_count')} {kind} row(s) "
                f"but contains {found}; the file is truncated"
            )
    return header, cases


def _checked_header(path: str, header: Any) -> Dict[str, Any]:
    """The first row of ``path``, if it heads a corpus this reader reads."""
    tag = header.get("format") if isinstance(header, dict) else None
    if tag != CORPUS_FORMAT:
        raise GenerationError(f"{path!r} is not a {CORPUS_FORMAT} file (format={tag!r})")
    if header.get("version") != CORPUS_VERSION:
        raise GenerationError(
            f"corpus {path!r} has unsupported version {header.get('version')!r}; "
            f"this reader supports version {CORPUS_VERSION}"
        )
    return header


def corpus_traces(
    spec: Specification, cases: Iterable[Dict[str, Any]]
) -> Iterator[BoundTrace]:
    """Rebuild each corpus case into the trace ``check_traces`` takes.

    A payload object is decoded and bound once per call and interner epoch,
    however many cases name it: the cases :func:`read_corpus` returns share
    the :data:`~repro.tla.trace.Binding` of a state as they share its row.
    """
    cache = SuccessorCache.for_spec(spec)
    #: id(payload) -> (payload, binding): retaining the payload keeps its id.
    bound: Dict[int, Tuple[Dict[str, Any], Binding]] = {}
    epoch = cache.interner.evictions
    for case in cases:
        trace = BoundTrace(cache)
        if trace.epoch != epoch:
            # The interner evicted: bindings made before it name objects that
            # are canonical no longer, so this epoch's traces get their own.
            bound, epoch = {}, trace.epoch
        for raw in case["states"]:
            found = bound.get(id(raw))
            if found is None:
                event = LogEvent(0.0, None, SNAPSHOT_ACTION, raw, f"case {case['id']}")
                found = bound[id(raw)] = raw, anchor_binding(cache, event)
            trace.bindings.append(found[1])
        yield trace


def replay_corpus(path: str, *, workers: int = 1) -> Tuple[Dict[str, Any], BatchReport]:
    """Replay a corpus file through ``check_traces`` (the MBTCG -> MBTC loop).

    The spec is rebuilt from the header's registry reference, so the file is
    self-contained: any machine with the library replays it.  Returns the
    corpus header and the batch report; a correct generator yields a report
    with zero failures.  ``workers`` must be 1 (see :func:`check_traces`);
    it is kept only because ``benchmarks/`` still passes it.
    """
    header, cases = read_corpus(path)
    spec = build_spec(header["spec"], **header.get("params", {}))
    return header, check_traces(spec, corpus_traces(spec, cases), workers=workers)


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

# Corpus rows: a state row per distinct state, a case row naming its states by number.
_ROWS = json.loads({rows_json!r})
_STATES = [row["vars"] for row in _ROWS if "state" in row]
_CASES = [
    dict(row, states=[_STATES[number] for number in row["states"]])
    for row in _ROWS
    if "id" in row
]


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
    rows_json = json.dumps(list(_suite_rows(suite)), sort_keys=True)
    source = _PYTEST_TEMPLATE.format(
        spec_name=suite.spec_name,
        registry_name=registry_name,
        params=params,
        regenerate_args=_regenerate_args(suite, registry_name, params),
        rows_json=rows_json,
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

    Each of the first ``limit`` cases becomes ``case-<id>-node<N>.jsonl``
    files in the :mod:`repro.pipeline.logs` event format, through
    :func:`~repro.pipeline.logs.write_trace_logs`: the spec's registry entry
    must carry the log-pipeline metadata.  Returns every path written.
    """
    registry_name, _params = _require_registry_ref(suite)
    return write_trace_logs(
        spec,
        entry or get_entry(registry_name),
        ((f"case-{case.case_id}", case.states, case.actions) for case in suite.cases),
        directory,
        limit=limit,
    )
