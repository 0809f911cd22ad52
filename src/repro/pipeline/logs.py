"""Server-log ingestion: JSON-lines events -> ordered execution traces.

This is the reproduction of the log-to-trace half of the paper's MBTC
pipeline (Section 4.1, and ajdavis/repl-trace-checker): every node of the
system under test logs one JSON event whenever it executes a step that
corresponds to a specification action, recording its node id and the values
of the modelled variables it changed.  This module parses those logs, merges
the per-node streams into one timestamp-ordered event sequence, and folds the
events into a sequence of full specification states starting from the spec's
initial state.

Event format (one JSON object per line, arbitrary prefix text tolerated, so
real server log lines like ``... TLA_PLUS_TRACE [repl] {...}`` parse as-is)::

    {"ts": 12, "node": 1, "action": "ClientWrite", "vars": {"oplog": [...]}}

* ``ts`` -- a number; events are ordered by it when streams are merged.
* ``node`` -- the 0-indexed node (or thread) id, or ``null`` for an event
  that reports whole-variable values (used when one step changes several
  nodes' slots at once, e.g. an election flipping two roles).
* ``action`` -- the specification action the implementation claims it took.
  Informational: the trace checker re-derives the matching action itself.
* ``vars`` -- variable name to value.  For a node-scoped event each value is
  that node's slot of the variable; for a global event it is the whole value.

``NULL`` (the model constant) is encoded as ``{"__null__": true}`` because
JSON ``null`` cannot be distinguished from Python ``None``.
"""

from __future__ import annotations

import heapq
import json
import os
import shlex
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..tla import NULL, Record, Specification, State
from ..tla.errors import ReproError

__all__ = [
    "JsonLinesAdapter",
    "KeyValueAdapter",
    "LOG_ADAPTERS",
    "LogAdapter",
    "LogEvent",
    "LogIngestError",
    "LogParseError",
    "SNAPSHOT_ACTION",
    "adapter_names",
    "anchor_state",
    "decode_value",
    "encode_value",
    "apply_event",
    "events_from_trace",
    "events_to_trace",
    "format_event",
    "get_adapter",
    "split_location",
    "merge_event_streams",
    "parse_log_lines",
    "read_log_files",
    "register_adapter",
    "trace_from_logs",
    "write_log_file",
    "write_per_node_logs",
]


class LogParseError(ReproError):
    """A log line that looks like a trace event cannot be decoded.

    ``path`` and ``lineno`` identify the offending line when known, so batch
    errors and streaming quarantine records point at the exact input to look
    at instead of only quoting a snippet.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        lineno: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.lineno = lineno

    def __reduce__(self):
        # Default exception pickling drops keyword-only attributes; workers
        # in a supervised pool must deliver the full (path, lineno) context.
        return (
            self.__class__,
            (str(self),),
            {"path": self.path, "lineno": self.lineno},
        )


class LogIngestError(ReproError):
    """A log file disappeared or turned unreadable while being ingested."""


def split_location(location: str) -> Tuple[Optional[str], Optional[int]]:
    """Best-effort ``(path, lineno)`` from a ``"path:lineno"`` location string."""
    path, sep, tail = location.rpartition(":")
    if sep and tail.isdigit():
        return path or None, int(tail)
    return (location if location != "<memory>" else None), None


#: Action name of a full-state anchor event: it re-bases the trace on a
#: complete variable assignment instead of the spec's initial state, so
#: executions captured mid-run (or fault-injected ones) round-trip exactly.
SNAPSHOT_ACTION = "<snapshot>"


@dataclass(frozen=True)
class LogEvent:
    """One modelled step logged by one node of the system under test."""

    ts: float
    node: Optional[int]
    action: str
    vars: Dict[str, Any] = field(default_factory=dict)
    location: str = "<memory>"

    def to_json(self) -> Dict[str, Any]:
        return {
            "ts": self.ts,
            "node": self.node,
            "action": self.action,
            "vars": {name: encode_value(value) for name, value in self.vars.items()},
        }


# ---------------------------------------------------------------------------
# Value encoding: frozen TLA values <-> JSON data
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Render a frozen TLA value as JSON-serializable data."""
    if value == NULL:
        return {"__null__": True}
    if isinstance(value, Record):
        return {name: encode_value(item) for name, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [encode_value(item) for item in value]
    if isinstance(value, frozenset):
        raise LogParseError("sets cannot be encoded as JSON log values")
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`; dicts become Records, lists tuples."""
    if isinstance(value, dict):
        if value.get("__null__") is True:
            return NULL
        # Children come back frozen, so the record is built from them as they
        # are: ``Record(...)`` would re-freeze each one, once per nesting level.
        return Record._from_items(
            tuple(sorted((name, decode_value(item)) for name, item in value.items()))
        )
    if isinstance(value, list):
        return tuple(decode_value(item) for item in value)
    return value


# ---------------------------------------------------------------------------
# Log adapters: pluggable raw-line -> LogEvent parsers
# ---------------------------------------------------------------------------


class LogAdapter:
    """One external log format, parsed line by line into :class:`LogEvent`.

    The seam the repl-trace-checker exemplar motivates: real deployments log
    in whatever format their server framework emits, and MBTC must meet the
    logs where they are.  An adapter turns *one* raw line into one event
    (``None`` for noise -- non-trace lines are the common case in a server
    log), raising :class:`LogParseError` for a line that claims to be a trace
    event but cannot be decoded.  Adapters must be stateless: the streaming
    service calls one shared instance from many sources concurrently.
    """

    #: Registry key; ``repro trace --adapter`` and ``repro watch --adapter``
    #: select adapters by this name.
    name: str = "?"

    def parse_line(
        self, raw: str, *, path: str = "<memory>", lineno: int = 0
    ) -> Optional[LogEvent]:
        raise NotImplementedError


class JsonLinesAdapter(LogAdapter):
    """The native format: one JSON object per line, arbitrary prefix text.

    Lines without an embedded JSON object, and JSON lines without an
    ``action`` field (ordinary or structured server logging), are noise.  A
    line that mentions ``"action"`` but cannot be decoded -- the signature of
    a half-written trace event from a crashing node -- is an error, because
    it must fail (or quarantine) rather than silently produce a shorter trace
    that checks a different execution.
    """

    name = "jsonl"

    def parse_line(
        self, raw: str, *, path: str = "<memory>", lineno: int = 0
    ) -> Optional[LogEvent]:
        brace = raw.find("{")
        if brace < 0:
            return None
        snippet = raw[brace:]
        try:
            payload = json.loads(snippet)
        except json.JSONDecodeError as exc:
            if '"action"' in snippet:
                raise LogParseError(
                    f"truncated trace event at {path}:{lineno}: {exc}",
                    path=path,
                    lineno=lineno,
                ) from exc
            return None
        if not isinstance(payload, dict) or "action" not in payload:
            return None
        where = f"{path}:{lineno}"
        try:
            node = payload["node"]
            return LogEvent(
                ts=float(payload["ts"]),
                node=None if node is None else int(node),
                action=str(payload["action"]),
                vars={
                    name: decode_value(value)
                    for name, value in dict(payload.get("vars", {})).items()
                },
                location=where,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LogParseError(
                f"malformed trace event at {where}: {exc}", path=path, lineno=lineno
            ) from exc


class KeyValueAdapter(LogAdapter):
    """``key=value`` token format, e.g. syslog-style structured lines::

        ... ts=3 node=1 action=Lock vars='{"holder": 1}'

    Tokens are shell-quoted (so ``vars`` can carry JSON with spaces); lines
    without an ``action=`` token are noise.  Mostly a proof of the adapter
    seam -- and the test double for external formats -- rather than a format
    anyone ships.
    """

    name = "kv"

    def parse_line(
        self, raw: str, *, path: str = "<memory>", lineno: int = 0
    ) -> Optional[LogEvent]:
        if "action=" not in raw:
            return None
        where = f"{path}:{lineno}"
        try:
            tokens = shlex.split(raw)
        except ValueError as exc:
            raise LogParseError(
                f"unbalanced quoting at {where}: {exc}", path=path, lineno=lineno
            ) from exc
        fields = dict(
            token.split("=", 1) for token in tokens if "=" in token
        )
        if "action" not in fields:
            return None
        try:
            node = fields.get("node", "")
            raw_vars = json.loads(fields.get("vars", "{}"))
            return LogEvent(
                ts=float(fields["ts"]),
                node=None if node in ("", "null") else int(node),
                action=fields["action"],
                vars={
                    name: decode_value(value)
                    for name, value in dict(raw_vars).items()
                },
                location=where,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LogParseError(
                f"malformed trace event at {where}: {exc}", path=path, lineno=lineno
            ) from exc


#: Registered adapters by name; ``jsonl`` is the default everywhere.
LOG_ADAPTERS: Dict[str, LogAdapter] = {}


def register_adapter(adapter: LogAdapter) -> LogAdapter:
    """Make ``adapter`` selectable by name from the CLI and the service."""
    LOG_ADAPTERS[adapter.name] = adapter
    return adapter


def get_adapter(name: str) -> LogAdapter:
    try:
        return LOG_ADAPTERS[name]
    except KeyError:
        raise ReproError(
            f"unknown log adapter {name!r}; registered: {', '.join(adapter_names())}"
        ) from None


def adapter_names() -> List[str]:
    return sorted(LOG_ADAPTERS)


register_adapter(JsonLinesAdapter())
register_adapter(KeyValueAdapter())


# ---------------------------------------------------------------------------
# Parsing and merging
# ---------------------------------------------------------------------------


def parse_log_lines(
    lines: Iterable[str],
    *,
    location: str = "<memory>",
    adapter: Optional[LogAdapter] = None,
) -> Iterator[LogEvent]:
    """Yield the trace events embedded in an iterable of log lines.

    ``adapter`` selects the line format (default: the native
    :class:`JsonLinesAdapter`); lines the adapter reports as noise are
    skipped, undecodable trace events raise :class:`LogParseError` carrying
    the source ``(path, lineno)``.
    """
    parse = (adapter or LOG_ADAPTERS["jsonl"]).parse_line
    for line_number, raw in enumerate(lines, start=1):
        event = parse(raw, path=location, lineno=line_number)
        if event is not None:
            yield event


def merge_event_streams(streams: Iterable[Iterable[LogEvent]]) -> Iterator[LogEvent]:
    """Merge per-node event streams into one sequence ordered by timestamp.

    Each stream must already be internally ordered (a node's own log is);
    :func:`heapq.merge` then gives a total order without materializing the
    streams, exactly how the MongoDB tooling merged ``mongod.log`` files.
    """
    return heapq.merge(*streams, key=lambda event: event.ts)


def read_log_files(
    paths: Sequence[str], *, adapter: Optional[LogAdapter] = None
) -> Iterator[LogEvent]:
    """Parse and merge any number of per-node log files.

    A file that cannot be opened, or that disappears or turns unreadable
    mid-read (rotated away, NFS mount gone), raises :class:`LogIngestError`
    -- a :class:`~repro.tla.errors.ReproError` the CLI turns into a one-line
    diagnostic and exit code 2 -- instead of surfacing a raw ``OSError``
    traceback.
    """

    def stream(path: str) -> Iterator[LogEvent]:
        try:
            handle = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise LogIngestError(f"cannot read log file {path!r}: {exc}") from exc
        try:
            with handle:
                yield from parse_log_lines(handle, location=path, adapter=adapter)
        except OSError as exc:
            raise LogIngestError(
                f"log file {path!r} became unreadable mid-read: {exc}"
            ) from exc

    return merge_event_streams(stream(path) for path in paths)


# ---------------------------------------------------------------------------
# Trace building
# ---------------------------------------------------------------------------


def anchor_state(spec: Specification, event: LogEvent) -> Optional[State]:
    """The full state a trace's *first* event re-bases it on, if it is an anchor.

    The snapshot-anchor rule of the batch fold (:func:`events_to_trace`) and
    the streaming checker alike: a leading :data:`SNAPSHOT_ACTION` event
    replaces the spec's initial state as the trace's start; any other event
    (``None``) is an ordinary step.
    """
    if event.action != SNAPSHOT_ACTION:
        return None
    missing = [name for name in spec.schema.names if name not in event.vars]
    if missing or event.node is not None:
        path, lineno = split_location(event.location)
        raise LogParseError(
            f"snapshot event at {event.location} must be global and bind "
            f"every variable (missing: {missing})",
            path=path,
            lineno=lineno,
        )
    return spec.make_state(**event.vars)


def apply_event(
    spec: Specification,
    current: State,
    event: LogEvent,
    per_node_set: frozenset,
) -> State:
    """The state after ``event``: one step of the log -> trace fold.

    A node-scoped event replaces the node's slot of each reported per-node
    variable, a global event replaces whole variables.  Shared by the batch
    fold (:func:`events_to_trace`) and the streaming incremental checker, so
    both interpret an event identically.
    """
    updates: Dict[str, Any] = {}
    for name, value in event.vars.items():
        if name not in spec.schema:
            path, lineno = split_location(event.location)
            raise LogParseError(
                f"event at {event.location} reports unknown variable {name!r}",
                path=path,
                lineno=lineno,
            )
        if event.node is not None and name in per_node_set:
            slots = list(current[name])
            if not 0 <= event.node < len(slots):
                path, lineno = split_location(event.location)
                raise LogParseError(
                    f"event at {event.location} names node {event.node}, but "
                    f"variable {name!r} has {len(slots)} slots",
                    path=path,
                    lineno=lineno,
                )
            slots[event.node] = value
            updates[name] = tuple(slots)
        else:
            updates[name] = value
    return current.with_updates(**updates)


def events_to_trace(
    spec: Specification,
    events: Iterable[LogEvent],
    *,
    per_node: Sequence[str],
    initial: Optional[State] = None,
) -> List[State]:
    """Fold ordered events into a sequence of full specification states.

    The trace starts from the spec's (single) initial state -- the same
    starting assumption the repl-trace-checker makes -- unless the first
    event is a :data:`SNAPSHOT_ACTION` anchor carrying a full variable
    assignment, which re-bases the trace on that state instead.  Each further
    event yields the next state: see :func:`apply_event`.
    """
    if initial is None:
        initials = spec.initial_states()
        if len(initials) != 1:
            raise LogParseError(
                f"specification {spec.name!r} has {len(initials)} initial states; "
                "pass initial= explicitly to build a trace"
            )
        initial = initials[0]
    per_node_set = frozenset(per_node)
    trace: List[State] = []
    for event in events:
        if not trace:
            anchor = anchor_state(spec, event)
            trace.append(initial if anchor is None else anchor)
            if anchor is not None:
                continue
        trace.append(apply_event(spec, trace[-1], event, per_node_set))
    return trace or [initial]


def trace_from_logs(
    spec: Specification,
    paths: Sequence[str],
    *,
    per_node: Sequence[str],
    adapter: Optional[LogAdapter] = None,
) -> List[State]:
    """Convenience: parse, merge and fold log files into a state trace."""
    return events_to_trace(
        spec, read_log_files(paths, adapter=adapter), per_node=per_node
    )


# ---------------------------------------------------------------------------
# Writing (used by the synthetic workload generator and tests)
# ---------------------------------------------------------------------------


def format_event(event: LogEvent) -> str:
    """One JSON line for ``event``, parseable by :func:`parse_log_lines`."""
    return json.dumps(event.to_json(), sort_keys=True)


def write_log_file(path: str, events: Iterable[LogEvent]) -> int:
    """Write events as JSON lines; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(format_event(event) + "\n")
            count += 1
    return count


def write_per_node_logs(
    spec: Specification,
    states: Sequence[State],
    *,
    per_node: Sequence[str],
    nodes: int,
    directory: str,
    basename: str,
    actions: Sequence[Optional[str]] = (),
) -> List[str]:
    """Write one trace as per-node JSON-lines files; returns the paths.

    The inverse of :func:`trace_from_logs` for one execution: the trace is
    diffed into events and each node's events land in
    ``{basename}-node{N}.jsonl``.  Global (``node=None``) events are placed
    in node 0's file; the timestamp merge restores the total order on read.
    Shared by ``repro simulate --log-dir`` and the :mod:`repro.mbtcg` log
    emitter, so both sides of the generate -> replay loop speak the same
    format.
    """
    events = events_from_trace(spec, states, per_node=per_node, actions=actions)
    paths: List[str] = []
    for node in range(nodes):
        mine = [
            event
            for event in events
            if event.node == node or (node == 0 and event.node is None)
        ]
        path = os.path.join(directory, f"{basename}-node{node}.jsonl")
        write_log_file(path, mine)
        paths.append(path)
    return paths


def events_from_trace(
    spec: Specification,
    states: Sequence[State],
    *,
    per_node: Sequence[str],
    actions: Sequence[Optional[str]] = (),
    start_ts: float = 0.0,
) -> List[LogEvent]:
    """Diff consecutive states into log events (the logging side of MBTC).

    When a step changes exactly one node's slots of per-node variables, a
    node-scoped event is emitted, as a real server would log about itself;
    otherwise (elections touching two roles, global-variable changes) a
    global event carries the whole changed variables.  A trace that does not
    start in the spec's initial state (captured mid-run, or fault-injected)
    is prefixed with a :data:`SNAPSHOT_ACTION` anchor so it round-trips
    exactly instead of silently re-anchoring at the initial state.
    """
    per_node_set = set(per_node)
    events: List[LogEvent] = []
    if states and states[0] not in spec.initial_states():
        events.append(
            LogEvent(
                ts=start_ts,
                node=None,
                action=SNAPSHOT_ACTION,
                vars={name: states[0][name] for name in spec.schema.names},
            )
        )
    for index in range(1, len(states)):
        previous, current = states[index - 1], states[index]
        changed = [
            name for name in spec.schema.names if previous[name] != current[name]
        ]
        if not changed:
            continue  # stuttering step: nothing was logged
        action = actions[index] if index < len(actions) and actions[index] else "<step>"
        touched_nodes: set[int] = set()
        scoped = True
        for name in changed:
            if name not in per_node_set:
                scoped = False
                break
            before, after = previous[name], current[name]
            touched_nodes.update(
                slot for slot in range(len(after)) if before[slot] != after[slot]
            )
        ts = start_ts + index
        if scoped and len(touched_nodes) == 1:
            node = touched_nodes.pop()
            events.append(
                LogEvent(
                    ts=ts,
                    node=node,
                    action=action,
                    vars={name: current[name][node] for name in changed},
                )
            )
        else:
            events.append(
                LogEvent(
                    ts=ts,
                    node=None,
                    action=action,
                    vars={name: current[name] for name in changed},
                )
            )
    return events
