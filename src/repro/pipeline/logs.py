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
JSON ``null`` cannot be distinguished from Python ``None``
(:func:`repro.tla.values.encode_value` / ``decode_value``).

An event keeps its ``vars`` as parsed; they are decoded where the spec is
known, in the fold (:func:`apply_event`), by the spec's
:class:`~repro.tla.trace.SuccessorCache` -- which has decoded an equal
payload before more often than not.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import shlex
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..tla import Specification, State
from ..tla.errors import ReproError
from ..tla.trace import Binding, BoundTrace, SuccessorCache
from ..tla.values import decode_value, encode_value

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
    "anchor_binding",
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
    "per_node_slots",
    "read_log_files",
    "register_adapter",
    "trace_from_logs",
    "write_log_file",
    "write_per_node_logs",
    "write_trace_logs",
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
        # Default exception pickling drops keyword-only attributes; a pickled
        # error keeps its full (path, lineno) context.
        return (
            self.__class__,
            (str(self),),
            {"path": self.path, "lineno": self.lineno},
        )


class LogIngestError(ReproError):
    """A log file disappeared or turned unreadable while being ingested."""


def _bad_event(event: "LogEvent", problem: str) -> LogParseError:
    """The error for an event that parsed but cannot be used, at its source line."""
    path, lineno = split_location(event.location)
    return LogParseError(f"event at {event.location} {problem}", path=path, lineno=lineno)


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
    """One modelled step logged by one node of the system under test.

    ``vars`` holds the values as logged: JSON data, or the frozen values of
    an event built from states (:func:`apply_event` decodes either).
    """

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
    service parses the lines of all its sources, interleaved, through one
    shared instance.
    """

    #: Registry key; ``repro watch --adapter`` selects adapters by this name.
    name: str = "?"

    def parse_line(
        self, raw: str, *, path: str = "<memory>", lineno: int = 0
    ) -> Optional[LogEvent]:
        raise NotImplementedError


def _checked_event(ts: Any, node: Any, action: Any, payload: Any, where: str) -> LogEvent:
    """One parsed event; raises what the adapters report as a malformed line."""
    ts = float(ts)
    if not math.isfinite(ts):  # json reads NaN and Infinity, which order against nothing
        raise ValueError(f"timestamp {ts!r} is not finite")
    if type(payload) is not dict:
        raise TypeError("'vars' must be an object of variable values")
    return LogEvent(ts, None if node is None else int(node), str(action), payload, where)


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
    #: ``json.loads`` less a slice and two whitespace scans per line.
    _scan = staticmethod(json.JSONDecoder().raw_decode)

    def parse_line(
        self, raw: str, *, path: str = "<memory>", lineno: int = 0
    ) -> Optional[LogEvent]:
        brace = raw.find("{")
        if brace < 0:
            return None
        try:
            payload, end = self._scan(raw, brace)
            if raw[end:].strip():
                raise json.JSONDecodeError("Extra data", raw, end)
        except json.JSONDecodeError as exc:
            if '"action"' in raw[brace:]:
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
            return _checked_event(
                payload["ts"], payload["node"], payload["action"],
                payload.get("vars", {}), where,
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
            return _checked_event(
                fields["ts"], None if node in ("", "null") else node,
                fields["action"], json.loads(fields.get("vars", "{}")), where,
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


def _ordered(stream: Iterable[LogEvent]) -> Iterator[LogEvent]:
    """``stream``, stopped by a :class:`LogParseError` where its clock runs backwards."""
    last = -math.inf
    for event in stream:
        if not event.ts >= last:  # written so that a hand-built NaN fails it too
            raise _bad_event(
                event,
                f"has timestamp {event.ts!r}, before the {last!r} of the event it "
                "follows; a stream must be ordered to be merged",
            )
        last = event.ts
        yield event


def merge_event_streams(streams: Iterable[Iterable[LogEvent]]) -> Iterator[LogEvent]:
    """Merge per-node event streams into one sequence ordered by timestamp.

    Each stream must already be internally ordered (a node's own log is);
    :func:`heapq.merge` then gives a total order without materializing the
    streams, exactly how the MongoDB tooling merged ``mongod.log`` files.
    A stream that is not would merge into a different execution and a bogus
    verdict, so it raises :class:`LogParseError` at the offending event.
    Equal timestamps are legal and keep the order of ``streams``.
    """
    return heapq.merge(*map(_ordered, streams), key=attrgetter("ts"))


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


def per_node_slots(spec: Specification, per_node: Iterable[str]) -> FrozenSet[int]:
    """The schema slots of the variables a node-scoped event reports one slot of."""
    return frozenset(spec.schema.index_of(name) for name in per_node if name in spec.schema)


def apply_event(
    cache: SuccessorCache, current: Binding, event: LogEvent, slots: FrozenSet[int]
) -> Binding:
    """The state after ``event``, bound in ``cache``: one step of the log -> trace fold.

    A node-scoped event replaces the node's slot of each reported per-node
    variable (``slots``, see :func:`per_node_slots`), a global event replaces
    whole variables.  The one place an event is decoded -- through the
    cache's decode plan (:meth:`~repro.tla.trace.SuccessorCache.splice`) --
    for the batch fold, the streaming checker and corpus replay alike.
    """
    try:
        return cache.splice(current, event.node, event.vars, slots)
    except KeyError as exc:
        problem = f"reports unknown variable {exc.args[0]!r}"
    except IndexError as exc:
        slot, size = exc.args
        problem = (
            f"names node {event.node}, but variable "
            f"{cache.spec.schema.names[slot]!r} has {size} slots"
        )
    raise _bad_event(event, problem)


def anchor_binding(cache: SuccessorCache, event: LogEvent) -> Optional[Binding]:
    """The full state a trace's *first* event re-bases it on, if it is an anchor.

    The snapshot-anchor rule of the batch fold (:func:`events_to_trace`) and
    the streaming checker alike: a leading :data:`SNAPSHOT_ACTION` event
    replaces the spec's initial state as the trace's start; any other event
    (``None``) is an ordinary step.
    """
    if event.action != SNAPSHOT_ACTION:
        return None
    names = cache.spec.schema.names
    missing = [name for name in names if name not in event.vars]
    if missing or event.node is not None:
        raise _bad_event(
            event, f"is a snapshot: it must be global and bind every variable (missing: {missing})"
        )
    unbound = (None,) * len(names)
    return apply_event(cache, (unbound,) * 4, event, frozenset())


def events_to_trace(
    spec: Specification,
    events: Iterable[LogEvent],
    *,
    per_node: Sequence[str],
    initial: Optional[State] = None,
) -> BoundTrace:
    """Fold ordered events into a sequence of full specification states.

    The trace starts from the spec's (single) initial state -- the same
    starting assumption the repl-trace-checker makes -- unless the first
    event is a :data:`SNAPSHOT_ACTION` anchor carrying a full variable
    assignment, which re-bases the trace on that state instead.  Each further
    event yields the next state: see :func:`apply_event`.  The result is
    bound in ``SuccessorCache.for_spec(spec)``, where checking the trace
    against the same ``spec`` object finds it.
    """
    cache = SuccessorCache.for_spec(spec)
    if initial is not None:
        start = cache.bind(initial.values)
    else:
        initials = cache.initial_bindings()
        if len(initials) != 1:
            raise LogParseError(
                f"specification {spec.name!r} has {len(initials)} initial states; "
                "pass initial= explicitly to build a trace"
            )
        start = initials[0]
    slots = per_node_slots(spec, per_node)
    trace = BoundTrace(cache)
    bound = trace.bindings
    for event in events:
        if not bound:
            anchor = anchor_binding(cache, event)
            bound.append(start if anchor is None else anchor)
            if anchor is not None:
                continue
        bound.append(apply_event(cache, bound[-1], event, slots))
    if not bound:
        bound.append(start)
    return trace


def trace_from_logs(
    spec: Specification,
    paths: Sequence[str],
    *,
    per_node: Sequence[str],
    adapter: Optional[LogAdapter] = None,
) -> BoundTrace:
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
    :func:`write_trace_logs` writes every log set through here, so both
    sides of the generate -> replay loop speak the same format.
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


def write_trace_logs(
    spec: Specification,
    entry: Any,
    traces: Iterable[Tuple[str, Sequence[State], Sequence[Optional[str]]]],
    directory: str,
    *,
    limit: Optional[int] = None,
) -> List[str]:
    """Write the first ``limit`` (``None``: all) ``traces`` as per-node logs.

    Each trace is ``(basename, states, actions)`` and becomes
    :func:`write_per_node_logs` files in ``directory`` (made if missing),
    split by ``entry.log_layout(spec)`` -- ``entry`` is the spec's
    :class:`~repro.tla.registry.SpecEntry`.  The limit, the layout and the
    selected traces are all in hand before anything is written; returns
    every path written.
    ``repro simulate --log-dir`` and :func:`repro.mbtcg.write_log_suite`
    both write through here.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"--log-limit must be >= 0; got {limit}")
    per_node, nodes = entry.log_layout(spec)
    selected = list(itertools.islice(traces, limit))
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    for basename, states, actions in selected:
        paths.extend(
            write_per_node_logs(
                spec,
                states,
                per_node=per_node,
                nodes=nodes,
                directory=directory,
                basename=basename,
                actions=actions,
            )
        )
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
