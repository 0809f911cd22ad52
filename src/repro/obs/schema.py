"""Schemas and validators for the telemetry artifacts.

Two documented formats live here, both consumed by CI's observability
smoke step and by the test suite:

* the ``--metrics-out`` JSONL stream (:func:`validate_metrics_path`),
* the ``repro watch --status-file`` JSON document
  (:func:`validate_status_path`).

Validation is deliberately dependency-free hand-rolled checking -- the
container has no jsonschema -- and raises :class:`SchemaError` with a
record index and field name on the first violation.

:func:`normalized` strips the volatile (wall-clock-derived) fields from a
metrics record; two runs of the same deterministic workload normalize to
identical documents, which is the contract the golden determinism test
pins.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

__all__ = [
    "METRIC_KINDS",
    "SCHEMA_VERSION",
    "STATUS_KIND",
    "SchemaError",
    "normalized",
    "validate_metrics_lines",
    "validate_metrics_path",
    "validate_metrics_record",
    "validate_status",
    "validate_status_path",
]

#: Version stamped into every JSONL record as ``"v"``.
SCHEMA_VERSION = 1

#: Record kinds, in the order a well-formed run emits them:
#: ``run_start`` first, then any mix of ``span``/``event``, then exactly one
#: ``metrics`` (the merged registry snapshot) and a final ``run_end``.
METRIC_KINDS = frozenset({"run_start", "span", "event", "metrics", "run_end"})

#: ``"kind"`` discriminator of the watch status-file document.
STATUS_KIND = "repro-watch-status"

#: Fields carrying wall-clock-derived values, dropped by :func:`normalized`.
_VOLATILE_FIELDS = ("ts", "seconds", "pid", "exit_code")


class SchemaError(ValueError):
    """A telemetry artifact does not match its documented schema."""


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{where}: {message}")


def _require_number(record: Dict[str, Any], field: str, where: str) -> None:
    _require(
        isinstance(record.get(field), (int, float))
        and not isinstance(record.get(field), bool),
        where,
        f"field {field!r} must be a number, got {record.get(field)!r}",
    )


def _validate_histogram(name: str, data: Any, where: str) -> None:
    _require(isinstance(data, dict), where, f"histogram {name!r} must be an object")
    edges = data.get("edges")
    counts = data.get("counts")
    _require(
        isinstance(edges, list) and edges == sorted(edges) and len(edges) > 0,
        where,
        f"histogram {name!r} edges must be a sorted non-empty list",
    )
    _require(
        isinstance(counts, list) and len(counts) == len(edges) + 1,
        where,
        f"histogram {name!r} must have len(edges)+1 counts",
    )
    _require(
        all(isinstance(c, int) and c >= 0 for c in counts),
        where,
        f"histogram {name!r} counts must be non-negative integers",
    )
    _require(
        data.get("count") == sum(counts),
        where,
        f"histogram {name!r} count does not equal the sum of its buckets",
    )


def validate_metrics_record(record: Dict[str, Any], *, index: int = 0) -> None:
    """Validate a single JSONL record against schema version 1."""
    where = f"record {index}"
    _require(isinstance(record, dict), where, "must be a JSON object")
    _require(record.get("v") == SCHEMA_VERSION, where, f"unknown schema version {record.get('v')!r}")
    _require(
        isinstance(record.get("run"), str) and bool(record.get("run")),
        where,
        "field 'run' must be a non-empty string",
    )
    _require(
        isinstance(record.get("seq"), int) and record["seq"] >= 0,
        where,
        "field 'seq' must be a non-negative integer",
    )
    _require_number(record, "ts", where)
    kind = record.get("kind")
    _require(kind in METRIC_KINDS, where, f"unknown kind {kind!r}")
    if kind == "run_start":
        _require(
            isinstance(record.get("command"), str), where, "run_start needs a 'command'"
        )
    elif kind == "span":
        _require(isinstance(record.get("name"), str), where, "span needs a 'name'")
        _require_number(record, "seconds", where)
        _require(
            isinstance(record.get("depth"), int) and record["depth"] >= 0,
            where,
            "span depth must be a non-negative integer",
        )
    elif kind == "event":
        _require(isinstance(record.get("name"), str), where, "event needs a 'name'")
    elif kind == "metrics":
        for group in ("counters", "gauges", "histograms"):
            _require(
                isinstance(record.get(group), dict),
                where,
                f"metrics record needs a {group!r} object",
            )
        for name, value in record["counters"].items():
            _require(
                isinstance(value, int) and value >= 0,
                where,
                f"counter {name!r} must be a non-negative integer",
            )
        for name, data in record["histograms"].items():
            _validate_histogram(name, data, where)
    elif kind == "run_end":
        _require(
            record.get("status") in ("ok", "error"),
            where,
            f"run_end status must be 'ok' or 'error', got {record.get('status')!r}",
        )


def validate_metrics_lines(lines: Iterable[str]) -> Dict[str, Any]:
    """Validate a whole JSONL stream; returns a per-run summary.

    The stream may contain several runs appended back to back.  Per run:
    sequence numbers strictly increase, the first record is ``run_start``,
    and at most one ``metrics`` record appears.  Returns
    ``{run_id: {"records": n, "kinds": {...}, "complete": bool}}``.
    """
    runs: Dict[str, Dict[str, Any]] = {}
    index = 0
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"record {index}: invalid JSON ({exc})") from exc
        validate_metrics_record(record, index=index)
        run = runs.setdefault(
            record["run"],
            {"records": 0, "kinds": {}, "last_seq": -1, "complete": False},
        )
        _require(
            record["seq"] > run["last_seq"],
            f"record {index}",
            f"seq {record['seq']} not increasing within run {record['run']!r}",
        )
        _require(
            run["records"] > 0 or record["kind"] == "run_start",
            f"record {index}",
            f"run {record['run']!r} must open with a run_start record",
        )
        run["last_seq"] = record["seq"]
        run["records"] += 1
        run["kinds"][record["kind"]] = run["kinds"].get(record["kind"], 0) + 1
        if record["kind"] == "run_end":
            run["complete"] = True
        index += 1
    _require(index > 0, "stream", "metrics stream is empty")
    for run_id, run in runs.items():
        _require(
            run["kinds"].get("metrics", 0) <= 1,
            "stream",
            f"run {run_id!r} has more than one merged metrics record",
        )
        run.pop("last_seq")
    return runs


def validate_metrics_path(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return validate_metrics_lines(handle)


def normalized(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` with wall-clock-derived fields stripped.

    Drops the top-level volatile fields (``ts``, ``seconds``, ``pid``,
    ``exit_code``) and, on ``metrics`` records, every gauge or histogram
    whose name marks it as a duration, rate or resident-set reading
    (``*_seconds``, ``*.seconds``, ``*_per_second``, ``*_rss_mb``).
    Counters and structural gauges (depths, sizes) survive, which is
    exactly the deterministic part of the stream.
    """
    out = {k: v for k, v in record.items() if k not in _VOLATILE_FIELDS}
    if record.get("kind") == "metrics":
        for group in ("gauges", "histograms"):
            values = record.get(group) or {}
            out[group] = {
                name: value
                for name, value in values.items()
                if not _volatile_metric_name(name)
            }
    return out


def _volatile_metric_name(name: str) -> bool:
    return name.endswith(("seconds", "_per_second", "_rss_mb"))


def validate_status(doc: Dict[str, Any]) -> None:
    """Validate a ``--status-file`` document (see README for the schema)."""
    where = "status"
    _require(isinstance(doc, dict), where, "must be a JSON object")
    _require(doc.get("kind") == STATUS_KIND, where, f"kind must be {STATUS_KIND!r}")
    _require(doc.get("v") == SCHEMA_VERSION, where, f"unknown version {doc.get('v')!r}")
    for field in ("spec", "adapter"):
        _require(isinstance(doc.get(field), str), where, f"{field!r} must be a string")
    # The main loop's starvation counters: absent from documents written before them.
    idle = [field for field in ("idle_waits", "idle_seconds") if field in doc]
    for field in ("uptime_seconds", "events_per_second", "quarantine_rate", *idle):
        _require_number(doc, field, where)
        _require(doc[field] >= 0, where, f"{field!r} must be non-negative")
    totals = doc.get("totals")
    _require(isinstance(totals, dict), where, "'totals' must be an object")
    for field in ("events", "quarantined_lines", "violated_traces"):
        _require(
            isinstance(totals.get(field), int) and totals[field] >= 0,
            where,
            f"totals.{field} must be a non-negative integer",
        )
    sources = doc.get("sources")
    _require(isinstance(sources, dict) and len(sources) > 0, where, "'sources' must be a non-empty object")
    for name, source in sources.items():
        swhere = f"status source {name!r}"
        _require(isinstance(source, dict), swhere, "must be an object")
        # The tailer's ``bytes_read``: absent from documents written before it.
        read = [field for field in ("bytes_read",) if field in source]
        for field in ("queue_depth", "lineno", "events", *read):
            _require(
                isinstance(source.get(field), int) and source[field] >= 0,
                swhere,
                f"{field!r} must be a non-negative integer",
            )
        _require_number(source, "lag_seconds", swhere)
        for field in ("stalled", "done"):
            _require(
                isinstance(source.get(field), bool), swhere, f"{field!r} must be a bool"
            )
        _require(isinstance(source.get("status"), str), swhere, "'status' must be a string")
    cache = doc.get("successor_cache")
    if cache is not None:  # absent from documents written before the field existed
        cwhere = "status successor_cache"
        _require(isinstance(cache, dict), cwhere, "must be an object")
        _require(isinstance(cache.get("kernel"), str), cwhere, "'kernel' must be a string")
        fields = [
            "hits", "misses", "cache_entries",
            "interner_hits", "interner_misses", "interner_evictions", "interner_entries",
            "memo_hits", "memo_misses", "memo_entries",
        ]
        # The decode plan's counters: absent from documents written before it.
        fields += [name for name in cache if name.startswith(("decode_", "splice_"))]
        for field in fields:
            _require(
                isinstance(cache.get(field), int) and cache[field] >= 0,
                cwhere,
                f"{field!r} must be a non-negative integer",
            )


def validate_status_path(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    validate_status(doc)
    return doc


def _main(argv: List[str]) -> int:  # pragma: no cover - exercised by CI
    """``python -m repro.obs.schema [--status] PATH...`` -- CI's validator."""
    status_mode = False
    failures = 0
    for arg in argv:
        if arg == "--status":
            status_mode = True
            continue
        if arg == "--metrics":
            status_mode = False
            continue
        try:
            if status_mode:
                validate_status_path(arg)
            else:
                summary = validate_metrics_path(arg)
                for run_id, info in summary.items():
                    print(f"{arg}: run {run_id} ok ({info['records']} records)")
                continue
            print(f"{arg}: ok")
        except (OSError, SchemaError, json.JSONDecodeError) as exc:
            print(f"{arg}: FAILED: {exc}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    raise SystemExit(_main(sys.argv[1:]))
