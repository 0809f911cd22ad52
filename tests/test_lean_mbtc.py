"""MBTC keeps one copy of each state, and a process imports only what it runs.

The batch is the one a CI run of the paper's pipeline meets: 200 RaftMongo
(mbtc) traces written as per-node logs, 2,434 events over a few hundred
distinct states.  Decoded, the traces share one binding per distinct state;
the successor memo keeps each state's successors as three columns; what the
cache holds is in its stats, the telemetry and the ``watch`` status file.
Apart from that, importing the library's modules loads none of ``sqlite3``,
``multiprocessing``, ``logging``, ``cProfile`` and ``pstats``: ``sqlite3``
and the profiler load on the one path that uses them, and the package never
uses ``multiprocessing``, not even to run random walks.
"""

import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

import repro
from repro.obs.schema import (
    SchemaError, validate_metrics_path, validate_status, validate_status_path,
)
from repro.pipeline.cli import main
from repro.pipeline.logs import trace_from_logs, write_per_node_logs
from repro.pipeline.runner import check_traces
from repro.pipeline.workload import generate_workload
from repro.tla.registry import build_spec, get_entry
from repro.tla.trace import SuccessorCache

PARAMS = {"variant": "mbtc", "n_nodes": 3, "max_term": 3, "max_log_len": 3}
CLI_PARAMS = [arg for name, value in PARAMS.items() for arg in ("--param", f"{name}={value}")]
WORKLOAD = dict(n_traces=200, seed=7, fault_rate=0.1, min_steps=20, max_steps=60)
EVENTS = 2434
#: sha256 of the batch's log files, concatenated in trace and node order.
LOGS_SHA256 = "7bed4fb4857ad9e7d90b666dac8134fd8b11b3cbd04b192253a616ba0717ce2b"

HEAVY = ("sqlite3", "multiprocessing", "logging", "cProfile", "pstats")
#: The import-footprint check, word for word as CI runs it.
FOOTPRINT = (
    "import sys, repro.engine, repro.pipeline.runner, repro.pipeline.logs, repro.stream, "
    "repro.mbtcg, repro.pipeline.cli; "
    "heavy = {'sqlite3', 'multiprocessing', 'logging', 'cProfile', 'pstats'} & set(sys.modules); "
    "assert not heavy, heavy"
)


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """``(log files, expect_ok)`` per trace of the batch."""
    spec = build_spec("raftmongo", **PARAMS)
    entry = get_entry("raftmongo")
    directory = str(tmp_path_factory.mktemp("mbtc-logs"))
    return [
        (
            write_per_node_logs(
                spec, trace.states, per_node=entry.per_node_variables(spec),
                nodes=entry.node_count(spec), directory=directory,
                basename=f"trace{index:05d}", actions=trace.actions,
            ),
            trace.expect_ok,
        )
        for index, trace in enumerate(generate_workload(spec, **WORKLOAD))
    ]


def _decoded(spec, batch):
    per_node = get_entry("raftmongo").per_node_variables(spec)
    return [trace_from_logs(spec, files, per_node=per_node) for files, _ok in batch]


def _verdicts(spec, traces):
    report = check_traces(spec, traces)
    return [(o.index, o.detail) for o in report.failures], report.coverage.to_json()


# -- the successor memo: three columns ---------------------------------------


def test_generation_draws_from_the_expansion_and_writes_the_same_logs(batch):
    digest = hashlib.sha256()
    for files, _ok in batch:
        for path in files:
            digest.update(Path(path).read_bytes())
    assert digest.hexdigest() == LOGS_SHA256
    # The walk draws an index into the expansion, which reads as the list
    # the expander returned: the same triple for the same draw.
    spec = build_spec("raftmongo", **PARAMS)
    cache = SuccessorCache(spec)
    binding = cache.initial_bindings()[0]
    expansion = cache.expansion(binding)
    transitions = cache.expander.transitions(binding[1])
    assert len(expansion) == len(transitions) > 1
    assert list(expansion) == transitions
    for seed in range(20):
        assert random.Random(seed).choice(expansion) == random.Random(seed).choice(transitions)


def test_an_expansion_is_three_columns_and_nothing_per_successor():
    spec = build_spec("raftmongo", **PARAMS)
    cache = SuccessorCache(spec)
    expansion = cache.expansion(cache.initial_bindings()[0])
    assert not hasattr(expansion, "__dict__")
    held = [getattr(expansion, name) for name in type(expansion).__slots__]
    assert not any(isinstance(value, (dict, list)) for value in held)
    assert type(expansion.actions) is tuple and type(expansion.successors) is tuple
    assert type(expansion.fps) is array and expansion.fps.typecode == "Q"
    assert len(expansion.actions) == len(expansion.successors) == len(expansion.fps)
    for position, fp in enumerate(expansion.fps):
        assert expansion.find(fp) == list(expansion.fps).index(fp) <= position
    assert expansion.find(max(expansion.fps) + 1) is None
    assert cache.stats()["successors"] == len(expansion)


def test_the_successor_count_follows_misses_evictions_and_epochs():
    spec = build_spec("raftmongo", n_nodes=2)
    cache = SuccessorCache(spec, max_entries=8)

    def expand(seed):
        for trace in generate_workload(spec, n_traces=10, seed=seed):
            binding = None
            for state in trace.states:
                binding = cache.bind(state.values, binding)
                cache.expansion(binding)
            assert cache.stats()["successors"] == sum(map(len, cache._cache.values()))

    expand(5)
    assert len(cache) <= 8 < cache.misses and cache.interner.evictions == 0
    cache.interner.max_entries = cache.interner.cache.max_entries = 16
    expand(6)
    assert cache.interner.evictions > 0


# -- the decode plan: one binding per distinct state ---------------------------


def test_decoding_the_batch_retains_at_most_400_bytes_per_event(batch):
    # 463 B/event when every event kept its own binding and every cached state
    # a list of successor tuples, their fingerprint ints and an index dict.
    assert sum(len(Path(path).read_text().splitlines())
               for files, _ok in batch for path in files) == EVENTS
    spec = build_spec("raftmongo", **PARAMS)
    SuccessorCache.for_spec(spec)  # the compiled kernels are not the traces' cost
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traces = _decoded(spec, batch)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
        report = check_traces(spec, traces)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.total == len(batch) and not report.errors
    assert report.failed == sum(1 for _files, ok in batch if not ok) > 0
    assert retained / EVENTS <= 400, retained / EVENTS
    # 1,792 B/event before, decode and check together.
    assert peak / EVENTS <= 1550, peak / EVENTS


def test_traces_through_one_state_share_its_binding_until_the_interner_evicts(batch):
    roomy = build_spec("raftmongo", **PARAMS)
    reference = _verdicts(roomy, _decoded(roomy, batch))
    spec = build_spec("raftmongo", **PARAMS)
    cache = SuccessorCache.for_spec(spec)
    first = _decoded(spec, batch)
    (initial,) = cache.initial_bindings()
    holders = {}
    for index, trace in enumerate(first):
        for binding in trace.bindings:
            if binding is not initial:
                holders.setdefault(binding[2], (binding, set()))[1].add(index)
                assert holders[binding[2]][0] is binding
    assert cache.interner.evictions == 0
    assert cache.stats()["binding_entries"] == len(holders)
    assert sum(1 for _binding, traces in holders.values() if len(traces) > 1) > 100
    old = {id(binding): binding for binding, _traces in holders.values()}

    # Tiny caps (as in test_trace.py): checking the batch moves the epoch.
    cache.max_entries = 8
    cache.interner.max_entries = cache.interner.cache.max_entries = 16
    assert _verdicts(spec, first) == reference
    assert cache.interner.evictions > 0
    again = _decoded(spec, batch)
    assert all(
        id(binding) not in old for trace in again for binding in trace.bindings[1:]
    )
    assert cache.stats()["binding_entries"] <= 8
    assert _verdicts(spec, again) == reference


# -- what the cache holds, in stats, telemetry, status and the CLI ---------------


def test_trace_prints_peak_rss_and_its_metrics_carry_the_memo_sizes(batch, tmp_path, capsys):
    metrics = tmp_path / "trace.jsonl"
    files, ok = batch[0]
    code = main(["trace", "raftmongo", *CLI_PARAMS, *files, "--metrics-out", str(metrics)])
    assert code == (0 if ok else 1)
    out = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(out) if line.startswith("  successor cache: "))
    assert re.fullmatch(r"peak RSS: \d+\.\d MB", out[at + 1])
    validate_metrics_path(str(metrics))
    counters = next(
        record for record in map(json.loads, metrics.read_text().splitlines())
        if record["kind"] == "metrics"
    )["counters"]
    assert counters["trace.binding_entries"] > 0
    assert counters["trace.successors"] > counters["trace.cache_entries"] > 0


def test_simulate_prints_peak_rss_after_its_cache_line(capsys):
    assert main(["simulate", "locking", "--traces", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(out) if line.startswith("  successor cache: "))
    assert re.fullmatch(r"peak RSS: \d+\.\d MB", out[at + 1])


def test_the_watch_status_file_carries_the_memo_sizes(batch, tmp_path, capsys):
    status = tmp_path / "status.json"
    files, _ok = batch[0]
    code = main(["watch", "raftmongo", *CLI_PARAMS, files[0], "--once",
                 "--status-file", str(status)])
    capsys.readouterr()
    assert code in (0, 1)
    document = validate_status_path(str(status))
    cache = document["successor_cache"]
    assert cache["binding_entries"] > 0 and cache["successors"] >= cache["cache_entries"]
    cache["binding_entries"] = -1
    with pytest.raises(SchemaError, match="binding_entries"):
        validate_status(document)


# -- a process imports only what it runs ---------------------------------------


def _python(code, cwd):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )


def test_importing_the_library_loads_no_heavy_module(tmp_path):
    done = _python(FOOTPRINT, tmp_path)
    assert done.returncode == 0, done.stderr


def test_each_heavy_module_loads_on_the_path_that_uses_it(tmp_path):
    done = _python(
        f"HEAVY = {HEAVY!r}\n"
        + """
import sys
from repro.pipeline.cli import main

def loaded():
    return {name for name in HEAVY if name in sys.modules}

assert not loaded(), loaded()
assert main(["check", "locking", "--store", "disk", "--store-path", "visited.db"]) == 0
assert loaded() == {"sqlite3"}, loaded()
assert main(["check", "locking", "--engine", "simulate", "--walks", "50"]) == 0
assert loaded() == {"sqlite3"}, loaded()
assert main(["check", "locking", "--profile"]) == 0
assert loaded() == {"sqlite3", "cProfile", "pstats"}, loaded()
""",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr


def test_no_source_file_names_multiprocessing():
    package = Path(repro.__file__).resolve().parent
    naming = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if "multiprocessing" in path.read_text(encoding="utf-8")
    ]
    assert naming == []
