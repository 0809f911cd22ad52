"""The disk-backed fingerprint store and spill frontier (ISSUE 7).

Covers the store's exactness and 64-bit signed/unsigned round-trip, the
write-back flush path, the stale-file wipe-vs-restore protocol, identity
validation and sequence-number rewind, the parent pointers kept in the
same rows, the refusal of older file layouts, the SpillFrontier's
order-preserving re-iterable contract, engine-level parity
with the in-memory stores (the golden-stats contract), and disk-store
checkpoint/resume.
The last section lowers ``HOT_CACHE_ENTRIES`` so fingerprints are dropped
from memory and the Bloom filter and SQLite lookups are actually reached.
"""

import json
import os
import re

import pytest

from repro.engine import check_spec, diskstore
from repro.engine.diskstore import DiskFingerprintStore, DiskStoreError
from repro.engine.frontier import SpillFrontier
from repro.tla.registry import build_spec
from repro.tla.state import State, VariableSchema


def _stats(result):
    return (
        result.distinct_states,
        result.generated_states,
        result.max_depth,
        result.action_counts,
        result.peak_frontier,
    )


# -- the store proper ---------------------------------------------------------


def test_disk_store_is_exact_and_round_trips_64_bit_fingerprints(tmp_path):
    store = DiskFingerprintStore(capacity=4, path=str(tmp_path / "s.db"))
    # Values straddling the signed/unsigned 64-bit boundary: the SQLite
    # INTEGER mapping must round-trip all of them.
    fps = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, 12345, 2**63 + 17]
    for fp in fps:
        assert store.add(fp), fp
    for fp in fps:
        assert not store.add(fp), fp  # exact: every re-add is rejected
        assert fp in store
    assert (2**62) not in store
    assert store.distinct_count == len(store) == len(fps)
    # capacity=4 with 7 adds means at least one batched flush happened, so
    # membership above was answered across the memory/disk split.
    assert store.flushes >= 1
    assert sorted(store.iter_fingerprints()) == sorted(fps)
    store.close()


def test_disk_store_ephemeral_file_is_deleted_on_close():
    store = DiskFingerprintStore()
    path = store.path
    store.add(42)
    store.flush()
    assert os.path.exists(path)
    store.close()
    assert not os.path.exists(path)
    store.close()  # idempotent


def test_disk_store_rejects_foreign_files(tmp_path):
    not_db = tmp_path / "garbage.db"
    not_db.write_bytes(b"this is not sqlite at all, not even close......")
    with pytest.raises(DiskStoreError, match="not a SQLite database"):
        DiskFingerprintStore(path=str(not_db))

    import sqlite3

    other = tmp_path / "other.db"
    conn = sqlite3.connect(str(other))
    conn.execute("CREATE TABLE users(id INTEGER)")
    conn.commit()
    conn.close()
    with pytest.raises(DiskStoreError, match="not a repro disk"):
        DiskFingerprintStore(path=str(other))


def test_disk_store_stale_file_is_wiped_unless_restored(tmp_path):
    path = str(tmp_path / "s.db")
    first = DiskFingerprintStore(path=path)
    first.add(1)
    first.add(2)
    first.close()

    # Reopening without restore(): the first mutation starts a fresh run
    # with a fresh identity -- old contents must not leak into it.
    second = DiskFingerprintStore(path=path)
    assert second.add(1)
    assert second.distinct_count == 1
    second.close()


def test_disk_store_snapshot_restore_rewinds_by_sequence(tmp_path):
    path = str(tmp_path / "s.db")
    store = DiskFingerprintStore(capacity=2, path=path)
    for fp in (10, 20, 30):
        store.add(fp, None if fp == 10 else 10)
    header = store.snapshot()
    assert header["kind"] == "disk" and header["added"] == 3
    # Post-snapshot work that an interrupted run would have done:
    store.add(40, 30)
    store.close()

    resumed = DiskFingerprintStore(capacity=2, path=path)
    resumed.restore(header)
    assert resumed.distinct_count == 3
    assert sorted(resumed.iter_fingerprints()) == [10, 20, 30]
    assert resumed.parent_of(20) == 10
    with pytest.raises(KeyError):
        resumed.parent_of(40)
    assert resumed.add(40, 20)  # the rewound fingerprint reads as new again
    assert resumed.parent_of(40) == 20
    resumed.close()


def test_disk_store_restore_validates_identity(tmp_path):
    path_a = str(tmp_path / "a.db")
    store_a = DiskFingerprintStore(path=path_a)
    store_a.add(1)
    header = store_a.snapshot()
    store_a.close()

    # A snapshot cannot be restored into a freshly created store...
    fresh = DiskFingerprintStore(path=str(tmp_path / "b.db"))
    with pytest.raises(DiskStoreError, match="freshly created"):
        fresh.restore(header)
    fresh.close()

    # ...nor into a different incarnation of the same path.
    wiped = DiskFingerprintStore(path=path_a)
    wiped.add(99)  # first mutation wipes and re-identifies
    wiped.close()
    reopened = DiskFingerprintStore(path=path_a)
    with pytest.raises(DiskStoreError, match="identity"):
        reopened.restore(header)
    reopened.close()

    with pytest.raises(DiskStoreError, match="disk-store snapshot"):
        DiskFingerprintStore().restore({"kind": "lru"})


def test_disk_parent_map_survives_flush_and_reports_length(tmp_path):
    store = DiskFingerprintStore(capacity=2, path=str(tmp_path / "s.db"))
    big = 2**64 - 5
    assert store.add(big)
    assert store.add(7, big)
    assert store.parent_of(7) == big  # from the write-back buffer
    assert not store.add(7, 0)  # a re-add keeps the first parent
    store.flush()
    assert store.parent_of(7) == big  # read back through SQLite
    assert store.parent_of(big) is None
    assert len(store) == 2
    store.close()


def test_disk_store_refuses_an_older_layout_and_leaves_it_alone(tmp_path, capsys):
    """A store file of the separate-parents layout: one line, exit 2, kept."""
    import sqlite3

    from repro.pipeline.cli import main

    path = tmp_path / "old.db"
    conn = sqlite3.connect(str(path))
    conn.executescript(
        """
        CREATE TABLE meta(key TEXT PRIMARY KEY, value TEXT);
        CREATE TABLE fps(fp INTEGER PRIMARY KEY, seq INTEGER NOT NULL);
        CREATE TABLE parents(
            fp INTEGER PRIMARY KEY, parent INTEGER, action TEXT,
            seq INTEGER NOT NULL);
        INSERT INTO meta VALUES ('magic', 'repro-disk-store-v1'),
                                ('identity', '00112233');
        INSERT INTO fps VALUES (42, 1);
        INSERT INTO parents VALUES (42, NULL, NULL, 2);
        """
    )
    conn.commit()
    conn.close()
    before = path.read_bytes()
    argv = ["check", "locking", "--store", "disk", "--store-path", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "older format" in err
    assert path.read_bytes() == before


# -- the spill frontier -------------------------------------------------------


def _schema_and_states(n):
    schema = VariableSchema(("x",))
    return schema, [State(schema, {"x": i}) for i in range(n)]


def test_spill_frontier_preserves_append_order_and_reiterates():
    schema, states = _schema_and_states(50)
    frontier = SpillFrontier(schema, threshold=5, chunk_states=4)
    for i, state in enumerate(states):
        frontier.append((state, 1000 + i))
    assert len(frontier) == 50 and frontier
    expected = [(s.values, 1000 + i) for i, s in enumerate(states)]
    # Iterated twice (the checkpoint seam iterates once, the engine again):
    for _ in range(2):
        got = [(state.values, fp) for state, fp in frontier]
        assert got == expected
    # 45 entries went past the threshold; all full chunks hit the spool.
    assert frontier.spilled_states == 44  # 11 full chunks of 4
    assert frontier.compressed_bytes > 0
    frontier.close()
    assert len(frontier) == 50  # length survives close; contents are gone


def test_spill_frontier_below_threshold_never_touches_disk():
    schema, states = _schema_and_states(10)
    frontier = SpillFrontier(schema, threshold=100)
    for i, state in enumerate(states):
        frontier.append((state, i))
    assert frontier.spilled_states == 0 and frontier.compressed_bytes == 0
    assert [fp for _s, fp in frontier] == list(range(10))


def test_spill_frontier_rejects_bad_parameters():
    schema = VariableSchema(("x",))
    with pytest.raises(ValueError):
        SpillFrontier(schema, threshold=0)
    with pytest.raises(ValueError):
        SpillFrontier(schema, chunk_states=0)


def test_empty_spill_frontier_is_falsy():
    schema = VariableSchema(("x",))
    frontier = SpillFrontier(schema, threshold=1)
    assert not frontier and len(frontier) == 0
    assert list(frontier) == []


# -- engine-level parity (the golden-stats contract) --------------------------


@pytest.mark.parametrize(
    "name,params",
    [
        ("locking", {"n_threads": 3}),
        ("raftmongo", {"variant": "mbtc", "n_nodes": 2}),
    ],
)
def test_disk_store_stats_are_bit_identical_to_in_memory(name, params):
    spec = build_spec(name, **params)
    golden = check_spec(spec, check_properties=False, engine="fingerprint")
    via_disk = check_spec(
        spec,
        check_properties=False,
        engine="fingerprint",
        store="disk",
        store_capacity=500,  # force the flush/re-probe path
        spill_threshold=16,  # force frontier spilling even on narrow levels
    )
    assert _stats(golden) == _stats(via_disk)
    assert via_disk.store == "disk"
    assert via_disk.frontier_spilled_states > 0


def test_disk_store_counterexample_replays_through_disk_parents():
    spec = build_spec("locking", mutation="xx_compatible")
    golden = check_spec(spec, check_properties=False, engine="fingerprint")
    via_disk = check_spec(
        spec,
        check_properties=False,
        engine="fingerprint",
        store="disk",
        store_capacity=50,
        spill_threshold=16,
    )
    assert via_disk.invariant_violation is not None
    assert [s.values for s in golden.invariant_violation.trace] == [
        s.values for s in via_disk.invariant_violation.trace
    ]


def test_simulate_engine_accepts_the_disk_store():
    spec = build_spec("locking")
    golden = check_spec(
        spec, check_properties=False, engine="simulate", walks=20, walk_depth=10
    )
    via_disk = check_spec(
        spec,
        check_properties=False,
        engine="simulate",
        store="disk",
        walks=20,
        walk_depth=10,
    )
    assert _stats(golden)[:3] == _stats(via_disk)[:3]


# -- checkpoint/resume through the disk store ---------------------------------


def test_disk_store_checkpoint_resume_is_bit_identical(tmp_path):
    spec = build_spec("locking", n_threads=3)
    golden = check_spec(spec, check_properties=False, engine="fingerprint")

    db = str(tmp_path / "visited.db")
    ckpt = str(tmp_path / "run.ckpt")
    truncated = check_spec(
        spec,
        check_properties=False,
        engine="fingerprint",
        store="disk",
        store_path=db,
        spill_threshold=32,
        max_depth=4,
        checkpoint_path=ckpt,
        checkpoint_every=1,
    )
    assert truncated.truncated
    resumed = check_spec(
        spec,
        check_properties=False,
        engine="fingerprint",
        store="disk",
        store_path=db,
        spill_threshold=32,
        checkpoint_path=ckpt,
        resume_path=ckpt,
    )
    assert resumed.resumed_from == ckpt
    assert _stats(golden) == _stats(resumed)


@pytest.mark.parametrize(
    "name, params, seed, walks, depth",
    [
        ("locking", {}, 5, 40, 12),
        ("raftmongo", {"variant": "mbtc"}, 0, 150, 20),
        ("raftmongo", {"variant": "mbtc"}, 1, 150, 20),
        ("ot_array", {}, 0, 150, 20),
        ("ot_array", {}, 1, 150, 20),
    ],
    ids=["locking-seed5", "raftmongo-mbtc-seed0", "raftmongo-mbtc-seed1",
         "ot_array-seed0", "ot_array-seed1"],
)
def test_walks_on_the_disk_store_count_what_memory_counts(name, params, seed, walks, depth):
    """Walk fingerprints streamed into SQLite, flushed every 16 adds, count
    what the in-memory store counts, every walk run, deadlock traces too."""
    kwargs = dict(
        engine="simulate", walks=walks, walk_depth=depth, seed=seed, check_properties=False,
        check_deadlock=True, stop_on_violation=False,
    )
    golden = check_spec(build_spec(name, **params), store="fingerprint", **kwargs)
    via_disk = check_spec(build_spec(name, **params), store="disk", store_capacity=16, **kwargs)
    assert via_disk.store == "disk" and via_disk.walks == walks
    assert _stats(golden) == _stats(via_disk)

    def summary(result):
        return re.sub(r", [0-9.]+s \[", ", [", result.summary())

    assert summary(via_disk) == summary(golden).replace("store=fingerprint", "store=disk")

    def trace(deadlock):
        return None if deadlock is None else [s.values for s in deadlock.trace]

    assert trace(golden.deadlock) == trace(via_disk.deadlock)


def test_resuming_against_the_wrong_database_errors(tmp_path):
    spec = build_spec("locking", n_threads=3)
    db = str(tmp_path / "visited.db")
    ckpt = str(tmp_path / "run.ckpt")
    check_spec(
        spec,
        check_properties=False,
        engine="fingerprint",
        store="disk",
        store_path=db,
        max_depth=3,
        checkpoint_path=ckpt,
    )
    other = str(tmp_path / "other.db")
    with pytest.raises(DiskStoreError, match="freshly created"):
        check_spec(
            spec,
            check_properties=False,
            engine="fingerprint",
            store="disk",
            store_path=other,
            checkpoint_path=ckpt,
            resume_path=ckpt,
        )


def test_cli_disk_store_checkpoint_round_trip(tmp_path, capsys):
    from repro.pipeline.cli import main

    db = str(tmp_path / "visited.db")
    ckpt = str(tmp_path / "run.ckpt")
    assert (
        main(
            [
                "check",
                "locking",
                "--no-properties",
                "--store",
                "disk",
                "--store-path",
                db,
                "--max-depth",
                "4",
                "--checkpoint",
                ckpt,
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        main(
            [
                "check",
                "locking",
                "--no-properties",
                "--store",
                "disk",
                "--store-path",
                db,
                "--checkpoint",
                ckpt,
                "--resume",
                ckpt,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert f"resumed from checkpoint {ckpt}" in out
    assert "store: disk" in out


# -- past the resident cap: the Bloom filter and SQLite lookups ---------------


def _store_counters(path):
    """The ``store.*`` counters and gauges of a ``--metrics-out`` file."""
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    metrics = [r for r in records if r["kind"] == "metrics"][0]
    found = {**metrics["counters"], **metrics["gauges"]}
    return {k: v for k, v in found.items() if k.startswith("store.")}


def test_a_run_that_fits_in_memory_never_consults_the_filter_or_sqlite(
    tmp_path, capsys
):
    from repro.pipeline.cli import main

    metrics = str(tmp_path / "m.jsonl")
    argv = ["check", "locking", "--param", "n_threads=3", "--store", "disk"]
    assert main(argv + ["--metrics-out", metrics]) == 0
    capsys.readouterr()
    found = _store_counters(metrics)
    assert found["store.flushes"] >= 1
    for absent in ("store.bloom_negatives", "store.disk_probes", "store.bloom_hit_rate"):
        assert absent not in found


def test_a_dropped_fingerprint_is_queried_once_then_resident(tmp_path, monkeypatch):
    monkeypatch.setattr(diskstore, "HOT_CACHE_ENTRIES", 4)
    store = DiskFingerprintStore(capacity=2, path=str(tmp_path / "s.db"))
    for fp in range(1, 11):
        assert store.add(fp, fp - 1 or None)
    store.flush()
    assert store.disk_probes == 0  # every add so far proved new in memory
    # Flushes of two against a cap of four dropped the oldest fingerprints.
    assert not store.add(1)
    assert not store.add(1)  # re-admitted by the first: no second query
    assert store.disk_probes == 1
    assert 2 in store and store.parent_of(2) == 1
    assert store.distinct_count == 10
    assert sorted(store.iter_fingerprints()) == list(range(1, 11))
    store.close()


def test_past_the_resident_cap_stats_match_in_memory(tmp_path, capsys, monkeypatch):
    from repro.pipeline.cli import main

    monkeypatch.setattr(diskstore, "HOT_CACHE_ENTRIES", 200)
    spec = build_spec("locking", n_threads=3)
    golden = check_spec(spec, check_properties=False, engine="fingerprint")
    via_disk = check_spec(
        spec,
        check_properties=False,
        engine="fingerprint",
        store="disk",
        store_capacity=100,
    )
    assert _stats(golden) == _stats(via_disk)

    metrics = str(tmp_path / "m.jsonl")
    argv = ["check", "locking", "--param", "n_threads=3", "--no-properties"]
    argv += ["--store", "disk", "--store-capacity", "100", "--metrics-out", metrics]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert (
        f"{golden.distinct_states} distinct states, "
        f"{golden.generated_states} states generated, depth {golden.max_depth}"
    ) in out
    found = _store_counters(metrics)
    assert found["store.disk_probes"] > 0
    assert found["store.bloom_negatives"] > 0
    assert 0 < found["store.bloom_hit_rate"] < 1


def test_counterexample_replays_through_dropped_parents(monkeypatch):
    # 40 distinct states reach the violation, so the cap is lowered further.
    monkeypatch.setattr(diskstore, "HOT_CACHE_ENTRIES", 8)
    spec = build_spec("locking", n_threads=3, mutation="xx_compatible")
    golden = check_spec(spec, check_properties=False, engine="fingerprint")
    via_disk = check_spec(
        spec,
        check_properties=False,
        engine="fingerprint",
        store="disk",
        store_capacity=4,
    )
    assert via_disk.invariant_violation is not None
    assert [s.values for s in golden.invariant_violation.trace] == [
        s.values for s in via_disk.invariant_violation.trace
    ]


def test_checkpoint_resume_across_a_drop_is_bit_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(diskstore, "HOT_CACHE_ENTRIES", 200)
    spec = build_spec("locking", n_threads=3)
    golden = check_spec(spec, check_properties=False, engine="fingerprint")
    db = str(tmp_path / "visited.db")
    ckpt = str(tmp_path / "run.ckpt")
    common = dict(
        check_properties=False,
        engine="fingerprint",
        store="disk",
        store_path=db,
        store_capacity=100,
        checkpoint_path=ckpt,
    )
    # 766 distinct states to depth 4: flushes of 100 pass the cap of 200.
    truncated = check_spec(spec, max_depth=4, checkpoint_every=1, **common)
    assert truncated.truncated and truncated.distinct_states > 200
    resumed = check_spec(spec, resume_path=ckpt, **common)
    assert resumed.resumed_from == ckpt
    assert _stats(golden) == _stats(resumed)
