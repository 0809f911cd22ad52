"""The disk-backed fingerprint store: million-state visited sets on SQLite.

TLC escapes toy scale by swapping its in-memory fingerprint set for a
disk-backed one; this module is that store for the reproduction.  A
:class:`DiskFingerprintStore` writes the visited set to one SQLite file
and answers membership from memory for as long as it can:

* a **write-back buffer** of pending adds, flushed in batches (one
  ``executemany`` per flush instead of one ``INSERT`` per state);
* a **resident dict** of flushed fingerprints, oldest first.  Up to
  :data:`HOT_CACHE_ENTRIES` it is the whole flushed set, so a run that fits
  does the in-memory store's work plus batched writes; past it, the oldest
  half is dropped into
* a **Bloom filter** over the dropped fingerprints only, created by the
  first drop or by ``restore()`` (which fills it from the table).  A
  positive falls through to an indexed ``SELECT``; a fingerprint SQLite
  confirms is re-admitted to the resident dict.

Invariant: every row in the table is resident or in the filter, so a miss
in buffer and dict is a new state unless the filter says "maybe".

The store is *exact*: ``add`` returns True exactly once per fingerprint and
``distinct_count`` is the true distinct-state count, so the golden-stats
parity with the in-memory ``fingerprint`` store holds bit for bit.

Replay back-pointers live in the same rows: ``fps(fp, parent, seq)`` holds
each fingerprint with the fingerprint it was first reached from, so
``add(fp, parent)`` buffers one pending ``fp -> parent`` entry, a flush
writes one batch, and :meth:`DiskFingerprintStore.parent_of` (counterexample
replay only, a handful of lookups per trace) reads the buffer or one indexed
row.  Memory is bounded by the buffer, the resident cap and the filter.
A file of an older layout is refused, never adopted or wiped.

Checkpointing does not serialize the visited set at all.  Every row
carries a monotonically increasing sequence number; ``snapshot()`` flushes
the buffer and returns a tiny identity header ``(path, identity token,
sequence high-water mark, counters)``.  ``restore()`` validates the token
against the database the resuming run opened (resuming against the wrong
file is an error, not garbage) and deletes every row newer than the
snapshot's high-water mark -- rewinding the on-disk set to the exact
checkpoint point, which is what keeps resumed runs bit-identical.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
from itertools import islice
from typing import Any, Dict, Iterable, Optional

from ..obs import span
from ..tla.errors import CheckerError

__all__ = ["DEFAULT_WRITE_CACHE", "DiskFingerprintStore", "DiskStoreError"]

#: Pending adds buffered in memory before a batched flush to SQLite.
DEFAULT_WRITE_CACHE = 50_000

#: Flushed fingerprints kept resident before the oldest half is dropped
#: into the Bloom filter (and answered by SQLite from then on).
HOT_CACHE_ENTRIES = 500_000

#: Bloom filter size in bits (a power of two; 1 << 25 bits = 4 MiB).  At two
#: probes per key the false-positive rate stays ~1.5% out to two million
#: fingerprints -- ~98.5% of new adds that reach it never touch the disk.
BLOOM_BITS = 1 << 25

_IDENTITY_BYTES = 8

#: ``meta`` marker distinguishing our databases from arbitrary SQLite files;
#: the suffix is the table layout's version.
_MAGIC_PREFIX = "repro-disk-store-"
_MAGIC = _MAGIC_PREFIX + "v2"


class DiskStoreError(CheckerError):
    """The disk store file is missing, foreign, or from a different run."""


def _to_signed(fp: int) -> int:
    """Map an unsigned 64-bit fingerprint into SQLite's signed INTEGER."""
    return fp - 0x1_0000_0000_0000_0000 if fp >= 0x8000_0000_0000_0000 else fp


def _to_unsigned(fp: int) -> int:
    return fp + 0x1_0000_0000_0000_0000 if fp < 0 else fp


class _Bloom:
    """Two-probe Bloom filter over 64-bit fingerprints; no false negatives."""

    __slots__ = ("_bits", "_mask")

    def __init__(self, bits: int = BLOOM_BITS) -> None:
        self._bits = bytearray(bits >> 3)
        self._mask = bits - 1

    def add(self, fp: int) -> None:
        bits, mask = self._bits, self._mask
        for pos in (fp & mask, (fp >> 29) & mask):
            bits[pos >> 3] |= 1 << (pos & 7)

    def might_contain(self, fp: int) -> bool:
        bits, mask = self._bits, self._mask
        pos = fp & mask
        if not bits[pos >> 3] & (1 << (pos & 7)):
            return False
        pos = (fp >> 29) & mask
        return bool(bits[pos >> 3] & (1 << (pos & 7)))


class DiskFingerprintStore:
    """Exact 64-bit fingerprint set persisted in a SQLite file.

    ``path=None`` creates an ephemeral database in the system temp directory,
    removed again on :meth:`close` -- fine for one-shot runs.  Checkpointed
    runs must name a path (``--store-path``): the file *is* the visited set,
    and resume reopens it.

    ``capacity`` sizes the write-back cache (pending adds per flush batch),
    not the store -- the store itself is unbounded and exact.
    """

    name = "disk"

    def __init__(
        self, capacity: Optional[int] = None, path: Optional[str] = None
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("store capacity must be >= 1")
        self.cache_size = capacity or DEFAULT_WRITE_CACHE
        self._ephemeral = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-disk-store-", suffix=".sqlite")
            os.close(fd)
            os.unlink(path)  # let SQLite create it from scratch
        self.path = os.path.abspath(path)
        try:
            self._conn = sqlite3.connect(self.path)
        except sqlite3.Error as exc:  # a missing directory, or a directory
            raise DiskStoreError(f"cannot open disk store {self.path!r}: {exc}") from exc
        try:
            # The first PRAGMA reads the file header, so a non-SQLite file
            # fails here -- before any schema work touches it.
            self._conn.execute("PRAGMA journal_mode=OFF")
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]
            raise DiskStoreError(
                f"{self.path!r} exists but is not a SQLite database: {exc}"
            ) from exc
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute("PRAGMA cache_size=-16384")  # 16 MiB page cache

        #: fp -> parent fp, not yet flushed, in add order: the entry ``i``
        #: places from the end carries sequence number ``_seq - i``.
        self._pending: Dict[int, Optional[int]] = {}
        #: Resident flushed fingerprints, oldest first (values unused).
        self._hot: Dict[int, None] = {}
        #: Over the fingerprints dropped from ``_hot``; None until a drop.
        self._bloom: Optional[_Bloom] = None
        self._seq = self._added = 0
        #: Wall-clock seconds spent inside SQLite (lookups, flushes, restore
        #: scans): what tells a store-bound run from a CPU-bound one.
        self.io_seconds = 0.0
        self.flushes = 0
        #: Telemetry counters: membership checks the Bloom filter answered
        #: without SQLite, and actual indexed SELECT probes -- both zero
        #: until something is dropped from memory.  Folded into the metrics
        #: registry (as ``store.*``) when an observability run is active.
        self.bloom_negatives = 0
        self.disk_probes = 0

        try:
            existing = self._load_header()
        except DiskStoreError:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]
            raise
        if existing is None:
            self._reset()
            self._stale = False
        else:
            # A valid store file from an earlier run: keep its contents until
            # we learn whether this run resumes from it (restore()) or starts
            # fresh (first mutation wipes it).
            self.identity = existing
            self._stale = True

    # -- database plumbing ---------------------------------------------------
    def _load_header(self) -> Optional[str]:
        """Identity token of a valid existing store file, else None."""
        try:
            rows = dict(
                self._conn.execute("SELECT key, value FROM meta").fetchall()
            )
        except sqlite3.DatabaseError:
            # No meta table: acceptable only for a brand-new empty database.
            # A populated database belonging to something else must not be
            # silently adopted (and later wiped).
            objects = self._conn.execute(
                "SELECT count(*) FROM sqlite_master"
            ).fetchone()[0]
            if objects:
                raise DiskStoreError(
                    f"{self.path!r} is a SQLite database but not a repro "
                    "disk fingerprint store"
                ) from None
            return None
        magic = rows.get("magic")
        if magic != _MAGIC:
            if isinstance(magic, str) and magic.startswith(_MAGIC_PREFIX):
                raise DiskStoreError(
                    f"{self.path!r} is a repro disk store in an older format "
                    f"({magic}, this version reads {_MAGIC}); it was left "
                    "untouched -- delete it or point --store-path elsewhere"
                )
            raise DiskStoreError(
                f"{self.path!r} is a SQLite database but not a repro disk "
                "fingerprint store"
            )
        return rows["identity"]

    def _reset(self) -> None:
        """(Re-)initialize the schema with a fresh identity; drops all rows."""
        conn = self._conn
        conn.executescript(
            """
            CREATE TABLE IF NOT EXISTS meta(key TEXT PRIMARY KEY, value TEXT);
            CREATE TABLE IF NOT EXISTS fps(
                fp INTEGER PRIMARY KEY, parent INTEGER, seq INTEGER NOT NULL);
            DELETE FROM fps; DELETE FROM meta;
            """
        )
        self.identity = os.urandom(_IDENTITY_BYTES).hex()
        conn.executemany(
            "INSERT INTO meta(key, value) VALUES(?, ?)",
            [("magic", _MAGIC), ("identity", self.identity)],
        )
        conn.commit()

    def _ensure_fresh(self) -> None:
        """First mutation of a run that did not restore(): wipe stale rows."""
        self._reset()
        self._seq = self._added = 0
        self._stale = False

    # -- the StateStore contract ---------------------------------------------
    def add(self, fp: int, parent: Optional[int] = None) -> bool:
        if self._stale:
            self._ensure_fresh()
        pending = self._pending
        if fp in pending or fp in self._hot:
            return False
        if self._on_disk(fp):
            self._hot[fp] = None  # re-admitted: its next duplicate costs no query
            self._trim()
            return False
        self._seq += 1
        pending[fp] = parent
        self._added += 1
        if len(pending) >= self.cache_size:
            self.flush()
        return True

    def parent_of(self, fp: int) -> Optional[int]:
        """The fingerprint ``fp`` was first reached from (None: an initial state)."""
        pending = self._pending
        if fp in pending:
            return pending[fp]
        with span("store.parent_lookup", emit=False) as sp:
            row = self._conn.execute(
                "SELECT parent FROM fps WHERE fp = ?", (_to_signed(fp),)
            ).fetchone()
        self.io_seconds += sp.elapsed
        if row is None:
            raise KeyError(fp)
        return None if row[0] is None else _to_unsigned(row[0])

    def __contains__(self, fp: int) -> bool:
        return fp in self._pending or fp in self._hot or self._on_disk(fp)

    def __len__(self) -> int:
        return self._added

    @property
    def distinct_count(self) -> int:
        return self._added

    def _on_disk(self, fp: int) -> bool:
        """Whether a non-resident ``fp`` is in the table; False while nothing was dropped."""
        if self._bloom is None:
            return False
        if not self._bloom.might_contain(fp):
            self.bloom_negatives += 1
            return False
        self.disk_probes += 1
        with span("store.lookup", emit=False) as sp:
            row = self._conn.execute(
                "SELECT 1 FROM fps WHERE fp = ?", (_to_signed(fp),)
            ).fetchone()
        self.io_seconds += sp.elapsed
        return row is not None

    def _trim(self) -> None:
        """Past the resident cap, drop the oldest half into the Bloom filter."""
        hot = self._hot
        if len(hot) > HOT_CACHE_ENTRIES:
            bloom = self._bloom = self._bloom or _Bloom()
            for stale in list(islice(hot, len(hot) // 2)):
                bloom.add(stale)
                del hot[stale]

    def flush(self) -> None:
        """Write the pending ``fp -> parent`` entries to the database in one batch."""
        pending = self._pending
        if not pending:
            return
        with span("store.flush", emit=False) as sp:
            first_seq = self._seq - len(pending) + 1
            # Streamed rows; the signed mapping is _to_signed's, inlined.
            sign, wrap = 1 << 63, 1 << 64
            self._conn.executemany(
                "INSERT OR IGNORE INTO fps(fp, parent, seq) VALUES(?, ?, ?)",
                (
                    (
                        fp - wrap if fp >= sign else fp,
                        parent - wrap if parent is not None and parent >= sign else parent,
                        seq,
                    )
                    for seq, (fp, parent) in enumerate(pending.items(), first_seq)
                ),
            )
            self._conn.commit()
            self._hot.update(dict.fromkeys(pending))  # keys only: parents stay on disk
            self._trim()
            pending.clear()
            self.flushes += 1
        self.io_seconds += sp.elapsed

    # -- checkpoint seam -----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Tiny identity header instead of the (huge) set contents.

        The fingerprints and their parents stay where they already are -- in
        the database file -- and the header pins which file, which
        incarnation of it, and how far (sequence high-water mark) the
        snapshot reaches.
        """
        if self._stale:
            # Snapshotting a store nothing was added to yet: start it fresh
            # so the header's identity matches what later adds will extend.
            self._ensure_fresh()
        self.flush()
        return {
            "kind": "disk",
            "path": self.path,
            "identity": self.identity,
            "seq": self._seq,
            "added": self._added,
        }

    def restore(self, data: Dict[str, Any]) -> None:
        """Rewind the opened database to a :meth:`snapshot` header.

        Validates the identity token (the snapshot must describe *this*
        file's incarnation), then deletes every row with a sequence number
        beyond the snapshot's high-water mark: adds performed after the
        checkpoint -- by the run that was interrupted -- vanish, so the
        resumed exploration replays them itself and stays bit-identical.
        """
        if data.get("kind") != "disk":
            raise DiskStoreError(
                "checkpoint does not hold a disk-store snapshot header"
            )
        if not self._stale:
            raise DiskStoreError(
                f"checkpoint references disk store {data['path']!r} "
                f"(identity {data['identity']}), but {self.path!r} is a "
                "freshly created store; point --store-path at the original "
                "store file"
            )
        if data["identity"] != self.identity:
            raise DiskStoreError(
                f"checkpoint was taken against disk store identity "
                f"{data['identity']} but {self.path!r} holds identity "
                f"{self.identity}; this is not the store file of the "
                "checkpointed run"
            )
        with span("store.restore", emit=False) as sp:
            conn = self._conn
            conn.execute("DELETE FROM fps WHERE seq > ?", (data["seq"],))
            conn.commit()
            self._seq = data["seq"]
            self._added = data["added"]
            self._pending.clear()
            self._hot.clear()
            # Every row starts out dropped, which keeps the invariant.
            self._bloom = bloom = _Bloom()
            for (signed,) in conn.execute("SELECT fp FROM fps"):
                bloom.add(_to_unsigned(signed))
        self.io_seconds += sp.elapsed
        self._stale = False

    # -- lifecycle -----------------------------------------------------------
    def iter_fingerprints(self) -> Iterable[int]:
        """All fingerprints currently in the store (flushes first); for tests."""
        self.flush()
        for (signed,) in self._conn.execute("SELECT fp FROM fps ORDER BY seq"):
            yield _to_unsigned(signed)

    def close(self) -> None:
        """Flush, release the connection, and delete ephemeral files."""
        if self._conn is None:
            return
        try:
            if not self._stale:
                self.flush()
        finally:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]
            if self._ephemeral:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
