"""Chunked, compressed spill-to-disk frontiers for the BFS engine.

The fingerprint-interned BFS keeps only the current and next level in
memory, as ``(value tuple, fingerprint)`` pairs -- but at paper scale a
single level can be wider than the whole visited set of a toy model, so
"only the frontier" still means hundreds of megabytes of live tuples.  A
:class:`SpillFrontier` caps that: the first ``threshold`` entries stay in
memory as given, and everything past the threshold is batched into chunks,
pickled, zlib-compressed and appended to an anonymous temp file.  Iteration
streams the spilled chunks back in append order, one chunk at a time -- so
peak RSS is bounded by ``threshold + chunk`` entries regardless of how wide
the level grows.  Entries come back exactly as they were appended; nothing
is rebuilt.

The frontier is re-iterable (checkpointing iterates it once for the
snapshot, the engine iterates it again to expand) and append order is
preserved exactly, which is all the bit-identical-statistics contract
requires: the engines never index into a frontier, they only append and
then consume in order.  The spool file is an unnamed ``TemporaryFile``, so
it disappears with the object (or the process) without any cleanup
protocol.
"""

from __future__ import annotations

import pickle
import tempfile
import zlib
from typing import Any, Iterator, List, Tuple

__all__ = ["DEFAULT_SPILL_THRESHOLD", "SPILL_CHUNK_STATES", "SpillFrontier"]

#: In-memory entries kept before spilling starts (per frontier instance).
DEFAULT_SPILL_THRESHOLD = 100_000

#: Entries per compressed chunk once spilling has started.
SPILL_CHUNK_STATES = 10_000

#: zlib level 1: the payloads are highly repetitive value tuples, so even the
#: fastest setting compresses them several-fold; higher levels only add CPU.
_ZLIB_LEVEL = 1


class SpillFrontier:
    """Append-ordered ``(values, fp)`` buffer that spills past a threshold.

    ``schema`` is accepted and unused: entries are stored as given.
    """

    __slots__ = (
        "_threshold",
        "_chunk_states",
        "_head",
        "_tail",
        "_spool",
        "_chunks",
        "_len",
        "spilled_states",
        "compressed_bytes",
    )

    def __init__(
        self,
        schema: Any = None,
        *,
        threshold: int = DEFAULT_SPILL_THRESHOLD,
        chunk_states: int = SPILL_CHUNK_STATES,
    ) -> None:
        if threshold < 1:
            raise ValueError("spill threshold must be >= 1")
        if chunk_states < 1:
            raise ValueError("chunk size must be >= 1")
        self._threshold = threshold
        # Chunks never exceed the threshold: a small threshold is a request
        # for a small memory footprint, and a tail chunk is resident until it
        # flushes -- a 10k-entry chunk behind a 64-entry threshold would
        # quietly hold 150x the requested memory (and never actually spill
        # levels narrower than the chunk).
        self._chunk_states = min(chunk_states, threshold)
        self._head: List[Tuple[Any, int]] = []
        self._tail: List[Tuple[Any, int]] = []  # current chunk
        self._spool = None  # created lazily on first chunk flush
        self._chunks: List[Tuple[int, int]] = []  # (offset, compressed size)
        self._len = 0
        self.spilled_states = 0
        self.compressed_bytes = 0

    def append(self, item: Tuple[Any, int]) -> None:
        """Add one ``(values, fingerprint)`` pair (list-compatible signature)."""
        self._len += 1
        if not self._tail and len(self._head) < self._threshold:
            self._head.append(item)
            return
        self._tail.append(item)
        if len(self._tail) >= self._chunk_states:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        if not self._tail:
            return
        if self._spool is None:
            self._spool = tempfile.TemporaryFile(prefix="repro-frontier-")
        blob = zlib.compress(
            pickle.dumps(self._tail, protocol=pickle.HIGHEST_PROTOCOL),
            _ZLIB_LEVEL,
        )
        self._spool.seek(0, 2)  # append
        offset = self._spool.tell()
        self._spool.write(blob)
        self._chunks.append((offset, len(blob)))
        self.spilled_states += len(self._tail)
        self.compressed_bytes += len(blob)
        self._tail = []

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator[Tuple[Any, int]]:
        """Yield every pair in append order; safe to run more than once."""
        yield from self._head
        for offset, size in self._chunks:
            self._spool.seek(offset)
            yield from pickle.loads(zlib.decompress(self._spool.read(size)))
        yield from self._tail

    def close(self) -> None:
        """Drop the spool file early (GC would get it eventually anyway)."""
        if self._spool is not None:
            self._spool.close()
            self._spool = None
        self._head = []
        self._tail = []
        self._chunks = []
