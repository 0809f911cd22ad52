"""Rotation- and truncation-aware log following (the ``tail -F`` half).

Real server logs are messy in exactly three ways a batch reader never sees:

* **Rotation** -- the file is renamed away and a new one appears under the
  same path (a different inode).  The tailer finishes reading the old file
  through its open handle, then reopens the path from byte 0.
* **Truncation** -- the file shrinks in place (``copytruncate`` rotation, a
  restarted writer).  The tailer rewinds to byte 0 and restarts its line
  numbering; bytes it already emitted stay emitted.
* **Torn lines** -- the writer crashed (or is mid-``write``) and the file
  ends without a newline.  The partial tail is held back and re-examined
  with bounded retries under exponential backoff; only when the retries are
  exhausted is the line declared torn and surrendered to the caller (who
  quarantines it), so a slow writer is never misread but a dead one cannot
  stall the stream forever.

The tailer is pull-based and single-owner: the service's one loop calls
:meth:`LogTailer.poll` whenever it has checked every line the last poll
returned.  ``offset``/``lineno`` always
describe *emitted* lines only -- a held-back partial is not part of the
offset, so a checkpoint taken between polls resumes by simply re-reading
from ``offset``.

Reading is bounded and linear: a poll reads at most :data:`READ_CHUNK` bytes
and splits them once, so the tailer never holds more than one chunk plus one
partial line, however large the backlog it is catching up on (only a
rotation reads on, to the end of the file it is about to let go of).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["LogTailer", "TailBatch", "TailedLine"]

#: Most bytes one ``read`` asks for, and so one :meth:`LogTailer.poll` holds.
READ_CHUNK = 1 << 20


@dataclass(frozen=True)
class TailedLine:
    """One complete (or declared-torn) line read from a source file."""

    lineno: int
    #: Byte offset just past this line in the source file; the resume point
    #: after the line has been consumed.
    offset: int
    text: str
    #: True when this is a partial tail line surrendered after its retry
    #: budget; the caller quarantines it instead of parsing it.
    torn: bool = False


@dataclass
class TailBatch:
    """Everything one :meth:`LogTailer.poll` observed."""

    lines: List[TailedLine] = field(default_factory=list)
    #: The path's inode changed: the old file was read to EOF and the tailer
    #: reopened the path from byte 0.
    rotated: bool = False
    #: The file shrank in place; the tailer rewound to byte 0.
    truncated: bool = False
    #: The path does not exist (yet, or between rotations).
    waiting: bool = False
    #: Read position caught up with the file size at poll time and no
    #: partial line is held back -- the signal ``--once`` mode drains on.
    at_eof: bool = False


class LogTailer:
    """Follow one log file across rotations, truncations and torn writes."""

    def __init__(
        self,
        path: str,
        *,
        start_offset: int = 0,
        start_lineno: int = 0,
        partial_retries: int = 5,
        partial_backoff: float = 0.05,
    ) -> None:
        if partial_retries < 1:
            raise ValueError(f"partial_retries must be >= 1; got {partial_retries}")
        self.path = path
        #: Byte offset of the first un-emitted byte (checkpointed).
        self.offset = start_offset
        #: Line number of the last emitted line (checkpointed).
        self.lineno = start_lineno
        self.partial_retries = partial_retries
        self.partial_backoff = partial_backoff
        #: Cumulative robustness counters (runtime diagnostics, not part of
        #: the deterministic report).
        self.rotations = 0
        self.truncations = 0
        self.torn_lines = 0
        self.bytes_read = 0
        self._handle = None
        self._inode: Optional[int] = None
        self._partial = b""
        self._partial_attempts = 0
        self._partial_deadline = 0.0

    # -- public ---------------------------------------------------------------
    @property
    def partial(self) -> str:
        """The held-back partial tail line (informational)."""
        return self._partial.decode("utf-8", errors="replace")

    def poll(self, now: Optional[float] = None) -> TailBatch:
        """Read whatever is newly available; never blocks on the file."""
        now = time.monotonic() if now is None else now
        batch = TailBatch()
        if self._handle is None and not self._open(batch):
            return batch
        self._check_identity(batch)
        if self._handle is None:
            # Rotated away with no replacement yet (or became unreadable).
            self._flush_torn(batch, reason_is_rotation=True)
            batch.waiting = True
            return batch
        self._emit_complete_lines(batch, self._read_chunk())
        more = self._more_available()
        if not self._partial:
            self._partial_attempts = 0
        elif not more:
            # Only a file that *ends* without a newline may be torn; a chunk
            # that ends mid-line is completed by the next poll.
            self._age_partial(batch, now)
        batch.at_eof = not self._partial and not more
        return batch

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    # -- file identity --------------------------------------------------------
    def _open(self, batch: TailBatch) -> bool:
        try:
            # Unbuffered: a poll is one ``read`` of the file as it is now, and
            # no read-ahead outlives a truncation.
            handle = open(self.path, "rb", buffering=0)
            inode = os.fstat(handle.fileno()).st_ino
            size = os.fstat(handle.fileno()).st_size
        except OSError:
            batch.waiting = True
            return False
        if size < self.offset:
            # The file at this path is shorter than what we already emitted:
            # it was truncated (or replaced) while we were not watching.
            self._rewind(batch)
        handle.seek(self.offset)
        self._handle = handle
        self._inode = inode
        return True

    def _check_identity(self, batch: TailBatch) -> None:
        """Detect rotation (inode change) and truncation (shrink) per poll."""
        assert self._handle is not None
        try:
            stat = os.stat(self.path)
        except OSError:
            stat = None
        here = os.fstat(self._handle.fileno())
        if stat is None or stat.st_ino != self._inode:
            # Rotated: drain the old file through the still-open handle
            # first -- to its end, it will not be seen again -- then switch
            # to the new one (or wait for it).
            while True:
                tail = self._read_chunk()
                if not tail:
                    break
                self._emit_complete_lines(batch, tail)
            self._flush_torn(batch, reason_is_rotation=True)
            self.close()
            self.offset = 0
            self.lineno = 0
            self.rotations += 1
            batch.rotated = True
            if stat is not None:
                self._open(batch)
            return
        if here.st_size < self.offset + len(self._partial):
            self._rewind(batch)
            self._handle.seek(0)

    def _rewind(self, batch: TailBatch) -> None:
        self.offset = 0
        self.lineno = 0
        self._partial = b""
        self._partial_attempts = 0
        self.truncations += 1
        batch.truncated = True

    # -- reading --------------------------------------------------------------
    def _read_chunk(self) -> bytes:
        assert self._handle is not None
        try:
            data = self._handle.read(READ_CHUNK)
        except OSError:
            # The handle went bad mid-read (forced unmount, revoked FD); the
            # next poll's identity check reopens or starts waiting.
            self.close()
            return b""
        self.bytes_read += len(data)
        return data

    def _more_available(self) -> bool:
        if self._handle is None:
            return False
        try:
            return os.fstat(self._handle.fileno()).st_size > self.offset + len(
                self._partial
            )
        except OSError:
            return False

    def _emit_complete_lines(self, batch: TailBatch, data: bytes) -> None:
        """Emit the lines ``data`` completes; hold back what follows the last newline."""
        if b"\n" not in data:
            self._partial += data
            return
        *complete, self._partial = (self._partial + data).split(b"\n")
        self._partial_attempts = 0
        offset, lineno = self.offset, self.lineno
        for raw in complete:
            offset += len(raw) + 1
            lineno += 1
            batch.lines.append(TailedLine(lineno, offset, raw.decode("utf-8", errors="replace")))
        self.offset, self.lineno = offset, lineno

    # -- torn-line handling ---------------------------------------------------
    def _age_partial(self, batch: TailBatch, now: float) -> None:
        """Bounded retry with exponential backoff before declaring a tear."""
        if self._partial_attempts == 0:
            self._partial_attempts = 1
            self._partial_deadline = now + self.partial_backoff
            return
        if now < self._partial_deadline:
            return
        self._partial_attempts += 1
        if self._partial_attempts <= self.partial_retries:
            self._partial_deadline = now + self.partial_backoff * (
                2 ** (self._partial_attempts - 1)
            )
            return
        self._flush_torn(batch, reason_is_rotation=False)

    def _flush_torn(self, batch: TailBatch, *, reason_is_rotation: bool) -> None:
        """Surrender the held-back partial as a torn line and skip past it.

        On rotation the tear is immediate -- the old file can never be
        completed -- otherwise this is the end of the retry schedule.
        """
        del reason_is_rotation
        if not self._partial:
            return
        raw = self._partial
        self._partial = b""
        self._partial_attempts = 0
        self.offset += len(raw)
        self.lineno += 1
        self.torn_lines += 1
        batch.lines.append(
            TailedLine(
                lineno=self.lineno,
                offset=self.offset,
                text=raw.decode("utf-8", errors="replace"),
                torn=True,
            )
        )
