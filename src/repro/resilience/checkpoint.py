"""Checkpoint/resume for long checking runs, plus atomic file helpers.

A million-state BFS that dies at 95% -- a worker OOM, a preempted VM, a
ctrl-C -- should not cost the whole run.  A :class:`Checkpoint` freezes
everything a level-synchronous BFS needs to continue *exactly* where it
stopped: the visited-store contents (through the ``StateStore`` snapshot
seam), the current frontier (as picklable value tuples), the fingerprint
parent map (so counterexamples found *after* resume still replay back to an
initial state explored *before* the interruption), and the accumulated
statistics.  Because the BFS is deterministic and merges in frontier order,
an interrupted-then-resumed run reports statistics and counterexamples
bit-identical to an uninterrupted one -- the golden-stats contract the
checkpoint test suite pins.

Checkpoints are written atomically (temp file in the target directory, then
``os.replace``), so a crash *during* checkpointing leaves the previous
checkpoint intact rather than a truncated file; the same helpers back the
watch service's report and status files.  The format is a pickle with a version
header and the spec's registry identity, validated on load: resuming a
``locking`` checkpoint into a ``raftmongo`` run is an error, not garbage.

Stores that live on disk already (the ``disk`` SQLite store) snapshot as a
tiny identity header instead of their contents: the checkpoint records the
database path, a per-lifetime identity token and a rewind point, and
``restore`` validates the token against the file before rolling the tables
back -- so checkpoint size stays flat no matter how many million
fingerprints the run has visited.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..tla.errors import CheckerError

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "WATCH_CHECKPOINT_VERSION",
    "WatchCheckpoint",
    "atomic_write_bytes",
    "atomic_write_text",
    "read_checkpoint",
    "read_watch_checkpoint",
    "write_checkpoint",
    "write_watch_checkpoint",
]

CHECKPOINT_VERSION = 1

WATCH_CHECKPOINT_VERSION = 1

#: Leading bytes of every checkpoint file, checked before unpickling.
_MAGIC = b"REPROCKPT1\n"

#: Leading bytes of a streaming-service checkpoint (a different animal from a
#: BFS snapshot: per-source offsets + per-trace checker state, not a frontier).
_WATCH_MAGIC = b"REPROWATCH1\n"


class CheckpointError(CheckerError):
    """A checkpoint file is missing, malformed, or from a different run."""


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (same-directory temp + replace).

    Readers either see the complete previous content or the complete new
    content; an interruption mid-write can never leave a truncated file at
    ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Atomic UTF-8 text write; see :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


@dataclass
class Checkpoint:
    """A resumable snapshot of a level-synchronous BFS run."""

    spec_name: str
    #: ``(registry name, params)`` when the spec came from the registry;
    #: used to reject resuming into a different specification.
    registry_ref: Optional[Tuple[str, Dict[str, Any]]]
    store_name: str
    store_capacity: Optional[int]
    #: Depth of the next level to expand (every level below is complete).
    depth: int
    #: The pending frontier as ``(state value tuple, fingerprint)`` pairs.
    frontier: List[Tuple[Tuple[Any, ...], int]]
    #: ``StateStore.snapshot()`` of the visited set.
    store_state: Any
    #: Fingerprint parent map for counterexample replay across the resume.
    parents: Dict[int, Tuple[Optional[int], Optional[str]]]
    #: Accumulated CheckResult statistics at the snapshot point.
    stats: Dict[str, Any] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def validate_for(
        self,
        spec_name: str,
        registry_ref: Optional[Tuple[str, Dict[str, Any]]],
        store_name: str,
    ) -> None:
        """Refuse to resume into a run this snapshot does not belong to."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {self.version} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        if self.spec_name != spec_name or (
            self.registry_ref is not None
            and registry_ref is not None
            and self.registry_ref != registry_ref
        ):
            raise CheckpointError(
                f"checkpoint was taken for specification {self.spec_name!r} "
                f"{self.registry_ref}; refusing to resume {spec_name!r} "
                f"{registry_ref} from it"
            )
        if self.store_name != store_name:
            raise CheckpointError(
                f"checkpoint holds a {self.store_name!r} store snapshot; "
                f"the resuming run uses store {store_name!r}"
            )


@dataclass
class WatchCheckpoint:
    """A resumable snapshot of the streaming ``repro watch`` service.

    Everything the service needs to pick up exactly where a SIGTERM drained
    it: how far into each source file it had *consumed* (not merely read --
    queued-but-unchecked lines are re-read on resume), the held-back partial
    tail line per source, every per-trace incremental checker's full state,
    and the rolling report's deterministic counters.  A resumed run over the
    same data therefore produces a final report bit-identical to an
    uninterrupted one.
    """

    spec_name: str
    registry_ref: Optional[Tuple[str, Dict[str, Any]]]
    #: Log-adapter name; resuming with a different adapter would re-parse
    #: the remaining bytes under different rules, so it is rejected.
    adapter: str
    #: Per source path: ``{"offset": int, "lineno": int, "partial": str}``.
    sources: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Per source path: the pickled-in-place IncrementalChecker snapshot.
    checkers: Dict[str, Any] = field(default_factory=dict)
    #: RollingReport.snapshot() -- the deterministic counters.
    report: Dict[str, Any] = field(default_factory=dict)
    version: int = WATCH_CHECKPOINT_VERSION

    def validate_for(
        self,
        spec_name: str,
        registry_ref: Optional[Tuple[str, Dict[str, Any]]],
        adapter: str,
    ) -> None:
        """Refuse to resume into a service this snapshot does not belong to."""
        if self.version != WATCH_CHECKPOINT_VERSION:
            raise CheckpointError(
                f"watch checkpoint version {self.version} is not supported "
                f"(expected {WATCH_CHECKPOINT_VERSION})"
            )
        if self.spec_name != spec_name or (
            self.registry_ref is not None
            and registry_ref is not None
            and self.registry_ref != registry_ref
        ):
            raise CheckpointError(
                f"watch checkpoint was taken for specification "
                f"{self.spec_name!r} {self.registry_ref}; refusing to resume "
                f"{spec_name!r} {registry_ref} from it"
            )
        if self.adapter != adapter:
            raise CheckpointError(
                f"watch checkpoint was taken with log adapter {self.adapter!r}; "
                f"the resuming service uses {adapter!r}"
            )


def write_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Serialize and atomically persist ``checkpoint`` at ``path``."""
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write_bytes(path, _MAGIC + payload)


def write_watch_checkpoint(path: str, checkpoint: WatchCheckpoint) -> None:
    """Serialize and atomically persist a service snapshot at ``path``."""
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write_bytes(path, _WATCH_MAGIC + payload)


def _read_magic_pickle(path: str, magic: bytes, cls: type, kind: str) -> Any:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {kind} {path!r}: {exc}") from exc
    if not data.startswith(magic):
        raise CheckpointError(f"{path!r} is not a repro {kind} file")
    try:
        checkpoint = pickle.loads(data[len(magic) :])
    except Exception as exc:
        raise CheckpointError(
            f"{kind} {path!r} is corrupt or from an incompatible version: {exc}"
        ) from exc
    if not isinstance(checkpoint, cls):
        raise CheckpointError(f"{path!r} does not contain a {cls.__name__} object")
    return checkpoint


def read_checkpoint(path: str) -> Checkpoint:
    """Load a checkpoint written by :func:`write_checkpoint`."""
    return _read_magic_pickle(path, _MAGIC, Checkpoint, "checkpoint")


def read_watch_checkpoint(path: str) -> WatchCheckpoint:
    """Load a service snapshot written by :func:`write_watch_checkpoint`."""
    return _read_magic_pickle(
        path, _WATCH_MAGIC, WatchCheckpoint, "watch checkpoint"
    )
