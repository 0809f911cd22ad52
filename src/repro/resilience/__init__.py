"""Checkpoints and atomic writes: what lets a long run stop and continue.

:mod:`repro.resilience.checkpoint` holds periodic atomic snapshots of a BFS
run (visited store, frontier, stats) and of a watch service, the resume
path that continues an interrupted run to bit-identical final statistics,
and the atomic-write helpers the streaming reports share.
"""

from .checkpoint import (
    Checkpoint,
    CheckpointError,
    WatchCheckpoint,
    atomic_write_bytes,
    atomic_write_text,
    read_checkpoint,
    read_watch_checkpoint,
    write_checkpoint,
    write_watch_checkpoint,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "WatchCheckpoint",
    "atomic_write_bytes",
    "atomic_write_text",
    "read_checkpoint",
    "read_watch_checkpoint",
    "write_checkpoint",
    "write_watch_checkpoint",
]
