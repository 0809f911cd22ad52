"""Fault-tolerant checking runtime: supervision, checkpointing, chaos.

The runtime robustness layer under the execution paths of the reproduction.
Three pieces, each usable on its own:

* :mod:`repro.resilience.supervisor` -- :class:`SupervisedPool`, a worker
  process pool with crash detection, a per-task timeout as its hang
  detector, checksummed result envelopes, bounded retry with exponential
  backoff, and -- once a task exhausts its attempts -- the caller's inline
  path for everything unfinished (:meth:`SupervisedPool.map`).  The sharded
  simulation engine and the batch trace runner's process executor dispatch
  through it.
* :mod:`repro.resilience.checkpoint` -- periodic atomic snapshots of a BFS
  run (visited store, frontier, parent map, stats) and the resume path that
  continues an interrupted run to bit-identical final statistics; plus the
  atomic-write helpers the streaming reports share.
* :mod:`repro.resilience.faults` -- :class:`FaultPlan`, the deterministic
  seeded chaos layer that injects worker crashes, hangs, slowdowns and
  corrupt results keyed on ``(worker_id, task_index)``, so every recovery
  path above is exercised reproducibly in tests and in CI.

Importing the package loads neither ``multiprocessing`` nor ``logging``:
the pool imports the first when it starts a worker and the second when it
logs its first warning, so the engines and the CLI name
:class:`SupervisionConfig` and :class:`SupervisionStats` for free.
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
from .faults import CHAOS_EXIT_CODE, FAULT_KINDS, FaultPlan
from .supervisor import (
    SupervisedPool,
    SupervisionConfig,
    SupervisionStats,
    TaskError,
)

__all__ = [
    "CHAOS_EXIT_CODE",
    "Checkpoint",
    "CheckpointError",
    "FAULT_KINDS",
    "FaultPlan",
    "SupervisedPool",
    "SupervisionConfig",
    "SupervisionStats",
    "TaskError",
    "WatchCheckpoint",
    "atomic_write_bytes",
    "atomic_write_text",
    "read_checkpoint",
    "read_watch_checkpoint",
    "write_checkpoint",
    "write_watch_checkpoint",
]
