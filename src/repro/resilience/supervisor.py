"""A supervised worker-process pool: timeouts, heartbeats, retries, degrade.

``concurrent.futures.ProcessPoolExecutor`` treats a dead worker as a dead
pool: one crashed or hung process turns a multi-hour checking run into a
``BrokenProcessPool`` traceback.  :class:`SupervisedPool` replaces it under
the engines with a pool that treats worker failure as a scheduling event:

* **Crash detection** -- every worker process is polled for an exit code
  while it holds a task; a nonzero (or chaos-sentinel) exit re-dispatches
  the task.
* **Hang detection** -- per-task wall-clock timeouts, plus heartbeats: each
  worker runs a daemon thread that beats over its result pipe every
  ``heartbeat_interval``; a busy worker whose beats stop (a frozen or
  stopped process) is declared unresponsive even before its task timeout.
* **Result validation** -- results travel in a checksum envelope
  (``crc32`` over the pickled payload); a corrupted payload is rejected and
  the task retried rather than silently merged.
* **Bounded retry with backoff** -- a failed attempt recycles its worker
  (terminate + respawn under a fresh worker id) and re-dispatches the task
  after ``backoff_base * 2**(attempt-1)`` seconds, up to ``max_attempts``.
* **Graceful degradation** -- after ``degrade_after`` consecutive failures
  the pool stops pretending: every unfinished task fails fast with
  :class:`TaskError` so the caller can fall back to its serial path (all
  engine call sites do), instead of the run dying.

Determinism: tasks are routed statically (``task_index % workers``) to a
fixed slot and callers consume results in task-index order, so the merged
output of a run is bit-identical to the serial path no matter which attempt
on which worker produced each result -- the contract the cross-engine
parity suite pins, now also under chaos (:mod:`repro.resilience.faults`).

The pool is single-threaded on the supervisor side: the event loop (drain
pipes, detect failures, dispatch, back off) runs inside :meth:`submit` /
:meth:`result` calls, so there is no supervisor thread to synchronize with.

``multiprocessing`` is imported when the pool starts its first worker and
``logging`` with its first warning: a process that never pools -- and one
that reads :class:`SupervisionConfig` to pass it on -- loads neither.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Mapping, Optional, Tuple

from collections import deque

from ..obs import (
    current as obs_current,
    reset_for_child_process,
    worker_telemetry_from_env,
)
from .faults import CHAOS_EXIT_CODE, FaultPlan

if TYPE_CHECKING:
    from multiprocessing import Process
    from multiprocessing.connection import Connection

__all__ = [
    "ENV_TASK_TIMEOUT",
    "SupervisedPool",
    "SupervisionConfig",
    "SupervisionStats",
    "TaskError",
]

ENV_TASK_TIMEOUT = "REPRO_TASK_TIMEOUT"

#: Supervisor poll granularity: the upper bound on failure-detection latency,
#: not on throughput (results wake the supervisor immediately via the pipes).
_POLL_SECONDS = 0.02

#: How long shutdown waits for a worker to exit voluntarily before SIGTERM.
_SHUTDOWN_GRACE = 0.5


def _warn(message: str, *args: Any) -> None:
    """Log a supervision warning on the ``repro.resilience`` logger."""
    import logging

    logging.getLogger("repro.resilience").warning(message, *args)


class TaskError(RuntimeError):
    """A task exhausted its retry budget (or the pool degraded under it).

    Carries the task index and the last failure description; callers catch
    it per task and recompute the task inline on their serial path.
    """

    def __init__(self, task_index: int, message: str) -> None:
        super().__init__(f"task {task_index}: {message}")
        self.task_index = task_index
        self.reason = message


@dataclass(frozen=True)
class SupervisionConfig:
    """Tunable supervision behaviour, shared by every supervised call site."""

    #: Wall-clock budget per task attempt; None disables the per-task timer
    #: (heartbeat monitoring still runs).
    task_timeout: Optional[float] = 60.0
    heartbeat_interval: float = 0.25
    #: A busy worker silent for this long is declared unresponsive.
    heartbeat_timeout: float = 15.0
    #: Total attempts per task (first dispatch included).
    max_attempts: int = 3
    #: First retry delay; doubles per subsequent attempt of the same task.
    backoff_base: float = 0.05
    #: Consecutive failed attempts (across tasks) before the pool degrades.
    degrade_after: int = 6

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None, **overrides: Any
    ) -> "SupervisionConfig":
        """Defaults, with ``REPRO_TASK_TIMEOUT`` honored and kwargs applied."""
        env = os.environ if environ is None else environ
        raw = env.get(ENV_TASK_TIMEOUT)
        if raw is not None and "task_timeout" not in overrides:
            value = float(raw)
            overrides["task_timeout"] = value if value > 0 else None
        return cls(**overrides)


@dataclass
class SupervisionStats:
    """What supervision did during one pool lifetime (reported per run)."""

    tasks: int = 0
    completed: int = 0
    retries: int = 0
    crashes: int = 0
    hangs: int = 0
    corruptions: int = 0
    task_errors: int = 0
    #: Tasks that exhausted retries (their results came from a caller fallback).
    failed_tasks: int = 0
    workers_spawned: int = 0
    degraded: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tasks": self.tasks,
            "completed": self.completed,
            "retries": self.retries,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "corruptions": self.corruptions,
            "task_errors": self.task_errors,
            "failed_tasks": self.failed_tasks,
            "workers_spawned": self.workers_spawned,
            "degraded": self.degraded,
        }

    @property
    def recoveries(self) -> int:
        """Failure events survived (every retry is a recovered failure)."""
        return self.retries


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_main(
    worker_id: int,
    down: Connection,
    up: Connection,
    initializer: Optional[Callable[..., None]],
    initargs: Tuple[Any, ...],
    plan_params: Optional[Dict[str, Any]],
    heartbeat_interval: float,
) -> None:
    """One supervised worker: beat, init, then execute tasks until sentinel.

    All results go back in a ``("ok", worker_id, task_index, attempt,
    checksum, payload)`` envelope where ``checksum = crc32(payload)`` and
    ``payload = pickle(value)`` -- the supervisor rejects any envelope whose
    checksum does not match.  Exceptions raised by the task function are
    reported (``"error"``), not fatal: a worker survives its tasks' bugs.

    Telemetry rides the same pipe: when the coordinator exported
    ``REPRO_METRICS_OUT`` (see :mod:`repro.obs`), the worker accumulates
    task counts/timings in a private registry and ships one final
    ``("metrics", worker_id, run_id, snapshot)`` envelope at graceful
    shutdown; the supervisor merges it into the active run by run id.  A
    worker killed by recycle/terminate loses its snapshot -- telemetry is
    best-effort, results are not.
    """
    # A fork-started worker also inherits the coordinator's signal handlers
    # (the CLI turns SIGTERM/SIGINT into KeyboardInterrupt for its own
    # checkpoint-and-report path).  A worker has nothing to report: it dies
    # silently when the supervisor terminates it, and leaves a terminal's
    # ctrl-C to the coordinator, which tears the pool down.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A fork-started worker inherits the coordinator's active telemetry run
    # (and its open sink handle); drop it so the parent stays the stream's
    # only writer, then join the run through the env channel instead.
    reset_for_child_process()
    telemetry = worker_telemetry_from_env()
    plan = FaultPlan(**plan_params) if plan_params else None
    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def send(message: Tuple[Any, ...]) -> None:
        with send_lock:
            up.send(message)

    def beat() -> None:
        while not stop_beating.is_set():
            try:
                send(("beat", worker_id))
            except Exception:
                return
            stop_beating.wait(heartbeat_interval)

    threading.Thread(target=beat, daemon=True, name="heartbeat").start()
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            message = down.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task_index, attempt, fn, args = message
        fault = plan.fault_for(worker_id, task_index) if plan is not None else None
        try:
            if fault == "crash":
                os._exit(CHAOS_EXIT_CODE)
            if fault == "hang":
                time.sleep(plan.hang_seconds)  # type: ignore[union-attr]
            elif fault == "slow":
                time.sleep(plan.slow_seconds)  # type: ignore[union-attr]
            if telemetry is None:
                value = fn(*args)
            else:
                task_started = time.perf_counter()
                value = fn(*args)
                telemetry[1].inc("worker.tasks_total")
                telemetry[1].observe(
                    "worker.task_seconds", time.perf_counter() - task_started
                )
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            checksum = zlib.crc32(payload)
            if fault == "corrupt":
                checksum ^= 0xDEADBEEF
            send(("ok", worker_id, task_index, attempt, checksum, payload))
        except BaseException as exc:  # noqa: BLE001 - reported, not fatal
            if telemetry is not None:
                telemetry[1].inc("worker.task_errors")
            try:
                detail = f"{type(exc).__name__}: {exc}"
            except Exception:
                detail = type(exc).__name__
            send(("error", worker_id, task_index, attempt, detail))
    if telemetry is not None:
        run_id, registry = telemetry
        try:
            send(("metrics", worker_id, run_id, registry.snapshot()))
        except Exception:
            pass
    stop_beating.set()


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------


@dataclass
class _Task:
    index: int
    fn: Callable[..., Any]
    args: Tuple[Any, ...]
    attempts: int = 0
    not_before: float = 0.0
    #: "ready" | "running" | "done" | "failed"
    state: str = "ready"
    value: Any = None
    error: str = ""


@dataclass
class _Slot:
    """One worker position; its process is recycled across failures."""

    position: int
    worker_id: int = -1
    process: Optional[Process] = None
    down: Optional[Connection] = None
    up: Optional[Connection] = None
    busy: Optional[Tuple[int, int]] = None  # (task_index, attempt)
    dispatched_at: float = 0.0
    last_beat: float = 0.0
    ready: Deque[int] = field(default_factory=deque)


class SupervisedPool:
    """Fault-tolerant process pool with deterministic task routing.

    Usage::

        with SupervisedPool(workers, initializer=init, initargs=(...)) as pool:
            indices = [pool.submit(fn, args) for args in shards]
            for index in indices:
                try:
                    merge(pool.result(index))
                except TaskError:
                    merge(compute_inline(...))   # serial fallback

    ``submit`` routes the task to slot ``task_index % workers`` (static
    routing keeps the fault schedule of a seeded chaos run reproducible);
    ``result`` drives the supervision event loop until that task either
    completes or definitively fails.
    """

    def __init__(
        self,
        workers: int,
        *,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        config: Optional[SupervisionConfig] = None,
        chaos: Optional[FaultPlan] = None,
        name: str = "pool",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.config = config or SupervisionConfig.from_env()
        self.chaos = chaos if chaos is not None else FaultPlan.from_env()
        self.name = name
        self.stats = SupervisionStats()
        self._initializer = initializer
        self._initargs = initargs
        # Bound at construction: worker snapshots and pool stats fold into
        # the telemetry run that was active when this pool was created.
        self._obs_run = obs_current()
        self._slots = [_Slot(position=index) for index in range(workers)]
        self._tasks: Dict[int, _Task] = {}
        self._next_index = 0
        self._next_worker_id = 0
        self._consecutive_failures = 0
        self._degraded = False
        self._closed = False

    # -- public API ----------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once the pool has given up on its workers."""
        return self._degraded

    def submit(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> int:
        """Register a task; returns its index (also its chaos/routing key)."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        index = self._next_index
        self._next_index += 1
        task = _Task(index=index, fn=fn, args=args)
        self._tasks[index] = task
        self.stats.tasks += 1
        if self._degraded:
            self._fail_task(task, "pool degraded to serial execution")
        else:
            self._slots[index % self.workers].ready.append(index)
            self._pump(block=False)
        return index

    def result(self, index: int) -> Any:
        """Block until task ``index`` resolves; its value or :class:`TaskError`."""
        task = self._tasks[index]
        while task.state not in ("done", "failed"):
            self._pump(block=True)
        if task.state == "failed":
            raise TaskError(index, task.error)
        return task.value

    def shutdown(self) -> None:
        """Stop every worker: polite sentinel first, SIGTERM for stragglers."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.process is not None and slot.process.is_alive():
                try:
                    slot.down.send(None)  # type: ignore[union-attr]
                except (OSError, ValueError, BrokenPipeError):
                    pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for slot in self._slots:
            if slot.process is None:
                continue
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
            # A gracefully exiting worker leaves its final ("metrics", ...)
            # envelope in the pipe buffer; collect it before closing.
            if self._obs_run is not None and slot.up is not None:
                try:
                    while slot.up.poll():
                        message = slot.up.recv()
                        if message and message[0] == "metrics":
                            self._merge_worker_metrics(message)
                except (EOFError, OSError):
                    pass
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=_SHUTDOWN_GRACE)
            self._close_slot_pipes(slot)
            slot.process = None
        self._fold_stats()

    def _merge_worker_metrics(self, message: Tuple[Any, ...]) -> None:
        """Reconcile one worker's final registry snapshot into the run."""
        run = self._obs_run
        if run is None:
            return
        _tag, _worker_id, run_id, snapshot = message
        if run_id != run.run_id:
            return  # a stale worker from some other run's environment
        try:
            run.registry.merge(snapshot)
        except (KeyError, TypeError, ValueError):
            return  # malformed snapshot: telemetry is best-effort
        run.registry.inc("supervisor.worker_snapshots")

    def _fold_stats(self) -> None:
        """Fold this pool's supervision stats into the run's counters."""
        run = self._obs_run
        if run is None:
            return
        reg = run.registry
        for key, value in self.stats.to_dict().items():
            if key == "degraded":
                if value:
                    reg.inc("supervisor.degraded")
            elif value:
                reg.inc(f"supervisor.{key}", value)

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.shutdown()

    # -- event loop ----------------------------------------------------------
    def _pump(self, *, block: bool) -> None:
        """One supervision round: drain, detect failures, dispatch, wait."""
        progressed = self._drain()
        progressed |= self._detect_failures()
        progressed |= self._dispatch()
        if block and not progressed:
            readers = [
                slot.up
                for slot in self._slots
                if slot.up is not None and slot.process is not None
            ]
            if readers:
                from multiprocessing.connection import wait

                wait(readers, timeout=_POLL_SECONDS)
            else:
                time.sleep(_POLL_SECONDS)

    def _drain(self) -> bool:
        """Read every pending message from every live worker pipe."""
        progressed = False
        for slot in self._slots:
            conn = slot.up
            if conn is None:
                continue
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    break  # crash detection picks the dead process up
                progressed = True
                self._handle_message(slot, message)
                if slot.up is not conn:  # slot recycled mid-drain
                    break
        return progressed

    def _handle_message(self, slot: _Slot, message: Tuple[Any, ...]) -> None:
        tag = message[0]
        if tag == "beat":
            if message[1] == slot.worker_id:
                now = time.monotonic()
                if self._obs_run is not None:
                    self._obs_run.registry.observe(
                        "supervisor.heartbeat_latency_seconds", now - slot.last_beat
                    )
                slot.last_beat = now
            return
        if tag == "metrics":
            self._merge_worker_metrics(message)
            return
        _tag, worker_id, task_index, attempt, *rest = message
        if worker_id != slot.worker_id or slot.busy != (task_index, attempt):
            return  # stale: a retried task's late echo
        task = self._tasks[task_index]
        slot.busy = None
        if tag == "error":
            self.stats.task_errors += 1
            self._attempt_failed(task, slot, str(rest[0]), recycle=True)
            return
        checksum, payload = rest
        if zlib.crc32(payload) != checksum:
            self.stats.corruptions += 1
            self._attempt_failed(
                task,
                slot,
                f"corrupt result envelope from worker {worker_id} "
                f"(checksum mismatch)",
                recycle=True,
            )
            return
        task.value = pickle.loads(payload)
        task.state = "done"
        self.stats.completed += 1
        self._consecutive_failures = 0

    def _detect_failures(self) -> bool:
        """Crash / task-timeout / heartbeat checks over every busy slot."""
        progressed = False
        now = time.monotonic()
        cfg = self.config
        for slot in self._slots:
            process = slot.process
            if process is None or slot.busy is None:
                continue
            task = self._tasks[slot.busy[0]]
            if process.exitcode is not None:
                self.stats.crashes += 1
                detail = (
                    "injected chaos crash"
                    if process.exitcode == CHAOS_EXIT_CODE
                    else f"worker exited with code {process.exitcode}"
                )
                slot.busy = None
                self._attempt_failed(
                    task, slot, f"worker {slot.worker_id} crashed ({detail})", recycle=True
                )
                progressed = True
                continue
            timed_out = (
                cfg.task_timeout is not None
                and now - slot.dispatched_at > cfg.task_timeout
            )
            silent = now - slot.last_beat > cfg.heartbeat_timeout
            if (timed_out or silent) and not slot.up.poll():  # type: ignore[union-attr]
                self.stats.hangs += 1
                reason = (
                    f"task exceeded {cfg.task_timeout}s timeout"
                    if timed_out
                    else f"no heartbeat for {cfg.heartbeat_timeout}s"
                )
                slot.busy = None
                self._attempt_failed(
                    task,
                    slot,
                    f"worker {slot.worker_id} hung ({reason})",
                    recycle=True,
                )
                progressed = True
        return progressed

    def _dispatch(self) -> bool:
        """Send one ready task to every idle slot whose backoff has elapsed."""
        progressed = False
        now = time.monotonic()
        for slot in self._slots:
            if slot.busy is not None or not slot.ready:
                continue
            index = slot.ready[0]
            task = self._tasks[index]
            if task.state != "ready" or task.not_before > now:
                if task.state != "ready":
                    slot.ready.popleft()  # degraded-failed leftovers
                continue
            if slot.process is None or not slot.process.is_alive():
                self._respawn(slot)
            slot.ready.popleft()
            task.attempts += 1
            task.state = "running"
            slot.busy = (task.index, task.attempts)
            slot.dispatched_at = now
            try:
                slot.down.send((task.index, task.attempts, task.fn, task.args))  # type: ignore[union-attr]
                progressed = True
            except (OSError, ValueError, BrokenPipeError):
                slot.busy = None
                self._attempt_failed(
                    task,
                    slot,
                    f"could not dispatch to worker {slot.worker_id} (broken pipe)",
                    recycle=True,
                )
        return progressed

    # -- failure handling ----------------------------------------------------
    def _attempt_failed(
        self, task: _Task, slot: _Slot, reason: str, *, recycle: bool
    ) -> None:
        """One attempt of ``task`` failed on ``slot``: retry, fail, or degrade."""
        if recycle:
            self._recycle(slot)
        self._consecutive_failures += 1
        _warn(
            "%s: attempt %d/%d of task %d failed: %s",
            self.name,
            task.attempts,
            self.config.max_attempts,
            task.index,
            reason,
        )
        if task.attempts >= self.config.max_attempts:
            self._fail_task(task, f"{reason} (after {task.attempts} attempts)")
        else:
            self.stats.retries += 1
            task.state = "ready"
            task.not_before = time.monotonic() + self.config.backoff_base * (
                2 ** (task.attempts - 1)
            )
            slot.ready.appendleft(task.index)
        if (
            not self._degraded
            and self._consecutive_failures >= self.config.degrade_after
        ):
            self._degrade()

    def _fail_task(self, task: _Task, reason: str) -> None:
        task.state = "failed"
        task.error = reason
        self.stats.failed_tasks += 1

    def _degrade(self) -> None:
        """Give up on worker processes; fail-fast everything still pending."""
        self._degraded = True
        self.stats.degraded = True
        _warn(
            "%s: %d consecutive worker failures; degrading to serial "
            "execution (remaining tasks will run inline in the coordinator)",
            self.name,
            self._consecutive_failures,
        )
        for task in self._tasks.values():
            if task.state in ("ready", "running"):
                self._fail_task(task, "pool degraded to serial execution")
        for slot in self._slots:
            slot.busy = None
            slot.ready.clear()

    # -- worker lifecycle ----------------------------------------------------
    def _recycle(self, slot: _Slot) -> None:
        """Terminate a slot's worker (if any); the next dispatch respawns."""
        if slot.process is not None:
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=_SHUTDOWN_GRACE)
            self._close_slot_pipes(slot)
            slot.process = None
        slot.busy = None

    def _respawn(self, slot: _Slot) -> None:
        """Start a fresh worker (fresh id, fresh pipes) in ``slot``."""
        from multiprocessing import Pipe, Process

        self._recycle(slot)
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_reader, task_writer = Pipe(duplex=False)  # supervisor -> worker
        result_reader, result_writer = Pipe(duplex=False)  # worker -> supervisor
        process = Process(
            target=_worker_main,
            args=(
                worker_id,
                task_reader,
                result_writer,
                self._initializer,
                self._initargs,
                self.chaos.to_params() if self.chaos is not None else None,
                self.config.heartbeat_interval,
            ),
            daemon=True,
            name=f"{self.name}-worker-{worker_id}",
        )
        process.start()
        task_reader.close()
        result_writer.close()
        slot.worker_id = worker_id
        slot.process = process
        slot.down = task_writer
        slot.up = result_reader
        slot.last_beat = time.monotonic()
        self.stats.workers_spawned += 1

    @staticmethod
    def _close_slot_pipes(slot: _Slot) -> None:
        for conn in (slot.down, slot.up):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        slot.down = None
        slot.up = None
