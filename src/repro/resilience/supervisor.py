"""A supervised worker-process pool: crash and hang detection, bounded retry.

``concurrent.futures.ProcessPoolExecutor`` treats a dead worker as a dead
pool.  Under its one caller, ``check --engine simulate --workers N``,
:class:`SupervisedPool` treats worker failure as a scheduling event instead:

* **Crash detection** -- a busy worker's exit code is polled; a nonzero (or
  chaos-sentinel) exit re-dispatches its task.
* **Hang detection** -- one per-task wall-clock timer,
  :attr:`SupervisionConfig.task_timeout`.  It bounds one task, so the
  caller keeps tasks short: the simulate engine slices its walks.
* **Result validation** -- results travel in a ``crc32``-checksummed
  envelope; a corrupted payload is rejected and the task retried.
* **Bounded retry with backoff** -- a failed attempt recycles its worker
  (terminate + respawn under a fresh worker id) and re-dispatches the task
  after ``_BACKOFF_BASE * 2**(attempt-1)`` seconds, up to ``_MAX_ATTEMPTS``.
* **Giving up** -- once one task exhausts its attempts, it and every
  unfinished task fail fast with :class:`TaskError`, which
  :meth:`SupervisedPool.map` answers with the caller's inline function.  A
  persistent fault costs one task's attempts, not every task's: 40
  always-crashing tasks on 2 workers spawn 6 workers, not 120.

Tasks are routed statically (``task_index % workers``, which keeps a seeded
chaos run's fault schedule reproducible) and :meth:`SupervisedPool.map`
yields in task order, so the merged output is bit-identical to the serial
path whichever attempt produced each result.  Both sides are single-threaded:
the supervisor's event loop runs inside ``submit`` / ``result`` calls.

``multiprocessing`` is imported when the pool starts its first worker and
``logging`` with its first warning: a process that never pools -- and one
that reads :class:`SupervisionConfig` to pass it on -- loads neither.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import zlib
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, Iterator, Mapping, Optional, Tuple,
)

from ..obs import current as obs_current, reset_for_child_process, worker_telemetry_from_env
from .faults import CHAOS_EXIT_CODE, HANG_SECONDS, SLOW_SECONDS, FaultPlan

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

#: Total attempts per task (first dispatch included).
_MAX_ATTEMPTS = 3

#: First retry delay; doubles per subsequent attempt of the same task.
_BACKOFF_BASE = 0.05

#: :meth:`SupervisedPool.map` keeps at most this many tasks per worker in
#: flight: enough to keep every worker fed, without queueing a whole run.
_IN_FLIGHT_PER_WORKER = 4

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
    """A task exhausted its retry budget (or the pool gave up under it).

    Carries the task index and the last failure description;
    :meth:`SupervisedPool.map` catches it per task and recomputes the task
    inline.
    """

    def __init__(self, task_index: int, message: str) -> None:
        super().__init__(f"task {task_index}: {message}")
        self.task_index = task_index


@dataclass(frozen=True)
class SupervisionConfig:
    """The pool's one tunable: ``--task-timeout`` / ``REPRO_TASK_TIMEOUT``."""

    #: Wall-clock budget per task attempt: the pool's only hang detector.
    task_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.task_timeout is None or not self.task_timeout > 0:
            raise ValueError(
                "task_timeout (--task-timeout, REPRO_TASK_TIMEOUT) must be a "
                f"positive number of seconds; got {self.task_timeout!r}"
            )

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "SupervisionConfig":
        """The default, or ``REPRO_TASK_TIMEOUT`` when it is set."""
        raw = (os.environ if environ is None else environ).get(ENV_TASK_TIMEOUT)
        return cls() if raw is None else cls(task_timeout=float(raw))


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
    #: True once a task exhausted its attempts and the pool gave up.
    degraded: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def summary(self) -> Optional[str]:
        """The ``supervision:`` report line; None when nothing went wrong."""
        if not (self.retries or self.degraded):
            return None
        return (
            f"supervision: {self.retries} retried attempt(s) "
            f"({self.crashes} crashes, {self.hangs} hangs, "
            f"{self.corruptions} corrupt results, {self.task_errors} task errors)"
            + ("; pool degraded to serial" if self.degraded else "")
        )


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
) -> None:
    """One supervised worker: init, then execute tasks until sentinel.

    Results go back in ``("ok", worker_id, task_index, attempt, crc32(payload),
    payload)`` envelopes; an exception raised by the task is reported
    (``"error"``), not fatal.  With ``REPRO_METRICS_OUT`` exported (see
    :mod:`repro.obs`), the worker also counts and times its tasks and ships
    one ``("metrics", worker_id, run_id, snapshot)`` envelope at graceful
    shutdown; a worker killed by recycle/terminate loses it -- telemetry is
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
                time.sleep(HANG_SECONDS)
            elif fault == "slow":
                time.sleep(SLOW_SECONDS)
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
            up.send(("ok", worker_id, task_index, attempt, checksum, payload))
        except BaseException as exc:  # noqa: BLE001 - reported, not fatal
            if telemetry is not None:
                telemetry[1].inc("worker.task_errors")
            try:
                detail = f"{type(exc).__name__}: {exc}"
            except Exception:
                detail = type(exc).__name__
            up.send(("error", worker_id, task_index, attempt, detail))
    if telemetry is not None:
        run_id, registry = telemetry
        try:
            up.send(("metrics", worker_id, run_id, registry.snapshot()))
        except Exception:
            pass


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

    worker_id: int = -1
    process: Optional[Process] = None
    down: Optional[Connection] = None
    up: Optional[Connection] = None
    busy: Optional[Tuple[int, int]] = None  # (task_index, attempt)
    dispatched_at: float = 0.0
    ready: Deque[int] = field(default_factory=deque)


class SupervisedPool:
    """Fault-tolerant process pool with deterministic task routing.

    Usage::

        with SupervisedPool(workers, initializer=init, initargs=(...)) as pool:
            for value in pool.map(fn, args_iterable, inline):
                merge(value)
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
        self._slots = [_Slot() for _ in range(workers)]
        self._tasks: Dict[int, _Task] = {}
        self._next_index = 0
        self._next_worker_id = 0
        self._closed = False

    # -- public API ----------------------------------------------------------
    def map(
        self,
        fn: Callable[..., Any],
        args_iterable: Iterable[Tuple[Any, ...]],
        inline: Callable[..., Any],
    ) -> Iterator[Any]:
        """Yield ``fn(*args)`` for each ``args``, in order.

        A task that ends in :class:`TaskError` yields ``inline(*args)``,
        computed in the calling process: callers pass the serial path of
        ``fn``, so the values are the same either way.  At most ``4 x
        workers`` tasks are in flight.
        """
        window: Deque[Tuple[int, Tuple[Any, ...]]] = deque()
        for args in args_iterable:
            window.append((self.submit(fn, args), args))
            if len(window) >= _IN_FLIGHT_PER_WORKER * self.workers:
                yield self._result_or_inline(*window.popleft(), inline)
        while window:
            yield self._result_or_inline(*window.popleft(), inline)

    def _result_or_inline(
        self, index: int, args: Tuple[Any, ...], inline: Callable[..., Any]
    ) -> Any:
        try:
            return self.result(index)
        except TaskError:
            return inline(*args)

    def submit(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> int:
        """Register a task; returns its index (also its chaos/routing key)."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        index = self._next_index
        self._next_index += 1
        task = _Task(index=index, fn=fn, args=args)
        self._tasks[index] = task
        self.stats.tasks += 1
        if self.stats.degraded:
            self._fail_task(task, "pool degraded to serial execution")
        else:
            self._slots[index % self.workers].ready.append(index)
            self._pump(block=False)
        return index

    def result(self, index: int) -> Any:
        """Block until task ``index`` resolves; its value or :class:`TaskError`.

        Each task's result is collected once: the pool lets go of it here.
        """
        task = self._tasks[index]
        while task.state not in ("done", "failed"):
            self._pump(block=True)
        del self._tasks[index]
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
            self._recycle(slot)
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
        if self._obs_run is None:
            return
        for key, value in self.stats.to_dict().items():
            if value:
                self._obs_run.registry.inc(f"supervisor.{key}", int(value))

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
            readers = [slot.up for slot in self._slots if slot.up is not None]
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
            self._attempt_failed(task, slot, str(rest[0]))
            return
        checksum, payload = rest
        if zlib.crc32(payload) != checksum:
            self.stats.corruptions += 1
            self._attempt_failed(
                task,
                slot,
                f"corrupt result envelope from worker {worker_id} "
                f"(checksum mismatch)",
            )
            return
        task.value = pickle.loads(payload)
        task.state = "done"
        self.stats.completed += 1

    def _detect_failures(self) -> bool:
        """Crash and task-timeout checks over every busy slot."""
        progressed = False
        now = time.monotonic()
        timeout = self.config.task_timeout
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
                self._attempt_failed(
                    task, slot, f"worker {slot.worker_id} crashed ({detail})"
                )
                progressed = True
            elif now - slot.dispatched_at > timeout and not slot.up.poll():  # type: ignore[union-attr]
                self.stats.hangs += 1
                self._attempt_failed(
                    task,
                    slot,
                    f"worker {slot.worker_id} hung (task exceeded {timeout}s timeout)",
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
            task = self._tasks[slot.ready[0]]
            if task.not_before > now:
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
                self._attempt_failed(
                    task,
                    slot,
                    f"could not dispatch to worker {slot.worker_id} (broken pipe)",
                )
        return progressed

    # -- failure handling ----------------------------------------------------
    def _attempt_failed(self, task: _Task, slot: _Slot, reason: str) -> None:
        """One attempt of ``task`` failed on ``slot``: retry it, or give up."""
        self._recycle(slot)
        _warn(
            "%s: attempt %d/%d of task %d failed: %s",
            self.name, task.attempts, _MAX_ATTEMPTS, task.index, reason,
        )
        if task.attempts < _MAX_ATTEMPTS:
            self.stats.retries += 1
            task.state = "ready"
            task.not_before = time.monotonic() + _BACKOFF_BASE * 2 ** (task.attempts - 1)
            slot.ready.appendleft(task.index)
        else:
            self._give_up(task, f"{reason} (after {task.attempts} attempts)")

    def _fail_task(self, task: _Task, reason: str) -> None:
        task.state = "failed"
        task.error = reason
        self.stats.failed_tasks += 1

    def _give_up(self, task: _Task, reason: str) -> None:
        """``task`` exhausted its attempts: fail it and everything unfinished."""
        self.stats.degraded = True
        _warn(
            "%s: task %d failed %d attempts; degrading to serial execution "
            "(remaining tasks will run inline in the coordinator)",
            self.name, task.index, task.attempts,
        )
        self._fail_task(task, reason)
        for other in self._tasks.values():
            if other.state in ("ready", "running"):
                self._fail_task(other, "pool degraded to serial execution")
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
            for conn in (slot.down, slot.up):
                try:
                    conn.close()  # type: ignore[union-attr]
                except OSError:
                    pass
            slot.process = slot.down = slot.up = None
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
        self.stats.workers_spawned += 1
