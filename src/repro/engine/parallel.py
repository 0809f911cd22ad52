"""The multi-core BFS engine: each depth level sharded across processes.

The level loop *is* :func:`repro.engine.fingerprint.bfs_levels`; this module
only decides where a level's expansions come from.  A wide level's frontier
is split into contiguous shards, one per worker; workers expand their states
with their own per-process expander, and the coordinator's loop consumes the
per-shard results *in frontier order*, so every statistic, the visited set,
and any counterexample it finds coincide exactly with the serial
``fingerprint`` engine's.  Because a spec is a bundle of closures, workers
rebuild it from its :attr:`~repro.tla.spec.Specification.registry_ref` (see
:mod:`repro.tla.registry`), the way every TLC worker re-parses the ``.tla``
module.

Shards are dispatched through a :class:`~repro.resilience.SupervisedPool`
rather than a bare ``ProcessPoolExecutor``: a crashed, hung or corrupted
worker costs one bounded retry on a fresh worker instead of the whole run,
and any shard that exhausts its retries is expanded *inline* by the
coordinator -- the loop consumes results in shard order either way, so the
bit-identical guarantee holds no matter which attempt (or fallback)
produced each shard.  If the pool degrades entirely (too many consecutive
failures), the remaining levels run serially in the coordinator with a
logged warning rather than dying.  Limits, telemetry and checkpoint/resume
come with the shared loop.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..resilience import SupervisedPool, TaskError
from ..tla.spec import Specification
from .base import CheckContext, Engine, SuccessorInfo, make_expander, register_engine
from .fingerprint import Expand, bfs_levels

__all__ = ["ParallelEngine", "default_worker_count", "spec_worker_pool"]


def default_worker_count() -> int:
    """Worker count used when ``workers`` is not given: one per CPU core."""
    return os.cpu_count() or 1


#: Below ``workers * _INLINE_FRONTIER`` states, a BFS level is expanded in the
#: coordinator: pickling a handful of states to the pool costs more than
#: expanding them.  The shallow first levels of every run stay inline, so the
#: pool is only ever started for state spaces wide enough to amortize it.
_INLINE_FRONTIER = 8


# ---------------------------------------------------------------------------
# Worker side.  Each pool process builds its own copy of the spec (by
# registry name) and its own expander once, in the initializer, and keeps
# them for the whole run.
# ---------------------------------------------------------------------------

_WORKER_SPEC: Optional[Specification] = None
_WORKER_EXPANDER: Optional[Any] = None


def _parallel_worker_init(
    registry_name: str,
    params: Dict[str, Any],
    provider_modules: List[str],
    compile_mode: str,
) -> None:
    global _WORKER_SPEC, _WORKER_EXPANDER
    from ..tla import registry

    # Under the 'spawn' start method a worker starts with a fresh registry;
    # adopting the coordinator's provider list lets it rebuild specs whose
    # factories live outside the default providers.  (Under 'fork' the
    # registrations are inherited and this is a no-op.)
    registry.adopt_providers(provider_modules)
    _WORKER_SPEC = registry.build_spec(registry_name, **params)
    # Each worker makes its own expander, the way it rebuilds the spec
    # itself: compiled kernels are closures and cannot be pickled.
    _WORKER_EXPANDER, _fallback = make_expander(_WORKER_SPEC, compile_mode)


def spec_worker_pool(ctx: CheckContext, workers: int, name: str) -> SupervisedPool:
    """A supervised pool whose workers hold ``ctx``'s spec and an expander.

    The parallel BFS and the sharded simulation engine both start their
    workers this way; each worker applies the coordinator's compile mode
    itself (see :func:`_parallel_worker_init`).
    """
    from ..tla.registry import PROVIDER_MODULES

    assert ctx.spec.registry_ref is not None  # enforced by the coordinator
    registry_name, params = ctx.spec.registry_ref
    return SupervisedPool(
        workers,
        initializer=_parallel_worker_init,
        initargs=(registry_name, params, list(PROVIDER_MODULES), ctx.compile_mode),
        config=ctx.supervision,
        chaos=ctx.chaos,
        name=name,
    )


def _parallel_expand_shard(
    shard: List[Tuple[Any, ...]],
) -> List[List[SuccessorInfo]]:
    """Expand one frontier shard: one expansion per state, in shard order.

    Input and output are value tuples rather than ``State`` objects to keep
    the pickled payloads minimal; the coordinator rebuilds ``State`` only for
    successors that actually enter the next frontier.
    """
    assert _WORKER_EXPANDER is not None
    return [_WORKER_EXPANDER.expand(values) for values in shard]


@register_engine
class ParallelEngine(Engine):
    """Level-synchronous BFS with the frontier sharded across processes."""

    name = "parallel"
    supports_graph = False
    needs_registry = True
    supported_stores = ("fingerprint", "lru", "disk")
    supports_checkpoint = True

    def run(self, ctx: CheckContext) -> None:
        self._ctx = ctx
        self._workers = ctx.workers or default_worker_count()
        ctx.result.workers = self._workers
        self._pool: Optional[SupervisedPool] = None
        self._pooling = True  # cleared for good once the pool degrades
        try:
            bfs_levels(ctx, self._level_expand)
        finally:
            self._close_pool()

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._ctx.result.supervision = self._pool.stats
            self._pool.shutdown()
            self._pool = None

    def _level_expand(self, frontier: Any) -> Expand:
        """The ``expand`` of one BFS level: inline, or served from the pool.

        Narrow levels (and everything before the pool is first needed) are
        expanded inline -- shipping a handful of states through pickle costs
        more than computing their successors.  The pool is started at the
        first level wide enough to amortize it.
        """
        ctx = self._ctx
        if self._pool is not None and self._pool.degraded:
            # Too many consecutive pool failures: finish serially in the
            # coordinator rather than feeding a dead pool.
            self._close_pool()
            self._pooling = False
        if not self._pooling or len(frontier) < self._workers * _INLINE_FRONTIER:
            return ctx.expander.expand
        if self._pool is None:
            self._pool = spec_worker_pool(ctx, self._workers, "parallel")
        expansions = self._pooled(self._pool, frontier)
        # The loop asks in frontier order, which is the order the shards were
        # cut in, so the next pooled expansion is always the one it wants.
        return lambda _values: next(expansions)

    def _pooled(
        self, pool: SupervisedPool, frontier: Any
    ) -> Iterator[List[SuccessorInfo]]:
        """One level's expansions from the pool, in frontier order.

        A shard whose task exhausts its retries is expanded inline:
        expansion is deterministic and results are consumed in shard order,
        so the run's statistics and counterexamples are the same no matter
        which attempt (worker or fallback) produced each shard.
        """
        shard_size = -(-len(frontier) // self._workers)  # ceil division
        shards = []
        tasks = []
        # Build shards by streaming the frontier rather than slicing it:
        # a spilled frontier (SpillFrontier) is iterable but not indexable.
        pairs = iter(frontier)
        while True:
            shard = [
                state.values for state, _fp in itertools.islice(pairs, shard_size)
            ]
            if not shard:
                break
            shards.append(shard)
            tasks.append(pool.submit(_parallel_expand_shard, (shard,)))
        for shard, task_index in zip(shards, tasks):
            try:
                yield from pool.result(task_index)
            except TaskError:
                yield from map(self._ctx.expander.expand, shard)
