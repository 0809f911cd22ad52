"""Random-walk simulation engine (``engine="simulate"``): TLC's second mode.

TLC is not only an exhaustive checker -- its *simulation* mode samples random
behaviours when the state space is too large to enumerate, and the paper's
workflow relies on that reach.  This engine reproduces it: ``walks`` seeded
random walks of at most ``walk_depth`` steps each, every *generated*
successor checked against the invariants (the BFS engines judge each state
when they first reach it; a walk keeps no visited set, so it judges what it
generates, through ``expander.expand``'s verdict memo), with the walk itself
as the counterexample trace when one trips.
Every violation it reports is therefore a *real* reachable violation: the
trace starts in an initial state and takes one enabled action per step.

Determinism: walk *i* is driven by ``random.Random(f"{seed}:{i}")``, so the
behaviour of each walk is a pure function of ``(spec, seed, i, walk_depth)``
-- independent of execution order.  With ``workers > 1`` the walk indices
are sharded across a supervised process pool (each worker rebuilds the spec
from its registry name and makes its own expander); the reported
counterexample is the one from the *lowest-numbered* violating walk, so it
is identical for every worker count.  Aggregate statistics can differ when
``stop_on_violation`` stops a serial run early while shards finish their
slices -- the counterexample never does.

Statistics: ``generated_states`` counts every successor enumerated while
walking (plus the initial-state set, once per walk), ``distinct_states``
counts the distinct states visited across all walks (through the pluggable
store), and ``max_depth`` is the longest walk in steps.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from ..obs import current as obs_current
from ..resilience import SupervisedPool, TaskError
from ..tla.errors import DeadlockError, InvariantViolation
from ..tla.registry import build_worker_spec, worker_spec_args
from ..tla.spec import Specification
from ..tla.state import State
from .base import CheckContext, Engine, make_expander, register_engine

__all__ = ["SimulationEngine"]

#: A walk's value-tuple trace, picklable for the pool.
_WireTrace = Tuple[Tuple[Any, ...], ...]

#: One finished walk: (steps taken, states generated, visited fingerprints in
#: order, violated invariant name or None, deadlocked flag, trace, chosen
#: action names).
_WalkOutcome = Tuple[int, int, List[int], Optional[str], bool, _WireTrace, Tuple[str, ...]]


def _run_walk(
    expander: Any,
    initial: List[State],
    walk_index: int,
    seed: int,
    walk_depth: int,
) -> _WalkOutcome:
    """Run one seeded random walk; pure function of its arguments.

    The walk starts in a uniformly chosen initial state and repeatedly takes
    a uniformly chosen enabled action whose successor satisfies the state
    constraint.  Invariants are evaluated on *every generated* successor, in
    generation order, as a BFS judges each state it first reaches -- so a
    violating state one step off the walk (even one outside the constraint,
    which is generated but never entered) still surfaces as a violation,
    with the walk prefix plus that successor as the counterexample.  The
    walk ends at the depth budget, at an invariant violation, at a deadlock,
    or when the constraint fences every successor off.

    The walk carries value tuples, not ``State`` objects.  Walk *i* is the
    same under either expander because ``random.Random.choice`` depends only
    on the sequence *length* and both enumerate successors in the same
    order -- so it draws the same initial state and the same successor
    indices either way.
    """
    rng = random.Random(f"{seed}:{walk_index}")
    generated = len(initial)
    state = rng.choice(initial)
    fp = state.fingerprint()
    values = state.values
    fps = [fp]
    trace: List[Tuple[Any, ...]] = [values]
    actions: List[str] = []
    violated_name, within = expander.verdict_for(values, fp)
    deadlocked = False
    steps = 0
    if violated_name is None and within:
        while steps < walk_depth:
            entries = expander.expand(values)
            generated += len(entries)
            if not entries:
                deadlocked = True
                break
            hit: Optional[Tuple[str, Tuple[Any, ...], int, str]] = None
            candidates: List[Tuple[str, Tuple[Any, ...], int]] = []
            for action_name, nvalues, nfp, inv_name, nxt_within in entries:
                if inv_name is not None:
                    hit = (action_name, nvalues, nfp, inv_name)
                    break
                if nxt_within:
                    candidates.append((action_name, nvalues, nfp))
            if hit is not None:
                action_name, values, fp, violated_name = hit
                steps += 1
                fps.append(fp)
                trace.append(values)
                actions.append(action_name)
                break
            if not candidates:
                break
            action_name, values, fp = rng.choice(candidates)
            steps += 1
            fps.append(fp)
            trace.append(values)
            actions.append(action_name)
    return (
        steps,
        generated,
        fps,
        violated_name,
        deadlocked,
        tuple(trace),
        tuple(actions),
    )


# ---------------------------------------------------------------------------
# Pool worker side.  Each pool process rebuilds the spec by registry name and
# makes its own expander (compiled kernels are closures and do not pickle)
# once, in the initializer, and keeps both for the whole run.
# ---------------------------------------------------------------------------

_WORKER_SPEC: Optional[Specification] = None
_WORKER_EXPANDER: Optional[Any] = None


def _walk_worker_init(spec_args: Tuple[Any, ...], compile_mode: str) -> None:
    global _WORKER_SPEC, _WORKER_EXPANDER
    _WORKER_SPEC = build_worker_spec(*spec_args)
    _WORKER_EXPANDER, _fallback = make_expander(_WORKER_SPEC, compile_mode)


def _simulate_shard(
    start: int,
    stop: int,
    seed: int,
    walk_depth: int,
    check_deadlock: bool,
    stop_on_violation: bool,
) -> Dict[str, Any]:
    """Run walks ``start..stop-1``; stop the slice at its first event.

    Within a shard, walks run in increasing index order, so the shard's
    first reported event is the minimal-index event of its slice -- which is
    what lets the coordinator's min-merge reproduce the serial engine's
    counterexample exactly.
    """
    assert _WORKER_SPEC is not None and _WORKER_EXPANDER is not None
    return _drive_walks(
        _WORKER_SPEC,
        _WORKER_EXPANDER,
        range(start, stop),
        seed,
        walk_depth,
        check_deadlock,
        stop_on_violation,
    )


def _drive_walks(
    spec: Specification,
    expander: Any,
    indices: range,
    seed: int,
    walk_depth: int,
    check_deadlock: bool,
    stop_on_violation: bool,
    store: Any = None,
) -> Dict[str, Any]:
    """Run a slice of walks and aggregate their outcomes (wire-friendly).

    Visited fingerprints never accumulate per generated state: with a
    ``store`` (the coordinator's inline path) they stream straight into it
    in visit order, and without one (pool shards, which cannot share the
    coordinator's store) they are deduplicated into first-visit order before
    being pickled back -- so shard payloads are bounded by the *distinct*
    states a slice saw, not by ``walks x depth``.
    """
    generated = 0
    walks_run = 0
    max_steps = 0
    # Progress heartbeats only on the coordinator's inline path: pool shards
    # run in child processes, where no telemetry run is ever active.
    obs_run = obs_current() if store is not None else None
    ticker = obs_run.progress if obs_run is not None else None
    unique_fps: Dict[int, None] = {}
    action_counts: Dict[str, int] = {}
    violation: Optional[Tuple[int, str, _WireTrace]] = None
    deadlock: Optional[Tuple[int, _WireTrace]] = None
    initial = spec.initial_states()  # once per slice, not once per walk
    for walk_index in indices:
        steps, walk_generated, walk_fps, inv_name, deadlocked, trace, actions = (
            _run_walk(expander, initial, walk_index, seed, walk_depth)
        )
        walks_run += 1
        generated += walk_generated
        max_steps = max(max_steps, steps)
        if ticker is not None and ticker.due():
            ticker.emit(
                walks=walks_run,
                distinct=store.distinct_count,
                generated=generated,
            )
        if store is not None:
            for fp in walk_fps:
                store.add(fp)
        else:
            for fp in walk_fps:
                unique_fps.setdefault(fp)
        for name in actions:
            action_counts[name] = action_counts.get(name, 0) + 1
        if inv_name is not None and violation is None:
            violation = (walk_index, inv_name, trace)
            if stop_on_violation:
                break
        if deadlocked and check_deadlock and deadlock is None:
            deadlock = (walk_index, trace)
            if stop_on_violation:
                break
    return {
        "walks": walks_run,
        "generated": generated,
        "max_steps": max_steps,
        "fps": None if store is not None else list(unique_fps),
        "action_counts": action_counts,
        "violation": violation,
        "deadlock": deadlock,
    }


@register_engine
class SimulationEngine(Engine):
    """Seeded random-walk exploration with walk and depth budgets."""

    name = "simulate"
    supports_graph = False
    supported_stores = ("fingerprint", "disk")
    bounded_exploration = True

    @classmethod
    def requires_registry(cls, workers) -> bool:
        # Walks are sharded to pool processes only on explicit multi-worker
        # requests; the default runs serially and needs no registry.
        return (workers or 1) > 1

    def run(self, ctx: CheckContext) -> None:
        spec, result = ctx.spec, ctx.result
        workers = ctx.workers or 1
        if workers > 1:
            # workers > 1 only ever happens by explicit request (the default
            # is serial), so it is honored even for walk budgets too small
            # to amortize pool startup -- silently downgrading an explicit
            # flag is the failure mode the CLI validation exists to prevent.
            shards = self._run_pooled(ctx, workers)  # sets result.workers
        else:
            result.workers = 1
            shards = [
                _drive_walks(
                    spec,
                    ctx.expander,
                    range(ctx.walks),
                    ctx.seed,
                    ctx.walk_depth,
                    ctx.check_deadlock,
                    ctx.stop_on_violation,
                    store=ctx.store,
                )
            ]
        self._merge(ctx, shards)

    def _run_pooled(self, ctx: CheckContext, workers: int) -> List[Dict[str, Any]]:
        spec = ctx.spec
        shard_size = -(-ctx.walks // workers)  # ceil division
        bounds = [
            (start, min(start + shard_size, ctx.walks))
            for start in range(0, ctx.walks, shard_size)
        ]
        # Ceil division can yield fewer shards than requested workers (e.g.
        # 9 walks / 4 workers -> 3 shards of 3); report what actually runs.
        ctx.result.workers = len(bounds)
        shards: List[Dict[str, Any]] = []
        with SupervisedPool(
            len(bounds),
            initializer=_walk_worker_init,
            initargs=(worker_spec_args(spec), ctx.compile_mode),
            config=ctx.supervision,
            chaos=ctx.chaos,
            name="simulate",
        ) as pool:
            tasks = [
                pool.submit(
                    _simulate_shard,
                    (
                        start,
                        stop,
                        ctx.seed,
                        ctx.walk_depth,
                        ctx.check_deadlock,
                        ctx.stop_on_violation,
                    ),
                )
                for start, stop in bounds
            ]
            for (start, stop), task_index in zip(bounds, tasks):
                try:
                    shards.append(pool.result(task_index))
                except TaskError:
                    # A walk is a pure function of (spec, seed, index), so
                    # recomputing an exhausted shard inline yields exactly
                    # what its worker would have returned.
                    shards.append(
                        _drive_walks(
                            spec,
                            ctx.expander,
                            range(start, stop),
                            ctx.seed,
                            ctx.walk_depth,
                            ctx.check_deadlock,
                            ctx.stop_on_violation,
                        )
                    )
            ctx.result.supervision = pool.stats
        return shards

    def _merge(self, ctx: CheckContext, shards: List[Dict[str, Any]]) -> None:
        spec, result, store = ctx.spec, ctx.result, ctx.store
        action_counts: Dict[str, int] = {act.name: 0 for act in spec.actions}
        violation: Optional[Tuple[int, str, _WireTrace]] = None
        deadlock: Optional[Tuple[int, _WireTrace]] = None
        for shard in shards:
            result.walks += shard["walks"]
            result.generated_states += shard["generated"]
            result.max_depth = max(result.max_depth, shard["max_steps"])
            for fp in shard["fps"] or ():  # None when streamed into the store
                store.add(fp)
            for name, count in shard["action_counts"].items():
                action_counts[name] += count
            if shard["violation"] is not None and (
                violation is None or shard["violation"][0] < violation[0]
            ):
                violation = shard["violation"]
            if shard["deadlock"] is not None and (
                deadlock is None or shard["deadlock"][0] < deadlock[0]
            ):
                deadlock = shard["deadlock"]
        # A single walk ends at its first event, but *different* walks can
        # surface both kinds.  Under stop_on_violation only the earliest one
        # is reported -- the event a serial run would have stopped at (a
        # later-walk event may not even have run serially).  Without
        # stop_on_violation every walk ran everywhere, so both events are
        # real and both are reported, as the BFS engines do.
        if ctx.stop_on_violation and violation is not None and deadlock is not None:
            if violation[0] <= deadlock[0]:
                deadlock = None
            else:
                violation = None
        if violation is not None:
            _walk, inv_name, wire_trace = violation
            result.invariant_violation = InvariantViolation(
                f"invariant {inv_name!r} violated by specification {spec.name!r}",
                property_name=inv_name,
                trace=self._rebuild_trace(spec, wire_trace),
            )
        if deadlock is not None:
            _walk, wire_trace = deadlock
            result.deadlock = DeadlockError(
                f"deadlock reached in specification {spec.name!r}",
                trace=self._rebuild_trace(spec, wire_trace),
            )
        result.distinct_states = store.distinct_count
        result.peak_frontier = 1  # a walk holds exactly one live state
        result.action_counts = action_counts

    @staticmethod
    def _rebuild_trace(spec: Specification, wire: _WireTrace) -> List[State]:
        return [State.from_values(spec.schema, values) for values in wire]
