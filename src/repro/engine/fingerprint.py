"""The fingerprint-interned BFS engine (the default).

The visited set holds only stable 64-bit state fingerprints (as TLC's own
fingerprint set does), plus a fingerprint-keyed parent map used to rebuild
counterexample behaviours by forward replay.  Full ``State`` objects live
only on the current and next BFS frontier, so peak memory is bounded by the
widest level rather than the whole reachable space.

The visited set itself is pluggable: the default ``fingerprint`` store is an
in-memory set, and the ``disk`` store pushes the same exact set into a
SQLite file behind a write-back cache (see :mod:`repro.engine.store` and
:mod:`repro.engine.diskstore`).  Frontier levels, the other per-scale memory
consumer, can spill to compressed disk chunks past a threshold
(:mod:`repro.engine.frontier`) -- together that keeps peak RSS flat into the
millions of distinct states.
"""

from __future__ import annotations

from ..obs import COUNT_BUCKETS, current as obs_current, span
from ..tla.state import State
from .base import CheckContext, Engine, register_engine

__all__ = ["FingerprintEngine", "bfs_levels"]


def bfs_levels(ctx: CheckContext) -> None:
    """The level-synchronous BFS loop, one depth level per batch.

    Seeding or resuming, limits, the merge into store, parent map and next
    frontier, telemetry and checkpoints; every frontier state goes through
    ``ctx.expander.expand``.
    """
    spec, result, store = ctx.spec, ctx.result, ctx.store
    schema = spec.schema
    from_values = State.from_values
    expand = ctx.expander.expand
    add = store.add
    set_parent = ctx.parents.setdefault
    max_states, check_deadlock = ctx.max_states, ctx.check_deadlock
    stop_on_violation = ctx.stop_on_violation
    frontier, stop, depth, action_counts = ctx.start_frontier()
    obs_run = obs_current()
    ticker = obs_run.progress if obs_run is not None else None

    while frontier and not stop:
        if ctx.max_depth is not None and depth >= ctx.max_depth:
            result.truncated = True
            break
        level_size = len(frontier)
        # A ``with`` block, so a level cut short by an interrupt or a raising
        # spec still lands in the ``span.engine.level.seconds`` time budget.
        with span("engine.level", emit=False):
            next_frontier = ctx.new_frontier()
            append = next_frontier.append
            for state, fp in frontier:
                if ticker is not None and ticker.due():
                    ticker.emit(
                        depth=depth,
                        frontier=level_size,
                        distinct=store.distinct_count,
                        generated=result.generated_states,
                    )
                if max_states is not None and store.distinct_count >= max_states:
                    result.truncated = True
                    stop = True
                    break
                # One call yields the full expansion with fingerprints and
                # verdicts precomputed.  Real State objects are rebuilt only
                # for successors that enter the next frontier (checkpoints
                # and spill files consume them there).
                entries = expand(state.values)
                if not entries and check_deadlock:
                    result.deadlock = ctx.deadlock_at(fp)
                    if stop_on_violation:
                        stop = True
                        break
                for action_name, nvalues, nfp, violated_name, within in entries:
                    result.generated_states += 1
                    action_counts[action_name] += 1
                    if not add(nfp):
                        continue
                    # add() said new, so no entry exists: setdefault is the
                    # disk parent map's insert that skips the existence probe.
                    set_parent(nfp, (fp, action_name))
                    result.max_depth = max(result.max_depth, depth + 1)
                    if violated_name is not None:
                        result.invariant_violation = ctx.fp_violation(
                            nfp, violated_name
                        )
                        if stop_on_violation:
                            stop = True
                            break
                    if within:
                        append((from_values(schema, nvalues), nfp))
                if stop:
                    break
            if hasattr(frontier, "close"):
                frontier.close()  # drop the consumed level's spill file early
            frontier = next_frontier
            ctx.note_frontier(frontier)
            result.peak_frontier = max(result.peak_frontier, len(frontier))
            depth += 1
        if obs_run is not None:
            reg = obs_run.registry
            reg.inc("engine.levels")
            reg.observe("engine.level_states", level_size, edges=COUNT_BUCKETS)
            reg.set_gauge("engine.frontier_depth", depth)
        if not stop:
            ctx.maybe_checkpoint(depth, frontier, action_counts)

    result.distinct_states = store.distinct_count
    result.action_counts = action_counts


@register_engine
class FingerprintEngine(Engine):
    """Level-batched BFS over interned 64-bit state fingerprints."""

    name = "fingerprint"
    supports_graph = False
    supported_stores = ("fingerprint", "disk")
    supports_checkpoint = True

    def run(self, ctx: CheckContext) -> None:
        bfs_levels(ctx)
