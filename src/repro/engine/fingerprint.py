"""The one BFS of the model checker: :func:`bfs_levels`.

``engine="fingerprint"`` (the default) runs this loop, with or without
the state graph.  The store holds one entry per distinct state, as TLC's
fingerprint set does: the state's stable 64-bit fingerprint, mapped to the
fingerprint of the state it was first reached from -- the whole of what
counterexample replay needs.  The frontier holds ``(value tuple, fingerprint)`` pairs.  Invariants and the
constraint are evaluated once per *new* state (``expander.verdict_for``),
never for a duplicate successor, so nothing is memoized per fingerprint
beside the store.

Two levels are live at a time: the one being expanded and the next one
being filled.  An in-memory level lets go of each entry as it is expanded,
so what is held at any moment is the unexpanded rest of the one and what
the other has gathered so far -- never two whole levels.

It runs on either store: the default ``fingerprint`` store is an
in-memory dict; the ``disk`` store pushes the same exact pairs into a
SQLite file behind a write-back cache (see :mod:`repro.engine.store` and
:mod:`repro.engine.diskstore`).  A run that keeps the state graph
(``collect_graph``) stores its visited set in the
:class:`~repro.tla.graph.StateGraph` -- the fingerprint store plus states
and edges -- into which the loop places one ``State`` per new node and
every generated transition.  Without the graph no ``State`` object is
built during the search.  Frontier levels, the other per-scale memory
consumer, can spill to compressed disk chunks past a threshold
(:mod:`repro.engine.frontier`) -- together that keeps peak RSS flat into
the millions of distinct states.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..obs import COUNT_BUCKETS, current as obs_current, span
from ..tla.state import State
from .base import CheckContext, FrontierEntry

__all__ = ["bfs_levels"]


def _consumed(frontier: Iterable[FrontierEntry]) -> Iterator[FrontierEntry]:
    """A level's entries in order; a list hands each over as it goes.

    A list frontier is emptied from its far end after one reversal, so an
    expanded entry's value tuple is let go of while the level is still
    being expanded rather than once the next level is complete.  A
    :class:`~repro.engine.frontier.SpillFrontier` is only iterated: its
    memory is already bounded.
    """
    if type(frontier) is not list:
        return iter(frontier)
    frontier.append(None)  # popped last, it ends the iteration
    frontier.reverse()
    return iter(frontier.pop, None)


def bfs_levels(ctx: CheckContext) -> None:
    """The level-synchronous BFS loop, one depth level per batch.

    Seeding or resuming, limits, the merge into store and next frontier,
    telemetry and checkpoints; every frontier entry goes through
    ``ctx.expander.transitions`` and every new successor through
    ``ctx.expander.verdict_for``.  When the run keeps the graph it also
    fills it: a ``State`` per new node and an edge per generated successor.
    """
    result, store = ctx.result, ctx.store
    transitions = ctx.expander.transitions
    verdict_for = ctx.expander.verdict_for
    add = store.add
    graph, schema = ctx.graph, ctx.spec.schema
    if graph is not None:
        place, link = graph.place, graph.add_edge
    max_states, check_deadlock = ctx.max_states, ctx.check_deadlock
    stop_on_violation = ctx.stop_on_violation
    frontier, stop, depth, action_counts = ctx.start_frontier()
    obs_run = obs_current()
    ticker = obs_run.progress if obs_run is not None else None
    generated = result.generated_states

    try:
        while frontier and not stop:
            if ctx.max_depth is not None and depth >= ctx.max_depth:
                result.truncated = True
                break
            level_size = len(frontier)
            level_start = store.distinct_count
            # A ``with`` block, so a level cut short by an interrupt or a
            # raising spec still lands in the ``span.engine.level.seconds``
            # time budget.
            with span("engine.level", emit=False):
                next_frontier = ctx.new_frontier()
                append = next_frontier.append
                for values, fp in _consumed(frontier):
                    if ticker is not None and ticker.due():
                        ticker.emit(
                            depth=depth,
                            frontier=level_size,
                            distinct=store.distinct_count,
                            generated=generated,
                        )
                    if max_states is not None and store.distinct_count >= max_states:
                        result.truncated = True
                        stop = True
                        break
                    successors = transitions(values)
                    if not successors and check_deadlock:
                        result.deadlock = ctx.deadlock_at(fp)
                        if stop_on_violation:
                            stop = True
                            break
                    for action_name, nvalues, nfp in successors:
                        generated += 1
                        action_counts[action_name] += 1
                        if not add(nfp, fp):
                            if graph is not None:
                                link(fp, action_name, nfp)
                            continue
                        if graph is not None:
                            place(State.from_values(schema, nvalues, nfp))
                            link(fp, action_name, nfp)
                        violated_name, within = verdict_for(nvalues, nfp)
                        if violated_name is not None:
                            result.invariant_violation = ctx.fp_violation(
                                nfp, violated_name
                            )
                            if stop_on_violation:
                                stop = True
                                break
                        if within:
                            append((nvalues, nfp))
                    if stop:
                        break
                if store.distinct_count > level_start:
                    result.max_depth = depth + 1
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
                result.generated_states = generated
                ctx.maybe_checkpoint(depth, frontier, action_counts)
    finally:
        result.generated_states = generated

    result.distinct_states = store.distinct_count
    result.action_counts = action_counts
    result.graph = graph
