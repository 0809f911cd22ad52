"""Reachable-state graphs and simple liveness checking.

TLC can export the graph of all reachable states to a GraphViz DOT file; the
Realm Sync case study parses that file to generate test cases (paper Section
5.2), and TLC builds that graph from the same fingerprint set its BFS uses.
So does the reproduction: :class:`StateGraph` is the visited store of the
one BFS loop, :func:`repro.engine.fingerprint.bfs_levels`, in a run that
keeps the graph (``collect_graph``, or temporal properties to check) --
the fingerprint store plus states and edges.  Each distinct state is keyed
by its 64-bit fingerprint (``add(fp, parent)``, ``parent_of(fp)``, as
every store is) and numbered by insertion order; the loop attaches its
``State`` once and records each generated transition once, in its source
node's outgoing list.  The model checker hands it out as ``result.graph``,
and the :mod:`repro.mbtcg` test-case generation subsystem
enumerates its behaviours (see :mod:`repro.mbtcg.strategies`) to produce
executable test suites.  It also supports the condensation-based
"eventually" checks used to validate RaftMongo's temporal property ("the
commit point is eventually propagated").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import SpecError
from .spec import TemporalProperty
from .state import State

__all__ = ["Edge", "StateGraph", "PropertyCheckOutcome"]


@dataclass(frozen=True, slots=True)
class Edge:
    """A labelled transition between two states (by node id)."""

    source: int
    action: str
    target: int


@dataclass(frozen=True)
class PropertyCheckOutcome:
    """Result of checking one temporal property against a state graph."""

    property_name: str
    holds: bool
    explanation: str = ""


class StateGraph:
    """The graph of reachable states discovered by the model checker.

    Node ids are dense and follow fingerprint insertion order (an initial
    state is one added without a parent); ``_outgoing[id]`` is the node's
    edge list, so :attr:`edges` is those lists concatenated in id order.
    """

    #: The store name a run that keeps the graph reports.
    name = "graph"

    def __init__(self) -> None:
        self._ids: Dict[int, int] = {}
        self._parents: List[Optional[int]] = []
        self._states: List[State] = []
        self._outgoing: List[List[Edge]] = []
        self._initial: List[int] = []

    # Construction -------------------------------------------------------------
    def add(self, fp: int, parent: Optional[int] = None) -> bool:
        """Add the node fingerprinted ``fp``, reached from ``parent``'s; True if new.

        Follow a True with :meth:`place` of the node's state.
        """
        ids = self._ids
        if fp in ids:
            return False
        node_id = ids[fp] = len(self._parents)
        self._parents.append(parent)
        self._outgoing.append([])
        if parent is None:
            self._initial.append(node_id)
        return True

    def place(self, state: State) -> None:
        """Attach ``state`` to the node :meth:`add` has just added."""
        self._states.append(state)

    def add_edge(self, source: int, action: str, target: int) -> None:
        """Record ``action`` from the node fingerprinted ``source`` to ``target``'s."""
        ids = self._ids
        source_id = ids[source]
        self._outgoing[source_id].append(Edge(source_id, action, ids[target]))

    # Accessors ------------------------------------------------------------------
    def parent_of(self, fp: int) -> Optional[int]:
        return self._parents[self._ids[fp]]

    @property
    def initial_ids(self) -> Tuple[int, ...]:
        return tuple(self._initial)

    def state_of(self, node_id: int) -> State:
        return self._states[node_id]

    def id_of(self, state: State) -> int:
        try:
            return self._ids[state.fingerprint()]
        except KeyError:
            raise SpecError("state is not part of this graph") from None

    def __contains__(self, state: object) -> bool:
        return isinstance(state, State) and state.fingerprint() in self._ids

    def __len__(self) -> int:
        return len(self._parents)

    @property
    def distinct_count(self) -> int:
        return len(self._parents)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(chain.from_iterable(self._outgoing))

    def states(self) -> Iterator[State]:
        return iter(self._states)

    def outgoing(self, node_id: int) -> Sequence[Edge]:
        return tuple(self._outgoing[node_id])

    def terminal_ids(self) -> List[int]:
        """Nodes with no outgoing edges (deadlocks or intended final states)."""
        return [node for node, edges in enumerate(self._outgoing) if not edges]

    # Behaviours -------------------------------------------------------------------
    def behaviours(
        self,
        *,
        max_length: int,
        from_initial_only: bool = True,
    ) -> Iterator[List[Tuple[Optional[str], State]]]:
        """Enumerate finite behaviours (paths) up to ``max_length`` states.

        Each behaviour is a list of ``(action taken to reach the state, state)``
        pairs; the first pair has ``None`` for the action.  This is the
        enumeration primitive behind the exhaustive and coverage-minimized
        strategies of :mod:`repro.mbtcg.strategies` (the paper's MBTCG:
        complete runs of the array-OT specification become test cases).

        Paths share a parent chain internally (``(action, node, parent)``
        links), so extending a path on each edge push is O(1); a behaviour is
        materialized only when yielded.
        """
        if max_length < 1:
            return
        # Stack entries are (node id, path length, chain link); a link is
        # (action, node id, parent link) shared by every extension of the
        # prefix, instead of copying the whole path per pushed edge.
        stack: List[Tuple[int, int, Tuple[Optional[str], int, Any]]] = []
        starts = self._initial if from_initial_only else range(len(self._states))
        for start in starts:
            stack.append((start, 1, (None, start, None)))
        while stack:
            node, length, link = stack.pop()
            edges = self._outgoing[node]
            if not edges or length >= max_length:
                behaviour: List[Tuple[Optional[str], State]] = []
                cursor: Optional[Tuple[Optional[str], int, Any]] = link
                while cursor is not None:
                    act, nid, cursor = cursor
                    behaviour.append((act, self._states[nid]))
                behaviour.reverse()
                yield behaviour
                continue
            for edge in edges:
                stack.append((edge.target, length + 1, (edge.action, edge.target, link)))

    def random_walk(
        self,
        rng: "random.Random",
        *,
        max_length: int,
    ) -> List[Tuple[Optional[str], State]]:
        """Sample one behaviour by walking random edges from a random initial state.

        The walk stops at ``max_length`` states or at a terminal node.  This
        pulls known-valid behaviours out of an already-explored graph (the
        test suite uses it to source traces for MBTC checks); the pipeline's
        workload generator instead re-runs spec actions so it works without a
        prior full exploration.
        """
        if max_length < 1:
            raise SpecError("random_walk needs max_length >= 1")
        if not self._initial:
            raise SpecError("graph has no initial states to walk from")
        node = rng.choice(self._initial)
        path: List[Tuple[Optional[str], State]] = [(None, self._states[node])]
        while len(path) < max_length:
            edges = self._outgoing[node]
            if not edges:
                break
            edge = rng.choice(edges)
            node = edge.target
            path.append((edge.action, self._states[node]))
        return path

    # Liveness ------------------------------------------------------------------------
    def terminal_sccs(self) -> List[Set[int]]:
        """Strongly connected components with no edges leaving them.

        An iterative Tarjan over the adjacency lists, so no recursion limit
        bounds the graph.  A component completes only after every component
        it reaches, so it is terminal exactly when each of its edges stays
        inside it.  Components come in completion order.
        """
        outgoing = self._outgoing
        index = [-1] * len(self._states)
        low = [0] * len(self._states)
        on_stack = [False] * len(self._states)
        stack: List[int] = []
        terminal: List[Set[int]] = []
        counter = 0
        for root in range(len(self._states)):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(outgoing[root]))]
            while work:
                node, edges = work[-1]
                for edge in edges:
                    target = edge.target
                    if index[target] < 0:
                        index[target] = low[target] = counter
                        counter += 1
                        stack.append(target)
                        on_stack[target] = True
                        work.append((target, iter(outgoing[target])))
                        break
                    if on_stack[target] and index[target] < low[node]:
                        low[node] = index[target]
                else:
                    work.pop()
                    if work and low[node] < low[work[-1][0]]:
                        low[work[-1][0]] = low[node]
                    if low[node] == index[node]:
                        members: Set[int] = set()
                        while True:
                            member = stack.pop()
                            on_stack[member] = False
                            members.add(member)
                            if member == node:
                                break
                        if all(
                            edge.target in members
                            for member in members
                            for edge in outgoing[member]
                        ):
                            terminal.append(members)
        return terminal

    def check_property(self, prop: TemporalProperty) -> PropertyCheckOutcome:
        """Check a temporal property using the condensation of the graph."""
        terminal_components = self.terminal_sccs()
        if prop.kind == "eventually":
            for component in terminal_components:
                if not any(prop.predicate(self._states[node]) for node in component):
                    sample = min(component)
                    return PropertyCheckOutcome(
                        prop.name,
                        False,
                        "a terminal component (e.g. node "
                        f"{sample}) never satisfies the predicate",
                    )
            return PropertyCheckOutcome(prop.name, True)
        # always_eventually: additionally, terminal singleton states must satisfy it.
        for component in terminal_components:
            satisfied = any(prop.predicate(self._states[node]) for node in component)
            if not satisfied:
                sample = min(component)
                return PropertyCheckOutcome(
                    prop.name,
                    False,
                    f"terminal component containing node {sample} never satisfies the predicate",
                )
            if len(component) == 1:
                node = next(iter(component))
                if not self._outgoing[node] and not prop.predicate(self._states[node]):
                    return PropertyCheckOutcome(
                        prop.name,
                        False,
                        f"deadlocked node {node} does not satisfy the predicate",
                    )
        return PropertyCheckOutcome(prop.name, True)
