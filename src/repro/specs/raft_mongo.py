"""RaftMongo: the MongoDB Server replication-protocol specification.

This module is the Python analogue of the 345-line ``RaftMongo.tla`` the
paper trace-checks in Section 4.  The specification's primary concern, as in
the paper, is how the *commit point* (the newest majority-committed oplog
entry) is gossiped among the nodes of a replica set.  Elections are abstracted
away ("BecomePrimaryByMagic"), there is at most one leader at a time, and
replication is modelled as nodes copying entries from each other (the pull
protocol).

Two variants are provided, mirroring the paper's narrative:

* ``variant="original"`` -- the documentation/model-checking spec as first
  written: the election term is a **single global value** known by every node
  and commit-point learning has no term check.  (Paper Section 4.2.2, "Term":
  "RaftMongo.tla originally modelled the election term as a single global
  number known by all nodes.")
* ``variant="mbtc"`` -- the spec after the three weeks of revisions needed for
  trace-checking: terms are **per node** and gossiped through heartbeats, and
  the commit-point learning actions carry term checks.  This variant has the
  larger state space the paper reports (42,034 states grew to 371,368).

Per-node state is exactly the four variables the paper lists: ``role``,
``term``, ``commitPoint`` and ``oplog``.

Oplog entries are records ``{"term": t, "index": i}``; the commit point is
either :data:`~repro.tla.values.NULL` or such a record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..tla import (
    NULL,
    Action,
    Invariant,
    Record,
    Specification,
    State,
    TemporalProperty,
    registry,
)

__all__ = [
    "LEADER",
    "FOLLOWER",
    "RaftMongoConfig",
    "build_spec",
    "entry",
    "entry_order_key",
    "initial_state_dict",
    "node_count",
    "per_node_variables",
    "spec_factory",
]

LEADER = "Leader"
FOLLOWER = "Follower"

VARIABLES = ("role", "term", "commitPoint", "oplog")


def entry(term: int, index: int) -> Record:
    """An oplog entry: the pair of election term and oplog index."""
    return Record(term=term, index=index)


def entry_order_key(item: Any) -> Tuple[int, int]:
    """Total order on commit points / oplog entries: (term, index), NULL lowest."""
    if item == NULL or item is None:
        return (-1, -1)
    return (item["term"], item["index"])


@dataclass(frozen=True)
class RaftMongoConfig:
    """Model-checking configuration: the TLC ``.cfg`` analogue.

    The paper's configuration is 3 nodes, at most 3 election terms and oplogs
    of at most 3 entries (Section 4.1); that is :meth:`paper_scale`.  The
    default here is a smaller configuration suitable for unit tests.
    """

    n_nodes: int = 3
    max_term: int = 2
    max_log_len: int = 2
    variant: str = "mbtc"
    advance_requires_current_term: bool = True

    def __post_init__(self) -> None:
        if self.variant not in ("original", "mbtc"):
            raise ValueError(f"unknown RaftMongo variant {self.variant!r}")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")

    @classmethod
    def paper_scale(cls, variant: str = "mbtc") -> "RaftMongoConfig":
        """The configuration the paper model-checks: 3 nodes, 3 terms, 3 entries."""
        return cls(n_nodes=3, max_term=3, max_log_len=3, variant=variant)

    @property
    def nodes(self) -> range:
        return range(self.n_nodes)

    @property
    def majority(self) -> int:
        return self.n_nodes // 2 + 1


def initial_state_dict(config: RaftMongoConfig) -> Dict[str, Any]:
    """The single initial state: all followers, term 0, empty oplogs."""
    n = config.n_nodes
    initial_term: Any
    if config.variant == "original":
        initial_term = 0
    else:
        initial_term = tuple(0 for _ in range(n))
    return {
        "role": tuple(FOLLOWER for _ in range(n)),
        "term": initial_term,
        "commitPoint": tuple(NULL for _ in range(n)),
        "oplog": tuple(() for _ in range(n)),
    }


# ---------------------------------------------------------------------------
# Helpers shared by the actions
# ---------------------------------------------------------------------------


def _term_of(state: State, node: int, config: RaftMongoConfig) -> int:
    if config.variant == "original":
        return state["term"]
    return state["term"][node]


def _set_term(state: State, node: int, value: int, config: RaftMongoConfig) -> Any:
    if config.variant == "original":
        return value
    terms = list(state["term"])
    terms[node] = value
    return tuple(terms)


def _max_known_term(state: State, config: RaftMongoConfig) -> int:
    if config.variant == "original":
        return state["term"]
    return max(state["term"])


def _replace(seq: Sequence[Any], index: int, value: Any) -> Tuple[Any, ...]:
    items = list(seq)
    items[index] = value
    return tuple(items)


def _is_prefix(shorter: Sequence[Any], longer: Sequence[Any]) -> bool:
    return len(shorter) <= len(longer) and tuple(longer[: len(shorter)]) == tuple(shorter)


def _last_entry(oplog: Sequence[Any]) -> Any:
    return oplog[-1] if oplog else NULL


def _more_up_to_date(a_log: Sequence[Any], b_log: Sequence[Any]) -> bool:
    """Raft's log comparison: is ``a_log`` strictly more up to date than ``b_log``?"""
    return entry_order_key(_last_entry(a_log)) > entry_order_key(_last_entry(b_log))


def _at_least_as_up_to_date(a_log: Sequence[Any], b_log: Sequence[Any]) -> bool:
    return entry_order_key(_last_entry(a_log)) >= entry_order_key(_last_entry(b_log))


def _majority_committed_index(state: State, leader: int, config: RaftMongoConfig) -> int:
    """Largest oplog index replicated (as a prefix of the leader's log) by a majority."""
    leader_log = state["oplog"][leader]
    best = 0
    for idx in range(1, len(leader_log) + 1):
        prefix = leader_log[:idx]
        holders = sum(
            1 for node in config.nodes if _is_prefix(prefix, state["oplog"][node])
        )
        if holders >= config.majority:
            best = idx
    return best


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def _client_write(state: State, config: RaftMongoConfig) -> Iterator[Dict[str, Any]]:
    """ClientWrite: a leader executes a write, appending an entry to its oplog."""
    for node in config.nodes:
        if state["role"][node] != LEADER:
            continue
        log = state["oplog"][node]
        if len(log) >= config.max_log_len:
            continue
        new_entry = entry(_term_of(state, node, config), len(log) + 1)
        yield {"oplog": _replace(state["oplog"], node, log + (new_entry,))}


def _append_oplog(state: State, config: RaftMongoConfig) -> Iterator[Dict[str, Any]]:
    """AppendOplog: a node pulls the next missing entry from any other node."""
    for receiver in config.nodes:
        receiver_log = state["oplog"][receiver]
        for sender in config.nodes:
            if sender == receiver:
                continue
            sender_log = state["oplog"][sender]
            if len(sender_log) > len(receiver_log) and _is_prefix(receiver_log, sender_log):
                appended = receiver_log + (sender_log[len(receiver_log)],)
                yield {"oplog": _replace(state["oplog"], receiver, appended)}


def _rollback_oplog(state: State, config: RaftMongoConfig) -> Iterator[Dict[str, Any]]:
    """RollbackOplog: a node with a divergent oplog removes its last entry."""
    for receiver in config.nodes:
        receiver_log = state["oplog"][receiver]
        if not receiver_log:
            continue
        for sender in config.nodes:
            if sender == receiver:
                continue
            sender_log = state["oplog"][sender]
            diverged = not _is_prefix(receiver_log, sender_log)
            if diverged and _more_up_to_date(sender_log, receiver_log):
                yield {"oplog": _replace(state["oplog"], receiver, receiver_log[:-1])}


def _become_primary_by_magic(
    state: State, config: RaftMongoConfig
) -> Iterator[Dict[str, Any]]:
    """BecomePrimaryByMagic: a node is elected leader instantaneously.

    The election protocol is abstracted away: the winner must merely have an
    oplog at least as up to date as a majority of nodes, and the new term is
    one greater than any term in the system.  All other nodes become
    followers, preserving the spec's at-most-one-leader assumption.
    """
    new_term = _max_known_term(state, config) + 1
    if new_term > config.max_term:
        return
    for candidate in config.nodes:
        up_to_date_count = sum(
            1
            for node in config.nodes
            if _at_least_as_up_to_date(state["oplog"][candidate], state["oplog"][node])
        )
        if up_to_date_count < config.majority:
            continue
        roles = tuple(
            LEADER if node == candidate else FOLLOWER for node in config.nodes
        )
        yield {
            "role": roles,
            "term": _set_term(state, candidate, new_term, config),
        }


def _stepdown(state: State, config: RaftMongoConfig) -> Iterator[Dict[str, Any]]:
    """Stepdown: a leader voluntarily becomes a follower."""
    for node in config.nodes:
        if state["role"][node] == LEADER:
            yield {"role": _replace(state["role"], node, FOLLOWER)}


def _advance_commit_point(
    state: State, config: RaftMongoConfig
) -> Iterator[Dict[str, Any]]:
    """AdvanceCommitPoint: the leader advances the commit point.

    The commit point becomes the newest entry of the leader's oplog that a
    majority of nodes have replicated; optionally (the real protocol's rule)
    the entry must be from the leader's current term.
    """
    for leader in config.nodes:
        if state["role"][leader] != LEADER:
            continue
        index = _majority_committed_index(state, leader, config)
        if index == 0:
            continue
        candidate = state["oplog"][leader][index - 1]
        if (
            config.advance_requires_current_term
            and candidate["term"] != _term_of(state, leader, config)
        ):
            continue
        if entry_order_key(candidate) <= entry_order_key(state["commitPoint"][leader]):
            continue
        yield {"commitPoint": _replace(state["commitPoint"], leader, candidate)}


def _update_term_through_heartbeat(
    state: State, config: RaftMongoConfig
) -> Iterator[Dict[str, Any]]:
    """UpdateTermThroughHeartbeat: a node learns a newer election term (mbtc variant)."""
    for receiver in config.nodes:
        for sender in config.nodes:
            if sender == receiver:
                continue
            sender_term = state["term"][sender]
            if sender_term > state["term"][receiver]:
                updates: Dict[str, Any] = {
                    "term": _replace(state["term"], receiver, sender_term)
                }
                if state["role"][receiver] == LEADER:
                    # Learning a newer term forces a leader to step down.
                    updates["role"] = _replace(state["role"], receiver, FOLLOWER)
                yield updates


def _learn_commit_point(state: State, config: RaftMongoConfig) -> Iterator[Dict[str, Any]]:
    """LearnCommitPoint (original variant): a node copies any newer commit point."""
    for receiver in config.nodes:
        for sender in config.nodes:
            if sender == receiver:
                continue
            sender_cp = state["commitPoint"][sender]
            if entry_order_key(sender_cp) > entry_order_key(state["commitPoint"][receiver]):
                yield {
                    "commitPoint": _replace(state["commitPoint"], receiver, sender_cp)
                }


def _learn_commit_point_with_term_check(
    state: State, config: RaftMongoConfig
) -> Iterator[Dict[str, Any]]:
    """LearnCommitPointWithTermCheck: learn a newer commit point in the same term."""
    for receiver in config.nodes:
        for sender in config.nodes:
            if sender == receiver:
                continue
            sender_cp = state["commitPoint"][sender]
            if sender_cp == NULL:
                continue
            if entry_order_key(sender_cp) <= entry_order_key(
                state["commitPoint"][receiver]
            ):
                continue
            if sender_cp["term"] != _term_of(state, receiver, config):
                continue
            yield {"commitPoint": _replace(state["commitPoint"], receiver, sender_cp)}


def _learn_commit_point_from_sync_source(
    state: State, config: RaftMongoConfig
) -> Iterator[Dict[str, Any]]:
    """LearnCommitPointFromSyncSourceNeverBeyondLastApplied.

    A node learns the commit point from its sync source -- a node whose oplog
    extends the learner's own -- clamped to the newest entry the learner has
    itself applied, with no term check.  Requiring the learner's oplog to be a
    prefix of the sync source's keeps the learned commit point on the
    committed line of history.
    """
    for receiver in config.nodes:
        receiver_log = state["oplog"][receiver]
        last_applied = _last_entry(receiver_log)
        if last_applied == NULL:
            continue
        for sender in config.nodes:
            if sender == receiver:
                continue
            if not _is_prefix(receiver_log, state["oplog"][sender]):
                continue
            sender_cp = state["commitPoint"][sender]
            if sender_cp == NULL:
                continue
            learned = min((sender_cp, last_applied), key=entry_order_key)
            if entry_order_key(learned) <= entry_order_key(
                state["commitPoint"][receiver]
            ):
                continue
            yield {"commitPoint": _replace(state["commitPoint"], receiver, learned)}


# ---------------------------------------------------------------------------
# Invariants and temporal properties
# ---------------------------------------------------------------------------


def _committed_entries_in_majority(state: State, config: RaftMongoConfig) -> bool:
    """Committed writes are not rolled back.

    Every entry at or below some node's commit point must still be present, at
    its original index, in a majority of oplogs.  If a committed entry were
    rolled back anywhere it could drop below majority, violating this.
    """
    for node in config.nodes:
        commit_point = state["commitPoint"][node]
        if commit_point == NULL:
            continue
        for index in range(1, commit_point["index"] + 1):
            holders = 0
            witness = None
            for other in config.nodes:
                log = state["oplog"][other]
                if len(log) >= commit_point["index"] and entry_order_key(
                    log[commit_point["index"] - 1]
                ) == entry_order_key(commit_point):
                    if len(log) >= index:
                        if witness is None:
                            witness = log[index - 1]
                        if log[index - 1] == witness:
                            holders += 1
            if holders < config.majority:
                return False
    return True


def _committed_prefixes_consistent(state: State, config: RaftMongoConfig) -> bool:
    """Any two nodes' committed prefixes lie on a single line of history.

    A node may learn a commit point for data it has not replicated yet (it
    will catch up later), so only nodes whose own oplog actually contains the
    committed entry contribute a committed prefix to the comparison.
    """
    prefixes: List[Tuple[Any, ...]] = []
    for node in config.nodes:
        commit_point = state["commitPoint"][node]
        if commit_point == NULL:
            continue
        log = state["oplog"][node]
        index = commit_point["index"]
        if len(log) < index or log[index - 1] != commit_point:
            continue
        prefixes.append(tuple(log[:index]))
    for i, first in enumerate(prefixes):
        for second in prefixes[i + 1 :]:
            if not (_is_prefix(first, second) or _is_prefix(second, first)):
                return False
    return True


def _log_matching(state: State, config: RaftMongoConfig) -> bool:
    """If two oplogs contain the same entry, their prefixes up to it are equal."""
    for a in config.nodes:
        for b in config.nodes:
            if b <= a:
                continue
            log_a, log_b = state["oplog"][a], state["oplog"][b]
            for index in range(min(len(log_a), len(log_b)), 0, -1):
                if log_a[index - 1] == log_b[index - 1]:
                    if log_a[:index] != log_b[:index]:
                        return False
                    break
    return True


def _at_most_one_leader(state: State, config: RaftMongoConfig) -> bool:
    """The spec's simplifying assumption called out in paper Section 4.2.2."""
    return sum(1 for node in config.nodes if state["role"][node] == LEADER) <= 1


def _commit_point_propagated(state: State, config: RaftMongoConfig) -> bool:
    """All nodes know the same, newest, commit point."""
    points = {entry_order_key(state["commitPoint"][node]) for node in config.nodes}
    return len(points) == 1


# ---------------------------------------------------------------------------
# Spec assembly
# ---------------------------------------------------------------------------


def build_spec(config: Optional[RaftMongoConfig] = None) -> Specification:
    """Assemble the RaftMongo specification for the given configuration."""
    cfg = config or RaftMongoConfig()

    def bind(effect):
        return lambda state: effect(state, cfg)

    actions: List[Action] = [
        Action("ClientWrite", bind(_client_write)),
        Action("AppendOplog", bind(_append_oplog)),
        Action("RollbackOplog", bind(_rollback_oplog)),
        Action("BecomePrimaryByMagic", bind(_become_primary_by_magic)),
        Action("Stepdown", bind(_stepdown)),
        Action("AdvanceCommitPoint", bind(_advance_commit_point)),
    ]
    if cfg.variant == "original":
        actions.append(Action("LearnCommitPoint", bind(_learn_commit_point)))
    else:
        actions.extend(
            [
                Action("UpdateTermThroughHeartbeat", bind(_update_term_through_heartbeat)),
                Action(
                    "LearnCommitPointWithTermCheck",
                    bind(_learn_commit_point_with_term_check),
                ),
                Action(
                    "LearnCommitPointFromSyncSourceNeverBeyondLastApplied",
                    bind(_learn_commit_point_from_sync_source),
                ),
            ]
        )

    invariants = [
        Invariant("NeverRollBackCommittedWrites", bind(_committed_entries_in_majority)),
        Invariant("CommittedPrefixesConsistent", bind(_committed_prefixes_consistent)),
        Invariant("LogMatching", bind(_log_matching)),
        Invariant("AtMostOneLeader", bind(_at_most_one_leader)),
    ]

    properties = [
        TemporalProperty(
            "CommitPointEventuallyPropagated", bind(_commit_point_propagated), "eventually"
        )
    ]

    def init() -> Iterable[Dict[str, Any]]:
        yield initial_state_dict(cfg)

    name = f"RaftMongo[{cfg.variant}]"
    return Specification(
        name,
        variables=VARIABLES,
        init=init,
        actions=actions,
        invariants=invariants,
        properties=properties,
        constants={
            "n_nodes": cfg.n_nodes,
            "max_term": cfg.max_term,
            "max_log_len": cfg.max_log_len,
            "variant": cfg.variant,
        },
    )


# ---------------------------------------------------------------------------
# Pipeline hooks (see repro.tla.registry)
# ---------------------------------------------------------------------------


def spec_factory(**params: Any) -> Specification:
    """Build a RaftMongo spec from flat keyword parameters (CLI entry point)."""
    return build_spec(RaftMongoConfig(**params))


def per_node_variables(spec: Specification) -> Tuple[str, ...]:
    """Variables indexed by node id.

    In the ``original`` variant the election term is a single global value
    (the very modelling gap MBTC exposed, paper Section 4.2.2), so only the
    other three variables are per-node there.
    """
    if spec.constants.get("variant") == "original":
        return ("role", "commitPoint", "oplog")
    return VARIABLES


def node_count(spec: Specification) -> int:
    """How many replica-set members the configuration models."""
    return int(spec.constants["n_nodes"])


registry.register_spec(
    "raftmongo",
    spec_factory,
    description="RaftMongo replication protocol (paper Section 4); "
    "params: n_nodes, max_term, max_log_len, variant=original|mbtc",
    per_node_variables=per_node_variables,
    node_count=node_count,
)
