"""OTArray: array operational transformation, the paper's MBTCG case study.

Paper Section 5 describes how the MongoDB Realm Sync team model-checked their
operational-transformation (OT) algorithm for synchronized arrays and then
used MBTCG -- enumerating every behaviour of the specification -- to emit
4,913 executable OT tests.  This module is the Python analogue of that
specification, sized for exhaustive behaviour enumeration by
:mod:`repro.mbtcg`.

The model: two sites (a client and a server) replicate one array.  Starting
from a common base array, each site may generate **one** local operation
(``Insert``, ``Remove`` or ``Set``) and applies it to its own replica
immediately.  Each site then *integrates* the remote site's operation,
transformed against its own concurrent operation by the classic OT transform
rules (insert-shift, delete-shift, tombstone on delete-delete and set-delete
collisions, site-0 priority on ties).  The ``Convergence`` invariant is OT's
TP1 correctness property: once every generated operation has been integrated
everywhere, both replicas hold the same array.

Behaviours of this spec are exactly the test cases Realm Sync generated:
"site A performs op1 while site B performs op2; after transformation both
converge" -- so the :mod:`repro.mbtcg` exhaustive strategy over this graph is
the reproduction of the paper's 4,913-test pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from ..tla import NULL, Action, Invariant, Record, Specification, State, registry

__all__ = [
    "OTArrayConfig",
    "SITES",
    "apply_op",
    "build_spec",
    "node_count",
    "per_node_variables",
    "spec_factory",
    "transform",
]

#: The two replicating sites; site 0 (the "server") wins transformation ties.
SITES: Tuple[int, ...] = (0, 1)

VARIABLES = ("arrays", "ops", "synced")


@dataclass(frozen=True)
class OTArrayConfig:
    """Bound the model: the shared base array the concurrent ops start from.

    ``init_length`` is the length of the base array ``(0, 1, ..., n-1)``.
    Each site's operation domain is derived from that base: inserts at every
    position (with a per-site marker value ``10 + site``), removes and sets
    (marker ``20 + site``) at every occupied position.
    """

    init_length: int = 2

    def __post_init__(self) -> None:
        if self.init_length < 1:
            raise ValueError("init_length must be at least 1")

    @property
    def base_array(self) -> Tuple[int, ...]:
        return tuple(range(self.init_length))


def _insert(pos: int, value: int) -> Record:
    return Record(kind="insert", pos=pos, value=value)


def _remove(pos: int) -> Record:
    return Record(kind="remove", pos=pos)


def _set(pos: int, value: int) -> Record:
    return Record(kind="set", pos=pos, value=value)


def apply_op(array: Tuple[int, ...], op: Optional[Record]) -> Tuple[int, ...]:
    """Apply one (possibly transformed-away) operation to an array."""
    if op is None:
        return array
    pos = op["pos"]
    if op["kind"] == "insert":
        return array[:pos] + (op["value"],) + array[pos:]
    if op["kind"] == "remove":
        if pos >= len(array):  # pragma: no cover - guarded by transform
            return array
        return array[:pos] + array[pos + 1 :]
    # set
    if pos >= len(array):  # pragma: no cover - guarded by transform
        return array
    return array[:pos] + (op["value"],) + array[pos + 1 :]


def transform(op: Record, other: Record, op_has_priority: bool) -> Optional[Record]:
    """Transform ``op`` to apply after concurrent ``other`` (the OT core).

    Returns the rewritten operation, or ``None`` when ``other`` subsumed it
    (delete-delete on one index, set-set losing a tie, set on a deleted
    element).  ``op_has_priority`` breaks position ties; callers pass
    ``True`` exactly when ``op`` originated at the lower-numbered site, so
    both sites apply the same total order.
    """
    kind, pos = op["kind"], op["pos"]
    other_kind, other_pos = other["kind"], other["pos"]

    if other_kind == "insert":
        if kind == "insert":
            if pos < other_pos or (pos == other_pos and op_has_priority):
                return op
            return op.except_(pos=pos + 1)
        # remove / set shift right when at or past the insertion point.
        if pos < other_pos:
            return op
        return op.except_(pos=pos + 1)

    if other_kind == "remove":
        if kind == "insert":
            if pos <= other_pos:
                return op
            return op.except_(pos=pos - 1)
        if pos == other_pos:
            return None  # the element is gone: remove/set of it dissolves
        if pos < other_pos:
            return op
        return op.except_(pos=pos - 1)

    # other is a set: positions are unaffected; only a set-set tie conflicts.
    if kind == "set" and pos == other_pos:
        return op if op_has_priority else None
    return op


def _local_ops(kind: str, base: Tuple[int, ...], site: int) -> Iterator[Record]:
    """The operation domain of one site, derived from its (base) array."""
    if kind == "insert":
        for pos in range(len(base) + 1):
            yield _insert(pos, 10 + site)
    elif kind == "remove":
        for pos in range(len(base)):
            yield _remove(pos)
    else:
        for pos in range(len(base)):
            yield _set(pos, 20 + site)


def _replace(slots: Tuple[Any, ...], index: int, value: Any) -> Tuple[Any, ...]:
    return slots[:index] + (value,) + slots[index + 1 :]


def _propose(kind: str):
    """Action effect: one site generates a local op and applies it."""

    def effect(state: State) -> Iterator[Dict[str, Any]]:
        arrays, ops, synced = state["arrays"], state["ops"], state["synced"]
        if any(synced):
            return  # integration started: later ops would not be concurrent
        for site in SITES:
            if ops[site] != NULL:
                continue
            for op in _local_ops(kind, arrays[site], site):
                yield {
                    "arrays": _replace(arrays, site, apply_op(arrays[site], op)),
                    "ops": _replace(ops, site, op),
                }

    return effect


def _integrate(state: State) -> Iterator[Dict[str, Any]]:
    """Action effect: a site applies the remote op, transformed if concurrent."""
    arrays, ops, synced = state["arrays"], state["ops"], state["synced"]
    for site in SITES:
        other = 1 - site
        if synced[site] or ops[other] == NULL:
            continue
        remote = ops[other]
        if ops[site] != NULL:
            applied = transform(remote, ops[site], op_has_priority=other < site)
        else:
            applied = remote
        yield {
            "arrays": _replace(arrays, site, apply_op(arrays[site], applied)),
            "synced": _replace(synced, site, True),
        }


def _convergence(state: State) -> bool:
    """TP1: once every op is integrated everywhere, the replicas agree."""
    arrays, ops, synced = state["arrays"], state["ops"], state["synced"]
    for site in SITES:
        other = 1 - site
        if ops[other] != NULL and not synced[site]:
            return True  # still mid-merge: nothing to assert yet
    return arrays[0] == arrays[1]


def _bounded(config: OTArrayConfig):
    def predicate(state: State) -> bool:
        """Each replica grows by at most the two possible inserts."""
        return all(len(array) <= config.init_length + 2 for array in state["arrays"])

    return predicate


def build_spec(config: Optional[OTArrayConfig] = None) -> Specification:
    """Assemble the array-OT specification."""
    cfg = config or OTArrayConfig()

    def init() -> Iterator[Dict[str, Any]]:
        base = cfg.base_array
        yield {
            "arrays": (base, base),
            "ops": (NULL, NULL),
            "synced": (False, False),
        }

    return Specification(
        "OTArray",
        variables=VARIABLES,
        init=init,
        actions=[
            Action("Insert", _propose("insert")),
            Action("Remove", _propose("remove")),
            Action("Set", _propose("set")),
            Action("Integrate", _integrate),
        ],
        invariants=[
            Invariant("Convergence", _convergence),
            Invariant("BoundedLength", _bounded(cfg)),
        ],
        constants={"init_length": cfg.init_length},
    )


# ---------------------------------------------------------------------------
# Pipeline hooks (see repro.tla.registry)
# ---------------------------------------------------------------------------


def spec_factory(**params: Any) -> Specification:
    """Build the OT spec from flat keyword parameters (CLI entry point)."""
    return build_spec(OTArrayConfig(**params))


def per_node_variables(spec: Specification) -> Tuple[str, ...]:
    """Variables indexed by node id; here a "node" is a replicating site."""
    return ("arrays", "ops", "synced")


def node_count(spec: Specification) -> int:
    """How many per-node slots each per-node variable carries."""
    return len(SITES)


registry.register_spec(
    "ot_array",
    spec_factory,
    description="Array operational transformation, the MBTCG case study "
    "(paper Section 5); params: init_length",
    per_node_variables=per_node_variables,
    node_count=node_count,
)
