"""Locking: a specification of MongoDB-style hierarchical (multi-granularity) locking.

Paper Section 4.2.5 discusses ``Locking.tla``, a specification of aspects of
the MongoDB Server's lock hierarchy, as the hypothetical *second* spec to
trace-check: its state variables are disjoint from RaftMongo's, it applies to
a single process rather than a replica set, and therefore almost none of the
RaftMongo tracing or post-processing code could be reused -- which is the
paper's argument that the marginal cost of MBTC stays high.

The model follows Gray et al.'s granularity-of-locks scheme [11 in the
paper]: a three-level resource hierarchy (Global -> Database -> Collection)
and lock modes IS, IX, S and X with the classic compatibility matrix.
Threads must hold an intent lock on every ancestor before locking a resource,
and incompatible modes may never be granted simultaneously on one resource.

The specification is used three ways in this repository:

* model checking (its invariants hold -- see the test suite),
* the implementation-side lock manager in
  :mod:`repro.replication.locks` mirrors it, so single-process traces can be
  checked against it, and
* the marginal-cost experiment (benchmarks) measures how little of the
  RaftMongo MBTC tooling is reusable for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..tla import Action, Invariant, Specification, State, registry

__all__ = [
    "COMPATIBILITY",
    "LOCK_MODES",
    "MUTATIONS",
    "LockingConfig",
    "build_spec",
    "compatible",
    "node_count",
    "per_node_variables",
    "spec_factory",
]

#: Lock modes, in increasing strength: intent-shared, intent-exclusive, shared, exclusive.
LOCK_MODES: Tuple[str, ...] = ("IS", "IX", "S", "X")

#: The classic multi-granularity compatibility matrix (Gray et al. 1976).
COMPATIBILITY: Dict[Tuple[str, str], bool] = {
    ("IS", "IS"): True,
    ("IS", "IX"): True,
    ("IS", "S"): True,
    ("IS", "X"): False,
    ("IX", "IS"): True,
    ("IX", "IX"): True,
    ("IX", "S"): False,
    ("IX", "X"): False,
    ("S", "IS"): True,
    ("S", "IX"): False,
    ("S", "S"): True,
    ("S", "X"): False,
    ("X", "IS"): False,
    ("X", "IX"): False,
    ("X", "S"): False,
    ("X", "X"): False,
}

#: Which mode is required on the parent resource before acquiring a child lock.
REQUIRED_PARENT_MODE: Dict[str, Tuple[str, ...]] = {
    "IS": ("IS", "IX", "S", "X"),
    "S": ("IS", "IX", "S", "X"),
    "IX": ("IX", "X"),
    "X": ("IX", "X"),
}

#: The resource hierarchy levels, root first.
RESOURCES: Tuple[str, ...] = ("Global", "Database", "Collection")


def compatible(mode_a: str, mode_b: str) -> bool:
    """True when two lock modes may be held simultaneously on one resource."""
    return COMPATIBILITY[(mode_a, mode_b)]


#: Known seeded bugs, for exercising the checker's violation paths (the
#: ``simulate`` engine's acceptance test hunts the first one down by random
#: walk).  ``"xx_compatible"`` makes the grant check treat two exclusive
#: locks on one resource as compatible, so ``MutualExclusion`` is violated
#: on any resource two threads both X-lock.
MUTATIONS: Tuple[str, ...] = ("xx_compatible",)


@dataclass(frozen=True)
class LockingConfig:
    """Bound the model: how many threads contend for the hierarchy."""

    n_threads: int = 2
    allow_exclusive: bool = True
    #: One of :data:`MUTATIONS`, or None for the correct model.
    mutation: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError("n_threads must be at least 1")
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise ValueError(
                f"unknown mutation {self.mutation!r}; known: {MUTATIONS}"
            )

    @property
    def threads(self) -> range:
        return range(self.n_threads)

    @property
    def modes(self) -> Tuple[str, ...]:
        if self.allow_exclusive:
            return LOCK_MODES
        return ("IS", "IX", "S")


VARIABLES = ("held",)
NO_LOCK = "None"


def _initial_held(config: LockingConfig) -> Tuple[Tuple[str, ...], ...]:
    """held[thread][resource] = mode or "None"."""
    return tuple(tuple(NO_LOCK for _ in RESOURCES) for _ in config.threads)


def _resource_index(resource: str) -> int:
    return RESOURCES.index(resource)


def _holders(held: Sequence[Sequence[str]], resource: str) -> List[str]:
    idx = _resource_index(resource)
    return [row[idx] for row in held if row[idx] != NO_LOCK]


def _grantable(
    held: Sequence[Sequence[str]],
    thread: int,
    resource: str,
    mode: str,
    mutation: Optional[str] = None,
) -> bool:
    idx = _resource_index(resource)
    for other, row in enumerate(held):
        if other == thread:
            continue
        other_mode = row[idx]
        if other_mode == NO_LOCK:
            continue
        if mutation == "xx_compatible" and mode == "X" and other_mode == "X":
            continue  # the seeded bug: a second X grant slips past the check
        if not compatible(mode, other_mode):
            return False
    return True


def _has_parent_intent(
    held: Sequence[Sequence[str]], thread: int, resource: str, mode: str
) -> bool:
    idx = _resource_index(resource)
    if idx == 0:
        return True
    parent_mode = held[thread][idx - 1]
    return parent_mode in REQUIRED_PARENT_MODE[mode]


def _with_lock(
    held: Tuple[Tuple[str, ...], ...], thread: int, resource: str, mode: str
) -> Tuple[Tuple[str, ...], ...]:
    idx = _resource_index(resource)
    rows = [list(row) for row in held]
    rows[thread][idx] = mode
    return tuple(tuple(row) for row in rows)


def _acquire(state: State, config: LockingConfig) -> Iterator[Dict[str, Any]]:
    """Acquire: a thread acquires a lock it does not hold, hierarchy permitting."""
    held = state["held"]
    for thread in config.threads:
        for resource in RESOURCES:
            idx = _resource_index(resource)
            if held[thread][idx] != NO_LOCK:
                continue
            for mode in config.modes:
                if not _has_parent_intent(held, thread, resource, mode):
                    continue
                if not _grantable(held, thread, resource, mode, config.mutation):
                    continue
                yield {"held": _with_lock(held, thread, resource, mode)}


def _release(state: State, config: LockingConfig) -> Iterator[Dict[str, Any]]:
    """Release: a thread releases a lock, children first (leaf-to-root order)."""
    held = state["held"]
    for thread in config.threads:
        for resource in reversed(RESOURCES):
            idx = _resource_index(resource)
            if held[thread][idx] == NO_LOCK:
                continue
            # A lock may only be released once all child locks are released.
            if any(held[thread][child] != NO_LOCK for child in range(idx + 1, len(RESOURCES))):
                continue
            yield {"held": _with_lock(held, thread, resource, NO_LOCK)}
            break  # only the deepest held lock of this thread is releasable


def _mutual_exclusion(state: State, config: LockingConfig) -> bool:
    """At most one thread holds an exclusive lock on any one resource."""
    held = state["held"]
    for idx in range(len(RESOURCES)):
        if sum(1 for thread in config.threads if held[thread][idx] == "X") > 1:
            return False
    return True


def _no_conflicting_grants(state: State, config: LockingConfig) -> bool:
    """Incompatible modes are never simultaneously granted on one resource."""
    held = state["held"]
    for resource in RESOURCES:
        modes = _holders(held, resource)
        for i, mode_a in enumerate(modes):
            for mode_b in modes[i + 1 :]:
                if not compatible(mode_a, mode_b):
                    return False
    return True


def _hierarchy_respected(state: State, config: LockingConfig) -> bool:
    """Every held child lock is covered by an appropriate lock on its parent."""
    held = state["held"]
    for thread in config.threads:
        for idx in range(1, len(RESOURCES)):
            mode = held[thread][idx]
            if mode == NO_LOCK:
                continue
            parent_mode = held[thread][idx - 1]
            if parent_mode not in REQUIRED_PARENT_MODE[mode]:
                return False
    return True


def _exclusive_is_exclusive(state: State, config: LockingConfig) -> bool:
    """When a thread holds X on a resource, no other thread holds any lock on it."""
    held = state["held"]
    for resource in RESOURCES:
        idx = _resource_index(resource)
        x_holders = [t for t in config.threads if held[t][idx] == "X"]
        if not x_holders:
            continue
        others = [t for t in config.threads if held[t][idx] != NO_LOCK and t not in x_holders]
        if others or len(x_holders) > 1:
            return False
    return True


def build_spec(config: Optional[LockingConfig] = None) -> Specification:
    """Assemble the hierarchical-locking specification."""
    cfg = config or LockingConfig()

    def bind(effect):
        return lambda state: effect(state, cfg)

    def init() -> Iterable[Dict[str, Any]]:
        yield {"held": _initial_held(cfg)}

    return Specification(
        "Locking",
        variables=VARIABLES,
        init=init,
        actions=[
            Action("Acquire", bind(_acquire)),
            Action("Release", bind(_release)),
        ],
        invariants=[
            # MutualExclusion first: it is the invariant the seeded
            # "xx_compatible" mutation is defined to violate, and
            # violated_invariant() reports the first tripped invariant.
            Invariant("MutualExclusion", bind(_mutual_exclusion)),
            Invariant("NoConflictingGrants", bind(_no_conflicting_grants)),
            Invariant("HierarchyRespected", bind(_hierarchy_respected)),
            Invariant("ExclusiveIsExclusive", bind(_exclusive_is_exclusive)),
        ],
        constants={
            "n_threads": cfg.n_threads,
            "allow_exclusive": cfg.allow_exclusive,
            "mutation": cfg.mutation,
        },
    )


# ---------------------------------------------------------------------------
# Pipeline hooks (see repro.tla.registry)
# ---------------------------------------------------------------------------


def spec_factory(**params: Any) -> Specification:
    """Build the locking spec from flat keyword parameters (CLI entry point)."""
    return build_spec(LockingConfig(**params))


def per_node_variables(spec: Specification) -> Tuple[str, ...]:
    """Variables indexed by node id; here a "node" is a contending thread."""
    return ("held",)


def node_count(spec: Specification) -> int:
    """How many per-node slots each per-node variable carries."""
    return int(spec.constants["n_threads"])


registry.register_spec(
    "locking",
    spec_factory,
    description="MongoDB-style hierarchical locking (paper Section 4.2.5); "
    "params: n_threads, allow_exclusive, mutation (seeded bug, e.g. "
    "xx_compatible)",
    per_node_variables=per_node_variables,
    node_count=node_count,
)
